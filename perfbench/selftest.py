"""Self-test of the benchmark on the small shipped configs n1 and cfg_b,
run from the repository root:

    python3 perfbench/selftest.py

It checks that both modes print every metric of BENCHMARK.json with its
unit and pass the correctness gate, and that the gate trips when one
determinant value is perturbed.  Exits with code 0 when every check holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402


def printed(checks, metrics):
    """The last line ``run.emit`` prints, parsed."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        run.emit(checks, metrics)
    return json.loads(buf.getvalue().splitlines()[-1])


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for path in (workloads.SHIPPED[0], workloads.SHIPPED[1]):
        wl = workloads.PairTable(path, seed=1, setup_reps=1)
        for section, result in (("end_to_end", run.measure(wl, 0.0)),
                                ("per_layer", run.trace(wl))):
            out = printed(*result)
            got = {name: m["unit"] for name, m in out["metrics"].items()}
            want = {m["name"]: m["unit"] for m in spec[section]}
            if got != want:
                problems.append(f"{path.name} {section}: printed {got}, expected {want}")
            if not out["correct"] or out["failed"] or out["attempted"] < 1:
                problems.append(f"{path.name} {section}: gate failed on unperturbed values")
        # one perturbed ff_u value, then one perturbed pairing determinant
        for table, col in ((wl.ff, 1), (wl.pairing, wl.bras[0])):
            saved = table[0, col]
            table[0, col] += 1e-4 * abs(table).max()
            checks = wl.check()
            table[0, col] = saved
            if checks.failed != 1:
                problems.append(f"{path.name}: {checks.failed} failures after one "
                                "perturbed determinant value, expected 1")
    for line in problems:
        print("FAIL", line)
    print("selftest:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
