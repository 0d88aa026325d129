"""Ground-truth helpers, the verification battery, and the command-line
front end (exit codes, row formats, determinism)."""

import dataclasses
import json
import csv as csv_mod
import os
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from sgsov import model_core as mc
from sgsov import oracle
from sgsov import spectrum as sp
from sgsov import separate_states as ss
from sgsov.sov_basis import DegenerateSpectrum
from sgsov.local_ops import SingularMatrix
from sgsov.cli import main, load_config, ConfigError, EXIT_CLOSED_OUTPUT


def test_transfer_acts_on_eigenstate_vectors_by_its_eigenvalue(cfg_a):
    lam = cfg_a.params.spectral_samples(cfg_a.rng(601), 1)[0]
    T = mc.transfer(cfg_a.mono, lam)
    for i, j in ((0, 0), (2, 5)):
        me = complex(cfg_a.covs[i] @ T @ cfg_a.vecs[j])
        pairing = cfg_a.covs[i] @ cfg_a.vecs[j]
        expect = sp.eval_t(cfg_a.states.t_rows[j], lam) * pairing
        scale = max(abs(me), mc.frob(T) * np.linalg.norm(cfg_a.covs[i])
                    * np.linalg.norm(cfg_a.vecs[j]) / cfg_a.params.dim)
        assert abs(me - expect) <= 1e-9 * scale


def test_verify_suite_all_pass(desk_bundles):
    for bundle in desk_bundles.values():
        reports = oracle.verify_suite(bundle.params, seed=2024)
        failed = [r for r in reports if not r.passed]
        assert not failed, [r.label for r in failed]


def test_verify_suite_deterministic(cfg_b):
    r1 = oracle.reports_to_jsonl(oracle.verify_suite(cfg_b.params, seed=55))
    r2 = oracle.reports_to_jsonl(oracle.verify_suite(cfg_b.params, seed=55))
    assert r1 == r2


def test_verify_suite_threaded_matches_serial(cfg_b):
    r1 = oracle.reports_to_jsonl(oracle.verify_suite(cfg_b.params, seed=9))
    r2 = oracle.reports_to_jsonl(oracle.verify_suite(cfg_b.params, seed=9,
                                                     threads=3))
    assert r1 == r2


def test_verify_all_writes_the_algebra_rows_before_the_basis_fails(n1, tmp_path,
                                                                   monkeypatch, capsys):
    # the algebra section reads no basis: one that cannot be built fails the
    # run at the next section, after the algebra rows are written
    calls = []
    algebra = oracle._algebra_section
    monkeypatch.setattr(oracle, "_algebra_section",
                        lambda *args: calls.append(1) or algebra(*args))

    def degenerate(*args, **kwargs):
        raise DegenerateSpectrum("no labeling")

    monkeypatch.setattr(ss, "build_sov_basis", degenerate)
    with pytest.raises(DegenerateSpectrum):
        oracle.verify_suite(n1.params, seed=3)
    assert calls == [1]
    cfg = _write_cfg(tmp_path, _n1_payload())
    assert main(["verify-all", "--config", cfg]) == 3
    out = capsys.readouterr()
    assert "numerical degeneracy: no labeling" in out.err
    params, seed, tolerances = load_config(cfg)
    algebra_rows = oracle.verify_suite(params, seed, tolerances, sections={"algebra"})
    assert algebra_rows and all(r.passed for r in algebra_rows)
    assert out.out == oracle.reports_to_jsonl(algebra_rows)


def test_fault_localization(cfg_a):
    # a corrupted eigenvalue trips the spectral verifiers while the algebra
    # section stays green
    params = cfg_a.params
    algebra = oracle.verify_suite(params, seed=3, sections={"algebra"})
    assert all(r.passed for r in algebra)
    t_coeffs = cfg_a.states.t_rows[0]
    pert = t_coeffs + 0.1 * np.eye(len(t_coeffs))[0]    # the lowest degree
    res = sp.check_functional_equation(params, pert, cfg_a.rng(602))
    assert res > 1e-3
    with pytest.raises(sp.EmptyNullspace):
        sp.fit_Q_polynomial(params, pert)


def test_report_serialization_roundtrip(cfg_b):
    reports = oracle.verify_suite(cfg_b.params, seed=4, sections={"algebra"})
    for line in oracle.reports_to_jsonl(reports).strip().splitlines():
        row = json.loads(line)
        assert set(row) == {"label", "absErr", "relErr", "tolerance", "margin", "pass",
                            "context"}
        assert isinstance(json.loads(row["context"]), dict)


# -- command line -----------------------------------------------------------

def _write_cfg(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _cfg_a_payload(**extra):
    payload = {
        "model": {"N": 3, "p": 3, "p_prime": 2,
                  "kappa": [[0.0, 1.1], [0.0, 1.3], [0.0, 0.7]],
                  "xi": [[1.0, 0.0], [1.2, 0.0], [0.9, 0.0]]},
        "seed": 1234,
    }
    payload.update(extra)
    return payload


def _n1_payload():
    return {"model": {"N": 1, "p": 3, "p_prime": 2,
                      "kappa": [[0.0, 0.9]], "xi": [[1.1, 0.0]]},
            "seed": 1234}


def test_report_margin_in_reports_and_cli_rows(tmp_path):
    report = oracle.ComparisonReport("x", 1e-9, 2e-9, 1e-8, True)
    assert report.margin == 2e-9 / 1e-8
    diag = oracle.ComparisonReport("y", 1.0, 1.0, 0.0, True, {"diagnostic": True})
    assert diag.margin is None and diag.row()["margin"] is None
    out = tmp_path / "rows.json"
    assert main(["check-algebra", "--config", _write_cfg(tmp_path, _n1_payload()),
                 "--json", str(out)]) == 0
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    # the algebra section's one diagnostic row is digit_parity_commutes
    diagnostic = [json.loads(r["context"]).get("diagnostic", False) for r in rows]
    assert [r["label"] for r, diag in zip(rows, diagnostic) if diag] == ["digit_parity_commutes"]
    for row, diag in zip(rows, diagnostic):
        if diag:
            assert row["margin"] is None
        else:
            assert row["margin"] == row["relErr"] / row["tolerance"]


def test_cli_check_algebra_ok(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, _cfg_a_payload())
    assert main(["check-algebra", "--config", cfg]) == 0
    out = capsys.readouterr().out
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert rows and all(r["pass"] for r in rows)


def test_cli_closed_stdout_exits_141_with_stdout_on_devnull(tmp_path, monkeypatch):
    # a reader that closes the pipe (``| head``) is not a failed check
    fd = os.open(tmp_path / "out", os.O_WRONLY | os.O_CREAT)

    class ClosedPipe:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def flush(self):
            pass

        def fileno(self):
            return fd

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    try:
        code = main(["check-algebra", "--config", _write_cfg(tmp_path, _cfg_a_payload())])
        assert code == EXIT_CLOSED_OUTPUT == 141
        # the descriptor now writes to devnull, so the flush at exit stays quiet
        assert os.path.samestat(os.fstat(fd), os.stat(os.devnull))
    finally:
        os.close(fd)


def test_verify_all_writes_each_section_as_it_finishes(tmp_path, monkeypatch, capsys):
    # a later section that raises exits 3 with the rows of the earlier
    # sections already written
    def singular(*args):
        raise SingularMatrix("local section")

    monkeypatch.setattr(oracle, "_local_section", singular)
    cfg = _write_cfg(tmp_path, _cfg_a_payload())
    assert main(["verify-all", "--config", cfg]) == 3
    out = capsys.readouterr()
    assert "numerical degeneracy: local section" in out.err
    params, seed, tolerances = load_config(cfg)
    earlier = oracle.verify_suite(params, seed, tolerances,
                                  sections={"algebra", "sov", "spectrum", "scalar"})
    assert out.out == oracle.reports_to_jsonl(earlier)


def test_cli_rejects_even_p(tmp_path, capsys):
    payload = _cfg_a_payload()
    payload["model"]["p"] = 4
    cfg = _write_cfg(tmp_path, payload)
    assert main(["check-algebra", "--config", cfg]) == 2
    assert "odd" in capsys.readouterr().err


def test_cli_rejects_malformed_complex(tmp_path):
    payload = _cfg_a_payload()
    payload["model"]["kappa"][0] = "1.1j"
    cfg = _write_cfg(tmp_path, payload)
    assert main(["check-algebra", "--config", cfg]) == 2


def test_cli_degenerate_exit(tmp_path):
    payload = _cfg_a_payload(tolerances={"zero_gap": 1.0})
    cfg = _write_cfg(tmp_path, payload)
    assert main(["verify-all", "--config", cfg]) == 3


def test_wide_baxter_nullspace_raises(tmp_path, monkeypatch, cfg_a, capsys):
    # a null threshold just above state 0's fit gap takes in a second null
    # direction: the fit names the dimension and the CLI exits 3
    spec = cfg_a.states
    monkeypatch.setattr(sp, "NULL_TOL", 1.01 * spec.fit_gap[0])
    with pytest.raises(DegenerateSpectrum) as info:
        sp.fit_Q_polynomial(cfg_a.params, spec.t_rows[0])
    dim = re.search(r"nullspace has dimension (\d+)", str(info.value))
    assert dim and int(dim.group(1)) > 1
    assert main(["spectrum", "--config", _write_cfg(tmp_path, _cfg_a_payload())]) == 3
    assert "nullspace has dimension" in capsys.readouterr().err


def test_cli_tol_keeps_the_settings_that_are_not_error_bounds(tmp_path):
    # a loose --tol neither widens the B-zero separation nor lowers the
    # rejection floor of the functional equation, and a tight one keeps a
    # configured zero_gap
    cfg = str(Path(__file__).resolve().parent.parent / "configs" / "cfg_a.json")
    assert main(["verify-all", "--config", cfg, "--tol", "0.9"]) == 0
    cfg = _write_cfg(tmp_path, _cfg_a_payload(tolerances={"zero_gap": 1.0}))
    assert main(["verify-all", "--config", cfg, "--tol", "1e-30"]) == 3


def test_cli_degenerate_coupling_on_clock_request(tmp_path):
    payload = {"model": {"N": 1, "p": 3, "p_prime": 2,
                         "kappa": [[0.0, 1.0]], "xi": [[1.1, 0.0]]},
               "seed": 1}
    cfg = _write_cfg(tmp_path, payload)
    assert main(["ff", "--kind", "npoint", "--ops", "v21,u1",
                 "--config", cfg]) == 3


def test_cli_spectrum_rows_and_stable_csv_header(tmp_path):
    cfg = _write_cfg(tmp_path, _n1_payload())
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["spectrum", "--config", cfg, "--csv", str(out1)]) == 0
    assert main(["spectrum", "--config", cfg, "--csv", str(out2)]) == 0
    rows1 = out1.read_text().splitlines()
    rows2 = out2.read_text().splitlines()
    assert rows1 == rows2
    header = rows1[0].split(",")
    assert header[0] == "index"
    assert len(rows1) == 1 + 3  # one row per eigenstate


def test_cli_spectrum_row_count_cfg_a(tmp_path):
    cfg = _write_cfg(tmp_path, _cfg_a_payload())
    out = tmp_path / "spec.csv"
    assert main(["spectrum", "--config", cfg, "--csv", str(out)]) == 0
    with open(out) as fh:
        rows = list(csv_mod.DictReader(fh))
    assert len(rows) == 27


def test_cli_spectrum_checks_the_merged_tolerances(tmp_path):
    # the functional-equation residuals (about 1e-15) miss a 1e-30 tolerance,
    # whether it comes from --tol or from the config
    cfg = _write_cfg(tmp_path, _cfg_a_payload())
    assert main(["spectrum", "--config", cfg]) == 0
    assert main(["spectrum", "--config", cfg, "--tol", "1e-30"]) == 1
    cfg = _write_cfg(tmp_path, _cfg_a_payload(tolerances={"functional_eq": 1e-30}))
    assert main(["spectrum", "--config", cfg]) == 1


@pytest.mark.parametrize("fmt", ["--json", "--csv"])
def test_cli_scalar_and_sov_build(tmp_path, fmt):
    cfg = _write_cfg(tmp_path, _n1_payload())
    out = tmp_path / "rows.out"
    assert main(["sov-build", "--config", cfg, fmt, str(out)]) == 0
    if fmt == "--csv":
        with open(out, newline="") as fh:
            rows = list(csv_mod.DictReader(fh))
        # one row per variable and one per label tuple: N + p^N for n1
        assert len(rows) == 1 + 3
    else:
        rows = [json.loads(line) for line in out.read_text().splitlines()]
    kinds = {r.get("kind") for r in rows}
    assert {"variable", "measure"} <= kinds
    assert main(["scalar", "--config", cfg]) == 0


def test_cli_tol_reaches_every_asserted_row(tmp_path):
    out = tmp_path / "rows.jsonl"
    cfg = str(Path(__file__).resolve().parent.parent / "configs" / "hom3.json")
    assert main(["verify-all", "--config", cfg, "--tol", "1e-30", "--json", str(out)]) == 1
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    asserted = [r for r in rows if not json.loads(r["context"]).get("diagnostic", False)]
    assert asserted and all(r["tolerance"] == 1e-30 for r in asserted)


def test_cli_ff_u_full_pair_table(tmp_path):
    cfg = _write_cfg(tmp_path, _cfg_a_payload())
    out = tmp_path / "ff.jsonl"
    assert main(["ff", "--kind", "u", "--site", "1", "--config", cfg,
                 "--json", str(out)]) == 0
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(rows) == 27 * 27
    assert all(r["pass"] for r in rows)


def test_cli_ff_npoint(tmp_path):
    cfg = _write_cfg(tmp_path, _n1_payload())
    out = tmp_path / "np.jsonl"
    assert main(["ff", "--kind", "npoint", "--ops", "u1,u1", "--config", cfg,
                 "--json", str(out)]) == 0
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(rows) == 3 and all(r["pass"] for r in rows)


def test_cli_ff_elementary_pair_table(tmp_path):
    cfg = _write_cfg(tmp_path, _cfg_b_payload())
    out = tmp_path / "ffe.jsonl"
    assert main(["ff", "--kind", "elementary", "--factors", "1:1:1", "--config", cfg,
                 "--json", str(out)]) == 0
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(rows) == 9 * 9 and all(r["pass"] for r in rows)


def test_cli_verify_all_deterministic_stream(tmp_path):
    cfg = _write_cfg(tmp_path, _n1_payload())
    out1, out2 = tmp_path / "v1.jsonl", tmp_path / "v2.jsonl"
    assert main(["verify-all", "--config", cfg, "--json", str(out1),
                 "--seed", "17"]) == 0
    assert main(["verify-all", "--config", cfg, "--json", str(out2),
                 "--seed", "17"]) == 0
    assert out1.read_text() == out2.read_text()


def test_load_config_validation(tmp_path):
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{\"model\": {\"N\": 2}}")
    with pytest.raises(ConfigError):
        load_config(str(bad))
    bad.write_text(json.dumps(_cfg_a_payload(tolerances={"nope": 1.0})))
    with pytest.raises(ConfigError):
        load_config(str(bad))


@pytest.mark.parametrize("payload, argv", [
    ({"tolerances": {"algebra": float("nan")}}, []),
    ({"tolerances": {"algebra": -1.0}}, []),
    ({"tolerances": {"algebra": True}}, []),
    ({"seed": True}, []),
    ({"model": dict(_n1_payload()["model"], xi=[[True, False]])}, []),
    ({"model": dict(_n1_payload()["model"], kappa=[True])}, []),
    ({}, ["--tol", "nan"]),
    ({}, ["--tol", "-1"]),
], ids=["tol-nan", "tol-negative", "tol-bool", "seed-bool", "xi-bool-pair", "kappa-bool",
        "cli-tol-nan", "cli-tol-negative"])
def test_bad_tolerance_or_seed_rejected_at_load(tmp_path, capsys, payload, argv):
    cfg = _write_cfg(tmp_path, dict(_n1_payload(), **payload))
    assert main(["verify-all", "--config", cfg] + argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "config error" in captured.err


def _cfg_b_payload():
    return {"model": {"N": 2, "p": 3, "p_prime": 2,
                      "kappa": [[0.0, 1.1], [0.0, 0.8]], "xi": [[1.0, 0.0], [1.3, 0.0]]},
            "seed": 1234}


@pytest.mark.parametrize("payload, argv", [
    (_n1_payload(), ["verify-all", "--seed", "-3"]),
    (_n1_payload(), ["ff", "--site", "0"]),
    (_n1_payload(), ["ff", "--site", "5"]),
    (_cfg_b_payload(), ["ff", "--kind", "elementary", "--factors", "1:2"]),
    (_cfg_b_payload(), ["ff", "--kind", "elementary", "--factors", "9:0:1"]),
    (_cfg_b_payload(), ["ff", "--kind", "elementary", "--factors", "2:0:1,1:0:1"]),
    (_n1_payload(), ["ff", "--kind", "npoint", "--ops", "u9"]),
    (_n1_payload(), ["ff", "--kind", "npoint", "--ops", ""]),
    (_cfg_b_payload(), ["ff", "--kind", "u", "--site", "2"]),
    (_n1_payload(), ["verify-all", "--json", "/nonexistent/dir/x.jsonl"]),
    (_n1_payload(), ["ff", "--csv", "/nonexistent/dir/x.csv"]),
], ids=["seed-negative", "site-0", "site-5", "factor-two-fields", "factor-variable",
        "factors-descending", "op-site", "ops-empty", "site-inhomogeneous",
        "json-unwritable", "csv-unwritable"])
def test_bad_arguments_rejected_before_computation(tmp_path, capsys, payload, argv):
    assert main(argv + ["--config", _write_cfg(tmp_path, payload)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "config error" in captured.err


def test_cli_ff_u_shifted_site_on_homogeneous_chain(tmp_path):
    payload = _cfg_a_payload()
    payload["model"]["kappa"] = [[0.0, 1.1]] * 3
    payload["model"]["xi"] = [[1.0, 0.0]] * 3
    out = tmp_path / "ff.jsonl"
    assert main(["ff", "--kind", "u", "--site", "2", "--config", _write_cfg(tmp_path, payload),
                 "--json", str(out)]) == 0
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(rows) == 27 * 27 and all(r["pass"] for r in rows)


def test_cli_ff_u_and_oracle_share_the_error_rule(tmp_path):
    # the worst row of the CLI pair table is the oracle's ff_u_full_sweep row
    cfg = _write_cfg(tmp_path, _cfg_a_payload())
    out = tmp_path / "ff.jsonl"
    assert main(["ff", "--kind", "u", "--config", cfg, "--json", str(out)]) == 0
    worst = max(json.loads(line)["relErr"] for line in out.read_text().splitlines())
    params, seed, tolerances = load_config(cfg)
    rows = {r.label: r for r in oracle.verify_suite(params, seed, tolerances,
                                                     sections={"ff"})}
    assert worst == rows["ff_u_full_sweep"].rel_err


def _shipped_cfg_b_with(top=None, model=None):
    payload = json.loads((Path(__file__).resolve().parent.parent / "configs"
                          / "cfg_b.json").read_text())
    payload.update(top or {})
    payload["model"].update(model or {})
    return payload


@pytest.mark.parametrize("payload, key", [
    (_shipped_cfg_b_with(top={"tolerance": {"ff_u": 1e-30}}), "tolerance"),
    (_shipped_cfg_b_with(model={"p_prim": 4}), "p_prim"),
], ids=["top-level-tolerance", "model-p_prim"])
def test_unknown_config_keys_rejected_at_load(tmp_path, capsys, payload, key):
    # a misspelt key would otherwise be ignored and the run use the defaults
    assert main(["verify-all", "--config", _write_cfg(tmp_path, payload)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "config error" in captured.err and f"'{key}'" in captured.err


def test_digit_parity_row_reports_the_spectrum_route(cfg_a):
    # diagnostic: the chain with site phases lacks the parity but passes
    phases = dict(u=np.exp(1j * np.array([0.3, -0.7, 1.1])),
                  v=np.exp(1j * np.array([0.5, 0.2, -0.9])))
    for params, split in ((cfg_a.params, True),
                          (dataclasses.replace(cfg_a.params, **phases), False)):
        row, = [r for r in oracle.verify_suite(params, seed=5, sections={"algebra"})
                if r.label == "digit_parity_commutes"]
        assert row.passed and row.margin is None
        assert row.context["bound"] == sp.PARITY_TOL
        assert row.context["parity_blocks"] is split
        assert (row.rel_err <= sp.PARITY_TOL) is split
