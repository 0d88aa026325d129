"""The benchmark workloads and their correctness gate.

Each workload is one process with one caller (a closed loop).  A run has
three parts: set-up, repeated and reported as a median; the timed phase;
and the correctness gate, which compares the timed outputs with dense
linear algebra only after the clock has stopped.  Every call into sgsov goes
through a module attribute, so that the wrappers of ``tracing`` see it.
"""

from __future__ import annotations

import collections
import contextlib
import gc
import io
import json
import signal
import statistics
import time
from pathlib import Path

import numpy as np

from sgsov import (cli, form_factors, model_core, oracle, separate_states,
                   sov_basis, spectrum)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SHIPPED = [ROOT / "configs" / f"{name}.json"
           for name in ("n1", "cfg_b", "cfg_a", "hom3", "stretch_p5")]
SECTIONS = ("algebra", "sov", "spectrum", "scalar", "local", "ff")


def _rng(seed, salt):
    return np.random.default_rng(np.random.SeedSequence([seed, salt]))


# On a shared host the machine's speed drifts by up to 30% within seconds,
# which would spread raw timings from run to run by more than any bound.  So
# timings are scaled to a reference speed: the slowdown is the time of a
# fixed kernel (small dense determinants and NumPy reductions with Python
# overhead, as in the determinant path), run between pieces of work, over
# REF_S, its median time when run that way on the 2-core box this benchmark
# was written on.  The kernel is benchmark code, so no change to sgsov
# moves it.
REF_S = 0.005
_KERNEL_M = np.array([[1.1, -0.3j, 0.5], [0.2, 0.9 + 0.4j, -0.7], [0.6j, 0.3, 1.2]])
_KERNEL_V = np.array([0.8 + 0.1j, -0.5j, 1.1, 0.3 - 0.6j, 0.9j])


def slowdown():
    """Time of the reference kernel over ``REF_S``."""
    t0 = time.perf_counter()
    acc = 0j
    for _ in range(400):
        acc += np.linalg.det(_KERNEL_M) + complex(np.sum(_KERNEL_V * _KERNEL_V ** 3))
    return (time.perf_counter() - t0) / REF_S


class ReferenceClock:
    """Seconds at reference speed across one long call that cannot be cut
    into pieces: a timer signal samples the slowdown every ``PERIOD_S``,
    and each stretch of wall time is divided by the median of the last
    ``SAMPLES`` slowdowns known at its start.  The kernel's own time is
    left out."""

    PERIOD_S = 0.25
    SAMPLES = 5

    def __enter__(self):
        self.elapsed = 0.0
        self.samples = collections.deque(
            (slowdown() for _ in range(self.SAMPLES)), maxlen=self.SAMPLES)
        self.last = time.perf_counter()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, signum, frame):
        self.elapsed += (time.perf_counter() - self.last) / statistics.median(self.samples)
        self.samples.append(slowdown())
        self.last = time.perf_counter()

    def now(self):
        return self.elapsed + (time.perf_counter() - self.last) / statistics.median(self.samples)


def load(path):
    """Model parameters, seed and full tolerance table of one config file."""
    params, seed, overrides = cli.load_config(str(path))
    tol = dict(oracle.DEFAULT_TOLERANCES)
    tol.update(overrides)
    return params, seed, tol


def prepare(params, seed, tol):
    """The prepared solution, built by the public calls in the order the
    CLI uses them."""
    mono = model_core.monodromy(params)
    basis = sov_basis.build_sov_basis(params, mono=mono, rel_gap=tol["zero_gap"],
                                      rng=_rng(seed, 1))
    states = spectrum.diagonalize_transfer(params, mono, rng=_rng(seed, 2))
    for st in states:
        spectrum.extract_Q_grid(st, basis)
        st.q_poly, st.nullspace_dim = spectrum.fit_Q_polynomial(
            params, st.t_coeffs, _rng(seed, 3))
        st.qbar_poly = spectrum.qbar_from_q(params, st.q_poly)
        separate_states.attach_q_data(st, basis)
    return basis, states


class Checks:
    """Pass/fail verdict of every check, and per layer the worst margin
    (relative error / tolerance) of the checks that have one."""

    LAYERS = ("form_factors.ff_u", "separate_states.eigen_action", "oracle")

    def __init__(self):
        self.passed = []
        self.worst = dict.fromkeys(self.LAYERS, 0.0)

    def add(self, layer, margins, passed=None):
        """Margins that pass at most 1, or by the given verdicts."""
        margins = np.asarray(margins, dtype=float).ravel()
        ok = margins <= 1.0 if passed is None else np.broadcast_to(passed, margins.shape)
        self.passed.extend(bool(x) for x in ok)
        # NaN propagates, and the JSON writer then refuses the result
        self.worst[layer] = float(np.max(np.append(margins, self.worst[layer])))

    def verdict(self, passed):
        self.passed.append(bool(passed))

    @property
    def attempted(self):
        return len(self.passed)

    @property
    def failed(self):
        return self.passed.count(False)

    def metrics(self):
        return {f"{layer}.max_margin": worst for layer, worst in self.worst.items()}


class PairTable:
    """``ff_u`` (site 1) and ``eigen_action`` from each bra row to every ket
    of one prepared chain.  ``n_bras`` rows are drawn from the seed; by
    default every eigenstate is a bra."""

    setup_reps = 5
    counts_import = False

    def __init__(self, path, seed, n_bras=None, setup_reps=None):
        self.path = path
        self.seed = seed
        self.n_bras = n_bras
        if setup_reps is not None:
            self.setup_reps = setup_reps
        self.basis = self.states = None

    def setup(self):
        # drop the previous preparation first, so that repeats do not stack
        # up in the peak resident memory
        self.basis = self.states = None
        gc.collect()
        self.params, _, self.tol = load(self.path)
        self.basis, self.states = prepare(self.params, self.seed, self.tol)
        d = len(self.states)
        self.bras = (np.arange(d) if self.n_bras is None else
                     np.sort(_rng(self.seed, 7).choice(d, self.n_bras, replace=False)))
        self.ff = np.zeros((len(self.bras), d), dtype=complex)
        self.pairing = np.zeros_like(self.ff)

    def _row(self, r):
        params, basis, states = self.params, self.basis, self.states
        bra = states[self.bras[r]]
        t0 = time.perf_counter()
        self.ff[r] = [form_factors.ff_u(params, basis, bra, ket, 1).value
                      for ket in states]
        t1 = time.perf_counter()
        self.pairing[r] = [separate_states.eigen_action(basis, bra, ket)
                           for ket in states]
        t2 = time.perf_counter()
        # scaled to reference speed by the slowdown measured right after
        slow = slowdown()
        self.ff_s[r].append((t1 - t0) / slow)
        self.pair_s[r].append((t2 - t1) / slow)

    def run(self, seconds=None):
        """Rows in order, cycling until every row has run once and
        ``seconds`` have passed; one pass when ``seconds`` is None."""
        n = len(self.bras)
        self.ff_s = [[] for _ in range(n)]
        self.pair_s = [[] for _ in range(n)]
        start = time.perf_counter()
        done = 0
        while done < n or (seconds is not None
                           and time.perf_counter() - start < seconds):
            self._row(done % n)
            done += 1

    # per-row medians, summed over the rows: one pass over the table at
    # reference speed
    def ff_time(self):
        return sum(statistics.median(t) for t in self.ff_s)

    def pair_time(self):
        return sum(statistics.median(t) for t in self.pair_s)

    def pairs(self):
        return self.ff.size

    def pass_s(self):
        return self.ff_time() + self.pair_time()

    def rates(self):
        return self.pairs() / self.ff_time(), self.pairs() / self.pair_time()

    def check(self, checks=None):
        """Dense gate: ``ff_u`` against ``covs @ U1 @ vecs.T`` with the
        oracle's scale and tolerance; ``eigen_action`` diagonals against
        ``covs[i] @ vecs[i]``, off-diagonals by the orthogonality
        criterion."""
        checks = checks if checks is not None else Checks()
        params, basis, states, tol = self.params, self.basis, self.states, self.tol
        d = len(states)
        sep = [separate_states.eigenstate_separate_states(st, basis) for st in states]
        covs = np.array([separate_states.materialize(left, basis) for left, _ in sep])
        vecs = np.array([separate_states.materialize(right, basis) for _, right in sep])
        u1 = model_core.site_embed(params, 1, model_core.weyl_generators(
            params.p, params.u[0], params.v[0], params.p_prime)[0])
        bras = self.bras
        dense = covs[bras] @ u1 @ vecs.T
        ncov = np.linalg.norm(covs, axis=1)
        nvec = np.linalg.norm(vecs, axis=1)
        scale = np.maximum(np.maximum(np.abs(dense), np.abs(self.ff)),
                           ncov[bras, None] * nvec[None, :] / np.sqrt(d))
        checks.add("form_factors.ff_u", np.abs(dense - self.ff) / scale / tol["ff_u"])

        diag = np.einsum("ij,ij->i", covs, vecs)
        margin = np.abs(self.pairing) / np.sqrt(
            np.abs(diag[bras, None]) * np.abs(diag[None, :])) / tol["orthogonality"]
        rows = np.arange(len(bras))
        margin[rows, bras] = (np.abs(diag[bras] - self.pairing[rows, bras])
                              / np.abs(diag[bras]) / tol["scalar_product"])
        checks.add("separate_states.eigen_action", margin)
        return checks

    def layer_counts(self):
        return {"cli.rows": 0, "oracle.checks": 0, "oracle.checks_failed": 0}

    def trace_sections(self, tracer):
        pass


class VerifyShipped:
    """``sgsov verify-all`` in process on every shipped config, as shipped:
    at the seed each config file carries.  Then the full pair tables of the
    four small shipped configs, prepared from the benchmark seed (the pair
    table of ``stretch_p5`` is the ``ff_table_odd`` workload).

    verify-all does not take the benchmark seed because at some seeds it
    fails on a shipped config (``hom3`` fails ``quantum_determinant_op`` at
    seed 55; see the known defects in README.md), and a benchmark workload
    must pass on every seed."""

    setup_reps = 5
    counts_import = True

    def __init__(self, seed):
        self.seed = seed
        self.tables = [PairTable(path, seed) for path in SHIPPED[:4]]

    def setup(self):
        self.configs = [load(path) for path in SHIPPED]
        for table in self.tables:
            table.setup()

    def _verify_pass(self):
        outputs = []
        with ReferenceClock() as clock:
            for path in SHIPPED:
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    code = cli.main(["verify-all", "--config", str(path),
                                     "--threads", "1"])
                outputs.append((code, buf.getvalue()))
            return clock.now(), outputs

    # the small tables take milliseconds per pass; repeating them for this
    # long gives each row a median over several samples
    TABLE_S = 1.0

    def run(self, seconds=None):
        """Verify passes until ``seconds`` have passed (one when None), then
        each small pair table for ``TABLE_S`` (one pass when None)."""
        self.pass_times = []
        start = time.perf_counter()
        while not self.pass_times or (seconds is not None
                                      and time.perf_counter() - start < seconds):
            elapsed, self.outputs = self._verify_pass()
            self.pass_times.append(elapsed)
        for table in self.tables:
            table.run(None if seconds is None else self.TABLE_S)

    def pass_s(self):
        return statistics.median(self.pass_times)

    def rates(self):
        pairs = sum(t.pairs() for t in self.tables)
        return (pairs / sum(t.ff_time() for t in self.tables),
                pairs / sum(t.pair_time() for t in self.tables))

    def _rows(self):
        return [(code, [json.loads(line) for line in text.splitlines()])
                for code, text in self.outputs]

    def check(self, checks=None):
        """Every config exits with code 0 and every asserted row passes; the
        small pair tables go through the dense gate."""
        checks = checks if checks is not None else Checks()
        for code, rows in self._rows():
            checks.verdict(code == cli.EXIT_OK)
            for row in rows:
                if not json.loads(row["context"]).get("diagnostic", False):
                    checks.add("oracle", [row["relErr"] / row["tolerance"]], row["pass"])
        for table in self.tables:
            table.check(checks)
        return checks

    def layer_counts(self):
        rows = [row for _, rs in self._rows() for row in rs]
        asserted = [r for r in rows
                    if not json.loads(r["context"]).get("diagnostic", False)]
        return {"cli.rows": len(rows), "oracle.checks": len(asserted),
                "oracle.checks_failed": sum(1 for r in asserted if not r["pass"])}

    def trace_sections(self, tracer):
        """One ``verify_suite(sections={name})`` call per section and config."""
        for name in SECTIONS:
            with tracer.phase("section:" + name):
                for params, seed, tol in self.configs:
                    oracle.verify_suite(params, seed, tol, threads=1,
                                        sections={name})


def make(name, seed):
    """A workload of ``WORKLOADS`` or the reproducer of ``REPRODUCERS``."""
    if name == "verify_shipped":
        return VerifyShipped(seed)
    if name == "ff_table_odd":
        return PairTable(SHIPPED[-1], seed)
    if name == "dense_wall_even":
        return PairTable(HERE / "configs" / "dense_wall_even.json", seed,
                         n_bras=16, setup_reps=2)
    raise KeyError(name)


# the workloads of BENCHMARK.json
WORKLOADS = ("verify_shipped", "ff_table_odd")
# runs like a workload, but is kept out of BENCHMARK.json: it reproduces a
# known defect (some sampled ff_u pairs miss the tolerance on most seeds), so
# its result line reads ``"correct": false``
REPRODUCERS = ("dense_wall_even",)
