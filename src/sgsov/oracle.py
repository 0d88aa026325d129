"""Brute-force ground truth and the structured verification battery.

Every check compares a structured formula against dense tensor-product
linear algebra; results are collected as comparison reports that serialize
to JSON lines.  Ground-truth paths never use separated quantities except
the basis vectors under test.  The brute-force targets (embedded site
generators, closed forms of the local operators) are dense; identities
among operators built from the monodromy are checked on their charge
blocks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import reduce
from operator import add, matmul

import numpy as np

from .params import ModelParams
from . import model_core as mc
from . import sov_basis as sb
from . import spectrum as sp
from . import separate_states as ss
from . import form_factors as ffm
from . import local_ops as lo

__all__ = ["ComparisonReport", "verify_suite", "verify_solution",
           "section_reports", "reports_to_jsonl", "table_rel_err", "npoint_errors",
           "DEFAULT_TOLERANCES", "NOT_ERROR_BOUNDS"]


DEFAULT_TOLERANCES = {
    "algebra": 1e-10,
    "average": 1e-9,
    "sov_pattern": 1e-8,
    "biorthogonality": 1e-9,
    "measure": 1e-8,
    "sov_identity": 1e-8,       # times p^N
    "functional_eq": 1e-8,
    "functional_eq_reject": 1e-3,
    "baxter_grid": 1e-8,
    "factorization": 1e-7,
    "scalar_product": 1e-8,
    "orthogonality": 1e-8,
    "t_identity": 1e-7,         # times p^N
    "reconstruction": 1e-8,
    "monomial": 1e-8,
    "qcombinatorics": 1e-10,
    "elementary": 1e-8,
    "ff_u": 1e-7,
    "ff_elementary": 1e-6,
    "npoint": 1e-6,
    "hermitian_dual": 1e-7,
    "zero_gap": 1e-6,
}
# entries that are not bounds on an error: ``zero_gap`` is the minimal
# relative separation of the B zeros that the construction demands, and
# ``functional_eq_reject`` the floor a perturbed eigenvalue must exceed
NOT_ERROR_BOUNDS = ("zero_gap", "functional_eq_reject")


@dataclass
class ComparisonReport:
    label: str
    abs_err: float
    rel_err: float
    tolerance: float
    passed: bool
    context: dict = field(default_factory=dict)

    @property
    def margin(self):
        """rel_err / tolerance: how close the check came to failing (above 1
        it failed); None on diagnostic rows, whose tolerance may be 0."""
        if self.context.get("diagnostic", False):
            return None
        return self.rel_err / self.tolerance

    def row(self):
        """The report as one row of the CLI stream, with ``context`` as a
        JSON string."""
        return {"label": self.label, "absErr": self.abs_err, "relErr": self.rel_err,
                "tolerance": self.tolerance, "margin": self.margin, "pass": self.passed,
                "context": json.dumps(self.context, sort_keys=True, default=str)}


def reports_to_jsonl(reports):
    return "\n".join(json.dumps(r.row(), sort_keys=True) for r in reports) + "\n"


def table_rel_err(sol, op, values, bras=slice(None), kets=slice(None)):
    """The dense table of ``op`` from ``bras`` to ``kets`` and the relErr of
    the determinant table ``values`` against it, pair by pair:
    |dense - det| / max(|dense|, |det|, |cov_i| |vec_j| |op|_F / d)."""
    covs, vecs = sol.covs[bras], sol.vecs[kets]
    dense = covs @ op @ vecs.T
    floor = np.outer(np.linalg.norm(covs, axis=1), np.linalg.norm(vecs, axis=1)) \
        * (max(np.linalg.norm(op), 1e-300) / sol.params.dim)
    scale = np.maximum(np.maximum(np.abs(dense), np.abs(values)), floor)
    return dense, np.abs(dense - values) / scale


def npoint_errors(sol, ops, index):
    """The multi-point expansions <t| O_1 ... O_m |t> / <t|t> over the dense
    tables of ``ops`` for the eigenstates ``index`` (a sequence of indices),
    their dense values, and the absolute and relative errors,
    relErr = |val - dense| / max(|dense|, |cov| |vec| / |<t|t>|)."""
    tables = [sol.covs @ op @ sol.vecs.T for op in ops]
    values = np.array([ffm.npoint(sol, i, tables) for i in index])
    covs, vecs, norms = sol.covs[index], sol.vecs[index], sol.norms[index]
    left = covs
    for op in ops:
        left = left @ op
    dense = np.sum(left * vecs, axis=1) / norms
    err = np.abs(values - dense)
    scale = np.maximum(np.abs(dense), np.linalg.norm(covs, axis=1)
                       * np.linalg.norm(vecs, axis=1) / np.abs(norms))
    return values, dense, err, err / scale


class _Suite:
    def __init__(self, sol, tolerances):
        self.params = sol.params
        self.rng = sol.rng
        self.tol = dict(DEFAULT_TOLERANCES)
        if tolerances:
            self.tol.update(tolerances)
        self.reports = []

    def report(self, label, err, rel, tol_key, context):
        """Append one report of absolute error ``err`` and relative error
        ``rel``; diagnostic reports always pass."""
        tol = self.tol[tol_key] if isinstance(tol_key, str) else tol_key
        passed = True if context.get("diagnostic", False) else bool(rel <= tol)
        self.reports.append(ComparisonReport(
            label=label, abs_err=float(err), rel_err=float(rel), tolerance=float(tol),
            passed=passed, context=context))
        return passed

    def check(self, label, err, tol_key, scale=1.0, diagnostic=False, **context):
        return self.report(label, err, float(err) / max(abs(scale), 1e-300), tol_key,
                           dict(context, diagnostic=diagnostic))

    def value_check(self, label, lhs, rhs, tol_key, **context):
        err = abs(lhs - rhs)
        return self.report(label, err, err / max(abs(lhs), abs(rhs), 1e-300), tol_key, context)


def verify_suite(params: ModelParams, seed: int = 0, tolerances=None,
                 threads: int = 1, sections=None):
    """Run the full invariant battery in dependency order; returns the list
    of comparison reports.  Deterministic for a fixed (params, seed).
    ``threads`` is accepted and ignored: every section runs in the calling
    thread."""
    return verify_solution(ss.prepare(params, seed, tolerances), tolerances,
                           sections=sections)


def verify_solution(sol: ss.Solution, tolerances=None, sections=None):
    """``verify_suite`` on a prepared solution; only the parts of it that
    the chosen sections use get built."""
    return [r for part in section_reports(sol, tolerances, sections) for r in part]


def section_reports(sol: ss.Solution, tolerances=None, sections=None):
    """The reports of ``verify_solution``, one list per section, each
    yielded as soon as its section finishes.  Each section builds the parts
    of ``sol`` that it reads on first use, so a basis that cannot be built
    fails the run at the first section that reads it, after the sections
    before it have yielded their reports."""
    s = _Suite(sol, tolerances)
    for name, section in (("algebra", _algebra_section), ("sov", _sov_section),
                          ("spectrum", _spectrum_section), ("scalar", _scalar_section),
                          ("local", _local_section), ("ff", _ff_section)):
        if sections is None or name in sections:
            s.reports = []
            section(s, sol)
            yield s.reports


# -- sections ---------------------------------------------------------------

def _column_cond(M):
    """Condition number of ``M`` with unit columns: within sqrt(d) of the
    best over column scalings."""
    return float(np.linalg.cond(M / np.linalg.norm(M, axis=0)))


def _algebra_section(s, sol):
    params, mono = s.params, sol.mono
    rng = s.rng(10)
    d = params.dim
    for i in range(10):
        lam, mu = params.spectral_samples(rng, 2)
        s.check(f"yang_baxter[{i}]", mc.yang_baxter_residual(params, lam, mu, mono),
                "algebra", lam=lam, mu=mu)
    for i, lam in enumerate(params.spectral_samples(rng, 3)):
        AD = mono.A.at(lam) @ mono.D.at(lam / params.q) \
            - mono.B.at(lam) @ mono.C.at(lam / params.q)
        scale = mc.frob(AD)
        s.check(f"quantum_determinant_op[{i}]",
                mc.frob(AD - mc.Graded.eye(AD.sectors) * mc.quantum_determinant(params, lam)),
                "algebra", scale=scale, lam=lam)
        l1, l2 = params.spectral_samples(rng, 2)
        T1, T2 = mc.transfer(mono, l1), mc.transfer(mono, l2)
        s.check(f"transfer_commute[{i}]", mc.frob(T1 @ T2 - T2 @ T1), "algebra",
                scale=mc.frob(T1) * mc.frob(T2))
    if params.even_chain:
        theta = mc.theta_charge(params)
        lam = params.spectral_samples(rng, 1)[0]
        B, C = mono.B.evaluate(lam), mono.C.evaluate(lam)
        A, D = mono.A.evaluate(lam), mono.D.evaluate(lam)
        nt = mc.frob(theta)
        s.check("theta_B", mc.frob(B @ theta - params.q * theta @ B), "algebra",
                scale=mc.frob(B) * nt)
        s.check("theta_C", mc.frob(theta @ C - params.q * C @ theta), "algebra",
                scale=mc.frob(C) * nt)
        s.check("theta_A", mc.frob(A @ theta - theta @ A), "algebra",
                scale=mc.frob(A) * nt)
        s.check("theta_D", mc.frob(D @ theta - theta @ D), "algebra",
                scale=mc.frob(D) * nt)
        s.check("theta_cyclic", mc.frob(np.linalg.matrix_power(theta, params.p) - np.eye(d)),
                "algebra", scale=np.sqrt(d))
        pref = np.prod(np.asarray(params.kappa) / (1j * np.asarray(params.xi)))
        prefm = np.prod(np.asarray(params.kappa) * np.asarray(params.xi) / 1j)
        for ename, plus, minus in (("A", theta, np.linalg.inv(theta)),
                                   ("D", np.linalg.inv(theta), theta)):
            e = mono.entry(ename)
            s.check(f"asymptotic_{ename}_lead",
                    mc.frob(e.coeff(params.n_sites) - pref * plus), "algebra",
                    scale=mc.frob(e.coeff(params.n_sites)))
            s.check(f"asymptotic_{ename}_trail",
                    mc.frob(e.coeff(-params.n_sites) - prefm * minus), "algebra",
                    scale=mc.frob(e.coeff(-params.n_sites)))
    # degree / parity structure
    nbar, nsep = params.n_bar, params.n_separate
    ok = all(dg % 2 == 0 and abs(dg) <= nbar for dg in mono.A.degrees) and \
        all(dg % 2 == 0 and abs(dg) <= nbar for dg in mono.D.degrees) and \
        all(dg % 2 == 1 and abs(dg) <= nsep for dg in mono.B.degrees) and \
        all(dg % 2 == 1 and abs(dg) <= nsep for dg in mono.C.degrees)
    s.check("parity_degrees", 0.0 if ok else 1.0, "algebra")
    if params.self_adjoint:
        eps = params.hermitian_eps
        lam = params.spectral_samples(rng, 1)[0]
        pairs = [("A", "D", lam, np.conj(lam)), ("D", "A", lam, np.conj(lam)),
                 ("B", "C", lam, eps * np.conj(lam)), ("C", "B", lam, eps * np.conj(lam))]
        for x, y, lx, ly in pairs:
            X = mono.entry(x).evaluate(lx).conj().T
            Y = mono.entry(y).evaluate(ly)
            s.check(f"hermitian_{x}", mc.frob(X - Y), "algebra", scale=mc.frob(Y))
        lam_r = abs(params.spectral_samples(rng, 1)[0])
        T = mc.transfer(mono, lam_r)
        s.check("transfer_selfadjoint", mc.frob(T - T.conj().T), "algebra",
                scale=mc.frob(T))
    # digit parity: asserts nothing, since a chain with u, v phases lacks it;
    # the context says whether the spectrum (stream 2 of Solution.states)
    # was diagonalized by parity block
    lam = params.spectral_samples(s.rng(13), 1)[0]
    s.check("digit_parity_commutes",
            sp.digit_parity_defect(mc.transfer(mono, lam), mc.digit_negation(params)),
            0.0, diagnostic=True, lam=lam, bound=sp.PARITY_TOL,
            parity_blocks=bool(sp.diagonalization_point(params, mono, s.rng(2))[1]))
    # averages: centrality, the two routes, and the u=v=1 symmetry
    lam = params.spectral_samples(s.rng(11), 1)[0]
    big = lam ** params.p
    for entry in "ABCD":
        dense, dev = mc.average_value_dense(params, entry, lam, mono)
        twobytwo = mc.average_value(params, entry, big)
        s.check(f"average_central_{entry}", dev, "average",
                scale=abs(dense) * np.sqrt(params.dim))
        s.value_check(f"average_routes_{entry}", dense, twobytwo, "average")
    if np.allclose(params.u, 1) and np.allclose(params.v, 1):
        s.value_check("average_B_equals_C",
                      mc.average_value(params, "B", big),
                      mc.average_value(params, "C", big), "average")
    if params.self_adjoint:
        s.value_check("average_conjugation",
                      np.conj(mc.average_value(params, "A", big)),
                      mc.average_value(params, "D", np.conj(big)), "average")
    # centrality against the generators
    prodB = reduce(matmul, [mono.B.at(params.q ** k * lam) for k in range(1, params.p + 1)])
    mu = params.spectral_samples(s.rng(12), 1)[0]
    for ename in "ABCD":
        X = mono.entry(ename).at(mu)
        s.check(f"average_commutes_{ename}", mc.frob(prodB @ X - X @ prodB),
                "average", scale=mc.frob(prodB) * mc.frob(X))


def _sov_section(s, sol):
    params, mono, basis = s.params, sol.mono, sol.basis
    d = params.dim
    grid = basis.grid
    nsep = params.n_separate
    # zeros of the averaged B entry
    for a in range(nsep):
        val = mc.average_value(params, "B", grid.z[a])
        ref = abs(mc.average_value(params, "B", 1.5 * np.max(np.abs(grid.z))))
        s.check(f"b_zero[{a}]", abs(val), "sov_pattern", scale=ref)
    zsq = grid.z[:nsep] ** 2
    pair_err = max(np.min(np.abs(zsq - np.conj(z))) for z in zsq) if nsep else 0.0
    s.check("zeros_conjugation_closed", pair_err, "sov_pattern",
            scale=max(np.max(np.abs(zsq)), 1e-300) if nsep else 1.0)
    # eigenvalue patterns at fresh probe points
    rng = s.rng(20)
    worst = 0.0
    for lam in params.spectral_samples(rng, 3, exclude=grid.grid.reshape(-1)):
        B = mono.B.evaluate(lam)
        pats = sb.b_pattern(params, grid, params.tuples, lam)
        res = np.linalg.norm(basis.left @ B - pats[:, None] * basis.left, axis=1)
        worst = max(worst, float(np.max(res / (np.linalg.norm(B) *
                    np.linalg.norm(basis.left, axis=1)))))
    s.check("left_b_pattern", worst, "sov_pattern")
    # biorthogonality
    G = basis.left @ basis.right
    off = G - np.diag(np.diag(G))
    nl = np.linalg.norm(basis.left, axis=1)
    nr = np.linalg.norm(basis.right, axis=0)
    s.check("biorthogonality", float(np.max(np.abs(off) / (nl[:, None] * nr[None, :]))),
            "biorthogonality")
    # measure and identity
    mf = sb.mjj_formula(basis)
    s.check("measure_closed_form", float(np.max(np.abs(basis.mjj - mf) / np.abs(mf))),
            "measure")
    s.check("measure_nonzero", 0.0 if np.min(np.abs(basis.measure)) > 0 else 1.0,
            "measure")
    ident = sb.sov_diagonal(basis)
    s.check("sov_identity", mc.frob(ident - np.eye(d)) / d, "sov_identity")
    # gauge cycles
    for a in range(nsep):
        dprod = np.prod(mc.d_coeff(params, grid.grid[a]))
        s.value_check(f"cycle_d[{a}]", dprod,
                      mc.average_value(params, "D", grid.z[a]), "measure")
    # shift relations (verification direction), one A(eta) per grid point;
    # the coefficients are evaluated here, not read from the basis tables
    worst = 0.0
    down = params.shifted_indices(-1)
    a_vals = mc.a_coeff(params, grid.grid[:nsep])
    for a in range(nsep):
        for h in range(params.p):
            js = np.flatnonzero(params.tuples[:, a] == h)
            target = a_vals[a, h] * basis.left[down[js, a]]
            got = basis.left[js] @ mono.A.evaluate(grid.grid[a, h])
            worst = max(worst, float(np.max(
                np.linalg.norm(got - target, axis=1)
                / np.maximum(np.linalg.norm(target, axis=1), 1e-300))))
    s.check("left_shift_relations", worst, "sov_pattern")
    # how close the construction came to its own bounds (reported, not asserted)
    s.check("sov_label_mismatch", basis.label_mismatch, 0.0, diagnostic=True,
            bound=sb.LABEL_TOL)
    s.check("sov_calibration_residual", basis.calibration_residual, 0.0,
            diagnostic=True, bound=sb.CALIBRATION_TOL)
    s.check("sov_basis_cond", _column_cond(basis.right), 0.0, diagnostic=True,
            bound=lo.COND_LIMIT)


def _spectrum_section(s, sol):
    params = s.params
    spec = sol.states
    d = params.dim
    s.check("state_count", 0.0 if len(spec) == d else 1.0, "functional_eq")
    t_rows = spec.t_rows
    worst_t = float(np.max(sp.check_functional_equations(params, t_rows, s.rng(33))))
    s.check("functional_equation_true", worst_t, "functional_eq")
    # one row per coefficient of the first state, moved by 0.1
    perturbed = t_rows[0] + 0.1 * np.eye(params.n_bar + 1)
    rej = float(np.max(sp.check_functional_equations(params, perturbed, s.rng(33))))
    # a fixed perturbation dilutes with the matrix order and the coefficient
    # scale; the scale-free criterion is the separation from true eigenvalues
    floor = s.tol["functional_eq_reject"] if params.p == 3 else 1e-6
    separated = rej > floor and rej > 1e5 * max(worst_t, 1e-300)
    s.check("functional_equation_reject", 0.0 if separated else 1.0,
            "functional_eq", residual=rej, floor=floor)
    if params.self_adjoint:
        s.check("eigenvalue_reality", np.max(np.abs(t_rows.imag)), "functional_eq",
                scale=np.max(np.abs(t_rows)))
    # the wavefunctions in the SOV basis and their ratio tables
    R = np.ascontiguousarray(spec.R.T)          # the eigenvectors as rows
    psi, q_grid, anchors, resid, phase_dev = sp.extract_Q_grids(R, spec.theta_m, sol.basis)
    s.check("baxter_grid", _baxter_grid_residual(params, sol.grid, t_rows, psi), "baxter_grid")
    s.check("wavefunction_factorization", np.max(resid), "factorization")
    if params.even_chain:
        s.check("reference_phase", np.max(phase_dev), "factorization")
        pref = np.prod(np.asarray(params.kappa) / (1j * np.asarray(params.xi)))
        # the top column is degree n_bar = N
        worst = np.max(np.abs(t_rows[:, -1] - pref * (params.q ** spec.theta_m
                                                      + params.q ** (-spec.theta_m))))
        s.check("sector_asymptotics", worst, "functional_eq",
                scale=np.max(np.abs(t_rows[:, -1])))
    # how close each Baxter fit came to a second null direction (reported,
    # not asserted)
    s.check("baxter_fit_gap", float(np.min(spec.fit_gap)), 0.0,
            diagnostic=True, bound=sp.NULL_TOL)
    # two-route agreement of the Baxter function
    nsep = params.n_separate
    s.check("q_two_routes", _two_route_gap(spec.q_vals, q_grid[:, :nsep], anchors[:, :nsep]),
            "baxter_grid")
    # conjugate-gauge difference equation for the transformed polynomial
    lam = np.asarray(params.spectral_samples(s.rng(34), 5))
    qbar = spec.qbar_poly[:6, None]
    lhs = sp.eval_t(t_rows[:6, None], lam) * sp.polyval_ascending(qbar, lam)
    rhs = mc.dbar_coeff(params, lam) * sp.polyval_ascending(qbar, lam / params.q) \
        + mc.abar_coeff(params, lam) * sp.polyval_ascending(qbar, lam * params.q)
    s.check("qbar_difference_eq", np.max(np.abs(lhs - rhs) / np.maximum(
        np.maximum(np.abs(lhs), np.abs(rhs)), 1e-300)), "baxter_grid")
    # separate-state representations reproduce the eigenvectors
    s.check("eigenstate_collinearity", _collinearity_defect(
        sol.covs, sol.vecs, spec.L, R), "factorization")
    s.check("transfer_eigvec_cond", _column_cond(R.T), 0.0,
            diagnostic=True, bound=lo.COND_LIMIT)


def _scalar_section(s, sol):
    params = s.params
    d = params.dim
    rng = s.rng(40)
    nsep = params.n_separate
    basis, grid = sol.basis, sol.grid
    covs, vecs, norms = sol.covs, sol.vecs, sol.norms
    worst = 0.0
    for _ in range(20):
        al = rng.standard_normal((nsep, params.p)) + 1j * rng.standard_normal((nsep, params.p))
        be = rng.standard_normal((nsep, params.p)) + 1j * rng.standard_normal((nsep, params.p))
        ml = int(rng.integers(0, params.p)) if params.even_chain else 0
        mr = int(rng.integers(0, params.p)) if params.even_chain else 0
        a_st = ss.SeparateState("left", al, ml)
        b_st = ss.SeparateState("right", be, mr)
        cov = ss.materialize(a_st, basis)
        vec = ss.materialize(b_st, basis)
        dense = cov @ vec
        det = ss.scalar_product_det(a_st, b_st, grid)
        scale = max(abs(det), np.linalg.norm(cov) * np.linalg.norm(vec))
        worst = max(worst, abs(dense - det) / scale)
    s.check("scalar_product_random_pairs", worst, "scalar_product")
    # eigenstate pairings, orthogonality and the explicit null vector, over
    # the moment matrices of every (bra, ket) pair: distinct states of the
    # same sector
    dense = np.einsum("ij,ij->i", covs, vecs)
    s.check("eigen_pairing_det",
            float(np.max(np.abs(dense - norms) / np.maximum(np.abs(dense), 1e-300))),
            "scalar_product")
    spec = sol.states
    pairs = ~np.eye(d, dtype=bool) & (spec.theta_m[:, None] == spec.theta_m[None])
    diag_dets = np.abs(norms)
    ref2 = np.sqrt(np.outer(diag_dets, diag_dets))
    worst_orth = worst_null = 0.0
    for rows in ss.bra_blocks(d):
        phi = ss._ket_matrices(spec.qbar_vals[rows, None], spec.pair_kets[None])
        det = np.abs(np.linalg.det(phi)) * abs(grid.c_ref)
        worst_orth = max(worst_orth, float(np.max((det / ref2[rows])[pairs[rows]],
                                                  initial=0.0)))
        V = ss.t_coeff_null_vector(params, spec.t_rows[rows, None], spec.t_rows[None])
        norm_v = np.linalg.norm(V, axis=-1)
        ref = np.sqrt(ref2[rows])
        null = np.linalg.norm((phi @ V[..., None])[..., 0], axis=-1) / np.maximum(
            np.maximum(np.linalg.norm(phi, axis=(-2, -1)) * norm_v,
                       ref ** (2 * (nsep - 1) / max(nsep, 1)) * norm_v), 1e-300)
        worst_null = max(worst_null, float(np.max(null[pairs[rows]], initial=0.0)))
    s.check("eigenstate_orthogonality", worst_orth, "orthogonality")
    s.check("orthogonality_null_vector", worst_null, "orthogonality")
    ident = ss.identity_resolution_T(sol)
    s.check("t_identity", mc.frob(ident - np.eye(d)) / d, "t_identity")
    if params.self_adjoint:
        s.check("hermitian_dual", _hermitian_dual_defect(covs, vecs), "hermitian_dual")


def _local_section(s, sol):
    params = s.params
    mono, basis = sol.mono, sol.basis
    d = params.dim
    p = params.p
    rng = s.rng(50)
    for n in range(1, params.n_sites + 1):
        # one frame at a time: each but site 1's holds its own monodromy
        sh = sol.frame(n)
        for k in (1, p - 1):
            got = lo.reconstruct_u(sh, k)
            tgt = mc.embedded_u(params, n, k)
            s.check(f"reconstruct_u[{n},{k}]", mc.rel_err(got, tgt), "reconstruction",
                    **({"cond": sh.binva_cond} if k == 1 else {}))
        got = lo.reconstruct_u_via_dc(sh)
        s.check(f"reconstruct_u_dc[{n}]", mc.rel_err(got, mc.embedded_u(params, n)),
                "reconstruction")
        a0 = lo.reconstruct_alpha0(sh)
        tgt = lo.beta_target(params, n, 0) @ mc.embedded_u(params, n, -1)
        s.check(f"reconstruct_alpha0[{n}]", mc.rel_err(a0, tgt), "reconstruction",
                cond=sh.alpha0_cond)
        for k in range(p):
            s.check(f"reconstruct_beta[{n},{k}]",
                    mc.rel_err(lo.reconstruct_beta(sh, k),
                               lo.beta_target(params, n, k)), "reconstruction")
        s.check(f"beta_sum_rule[{n}]",
                mc.rel_err(reduce(add, [sh.betas[k] for k in range(p)]).dense(),
                           lo.beta_sum_target(params, n) * np.eye(d)),
                "reconstruction")
        if not lo.fourier_degenerate(params, n):
            for k in range(1, p):
                s.check(f"reconstruct_v2k[{n},{k}]",
                        mc.rel_err(lo.reconstruct_v2k(sh, k),
                                   lo.v_power_target(params, n, k)), "reconstruction")
        s.check(f"spanning_rank[{n}]",
                0.0 if lo.spanning_rank(sh) == p * p else 1.0,
                "reconstruction")
        del sh

    excl = basis.grid.grid.reshape(-1)
    if not params.even_chain:
        for k in range(1, p + 1):
            lam = params.spectral_samples(rng, 1, exclude=excl)[0]
            got = lo.binvA_power_sov(params, basis, k, lam)
            tgt = lo.binvA_dense(mono, lam, k)
            s.check(f"shift_power_sov[{k}]", mc.rel_err(got, tgt), "monomial")
        lam = params.spectral_samples(rng, 1, exclude=excl)[0]
        scal = mc.average_value(params, "A", lam ** p) \
            / mc.average_value(params, "B", lam ** p)
        s.check("shift_power_central",
                mc.rel_err(lo.binvA_dense(mono, lam, p), scal * np.eye(d)),
                "monomial")
        if not lo.fourier_degenerate(params, 1):
            ks = range(1, p)
            for k, got in zip(ks, lo.v2k_shift_sums(params, basis, ks)):
                s.check(f"clock_power_shift_sum[{k}]",
                        mc.rel_err(got, lo.v_power_target(params, 1, k)), "monomial")
    # q-combinatorics
    import itertools
    worst = 0.0
    for k in range(1, p):
        for alphas in itertools.product(range(k + 1), repeat=min(params.n_sites, 3)):
            if sum(alphas) != k:
                continue
            worst = max(worst, abs(lo.q_multinomial(params.q, k, alphas)
                                   - lo.q_multinomial_direct(params.q, k, alphas)))
    s.check("q_multinomial_routes", worst, "qcombinatorics")
    worst = 0.0
    for alphas in itertools.product(range(p + 1), repeat=2):
        if sum(alphas) != p:
            continue
        v = lo.q_multinomial(params.q, p, alphas)
        expect = 1.0 if any(a == p for a in alphas) else 0.0
        worst = max(worst, abs(v - expect))
    s.check("q_multinomial_period_rule", worst, "qcombinatorics")
    etas = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    alphas = (1, 2, 0)
    total = 0.0
    for a in range(3):
        if alphas[a] == 0:
            continue
        term = lo.q_number(params.q, alphas[a])
        for i in range(3):
            if i == a:
                continue
            qa = params.q ** alphas[a]
            qd = params.q ** (alphas[a] - alphas[i])
            term *= (qa * etas[i] / etas[a] - etas[a] / (qa * etas[i])) \
                / (qd * etas[i] / etas[a] - etas[a] / (qd * etas[i]))
        total += term
    s.check("q_sum_identity",
            abs(total - lo.q_number(params.q, sum(alphas))), "qcombinatorics")
    # elementary operators: ops[a, k] = O_{a,k}
    nsep = params.n_separate
    ops = sol.elementary_ops
    s.check("elementary_action", _elementary_action_residual(params, basis, ops),
            "elementary")
    worst_zero, worst_cons = 0.0, 1.0
    for k in range(p):
        for h in range(p):
            prod = ops[0, k] @ ops[0, h]
            sc = mc.frob(ops[0, k]) * mc.frob(ops[0, h])
            if (h - k) % p == p - 1:
                worst_cons = min(worst_cons, mc.frob(prod) / sc)
            else:
                worst_zero = max(worst_zero, mc.frob(prod) / sc)
    s.check("elementary_zero_rule", worst_zero, "elementary")
    s.check("elementary_consecutive_nonzero",
            0.0 if worst_cons > 1e-6 else 1.0, "elementary")
    z = basis.grid.z[:nsep]
    for a in range(nsep):
        lhs = lo.elementary_O_power(ops, a, 1, p + 1)
        scal = mc.average_value(params, "A", z[a]) / sb.cross_product(z[a], z, a)
        s.check(f"elementary_cycle[{a}]", mc.rel_err(lhs, scal * ops[a, 1]), "elementary")
    if nsep >= 2:
        worst = 0.0
        for k in range(p):
            for h in range(p):
                Oa, Ob = ops[0, k], ops[1, h]
                ratio = lo._exchange_ratio(sol.grid, 0, k, 1, h)
                lhs, rhs = Oa @ Ob, ratio * (Ob @ Oa)
                worst = max(worst, mc.rel_err(lhs, rhs,
                            scale=max(mc.frob(lhs), mc.frob(rhs), 1e-300)))
        s.check("elementary_exchange", worst, "elementary")
        seq = [(1, 2), (0, 1)]
        scal, ordered = lo.reduce_O_monomial(params, sol.grid, seq)
        prod_in, prod_out = (reduce(matmul, [ops[f] for f in fs]) for fs in (seq, ordered))
        s.check("monomial_reduction", mc.rel_err(prod_in, scal * prod_out), "elementary")
    if params.even_chain:
        eta_ref, _, etaA, _ = sol.charge_ops
        O = ops[0, 1]
        s.check("eta_interp_exchange",
                mc.rel_err(etaA @ O, O @ etaA / params.q), "elementary")
        theta = mc.theta_charge(params)
        s.check("theta_elementary_commute",
                mc.frob(theta @ O - O @ theta) / (mc.frob(theta) * mc.frob(O)),
                "elementary")
        # eta_ref diagonalized by the dense basis against its graded form from
        # B's end coefficients (reported, not asserted: it reads the basis)
        eta_labels = basis.grid.grid[-1, params.tuples[:, -1]]
        s.check("eta_ref_basis_gap",
                mc.rel_err(sb.sov_diagonal(basis, eta_labels), eta_ref.dense()), 0.0,
                diagnostic=True, bound=s.tol["elementary"])
    for i, lam in enumerate(params.spectral_samples(rng, 3, exclude=excl)):
        got = lo.binvA_interpolation(params, sol.grid, sol.charge_ops, lam, ops)
        tgt = lo.binvA_dense(mono, lam)
        s.check(f"interpolation_identity[{i}]", mc.rel_err(got, tgt), "elementary")
    # homogeneous chains: permutation realization and shift diagnostics
    if params.n_sites > 1 and params.homogeneous:
        lam = params.spectral_samples(rng, 1)[0]
        for n in range(2, params.n_sites + 1):
            W, frame_mono = lo.cyclic_shift_permutation(params, n), sol.frame(n).mono
            worst = max(mc.rel_err(W @ mono.entry(e).evaluate(lam) @ W.conj().T,
                                   frame_mono.entry(e).evaluate(lam)) for e in "ABCD")
            s.check(f"shift_permutation[{n}]", worst, "reconstruction")


def _ff_section(s, sol):
    params = s.params
    d = params.dim
    u1 = mc.embedded_u(params, 1)

    det = ffm.ff_u_table(sol.grid, sol.states, 1)[0]
    s.check("ff_u_full_sweep", float(np.max(table_rel_err(sol, u1, det)[1])), "ff_u",
            pairs=d * d)

    elems = [lo.ElementaryBasisElement(((0, 1, 1),))]
    if params.n_separate >= 2:
        elems.append(lo.ElementaryBasisElement(((0, 1, 1), (1, 2, 1))))
        elems.append(lo.ElementaryBasisElement(((0, 2, 2), (1, 0, 1))))
    if params.even_chain:
        elems.append(lo.ElementaryBasisElement((), theta_pow=1, theta_a_pow=1))
    rng = s.rng(60)
    bras, kets = np.array([(int(rng.integers(0, d)), int(rng.integers(0, d)))
                           for _ in range(10)]).T
    for e_idx, elem in enumerate(elems):
        # the sampled pairs are the diagonal of the table over the sampled states
        dense_op = elem.to_dense(params, sol.charge_ops, sol.elementary_ops)
        det = ffm.ff_elementary_table(sol.grid, sol.states, elem, bras, kets)[0]
        err = table_rel_err(sol, dense_op, det, bras, kets)[1]
        s.check(f"ff_elementary[{e_idx}]", float(np.max(np.diagonal(err))),
                "ff_elementary", factors=str(elem.factors))
    # two-point expansions over the dense tables
    _, _, err, rel = npoint_errors(sol, [u1, u1], [0])
    s.report("npoint_two_u", err[0], rel[0], "npoint", {})
    if not lo.fourier_degenerate(params, 1):
        v2 = lo.reconstruct_v2k(sol.frame(1), 1)
        _, _, err, rel = npoint_errors(sol, [u1, v2], [0])
        s.report("npoint_u_v2", err[0], rel[0], "npoint", {})
    # homogeneous chains: the eigenvalues of the unit chain shift are unit
    # phases whose N-th power is 1
    if params.n_sites > 1 and params.homogeneous:
        phis = ffm.shift_eigenvalues(sol, lo.cyclic_shift_permutation(params, 2))
        for i, phi in enumerate(phis[:2]):
            s.check(f"shift_phase_unit[{i}]", abs(abs(phi) - 1.0), "reconstruction",
                    phi=phi)
            s.check(f"shift_phase_cycle[{i}]",
                    abs(phi ** params.n_sites - 1.0), "reconstruction", phi=phi)


# -- array kernels of the per-state and per-label checks --------------------

def _rows_norm(x):
    return np.linalg.norm(x, axis=-1)


def _baxter_grid_residual(params, grid, t_rows, psi):
    """Worst relative residual of the discrete Baxter relations
    t(eta) psi_j = a(eta) psi_{j - e_a} + d(eta) psi_{j + e_a} of the states
    with transfer coefficient rows ``t_rows`` and SOV wavefunctions ``psi``
    (states, d), at every label j and separate variable a; a and d are
    evaluated here, not read from the grid tables."""
    nsep = params.n_separate
    eta_sep = grid.grid[:nsep]
    rows, tup = np.arange(nsep), params.tuples[:, :nsep]
    a_lab = mc.a_coeff(params, eta_sep)[rows, tup]
    d_lab = mc.d_coeff(params, eta_sep)[rows, tup]
    down, up = (params.shifted_indices(delta)[:, :nsep] for delta in (-1, +1))
    lhs = sp.eval_t(t_rows[:, None, None], eta_sep[rows, tup]) * psi[..., None]
    rhs = a_lab * psi[:, down] + d_lab * psi[:, up]
    pmax = np.max(np.abs(psi), axis=1)[:, None, None]
    return float(np.max(
        np.abs(lhs - rhs) / np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), pmax)))


def _two_route_gap(q_vals, q_grid, anchor):
    """Worst gap between the Baxter polynomial on the grids ``q_vals`` and
    the wavefunction ratios ``q_grid`` (states, nsep, p), each divided by its
    value at the state's ``anchor`` digits (states, nsep), relative to the
    largest polynomial ratio of each variable."""
    rp, rg = (x / np.take_along_axis(x, anchor[..., None], axis=2) for x in (q_vals, q_grid))
    return float(np.max(np.max(np.abs(rp - rg), axis=2)
                        / np.maximum(np.max(np.abs(rp), axis=2), 1e-300)))


def _collinearity_defect(covs, vecs, vec_left, vec_right):
    """Worst 1 - |cos| between the separate-state covectors and vectors and
    the transfer eigen-covectors and eigenvectors, state by state."""
    cr = np.abs(np.sum(vecs.conj() * vec_right, axis=1)) \
        / (_rows_norm(vecs) * _rows_norm(vec_right))
    cl = np.abs(np.sum(covs * vec_left.conj(), axis=1)) \
        / (_rows_norm(covs) * _rows_norm(vec_left))
    return float(np.max(1 - np.append(cr, cl), initial=0.0))


def _hermitian_dual_defect(covs, vecs):
    """Worst defect of the conjugate vectors as multiples of the covectors:
    1 - |cos| and the residual after the pairing-implied factor."""
    dual = vecs.conj()
    col = np.abs(np.sum(dual * covs.conj(), axis=1)) / (_rows_norm(dual) * _rows_norm(covs))
    alpha = _rows_norm(vecs) ** 2 / np.sum(covs * vecs, axis=1)
    res = _rows_norm(dual - alpha[:, None] * covs) / _rows_norm(dual)
    return float(np.max(np.append(1 - col, res), initial=0.0))


def _elementary_action_residual(params, basis, ops):
    """Worst relative residual of the left action of every graded
    elementary operator ``ops[a, k]`` on every SOV covector against its
    weighted lowering shift, one blockwise product per operator."""
    worst = 0.0
    down = params.shifted_indices(-1)
    left_norms = _rows_norm(basis.left)
    for a, k in np.ndindex(ops.blocks.shape[:2]):
        tgt = lo.o_action_weights(basis, a, k)[:, None] * basis.left[down[:, a]]
        worst = max(worst, float(np.max(_rows_norm(basis.left @ ops[a, k] - tgt)
                                        / (left_norms * mc.frob(ops[a, k])))))
    return worst
