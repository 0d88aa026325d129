"""Brute-force ground truth and the structured verification battery.

Every check compares a structured formula against dense tensor-product
linear algebra; results are collected as comparison reports that serialize
to JSON lines.  Ground-truth paths never use separated quantities except
the basis vectors under test.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .params import ModelParams
from . import model_core as mc
from . import sov_basis as sb
from . import spectrum as sp
from . import separate_states as ss
from . import form_factors as ffm
from . import local_ops as lo

__all__ = ["ComparisonReport", "direct_matrix_element", "verify_suite",
           "verify_solution", "reports_to_jsonl", "DEFAULT_TOLERANCES"]


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


@dataclass
class ComparisonReport:
    label: str
    lhs: float
    rhs: float
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

    def to_json(self):
        def enc(x):
            if isinstance(x, complex):
                return f"{x.real:.12g}{x.imag:+.12g}j"
            if isinstance(x, (np.floating, np.integer)):
                return x.item()
            return x
        payload = {
            "label": self.label,
            "lhs": enc(self.lhs), "rhs": enc(self.rhs),
            "absErr": self.abs_err, "relErr": self.rel_err,
            "tolerance": self.tolerance, "margin": self.margin, "pass": self.passed,
            "context": {k: enc(v) for k, v in self.context.items()},
        }
        return json.dumps(payload, sort_keys=True)


def reports_to_jsonl(reports):
    return "\n".join(r.to_json() for r in reports) + "\n"


def direct_matrix_element(left_state, operator, right_state):
    """Covector . matrix . vector with shape validation."""
    left_state = np.asarray(left_state)
    right_state = np.asarray(right_state)
    operator = np.asarray(operator)
    if operator.shape != (left_state.size, right_state.size):
        raise ValueError(
            f"dimension mismatch: {left_state.size} x {operator.shape} x {right_state.size}")
    return complex(left_state @ operator @ right_state)


class _Suite:
    def __init__(self, sol, tolerances=None):
        self.params = sol.params
        self.rng = sol.rng
        self.tol = dict(DEFAULT_TOLERANCES)
        if tolerances:
            self.tol.update(tolerances)
        self.reports = []

    def check(self, label, err, tol_key, scale=1.0, diagnostic=False, **context):
        tol = self.tol[tol_key] if isinstance(tol_key, str) else tol_key
        rel = float(err) / max(abs(scale), 1e-300)
        passed = True if diagnostic else bool(rel <= tol)
        self.reports.append(ComparisonReport(
            label=label, lhs=float(err), rhs=0.0, abs_err=float(err),
            rel_err=rel, tolerance=float(tol), passed=passed,
            context=dict(context, diagnostic=diagnostic)))
        return passed

    def value_check(self, label, lhs, rhs, tol_key, scale=None, **context):
        tol = self.tol[tol_key] if isinstance(tol_key, str) else tol_key
        err = abs(lhs - rhs)
        if scale is None:
            scale = max(abs(lhs), abs(rhs), 1e-300)
        rel = err / max(abs(scale), 1e-300)
        passed = bool(rel <= tol)
        self.reports.append(ComparisonReport(
            label=label, lhs=abs(lhs), rhs=abs(rhs), abs_err=float(err),
            rel_err=float(rel), tolerance=float(tol), passed=passed,
            context=context))
        return passed


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
    s = _Suite(sol, tolerances)
    want = (lambda name: sections is None or name in sections)
    if want("algebra"):
        _algebra_section(s, sol.mono)
    if want("sov"):
        _sov_section(s, sol.mono, sol.basis)
    if want("spectrum"):
        _spectrum_section(s, sol)
    if want("scalar"):
        _scalar_section(s, sol)
    if want("local"):
        _local_section(s, sol.mono, sol.basis)
    if want("ff"):
        _ff_section(s, sol)
    return s.reports


# -- sections ---------------------------------------------------------------

def _algebra_section(s, mono):
    params = s.params
    rng = s.rng(10)
    d = params.dim
    for i in range(10):
        lam, mu = params.spectral_samples(rng, 2)
        s.check(f"yang_baxter[{i}]", mc.yang_baxter_residual(params, lam, mu, mono),
                "algebra", lam=lam, mu=mu)
    for i, lam in enumerate(params.spectral_samples(rng, 3)):
        AD = mono.A.evaluate(lam) @ mono.D.evaluate(lam / params.q) \
            - mono.B.evaluate(lam) @ mono.C.evaluate(lam / params.q)
        scale = mc.frob(AD)
        s.check(f"quantum_determinant_op[{i}]",
                mc.frob(AD - mc.quantum_determinant(params, lam) * np.eye(d)),
                "algebra", scale=scale, lam=lam)
        l1, l2 = params.spectral_samples(rng, 2)
        T1, T2 = mc.transfer(params, l1, mono), mc.transfer(params, l2, mono)
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
        T = mc.transfer(params, lam_r, mono)
        s.check("transfer_selfadjoint", mc.frob(T - T.conj().T), "algebra",
                scale=mc.frob(T))
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
    prodB = np.eye(params.dim, dtype=complex)
    for k in range(1, params.p + 1):
        prodB = prodB @ mono.B.evaluate(params.q ** k * lam)
    mu = params.spectral_samples(s.rng(12), 1)[0]
    for ename in "ABCD":
        X = mono.entry(ename).evaluate(mu)
        s.check(f"average_commutes_{ename}", mc.frob(prodB @ X - X @ prodB),
                "average", scale=mc.frob(prodB) * mc.frob(X))


def _sov_section(s, mono, basis):
    params = s.params
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
        pats = sb.b_pattern(params, grid, basis.tuples, lam)
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
    ident = sb.identity_resolution_sov(basis)
    s.check("sov_identity", mc.frob(ident - np.eye(d)) / d, "sov_identity")
    # gauge cycles
    for a in range(nsep):
        dprod = np.prod(mc.d_coeff(params, grid.grid[a]))
        s.value_check(f"cycle_d[{a}]", dprod,
                      mc.average_value(params, "D", grid.z[a]), "measure")
    # shift relations (verification direction), one A(eta) per grid point;
    # the coefficients are evaluated here, not read from the basis tables
    worst = 0.0
    down = basis.shifted_indices(-1)
    a_vals = mc.a_coeff(params, grid.grid[:nsep])
    for a in range(nsep):
        for h in range(params.p):
            js = np.flatnonzero(basis.tuples[:, a] == h)
            target = a_vals[a, h] * basis.left[down[js, a]]
            got = basis.left[js] @ mono.A.evaluate(grid.grid[a, h])
            worst = max(worst, float(np.max(
                np.linalg.norm(got - target, axis=1)
                / np.maximum(np.linalg.norm(target, axis=1), 1e-300))))
    s.check("left_shift_relations", worst, "sov_pattern")


def _spectrum_section(s, sol):
    params = s.params
    basis, states = sol.basis, sol.states
    d = params.dim
    s.check("state_count", 0.0 if len(states) == d else 1.0, "functional_eq")
    worst_t = max(sp.check_functional_equation(params, st.t_coeffs, s.rng(33))
                  for st in states)
    s.check("functional_equation_true", worst_t, "functional_eq")
    rej = 0.0
    for key in sorted(states[0].t_coeffs):
        pert = dict(states[0].t_coeffs)
        pert[key] = pert[key] + 0.1
        rej = max(rej, sp.check_functional_equation(params, pert, s.rng(33)))
    # a fixed perturbation dilutes with the matrix order and the coefficient
    # scale; the scale-free criterion is the separation from true eigenvalues
    floor = s.tol["functional_eq_reject"] if params.p == 3 else 1e-6
    separated = rej > floor and rej > 1e5 * max(worst_t, 1e-300)
    s.check("functional_equation_reject", 0.0 if separated else 1.0,
            "functional_eq", residual=rej, floor=floor)
    if params.self_adjoint:
        worst_im = max(max(abs(c.imag) for c in st.t_coeffs.values()) for st in states)
        scale = max(max(abs(c) for c in st.t_coeffs.values()) for st in states)
        s.check("eigenvalue_reality", worst_im, "functional_eq", scale=scale)
    # discrete Baxter relations on the grid, for every label and variable;
    # the coefficients are evaluated here, not read from the basis tables
    worst = 0.0
    nsep = params.n_separate
    eta_sep = basis.grid.grid[:nsep]
    rows, tup = np.arange(nsep), basis.tuples[:, :nsep]
    eta = eta_sep[rows, tup]
    a_lab = mc.a_coeff(params, eta_sep)[rows, tup]
    d_lab = mc.d_coeff(params, eta_sep)[rows, tup]
    down, up = basis.shifted_indices(-1), basis.shifted_indices(+1)
    for st in states:
        psi = st.psi
        pmax = float(np.max(np.abs(psi)))
        lhs = st.t_at(eta) * psi[:, None]
        rhs = a_lab * psi[down] + d_lab * psi[up]
        worst = max(worst, float(np.max(
            np.abs(lhs - rhs) / np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), pmax))))
    s.check("baxter_grid", worst, "baxter_grid")
    s.check("wavefunction_factorization",
            max(st.diagnostics["factorization_residual"] for st in states),
            "factorization")
    if params.even_chain:
        s.check("reference_phase",
                max(st.diagnostics["reference_phase_residual"] for st in states),
                "factorization")
        pref = np.prod(np.asarray(params.kappa) / (1j * np.asarray(params.xi)))
        worst = max(abs(st.t_coeffs[params.n_sites]
                        - pref * (params.q ** st.theta_m + params.q ** (-st.theta_m)))
                    for st in states)
        s.check("sector_asymptotics", worst, "functional_eq",
                scale=max(abs(st.t_coeffs[params.n_sites]) for st in states))
    # two-route agreement of the Baxter function
    worst = 0.0
    for st in states:
        anchor = np.array(st.q_anchor)
        for a in range(params.n_separate):
            pv = sp.polyval_ascending(st.q_poly, basis.grid.grid[a])
            rp = pv / pv[anchor[a]]
            rg = st.q_grid[a] / st.q_grid[a][anchor[a]]
            worst = max(worst, float(np.max(np.abs(rp - rg))
                                     / max(np.max(np.abs(rp)), 1e-300)))
    s.check("q_two_routes", worst, 1e-6)
    # conjugate-gauge difference equation for the transformed polynomial
    worst = 0.0
    for st in states[: min(6, len(states))]:
        for lam in params.spectral_samples(s.rng(34), 5):
            lhs = st.t_at(lam) * sp.polyval_ascending(st.qbar_poly, lam)
            rhs = mc.dbar_coeff(params, lam) * sp.polyval_ascending(st.qbar_poly, lam / params.q) \
                + mc.abar_coeff(params, lam) * sp.polyval_ascending(st.qbar_poly, lam * params.q)
            worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300))
    s.check("qbar_difference_eq", worst, "baxter_grid")
    # separate-state representations reproduce the eigenvectors
    worst = 0.0
    for st, cov, vec in zip(states, sol.covs, sol.vecs):
        cr = abs(np.vdot(vec, st.vec_right)) / (np.linalg.norm(vec) * np.linalg.norm(st.vec_right))
        cl = abs(np.vdot(cov.conj(), st.vec_left.conj())) / (np.linalg.norm(cov) * np.linalg.norm(st.vec_left))
        worst = max(worst, 1 - cr, 1 - cl)
    s.check("eigenstate_collinearity", worst, "factorization")


def _scalar_section(s, sol):
    params = s.params
    d = params.dim
    rng = s.rng(40)
    nsep = params.n_separate
    basis = sol.basis
    covs, vecs, norms = sol.covs, sol.vecs, sol.norms
    worst = 0.0
    for _ in range(20):
        al = rng.standard_normal((nsep, params.p)) + 1j * rng.standard_normal((nsep, params.p))
        be = rng.standard_normal((nsep, params.p)) + 1j * rng.standard_normal((nsep, params.p))
        ml = int(rng.integers(0, params.p)) if params.even_chain else None
        mr = int(rng.integers(0, params.p)) if params.even_chain else None
        a_st = ss.SeparateState("left", al, ml)
        b_st = ss.SeparateState("right", be, mr)
        cov = ss.materialize(a_st, basis)
        vec = ss.materialize(b_st, basis)
        dense = cov @ vec
        det = ss.scalar_product_det(a_st, b_st, basis)
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
    pairs = ~np.eye(d, dtype=bool) & (sol.theta_m[:, None] == sol.theta_m[None])
    phi = ss.phi_moments(basis, sol.qbar_vals[:, None], sol.q_vals[None],
                         range(0, 2 * nsep, 2))
    det = np.abs(np.linalg.det(phi)) * abs(basis.c_ref)
    diag_dets = np.abs(norms)
    ref2 = np.sqrt(np.outer(diag_dets, diag_dets))
    s.check("eigenstate_orthogonality", float(np.max((det / ref2)[pairs], initial=0.0)),
            "orthogonality")
    # t_coeff_null_vector of each pair: the interior degrees 2b - nsep - 1
    t_int = sol.t_rows[:, params.e_n:params.e_n + nsep]
    V = t_int[None] - t_int[:, None]
    norm_v = np.linalg.norm(V, axis=-1)
    ref = np.sqrt(ref2)
    null = np.linalg.norm((phi @ V[..., None])[..., 0], axis=-1) / np.maximum(
        np.maximum(np.linalg.norm(phi, axis=(-2, -1)) * norm_v,
                   ref ** (2 * (nsep - 1) / max(nsep, 1)) * norm_v), 1e-300)
    s.check("orthogonality_null_vector", float(np.max(null[pairs], initial=0.0)),
            "orthogonality")
    ident = ss.identity_resolution_T(sol)
    s.check("t_identity", mc.frob(ident - np.eye(d)) / d, "t_identity")
    if params.self_adjoint:
        worst = 0.0
        for i in range(d):
            dual = np.conj(vecs[i])
            col = abs(np.vdot(dual.conj(), covs[i].conj())) \
                / (np.linalg.norm(dual) * np.linalg.norm(covs[i]))
            alpha = np.linalg.norm(vecs[i]) ** 2 / (covs[i] @ vecs[i])
            res = np.linalg.norm(dual - alpha * covs[i]) / np.linalg.norm(dual)
            worst = max(worst, 1 - col, res)
        s.check("hermitian_dual", worst, "hermitian_dual")


def _local_section(s, mono, basis):
    params = s.params
    d = params.dim
    p = params.p
    rng = s.rng(50)
    frames = [lo.shifted_monodromy(params, n) for n in range(1, params.n_sites + 1)]
    for n, sh in enumerate(frames, start=1):
        U = mc.weyl_generators(p, params.u[n - 1], params.v[n - 1], params.p_prime)[0]
        for k in (1, p - 1):
            got = lo.reconstruct_u(params, n, k, sh)
            tgt = mc.site_embed(params, n, np.linalg.matrix_power(U, k))
            s.check(f"reconstruct_u[{n},{k}]", mc.rel_err(got, tgt), "reconstruction",
                    **({"cond": sh.binva_cond} if k == 1 else {}))
        got = lo.reconstruct_u_via_dc(params, n, sh)
        s.check(f"reconstruct_u_dc[{n}]", mc.rel_err(got, mc.site_embed(params, n, U)),
                "reconstruction")
        a0 = lo.reconstruct_alpha0(params, n, sh)
        tgt = lo.beta_target(params, n, 0) @ mc.site_embed(params, n, np.linalg.inv(U))
        s.check(f"reconstruct_alpha0[{n}]", mc.rel_err(a0, tgt), "reconstruction",
                cond=sh.alpha0_cond)
        for k in range(p):
            s.check(f"reconstruct_beta[{n},{k}]",
                    mc.rel_err(lo.reconstruct_beta(params, n, k, sh),
                               lo.beta_target(params, n, k)), "reconstruction")
        s.check(f"beta_sum_rule[{n}]",
                mc.rel_err(sh.betas.sum(axis=0), lo.beta_sum_target(params, n) * np.eye(d)),
                "reconstruction")
        if abs(params.kappa[n - 1] ** 4 - 1.0) > 1e-10:
            for k in range(1, p):
                s.check(f"reconstruct_v2k[{n},{k}]",
                        mc.rel_err(lo.reconstruct_v2k(params, n, k, sh),
                                   lo.v_power_target(params, n, k)), "reconstruction")
        s.check(f"spanning_rank[{n}]",
                0.0 if lo.spanning_rank(params, n, shifted=sh) == p * p else 1.0,
                "reconstruction")

    excl = basis.grid.grid.reshape(-1)
    if not params.even_chain:
        for k in range(1, p + 1):
            lam = params.spectral_samples(rng, 1, exclude=excl)[0]
            got = lo.binvA_power_sov(params, basis, k, lam, mono)
            tgt = lo.binvA_dense(params, mono, lam, k)
            s.check(f"shift_power_sov[{k}]", mc.rel_err(got, tgt), "monomial")
        lam = params.spectral_samples(rng, 1, exclude=excl)[0]
        scal = mc.average_value(params, "A", lam ** p) \
            / mc.average_value(params, "B", lam ** p)
        s.check("shift_power_central",
                mc.rel_err(lo.binvA_dense(params, mono, lam, p), scal * np.eye(d)),
                "monomial")
        if abs(params.kappa[0] ** 4 - 1.0) > 1e-10:
            ks = range(1, p)
            for k, got in zip(ks, lo.v2k_shift_sums(params, basis, ks, mono)):
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
    # elementary operators, built once: ops[a][k] = O_{a,k}
    nsep = params.n_separate
    ops = [[lo.elementary_O(params, basis, a, k, mono).matrix for k in range(p)]
           for a in range(nsep)]
    worst = 0.0
    for a in range(nsep):
        for k in range(p):
            O = ops[a][k]
            sc = np.linalg.norm(O)
            for j in range(d):
                got = basis.left[j] @ O
                w = lo.o_action_weight(params, basis, a, k, j)
                tgt = w * basis.left[basis.shifted_index(j, a, -1)] if w else 0 * got
                worst = max(worst, float(np.linalg.norm(got - tgt)
                                         / (np.linalg.norm(basis.left[j]) * sc)))
    s.check("elementary_action", worst, "elementary")
    worst_zero, worst_cons = 0.0, 1.0
    for k in range(p):
        for h in range(p):
            prod = ops[0][k] @ ops[0][h]
            sc = np.linalg.norm(ops[0][k]) * np.linalg.norm(ops[0][h])
            if (h - k) % p == p - 1:
                worst_cons = min(worst_cons, np.linalg.norm(prod) / sc)
            else:
                worst_zero = max(worst_zero, np.linalg.norm(prod) / sc)
    s.check("elementary_zero_rule", worst_zero, "elementary")
    s.check("elementary_consecutive_nonzero",
            0.0 if worst_cons > 1e-6 else 1.0, "elementary")
    z = basis.grid.z[:nsep]
    for a in range(nsep):
        lhs = lo.elementary_O_power(params, basis, a, 1, p + 1, mono)
        scal = mc.average_value(params, "A", z[a]) / sb.cross_product(z[a], z, a)
        s.check(f"elementary_cycle[{a}]", mc.rel_err(lhs, scal * ops[a][1]), "elementary")
    if nsep >= 2:
        worst = 0.0
        for k in range(p):
            for h in range(p):
                Oa, Ob = ops[0][k], ops[1][h]
                ratio = lo._exchange_ratio(basis, 0, k, 1, h)
                lhs, rhs = Oa @ Ob, ratio * (Ob @ Oa)
                worst = max(worst, mc.rel_err(lhs, rhs,
                            scale=max(mc.frob(lhs), mc.frob(rhs), 1e-300)))
        s.check("elementary_exchange", worst, "elementary")
        seq = [(1, 2), (0, 1)]
        scal, ordered = lo.reduce_O_monomial(params, basis, seq)
        dense_in = np.eye(d, dtype=complex)
        for a, k in seq:
            dense_in = dense_in @ ops[a][k]
        dense_out = np.eye(d, dtype=complex)
        for a, k in ordered:
            dense_out = dense_out @ ops[a][k]
        s.check("monomial_reduction", mc.rel_err(dense_in, scal * dense_out), "elementary")
    if params.even_chain:
        etaA = lo.eta_interp_operator(basis, 1)
        O = ops[0][1]
        s.check("eta_interp_exchange",
                mc.rel_err(etaA @ O, O @ etaA / params.q), "elementary")
        theta = mc.theta_charge(params)
        s.check("theta_elementary_commute",
                mc.frob(theta @ O - O @ theta) / (mc.frob(theta) * mc.frob(O)),
                "elementary")
    for i, lam in enumerate(params.spectral_samples(rng, 3, exclude=excl)):
        got = lo.binvA_interpolation(params, basis, lam, mono)
        tgt = lo.binvA_dense(params, mono, lam, 1)
        s.check(f"interpolation_identity[{i}]", mc.rel_err(got, tgt), "elementary")
    # homogeneous chains: permutation realization and shift diagnostics
    if params.n_sites > 1 and params.homogeneous:
        lam = params.spectral_samples(rng, 1)[0]
        for n, sh in enumerate(frames[1:], start=2):
            W = lo.cyclic_shift_permutation(params, n)
            worst = max(mc.rel_err(W @ mono.entry(e).evaluate(lam) @ W.conj().T,
                                   sh.mono.entry(e).evaluate(lam)) for e in "ABCD")
            s.check(f"shift_permutation[{n}]", worst, "reconstruction")


def _ff_section(s, sol):
    params = s.params
    d = params.dim
    mono, basis, states = sol.mono, sol.basis, sol.states
    covs, vecs, norms = sol.covs, sol.vecs, sol.norms
    u1 = mc.site_embed(params, 1, mc.weyl_generators(
        params.p, params.u[0], params.v[0], params.p_prime)[0])

    dense = covs @ u1 @ vecs.T
    det = ffm.ff_u_table(params, basis, states, states, 1)[0]
    scale = np.maximum(np.maximum(np.abs(dense), np.abs(det)),
                       np.outer(np.linalg.norm(covs, axis=1),
                                np.linalg.norm(vecs, axis=1)) / np.sqrt(d))
    s.check("ff_u_full_sweep", float(np.max(np.abs(dense - det) / scale)), "ff_u",
            pairs=d * d)

    elems = [lo.ElementaryBasisElement(((0, 1, 1),))]
    if params.n_separate >= 2:
        elems.append(lo.ElementaryBasisElement(((0, 1, 1), (1, 2, 1))))
        elems.append(lo.ElementaryBasisElement(((0, 2, 2), (1, 0, 1))))
    if params.even_chain:
        elems.append(lo.ElementaryBasisElement((), theta_pow=1, theta_a_pow=1))
    rng = s.rng(60)
    pair_list = [(int(rng.integers(0, d)), int(rng.integers(0, d))) for _ in range(10)]
    for e_idx, elem in enumerate(elems):
        dense_op = elem.to_dense(params, basis, mono)
        worst = 0.0
        for i, j in pair_list:
            dense = covs[i] @ dense_op @ vecs[j]
            res = ffm.ff_elementary(params, basis, states[i], states[j], elem)
            scale = max(abs(dense), abs(res.value),
                        np.linalg.norm(covs[i]) * np.linalg.norm(vecs[j])
                        * max(np.linalg.norm(dense_op), 1e-300) / d)
            worst = max(worst, abs(dense - res.value) / scale)
        s.check(f"ff_elementary[{e_idx}]", worst, "ff_elementary",
                factors=str(elem.factors))
    # two-point expansion
    val = ffm.npoint(sol, 0, [u1, u1])
    dense = (covs[0] @ u1 @ u1 @ vecs[0]) / norms[0]
    s.value_check("npoint_two_u", val, dense, "npoint",
                  scale=max(abs(dense), np.linalg.norm(covs[0]) * np.linalg.norm(vecs[0])
                            / abs(norms[0])))
    v2 = lo.reconstruct_v2k(params, 1, 1) if abs(params.kappa[0] ** 4 - 1) > 1e-10 \
        else None
    if v2 is not None:
        val = ffm.npoint(sol, 0, [u1, v2])
        dense = (covs[0] @ u1 @ v2 @ vecs[0]) / norms[0]
        s.value_check("npoint_u_v2", val, dense, "npoint",
                      scale=max(abs(dense), np.linalg.norm(covs[0])
                                * np.linalg.norm(vecs[0]) / abs(norms[0])))
    # shift-eigenvalue diagnostic on homogeneous chains: the permutation
    # eigenvalues are exact unit phases; the transfer/Baxter-ratio
    # predictions are reported without assertion (unproven here)
    if params.n_sites > 1 and params.homogeneous:
        W = lo.cyclic_shift_permutation(params, 2)
        mup = complex(params.mu_plus[0])
        for i in (0, 1):
            phi = ffm.shift_eigenvalue(params, basis, states[i], W)
            s.check(f"shift_phase_unit[{i}]", abs(abs(phi) - 1.0), "reconstruction",
                    phi=phi)
            s.check(f"shift_phase_cycle[{i}]",
                    abs(phi ** params.n_sites - 1.0), 1e-6, phi=phi)
            qratio = sp.polyval_ascending(states[i].q_poly, mup / params.q) \
                / sp.polyval_ascending(states[i].q_poly, mup)
            s.check(f"shift_eigenvalue_diagnostic[{i}]",
                    abs(phi / states[i].t_at(mup) - 1.0), 0.0, diagnostic=True,
                    phi=phi, transfer_ratio=phi / states[i].t_at(mup),
                    baxter_ratio=phi / qratio)
