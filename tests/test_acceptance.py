"""Acceptance criteria, one test per criterion, each printing a pass/fail
line with the worst observed residual and its pinned tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines."""

import time

import numpy as np
import pytest

from sgsov import model_core as mc
from sgsov import sov_basis as sb
from sgsov import spectrum as sp
from sgsov import separate_states as ss
from sgsov import form_factors as ff
from sgsov import local_ops as lo
from sgsov import oracle

from conftest import eigenstates, embedded_u, q_grids


def _report(num, title, worst, tol, extra=""):
    status = "PASS" if worst <= tol else "FAIL"
    print(f"ACCEPTANCE {num} [{status}] {title}: worst={worst:.3e} tol={tol:.0e} {extra}")
    assert worst <= tol, f"criterion {num}: {worst:.3e} > {tol:.0e}"


def test_criterion_1_algebra_suite(desk_bundles):
    tol = 1e-10
    worst = 0.0
    for bundle in desk_bundles.values():
        t0 = time.perf_counter()
        params, mono = bundle.params, bundle.mono
        rng = bundle.rng(901)
        d = params.dim
        for _ in range(10):
            lam, mu = params.spectral_samples(rng, 2)
            worst = max(worst, mc.yang_baxter_residual(params, lam, mu, mono))
            AD = mono.A.evaluate(lam) @ mono.D.evaluate(lam / params.q) \
                - mono.B.evaluate(lam) @ mono.C.evaluate(lam / params.q)
            worst = max(worst, mc.frob(AD - mc.quantum_determinant(params, lam)
                                       * np.eye(d)) / mc.frob(AD))
            if params.even_chain:
                theta = mc.theta_charge(params)
                B = mono.B.evaluate(lam)
                worst = max(worst, mc.frob(B @ theta - params.q * theta @ B)
                            / (mc.frob(B) * mc.frob(theta)))
                T = mc.transfer(mono, lam)
                worst = max(worst, mc.frob(T @ theta - theta @ T)
                            / (mc.frob(T) * mc.frob(theta)))
            if params.self_adjoint:
                eps = params.hermitian_eps
                worst = max(worst, mc.rel_err(mono.B.evaluate(lam).conj().T,
                                              mono.C.evaluate(eps * np.conj(lam))))
                worst = max(worst, mc.rel_err(mono.A.evaluate(lam).conj().T,
                                              mono.D.evaluate(np.conj(lam))))
        big = rng.uniform(0.7, 1.5) * np.exp(2j * np.pi * rng.uniform())
        lam_b = big ** (1.0 / params.p)
        for entry in "ABCD":
            dense, dev = mc.average_value_dense(params, entry, lam_b, mono)
            worst = max(worst, dev / (abs(dense) * np.sqrt(d)))
            worst = max(worst, abs(dense - mc.average_value(params, entry, big))
                        / abs(dense))
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0, f"algebra suite took {elapsed:.1f}s"
    _report(1, "Yang-Baxter / determinant / charge / conjugation / averages",
            worst, tol)


def test_criterion_2_sov_basis(desk_bundles):
    worst_pattern = 0.0
    worst_orth = 0.0
    worst_measure = 0.0
    worst_ident = 0.0
    for bundle in desk_bundles.values():
        params, basis, mono = bundle.params, bundle.basis, bundle.mono
        d = params.dim
        rng = bundle.rng(902)
        for lam in params.spectral_samples(rng, 3, exclude=basis.grid.grid.reshape(-1)):
            B = mono.B.evaluate(lam)
            pats = sb.b_pattern(params, basis.grid, basis.params.tuples, lam)
            res = np.linalg.norm(basis.left @ B - pats[:, None] * basis.left, axis=1)
            worst_pattern = max(worst_pattern, float(np.max(
                res / (np.linalg.norm(B) * np.linalg.norm(basis.left, axis=1)))))
        G = basis.left @ basis.right
        off = G - np.diag(np.diag(G))
        nl = np.linalg.norm(basis.left, axis=1)
        nr = np.linalg.norm(basis.right, axis=0)
        worst_orth = max(worst_orth, float(np.max(np.abs(off) / (nl[:, None] * nr[None, :]))))
        mf = sb.mjj_formula(basis)
        worst_measure = max(worst_measure, float(np.max(np.abs(basis.mjj - mf) / np.abs(mf))))
        ident = sb.sov_diagonal(basis)
        worst_ident = max(worst_ident, mc.frob(ident - np.eye(d)) / d)
    _report(2, "B-eigenvalue patterns", worst_pattern, 1e-8)
    _report(2, "left/right biorthogonality", worst_orth, 1e-9)
    _report(2, "diagonal measure closed form", worst_measure, 1e-8)
    _report(2, "separated identity resolution", worst_ident, 1e-8)


def test_criterion_3_spectrum(desk_bundles):
    worst_true = 0.0
    worst_bax = 0.0
    worst_fact = 0.0
    reject_min = np.inf
    for bundle in desk_bundles.values():
        params, basis = bundle.params, bundle.basis
        labels = set()
        psis, _, _, resid, _ = q_grids(bundle)
        worst_fact = max(worst_fact, max(resid))
        for st, psi in zip(eigenstates(bundle), psis):
            labels.add((st.theta_m,) + tuple(np.round(st.t_coeffs, 9)))
            worst_true = max(worst_true, sp.check_functional_equation(
                params, st.t_coeffs, bundle.rng(903)))
            pmax = np.max(np.abs(psi))
            for j in range(params.dim):
                tup = basis.params.tuples[j]
                for r in range(params.n_separate):
                    eta = basis.grid.grid[r, tup[r]]
                    lhs = sp.eval_t(st.t_coeffs, eta) * psi[j]
                    rhs = mc.a_coeff(params, eta) * psi[basis.shifted_index(j, r, -1)] \
                        + mc.d_coeff(params, eta) * psi[basis.shifted_index(j, r, +1)]
                    worst_bax = max(worst_bax, abs(lhs - rhs) / max(abs(lhs), abs(rhs), pmax))
        assert len(labels) == params.dim
        t_coeffs = bundle.states.t_rows[0]
        rej = 0.0
        for pp in t_coeffs + 0.1 * np.eye(len(t_coeffs)):
            rej = max(rej, sp.check_functional_equation(params, pp, bundle.rng(903)))
        reject_min = min(reject_min, rej)
    _report(3, "complete joint labels + functional equation (true)", worst_true, 1e-8)
    print(f"ACCEPTANCE 3 [{'PASS' if reject_min > 1e-3 else 'FAIL'}] "
          f"functional equation rejects perturbation: min={reject_min:.3e} floor=1e-03")
    assert reject_min > 1e-3
    _report(3, "discrete difference relations on the grid", worst_bax, 1e-8)
    _report(3, "wavefunction factorization", worst_fact, 1e-7)


def test_criterion_4_scalar_products(desk_bundles):
    worst_pairs = 0.0
    worst_orth = 0.0
    worst_null = 0.0
    worst_ident = 0.0
    for bundle in desk_bundles.values():
        params, basis = bundle.params, bundle.basis
        rng = bundle.rng(904)
        nsep = params.n_separate
        for _ in range(20):
            al = rng.standard_normal((nsep, params.p)) + 1j * rng.standard_normal((nsep, params.p))
            be = rng.standard_normal((nsep, params.p)) + 1j * rng.standard_normal((nsep, params.p))
            ml = int(rng.integers(0, params.p)) if params.even_chain else 0
            mr = int(rng.integers(0, params.p)) if params.even_chain else 0
            a_st = ss.SeparateState("left", al, ml)
            b_st = ss.SeparateState("right", be, mr)
            cov = ss.materialize(a_st, basis)
            vec = ss.materialize(b_st, basis)
            det = ss.scalar_product_det(a_st, b_st, bundle.grid)
            worst_pairs = max(worst_pairs, abs(cov @ vec - det)
                              / max(abs(det), np.linalg.norm(cov) * np.linalg.norm(vec)))
        states = eigenstates(bundle)
        diag = [abs(ss.eigen_action(basis, st, st)) for st in states]
        for i, si in enumerate(states):
            for j, sj in enumerate(states):
                if i == j or (params.even_chain and si.theta_m != sj.theta_m):
                    continue
                val = ss.eigen_action(basis, si, sj)
                worst_orth = max(worst_orth, abs(val) / np.sqrt(diag[i] * diag[j]))
                phi = ss.phi_matrix(bundle.grid, si, sj)
                V = ss.t_coeff_null_vector(params, bundle.states.t_rows[i],
                                           bundle.states.t_rows[j])
                ref = max(mc.frob(phi),
                          (diag[i] * diag[j]) ** (0.5 * (nsep - 1) / nsep)
                          if nsep > 1 else np.sqrt(diag[i] * diag[j]))
                worst_null = max(worst_null, float(
                    np.linalg.norm(phi @ V) / (ref * np.linalg.norm(V))))
        ident = ss.identity_resolution_T(bundle)
        worst_ident = max(worst_ident, mc.frob(ident - np.eye(params.dim)) / params.dim)
    _report(4, "determinant scalar products vs dense (20 pairs/config)", worst_pairs, 1e-8)
    _report(4, "eigenstate orthogonality", worst_orth, 1e-8)
    _report(4, "annihilating coefficient vector", worst_null, 1e-8)
    _report(4, "eigenbasis identity resolution", worst_ident, 1e-7)


def test_criterion_5_reconstructions(desk_bundles):
    worst = 0.0
    worst_sum = 0.0
    for bundle in desk_bundles.values():
        params = bundle.params
        for n in range(1, params.n_sites + 1):
            sh = lo.shifted_monodromy(params, n)
            for k in (1, params.p - 1):
                worst = max(worst, mc.rel_err(lo.reconstruct_u(sh, k),
                                              embedded_u(bundle.params, n, k)))
            worst = max(worst, mc.rel_err(lo.reconstruct_u_via_dc(sh),
                                          embedded_u(bundle.params, n)))
            a0 = lo.reconstruct_alpha0(sh)
            tgt = lo.beta_target(params, n, 0) @ np.linalg.inv(embedded_u(bundle.params, n))
            worst = max(worst, mc.rel_err(a0, tgt))
            for k in range(params.p):
                worst = max(worst, mc.rel_err(lo.reconstruct_beta(sh, k),
                                              lo.beta_target(params, n, k)))
            for k in range(1, params.p):
                worst = max(worst, mc.rel_err(lo.reconstruct_v2k(sh, k),
                                              lo.v_power_target(params, n, k)))
            total = sum(lo.reconstruct_beta(sh, k) for k in range(params.p))
            worst_sum = max(worst_sum, mc.rel_err(
                total, lo.beta_sum_target(params, n) * np.eye(params.dim)))
    _report(5, "inverse-problem reconstructions at every site", worst, 1e-8)
    _report(5, "rational-family sum rule", worst_sum, 1e-8)


def test_criterion_6_sov_monomials(n1, cfg_a):
    worst = 0.0
    worst_central = 0.0
    for bundle in (n1, cfg_a):
        params, basis, mono = bundle.params, bundle.basis, bundle.mono
        rng = bundle.rng(906)
        excl = basis.grid.grid.reshape(-1)
        for k in range(1, params.p + 1):
            lam = params.spectral_samples(rng, 1, exclude=excl)[0]
            worst = max(worst, mc.rel_err(
                lo.binvA_power_sov(params, basis, k, lam),
                lo.binvA_dense(mono, lam, k)))
        lam = params.spectral_samples(rng, 1, exclude=excl)[0]
        scal = mc.average_value(params, "A", lam ** params.p) \
            / mc.average_value(params, "B", lam ** params.p)
        worst_central = max(worst_central, mc.rel_err(
            lo.binvA_dense(mono, lam, params.p),
            scal * np.eye(params.dim)))
    _report(6, "separated shift-power representation (k = 1..p)", worst, 1e-8)
    _report(6, "full-period power is the central ratio", worst_central, 1e-8)
    # q-combinatorics, exact at the root of unity
    import itertools
    worst_q = 0.0
    for p in (3, 5):
        q = np.exp(-2j * np.pi / p)
        for k in range(1, p):
            for alphas in itertools.product(range(k + 1), repeat=3):
                if sum(alphas) != k:
                    continue
                worst_q = max(worst_q, abs(lo.q_multinomial(q, k, alphas)
                                           - lo.q_multinomial_direct(q, k, alphas)))
        for alphas in itertools.product(range(p + 1), repeat=2):
            if sum(alphas) != p:
                continue
            expect = 1.0 if any(a == p for a in alphas) else 0.0
            worst_q = max(worst_q, abs(lo.q_multinomial(q, p, alphas) - expect))
    _report(6, "q-multinomial identity suite", worst_q, 1e-10)


def test_criterion_7_elementary_operators(desk_bundles):
    worst = 0.0
    ranks_ok = True
    for bundle in desk_bundles.values():
        params, basis, mono = bundle.params, bundle.basis, bundle.mono
        p, d = params.p, params.dim
        ops = {(a, k): lo.elementary_O(params, bundle.grid, bundle.charge_ops, a, k,
                                       mono).dense()
               for a in range(params.n_separate) for k in range(p)}
        for a in range(params.n_separate):
            for k in range(p):
                O = ops[(a, k)]
                sc = np.linalg.norm(O)
                weights = lo.o_action_weights(basis, a, k)
                for j in range(d):
                    got = basis.left[j] @ O
                    w = weights[j]
                    tgt = w * basis.left[basis.shifted_index(j, a, -1)] \
                        if w else np.zeros_like(got)
                    worst = max(worst, float(np.linalg.norm(got - tgt)
                                             / (np.linalg.norm(basis.left[j]) * sc)))
            for k in range(p):
                for h in range(p):
                    if (h - k) % p != p - 1:
                        prod = ops[(a, k)] @ ops[(a, h)]
                        worst = max(worst, float(
                            np.linalg.norm(prod)
                            / (np.linalg.norm(ops[(a, k)]) * np.linalg.norm(ops[(a, h)]))))
            lhs = lo.elementary_O_power(bundle.elementary_ops, a, 1, p + 1).dense()
            denom = 1.0 + 0.0j
            for b in range(params.n_separate):
                if b != a:
                    denom *= basis.grid.z[a] / basis.grid.z[b] \
                        - basis.grid.z[b] / basis.grid.z[a]
            scal = mc.average_value(params, "A", basis.grid.z[a]) / denom
            worst = max(worst, mc.rel_err(lhs, scal * ops[(a, 1)]))
        if params.n_separate >= 2:
            for k in range(p):
                for h in range(p):
                    lhs = ops[(0, k)] @ ops[(1, h)]
                    rhs = lo._exchange_ratio(bundle.grid, 0, k, 1, h) \
                        * (ops[(1, h)] @ ops[(0, k)])
                    worst = max(worst, mc.frob(lhs - rhs)
                                / max(mc.frob(lhs), mc.frob(rhs), 1e-300))
        rng = bundle.rng(907)
        for lam in params.spectral_samples(rng, 3, exclude=basis.grid.grid.reshape(-1)):
            worst = max(worst, mc.rel_err(
                lo.binvA_interpolation(params, bundle.grid, bundle.charge_ops, lam,
                                       bundle.elementary_ops),
                lo.binvA_dense(mono, lam, 1)))
        for n in range(1, params.n_sites + 1):
            ranks_ok = ranks_ok and lo.spanning_rank(lo.shifted_monodromy(params, n)) == p * p
    _report(7, "elementary algebra (action/zeros/cycle/exchange/poles)", worst, 1e-8)
    print(f"ACCEPTANCE 7 [{'PASS' if ranks_ok else 'FAIL'}] local spanning rank p^2 at every site")
    assert ranks_ok


def test_criterion_8_form_factors(cfg_a, cfg_b):
    worst_u = 0.0
    t0 = time.perf_counter()
    for bundle in (cfg_a, cfg_b):
        params, basis = bundle.params, bundle.basis
        d = params.dim
        u1 = embedded_u(bundle.params, 1)
        states = eigenstates(bundle)
        for i in range(d):
            for j in range(d):
                dense = bundle.covs[i] @ u1 @ bundle.vecs[j]
                res = ff.ff_u(params, basis, states[i], states[j], 1)
                if res.selection_zero:
                    assert res.value == 0.0
                scale = max(abs(dense), abs(res.value),
                            np.linalg.norm(bundle.covs[i]) * np.linalg.norm(bundle.vecs[j])
                            / np.sqrt(d))
                worst_u = max(worst_u, abs(dense - res.value) / scale)
    sweep_time = time.perf_counter() - t0
    assert sweep_time < 120.0, f"pair sweep took {sweep_time:.1f}s"
    _report(8, "shift-generator form factors, all pairs (both chains)",
            worst_u, 1e-7, extra=f"sweep={sweep_time:.1f}s")

    worst_e = 0.0
    for bundle, elems in (
        (cfg_b, [lo.ElementaryBasisElement((), theta_pow=1, theta_a_pow=1),
                 lo.ElementaryBasisElement(((0, 1, 1),))]),
        (cfg_a, [lo.ElementaryBasisElement(((0, 1, 1),)),
                 lo.ElementaryBasisElement(((0, 1, 1), (1, 2, 1))),
                 lo.ElementaryBasisElement(((0, 2, 2), (2, 0, 1)))]),
    ):
        params, basis = bundle.params, bundle.basis
        d = params.dim
        rng = bundle.rng(908)
        pairs = [(int(rng.integers(0, d)), int(rng.integers(0, d))) for _ in range(12)]
        states = eigenstates(bundle)
        for elem in elems:
            dense_op = elem.to_dense(params, bundle.charge_ops, bundle.elementary_ops)
            opn = np.linalg.norm(dense_op)
            for i, j in pairs:
                dense = bundle.covs[i] @ dense_op @ bundle.vecs[j]
                res = ff.ff_elementary(params, bundle.grid, states[i], states[j], elem)
                scale = max(abs(dense), abs(res.value),
                            np.linalg.norm(bundle.covs[i]) * np.linalg.norm(bundle.vecs[j])
                            * opn / d)
                worst_e = max(worst_e, abs(dense - res.value) / scale)
    _report(8, "elementary-operator form factors (r = 0, 1, 2)", worst_e, 1e-6)

    worst_np = 0.0
    for bundle in (cfg_a, cfg_b):
        params, basis = bundle.params, bundle.basis
        u1 = embedded_u(bundle.params, 1)
        idx = 0
        u1_table = bundle.covs @ u1 @ bundle.vecs.T
        val = ff.npoint(bundle, idx, [u1_table, u1_table])
        dense = (bundle.covs[idx] @ u1 @ u1 @ bundle.vecs[idx]) / bundle.norms[idx]
        worst_np = max(worst_np, abs(val - dense)
                       / max(abs(dense), abs(val),
                             np.linalg.norm(bundle.covs[idx]) * np.linalg.norm(bundle.vecs[idx])
                             / abs(bundle.norms[idx])))
    _report(8, "two-point expansion over the eigenbasis", worst_np, 1e-6)


def test_criterion_9_determinism_and_runtime(desk_bundles, stretch):
    configs = dict(desk_bundles)
    configs["stretch_p5"] = stretch
    for name, bundle in configs.items():
        t0 = time.perf_counter()
        reports = oracle.verify_suite(bundle.params, seed=1234)
        elapsed = time.perf_counter() - t0
        r1 = oracle.reports_to_jsonl(reports)
        r2 = oracle.reports_to_jsonl(oracle.verify_suite(bundle.params, seed=1234))
        identical = r1 == r2
        all_pass = all(r.passed for r in reports)
        status = "PASS" if identical and all_pass and elapsed < 300 else "FAIL"
        print(f"ACCEPTANCE 9 [{status}] verify-all on {name}: deterministic={identical} "
              f"all_pass={all_pass} time={elapsed:.1f}s limit=300s")
        assert identical and all_pass and elapsed < 300
