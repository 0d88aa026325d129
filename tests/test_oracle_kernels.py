"""The array kernels of the oracle and of the prepared solution against the
per-state and per-label loops they replaced, which are kept here as the
references: on the true solution and on inputs perturbed so that every
residual is far from zero."""

import dataclasses

import numpy as np
import pytest

from sgsov import model_core as mc
from sgsov import local_ops as lo
from sgsov import oracle
from sgsov import separate_states as ss
from sgsov import spectrum as sp
from sgsov.separate_states import prepare

from conftest import SEED, cfg_a_params, eigenstates, q_grids
from test_model_core import _block_residual

RTOL = 1e-13
CHAINS = ("n1", "cfg_b", "cfg_a", "hom3", "stretch")


@pytest.fixture(params=CHAINS)
def sol(request):
    return request.getfixturevalue(request.param)


def _close(got, ref):
    assert abs(got - ref) <= RTOL * abs(ref)


def _noise_close(got, ref):
    """Residuals of the true solution are rounding-sized, so the two routes
    agree in absolute terms: these are relative errors, and no tolerance of
    the rows they feed is below 1e-10."""
    assert abs(got - ref) <= 1e-15


def _perturbed(x, rng, size=1e-3):
    x = np.asarray(x)
    return x * (1 + size * (rng.standard_normal(x.shape) + 1j * rng.standard_normal(x.shape)))


# -- references: the loops the kernels replaced ------------------------------

def _functional_equation_ref(params, t_coeffs, rng):
    pts = params.spectral_samples(rng, sp.FE_POINTS)
    p = params.p
    lams = np.asarray(pts)[:, None] * params.q ** np.arange(p)
    j = np.arange(p)
    D = np.zeros((len(pts), p, p), dtype=complex)
    D[:, j, j] = sp.eval_t(t_coeffs, lams)
    D[:, j, (j + 1) % p] = -mc.d_coeff(params, lams)
    D[:, j, (j - 1) % p] = -mc.a_coeff(params, lams)
    rownorms = np.linalg.norm(D, axis=2)
    vals = np.abs(np.linalg.det(D)) / np.maximum(np.prod(rownorms, axis=1), 1e-300)
    return float(np.max(vals, initial=0.0))


def _baxter_grid_ref(params, basis, t_coeffs, psis):
    worst = 0.0
    nsep = params.n_separate
    eta_sep = basis.grid.grid[:nsep]
    rows, tup = np.arange(nsep), params.tuples[:, :nsep]
    eta = eta_sep[rows, tup]
    a_lab = mc.a_coeff(params, eta_sep)[rows, tup]
    d_lab = mc.d_coeff(params, eta_sep)[rows, tup]
    down, up = (params.shifted_indices(delta)[:, :nsep] for delta in (-1, +1))
    for t, psi in zip(t_coeffs, psis):
        pmax = float(np.max(np.abs(psi)))
        lhs = sp.eval_t(t, eta) * psi[:, None]
        rhs = a_lab * psi[down] + d_lab * psi[up]
        worst = max(worst, float(np.max(
            np.abs(lhs - rhs) / np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), pmax))))
    return worst


def _two_route_ref(params, basis, q_polys, q_grids, anchors):
    worst = 0.0
    for poly, q_grid, anchor in zip(q_polys, q_grids, anchors):
        for a in range(params.n_separate):
            pv = sp.polyval_ascending(poly, basis.grid.grid[a])
            rp = pv / pv[anchor[a]]
            rg = q_grid[a] / q_grid[a][anchor[a]]
            worst = max(worst, float(np.max(np.abs(rp - rg)) / max(np.max(np.abs(rp)), 1e-300)))
    return worst


def _collinearity_ref(covs, vecs, vec_left, vec_right):
    worst = 0.0
    for cov, vec, vl, vr in zip(covs, vecs, vec_left, vec_right):
        cr = abs(np.vdot(vec, vr)) / (np.linalg.norm(vec) * np.linalg.norm(vr))
        cl = abs(np.vdot(cov.conj(), vl.conj())) / (np.linalg.norm(cov) * np.linalg.norm(vl))
        worst = max(worst, 1 - cr, 1 - cl)
    return worst


def _hermitian_dual_ref(covs, vecs):
    worst = 0.0
    for i in range(len(covs)):
        dual = np.conj(vecs[i])
        col = abs(np.vdot(dual.conj(), covs[i].conj())) \
            / (np.linalg.norm(dual) * np.linalg.norm(covs[i]))
        alpha = np.linalg.norm(vecs[i]) ** 2 / (covs[i] @ vecs[i])
        res = np.linalg.norm(dual - alpha * covs[i]) / np.linalg.norm(dual)
        worst = max(worst, 1 - col, res)
    return worst


def _elementary_action_ref(params, basis, ops):
    worst = 0.0
    for a in range(params.n_separate):
        for k in range(params.p):
            O = ops[a, k]
            sc = np.linalg.norm(O)
            weights = lo.o_action_weights(basis, a, k)
            for j in range(params.dim):
                got = basis.left[j] @ O
                w = weights[j]
                tgt = w * basis.left[basis.shifted_index(j, a, -1)] if w else 0 * got
                worst = max(worst, float(np.linalg.norm(got - tgt)
                                         / (np.linalg.norm(basis.left[j]) * sc)))
    return worst


def _binvA_power_sov_ref(params, basis, k, lam):
    """One ``sov_diagonal`` product per composition of k."""
    p, nsep, d, q = params.p, params.n_separate, params.dim, params.q
    grid, tup = basis.grid.grid, params.tuples
    eta = grid[np.arange(nsep), tup]
    out = np.zeros((d, d), dtype=complex)

    def compositions(total, parts):
        if parts == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in compositions(total - first, parts - 1):
                yield (first,) + rest

    for alphas in compositions(k, nsep):
        multi = lo.q_multinomial(q, k, alphas)
        if abs(multi) < 1e-14:
            continue
        coeffs = np.ones(d, dtype=complex)
        for v in range(nsep):
            for h in range(alphas[v]):
                coeffs *= mc.a_coeff(params, eta[:, v] * q ** (-h)) \
                    / (lam * q ** h / eta[:, v] - eta[:, v] / (lam * q ** h))
            for i in range(nsep):
                if i != v:
                    for h in range(alphas[i] - alphas[v] + 1, alphas[i] + 1):
                        coeffs *= 1.0 / (eta[:, v] * q ** h / eta[:, i]
                                         - eta[:, i] / (eta[:, v] * q ** h))
        out += (basis.right * (multi * params.kprod ** (-k) * coeffs * basis.measure)) \
            @ basis.left[params.flat_indices(tup - alphas)]
    return out


# -- the kernels -------------------------------------------------------------

def test_functional_equations_equal_per_state_loop(sol):
    params = sol.params
    rng = np.random.default_rng(7)
    true = sol.states.t_rows
    off = true + 0.05 * rng.standard_normal(true.shape)
    for t_all, close in ((true, _noise_close), (off, _close)):
        got = sp.check_functional_equations(params, t_all, sol.rng(33))
        for g, t in zip(got, t_all):
            close(g, _functional_equation_ref(params, t, sol.rng(33)))
    assert sp.check_functional_equation(params, off[0], sol.rng(33)) == got[0]


def test_baxter_grid_equals_per_state_loop(sol):
    params, basis = sol.params, sol.basis
    t_all = sol.states.t_rows
    psi = q_grids(sol)[0]
    _noise_close(oracle._baxter_grid_residual(params, sol.grid, t_all, psi),
                 _baxter_grid_ref(params, basis, t_all, psi))
    psi = _perturbed(psi, np.random.default_rng(8))
    ref = _baxter_grid_ref(params, basis, t_all, psi)
    assert ref > 1e-5
    _close(oracle._baxter_grid_residual(params, sol.grid, t_all, psi), ref)


def test_two_routes_equal_per_state_loop(sol):
    params, basis, nsep = sol.params, sol.basis, sol.params.n_separate
    polys = list(sol.states.q_poly)
    _, q_grid, anchors, _, _ = q_grids(sol)
    q_grid, anchors = q_grid[:, :nsep], anchors[:, :nsep]
    _noise_close(oracle._two_route_gap(sol.states.q_vals, q_grid, anchors),
                 _two_route_ref(params, basis, polys, q_grid, anchors))
    q_grid = _perturbed(q_grid, np.random.default_rng(9))
    ref = _two_route_ref(params, basis, polys, q_grid, anchors)
    assert ref > 1e-5
    _close(oracle._two_route_gap(sol.states.q_vals, q_grid, anchors), ref)


def test_collinearity_equals_per_state_loop(sol):
    L = np.array(sol.states.L)
    R = np.array(sol.states.R.T)
    _noise_close(oracle._collinearity_defect(sol.covs, sol.vecs, L, R),
                 _collinearity_ref(sol.covs, sol.vecs, L, R))
    # 1 - |cos| cancels: perturb far enough that it is not rounding-sized
    R = _perturbed(R, np.random.default_rng(10), 0.1)
    ref = _collinearity_ref(sol.covs, sol.vecs, L, R)
    assert ref > 1e-3
    _close(oracle._collinearity_defect(sol.covs, sol.vecs, L, R), ref)


def test_hermitian_dual_equals_per_state_loop(sol):
    if not sol.params.self_adjoint:
        pytest.skip("the dual check runs on self-adjoint chains")
    _noise_close(oracle._hermitian_dual_defect(sol.covs, sol.vecs),
                 _hermitian_dual_ref(sol.covs, sol.vecs))
    vecs = _perturbed(sol.vecs, np.random.default_rng(11), 0.1)
    ref = _hermitian_dual_ref(sol.covs, vecs)
    assert ref > 1e-5
    _close(oracle._hermitian_dual_defect(sol.covs, vecs), ref)


def test_elementary_action_equals_per_label_loop(sol):
    params, basis = sol.params, sol.basis
    ops = sol.elementary_ops
    _noise_close(oracle._elementary_action_residual(params, basis, ops),
                 _elementary_action_ref(params, basis, ops.dense()))
    ops = mc.Graded(ops.shift, _perturbed(ops.blocks, np.random.default_rng(12)), ops.sectors)
    ref = _elementary_action_ref(params, basis, ops.dense())
    assert ref > 1e-5
    _close(oracle._elementary_action_residual(params, basis, ops), ref)


@pytest.mark.parametrize("chain", ["n1", "cfg_a", "hom3", "stretch"])
def test_shift_powers_equal_one_product_per_composition(chain, request):
    sol = request.getfixturevalue(chain)
    params, basis = sol.params, sol.basis
    lam = params.spectral_samples(sol.rng(960), 1, exclude=basis.grid.grid.reshape(-1))[0]
    for k in range(1, params.p + 1):
        ref = _binvA_power_sov_ref(params, basis, k, lam)
        got = lo.binvA_power_sov(params, basis, k, lam)
        assert np.linalg.norm(got - ref) <= RTOL * np.linalg.norm(ref)


def test_yang_baxter_residual_equals_block_loop_on_a_broken_relation(sol):
    params, mono = sol.params, sol.mono
    broken = dataclasses.replace(mono, B=mono.B * 2.0)
    for lam, mu in np.reshape(params.spectral_samples(sol.rng(961), 4), (2, 2)):
        _close(mc.yang_baxter_residual(params, lam, mu, broken),
               _block_residual(params, lam, mu, broken))


def test_baxter_fit_gap_is_the_per_state_singular_value_ratio(sol):
    """The batched fit's gap equals the first non-null singular value over the
    largest from one SVD per state of the Frobenius-normalized coefficient
    map, and the spectrum section reports the worst as a diagnostic row.

    The map is rebuilt here from point values: lam^N times the residual of
    Q = lam^j is a polynomial of degree below M = 2N + deg Q + 1, so its
    values at the M-th roots of unity give its coefficients by one FFT."""
    params = sol.params
    N, q = params.n_sites, params.q
    M = 2 * N + (params.p - 1) * N + 1
    pts = np.exp(2j * np.pi * np.arange(M) / M)
    powers = np.arange(M - 2 * N)
    spec = sol.states
    for t, nd, fit_gap in zip(spec.t_rows, spec.nullspace_dim, spec.fit_gap):
        vals = pts[:, None] ** (N + powers) * (
            sp.eval_t(t, pts)[:, None] - mc.a_coeff(params, pts)[:, None] * q ** (-powers)
            - mc.d_coeff(params, pts)[:, None] * q ** powers)
        W = np.fft.fft(vals, axis=0) / M
        sv = np.linalg.svd(W / np.linalg.norm(W), compute_uv=False)
        gap = sv[len(sv) - nd - 1] / sv[0]
        assert abs(fit_gap - gap) <= 1e-12 * gap
        assert gap > sp.NULL_TOL
    row, = [r for r in oracle.verify_solution(sol, sections={"spectrum"})
            if r.label == "baxter_fit_gap"]
    assert row.context == {"diagnostic": True, "bound": sp.NULL_TOL}
    assert row.rel_err == min(spec.fit_gap)


def test_site_one_frame_is_cached_and_solved_once(monkeypatch):
    sol = prepare(cfg_a_params(), SEED)
    assert sol.frame(1) is sol.frame(1)
    assert sol.frame(1).mono is sol.mono
    oracle.verify_solution(sol, sections={"local"})
    calls = []
    solve = lo._solve
    monkeypatch.setattr(lo, "_solve", lambda *a, **k: calls.append(k["what"]) or solve(*a, **k))
    # the ff section's V^2 at site 1 reads the frame the local section solved
    oracle.verify_solution(sol, sections={"ff"})
    assert calls == []


def test_batched_preparation_equals_batch_of_one(cfg_b):
    """The batched steps of ``Solution.states`` and the per-state public calls
    that the benchmark makes are one code path: every state agrees bit for
    bit, the SOV wavefunction and its ratio tables included."""
    params, basis = cfg_b.params, cfg_b.basis
    psi, q_grid, anchors, resid, phase_dev = q_grids(cfg_b)
    for i, st in enumerate(eigenstates(cfg_b)):
        fresh = sp.TransferEigenstate(st.t_coeffs, st.theta_m, st.vec_right, st.vec_left)
        got = sp.extract_Q_grid(fresh, basis)
        for name, value, batch in zip(("psi", "q_grid", "anchor", "resid", "phase"), got,
                                      (psi, q_grid, anchors, resid, phase_dev)):
            assert np.array_equal(value, batch[i]), name
        fresh.q_poly, fresh.nullspace_dim = sp.fit_Q_polynomial(params, st.t_coeffs)
        fresh.qbar_poly = sp.qbar_from_q(params, fresh.q_poly)
        ss.attach_q_data(fresh, basis)
        for name in ("q_poly", "qbar_poly", "q_vals", "qbar_vals", "ff_u_ket"):
            assert np.array_equal(getattr(fresh, name), getattr(st, name)), name
        assert fresh.nullspace_dim == st.nullspace_dim
