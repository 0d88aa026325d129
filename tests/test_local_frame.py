"""The per-site reconstruction frame: each local-operator solve is computed
once per site, the rational family and the clock powers equal their explicit
formulas, the frame is immutable, and the local factor of an operator is one
partial trace.  The prepared solution owns the elementary-operator table and
the site frames, and one verification builds each of them once."""

import dataclasses

import numpy as np
import pytest

from sgsov import model_core as mc
from sgsov import local_ops as lo
from sgsov import oracle
from sgsov.separate_states import prepare

from conftest import SEED, cfg_a_params

CHAINS = ("cfg_a", "cfg_b")


@pytest.fixture(params=CHAINS)
def sol(request):
    return request.getfixturevalue(request.param)


def _right_divide(M, N):
    """M N^{-1} through a solve."""
    return np.linalg.solve(N.T, M.T).T


def _beta_ref(sh, k):
    """U^k alpha0 U^{1-k}, with U = B^{-1}A at mu_+ and alpha0 = A^{-1}B at
    mu_-, each solved here from the reordered monodromy."""
    params, mono = sh.params, sh.mono
    lp, lm = params.mu_plus[sh.n - 1], params.mu_minus[sh.n - 1]
    U = np.linalg.solve(mono.B.evaluate(lp), mono.A.evaluate(lp))
    alpha0 = np.linalg.solve(mono.A.evaluate(lm), mono.B.evaluate(lm))
    if k == 0:
        return alpha0 @ U
    return _right_divide(np.linalg.matrix_power(U, k) @ alpha0,
                         np.linalg.matrix_power(U, k - 1))


def test_one_solve_per_reconstruction_per_site(sol, monkeypatch):
    params, p = sol.params, sol.params.p
    calls = []
    solve = lo._solve

    def counting(*args, **kwargs):
        calls.append(kwargs.get("what"))
        return solve(*args, **kwargs)

    monkeypatch.setattr(lo, "_solve", counting)
    for n in range(1, params.n_sites + 1):
        calls.clear()
        sh = lo.shifted_monodromy(params, n)
        for k in (1, p - 1):
            lo.reconstruct_u(sh, k)
        lo.reconstruct_u_via_dc(sh)
        lo.reconstruct_alpha0(sh)
        for k in range(p):
            lo.reconstruct_beta(sh, k)
        for k in range(1, p):
            lo.reconstruct_v2k(sh, k)
        assert lo.spanning_rank(sh) == p * p
        # B^{-1}A at mu_+, A^{-1}B at mu_-, D^{-1}C at mu_+, B^{-1}A at mu_-
        assert len(calls) == 4, calls


def test_beta_and_clock_powers_equal_the_explicit_formulas(sol):
    params, p = sol.params, sol.params.p
    q = params.q
    for n in range(1, params.n_sites + 1):
        sh = lo.shifted_monodromy(params, n)
        refs = [_beta_ref(sh, k) for k in range(p)]
        for k in range(p):
            assert mc.rel_err(lo.reconstruct_beta(sh, k), refs[k]) <= 1e-12
        kap, v2p = params.kappa[n - 1], params.v[n - 1] ** (2 * p)
        for k in range(1, p):
            pref = (-1.0) ** k * (v2p * kap ** (2 * p) + 1) \
                / (p * kap ** (2 * k) * (kap ** 2 - kap ** (-2)))
            ref = pref * sum(q ** (-k * (2 * a - 1)) * refs[a] for a in range(p))
            assert mc.rel_err(lo.reconstruct_v2k(sh, k), ref) <= 1e-12


def test_frame_is_immutable(cfg_a):
    sh = lo.shifted_monodromy(cfg_a.params, 2)
    for name in ("params", "n", "mono", "binva"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(sh, name, None)
    for op in (sh.binva, sh.alpha0, sh.betas):
        with pytest.raises(ValueError):
            op.blocks[(0,) * op.blocks.ndim] = 1.0
    assert sh.binva_cond >= 1.0 and sh.alpha0_cond >= 1.0
    assert np.array_equal(lo.reconstruct_alpha0(sh), sh.alpha0.dense())


def test_local_block_is_the_site_trace(cfg_a):
    params, p = cfg_a.params, cfg_a.params.p
    rng = cfg_a.rng(950)
    d = params.dim
    op = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    for n in range(1, params.n_sites + 1):
        for X in (op, lo.reconstruct_beta(lo.shifted_monodromy(params, n), 1)):
            ref = np.zeros((p, p), dtype=complex)
            for i in range(p):
                for j in range(p):
                    E = np.zeros((p, p), dtype=complex)
                    E[j, i] = 1.0
                    ref[i, j] = np.trace(mc.site_embed(params, n, E) @ X) \
                        / p ** (params.n_sites - 1)
            assert mc.rel_err(lo._local_block(params, n, X), ref) <= 1e-12


def test_solution_owns_the_elementary_table_and_the_frames(sol):
    params, basis, mono = sol.params, sol.basis, sol.mono
    p, nsep, d = params.p, params.n_separate, params.dim
    ops = sol.elementary_ops
    assert ops.blocks.shape == (nsep, p, p, d // p, d // p)
    with pytest.raises(ValueError):
        ops.blocks[0, 0, 0, 0, 0] = 1.0
    ref = [[lo.elementary_O(params, basis, a, k, mono) for k in range(p)]
           for a in range(nsep)]
    for a in range(nsep):
        for k in range(p):
            assert ops[a, k].shift == ref[a][k].shift
            assert np.array_equal(ops[a, k].blocks, ref[a][k].blocks)
        for k, alpha in ((1, 1), (2, 2), (1, p + 1)):
            prod = ref[a][k]
            for j in range(1, alpha):
                prod = prod @ ref[a][(k - j) % p]
            assert np.array_equal(lo.elementary_O_power(ops, a, k, alpha).blocks, prod.blocks)
    lam = params.spectral_samples(sol.rng(951), 1, exclude=basis.grid.grid.reshape(-1))[0]
    total = np.zeros((d, d), dtype=complex)
    for a in range(nsep):
        for k in range(p):
            eta = basis.grid.grid[a, k]
            total += ref[a][k].dense() / (lam / eta - eta / lam)
    total = total / params.kprod
    if params.even_chain:
        theta = np.diag(mc.theta_charge(params))
        total = total + lam * theta[:, None] * lo.eta_interp_operator(basis, -1) \
            - lo.eta_interp_operator(basis, 1) / (lam * theta)
        total = lo.eta_ref_operator(basis, -1) @ total
    assert np.array_equal(lo.binvA_interpolation(params, basis, lam, ops), total)

    assert sol.frame(1).mono is mono
    assert sol.frame(2) is not sol.frame(2)
    with pytest.raises(IndexError):
        sol.frame(params.n_sites + 1)
    if sol.params.n_sites == 3:
        got, ref_frame = sol.frame(2), lo.shifted_monodromy(params, 2)
        for e in "ABCD":
            assert np.array_equal(got.mono.entry(e).evaluate(lam),
                                  ref_frame.mono.entry(e).evaluate(lam))


def test_one_verification_builds_each_operator_once(monkeypatch):
    sol = prepare(cfg_a_params(), SEED)
    calls = {"elementary_O": 0, "monodromy": 0}
    for module, name in ((lo, "elementary_O"), (mc, "monodromy")):
        def counting(*args, _fn=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counting)
    oracle.verify_solution(sol)
    # nsep * p = 9 elementary operators; the reordered monodromies of sites
    # 2 and 3 (site 1's frame reuses the solution's monodromy)
    assert calls == {"elementary_O": 9, "monodromy": 2}


@pytest.mark.parametrize("chain", ["cfg_b", "cfg_a"])
def test_eta_ref_grading_residual_is_a_diagnostic_row_of_even_chains(chain, request):
    sol = request.getfixturevalue(chain)
    rows = {r.label: r for r in oracle.verify_solution(sol, sections={"local"})}
    if not sol.params.even_chain:
        assert "eta_ref_grading_residual" not in rows
        return
    factor, residual = sol.basis.eta_ref_lowering
    row = rows["eta_ref_grading_residual"]
    assert row.context == {"diagnostic": True, "bound": oracle.DEFAULT_TOLERANCES["elementary"]}
    assert row.passed and row.margin is None and row.rel_err == residual
    assert 0.0 <= residual <= 1e-12
    # the kept blocks are eta_ref^-(p-1) on the charge shift of B
    p = sol.params.p
    dense = lo.eta_ref_operator(sol.basis, -(p - 1))
    assert factor.shift == sol.mono.B.shift
    assert mc.rel_err(factor.dense(), dense) <= 1e-12
