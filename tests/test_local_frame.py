"""The per-site reconstruction frame: each local-operator solve is computed
once per site, the rational family and the clock powers equal their explicit
formulas, the frame is immutable, and the local factor of an operator is one
partial trace.  The prepared solution owns the elementary-operator table and
the site frames, and one verification builds each of them once."""

import dataclasses
from functools import reduce
from operator import add

import numpy as np
import pytest

from sgsov import model_core as mc
from sgsov import local_ops as lo
from sgsov import oracle
from sgsov import sov_basis as sb
from sgsov.params import ModelParams
from sgsov.separate_states import prepare

from conftest import SEED, cfg_a_params, cfg_b_params

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
    params, grid, mono = sol.params, sol.grid, sol.mono
    p, nsep, d = params.p, params.n_separate, params.dim
    ops = sol.elementary_ops
    assert ops.blocks.shape == (nsep, p, p, d // p, d // p)
    with pytest.raises(ValueError):
        ops.blocks[0, 0, 0, 0, 0] = 1.0
    charge_ops = lo.sov_charge_operators(params, grid, mono)
    assert (charge_ops is None) == (sol.charge_ops is None) == (not params.even_chain)
    for op, got in zip(charge_ops or (), sol.charge_ops or ()):
        assert got.shift == op.shift and np.array_equal(got.blocks, op.blocks)
    ref = [[lo.elementary_O(params, grid, charge_ops, a, k, mono) for k in range(p)]
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
    lam = params.spectral_samples(sol.rng(951), 1, exclude=grid.grid.reshape(-1))[0]
    eta = grid.grid
    total = reduce(add, [ref[a][k] / (lam / eta[a, k] - eta[a, k] / lam)
                         for a in range(nsep) for k in range(p)]) / params.kprod
    if params.even_chain:
        # theta is one scalar on each charge sector
        _, eta_ref_inv, eta_a, eta_a_inv = charge_ops
        theta = np.diag(mc.theta_charge(params))[total.sectors[:, 0]][:, None, None]
        total = eta_ref_inv @ (total + eta_a_inv * (lam * theta) - eta_a / (lam * theta))
    got = lo.binvA_interpolation(params, grid, sol.charge_ops, lam, ops)
    assert np.array_equal(got, total.dense())

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
def test_eta_ref_basis_gap_is_a_diagnostic_row_of_even_chains(chain, request):
    sol = request.getfixturevalue(chain)
    rows = {r.label: r for r in oracle.verify_solution(sol, sections={"local"})}
    if not sol.params.even_chain:
        assert "eta_ref_basis_gap" not in rows and sol.charge_ops is None
        return
    # eta_ref diagonalized by the dense basis matches its graded form from B
    eta_ref = sol.charge_ops[0]
    dense = sb.sov_diagonal(sol.basis, sol.grid.grid[-1, sol.params.tuples[:, -1]])
    gap = mc.rel_err(dense, eta_ref.dense())
    row = rows["eta_ref_basis_gap"]
    assert row.context == {"diagnostic": True, "bound": oracle.DEFAULT_TOLERANCES["elementary"]}
    assert row.passed and row.margin is None and row.rel_err == gap
    assert 0.0 < gap <= 1e-12
    # eta_ref lowers the reference digit, as B does
    assert eta_ref.shift == sol.mono.B.shift


def _n4p3_params():
    """The chain of ``perfbench/configs/dense_wall_even.json`` at p = 3 (d = 81)."""
    return ModelParams(4, 3, 2, kappa=[1.1j, 1.3j, 0.7j, 0.9j], xi=[1.0, 1.2, 0.9, 1.1])


@pytest.mark.parametrize("make", [cfg_b_params, _n4p3_params])
def test_charge_operators_from_the_end_coefficients_of_B(make):
    sol = prepare(make(), SEED)
    params, grid, mono = sol.params, sol.grid, sol.mono
    eta_ref, eta_ref_inv, eta_a, eta_a_inv = sol.charge_ops
    one = mc.Graded.eye(eta_ref.sectors)
    z_ref = grid.eta0[-1] ** params.p
    assert mc.rel_err(eta_ref ** params.p, z_ref * one) <= 1e-11
    assert mc.rel_err(eta_ref @ eta_ref_inv, one) <= 1e-11
    assert mc.rel_err(eta_a @ eta_a_inv, one) <= 1e-11
    # every one of them is diagonal in the SOV basis, so commutes with B
    for lam in params.spectral_samples(sol.rng(962), 2):
        B = mono.B.at(lam)
        for eta in sol.charge_ops:
            assert mc.frob(eta @ B - B @ eta) <= 1e-11 * mc.frob(eta) * mc.frob(B)
    assert "basis" not in vars(sol)
