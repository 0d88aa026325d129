"""The charge grading of the monodromy: every entry moves the alternating
digit charge by one fixed step and is stored only as its charge blocks,
which scatter back to the dense coefficients of the Kronecker recursion bit
for bit and evaluate to their degree-ordered dense sum bit for bit; an
entry off its shift is refused, and the blockwise solves of the local
reconstructions agree with dense linear algebra, condition number
included."""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from sgsov import model_core as mc
from sgsov import local_ops as lo
from sgsov.cli import load_config
from sgsov.params import ModelParams

from conftest import cfg_a_params, cfg_b_params, hom3_params, n1_params, stretch_params

DENSE_WALL_EVEN = Path(__file__).resolve().parents[1] / "perfbench" / "configs" \
    / "dense_wall_even.json"
CHAINS = {"n1": n1_params, "cfg_b": cfg_b_params, "cfg_a": cfg_a_params,
          "hom3": hom3_params, "stretch": stretch_params,
          "dense_wall_even": lambda: load_config(str(DENSE_WALL_EVEN))[0]}


def _frames(params):
    return [lo.shifted_monodromy(params, n) for n in range(1, params.n_sites + 1)]


def _order(sh):
    N = sh.params.n_sites
    return list(range(sh.n - 1, 0, -1)) + list(range(N, sh.n - 1, -1))


def _telescoped_shift(N, i, j):
    """Charge step of entry (i, j): the alternating sum of the digit steps
    i_pos + i_pos+1 - 1 of the Lax factors telescopes to this."""
    return i - (-1) ** N * j - N % 2


@pytest.mark.parametrize("chain", CHAINS)
def test_block_view_scatters_back_to_every_dense_coefficient(chain):
    params = CHAINS[chain]()
    p, N = params.p, params.n_sites
    for sh in _frames(params):
        mono = sh.mono
        assert np.array_equal(mono.charge, mc.digit_charge(params, _order(sh)))
        kron = mc._kron_coeffs(params, _order(sh))
        for name, (i, j) in zip("ABCD", np.ndindex(2, 2)):
            op, ref = mono.entry(name), kron[i][j]
            assert op.shift == _telescoped_shift(N, i, j) % p
            assert op.blocks.shape == (len(op.degrees), p, params.dim // p, params.dim // p)
            assert op.degrees == sorted(ref)
            assert not op.blocks.flags.writeable and not op.sectors.flags.writeable
            coeffs = op.coeffs
            for g, deg in enumerate(op.degrees):
                dense = mc.scatter_blocks(op.sectors, op.shift, op.blocks[g])
                assert np.array_equal(dense, ref[deg]), (name, deg)
                assert np.array_equal(op.coeff(deg), ref[deg]), (name, deg)
                assert np.array_equal(coeffs[deg], ref[deg]), (name, deg)


@pytest.mark.parametrize("chain", CHAINS)
def test_entries_store_only_their_blocks(chain):
    params = CHAINS[chain]()
    d, p = params.dim, params.p
    for sh in _frames(params):
        mono = sh.mono
        for name in "ABCD":
            op = mono.entry(name)
            dense_bytes = sum(c.nbytes for c in op.coeffs.values())
            assert op.blocks.nbytes * p == dense_bytes
        stored = [getattr(mono, f.name) for f in dataclasses.fields(mono)]
        stored += [getattr(op, f.name) for op in stored if isinstance(op, mc.OperatorLaurent)
                   for f in dataclasses.fields(op)]
        assert not any(np.shape(x)[-2:] == (d, d) for x in stored if isinstance(x, np.ndarray))


@pytest.mark.parametrize("chain", CHAINS)
def test_evaluate_is_the_degree_ordered_dense_sum(chain):
    params = CHAINS[chain]()
    lam = params.spectral_samples(np.random.default_rng(5), 1)[0]
    for sh in _frames(params):
        kron = mc._kron_coeffs(params, _order(sh))
        for name, (i, j) in zip("ABCD", np.ndindex(2, 2)):
            want = np.zeros((params.dim, params.dim), dtype=complex)
            for deg in sorted(kron[i][j]):
                want += (complex(lam) ** deg) * kron[i][j][deg]
            assert np.array_equal(sh.mono.entry(name).evaluate(lam), want), name


def test_entry_off_its_shift_is_refused(cfg_b, monkeypatch):
    params, mono, p = cfg_b.params, cfg_b.mono, cfg_b.params.p
    chi = mono.charge
    kron = mc._kron_coeffs(params, list(range(params.n_sites, 0, -1)))
    coeffs = kron[0][1]
    deg = mono.B.degrees[0]
    row, col = np.argwhere((chi[:, None] - chi[None, :] - mono.B.shift) % p != 0)[0]
    coeffs[deg][row, col] = 1e-30
    with pytest.raises(mc.NotGraded, match="1 nonzero entries lie off"):
        mc.OperatorLaurent.gather(coeffs, chi, p)
    monkeypatch.setattr(mc, "_kron_coeffs", lambda *args: kron)
    with pytest.raises(mc.NotGraded):
        mc.monodromy(params)


def test_exchange_relation_refuses_shifts_that_mix_sectors(cfg_b):
    # each entry is graded, but with C in B's place s_A + s_D != s_B + s_C,
    # so the terms of one block of the relation land in different sectors
    params, mono = cfg_b.params, cfg_b.mono
    with pytest.raises(mc.NotGraded, match="mix charge sectors"):
        mc.yang_baxter_residual(params, 0.7 + 0.2j, 1.1 - 0.4j,
                                dataclasses.replace(mono, B=mono.C))


def test_theta_is_the_charge_phase_times_the_clock_scalars():
    # non-unit central clock parameters, against the product of the
    # embedded clocks V_n^{(-1)^n}
    params = ModelParams(4, 3, 2, kappa=[1.1j, 0.8j, 1.3j, 0.9j], xi=[1.0, 1.3, 0.9, 1.2],
                         v=np.exp(1j * np.array([0.3, -1.1, 2.0, 0.7])))
    ref = np.eye(params.dim, dtype=complex)
    for n in range(1, params.n_sites + 1):
        _, V = mc.weyl_generators(params.p, params.u[n - 1], params.v[n - 1], params.p_prime)
        ref = ref @ mc.site_embed(params, n, np.linalg.matrix_power(V, (-1) ** n))
    assert np.max(np.abs(mc.theta_charge(params) - ref)) <= 1e-14


def _solve_cases(sh):
    params, n, mono = sh.params, sh.n, sh.mono
    lam = params.spectral_samples(np.random.default_rng(n), 1)[0]
    mp, mm = params.mu_plus[n - 1], params.mu_minus[n - 1]
    return [("B", "A", mp), ("A", "B", mm), ("D", "C", mp), ("B", "A", mm), ("B", "A", lam)]


@pytest.mark.parametrize("chain", ["cfg_a", "cfg_b", "stretch"])
def test_blockwise_solve_matches_dense_solve_and_condition(chain):
    params = CHAINS[chain]()
    for sh in _frames(params):
        mono = sh.mono
        for x, y, lam in _solve_cases(sh):
            X, Y = mono.entry(x).evaluate(lam), mono.entry(y).evaluate(lam)
            got, cond = lo._solve(mono.entry(x), mono.entry(y), lam, what=x)
            ref = np.linalg.solve(X, Y)
            assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)
            assert abs(cond - np.linalg.cond(X)) <= 1e-10 * np.linalg.cond(X)
            assert not got.flags.writeable


def test_condition_limit_is_the_dense_condition_number(cfg_a, monkeypatch):
    sh = lo.shifted_monodromy(cfg_a.params, 2)
    mono, lam = sh.mono, cfg_a.params.mu_plus[1]
    dense = np.linalg.cond(mono.B.evaluate(lam))
    monkeypatch.setattr(lo, "COND_LIMIT", dense * (1 - 1e-8))
    with pytest.raises(lo.SingularMatrix, match=r"condition number .* while inverting B\(mu_\+\)"):
        lo._solve(mono.B, mono.A, lam, what="B(mu_+)")
    monkeypatch.setattr(lo, "COND_LIMIT", dense * (1 + 1e-8))
    lo._solve(mono.B, mono.A, lam, what="B(mu_+)")
