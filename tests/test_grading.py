"""The charge grading of the monodromy: every entry moves the alternating
digit charge by one fixed step and is stored only as its charge blocks,
which scatter back to the dense coefficients of the Kronecker recursion bit
for bit and evaluate to their degree-ordered dense sum bit for bit, and
which are built without a dense coefficient of the last Kronecker step; an
entry off its shift is refused, and the blockwise solves of the local
reconstructions agree with dense linear algebra, condition number
included.  The site embedding is the Kronecker embedding, entry for entry."""

import dataclasses
import tracemalloc
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


def _dense_kron(params, order):
    """Dense coefficients (2x2 list of degree -> d x d dicts, all-zero ones
    dropped) of the product of the Lax matrices in the factor order
    ``order``, built here: M_ij = sum_c L[i][c] (x) M'_cj over the local
    coefficients, the leftmost factor on the slowest tensor slot, then one
    permutation of the slots into the basis order (site 1 fastest)."""
    p, N = params.p, params.n_sites
    M = [[{0: np.ones((1, 1))}, {}], [{}, {0: np.ones((1, 1))}]]
    for n in reversed(order):
        L = mc.local_lax(params, n)
        prod = [[{}, {}], [{}, {}]]
        for i, j, c in np.ndindex(2, 2, 2):
            for d1, a in L[i][c].items():
                for d2, b in M[c][j].items():
                    prod[i][j][d1 + d2] = prod[i][j].get(d1 + d2, 0) + np.kron(a, b)
        M = prod
    perm = params.tuples[:, np.asarray(order) - 1] @ p ** np.arange(N - 1, -1, -1)
    return [[{g: c[np.ix_(perm, perm)] for g, c in entry.items() if np.any(c)}
             for entry in row] for row in M]


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
        kron = _dense_kron(params, _order(sh))
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
        kron = _dense_kron(params, _order(sh))
        for name, (i, j) in zip("ABCD", np.ndindex(2, 2)):
            want = np.zeros((params.dim, params.dim), dtype=complex)
            for deg in sorted(kron[i][j]):
                want += (complex(lam) ** deg) * kron[i][j][deg]
            assert np.array_equal(sh.mono.entry(name).evaluate(lam), want), name


def test_entry_off_its_shift_is_refused(cfg_b, monkeypatch):
    params, mono, p = cfg_b.params, cfg_b.mono, cfg_b.params.p
    chi = mono.charge
    coeffs = _dense_kron(params, list(range(params.n_sites, 0, -1)))[0][1]
    deg = mono.B.degrees[0]
    row, col = np.argwhere((chi[:, None] - chi[None, :] - mono.B.shift) % p != 0)[0]
    coeffs[deg][row, col] = 1e-30
    with pytest.raises(mc.NotGraded, match="1 nonzero entries lie off"):
        mc.OperatorLaurent.gather(sorted(coeffs.items()), chi, p)
    # the clock coefficient of a local B entry keeps the digit; an entry that
    # moves it reaches the product off its shift
    local_lax = mc.local_lax

    def tilted(params, n):
        L = local_lax(params, n)
        c = L[0][1][1].copy()
        c[1, 0] = 1e-30
        L[0][1] = {**L[0][1], 1: c}
        return L

    monkeypatch.setattr(mc, "local_lax", tilted)
    with pytest.raises(mc.NotGraded):
        mc.monodromy(params)


def test_local_factor_off_its_digit_step_is_counted(monkeypatch):
    # one nonzero entry off the step of a local clock coefficient, at the
    # rightmost factor, which the recursion takes first
    params = cfg_b_params()
    local_lax = mc.local_lax

    def tilted(params, n):
        L = local_lax(params, n)
        if n == 1:
            c = L[1][0][-1].copy()
            c[2, 0] = 1e-300
            L[1][0] = {**L[1][0], -1: c}
        return L

    monkeypatch.setattr(mc, "local_lax", tilted)
    with pytest.raises(mc.NotGraded, match="1 nonzero entries of the site-1 Lax coefficients"):
        mc.monodromy(params)


def test_monodromy_build_peaks_below_its_blocks_and_two_dense_coefficients():
    # the last Kronecker step is gathered block by block; forming each of
    # its degrees as a dense d x d matrix first peaks at 46.5 MB here
    params = CHAINS["dense_wall_even"]()
    tracemalloc.start()
    try:
        mono = mc.monodromy(params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    stored = sum(mono.entry(name).blocks.nbytes for name in "ABCD")
    dense = params.dim ** 2 * np.dtype(complex).itemsize
    assert peak <= stored + 2 * dense, (peak, stored, dense)


@pytest.mark.parametrize("chain", CHAINS)
def test_site_embed_is_the_kronecker_embedding(chain):
    params = CHAINS[chain]()
    p, N = params.p, params.n_sites
    rng = np.random.default_rng(11)
    X = rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p))
    for n in range(1, N + 1):
        U, V = mc.weyl_generators(p, params.u[n - 1], params.v[n - 1], params.p_prime)
        for op in (X, U, V):
            want = np.kron(np.eye(p ** (N - n)), np.kron(op, np.eye(p ** (n - 1))))
            assert np.array_equal(mc.site_embed(params, n, op), want), n


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
            assert not got.blocks.flags.writeable
            ref = np.linalg.solve(X, Y)
            assert np.linalg.norm(got.dense() - ref) <= 1e-12 * np.linalg.norm(ref)
            assert abs(cond - np.linalg.cond(X)) <= 1e-10 * np.linalg.cond(X)


def test_condition_limit_is_the_dense_condition_number(cfg_a, monkeypatch):
    sh = lo.shifted_monodromy(cfg_a.params, 2)
    mono, lam = sh.mono, cfg_a.params.mu_plus[1]
    dense = np.linalg.cond(mono.B.evaluate(lam))
    monkeypatch.setattr(lo, "COND_LIMIT", dense * (1 - 1e-8))
    with pytest.raises(lo.SingularMatrix, match=r"condition number .* while inverting B\(mu_\+\)"):
        lo._solve(mono.B, mono.A, lam, what="B(mu_+)")
    monkeypatch.setattr(lo, "COND_LIMIT", dense * (1 + 1e-8))
    lo._solve(mono.B, mono.A, lam, what="B(mu_+)")


@pytest.mark.parametrize("chain", CHAINS)
def test_graded_algebra_matches_the_dense_route(chain):
    # products (the shifts add), inverse, power, sums at equal shift and the
    # products with dense vectors on either side, against dense linear algebra
    params = CHAINS[chain]()
    mono, d = mc.monodromy(params), params.dim
    rng = np.random.default_rng(7)
    lam, mu = params.spectral_samples(rng, 2)
    A, A2, B = mono.A.at(lam), mono.A.at(mu), mono.B.at(mu)
    dA, dA2, dB = A.dense(), A2.dense(), B.dense()
    assert np.array_equal(dA, mono.A.evaluate(lam)) and np.array_equal(dB, mono.B.evaluate(mu))
    cases = [(A @ B, dA @ dB), (B @ A @ B, dB @ dA @ dB), (A ** 3, dA @ dA @ dA),
             (B.inv() @ A, np.linalg.solve(dB, dA)), (A + A2, dA + dA2),
             (A - 0.5 * A2 / 3.0, dA - 0.5 * dA2 / 3.0)]
    for got, want in cases:
        assert not got.blocks.flags.writeable
        assert mc.rel_err(got.dense(), want) <= 1e-13
    assert (A @ B).shift == (A.shift + B.shift) % params.p
    assert (B.inv() @ A).shift == (A.shift - B.shift) % params.p
    assert np.array_equal((A ** 0).dense(), np.eye(d))
    covs = rng.standard_normal((3, d)) + 1j * rng.standard_normal((3, d))
    assert mc.rel_err(covs @ B, covs @ dB) <= 1e-13
    assert mc.rel_err(covs[0] @ B, covs[0] @ dB) <= 1e-13
    assert mc.rel_err(B @ covs.T, dB @ covs.T) <= 1e-13
    assert mc.rel_err(B @ covs[1], dB @ covs[1]) <= 1e-13
    assert abs(mc.frob(B) - np.linalg.norm(dB)) <= 1e-13 * np.linalg.norm(dB)
    table = mc.Graded.stack([A, A2])
    assert table.blocks.shape == (2, params.p, d // params.p, d // params.p)
    assert np.array_equal(table[1].dense(), dA2)
    with pytest.raises(mc.NotGraded, match="do not add"):
        A + B


def test_projection_keeps_one_shift_and_measures_the_rest(cfg_b):
    mono = cfg_b.mono
    B = mono.B.evaluate(0.7 + 0.3j)
    got, rest = mc.Graded.project(B, mono.B.sectors, mono.B.shift)
    assert np.array_equal(got.dense(), B) and rest == 0.0
    D = mono.D.evaluate(0.7 + 0.3j)
    got, rest = mc.Graded.project(B + 1e-3 * D, mono.B.sectors, mono.B.shift)
    assert np.array_equal(got.dense(), B)
    assert abs(rest - 1e-3 * np.linalg.norm(D) / np.linalg.norm(B)) <= 1e-12 * rest
