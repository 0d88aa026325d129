"""Local-operator reconstructions, q-combinatorics, separated monomial
representations and the elementary shift algebra."""

import itertools
from functools import reduce
from operator import matmul

import numpy as np
import pytest

from sgsov.params import ModelParams, DegenerateKappa, SgSovError
from sgsov import model_core as mc
from sgsov import local_ops as lo

from conftest import embedded_u


def test_shifted_monodromy_trivial_rotation(cfg_a):
    sh = lo.shifted_monodromy(cfg_a.params, 1)
    lam = 0.9 + 0.3j
    for name in "ABCD":
        assert mc.rel_err(sh.mono.entry(name).evaluate(lam),
                          cfg_a.mono.entry(name).evaluate(lam)) <= 1e-13


def test_shifted_monodromy_trace_equality(cfg_a):
    rng = cfg_a.rng(501)
    for n in (2, 3):
        sh = lo.shifted_monodromy(cfg_a.params, n)
        for lam in cfg_a.params.spectral_samples(rng, 5):
            t1 = mc.transfer(cfg_a.mono, lam)
            t2 = sh.mono.A.evaluate(lam) + sh.mono.D.evaluate(lam)
            assert mc.rel_err(t1, t2) <= 1e-10


def test_shifted_monodromy_is_permutation_conjugate(hom3):
    params = hom3.params
    lam = 1.2 - 0.4j
    for n in (2, 3):
        W = lo.cyclic_shift_permutation(params, n)
        sh = lo.shifted_monodromy(params, n)
        for name in "ABCD":
            got = W @ hom3.mono.entry(name).evaluate(lam) @ W.conj().T
            assert mc.rel_err(got, sh.mono.entry(name).evaluate(lam)) <= 1e-10


def test_reconstruct_u_every_site(desk_bundles):
    for bundle in desk_bundles.values():
        params = bundle.params
        for n in range(1, params.n_sites + 1):
            sh = lo.shifted_monodromy(params, n)
            for k in (1, params.p - 1):
                got = lo.reconstruct_u(sh, k)
                assert mc.rel_err(got, embedded_u(bundle.params, n, k)) <= 1e-9


def test_reconstruct_u_full_period_is_identity(cfg_a):
    got = lo.reconstruct_u(lo.shifted_monodromy(cfg_a.params, 1), cfg_a.params.p)
    assert mc.rel_err(got, np.eye(cfg_a.params.dim)) <= 1e-9


def test_reconstruct_u_lower_row_route(desk_bundles):
    for bundle in desk_bundles.values():
        params = bundle.params
        for n in range(1, params.n_sites + 1):
            got = lo.reconstruct_u_via_dc(lo.shifted_monodromy(params, n))
            assert mc.rel_err(got, embedded_u(bundle.params, n)) <= 1e-9


def test_reconstruct_rational_family(desk_bundles):
    for bundle in desk_bundles.values():
        params = bundle.params
        for n in range(1, params.n_sites + 1):
            sh = lo.shifted_monodromy(params, n)
            a0 = lo.reconstruct_alpha0(sh)
            tgt = lo.beta_target(params, n, 0) \
                @ np.linalg.inv(embedded_u(bundle.params, n))
            assert mc.rel_err(a0, tgt) <= 1e-9
            for k in range(params.p):
                got = lo.reconstruct_beta(sh, k)
                assert mc.rel_err(got, lo.beta_target(params, n, k)) <= 1e-9


def test_beta_sum_rule(desk_bundles):
    for bundle in desk_bundles.values():
        params = bundle.params
        for n in range(1, params.n_sites + 1):
            sh = lo.shifted_monodromy(params, n)
            total = sum(lo.reconstruct_beta(sh, k)
                        for k in range(params.p))
            tgt = lo.beta_sum_target(params, n) * np.eye(params.dim)
            assert mc.rel_err(total, tgt) <= 1e-9


def test_reconstruct_clock_powers(desk_bundles):
    for bundle in desk_bundles.values():
        params = bundle.params
        for n in range(1, params.n_sites + 1):
            sh = lo.shifted_monodromy(params, n)
            for k in range(1, params.p):
                got = lo.reconstruct_v2k(sh, k)
                assert mc.rel_err(got, lo.v_power_target(params, n, k)) <= 1e-8


def test_odd_clock_powers_from_even_ones(cfg_a):
    # v^1 = v^{2h} with 2h = 1 + p since the p-th power is central and one
    params = cfg_a.params
    h = (1 + params.p) // 2
    got = lo.reconstruct_v2k(lo.shifted_monodromy(params, 1), h)
    _, V = mc.weyl_generators(params.p, params.u[0], params.v[0], params.p_prime)
    assert mc.rel_err(got, mc.site_embed(params, 1, V)) <= 1e-8


def test_degenerate_coupling_guard():
    params = ModelParams(1, 3, 2, kappa=[1j], xi=[1.1])
    with pytest.raises(DegenerateKappa):
        lo.reconstruct_v2k(lo.shifted_monodromy(params, 1), 1)


def test_q_numbers_at_third_root():
    q = np.exp(-2j * np.pi / 3)
    assert abs(lo.q_number(q, 1) - 1.0) <= 1e-14
    assert abs(lo.q_number(q, 2) + 1.0) <= 1e-14
    assert abs(lo.q_number(q, 3)) <= 1e-14
    assert abs(lo.q_factorial(q, 3)) <= 1e-14


def test_gauss_binomial_counts_subsets_by_sum():
    # the coefficient of z^j in [n, m] counts the m-subsets S of {0..n-1}
    # with sum(S) - m(m-1)/2 = j
    for n in range(10):
        for m in range(n + 1):
            counts = [0] * (m * (n - m) + 1)
            for subset in itertools.combinations(range(n), m):
                counts[sum(subset) - m * (m - 1) // 2] += 1
            poly = lo._gauss_binom_poly(n, m)
            assert poly == tuple(counts) and all(type(c) is int for c in poly)
        assert lo._gauss_binom_poly(n, -1) == lo._gauss_binom_poly(n, n + 1) == (0,)


@pytest.mark.parametrize("p", [3, 5])
def test_q_multinomial_routes_agree_below_period(p):
    q = np.exp(-2j * np.pi / p)
    for k in range(1, p):
        for alphas in itertools.product(range(k + 1), repeat=3):
            if sum(alphas) != k:
                continue
            poly = lo.q_multinomial(q, k, alphas)
            direct = lo.q_multinomial_direct(q, k, alphas)
            assert abs(poly - direct) <= 1e-10


@pytest.mark.parametrize("p", [3, 5])
def test_q_multinomial_period_collapse(p):
    # at the full period the multinomial is one for a single saturated index
    # and zero otherwise
    q = np.exp(-2j * np.pi / p)
    for reps in (2, 3):
        for alphas in itertools.product(range(p + 1), repeat=reps):
            if sum(alphas) != p:
                continue
            val = lo.q_multinomial(q, p, alphas)
            expect = 1.0 if any(a == p for a in alphas) else 0.0
            assert abs(val - expect) <= 1e-10


@pytest.mark.parametrize("p", [3, 5])
def test_q_weighted_sum_identity(p):
    q = np.exp(-2j * np.pi / p)
    rng = np.random.default_rng(502)
    for alphas in [(1, 2, 0), (1, 1, 1), (2, 1, 0), (0, 1, 2)]:
        etas = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        total = 0.0
        for a in range(3):
            if alphas[a] == 0:
                continue
            term = lo.q_number(q, alphas[a])
            for i in range(3):
                if i == a:
                    continue
                qa = q ** alphas[a]
                qd = q ** (alphas[a] - alphas[i])
                term *= (qa * etas[i] / etas[a] - etas[a] / (qa * etas[i])) \
                    / (qd * etas[i] / etas[a] - etas[a] / (qd * etas[i]))
            total += term
        assert abs(total - lo.q_number(q, sum(alphas))) <= 1e-10


def test_shift_power_separated_representation(n1, cfg_a):
    for bundle in (n1, cfg_a):
        params, basis, mono = bundle.params, bundle.basis, bundle.mono
        rng = bundle.rng(503)
        excl = basis.grid.grid.reshape(-1)
        for k in range(1, params.p + 1):
            lam = params.spectral_samples(rng, 1, exclude=excl)[0]
            got = lo.binvA_power_sov(params, basis, k, lam)
            tgt = lo.binvA_dense(mono, lam, k)
            assert mc.rel_err(got, tgt) <= 1e-8


def test_shift_power_single_term_collapse(cfg_a):
    # the unit power keeps only single-variable lowering terms; compare the
    # assembled operator against its own direct one-shift assembly
    params, basis, mono = cfg_a.params, cfg_a.basis, cfg_a.mono
    lam = params.spectral_samples(cfg_a.rng(504), 1,
                                  exclude=basis.grid.grid.reshape(-1))[0]
    got = lo.binvA_power_sov(params, basis, 1, lam)
    d = params.dim
    direct = np.zeros((d, d), dtype=complex)
    for j in range(d):
        tup = basis.params.tuples[j]
        for a in range(params.n_separate):
            eta = basis.grid.grid[a, tup[a]]
            coeff = mc.a_coeff(params, eta) / (lam / eta - eta / lam)
            for b in range(params.n_separate):
                if b == a:
                    continue
                etb = basis.grid.grid[b, tup[b]]
                coeff /= eta / etb - etb / eta
            direct += coeff / params.kprod * basis.measure[j] \
                * np.outer(basis.right[:, j], basis.left[basis.shifted_index(j, a, -1)])
    assert mc.rel_err(got, direct) <= 1e-12


def test_shift_power_full_period_is_central(n1, cfg_a):
    for bundle in (n1, cfg_a):
        params, mono = bundle.params, bundle.mono
        lam = params.spectral_samples(bundle.rng(505), 1,
                                      exclude=bundle.basis.grid.grid.reshape(-1))[0]
        big = lam ** params.p
        scal = mc.average_value(params, "A", big) / mc.average_value(params, "B", big)
        got = lo.binvA_dense(mono, lam, params.p)
        assert mc.rel_err(got, scal * np.eye(params.dim)) <= 1e-8


def test_shift_power_even_chain_rejected(cfg_b):
    with pytest.raises(SgSovError, match="odd chains"):
        lo.binvA_power_sov(cfg_b.params, cfg_b.basis, 1, 1.7 + 0.1j)


def test_clock_powers_from_shift_sums(n1, cfg_a):
    for bundle in (n1, cfg_a):
        params = bundle.params
        ks = range(1, params.p)
        for k, got in zip(ks, lo.v2k_shift_sums(params, bundle.basis, ks)):
            assert mc.rel_err(got, lo.v_power_target(params, 1, k)) <= 1e-8


def _v2k_shift_sum_ref(params, basis, k):
    """The clock power V^{2k} from separated shift sums, one k at a time, with
    every shift power built for that k."""
    p, d = params.p, params.dim
    kap = params.kappa[0]
    mu_p, mu_m = complex(params.mu_plus[0]), complex(params.mu_minus[0])
    central_p = mc.average_value(params, "A", mu_p ** p) / mc.average_value(params, "B", mu_p ** p)
    central_m = mc.average_value(params, "B", mu_m ** p) / mc.average_value(params, "A", mu_m ** p)
    mid = lo.binvA_power_sov(params, basis, p - 1, mu_m) * central_m
    powers = {m: lo.binvA_power_sov(params, basis, m, mu_p) for m in range(1, p + 1)}
    acc = np.zeros((d, d), dtype=complex)
    for m in range(p):
        left = powers[m] if m >= 1 else np.eye(d, dtype=complex)
        right = powers[1] if m == 0 else powers[p + 1 - m] / central_p
        acc += params.q ** (-k * (2 * m - 1)) * (left @ mid @ right)
    pref = (-1.0) ** k * (params.v[0] ** (2 * p) * kap ** (2 * p) + 1) \
        / (p * kap ** (2 * k) * (kap ** 2 - kap ** (-2)))
    return pref * acc


def test_shift_sums_build_each_power_once(n1, cfg_a, stretch, monkeypatch):
    for bundle in (n1, cfg_a, stretch):
        params, basis = bundle.params, bundle.basis
        ks = range(1, params.p)
        refs = [_v2k_shift_sum_ref(params, basis, k) for k in ks]
        calls = []
        power = lo.binvA_power_sov

        def counting(*args, **kwargs):
            calls.append(args[2])
            return power(*args, **kwargs)

        monkeypatch.setattr(lo, "binvA_power_sov", counting)
        got = lo.v2k_shift_sums(params, basis, ks)
        monkeypatch.undo()
        assert len(calls) == params.p + 1
        assert got.shape == (len(ks), params.dim, params.dim)
        for g, ref in zip(got, refs):
            assert mc.rel_err(g, ref) <= 1e-12


def test_elementary_action_weights(desk_bundles):
    for bundle in desk_bundles.values():
        params, basis, mono = bundle.params, bundle.basis, bundle.mono
        for a in range(params.n_separate):
            for k in range(params.p):
                O = lo.elementary_O(params, bundle.grid, bundle.charge_ops, a, k, mono).dense()
                sc = np.linalg.norm(O)
                weights = lo.o_action_weights(basis, a, k)
                for j in range(params.dim):
                    got = basis.left[j] @ O
                    w = weights[j]
                    tgt = w * basis.left[basis.shifted_index(j, a, -1)] \
                        if w else np.zeros_like(got)
                    assert np.linalg.norm(got - tgt) <= \
                        1e-8 * np.linalg.norm(basis.left[j]) * sc


def test_elementary_adjacency_rule(desk_bundles):
    for bundle in desk_bundles.values():
        params, grid, mono = bundle.params, bundle.grid, bundle.mono
        p = params.p
        ops = [lo.elementary_O(params, grid, bundle.charge_ops, 0, k, mono).dense()
               for k in range(p)]
        for k in range(p):
            for h in range(p):
                prod = ops[k] @ ops[h]
                sc = np.linalg.norm(ops[k]) * np.linalg.norm(ops[h])
                if (h - k) % p == p - 1:
                    assert np.linalg.norm(prod) > 1e-6 * sc
                else:
                    assert np.linalg.norm(prod) <= 1e-8 * sc


def test_elementary_full_cycle_scalar(desk_bundles):
    for bundle in desk_bundles.values():
        params, grid, mono = bundle.params, bundle.grid, bundle.mono
        for a in range(params.n_separate):
            lhs = lo.elementary_O_power(bundle.elementary_ops, a, 1, params.p + 1)
            denom = 1.0 + 0.0j
            for b in range(params.n_separate):
                if b != a:
                    denom *= grid.z[a] / grid.z[b] - grid.z[b] / grid.z[a]
            scal = mc.average_value(params, "A", grid.z[a]) / denom
            rhs = scal * lo.elementary_O(params, grid, bundle.charge_ops, a, 1, mono)
            assert mc.rel_err(lhs, rhs) <= 1e-8


def test_elementary_exchange_ratio(cfg_a):
    params, grid, mono = cfg_a.params, cfg_a.grid, cfg_a.mono
    for (a, b) in ((0, 1), (0, 2), (1, 2)):
        for k in range(params.p):
            for h in range(params.p):
                Oa = lo.elementary_O(params, grid, None, a, k, mono)
                Ob = lo.elementary_O(params, grid, None, b, h, mono)
                ratio = lo._exchange_ratio(grid, a, k, b, h)
                lhs = Oa @ Ob
                rhs = ratio * (Ob @ Oa)
                sc = max(mc.frob(lhs), mc.frob(rhs), 1e-300)
                assert mc.frob(lhs - rhs) <= 1e-8 * sc


def test_elementary_charge_commutations(cfg_b):
    params, mono = cfg_b.params, cfg_b.mono
    O = lo.elementary_O(params, cfg_b.grid, cfg_b.charge_ops, 0, 1, mono)
    etaN, _, etaA, _ = cfg_b.charge_ops
    theta = mc.theta_charge(params)
    # the interpolation variable sits in the denominator, so lowering a
    # separate label multiplies it by q: eta_A O = q^{-1} O eta_A
    assert mc.rel_err(etaA @ O, O @ etaA / params.q) <= 1e-8
    assert mc.frob(etaN @ O - O @ etaN) <= 1e-8 * mc.frob(etaN) * mc.frob(O)
    assert mc.frob(theta @ O - O @ theta) <= 1e-8 * mc.frob(theta) * mc.frob(O)


def test_pole_expansion_reassembles_shift_combination(desk_bundles):
    for bundle in desk_bundles.values():
        params, grid, mono = bundle.params, bundle.grid, bundle.mono
        rng = bundle.rng(506)
        excl = grid.grid.reshape(-1)
        for lam in params.spectral_samples(rng, 3, exclude=excl):
            got = lo.binvA_interpolation(params, grid, bundle.charge_ops, lam,
                                         bundle.elementary_ops)
            tgt = lo.binvA_dense(mono, lam, 1)
            assert mc.rel_err(got, tgt) <= 1e-8


def test_pole_expansion_single_site_has_three_terms(n1):
    params, grid, mono = n1.params, n1.grid, n1.mono
    lam = params.spectral_samples(n1.rng(507), 1, exclude=grid.grid.reshape(-1))[0]
    total = np.zeros((3, 3), dtype=complex)
    for k in range(3):
        eta = grid.grid[0, k]
        total += lo.elementary_O(params, grid, None, 0, k, mono).dense() \
            / (lam / eta - eta / lam)
    total = total / params.kprod
    assert mc.rel_err(total, lo.binvA_dense(mono, lam, 1)) <= 1e-10


def test_monomial_reduction_swap(cfg_a):
    params, grid, mono = cfg_a.params, cfg_a.grid, cfg_a.mono
    seq = [(1, 2), (0, 1)]
    scal, ordered = lo.reduce_O_monomial(params, grid, seq)
    assert [a for a, _ in ordered] == [0, 1]
    dense_in = np.eye(params.dim, dtype=complex)
    for a, k in seq:
        dense_in = dense_in @ lo.elementary_O(params, grid, None, a, k, mono)
    dense_out = np.eye(params.dim, dtype=complex)
    for a, k in ordered:
        dense_out = dense_out @ lo.elementary_O(params, grid, None, a, k, mono)
    assert mc.rel_err(dense_in, scal * dense_out) <= 1e-9


def test_monomial_reduction_zero(cfg_a):
    assert lo.reduce_O_monomial(cfg_a.params, cfg_a.grid,
                                [(0, 1), (0, 1)]) is lo.ZERO_MONOMIAL
    assert lo.reduce_O_monomial(cfg_a.params, cfg_a.grid,
                                [(0, 1), (0, 2)]) is lo.ZERO_MONOMIAL


def test_monomial_reduction_folds_full_cycle(cfg_a):
    params, grid, mono = cfg_a.params, cfg_a.grid, cfg_a.mono
    p = params.p
    seq = [(0, (1 - j) % p) for j in range(p + 1)]
    scal, ordered = lo.reduce_O_monomial(params, grid, seq)
    assert ordered == [(0, 1)]
    dense_in = np.eye(params.dim, dtype=complex)
    for a, k in seq:
        dense_in = dense_in @ lo.elementary_O(params, grid, None, a, k, mono)
    dense_out = lo.elementary_O(params, grid, None, 0, 1, mono).dense()
    assert mc.rel_err(dense_in, scal * dense_out) <= 1e-8


@pytest.mark.parametrize("seq", [
    [(2, 1), (1, 2), (2, 0), (0, 1), (2, 2), (2, 1)],
    [(1, 0), (2, 2), (1, 2), (0, 0), (1, 1), (2, 1), (1, 0), (0, 2)],
    [(2, 0), (2, 2), (1, 1), (2, 1), (0, 2), (2, 0), (2, 2), (1, 0)],
])
def test_monomial_reduction_sorts_and_folds_three_variables(cfg_a, seq):
    # two or more inversions over three variables and a run longer than p
    params, ops = cfg_a.params, cfg_a.elementary_ops
    p = params.p
    scal, ordered = lo.reduce_O_monomial(params, cfg_a.grid, seq)
    assert len(ordered) < len(seq)
    avars = [a for a, _ in ordered]
    assert avars == sorted(avars) and set(avars) == {0, 1, 2}
    for (a1, k1), (a2, k2) in zip(ordered, ordered[1:]):
        assert a1 != a2 or (k2 - k1) % p == p - 1
    dense_in, dense_out = (reduce(matmul, [ops[f] for f in fs]).dense() for fs in (seq, ordered))
    assert mc.rel_err(dense_in, scal * dense_out) <= 1e-9


def test_local_operator_space_spanned(desk_bundles):
    for bundle in desk_bundles.values():
        params = bundle.params
        for n in range(1, params.n_sites + 1):
            assert lo.spanning_rank(lo.shifted_monodromy(params, n)) == params.p ** 2
