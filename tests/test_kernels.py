"""The array determinant kernels against their per-entry scalar formulas,
the read-only grid tables they are built from, and the pair tables against
the per-pair calls.

The references evaluate one moment, one grid point and one scalar
``a_coeff`` at a time, as the formulas are written; the kernels sum the same
terms in another order, so results agree to rounding: 1e-12 relative to the
sum of the moduli of the terms of each entry, and to the Hadamard bound of
each determinant."""

import numpy as np
import pytest

from sgsov import model_core as mc
from sgsov import separate_states as ss
from sgsov import form_factors as ff
from sgsov import local_ops as lo
from sgsov import oracle
from sgsov.sov_basis import cross_product, vandermonde

RTOL = 1e-12
CHAINS = ("n1", "cfg_b", "stretch")     # nsep = 1; even chain; nsep = 3, p = 5


@pytest.fixture(params=CHAINS)
def sol(request):
    return request.getfixturevalue(request.param)


def _pairs(sol, count=12):
    rng = sol.rng(900)
    d = sol.params.dim
    return [(i, i) for i in range(3)] + \
        [tuple(int(x) for x in rng.integers(0, d, 2)) for _ in range(count)]


def _assert_det_close(value, ref, scale, factor=1.0):
    """Within RTOL of the Hadamard bound of the term scales (times the
    determinant's prefactor): the scale its rounding error lives on."""
    bound = abs(factor) * np.prod(np.linalg.norm(scale, axis=1))
    assert abs(value - ref) <= RTOL * max(abs(ref), bound)


def _assert_matrix_close(M, ref, scale):
    assert M.shape == ref.shape
    assert np.all(np.abs(M - ref) <= RTOL * scale)


# -- per-entry references ----------------------------------------------------

def moment_ref(basis, left, right, a, exponent):
    """sum_h left * right * eta^exponent / omega on variable a, point by
    point, and the sum of the moduli of its terms."""
    eta, omega = basis.grid.grid[a], basis.omega[a]
    terms = [left[a, h] * right[a, h] * eta[h] ** exponent / omega[h]
             for h in range(len(eta))]
    return sum(terms), sum(abs(t) for t in terms)


def moment_matrix_ref(basis, left, right, exponents):
    """Moments (rows: variables, columns: exponents) and their term scales."""
    nsep = basis.params.n_separate
    out = np.array([[moment_ref(basis, left, right, a, e) for e in exponents]
                    for a in range(nsep)])
    return out[..., 0], out[..., 1].real


def ff_u_matrix_ref(params, basis, bra, ket, n=1):
    lam = complex(params.mu_plus[n - 1])
    nsep, p = params.n_separate, params.p
    grid, omega = basis.grid.grid, basis.omega
    U, S = moment_matrix_ref(basis, bra.qbar_vals, ket.q_vals, range(1, 2 * nsep, 2))
    for a in range(nsep):
        terms = [ket.q_vals[a, h] * bra.qbar_vals[a, (h + 1) % p]
                 * mc.a_coeff(params, grid[a, (h + 1) % p])
                 * grid[a, h] ** (nsep - 1) / omega[a, h]
                 / (lam / grid[a, (h + 1) % p] - grid[a, (h + 1) % p] / lam)
                 for h in range(p)]
        pref = basis.c_ref / (params.kprod * basis.grid.eta0[-1] ** params.e_n)
        U[a, -1] = pref * sum(terms)
        S[a, -1] = abs(pref) * sum(abs(t) for t in terms)
        if params.even_chain:
            m = ket.theta_m
            (hi, s_hi), (lo_, s_lo) = (
                moment_ref(basis, bra.qbar_vals, ket.q_vals, a, e) for e in (2 * nsep - 1, -1))
            c_hi = np.sqrt(p) * params.q ** m * (lam / params.xi_prod)
            c_lo = np.sqrt(p) * params.q ** (-m) * (params.xi_prod / lam)
            U[a, -1] += c_hi * hi - c_lo * lo_
            S[a, -1] += abs(c_hi) * s_hi + abs(c_lo) * s_lo
    return U, S


def ff_elementary_ref(params, basis, bra, ket, elem):
    """Prefactor, matrix and matrix term scales of the elementary form
    factor, entry by entry."""
    p, nsep = params.p, params.n_separate
    grid, omega = basis.grid.grid, basis.omega
    factors = list(elem.factors)
    r = len(factors)
    g = sum(f[2] for f in factors)
    h0 = elem.theta_a_pow if params.even_chain else 0
    hN = elem.theta_pow if params.even_chain else 0
    excited = [f[0] for f in factors]
    spectators = [b for b in range(nsep) if b not in excited]
    size = nsep + r * p - g
    M = np.zeros((size, size), dtype=complex)
    S = np.zeros((size, size))
    col = 0
    col_roots = []
    for (a, k, alpha) in factors:
        for j in range(p - alpha + 1):
            col_roots.append(grid[a, (k + j) % p])
            M[:, col] = (col_roots[-1] ** 2) ** np.arange(size)
            S[:, col] = np.abs(M[:, col])
            col += 1
    for b in spectators:
        for row in range(size):
            M[row, col], S[row, col] = moment_ref(basis, bra.qbar_vals, ket.q_vals, b,
                                                  2 * row + h0 + g)
        col += 1
    f_num = 1.0 + 0.0j
    for (a, k, alpha) in factors:
        f_num *= (ket.q_vals[a, (k - alpha) % p] * bra.qbar_vals[a, k]
                  * grid[a, k] ** (h0 + alpha * (nsep - r)) / omega[a, k])
        for h in range(alpha):
            f_num *= mc.a_coeff(params, grid[a, (k - h) % p])
    f_den = 1.0 + 0.0j
    for i, (ai, ki, alphai) in enumerate(factors):
        for (aj, kj, alphaj) in factors[i + 1:]:
            for h in range(alphai):
                x, y = grid[ai, (ki - h) % p], grid[aj, kj]
                f_den *= x / y - y / x
            for h in range(alphaj):
                x, y = grid[aj, (kj - h) % p], grid[ai, (ki - alphai) % p]
                f_den *= x / y - y / x
    sign = (-1.0) ** sum(a - i for i, (a, _, _) in enumerate(factors))
    sign *= (-1.0) ** ((r - 1) * (g - r)) if r else 1.0
    qpow = np.prod([params.q ** (-(nsep - r) * alpha * (alpha - 1) / 2)
                    for (_, _, alpha) in factors]) if factors else 1.0
    z = basis.grid.z
    v_small = vandermonde([grid[a, k] for (a, k, _) in factors], squares=True)
    v_big = vandermonde(col_roots, squares=True)
    z_cross = np.prod([cross_product(z[a], z[spectators], squares=True)
                       for a in excited])
    pref = sign * qpow * f_num * v_small / (f_den * z_cross * v_big)
    sector = 1.0 + 0.0j
    if params.even_chain:
        sector = basis.c_ref * params.q ** (h0 * ket.theta_m) \
            / (basis.grid.eta0[-1] ** hN * params.xi_prod ** h0)
    return sector * pref, M, S


def _elements(params):
    elems = [lo.ElementaryBasisElement(((0, 1, 1),))]
    if params.n_separate >= 2:
        elems += [lo.ElementaryBasisElement(((0, 1, 1), (1, 2, 1))),
                  lo.ElementaryBasisElement(((0, 2, 2), (2, 0, 1)))]
    if params.even_chain:
        elems.append(lo.ElementaryBasisElement((), theta_pow=1, theta_a_pow=1))
    return elems


# -- grid tables ---------------------------------------------------------------

def test_grid_tables_match_scalar_coefficients(sol):
    params, grid = sol.params, sol.basis.grid
    nsep, p = params.n_separate, params.p
    assert grid.a_vals.shape == grid.d_vals.shape == (nsep, p)
    for a in range(nsep):
        for h in range(p):
            eta = grid.grid[a, h]
            assert abs(grid.a_vals[a, h] - mc.a_coeff(params, eta)) \
                <= RTOL * abs(mc.a_coeff(params, eta))
            assert abs(grid.d_vals[a, h] - mc.d_coeff(params, eta)) \
                <= RTOL * abs(mc.d_coeff(params, eta))


def test_grid_tables_are_read_only(sol):
    basis = sol.basis
    for table in (basis.grid.a_vals, basis.grid.d_vals, basis.omega):
        with pytest.raises(ValueError):
            table[0, 0] = 1.0


def test_shifted_indices_match_scalar_shifts(sol):
    basis = sol.basis
    for delta in (-1, 1):
        table = basis.shifted_indices(delta)
        for j in range(0, sol.params.dim, 7):
            for a in range(sol.params.n_separate):
                assert table[j, a] == basis.shifted_index(j, a, delta)


# -- determinant kernels ---------------------------------------------------------

def test_phi_matrix_and_eigen_action_match_scalar_sums(sol):
    params, basis, states = sol.params, sol.basis, sol.states
    nsep = params.n_separate
    for i, j in _pairs(sol):
        bra, ket = states[i], states[j]
        ref, scale = moment_matrix_ref(basis, bra.qbar_vals, ket.q_vals, range(0, 2 * nsep, 2))
        _assert_matrix_close(ss.phi_matrix(basis, bra, ket), ref, scale)
        last = nsep - 1
        assert abs(ss.phi_general(basis, bra, ket, last, 2 * last) - ref[last, last]) \
            <= RTOL * scale[last, last]
        if params.even_chain and (bra.theta_m - ket.theta_m) % params.p != 0:
            assert ss.eigen_action(basis, bra, ket) == 0.0
            continue
        _assert_det_close(ss.eigen_action(basis, bra, ket),
                          basis.c_ref * np.linalg.det(ref), scale, basis.c_ref)


def test_scalar_product_det_matches_scalar_sums(sol):
    params, basis = sol.params, sol.basis
    nsep, p = params.n_separate, params.p
    rng = sol.rng(901)
    for _ in range(5):
        left, right = (rng.standard_normal((nsep, p)) + 1j * rng.standard_normal((nsep, p))
                       for _ in range(2))
        m = 0 if params.even_chain else None
        ref, scale = moment_matrix_ref(basis, left, right, range(0, 2 * nsep, 2))
        got = ss.scalar_product_det(ss.SeparateState("left", left, m),
                                    ss.SeparateState("right", right, m), basis)
        _assert_det_close(got, basis.c_ref * np.linalg.det(ref), scale, basis.c_ref)


def test_ff_u_matches_scalar_formula(sol):
    params, basis, states = sol.params, sol.basis, sol.states
    zeros = 0
    for i, j in _pairs(sol):
        res = ff.ff_u(params, basis, states[i], states[j], 1, keep_matrix=True)
        if res.selection_zero:
            zeros += 1
            assert res.value == 0.0
            continue
        ref, scale = ff_u_matrix_ref(params, basis, states[i], states[j])
        _assert_matrix_close(res.matrix, ref, scale)
        _assert_det_close(res.value, np.linalg.det(ref), scale)
    assert zeros > 0 if params.even_chain else zeros == 0


def test_ff_elementary_matches_scalar_formula(sol):
    params, basis, states = sol.params, sol.basis, sol.states
    for elem in _elements(params):
        for i, j in _pairs(sol, count=4):
            res = ff.ff_elementary(params, basis, states[i], states[j], elem,
                                   keep_matrix=True)
            if res.selection_zero:
                continue
            pref, ref, scale = ff_elementary_ref(params, basis, states[i], states[j], elem)
            _assert_matrix_close(res.matrix, ref, scale)
            _assert_det_close(res.value, pref * np.linalg.det(ref), scale, pref)


# -- pair tables -----------------------------------------------------------------

def test_ff_u_table_equals_per_pair_calls(sol):
    params, basis, states = sol.params, sol.basis, sol.states
    values, zeros = ff.ff_u_table(params, basis, states, states, 1)
    per_pair = [[ff.ff_u(params, basis, bra, ket, 1) for ket in states] for bra in states]
    assert values.shape == zeros.shape == (params.dim, params.dim)
    # the same operations in the same order: bit-identical
    assert np.array_equal(values, [[r.value for r in row] for row in per_pair])
    assert np.array_equal(zeros, [[r.selection_zero for r in row] for row in per_pair])
    assert zeros.any() if params.even_chain else not zeros.any()


def test_ff_u_table_at_a_shifted_site(hom3):
    params, basis, states = hom3.params, hom3.basis, hom3.states
    with pytest.raises(ff.ShiftUnavailable):
        ff.ff_u_table(params, basis, states, states, 2)
    shift = np.linspace(0.5, 1.5, params.dim) * np.exp(1j * np.arange(params.dim))
    ratio = shift[:, None] / shift[None, :]
    values, _ = ff.ff_u_table(params, basis, states[:4], states, 2, shift_ratio=ratio[:4])
    for i in range(4):
        for j, ket in enumerate(states):
            ref = ff.ff_u(params, basis, states[i], ket, 2, shift_ratio=ratio[i, j]).value
            assert values[i, j] == ref


def test_eigen_action_table_equals_per_pair_calls(sol):
    params, basis, states = sol.params, sol.basis, sol.states
    values, zeros = ss.eigen_action_table(basis, states, states)
    ref = np.array([[ss.eigen_action(basis, bra, ket) for ket in states] for bra in states])
    theta = np.array([st.theta_m or 0 for st in states])
    assert np.array_equal(zeros, params.even_chain & ((theta[:, None] - theta) % params.p != 0))
    assert np.all(values[zeros] == 0.0) and np.all(ref[zeros] == 0.0)
    assert np.array_equal(values, ref)


def test_eigen_dense_norms_equal_per_state_pairings(sol):
    ref = [ss.eigen_action(sol.basis, st, st) for st in sol.states]
    assert np.array_equal(sol.norms, ref)


def test_stacked_tables_on_solution(sol):
    params, states = sol.params, sol.states
    d, nsep, p = params.dim, params.n_separate, params.p
    assert sol.q_vals.shape == sol.qbar_vals.shape == (d, nsep, p)
    assert sol.t_rows.shape == (d, params.n_bar + 1)
    for i, st in enumerate(states):
        assert np.array_equal(sol.q_vals[i], st.q_vals)
        assert np.array_equal(sol.qbar_vals[i], st.qbar_vals)
        assert sol.theta_m[i] == (st.theta_m if params.even_chain else 0)
        for c, dg in enumerate(range(-params.n_bar, params.n_bar + 1, 2)):
            assert sol.t_rows[i, c] == st.t_coeffs[dg]
    for table in (sol.q_vals, sol.qbar_vals, sol.theta_m, sol.t_rows,
                  sol.covs, sol.vecs, sol.norms):
        with pytest.raises(ValueError):
            table[0] = 0


def _scalar_worst_by_pair_loop(sol):
    """The orthogonality and null-vector worst values, one pair at a time."""
    params, basis, states = sol.params, sol.basis, sol.states
    nsep = params.n_separate
    diag_dets = np.abs(sol.norms)
    worst_orth = worst_null = 0.0
    for i, sti in enumerate(states):
        for j, stj in enumerate(states):
            if i == j or (params.even_chain and sti.theta_m != stj.theta_m):
                continue
            phi = ss.phi_matrix(basis, sti, stj)
            det = abs(np.linalg.det(phi)) * abs(basis.c_ref)
            worst_orth = max(worst_orth, det / np.sqrt(diag_dets[i] * diag_dets[j]))
            V = ss.t_coeff_null_vector(params, sti.t_coeffs, stj.t_coeffs)
            ref = np.sqrt(np.sqrt(diag_dets[i] * diag_dets[j]))
            worst_null = max(worst_null, float(
                np.linalg.norm(phi @ V)
                / max(mc.frob(phi) * np.linalg.norm(V),
                      ref ** (2 * (nsep - 1) / max(nsep, 1)) * np.linalg.norm(V), 1e-300)))
    return worst_orth, worst_null


def test_batched_scalar_checks_equal_pair_loop(sol):
    rows = {r.label: r for r in oracle.verify_solution(sol, sections={"scalar"})}
    worst_orth, worst_null = _scalar_worst_by_pair_loop(sol)
    for label, ref in (("eigenstate_orthogonality", worst_orth),
                       ("orthogonality_null_vector", worst_null)):
        assert rows[label].passed
        assert abs(rows[label].rel_err - ref) <= RTOL * ref
