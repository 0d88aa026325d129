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
from sgsov.sov_basis import SovBasis, SovGrid, cross_product, moment_weights, vandermonde

from conftest import eigenstates

RTOL = 1e-12
CHAINS = ("n1", "cfg_b", "cfg_a", "stretch")   # nsep = 1; even chain; N = 3, p = 3; nsep = 3, p = 5


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

def moment_ref(grid, left, right, a, exponent):
    """sum_h left * right * eta^exponent / omega on variable a, point by
    point, and the sum of the moduli of its terms."""
    eta, omega = grid.grid[a], grid.omega[a]
    terms = [left[a, h] * right[a, h] * eta[h] ** exponent / omega[h]
             for h in range(len(eta))]
    return sum(terms), sum(abs(t) for t in terms)


def moment_matrix_ref(grid, left, right, exponents):
    """Moments (rows: variables, columns: exponents) and their term scales."""
    nsep = grid.params.n_separate
    out = np.array([[moment_ref(grid, left, right, a, e) for e in exponents]
                    for a in range(nsep)])
    return out[..., 0], out[..., 1].real


def ff_u_matrix_ref(params, grid, bra, ket):
    """Prefactor (the normalization of the substituted last column), matrix
    and matrix term scales of ``ff_u``, entry by entry."""
    lam = complex(params.mu_plus[0])
    nsep, p = params.n_separate, params.p
    roots, omega = grid.grid, grid.omega
    pref = grid.c_ref / (params.kprod * grid.eta0[-1] ** params.e_n)
    U, S = moment_matrix_ref(grid, bra.qbar_vals, ket.q_vals, range(1, 2 * nsep, 2))
    for a in range(nsep):
        terms = [ket.q_vals[a, h] * bra.qbar_vals[a, (h + 1) % p]
                 * mc.a_coeff(params, roots[a, (h + 1) % p])
                 * roots[a, h] ** (nsep - 1) / omega[a, h]
                 / (lam / roots[a, (h + 1) % p] - roots[a, (h + 1) % p] / lam)
                 for h in range(p)]
        U[a, -1] = sum(terms)
        S[a, -1] = sum(abs(t) for t in terms)
        if params.even_chain:
            m = ket.theta_m
            (hi, s_hi), (lo_, s_lo) = (
                moment_ref(grid, bra.qbar_vals, ket.q_vals, a, e) for e in (2 * nsep - 1, -1))
            c_hi = np.sqrt(p) * params.q ** m * (lam / params.xi_prod)
            c_lo = np.sqrt(p) * params.q ** (-m) * (params.xi_prod / lam)
            U[a, -1] += (c_hi * hi - c_lo * lo_) / pref
            S[a, -1] += (abs(c_hi) * s_hi + abs(c_lo) * s_lo) / abs(pref)
    return pref, U, S


def ff_u_ket_ref(params, grid, ket):
    """The ``ff_u`` ket table of ``ket``, entry by entry: its Q table
    against the weights of its sector, written out as in ``ff_u_matrix_ref``
    (entry [a, k, g] is what Qbar(eta_a^{(g)}) multiplies in column k), and
    the term scales."""
    lam = complex(params.mu_plus[0])
    nsep, p = params.n_separate, params.p
    roots, omega, q = grid.grid, grid.omega, ket.q_vals
    pref = grid.c_ref / (params.kprod * grid.eta0[-1] ** params.e_n)
    out = np.zeros((nsep, nsep, p), dtype=complex)
    scale = np.zeros((nsep, nsep, p))
    for a in range(nsep):
        for g in range(p):
            eta, h = roots[a, g], (g - 1) % p
            terms = [[q[a, g] * eta ** (2 * k + 1) / omega[a, g]] for k in range(nsep - 1)]
            last = [q[a, h] * mc.a_coeff(params, eta) * roots[a, h] ** (nsep - 1)
                    / omega[a, h] / (lam / eta - eta / lam)]
            if params.even_chain:
                m = ket.theta_m
                c_hi = np.sqrt(p) * params.q ** m * (lam / params.xi_prod)
                c_lo = np.sqrt(p) * params.q ** (-m) * (params.xi_prod / lam)
                last += [q[a, g] * c_hi * eta ** (2 * nsep - 1) / omega[a, g] / pref,
                         -q[a, g] * c_lo * eta ** (-1) / omega[a, g] / pref]
            for k, column in enumerate(terms + [last]):
                out[a, k, g] = sum(column)
                scale[a, k, g] = sum(abs(t) for t in column)
    return out, scale


def ff_elementary_ref(params, grid, bra, ket, elem):
    """Prefactor, matrix and matrix term scales of the elementary form
    factor, entry by entry."""
    p, nsep = params.p, params.n_separate
    roots, omega = grid.grid, grid.omega
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
            col_roots.append(roots[a, (k + j) % p])
            M[:, col] = (col_roots[-1] ** 2) ** np.arange(size)
            S[:, col] = np.abs(M[:, col])
            col += 1
    for b in spectators:
        for row in range(size):
            M[row, col], S[row, col] = moment_ref(grid, bra.qbar_vals, ket.q_vals, b,
                                                  2 * row + h0 + g)
        col += 1
    f_num = 1.0 + 0.0j
    for (a, k, alpha) in factors:
        f_num *= (ket.q_vals[a, (k - alpha) % p] * bra.qbar_vals[a, k]
                  * roots[a, k] ** (h0 + alpha * (nsep - r)) / omega[a, k])
        for h in range(alpha):
            f_num *= mc.a_coeff(params, roots[a, (k - h) % p])
    f_den = 1.0 + 0.0j
    for i, (ai, ki, alphai) in enumerate(factors):
        for (aj, kj, alphaj) in factors[i + 1:]:
            for h in range(alphai):
                x, y = roots[ai, (ki - h) % p], roots[aj, kj]
                f_den *= x / y - y / x
            for h in range(alphaj):
                x, y = roots[aj, (kj - h) % p], roots[ai, (ki - alphai) % p]
                f_den *= x / y - y / x
    sign = (-1.0) ** sum(a - i for i, (a, _, _) in enumerate(factors))
    sign *= (-1.0) ** ((r - 1) * (g - r)) if r else 1.0
    qpow = np.prod([params.q ** (-(nsep - r) * alpha * (alpha - 1) / 2)
                    for (_, _, alpha) in factors]) if factors else 1.0
    z = grid.z
    v_small = vandermonde([roots[a, k] for (a, k, _) in factors], squares=True)
    v_big = vandermonde(col_roots, squares=True)
    z_cross = np.prod([cross_product(z[a], z[spectators], squares=True)
                       for a in excited])
    pref = sign * qpow * f_num * v_small / (f_den * z_cross * v_big)
    sector = 1.0 + 0.0j
    if params.even_chain:
        sector = grid.c_ref * params.q ** (h0 * ket.theta_m) \
            / (grid.eta0[-1] ** hN * params.xi_prod ** h0)
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
    grid = sol.grid
    for table in (grid.a_vals, grid.d_vals, grid.omega):
        with pytest.raises(ValueError):
            table[0, 0] = 1.0


def test_weight_tables_are_built_read_only_by_the_constructor(sol, monkeypatch):
    params, basis, grid, states = sol.params, sol.basis, sol.grid, eigenstates(sol)
    nsep, p = params.n_separate, params.p
    fresh = SovGrid(params, grid.z, grid.eta0)
    sectors = p if params.even_chain else 1
    for name, shape in (("omega", (nsep, p)), ("pairing_weights", (nsep, p, nsep)),
                        ("ff_u_weights", (sectors, nsep, p, p, nsep))):
        table = vars(fresh)[name]          # an instance field, not built on use
        assert table.shape == shape
        assert np.array_equal(table, getattr(grid, name))
        with pytest.raises(ValueError):
            table[(0,) * table.ndim] = 1.0
    # the tables indexed by the labels live on the basis
    fresh_basis = SovBasis(params, grid, basis.left, basis.right)
    for name, shape in (("grid_values", (params.dim, nsep)),
                        ("vandermonde_weights", (params.dim,))):
        table = vars(fresh_basis)[name]
        assert table.shape == shape
        assert np.array_equal(table, getattr(basis, name))
        with pytest.raises(ValueError):
            table[(0,) * table.ndim] = 1.0
    assert vars(fresh)["c_ref"] == grid.c_ref == (grid.eta0[-1] * np.sqrt(p)) ** params.e_n
    assert vars(fresh)["ff_u_pref"] == grid.ff_u_pref
    assert np.array_equal(grid.pairing_weights, moment_weights(grid, range(0, 2 * nsep, 2)))
    # the per-pair kernels read the tables: no moment is computed per call
    calls = []
    moments = ss.phi_moments

    def counting(*args):
        calls.append(args)
        return moments(*args)

    for module in (ss, ff):
        monkeypatch.setattr(module, "phi_moments", counting)
    ss.phi_matrix(grid, states[0], states[0])       # the counter is in place
    assert len(calls) == 1
    calls.clear()
    for i, j in _pairs(sol, count=4):
        ff.ff_u(params, basis, states[i], states[j], 1)
        ss.eigen_action(basis, states[i], states[j])
    # nor by the pair tables, the norms (built afresh) and the scalar section
    ss.eigen_action_table(grid, sol.states, slice(0, 3))
    ss.Solution.norms.func(sol)
    assert oracle.verify_solution(sol, sections={"scalar"})
    assert calls == []


def _theta_sector_weights(params, m):
    """The two theta-sector column weights of ``ff_u`` for a ket in sector m,
    as the per-pair kernel once formed them."""
    lam = complex(params.mu_plus[0])
    return (params.q ** m * (lam / params.xi_prod),
            params.q ** (-m) * (params.xi_prod / lam))


def test_ff_u_sector_tables_match_theta_column_formula(cfg_b):
    params, grid = cfg_b.params, cfg_b.grid
    nsep, p = params.n_separate, params.p
    eta, omega = grid.grid[:nsep], grid.omega
    h = np.arange(p)
    lam = complex(params.mu_plus[0])
    pref = grid.c_ref / (params.kprod * grid.eta0[-1] ** params.e_n)
    pole = np.zeros((nsep, p, p), dtype=complex)
    for a in range(nsep):
        for k in range(p):
            g = (k + 1) % p
            pole[a, g, k] = (mc.a_coeff(params, eta[a, g])
                             / (lam / eta[a, g] - eta[a, g] / lam)
                             * eta[a, k] ** (nsep - 1) / omega[a, k])
    for m in range(p):
        table = grid.ff_u_weights[m]
        w_hi, w_lo = _theta_sector_weights(params, m)
        hi = np.sqrt(p) * w_hi * eta ** (2 * nsep - 1) / omega / pref
        lo_ = np.sqrt(p) * w_lo * eta ** (-1) / omega / pref
        ref = np.zeros_like(table)
        ref[:, h, h, :nsep - 1] = [[eta[a, k] ** np.arange(1, 2 * nsep - 2, 2) / omega[a, k]
                                    for k in range(p)] for a in range(nsep)]
        ref[:, h, h, -1] = hi - lo_
        ref[..., -1] += pole
        scale = np.abs(ref)
        scale[:, h, h, -1] = np.abs(hi) + np.abs(lo_)
        _assert_matrix_close(table, ref, scale)


def test_ff_u_ket_tables_match_scalar_formula(sol):
    params, grid = sol.params, sol.grid
    nsep, p = params.n_separate, params.p
    # every state; every fourth on the d = 125 chain
    for st in eigenstates(sol)[::max(1, params.dim // 27)]:
        assert st.ff_u_ket.shape == (nsep, nsep, p) and st.ff_u_ket.flags.c_contiguous
        ref, scale = ff_u_ket_ref(params, grid, st)
        _assert_matrix_close(st.ff_u_ket, ref, scale)


def test_pair_ket_tables_match_scalar_formula(sol):
    grid, spec = sol.grid, sol.states
    nsep, p = sol.params.n_separate, sol.params.p
    assert spec.pair_kets.shape == (len(spec), nsep, nsep, p) and spec.pair_kets.flags.c_contiguous
    # every state; every fourth on the d = 125 chain
    for i in range(0, len(spec), max(1, sol.params.dim // 27)):
        ref = np.array([[[spec.q_vals[i, a, h] * grid.grid[a, h] ** (2 * k) / grid.omega[a, h]
                          for h in range(p)] for k in range(nsep)] for a in range(nsep)])
        _assert_matrix_close(spec.pair_kets[i], ref, np.abs(ref))


def test_shifted_indices_match_scalar_shifts(sol):
    basis = sol.basis
    for delta in (-1, 1):
        table = sol.params.shifted_indices(delta)
        for j in range(0, sol.params.dim, 7):
            for a in range(sol.params.n_sites):
                assert table[j, a] == basis.shifted_index(j, a, delta)


# -- determinant kernels ---------------------------------------------------------

def test_phi_matrix_and_eigen_action_match_scalar_sums(sol):
    params, basis, grid, states = sol.params, sol.basis, sol.grid, eigenstates(sol)
    nsep = params.n_separate
    for i, j in _pairs(sol):
        bra, ket = states[i], states[j]
        ref, scale = moment_matrix_ref(grid, bra.qbar_vals, ket.q_vals, range(0, 2 * nsep, 2))
        _assert_matrix_close(ss.phi_matrix(grid, bra, ket), ref, scale)
        last = nsep - 1
        assert abs(ss.phi_general(grid, bra, ket, last, 2 * last) - ref[last, last]) \
            <= RTOL * scale[last, last]
        if params.even_chain and (bra.theta_m - ket.theta_m) % params.p != 0:
            assert ss.eigen_action(basis, bra, ket) == 0.0
            continue
        _assert_det_close(ss.eigen_action(basis, bra, ket),
                          grid.c_ref * np.linalg.det(ref), scale, grid.c_ref)


def test_scalar_product_det_matches_scalar_sums(sol):
    params, grid = sol.params, sol.grid
    nsep, p = params.n_separate, params.p
    rng = sol.rng(901)
    for _ in range(5):
        left, right = (rng.standard_normal((nsep, p)) + 1j * rng.standard_normal((nsep, p))
                       for _ in range(2))
        m = 0
        ref, scale = moment_matrix_ref(grid, left, right, range(0, 2 * nsep, 2))
        got = ss.scalar_product_det(ss.SeparateState("left", left, m),
                                    ss.SeparateState("right", right, m), grid)
        _assert_det_close(got, grid.c_ref * np.linalg.det(ref), scale, grid.c_ref)


def test_ff_u_matches_scalar_formula(sol):
    params, basis, states = sol.params, sol.basis, eigenstates(sol)
    zeros = 0
    for i, j in _pairs(sol):
        res = ff.ff_u(params, basis, states[i], states[j], 1, keep_matrix=True)
        if res.selection_zero:
            zeros += 1
            assert res.value == 0.0
            continue
        pref, ref, scale = ff_u_matrix_ref(params, sol.grid, states[i], states[j])
        _assert_matrix_close(res.matrix, ref, scale)
        # the Hadamard bound of the matrix with its last column normalized
        scale[:, -1] *= abs(pref)
        _assert_det_close(res.value, pref * np.linalg.det(ref), scale)
    assert zeros > 0 if params.even_chain else zeros == 0


def test_ff_elementary_matches_scalar_formula(sol):
    params, grid, states = sol.params, sol.grid, eigenstates(sol)
    for elem in _elements(params):
        for i, j in _pairs(sol, count=4):
            res = ff.ff_elementary(params, grid, states[i], states[j], elem,
                                   keep_matrix=True)
            if res.selection_zero:
                continue
            pref, ref, scale = ff_elementary_ref(params, grid, states[i], states[j], elem)
            _assert_matrix_close(res.matrix, ref, scale)
            _assert_det_close(res.value, pref * np.linalg.det(ref), scale, pref)


# -- pair tables -----------------------------------------------------------------

def test_ff_u_table_equals_per_pair_calls(sol):
    params, basis, states = sol.params, sol.basis, eigenstates(sol)
    values, zeros = ff.ff_u_table(sol.grid, sol.states, 1)
    per_pair = [[ff.ff_u(params, basis, bra, ket, 1) for ket in states] for bra in states]
    assert values.shape == zeros.shape == (params.dim, params.dim)
    # the same operations in the same order: bit-identical
    assert np.array_equal(values, [[r.value for r in row] for row in per_pair])
    assert np.array_equal(zeros, [[r.selection_zero for r in row] for row in per_pair])
    assert zeros.any() if params.even_chain else not zeros.any()


def test_ff_elementary_table_equals_per_pair_calls(sol):
    params, grid, states = sol.params, sol.grid, eigenstates(sol)
    # every pair; every tenth bra on the d = 125 chain
    rows = slice(None) if params.dim <= 27 else slice(None, None, 10)
    for elem in _elements(params):
        values, zeros = ff.ff_elementary_table(grid, sol.states, elem, rows)
        per_pair = [[ff.ff_elementary(params, grid, bra, ket, elem) for ket in states]
                    for bra in states[rows]]
        assert values.shape == zeros.shape == (len(states[rows]), params.dim)
        # one kernel, the same operations in the same order: bit-identical
        assert np.array_equal(values, [[r.value for r in row] for row in per_pair])
        assert np.array_equal(zeros, [[r.selection_zero for r in row] for row in per_pair])
        assert np.all(values[zeros] == 0.0)


def test_ff_u_table_at_a_shifted_site(hom3):
    params, basis, states = hom3.params, hom3.basis, eigenstates(hom3)
    with pytest.raises(ff.ShiftUnavailable):
        ff.ff_u_table(hom3.grid, hom3.states, 2)
    shift = np.linspace(0.5, 1.5, params.dim) * np.exp(1j * np.arange(params.dim))
    ratio = shift[:, None] / shift[None, :]
    values, _ = ff.ff_u_table(hom3.grid, hom3.states, 2, shift, bras=slice(0, 4))
    for i in range(4):
        for j, ket in enumerate(states):
            ref = ff.ff_u(params, basis, states[i], ket, 2, shift_ratio=ratio[i, j]).value
            assert values[i, j] == ref


@pytest.mark.parametrize("n", [0, -1, 4])
def test_ff_u_rejects_a_site_outside_the_chain(hom3, n):
    # a negative index would silently read the table of a site from the end
    params, spec = hom3.params, hom3.states
    with pytest.raises(IndexError):
        ff.ff_u(params, hom3.basis, spec.eigenstate(0), spec.eigenstate(1), n, shift_ratio=1.0)
    with pytest.raises(IndexError):
        ff.ff_u_table(hom3.grid, spec, n, shift=np.ones(params.dim))


def test_eigen_action_table_equals_per_pair_calls(sol):
    params, basis, states = sol.params, sol.basis, eigenstates(sol)
    values, zeros = ss.eigen_action_table(sol.grid, sol.states)
    ref = np.array([[ss.eigen_action(basis, bra, ket) for ket in states] for bra in states])
    theta = np.array([st.theta_m or 0 for st in states])
    assert np.array_equal(zeros, params.even_chain & ((theta[:, None] - theta) % params.p != 0))
    assert np.all(values[zeros] == 0.0) and np.all(ref[zeros] == 0.0)
    assert np.array_equal(values, ref)


@pytest.mark.parametrize("chain", ["cfg_a", "cfg_b"])   # odd, d = 27; even, d = 9
def test_every_pair_table_forms_at_most_bra_block_bras(chain, request, hom3, monkeypatch):
    sol = request.getfixturevalue(chain)
    grid, spec = sol.grid, sol.states
    shift = ff.shift_eigenvalues(hom3, lo.cyclic_shift_permutation(hom3.params, 2))

    def tables():
        out = [ss.eigen_action_table(grid, spec), ff.ff_u_table(grid, spec, 1),
               ff.ff_u_table(hom3.grid, hom3.states, 2, shift)]
        return out + [ff.ff_elementary_table(grid, spec, elem) for elem in _elements(sol.params)]

    single = tables()           # the default BRA_BLOCK of 64: one block
    # repeated index rows read the rows of the full table
    rows = np.array([3, 3, 0, 8])
    assert np.array_equal(ss.eigen_action_table(grid, spec, rows, rows[::-1])[0],
                          single[0][0][rows][:, rows[::-1]])
    bras = []

    def spy(kernel, qbar_arg):
        # the Qbar tables of the bras, stacked (bras, 1, nsep, p)
        def counted(*args):
            bras.append(len(args[qbar_arg]))
            return kernel(*args)
        return counted

    for module in (ss, ff):       # form_factors imports the kernel by name
        monkeypatch.setattr(module, "_ket_dets", spy(ss._ket_dets, 0))
    monkeypatch.setattr(ff, "_ff_elementary_values", spy(ff._ff_elementary_values, 2))
    monkeypatch.setattr(ss, "BRA_BLOCK", 4)
    blocked = tables()
    assert bras and max(bras) <= 4
    for (values, zeros), (ref, ref_zeros) in zip(blocked, single):
        assert np.array_equal(values, ref) and np.array_equal(zeros, ref_zeros)


@pytest.mark.parametrize("chain", ["cfg_b", "cfg_a"])   # even; odd
def test_determinant_kernels_make_no_einsum_call(chain, request, monkeypatch):
    # the Q-table contractions are stacked BLAS products, not NumPy's generic
    # einsum loops
    sol = request.getfixturevalue(chain)
    params, basis, spec = sol.params, sol.basis, sol.states

    def refuse(*args, **kwargs):
        raise AssertionError("np.einsum called by a determinant kernel")

    monkeypatch.setattr(np, "einsum", refuse)
    grid = sol.grid
    ss.attach_q_tables(grid, spec.q_poly, spec.qbar_poly, spec.theta_m)
    bra, ket = spec.eigenstate(1), spec.eigenstate(2)
    ff.ff_u(params, basis, bra, ket, 1)
    ss.eigen_action(basis, bra, ket)
    ff.ff_u_table(grid, spec, 1, bras=slice(0, 3))
    ss.eigen_action_table(grid, spec, slice(0, 3))
    ss.phi_moments(grid, bra.qbar_vals, ket.q_vals, [0, 2, 5])
    for elem in _elements(params):
        ff.ff_elementary(params, grid, bra, ket, elem)
        ff.ff_elementary_table(grid, spec, elem, slice(0, 3))


def test_eigen_dense_norms_equal_per_state_pairings(sol):
    ref = [ss.eigen_action(sol.basis, st, st) for st in eigenstates(sol)]
    assert np.array_equal(sol.norms, ref)


def test_stacked_tables_on_solution(sol):
    params, spec = sol.params, sol.states
    d, nsep, p = params.dim, params.n_separate, params.p
    assert spec.q_vals.shape == spec.qbar_vals.shape == (d, nsep, p)
    assert spec.ff_u_kets.shape == (d, nsep, nsep, p)
    assert spec.pair_kets.shape == (d, nsep, nsep, p)
    assert spec.ff_u_kets.flags.c_contiguous and spec.pair_kets.flags.c_contiguous
    assert spec.t_rows.shape == (d, params.n_bar + 1)
    for i, st in enumerate(eigenstates(sol)):
        assert np.array_equal(spec.q_vals[i], st.q_vals)
        assert np.array_equal(spec.qbar_vals[i], st.qbar_vals)
        assert np.array_equal(spec.ff_u_kets[i], st.ff_u_ket)
        assert np.array_equal(spec.pair_kets[i], st.pair_ket)
        assert spec.theta_m[i] == (st.theta_m if params.even_chain else 0)
        assert np.array_equal(spec.t_rows[i], st.t_coeffs)
    for table in (spec.q_vals, spec.qbar_vals, spec.ff_u_kets, spec.pair_kets, spec.theta_m,
                  spec.t_rows, sol.covs, sol.vecs, sol.norms):
        with pytest.raises(ValueError):
            table[0] = 0


def _scalar_worst_by_pair_loop(sol):
    """The orthogonality and null-vector worst values, one pair at a time,
    from the per-pair moment matrix of ``eigen_action``."""
    params, grid, states = sol.params, sol.grid, eigenstates(sol)
    nsep = params.n_separate
    diag_dets = np.abs(sol.norms)
    worst_orth = worst_null = 0.0
    for i, sti in enumerate(states):
        for j, stj in enumerate(states):
            if i == j or (params.even_chain and sti.theta_m != stj.theta_m):
                continue
            phi = ss._ket_matrices(sti.qbar_vals, stj.pair_ket)
            det = abs(np.linalg.det(phi)) * abs(grid.c_ref)
            worst_orth = max(worst_orth, det / np.sqrt(diag_dets[i] * diag_dets[j]))
            V = ss.t_coeff_null_vector(params, states[i].t_coeffs, states[j].t_coeffs)
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
