"""Determinant form factors against dense matrix elements, selection rules,
and the multi-point expansion."""

import numpy as np
import pytest

from sgsov import separate_states as ss
from sgsov import form_factors as ff
from sgsov import local_ops as lo

from conftest import cfg_a_params, eigenstates, embedded_u, short_spectrum
from sgsov.separate_states import prepare


def _table(bundle, op):
    """Dense matrix elements <t_i| op |t_j> between all eigenstates."""
    return bundle.covs @ op @ bundle.vecs.T


def _pair_scale(bundle, i, j, opnorm=1.0):
    return np.linalg.norm(bundle.covs[i]) * np.linalg.norm(bundle.vecs[j]) \
        * opnorm / np.sqrt(bundle.params.dim)


def test_ff_u_full_sweep(desk_bundles):
    for bundle in desk_bundles.values():
        params, basis = bundle.params, bundle.basis
        d = params.dim
        u1 = embedded_u(bundle.params, 1)
        states = eigenstates(bundle)
        for i in range(d):
            for j in range(d):
                dense = bundle.covs[i] @ u1 @ bundle.vecs[j]
                res = ff.ff_u(params, basis, states[i], states[j], 1)
                scale = max(abs(dense), abs(res.value), _pair_scale(bundle, i, j))
                assert abs(dense - res.value) <= 1e-7 * scale


def test_ff_u_selection_rule_even_chain(cfg_b):
    params, basis = cfg_b.params, cfg_b.basis
    d = params.dim
    u1 = embedded_u(cfg_b.params, 1)
    states = eigenstates(cfg_b)
    for i in range(d):
        for j in range(d):
            res = ff.ff_u(params, basis, states[i], states[j], 1)
            allowed = (states[i].theta_m - states[j].theta_m - 1) % params.p == 0
            assert res.selection_zero == (not allowed)
            if not allowed:
                assert res.value == 0.0
                dense = cfg_b.covs[i] @ u1 @ cfg_b.vecs[j]
                assert abs(dense) <= 1e-8 * _pair_scale(cfg_b, i, j)


def test_ff_u_matrix_shares_columns_with_moment_matrix(cfg_a):
    # all but the last column coincide with the half-shifted moment matrix
    params, basis = cfg_a.params, cfg_a.basis
    bra, ket = cfg_a.states.eigenstate(1), cfg_a.states.eigenstate(4)
    res = ff.ff_u(params, basis, bra, ket, 1, keep_matrix=True)
    phi_half = ss.phi_matrix(cfg_a.grid, bra, ket, half_shift=1)
    nsep = params.n_separate
    for b in range(nsep - 1):
        assert np.allclose(res.matrix[:, b], phi_half[:, b], rtol=1e-12)
    assert not np.allclose(res.matrix[:, nsep - 1], phi_half[:, nsep - 1],
                           rtol=1e-3, atol=0)


def test_ff_u_shifted_site_homogeneous(hom3):
    params, basis = hom3.params, hom3.basis
    d = params.dim
    states = eigenstates(hom3)
    for n in (2, 3):
        W = lo.cyclic_shift_permutation(params, n)
        un = embedded_u(hom3.params, n)
        phis = ff.shift_eigenvalues(hom3, W)
        for i in range(0, d, 5):
            for j in range(0, d, 7):
                res = ff.ff_u(params, basis, states[i], states[j], n,
                              shift_ratio=phis[i] / phis[j])
                dense = hom3.covs[i] @ un @ hom3.vecs[j]
                scale = max(abs(dense), abs(res.value), _pair_scale(hom3, i, j))
                assert abs(dense - res.value) <= 1e-7 * scale


def test_ff_u_shifted_site_requires_homogeneity(cfg_a):
    params, spec = cfg_a.params, cfg_a.states
    bra, ket = spec.eigenstate(0), spec.eigenstate(1)
    with pytest.raises(ff.ShiftUnavailable):
        ff.ff_u(params, cfg_a.basis, bra, ket, 2)
    # W does not commute with T on cfg_a, so no chain-shift eigenvalue exists:
    # a shift passed anyway must not yield numbers
    with pytest.raises(ff.ShiftUnavailable):
        ff.ff_u(params, cfg_a.basis, bra, ket, 2, shift_ratio=1.0)
    with pytest.raises(ff.ShiftUnavailable):
        ff.ff_u_table(cfg_a.grid, spec, 2, shift=np.ones(params.dim))


def test_ff_u_tables_hold_one_site(hom3, cfg_a):
    """The ff_u weights and ket tables have no site axis: every site n of a
    homogeneous chain reads the one table, times the shift ratios."""
    for sol in (hom3, cfg_a):
        params, spec = sol.params, sol.states
        nsep, p = params.n_separate, params.p
        assert sol.grid.ff_u_weights.shape == (1, nsep, p, p, nsep)     # odd: one sector
        assert spec.ff_u_kets.shape == (params.dim, nsep, nsep, p)
        assert spec.eigenstate(0).ff_u_ket.shape == (nsep, nsep, p)
    grid, spec = hom3.grid, hom3.states
    site1 = ff.ff_u_table(grid, spec, 1)[0]
    for n in (2, 3):
        shift = ff.shift_eigenvalues(hom3, lo.cyclic_shift_permutation(hom3.params, n))
        assert np.array_equal(ff.ff_u_table(grid, spec, n, shift)[0],
                              ss._cmul(shift[:, None] / shift[None], site1))
    with pytest.raises(ff.ShiftUnavailable):
        ff.ff_u_table(cfg_a.grid, cfg_a.states, 2, shift=np.ones(cfg_a.params.dim))


def test_shift_eigenvalue_diagnostic_homogeneous(hom3):
    # the chain shift acts on eigenstates by phases consistent with a full
    # rotation being the identity; reported as a diagnostic
    params = hom3.params
    W = lo.cyclic_shift_permutation(params, 2)
    for phi in ff.shift_eigenvalues(hom3, W)[:6]:
        assert abs(abs(phi) - 1.0) <= 1e-8
        # N applications of the unit shift close the cycle
        assert abs(phi ** params.n_sites - 1.0) <= 1e-6


def test_ff_elementary_single_lowering(desk_bundles):
    for bundle in desk_bundles.values():
        params = bundle.params
        d = params.dim
        states = eigenstates(bundle)
        for a in range(params.n_separate):
            elem = lo.ElementaryBasisElement(((a, 1, 1),))
            dense_op = elem.to_dense(params, bundle.charge_ops, bundle.elementary_ops)
            opn = np.linalg.norm(dense_op)
            for i in range(0, d, 3):
                for j in range(0, d, 4):
                    res = ff.ff_elementary(params, bundle.grid, states[i], states[j], elem)
                    dense = bundle.covs[i] @ dense_op @ bundle.vecs[j]
                    scale = max(abs(dense), abs(res.value),
                                _pair_scale(bundle, i, j, opn))
                    assert abs(dense - res.value) <= 1e-6 * scale


def test_ff_elementary_two_variable_cases(cfg_a):
    params = cfg_a.params
    d = params.dim
    cases = [lo.ElementaryBasisElement(((0, 1, 1), (1, 2, 1))),
             lo.ElementaryBasisElement(((0, 2, 2), (1, 0, 1))),
             lo.ElementaryBasisElement(((1, 0, 1), (2, 1, 2)))]
    states = eigenstates(cfg_a)
    for elem in cases:
        total_power = sum(alpha for _, _, alpha in elem.factors)
        size = params.n_separate + len(elem.factors) * params.p - total_power
        assert size == 3 + 2 * 3 - total_power
        dense_op = elem.to_dense(params, cfg_a.charge_ops, cfg_a.elementary_ops)
        opn = np.linalg.norm(dense_op)
        for i in range(0, d, 5):
            for j in range(0, d, 6):
                res = ff.ff_elementary(params, cfg_a.grid, states[i], states[j], elem)
                dense = cfg_a.covs[i] @ dense_op @ cfg_a.vecs[j]
                scale = max(abs(dense), abs(res.value), _pair_scale(cfg_a, i, j, opn))
                assert abs(dense - res.value) <= 1e-6 * scale


def test_ff_elementary_pure_charge_insertion(cfg_b):
    # no lowering factors at all: a moment determinant with shifted columns
    params = cfg_b.params
    d = params.dim
    states = eigenstates(cfg_b)
    for hN, h0 in ((0, 0), (1, 0), (0, 1), (2, 1)):
        elem = lo.ElementaryBasisElement((), theta_pow=hN, theta_a_pow=h0)
        dense_op = elem.to_dense(params, cfg_b.charge_ops, cfg_b.elementary_ops)
        opn = np.linalg.norm(dense_op)
        for i in range(d):
            for j in range(d):
                res = ff.ff_elementary(params, cfg_b.grid, states[i], states[j], elem)
                dense = cfg_b.covs[i] @ dense_op @ cfg_b.vecs[j]
                scale = max(abs(dense), abs(res.value), _pair_scale(cfg_b, i, j, opn))
                assert abs(dense - res.value) <= 1e-6 * scale


def test_ff_elementary_sector_rule(cfg_b):
    params = cfg_b.params
    elem = lo.ElementaryBasisElement((), theta_pow=1, theta_a_pow=0)
    dense_op = elem.to_dense(params, cfg_b.charge_ops, cfg_b.elementary_ops)
    states = eigenstates(cfg_b)
    for i, sti in enumerate(states):
        for j, stj in enumerate(states):
            res = ff.ff_elementary(params, cfg_b.grid, sti, stj, elem)
            allowed = (sti.theta_m - stj.theta_m - 1) % params.p == 0
            assert res.selection_zero == (not allowed)
            if not allowed:
                dense = cfg_b.covs[i] @ dense_op @ cfg_b.vecs[j]
                assert abs(dense) <= 1e-7 * _pair_scale(
                    cfg_b, i, j, np.linalg.norm(dense_op))


def test_ff_values_do_not_depend_on_basis_normalization(cfg_a):
    # a basis rebuilt from a different random stream carries different raw
    # eigenvector scales; the separated form factors must not change
    other = prepare(cfg_a_params(), 777)
    states = eigenstates(cfg_a)
    for i, j in ((0, 1), (3, 9), (12, 20)):
        v1 = ff.ff_u(cfg_a.params, cfg_a.basis, states[i], states[j], 1).value
        # identify the matching states in the rebuilt bundle by eigenvalue
        def match(st):
            key = min(range(len(other.states)), key=lambda m: np.sum(
                np.abs(other.states.t_rows[m] - st.t_coeffs)))
            return other.states.eigenstate(key)
        v2 = ff.ff_u(other.params, other.basis, match(states[i]), match(states[j]), 1).value
        assert abs(v1 - v2) <= 1e-7 * max(abs(v1), 1e-300)


def test_npoint_single_insertion_reduces_to_form_factor(cfg_a):
    u1 = embedded_u(cfg_a.params, 1)
    val = ff.npoint(cfg_a, 0, [_table(cfg_a, u1)])
    dense = (cfg_a.covs[0] @ u1 @ cfg_a.vecs[0]) / cfg_a.norms[0]
    assert abs(val - dense) <= 1e-9 * max(abs(dense), 1e-300)


def test_npoint_two_point_expansion(desk_bundles):
    for bundle in desk_bundles.values():
        u1 = embedded_u(bundle.params, 1)
        for idx in (0, len(bundle.states) // 2):
            val = ff.npoint(bundle, idx, [_table(bundle, u1)] * 2)
            dense = (bundle.covs[idx] @ u1 @ u1 @ bundle.vecs[idx]) / bundle.norms[idx]
            scale = max(abs(dense), abs(val),
                        _pair_scale(bundle, idx, idx) / abs(bundle.norms[idx]))
            assert abs(val - dense) <= 1e-6 * scale


def test_npoint_two_point_with_determinant_route(cfg_a):
    params, grid = cfg_a.params, cfg_a.grid
    u1 = embedded_u(cfg_a.params, 1)
    det_table = ff.ff_u_table(grid, cfg_a.states, 1)[0]
    val = ff.npoint(cfg_a, 2, [det_table, det_table])
    dense = (cfg_a.covs[2] @ u1 @ u1 @ cfg_a.vecs[2]) / cfg_a.norms[2]
    assert abs(val - dense) <= 1e-6 * max(abs(dense), 1e-300)


def test_npoint_mixed_operators_even_chain(cfg_b):
    u1 = embedded_u(cfg_b.params, 1)
    v2 = lo.reconstruct_v2k(lo.shifted_monodromy(cfg_b.params, 1), 1)
    for idx in (0, 4):
        val = ff.npoint(cfg_b, idx, [_table(cfg_b, u1), _table(cfg_b, v2)])
        dense = (cfg_b.covs[idx] @ u1 @ v2 @ cfg_b.vecs[idx]) / cfg_b.norms[idx]
        scale = max(abs(dense), abs(val), 1e-6)
        assert abs(val - dense) <= 1e-6 * scale


def test_npoint_three_operators_middle_slot(cfg_a, cfg_b):
    # u1 v2 u1: the middle table is summed over both intermediate states; on
    # the even chain cfg_b the charge rule makes the expectation vanish
    for bundle in (cfg_a, cfg_b):
        u1 = embedded_u(bundle.params, 1)
        v2 = lo.reconstruct_v2k(lo.shifted_monodromy(bundle.params, 1), 1)
        tables = [_table(bundle, op) for op in (u1, v2, u1)]
        for idx in (0, len(bundle.states) // 2):
            val = ff.npoint(bundle, idx, tables)
            dense = (bundle.covs[idx] @ u1 @ v2 @ u1 @ bundle.vecs[idx]) / bundle.norms[idx]
            scale = max(abs(dense), abs(val),
                        _pair_scale(bundle, idx, idx) / abs(bundle.norms[idx]))
            assert abs(val - dense) <= 1e-6 * scale


def test_npoint_requires_full_spectrum(cfg_a):
    short = short_spectrum(cfg_a, 2)
    table = short.covs @ embedded_u(cfg_a.params, 1) @ short.vecs.T
    with pytest.raises(ss.IncompleteSpectrum):
        ff.npoint(short, 0, [table, table])


def test_bra_blocks_leave_the_pair_tables_unchanged(cfg_a, monkeypatch):
    # every determinant of an all-pairs table is formed on its own, so the
    # size of the bra blocks moves no value
    from sgsov import oracle
    params, grid, spec = cfg_a.params, cfg_a.grid, cfg_a.states
    values = ff.ff_u_table(grid, spec, 1)[0]
    rows = [r.row() for r in oracle.verify_solution(cfg_a, sections={"scalar"})]
    monkeypatch.setattr(ss, "BRA_BLOCK", 5)
    assert len(ss.bra_blocks(params.dim)) == 6
    assert np.array_equal(ff.ff_u_table(grid, spec, 1)[0], values)
    assert [r.row() for r in oracle.verify_solution(cfg_a, sections={"scalar"})] == rows
