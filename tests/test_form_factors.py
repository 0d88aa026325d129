"""Determinant form factors against dense matrix elements, selection rules,
and the multi-point expansion."""

import numpy as np
import pytest

from sgsov import separate_states as ss
from sgsov import form_factors as ff
from sgsov import local_ops as lo

from conftest import cfg_a_params, embedded_u, short_spectrum
from sgsov.separate_states import prepare


def _pair_scale(bundle, i, j, opnorm=1.0):
    return np.linalg.norm(bundle.covs[i]) * np.linalg.norm(bundle.vecs[j]) \
        * opnorm / np.sqrt(bundle.params.dim)


def test_ff_u_full_sweep(desk_bundles):
    for bundle in desk_bundles.values():
        params, basis = bundle.params, bundle.basis
        d = params.dim
        u1 = embedded_u(bundle.params, 1)
        for i in range(d):
            for j in range(d):
                dense = bundle.covs[i] @ u1 @ bundle.vecs[j]
                res = ff.ff_u(params, basis, bundle.states[i], bundle.states[j], 1)
                scale = max(abs(dense), abs(res.value), _pair_scale(bundle, i, j))
                assert abs(dense - res.value) <= 1e-7 * scale


def test_ff_u_selection_rule_even_chain(cfg_b):
    params, basis = cfg_b.params, cfg_b.basis
    d = params.dim
    u1 = embedded_u(cfg_b.params, 1)
    for i in range(d):
        for j in range(d):
            res = ff.ff_u(params, basis, cfg_b.states[i], cfg_b.states[j], 1)
            allowed = (cfg_b.states[i].theta_m
                       - cfg_b.states[j].theta_m - 1) % params.p == 0
            assert res.selection_zero == (not allowed)
            if not allowed:
                assert res.value == 0.0
                dense = cfg_b.covs[i] @ u1 @ cfg_b.vecs[j]
                assert abs(dense) <= 1e-8 * _pair_scale(cfg_b, i, j)


def test_ff_u_matrix_shares_columns_with_moment_matrix(cfg_a):
    # all but the last column coincide with the half-shifted moment matrix
    params, basis = cfg_a.params, cfg_a.basis
    bra, ket = cfg_a.states[1], cfg_a.states[4]
    res = ff.ff_u(params, basis, bra, ket, 1, keep_matrix=True)
    phi_half = ss.phi_matrix(basis, bra, ket, half_shift=1)
    nsep = params.n_separate
    for b in range(nsep - 1):
        assert np.allclose(res.matrix[:, b], phi_half[:, b], rtol=1e-12)
    assert not np.allclose(res.matrix[:, nsep - 1], phi_half[:, nsep - 1],
                           rtol=1e-3, atol=0)


def test_ff_u_shifted_site_homogeneous(hom3):
    params, basis = hom3.params, hom3.basis
    d = params.dim
    for n in (2, 3):
        W = lo.cyclic_shift_permutation(params, n)
        un = embedded_u(hom3.params, n)
        phis = [ff.shift_eigenvalue(params, basis, st, W) for st in hom3.states]
        for i in range(0, d, 5):
            for j in range(0, d, 7):
                res = ff.ff_u(params, basis, hom3.states[i], hom3.states[j], n,
                              shift_ratio=phis[i] / phis[j])
                dense = hom3.covs[i] @ un @ hom3.vecs[j]
                scale = max(abs(dense), abs(res.value), _pair_scale(hom3, i, j))
                assert abs(dense - res.value) <= 1e-7 * scale


def test_ff_u_shifted_site_requires_homogeneity(cfg_a):
    with pytest.raises(ff.ShiftUnavailable):
        ff.ff_u(cfg_a.params, cfg_a.basis, cfg_a.states[0], cfg_a.states[1], 2)


def test_shift_eigenvalue_diagnostic_homogeneous(hom3):
    # the chain shift acts on eigenstates by phases consistent with a full
    # rotation being the identity; reported as a diagnostic
    params, basis = hom3.params, hom3.basis
    W = lo.cyclic_shift_permutation(params, 2)
    for st in hom3.states[:6]:
        phi = ff.shift_eigenvalue(params, basis, st, W)
        assert abs(abs(phi) - 1.0) <= 1e-8
        # N applications of the unit shift close the cycle
        assert abs(phi ** params.n_sites - 1.0) <= 1e-6


def test_ff_elementary_single_lowering(desk_bundles):
    for bundle in desk_bundles.values():
        params, basis, mono = bundle.params, bundle.basis, bundle.mono
        d = params.dim
        for a in range(params.n_separate):
            elem = lo.ElementaryBasisElement(((a, 1, 1),))
            dense_op = elem.to_dense(params, basis, mono)
            opn = np.linalg.norm(dense_op)
            for i in range(0, d, 3):
                for j in range(0, d, 4):
                    res = ff.ff_elementary(params, basis, bundle.states[i],
                                           bundle.states[j], elem)
                    dense = bundle.covs[i] @ dense_op @ bundle.vecs[j]
                    scale = max(abs(dense), abs(res.value),
                                _pair_scale(bundle, i, j, opn))
                    assert abs(dense - res.value) <= 1e-6 * scale


def test_ff_elementary_two_variable_cases(cfg_a):
    params, basis, mono = cfg_a.params, cfg_a.basis, cfg_a.mono
    d = params.dim
    cases = [lo.ElementaryBasisElement(((0, 1, 1), (1, 2, 1))),
             lo.ElementaryBasisElement(((0, 2, 2), (1, 0, 1))),
             lo.ElementaryBasisElement(((1, 0, 1), (2, 1, 2)))]
    for elem in cases:
        size = params.n_separate + len(elem.factors) * params.p - elem.total_power()
        assert size == 3 + 2 * 3 - elem.total_power()
        dense_op = elem.to_dense(params, basis, mono)
        opn = np.linalg.norm(dense_op)
        for i in range(0, d, 5):
            for j in range(0, d, 6):
                res = ff.ff_elementary(params, basis, cfg_a.states[i],
                                       cfg_a.states[j], elem)
                dense = cfg_a.covs[i] @ dense_op @ cfg_a.vecs[j]
                scale = max(abs(dense), abs(res.value), _pair_scale(cfg_a, i, j, opn))
                assert abs(dense - res.value) <= 1e-6 * scale


def test_ff_elementary_pure_charge_insertion(cfg_b):
    # no lowering factors at all: a moment determinant with shifted columns
    params, basis, mono = cfg_b.params, cfg_b.basis, cfg_b.mono
    d = params.dim
    for hN, h0 in ((0, 0), (1, 0), (0, 1), (2, 1)):
        elem = lo.ElementaryBasisElement((), theta_pow=hN, theta_a_pow=h0)
        dense_op = elem.to_dense(params, basis, mono)
        opn = np.linalg.norm(dense_op)
        for i in range(d):
            for j in range(d):
                res = ff.ff_elementary(params, basis, cfg_b.states[i],
                                       cfg_b.states[j], elem)
                dense = cfg_b.covs[i] @ dense_op @ cfg_b.vecs[j]
                scale = max(abs(dense), abs(res.value), _pair_scale(cfg_b, i, j, opn))
                assert abs(dense - res.value) <= 1e-6 * scale


def test_ff_elementary_sector_rule(cfg_b):
    params, basis, mono = cfg_b.params, cfg_b.basis, cfg_b.mono
    elem = lo.ElementaryBasisElement((), theta_pow=1, theta_a_pow=0)
    dense_op = elem.to_dense(params, basis, mono)
    for i, sti in enumerate(cfg_b.states):
        for j, stj in enumerate(cfg_b.states):
            res = ff.ff_elementary(params, basis, sti, stj, elem)
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
    for i, j in ((0, 1), (3, 9), (12, 20)):
        v1 = ff.ff_u(cfg_a.params, cfg_a.basis, cfg_a.states[i], cfg_a.states[j], 1).value
        # identify the matching states in the rebuilt bundle by eigenvalue
        def match(st):
            key = min(range(len(other.states)), key=lambda m: sum(
                abs(other.states[m].t_coeffs[dg] - st.t_coeffs[dg])
                for dg in st.t_coeffs))
            return other.states[key]
        v2 = ff.ff_u(other.params, other.basis, match(cfg_a.states[i]),
                     match(cfg_a.states[j]), 1).value
        assert abs(v1 - v2) <= 1e-7 * max(abs(v1), 1e-300)


def test_npoint_single_insertion_reduces_to_form_factor(cfg_a):
    u1 = embedded_u(cfg_a.params, 1)
    val = ff.npoint(cfg_a, 0, [u1])
    dense = (cfg_a.covs[0] @ u1 @ cfg_a.vecs[0]) / cfg_a.norms[0]
    assert abs(val - dense) <= 1e-9 * max(abs(dense), 1e-300)


def test_npoint_two_point_expansion(desk_bundles):
    for bundle in desk_bundles.values():
        u1 = embedded_u(bundle.params, 1)
        for idx in (0, len(bundle.states) // 2):
            val = ff.npoint(bundle, idx, [u1, u1])
            dense = (bundle.covs[idx] @ u1 @ u1 @ bundle.vecs[idx]) / bundle.norms[idx]
            scale = max(abs(dense), abs(val),
                        _pair_scale(bundle, idx, idx) / abs(bundle.norms[idx]))
            assert abs(val - dense) <= 1e-6 * scale


def test_npoint_two_point_with_determinant_route(cfg_a):
    params, basis = cfg_a.params, cfg_a.basis
    u1 = embedded_u(cfg_a.params, 1)

    def det_me(bra, ket):
        return ff.ff_u(params, basis, bra, ket, 1).value

    val = ff.npoint(cfg_a, 2, [u1, u1], me_fns=[det_me, det_me])
    dense = (cfg_a.covs[2] @ u1 @ u1 @ cfg_a.vecs[2]) / cfg_a.norms[2]
    assert abs(val - dense) <= 1e-6 * max(abs(dense), 1e-300)


def test_npoint_mixed_operators_even_chain(cfg_b):
    u1 = embedded_u(cfg_b.params, 1)
    v2 = lo.reconstruct_v2k(cfg_b.params, 1, 1)
    for idx in (0, 4):
        val = ff.npoint(cfg_b, idx, [u1, v2])
        dense = (cfg_b.covs[idx] @ u1 @ v2 @ cfg_b.vecs[idx]) / cfg_b.norms[idx]
        scale = max(abs(dense), abs(val), 1e-6)
        assert abs(val - dense) <= 1e-6 * scale


def test_npoint_requires_full_spectrum(cfg_a):
    u1 = embedded_u(cfg_a.params, 1)
    with pytest.raises(ss.IncompleteSpectrum):
        ff.npoint(short_spectrum(cfg_a, 2), 0, [u1, u1])
