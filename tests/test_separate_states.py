"""Separate states, scalar-product determinants, orthogonality and the
eigenbasis resolution of the identity."""

import numpy as np
import pytest

from sgsov import model_core as mc
from sgsov import separate_states as ss

from conftest import eigenstates, short_spectrum


def _random_state(bundle, rng, side):
    params = bundle.params
    coeff = rng.standard_normal((params.n_separate, params.p)) \
        + 1j * rng.standard_normal((params.n_separate, params.p))
    m = int(rng.integers(0, params.p)) if params.even_chain else 0
    return ss.SeparateState(side, coeff, m)


def test_materialize_is_linear_in_each_row(cfg_a):
    rng = cfg_a.rng(401)
    st = _random_state(cfg_a, rng, "right")
    base = ss.materialize(st, cfg_a.basis)
    st2 = ss.SeparateState("right", st.coeff.copy(), st.theta_m)
    st2.coeff[1] *= 2.5 - 1.0j
    scaled = ss.materialize(st2, cfg_a.basis)
    assert np.linalg.norm(scaled - (2.5 - 1.0j) * base) <= 1e-12 * np.linalg.norm(base)


def test_materialize_single_slice(cfg_a):
    # one nonzero entry per row selects a single grid column of labels
    params, basis = cfg_a.params, cfg_a.basis
    coeff = np.zeros((params.n_separate, params.p), dtype=complex)
    coeff[:, 1] = 1.0
    vec = ss.materialize(ss.SeparateState("right", coeff), basis)
    j = basis.params.flat_indices([1] * params.n_sites)
    expect = basis.right[:, j]
    overlap = abs(np.vdot(vec, expect)) / (np.linalg.norm(vec) * np.linalg.norm(expect))
    assert overlap >= 1 - 1e-12


def test_scalar_product_determinant_vs_dense(desk_bundles):
    for bundle in desk_bundles.values():
        rng = bundle.rng(402)
        basis = bundle.basis
        for _ in range(20):
            a_st = _random_state(bundle, rng, "left")
            b_st = _random_state(bundle, rng, "right")
            cov = ss.materialize(a_st, basis)
            vec = ss.materialize(b_st, basis)
            dense = cov @ vec
            det = ss.scalar_product_det(a_st, b_st, bundle.grid)
            scale = max(abs(det), np.linalg.norm(cov) * np.linalg.norm(vec))
            assert abs(dense - det) <= 1e-8 * scale


def test_scalar_product_sector_rule(cfg_b):
    rng = cfg_b.rng(403)
    basis = cfg_b.basis
    for ml in range(3):
        for mr in range(3):
            a_st = _random_state(cfg_b, rng, "left")
            b_st = _random_state(cfg_b, rng, "right")
            a_st.theta_m, b_st.theta_m = ml, mr
            det = ss.scalar_product_det(a_st, b_st, cfg_b.grid)
            dense = ss.materialize(a_st, basis) @ ss.materialize(b_st, basis)
            if ml != mr:
                assert det == 0.0
                scale = np.linalg.norm(ss.materialize(a_st, basis)) \
                    * np.linalg.norm(ss.materialize(b_st, basis))
                assert abs(dense) <= 1e-9 * scale
            else:
                assert abs(dense - det) <= 1e-8 * max(abs(det), 1e-300)


def test_scalar_product_vanishing_first_moment(cfg_a):
    # making every row's zeroth moment vanish kills the first column of the
    # moment matrix and hence the determinant
    params, basis, grid = cfg_a.params, cfg_a.basis, cfg_a.grid
    rng = cfg_a.rng(404)
    beta = _random_state(cfg_a, rng, "right")
    alpha = _random_state(cfg_a, rng, "left")
    for a in range(params.n_separate):
        w = beta.coeff[a] / grid.omega[a]
        alpha.coeff[a] = alpha.coeff[a] - (np.sum(alpha.coeff[a] * w) / np.sum(w * w)) * w
        assert abs(np.sum(alpha.coeff[a] * beta.coeff[a] / grid.omega[a])) <= 1e-10
    det = ss.scalar_product_det(alpha, beta, grid)
    dense = ss.materialize(alpha, basis) @ ss.materialize(beta, basis)
    scale = np.linalg.norm(ss.materialize(alpha, basis)) \
        * np.linalg.norm(ss.materialize(beta, basis))
    assert abs(det) <= 1e-10 * scale
    assert abs(dense) <= 1e-8 * scale


def test_eigenstate_pairing_det_vs_dense(desk_bundles):
    for bundle in desk_bundles.values():
        for i, st in enumerate(eigenstates(bundle)):
            dense = bundle.covs[i] @ bundle.vecs[i]
            det = ss.eigen_action(bundle.basis, st, st)
            assert abs(dense - det) <= 1e-8 * abs(dense)


def test_eigenstate_orthogonality(desk_bundles):
    for bundle in desk_bundles.values():
        params, basis = bundle.params, bundle.basis
        states = eigenstates(bundle)
        diag = [abs(ss.eigen_action(basis, st, st)) for st in states]
        for i, si in enumerate(states):
            for j, sj in enumerate(states):
                if i == j:
                    continue
                val = ss.eigen_action(basis, si, sj)
                if params.even_chain and si.theta_m != sj.theta_m:
                    assert val == 0.0
                    continue
                assert abs(val) <= 1e-8 * np.sqrt(diag[i] * diag[j])


def test_orthogonality_null_vector(desk_bundles):
    for bundle in desk_bundles.values():
        params, basis = bundle.params, bundle.basis
        states = eigenstates(bundle)
        diag = [abs(ss.eigen_action(basis, st, st)) for st in states]
        nsep = params.n_separate
        for i, si in enumerate(states):
            for j, sj in enumerate(states):
                if i == j or (params.even_chain and si.theta_m != sj.theta_m):
                    continue
                phi = ss.phi_matrix(bundle.grid, si, sj)
                V = ss.t_coeff_null_vector(params, bundle.states.t_rows[i],
                                           bundle.states.t_rows[j])
                ref = max(mc.frob(phi),
                          (diag[i] * diag[j]) ** (0.5 * (nsep - 1) / nsep)
                          if nsep > 1 else np.sqrt(diag[i] * diag[j]))
                assert np.linalg.norm(phi @ V) <= 1e-8 * ref * np.linalg.norm(V)


def test_identity_resolution_eigenbasis(desk_bundles):
    tols = {"n1": 1e-10, "cfg_b": 1e-8, "cfg_a": 1e-7}
    for name, bundle in desk_bundles.items():
        d = bundle.params.dim
        ident = ss.identity_resolution_T(bundle)
        assert mc.frob(ident - np.eye(d)) <= tols[name] * d


def test_identity_resolution_requires_full_spectrum(cfg_a):
    with pytest.raises(ss.IncompleteSpectrum):
        ss.identity_resolution_T(short_spectrum(cfg_a, 1))


def test_eigen_action_equals_dense_cross_pairings(cfg_a):
    states = eigenstates(cfg_a)
    for i in (0, 5, 11):
        for j in (0, 3, 20):
            dense = cfg_a.covs[i] @ cfg_a.vecs[j]
            det = ss.eigen_action(cfg_a.basis, states[i], states[j])
            scale = max(abs(dense), abs(det),
                        np.linalg.norm(cfg_a.covs[i]) * np.linalg.norm(cfg_a.vecs[j]))
            assert abs(dense - det) <= 1e-8 * scale


def test_hermitian_dual_proportionality(desk_bundles):
    # self-adjoint family: the conjugate of the right eigenstate is the left
    # one up to the norm ratio
    for bundle in desk_bundles.values():
        assert bundle.params.self_adjoint
        for i, st in enumerate(eigenstates(bundle)):
            dual = np.conj(bundle.vecs[i])
            alpha = np.linalg.norm(bundle.vecs[i]) ** 2 / (bundle.covs[i] @ bundle.vecs[i])
            res = np.linalg.norm(dual - alpha * bundle.covs[i])
            assert res <= 1e-7 * np.linalg.norm(dual)


def test_moment_matrix_entries_match_direct_sum(cfg_a):
    grid = cfg_a.grid
    st1, st2 = cfg_a.states.eigenstate(2), cfg_a.states.eigenstate(7)
    phi = ss.phi_matrix(grid, st1, st2)
    a, b = 1, 2
    direct = 0.0 + 0.0j
    for c in range(cfg_a.params.p):
        eta = grid.grid[a, c]
        direct += st1.qbar_vals[a, c] * st2.q_vals[a, c] * eta ** (2 * b) \
            / grid.omega[a, c]
    assert abs(phi[a, b] - direct) <= 1e-12 * max(abs(direct), 1e-300)
