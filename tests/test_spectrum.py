"""Transfer spectrum, functional-equation verifier and the two routes to
the Baxter function."""

import numpy as np
import pytest

from sgsov import model_core as mc
from sgsov import sov_basis as sb
from sgsov import spectrum as sp
from sgsov.params import ModelParams
from sgsov.spectrum import eval_t, polyval_ascending

from conftest import SEED, eigenstates, q_grids


def test_state_count_and_simplicity(desk_bundles):
    for bundle in desk_bundles.values():
        assert len(bundle.states) == bundle.params.dim


def test_single_site_spectrum_is_constant(n1):
    assert n1.params.n_bar == 0
    for st in eigenstates(n1):
        assert st.t_coeffs.shape == (1,)
    vals = sorted(n1.states.t_rows[:, 0].real)
    assert len(set(np.round(vals, 8))) == 3


def test_eigen_relation_at_fresh_points(desk_bundles):
    for bundle in desk_bundles.values():
        lam = bundle.params.spectral_samples(bundle.rng(301), 1)[0]
        T = mc.transfer(bundle.mono, lam)
        for st in eigenstates(bundle):
            res = np.linalg.norm(T @ st.vec_right - eval_t(st.t_coeffs, lam) * st.vec_right)
            assert res <= 1e-8 * mc.frob(T) * np.linalg.norm(st.vec_right)
            resl = np.linalg.norm(st.vec_left @ T - eval_t(st.t_coeffs, lam) * st.vec_left)
            assert resl <= 1e-8 * mc.frob(T) * np.linalg.norm(st.vec_left)


def test_eigenvalue_coefficients_real(desk_bundles):
    for bundle in desk_bundles.values():
        assert bundle.params.self_adjoint
        scale = max(max(abs(c) for c in st.t_coeffs)
                    for st in eigenstates(bundle))
        for st in eigenstates(bundle):
            for c in st.t_coeffs:
                assert abs(c.imag) <= 1e-8 * scale


def test_theta_sector_matches_asymptotics(cfg_b):
    params = cfg_b.params
    pref = np.prod(np.asarray(params.kappa) / (1j * np.asarray(params.xi)))
    # on an even chain the top column of a coefficient row is degree n_bar = N
    for st, got in zip(eigenstates(cfg_b), cfg_b.states.t_rows[:, -1]):
        expect = pref * (params.q ** st.theta_m + params.q ** (-st.theta_m))
        assert abs(got - expect) <= 1e-8 * max(abs(expect), 1.0)


def test_functional_equation_accepts_spectrum(desk_bundles):
    for bundle in desk_bundles.values():
        for st in eigenstates(bundle):
            res = sp.check_functional_equation(bundle.params, st.t_coeffs,
                                               bundle.rng(302))
            assert res <= 1e-8


def test_functional_equation_rejects_perturbation(desk_bundles):
    for bundle in desk_bundles.values():
        st = bundle.states.eigenstate(0)
        worst = 0.0
        for pert in st.t_coeffs + 0.1 * np.eye(len(st.t_coeffs)):
            worst = max(worst, sp.check_functional_equation(
                bundle.params, pert, bundle.rng(302)))
        assert worst > 1e-3


def test_functional_equation_discrimination_margin(cfg_a):
    st = cfg_a.states.eigenstate(0)
    true = sp.check_functional_equation(cfg_a.params, st.t_coeffs, cfg_a.rng(303))
    pert = st.t_coeffs + 0.1 * np.eye(len(st.t_coeffs))[0]    # the lowest degree
    rej = sp.check_functional_equation(cfg_a.params, pert, cfg_a.rng(303))
    assert rej >= 1e5 * max(true, 1e-300)


def test_wavefunction_factorization(desk_bundles):
    for bundle in desk_bundles.values():
        resid = q_grids(bundle)[3]
        assert np.all(resid <= 1e-7)


def test_discrete_difference_relations_on_grid(desk_bundles):
    for bundle in desk_bundles.values():
        params, basis = bundle.params, bundle.basis
        psis = q_grids(bundle)[0]
        for st, psi in zip(eigenstates(bundle), psis):
            pmax = np.max(np.abs(psi))
            for j in range(params.dim):
                tup = basis.params.tuples[j]
                for r in range(params.n_separate):
                    eta = basis.grid.grid[r, tup[r]]
                    lhs = eval_t(st.t_coeffs, eta) * psi[j]
                    rhs = mc.a_coeff(params, eta) * psi[basis.shifted_index(j, r, -1)] \
                        + mc.d_coeff(params, eta) * psi[basis.shifted_index(j, r, +1)]
                    assert abs(lhs - rhs) <= 1e-8 * max(abs(lhs), abs(rhs), pmax)


def test_reference_direction_charge_phases(cfg_b):
    params = cfg_b.params
    _, q_grid, anchors, _, _ = q_grids(cfg_b)
    for st, ratios, anchor in zip(eigenstates(cfg_b), q_grid, anchors[:, -1]):
        expect = params.q ** (-st.theta_m * (np.arange(params.p) - anchor))
        assert np.max(np.abs(ratios[-1] - expect)) <= 1e-7


def test_baxter_polynomial_solves_difference_equation(desk_bundles):
    for bundle in desk_bundles.values():
        params = bundle.params
        pts = params.spectral_samples(bundle.rng(304), 7)
        for st in eigenstates(bundle):
            for lam in pts:
                lhs = eval_t(st.t_coeffs, lam) * polyval_ascending(st.q_poly, lam)
                rhs = mc.a_coeff(params, lam) * polyval_ascending(st.q_poly, lam / params.q) \
                    + mc.d_coeff(params, lam) * polyval_ascending(st.q_poly, lam * params.q)
                assert abs(lhs - rhs) <= 1e-8 * max(abs(lhs), abs(rhs),
                                                    abs(polyval_ascending(st.q_poly, lam)))


def test_baxter_two_routes_agree(desk_bundles):
    for bundle in desk_bundles.values():
        params, basis = bundle.params, bundle.basis
        _, q_grid, anchors, _, _ = q_grids(bundle)
        for st, ratios, anchor in zip(eigenstates(bundle), q_grid, anchors):
            for a in range(params.n_separate):
                pv = polyval_ascending(st.q_poly, basis.grid.grid[a])
                rp = pv / pv[anchor[a]]
                rg = ratios[a] / ratios[a][anchor[a]]
                assert np.max(np.abs(rp - rg)) <= 1e-6 * max(np.max(np.abs(rp)), 1e-300)


def test_baxter_structure_constraints(desk_bundles):
    for bundle in desk_bundles.values():
        params = bundle.params
        p, N = params.p, params.n_sites
        for st in eigenstates(bundle):
            coeffs = st.q_poly
            assert coeffs.shape == ((p - 1) * N + 1,)
            deg = np.flatnonzero(coeffs)[-1]
            assert deg <= (p - 1) * N
            b_t = (p - 1) * N - deg
            trailing = next(k for k in range(len(coeffs))
                            if abs(coeffs[k]) > 1e-8 * np.max(np.abs(coeffs)))
            if params.even_chain:
                sector = {st.theta_m % p, (p - st.theta_m) % p}
                assert trailing % p in sector
                assert b_t % p in sector
            else:
                assert trailing == 0
                assert b_t % p == 0
            assert abs(coeffs[deg] - 1.0) <= 1e-12  # leading-one normalization


def test_conjugate_polynomial_solves_partner_equation(desk_bundles):
    for bundle in desk_bundles.values():
        params = bundle.params
        pts = params.spectral_samples(bundle.rng(305), 5)
        for st in eigenstates(bundle)[:6]:
            qb = st.qbar_poly
            for lam in pts:
                lhs = eval_t(st.t_coeffs, lam) * polyval_ascending(qb, lam)
                rhs = mc.dbar_coeff(params, lam) * polyval_ascending(qb, lam / params.q) \
                    + mc.abar_coeff(params, lam) * polyval_ascending(qb, lam * params.q)
                assert abs(lhs - rhs) <= 1e-8 * max(abs(lhs), abs(rhs),
                                                    abs(polyval_ascending(qb, lam)))


def test_nullspace_dimension_reported(desk_bundles):
    for bundle in desk_bundles.values():
        for st in eigenstates(bundle):
            assert st.nullspace_dim >= 1


def test_no_solution_for_invalid_eigenvalue(cfg_a):
    t_coeffs = cfg_a.states.t_rows[0]
    pert = t_coeffs + 0.1 * np.eye(len(t_coeffs))[0]    # the lowest degree
    with pytest.raises(sp.EmptyNullspace):
        sp.fit_Q_polynomial(cfg_a.params, pert)


@pytest.mark.parametrize("name", ["cfg_a", "cfg_b"])
def test_b_zeros_and_the_baxter_fit_draw_no_points(name, request, monkeypatch):
    sol = request.getfixturevalue(name)
    t_coeffs = sol.states.t_rows
    calls = []
    draw = ModelParams.spectral_samples
    monkeypatch.setattr(ModelParams, "spectral_samples",
                        lambda *a, **k: calls.append(a) or draw(*a, **k))
    sb.b_zeros(sol.params)
    polys, _, _ = sp.fit_Q_polynomials(sol.params, t_coeffs)
    assert calls == []
    assert np.array_equal(polys, sol.states.q_poly)


def test_mixed_eigenvector_fails_the_residual_check(cfg_a, monkeypatch):
    # an eigenvector mixed with another one of its sector still gets the
    # right Rayleigh labels, so only the eigen-residual at a fresh point
    # can catch it
    eig = np.linalg.eig

    def mixed_eig(a):
        w, v = eig(a)
        order = np.argsort(w.real * 1e6 + w.imag)
        v[:, order[0]] += 0.3 * v[:, order[1]]
        return w, v

    monkeypatch.setattr(np.linalg, "eig", mixed_eig)
    with pytest.raises(sp.DegenerateSpectrum, match="eigenvector residual"):
        sp.diagonalize_transfer(cfg_a.params, cfg_a.mono, rng=cfg_a.rng(2))


def test_stretch_spectrum_complete(stretch):
    assert len(stretch.states) == 125
    for st in eigenstates(stretch)[:10]:
        assert sp.check_functional_equation(stretch.params, st.t_coeffs,
                                            stretch.rng(307)) <= 1e-8


def _plain_eigensystem(params, mono, rng):
    """The route without the digit parity: one ``eig`` per charge sector at
    the same point, states sorted by ``w.real * 1e6 + w.imag`` within each
    sector, L = R^-1 and the t rows as Rayleigh pairings."""
    d = params.dim
    T0 = mc.transfer(mono, params.spectral_samples(rng, 1)[0])
    sectors = mono.A.sectors if params.even_chain else np.arange(d)[None]
    R = np.zeros((d, d), dtype=complex)
    for m, idx in enumerate(sectors):
        w, v = np.linalg.eig(T0[np.ix_(idx, idx)])
        R[idx, m * len(idx):(m + 1) * len(idx)] = v[:, np.argsort(w.real * 1e6 + w.imag)]
    L = np.linalg.inv(R)
    t_rows = np.stack([sb.rayleigh_pairings(L, mono.A.coeff(g) + mono.D.coeff(g), R)
                       for g in range(-params.n_bar, params.n_bar + 1, 2)], axis=1)
    return t_rows / np.sum(L * R.T, axis=1)[:, None], np.repeat(np.arange(len(sectors)),
                                                               sectors.shape[1]), R, L


@pytest.mark.parametrize("name", ["cfg_a", "hom3", "stretch", "cfg_b"])
def test_parity_blocks_agree_with_the_plain_route(name, request):
    sol = request.getfixturevalue(name)
    params, mono = sol.params, sol.mono
    assert sp.diagonalization_point(params, mono, sol.rng(2))[1]
    t_rows, theta_m, R, L = sp.transfer_eigensystem(params, mono, sol.rng(2))
    plain_t, plain_m, _, _ = _plain_eigensystem(params, mono, sol.rng(2))
    assert np.array_equal(theta_m, plain_m)
    # row by row, so the states come in the same order
    assert np.max(np.abs(t_rows - plain_t)) <= 1e-12 * np.max(np.abs(plain_t))
    assert np.max(np.abs(L @ R - np.eye(params.dim))) <= 1e-12
    neg = mc.digit_negation(params)
    # every column of a P-closed sector is P-even or P-odd
    closed = R[:, theta_m == 0]
    assert np.all(np.minimum(np.linalg.norm(closed[neg] - closed, axis=0),
                             np.linalg.norm(closed[neg] + closed, axis=0))
                  <= 1e-12 * np.linalg.norm(closed, axis=0))
    if params.even_chain:
        # sector p - m is P times sector m, states in the same order
        for m in range(1, params.p):
            assert np.array_equal(R[:, theta_m == params.p - m], R[neg][:, theta_m == m])


def test_chain_with_site_phases_takes_the_plain_route():
    params = ModelParams(3, 3, 2, kappa=[1.1j, 1.3j, 0.7j], xi=[1.0, 1.2, 0.9],
                         u=np.exp(1j * np.array([0.3, -0.7, 1.1])),
                         v=np.exp(1j * np.array([0.5, 0.2, -0.9])))
    mono = mc.monodromy(params)
    seq = np.random.SeedSequence([SEED, 2])
    T0, split = sp.diagonalization_point(params, mono, np.random.default_rng(seq))
    assert not split
    assert sp.digit_parity_defect(T0, mc.digit_negation(params)) > 1e-3
    t_rows, _, R, _ = sp.transfer_eigensystem(params, mono, np.random.default_rng(seq))
    plain_t, _, plain_R, _ = _plain_eigensystem(params, mono, np.random.default_rng(seq))
    assert np.array_equal(R, plain_R)
    assert np.max(np.abs(t_rows - plain_t)) <= 1e-12 * np.max(np.abs(plain_t))


def test_eigenvectors_accurate_at_a_fresh_point_on_five_sites():
    # N=5, p=3: the eigen-residual that a faster, less accurate diagonalizer
    # would raise (eigh at a real point reads 3.5e-12 here, eig per parity
    # block 2.3e-13 and eig per sector 1.5e-13)
    params = ModelParams(5, 3, 2, kappa=[1.1j, 1.3j, 0.7j, 0.9j, 1.2j],
                         xi=[1.0, 1.2, 0.9, 1.1, 0.8])
    mono = mc.monodromy(params)
    t_rows, _, R, _ = sp.transfer_eigensystem(
        params, mono, np.random.default_rng(np.random.SeedSequence([SEED, 2])))
    lam = params.spectral_samples(np.random.default_rng(np.random.SeedSequence([SEED, 301])),
                                  1)[0]
    T = mc.transfer(mono, lam)
    res = np.linalg.norm(T @ R - eval_t(t_rows, lam) * R, axis=0)
    assert np.max(res / np.linalg.norm(R, axis=0)) <= 1e-12 * np.linalg.norm(T, 2)
