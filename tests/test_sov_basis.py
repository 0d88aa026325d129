"""Operator zeros of the B family, label bookkeeping, basis calibration,
measure and the separated resolution of the identity."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sgsov import model_core as mc
from sgsov import sov_basis as sb

from sgsov.params import ModelParams

from conftest import SEED, eigenstates, n1_params, cfg_a_params


@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("n_sites", [1, 2, 3])
def test_label_encoding_owner(p, n_sites):
    params = ModelParams(n_sites, p, 2, kappa=[1.1j] * n_sites, xi=[1.0] * n_sites)
    tup, d = params.tuples, params.dim
    assert tup.shape == (d, n_sites)
    assert np.array_equal(params.flat_indices(tup), np.arange(d))
    assert len({tuple(h) for h in tup}) == d
    # site 1 runs fastest
    assert tuple(tup[1]) == (1,) + (0,) * (n_sites - 1)
    if n_sites > 1:
        assert tuple(tup[p]) == (0, 1) + (0,) * (n_sites - 2)
    # digits are taken mod p
    assert np.array_equal(params.flat_indices(tup + p), np.arange(d))
    assert np.array_equal(params.flat_indices(tup - 2 * p), np.arange(d))
    up, down = params.shifted_indices(+1), params.shifted_indices(-1)
    assert up.shape == down.shape == (d, n_sites)
    for a in range(n_sites):
        assert np.array_equal(np.sort(up[:, a]), np.arange(d))
        assert np.array_equal(down[up[:, a], a], np.arange(d))
        assert np.array_equal(up[down[:, a], a], np.arange(d))
        moved = tup[up[:, a]]
        assert np.array_equal(moved[:, a], (tup[:, a] + 1) % p)
        assert np.array_equal(np.delete(moved, a, axis=1), np.delete(tup, a, axis=1))
    with pytest.raises(ValueError):
        tup[0, 0] = 1


def test_odd_chain_sectors_are_integer_zero(cfg_a):
    assert not cfg_a.params.even_chain
    assert all(type(st.theta_m) is int and st.theta_m == 0 for st in eigenstates(cfg_a))
    assert np.array_equal(cfg_a.states.theta_m, np.zeros(cfg_a.params.dim, dtype=int))


def test_single_site_zero_is_xi_cubed():
    params = n1_params()
    grid = sb.b_zeros(params)
    assert abs(grid.z[0] - 1.1 ** 3) <= 1e-12
    assert abs(grid.eta0[0] ** 3 - grid.z[0]) <= 1e-12


def test_zero_collision_guard():
    with pytest.raises(sb.SimplicityViolation):
        sb.b_zeros(cfg_a_params(), rel_gap=10.0)


def test_average_vanishes_at_returned_zeros(cfg_a):
    grid = cfg_a.basis.grid
    ref = abs(mc.average_value(cfg_a.params, "B",
                               1.5 * np.max(np.abs(grid.z))))
    for a in range(cfg_a.params.n_separate):
        assert abs(mc.average_value(cfg_a.params, "B", grid.z[a])) <= 1e-9 * ref


def test_squared_zeros_conjugation_closed(cfg_a):
    zsq = cfg_a.basis.grid.z[: cfg_a.params.n_separate] ** 2
    scale = np.max(np.abs(zsq))
    for z in zsq:
        assert np.min(np.abs(zsq - np.conj(z))) <= 1e-9 * scale


def test_root_squares_real_or_paired(desk_bundles):
    for bundle in desk_bundles.values():
        sq = bundle.basis.grid.eta0 ** 2
        scale = np.max(np.abs(sq))
        for v in sq:
            real_ok = abs(v.imag) <= 1e-8 * scale
            paired = np.min(np.abs(sq - np.conj(v))) <= 1e-8 * scale
            assert real_ok or paired


def test_grid_is_power_consistent(desk_bundles):
    for bundle in desk_bundles.values():
        grid = bundle.basis.grid
        p = bundle.params.p
        for a in range(bundle.params.n_sites):
            for h in range(p):
                assert abs(grid.grid[a, h] ** p - grid.z[a]) <= 1e-10 * abs(grid.z[a])


def test_left_covectors_are_b_eigenvectors(desk_bundles):
    for bundle in desk_bundles.values():
        params, basis, mono = bundle.params, bundle.basis, bundle.mono
        rng = bundle.rng(201)
        for lam in params.spectral_samples(rng, 3, exclude=basis.grid.grid.reshape(-1)):
            B = mono.B.evaluate(lam)
            pats = sb.b_pattern(params, basis.grid, basis.params.tuples, lam)
            res = np.linalg.norm(basis.left @ B - pats[:, None] * basis.left, axis=1)
            rel = res / (np.linalg.norm(B) * np.linalg.norm(basis.left, axis=1))
            assert np.max(rel) <= 1e-8


def test_label_assignment_is_bijective(cfg_a):
    # every tuple occurs exactly once and the pattern match is tight
    params, basis, mono = cfg_a.params, cfg_a.basis, cfg_a.mono
    lam = params.spectral_samples(cfg_a.rng(202), 1,
                                  exclude=basis.grid.grid.reshape(-1))[0]
    B = mono.B.evaluate(lam)
    pats = sb.b_pattern(params, basis.grid, basis.params.tuples, lam)
    measured = np.array([(basis.left[j] @ B @ basis.right[:, j]) / basis.mjj[j]
                         for j in range(params.dim)])
    assert np.max(np.abs(measured - pats) / np.max(np.abs(pats))) <= 1e-8


def _probe_ops(sol, seed):
    params, mono = sol.params, sol.mono
    pts = params.spectral_samples(np.random.default_rng(seed), params.n_separate + 1,
                                  exclude=sol.basis.grid.grid.reshape(-1))
    return [(lam, mono.B.at(lam)) for lam in pts]


def test_labeling_of_foreign_probes_fails_after_one_eig(cfg_a, hom3, monkeypatch):
    # hom3's B operators (same d = 27) match none of cfg_a's patterns; the
    # labeling refuses at once and names the mismatch and the conditioning
    assert hom3.params.dim == cfg_a.params.dim
    grid, b_ops = cfg_a.basis.grid, _probe_ops(hom3, 5)
    calls, eig = [], np.linalg.eig
    monkeypatch.setattr(np.linalg, "eig", lambda a: calls.append(a.shape) or eig(a))
    with pytest.raises(sb.DegenerateSpectrum,
                       match=r"mismatch above bound.*worst pattern mismatch \d\.\d+e[+-]\d+ "
                             r".*condition number \d\.\d+e[+-]\d+"):
        sb._label_eigenvectors(cfg_a.params, grid, b_ops, np.random.default_rng(6))
    assert len(calls) == 1


def test_labeling_refuses_a_nearest_match_that_is_not_a_bijection(cfg_a, monkeypatch):
    # a label of label 0's charge sector (the labels of one sector are matched
    # against one block) predicted with label 0's pattern: both pick one
    # eigenvector
    grid, b_ops, pattern = cfg_a.basis.grid, _probe_ops(cfg_a, 5), sb.b_pattern
    tuples, p = cfg_a.params.tuples, cfg_a.params.p
    twin = next(j for j in range(1, len(tuples)) if tuples[j].sum() % p == 0)

    def twin_copies_label_0(params, grid, tuples, lam):
        out = pattern(params, grid, tuples, lam)
        out[twin] = out[0]
        return out

    monkeypatch.setattr(sb, "b_pattern", twin_copies_label_0)
    with pytest.raises(sb.DegenerateSpectrum, match="not a bijection.*condition number"):
        sb._label_eigenvectors(cfg_a.params, grid, b_ops, np.random.default_rng(6))


@pytest.mark.parametrize("chain", ["n1", "cfg_a", "hom3", "stretch"])
def test_per_block_labeling_assigns_as_one_global_eig(chain, request):
    # odd chains label per charge block; one global eig of the same random
    # combination S of the probes, matched over all labels, gives every label
    # the same eigenvector (up to the calibration scale)
    sol = request.getfixturevalue(chain)
    params, basis, mono = sol.params, sol.basis, sol.mono
    rng = sol.rng(1)                          # the stream of build_sov_basis
    probes = params.spectral_samples(rng, params.n_separate + 1,
                                     exclude=basis.grid.grid.reshape(-1))
    c = rng.standard_normal(len(probes)) + 1j * rng.standard_normal(len(probes))
    ops = [mono.B.evaluate(lam) for lam in probes]
    S = sum(ci * op for ci, op in zip(c, ops))
    _, R = np.linalg.eig(S)
    Linv = np.linalg.inv(R)
    measured = np.stack([np.einsum("ij,jk,ki->i", Linv, op, R) for op in ops], axis=1)
    patterns = np.stack([sb.b_pattern(params, basis.grid, params.tuples, lam)
                         for lam in probes], axis=1)
    cost = np.linalg.norm(measured[None] - patterns[:, None], axis=2) \
        / np.linalg.norm(patterns, axis=1)[:, None]
    perm = np.argmin(cost, axis=1)
    assert np.unique(perm).size == params.dim
    assert np.max(cost[np.arange(params.dim), perm]) < sb.LABEL_TOL
    glob = R[:, perm]
    cos = np.abs(np.sum(glob.conj() * basis.right, axis=0)) \
        / (np.linalg.norm(glob, axis=0) * np.linalg.norm(basis.right, axis=0))
    assert np.max(1 - cos) <= 1e-10


def test_numpy_is_the_only_third_party_import():
    # the packages that ``import sgsov`` adds to sys.modules, beyond the
    # standard library
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    code = ("import sys; before = set(sys.modules); import sgsov; "
            "print(sorted({m.split('.')[0] for m in set(sys.modules) - before}"
            " - set(sys.stdlib_module_names)))")
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "['numpy', 'sgsov']"


def test_biorthogonality(desk_bundles):
    for bundle in desk_bundles.values():
        basis = bundle.basis
        G = basis.left @ basis.right
        off = G - np.diag(np.diag(G))
        nl = np.linalg.norm(basis.left, axis=1)
        nr = np.linalg.norm(basis.right, axis=0)
        assert np.max(np.abs(off) / (nl[:, None] * nr[None, :])) <= 1e-9


def test_left_shift_relations(desk_bundles):
    # construction uses the upward shifts; the downward family is independent
    for bundle in desk_bundles.values():
        params, basis, mono = bundle.params, bundle.basis, bundle.mono
        for j in range(params.dim):
            tup = basis.params.tuples[j]
            for a in range(params.n_separate):
                eta = basis.grid.grid[a, tup[a]]
                target = mc.a_coeff(params, eta) \
                    * basis.left[basis.shifted_index(j, a, -1)]
                got = basis.left[j] @ mono.A.evaluate(eta)
                assert np.linalg.norm(got - target) <= \
                    1e-8 * max(np.linalg.norm(target), 1e-300)


def test_right_shift_relations(desk_bundles):
    for bundle in desk_bundles.values():
        params, basis, mono = bundle.params, bundle.basis, bundle.mono
        for j in range(params.dim):
            tup = basis.params.tuples[j]
            for a in range(params.n_separate):
                eta = basis.grid.grid[a, tup[a]]
                target = mc.dbar_coeff(params, eta) \
                    * basis.right[:, basis.shifted_index(j, a, -1)]
                got = mono.D.evaluate(eta) @ basis.right[:, j]
                assert np.linalg.norm(got - target) <= \
                    1e-8 * max(np.linalg.norm(target), 1e-300)


def test_cycle_products_match_averages(desk_bundles):
    for bundle in desk_bundles.values():
        params, basis = bundle.params, bundle.basis
        for a in range(params.n_separate):
            dprod = np.prod(mc.d_coeff(params, basis.grid.grid[a]))
            dav = mc.average_value(params, "D", basis.grid.z[a])
            assert abs(dprod - dav) <= 1e-7 * abs(dav)
            aprod = np.prod(mc.abar_coeff(params, basis.grid.grid[a]))
            aav = mc.average_value(params, "A", basis.grid.z[a])
            assert abs(aprod - aav) <= 1e-7 * abs(aav)


def test_pairing_matches_closed_form(desk_bundles):
    for bundle in desk_bundles.values():
        basis = bundle.basis
        mf = sb.mjj_formula(basis)
        assert np.max(np.abs(basis.mjj - mf) / np.abs(mf)) <= 1e-8


def test_pairing_independent_of_reference_label(cfg_b):
    # on the even chain the diagonal pairing must not see the last variable
    basis = cfg_b.basis
    p = cfg_b.params.p
    for j in range(cfg_b.params.dim):
        j0 = basis.shifted_index(j, cfg_b.params.n_sites - 1,
                                 -int(basis.params.tuples[j][-1]))
        assert abs(basis.mjj[j] - basis.mjj[j0]) <= 1e-9 * abs(basis.mjj[j0])


def test_measure_nonzero_but_not_positive(cfg_a):
    measure = cfg_a.basis.measure
    assert np.min(np.abs(measure)) > 0
    # the weights are genuinely complex: not a probability measure
    assert np.max(np.abs(measure.imag)) > 1e-6 * np.max(np.abs(measure))


def test_identity_resolution(desk_bundles):
    tols = {"n1": 1e-12, "cfg_b": 1e-9, "cfg_a": 1e-8}
    for name, bundle in desk_bundles.items():
        d = bundle.params.dim
        ident = sb.sov_diagonal(bundle.basis)
        assert mc.frob(ident - np.eye(d)) <= tols[name] * d


def test_identity_resolution_explicit_weights(desk_bundles):
    for bundle in desk_bundles.values():
        basis = bundle.basis
        w = basis.vandermonde_weights / basis.grid.c_ref
        ident = (basis.right * w[None, :]) @ basis.left
        d = bundle.params.dim
        assert mc.frob(ident - np.eye(d)) <= 1e-8 * d
        assert np.max(np.abs(w - basis.measure) / np.abs(w)) <= 1e-8


def test_reference_shift_closes_cycle(cfg_b):
    # labels shift around the reference direction with unit phases: the
    # grading charge acts as the exact unit lowering shift on covectors
    basis, params = cfg_b.basis, cfg_b.params
    theta = mc.theta_charge(params)
    for j in range(params.dim):
        got = basis.left[j] @ theta
        ref = basis.left[basis.shifted_index(j, params.n_sites - 1, -1)]
        assert np.linalg.norm(got - ref) <= 1e-8 * np.linalg.norm(ref)


def test_b_zeros_well_conditioned_on_long_chain(monkeypatch):
    # the zeros of the averaged B entry come from its exact Laurent
    # coefficients, with no linear solve; with a Vandermonde fit on nodes
    # paired as +-Lambda an N=5 chain lost the conjugate pairing of its zeros
    solves = []
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda *a: solves.append(a) or solve(*a))
    params = ModelParams(5, 3, 2, kappa=[1.1j, 1.3j, 0.7j, 0.9j, 1.2j],
                         xi=[1.0, 1.2, 0.9, 1.1, 0.8])
    grid = sb.b_zeros(params)
    assert grid.z.shape == (5,)
    assert solves == []
    ref = abs(mc.average_value(params, "B", 1.5 * np.max(np.abs(grid.z))))
    for z in grid.z:
        assert abs(mc.average_value(params, "B", z)) <= 1e-12 * ref


@pytest.mark.parametrize("n_sites", [12, 13])
def test_b_zeros_builds_no_table_per_label(n_sites):
    # the grid holds no table indexed by the p^N labels and never builds
    # them: on the ladder chain at N = 13 a (p^N, nsep) table would have
    # 2.1e7 entries, against at most N^3 p^3 for every grid table
    k = np.arange(n_sites)
    params = ModelParams(n_sites, 3, 2, kappa=1j * (0.7 + 0.1 * k), xi=0.85 + 0.06 * k)
    grid = sb.b_zeros(params)
    sizes = {f: a.size for f, a in vars(grid).items() if isinstance(a, np.ndarray)}
    assert max(sizes.values()) <= (n_sites * params.p) ** 3, sizes
    assert "tuples" not in vars(params)


@pytest.mark.parametrize("n_sites, p, kappa, xi", [
    pytest.param(2, 3, [1.1j, 0.8j], [1.0, 1.3], id="3"),
    pytest.param(2, 5, [1.1j, 0.8j], [1.0, 1.3], id="5"),
    # the chain of perfbench/configs/dense_wall_even.json at p = 3: nsep = 3
    pytest.param(4, 3, [1.1j, 1.3j, 0.7j, 0.9j], [1.0, 1.2, 0.9, 1.1], id="N4-p3"),
])
def test_reference_shift_on_both_sides(n_sites, p, kappa, xi):
    # on vectors the charge is the unit raising shift.  The slices k_N >= 1 are
    # built as charge images of the slice k_N = 0, so this holds across the
    # whole label set only if theta**p = 1 wraps the last slice onto the first
    params = ModelParams(n_sites, p, 2, kappa=kappa, xi=xi)
    basis = sb.build_sov_basis(params, mc.monodromy(params), np.random.default_rng(SEED))
    theta = mc.theta_charge(params)
    n_ref = params.n_sites - 1
    for j in range(params.dim):
        down = basis.left[basis.shifted_index(j, n_ref, -1)]
        up = basis.right[:, basis.shifted_index(j, n_ref, +1)]
        assert np.linalg.norm(basis.left[j] @ theta - down) <= 1e-8 * np.linalg.norm(down)
        assert np.linalg.norm(theta @ basis.right[:, j] - up) <= 1e-8 * np.linalg.norm(up)


def test_reference_closure_guards_the_charge_images(cfg_b, monkeypatch):
    # the slices k_N >= 1 are charge images of the slice k_N = 0; with the
    # wrong charge the A(lam) step around the reference direction must not close
    params = cfg_b.params
    theta = mc.theta_charge(params)
    monkeypatch.setattr(mc, "theta_charge", lambda params: theta @ theta)
    with pytest.raises(sb.GaugeInconsistency, match="reference-direction cycle fails to close"):
        sb.build_sov_basis(params, cfg_b.mono, np.random.default_rng(SEED))


def test_label_shifts_invert_and_close(cfg_a):
    basis = cfg_a.basis
    p = cfg_a.params.p
    for j in (0, 7, 13, 26):
        for a in range(cfg_a.params.n_sites):
            assert basis.shifted_index(basis.shifted_index(j, a, +1), a, -1) == j
            k = j
            for _ in range(p):
                k = basis.shifted_index(k, a, +1)
            assert k == j


def test_gauge_table(cfg_a):
    grid = cfg_a.grid
    nsep = cfg_a.params.n_separate
    expect = grid.grid[:nsep] ** (nsep - 1)
    assert np.array_equal(grid.omega, expect)


def test_stretch_basis_builds(stretch):
    d = stretch.params.dim
    assert d == 125
    ident = sb.sov_diagonal(stretch.basis)
    assert mc.frob(ident - np.eye(d)) <= 1e-8 * d
