"""The array-first preparation layers against per-label and per-pair
reference loops: spectral sampling, Baxter grid extraction, transfer
diagonalization and the B-eigenvector labeling."""

import dataclasses
import re

import numpy as np
import pytest

from sgsov.params import SgSovError
from sgsov import model_core as mc
from sgsov import sov_basis as sb
from sgsov import spectrum as sp
from sgsov.oracle import verify_solution
from sgsov.separate_states import prepare

from conftest import SEED, cfg_b_params, eigenstates, q_grids


# ---------------------------------------------------------------------------
# (a) spectral sampling
# ---------------------------------------------------------------------------

def _scalar_samples(params, rng, count, exclude=(), min_dist=1e-3,
                    mod_range=(0.5, 2.0)):
    """One (modulus, argument) pair per attempt."""
    excl = np.concatenate([np.asarray(params.mu_plus), np.asarray(params.mu_minus),
                           np.asarray(exclude, dtype=complex).reshape(-1)])
    out = []
    attempts = 0
    while len(out) < count:
        attempts += 1
        if attempts > 1000 * max(count, 1):
            raise SgSovError("spectral sampling failed: exclusion set too dense")
        r = rng.uniform(*mod_range)
        phi = rng.uniform(0.0, 2.0 * np.pi)
        lam = r * np.exp(1j * phi)
        if np.min(np.abs(excl - lam)) < min_dist:
            continue
        out.append(complex(lam))
    return out


# rings of points over the sampling annulus; at min_dist 0.05 about a third
# of the draws fall near one of them and are rejected
_DENSE = (np.linspace(0.5, 2.0, 12)[:, None]
          * np.exp(2j * np.pi * np.arange(40) / 40)).ravel()


@pytest.mark.parametrize("exclude, min_dist", [((), 1e-3), (_DENSE, 1e-3), (_DENSE, 0.05)])
@pytest.mark.parametrize("count", [0, 1, 2, 9, 40])
def test_spectral_samples_equal_scalar_loop(cfg_a, exclude, min_dist, count):
    params = cfg_a.params
    ref_rng, rng = np.random.default_rng(77), np.random.default_rng(77)
    want = _scalar_samples(params, ref_rng, count, exclude, min_dist)
    got = params.spectral_samples(rng, count, exclude, min_dist)
    assert got == want
    assert all(type(x) is complex for x in got)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_spectral_samples_rejects_in_dense_exclusion(cfg_a):
    params = cfg_a.params
    rng = np.random.default_rng(3)
    pts = np.array(params.spectral_samples(rng, 30, _DENSE, 0.05))
    assert np.min(np.abs(pts[:, None] - _DENSE[None, :])) >= 0.05
    # more than 30 pairs were drawn: some of them were rejected
    fresh = np.random.default_rng(3)
    fresh.uniform(size=60)
    assert rng.bit_generator.state != fresh.bit_generator.state


# every draw rejected; or, at min_dist 2.093, one draw in about 1500
# accepted, so the guard trips after some points are in, part-way through a
# round of the missing ones
@pytest.mark.parametrize("exclude, min_dist, seed", [(_DENSE, 10.0, 5), ((), 2.093, 0)])
def test_spectral_samples_guard_matches_scalar_loop(cfg_a, exclude, min_dist, seed):
    params = cfg_a.params
    ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
    with pytest.raises(SgSovError):
        _scalar_samples(params, ref_rng, 3, exclude, min_dist)
    with pytest.raises(SgSovError):
        params.spectral_samples(rng, 3, exclude, min_dist)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


# ---------------------------------------------------------------------------
# (b) Baxter grid extraction
# ---------------------------------------------------------------------------

def _fresh(state, vec_right=None):
    """A copy of ``state``, with another right eigenvector if given."""
    vec = state.vec_right if vec_right is None else vec_right
    return dataclasses.replace(state, vec_right=vec)


def _per_label_grid(state, basis):
    """Ratio tables and factorization residual, one label at a time."""
    p, nvar = basis.params.p, basis.params.n_sites
    psi = basis.left @ state.vec_right
    j0 = int(np.argmax(np.abs(psi)))
    anchor = basis.params.tuples[j0]
    ratios = np.zeros((nvar, p), dtype=complex)
    for a in range(nvar):
        for h in range(p):
            tup = anchor.copy()
            tup[a] = h
            ratios[a, h] = psi[basis.params.flat_indices(tup)] / psi[j0]
    predicted = np.array([np.prod([ratios[a, tup[a]] for a in range(nvar)])
                          for tup in basis.params.tuples]) * psi[j0]
    resid = np.max(np.abs(predicted - psi)) / np.max(np.abs(psi))
    return ratios, resid, tuple(anchor)


@pytest.mark.parametrize("name", ["n1", "cfg_b", "hom3"])
def test_extract_q_grid_equals_per_label_reference(request, name):
    sol = request.getfixturevalue(name)
    batch = q_grids(sol)
    for i, st in enumerate(eigenstates(sol)):
        ratios, resid, anchor = _per_label_grid(st, sol.basis)
        got = sp.extract_Q_grid(st, sol.basis)
        assert np.array_equal(got[1], ratios)
        assert np.array_equal(got[1], batch[1][i])
        assert tuple(got[2]) == anchor
        # the product over the variables may round differently
        assert abs(got[3] - resid) <= 1e-15


@pytest.mark.parametrize("name", ["cfg_a", "hom3"])
def test_extract_q_grid_rejects_non_factorizing_vector(request, name):
    sol = request.getfixturevalue(name)
    a, b = sol.states.eigenstate(0), sol.states.eigenstate(1)
    with pytest.raises(sb.DegenerateSpectrum):
        sp.extract_Q_grid(_fresh(a, a.vec_right + b.vec_right), sol.basis)


def test_extract_q_grid_rejects_zero_vector(cfg_b):
    st = cfg_b.states.eigenstate(0)
    with pytest.raises(sp.ZeroReference):
        sp.extract_Q_grid(_fresh(st, np.zeros_like(st.vec_right)), cfg_b.basis)


# ---------------------------------------------------------------------------
# (c) transfer diagonalization
# ---------------------------------------------------------------------------

def _degrees(params):
    return list(range(-params.n_bar, params.n_bar + 1, 2))


@pytest.mark.parametrize("name", ["n1", "cfg_b", "cfg_a", "hom3"])
def test_t_coeffs_equal_per_state_pairings(request, name):
    sol = request.getfixturevalue(name)
    A, D = sol.mono.A, sol.mono.D
    for st in eigenstates(sol):
        l, r = st.vec_left, st.vec_right
        want = np.array([l @ (A.coeff(dg) + D.coeff(dg)) @ r / (l @ r)
                         for dg in _degrees(sol.params)])
        got = st.t_coeffs
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def _first_collision(states, gap_tol):
    """First same-sector pair (i < j) whose labels agree below ``gap_tol``."""
    vecs = np.array([st.t_coeffs for st in states])
    scale = np.max(np.abs(vecs))
    for i in range(len(states)):
        for j in range(i + 1, len(states)):
            if states[i].theta_m == states[j].theta_m and \
                    np.max(np.abs(vecs[i] - vecs[j])) < gap_tol * scale:
                return i, j
    return None


@pytest.mark.parametrize("name", ["cfg_b", "cfg_a"])
def test_label_collision_raises_on_first_pair(request, monkeypatch, name):
    sol = request.getfixturevalue(name)
    params = sol.params
    vecs = sol.states.t_rows
    theta = sol.states.theta_m
    same = np.triu(theta[:, None] == theta[None, :], 1)
    gaps = np.sort(np.max(np.abs(vecs[:, None] - vecs[None]), axis=2)[same])
    gaps = gaps / np.max(np.abs(vecs))
    # between the smallest same-sector gaps, and past every gap
    for gap_tol in (0.5 * (gaps[2] + gaps[3]), 10.0):
        want = _first_collision(eigenstates(sol), gap_tol)
        assert want is not None
        monkeypatch.setattr(sp, "LABEL_GAP_TOL", gap_tol)
        with pytest.raises(sb.DegenerateSpectrum, match="collide") as info:
            sp.diagonalize_transfer(params, sol.mono, rng=sol.rng(2))
        got = tuple(int(x) for x in re.findall(r"labels (\d+) and (\d+)", str(info.value))[0])
        assert got == want


# ---------------------------------------------------------------------------
# (d) B-eigenvector labeling
# ---------------------------------------------------------------------------

def test_rayleigh_pairings_equal_einsum(cfg_a):
    params, mono = cfg_a.params, cfg_a.mono
    rng = np.random.default_rng(11)
    ops = [mono.B.evaluate(lam) for lam in params.spectral_samples(rng, 3)]
    _, R = np.linalg.eig(ops[0] + (0.3 - 0.2j) * ops[1])
    Linv = np.linalg.inv(R)
    for op in ops:
        want = np.einsum("ij,jk,ki->i", Linv, op, R)
        got = sb.rayleigh_pairings(Linv, op, R)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("name", ["cfg_b", "cfg_a"])
def test_label_mismatch_is_the_pattern_mismatch_of_the_basis(request, name):
    # Rayleigh quotients do not see the calibration scales, so the basis
    # itself reproduces the labeling mismatch at its probe points
    sol = request.getfixturevalue(name)
    params, basis = sol.params, sol.basis
    probes = params.spectral_samples(sol.rng(1), params.n_separate + 1,
                                     exclude=basis.grid.grid.reshape(-1))
    measured = np.stack([sb.rayleigh_pairings(basis.left, sol.mono.B.evaluate(lam),
                                              basis.right) / basis.mjj
                         for lam in probes], axis=1)
    patterns = np.stack([sb.b_pattern(params, basis.grid, basis.params.tuples, lam)
                         for lam in probes], axis=1)
    mismatch = np.max(np.linalg.norm(measured - patterns, axis=1)
                      / np.linalg.norm(patterns, axis=1))
    assert abs(mismatch - basis.label_mismatch) <= 1e-12
    assert 0.0 <= basis.label_mismatch <= sb.LABEL_TOL
    assert 0.0 <= basis.calibration_residual <= sb.CALIBRATION_TOL


def test_calibration_residual_is_the_worst_shift_step(cfg_a):
    # on an odd chain both sweeps calibrate every label but the zero tuple
    # by one shift step from the label one lower in its first nonzero entry,
    # a matrix-vector product with the charge blocks of D or A on the grid
    params, basis, mono = cfg_a.params, cfg_a.basis, cfg_a.mono
    nsep = params.n_separate
    abar = mc.abar_coeff(params, basis.grid.grid[:nsep])
    worst = 0.0
    for j in range(1, params.dim):
        a = int(np.flatnonzero(basis.params.tuples[j])[0])
        jprev = basis.shifted_index(j, a, -1)
        h = basis.params.tuples[jprev][a]
        eta = basis.grid.grid[a, h]
        for w, got in ((basis.left[jprev] @ mono.D.at(eta) / basis.grid.d_vals[a, h],
                        basis.left[j]),
                       (mono.A.at(eta) @ basis.right[:, jprev] / abar[a, h],
                        basis.right[:, j])):
            worst = max(worst, np.linalg.norm(w - got) / np.linalg.norm(w))
    assert worst > 0.0
    assert abs(worst - basis.calibration_residual) <= 1e-9 * worst


def test_construction_residuals_are_read_only_diagnostic_rows(cfg_b):
    basis = cfg_b.basis
    assert type(basis.label_mismatch) is float and type(basis.calibration_residual) is float
    with pytest.raises(dataclasses.FrozenInstanceError):
        basis.label_mismatch = 0.0
    streams = [[r.row() for r in verify_solution(prepare(cfg_b_params(), SEED),
                                                      sections={"sov"})]
               for _ in range(2)]
    assert streams[0] == streams[1]
    rows = {r.label: r for r in verify_solution(cfg_b, sections={"sov"})}
    for label, value, bound in (
            ("sov_label_mismatch", basis.label_mismatch, sb.LABEL_TOL),
            ("sov_calibration_residual", basis.calibration_residual, sb.CALIBRATION_TOL)):
        row = rows[label]
        assert row.context == {"diagnostic": True, "bound": bound}
        assert row.passed and row.margin is None and row.rel_err == value
