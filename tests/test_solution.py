"""The prepared solution: agreement with the per-state pipeline, immutability,
and which parts of it each command builds."""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from sgsov import model_core as mc
from sgsov import sov_basis as sb
from sgsov import spectrum as sp
from sgsov import separate_states as ss
from sgsov import form_factors as ff
from sgsov import local_ops as lo
from sgsov import oracle
from sgsov.cli import main
from sgsov.params import SgSovError

from conftest import SEED, cfg_a_params, cfg_b_params, n1_params

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
N1_CONFIG, CFG_A_CONFIG = str(CONFIGS / "n1.json"), str(CONFIGS / "cfg_a.json")


def _rng(seed, salt):
    return np.random.default_rng(np.random.SeedSequence([seed, salt]))


def _per_state_pipeline(params, seed):
    """The public per-state calls in the order the benchmark makes them:
    ``diagonalize_transfer``, then per state ``fit_Q_polynomial``,
    ``qbar_from_q`` and ``attach_q_data``."""
    mono = mc.monodromy(params)
    basis = sb.build_sov_basis(params, mono=mono, rel_gap=1e-6, rng=_rng(seed, 1))
    states = sp.diagonalize_transfer(params, mono, rng=_rng(seed, 2))
    for st in states:
        sp.extract_Q_grid(st, basis)
        st.q_poly, st.nullspace_dim = sp.fit_Q_polynomial(params, st.t_coeffs, _rng(seed, 3))
        st.qbar_poly = sp.qbar_from_q(params, st.q_poly)
        ss.attach_q_data(st, basis)
    sep = [ss.eigenstate_separate_states(st, basis) for st in states]
    covs = np.array([ss.materialize(left, basis) for left, _ in sep])
    vecs = np.array([ss.materialize(right, basis) for _, right in sep])
    return states, covs, vecs


@pytest.mark.parametrize("name", ["cfg_a", "cfg_b"])
def test_prepare_matches_per_state_pipeline_bitwise(name, request):
    """The per-state chain that the benchmark runs, down to the per-pair
    ``ff_u`` and ``eigen_action`` calls, gives the rows and the pair tables
    of the ``Spectrum`` bit for bit."""
    sol = request.getfixturevalue(name)
    params, spec = sol.params, sol.states
    states, covs, vecs = _per_state_pipeline(params, SEED)
    assert len(spec) == len(states)
    for i, ref in enumerate(states):
        assert np.array_equal(spec.t_rows[i], ref.t_coeffs)
        assert spec.theta_m[i] == ref.theta_m
        assert np.array_equal(spec.R[:, i], ref.vec_right)
        assert np.array_equal(spec.L[i], ref.vec_left)
        assert np.array_equal(spec.q_poly[i], ref.q_poly)
        assert np.array_equal(spec.qbar_poly[i], ref.qbar_poly)
        assert spec.nullspace_dim[i] == ref.nullspace_dim
        assert np.array_equal(spec.q_vals[i], ref.q_vals)
        assert np.array_equal(spec.qbar_vals[i], ref.qbar_vals)
        assert np.array_equal(spec.ff_u_kets[i], ref.ff_u_ket)
        assert np.array_equal(spec.pair_kets[i], ref.pair_ket)
    assert np.array_equal(sol.covs, covs)
    assert np.array_equal(sol.vecs, vecs)
    ff_u = [[ff.ff_u(params, sol.basis, bra, ket, 1) for ket in states] for bra in states]
    values, zeros = ff.ff_u_table(sol.grid, spec, 1)
    assert np.array_equal(values, [[r.value for r in row] for row in ff_u])
    assert np.array_equal(zeros, [[r.selection_zero for r in row] for row in ff_u])
    pairings = [[ss.eigen_action(sol.basis, bra, ket) for ket in states] for bra in states]
    assert np.array_equal(ss.eigen_action_table(sol.grid, spec)[0], pairings)
    assert np.array_equal(sol.norms, np.diagonal(pairings))


def test_solution_and_basis_are_frozen(cfg_b):
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg_b.params = n1_params()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg_b.basis = None
    basis = cfg_b.basis
    with pytest.raises(dataclasses.FrozenInstanceError):
        basis.measure = None
    fresh = sb.SovBasis(basis.params, basis.grid, basis.left, basis.right)
    assert np.array_equal(fresh.mjj, np.einsum("jd,dj->j", basis.left, basis.right))
    assert np.array_equal(fresh.measure, 1.0 / fresh.mjj)
    nsep = basis.params.n_separate
    assert np.array_equal(fresh.grid.omega, basis.grid.grid[:nsep] ** (nsep - 1))


@pytest.mark.parametrize("name", ["cfg_b", "cfg_a"])
def test_basis_and_grid_arrays_are_read_only(name, request):
    basis = request.getfixturevalue(name).basis
    grid = basis.grid
    arrays = {f: getattr(basis, f) for f in ("left", "right", "mjj", "measure", "grid_values",
                                             "vandermonde_weights")}
    arrays.update({f"grid.{f}": getattr(grid, f)
                   for f in ("z", "eta0", "grid", "a_vals", "d_vals", "powers", "omega",
                             "pairing_weights", "ff_u_weights")})
    for label, arr in arrays.items():
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = 1.0
    for field in dataclasses.fields(grid):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(grid, field.name, None)


@pytest.mark.parametrize("name", ["n1", "cfg_b", "cfg_a", "hom3", "stretch"])
def test_eigenstate_arrays_are_read_only_fixed_width_rows(name, request):
    """Every field of the spectrum of a solution is read-only and has a fixed
    shape, an eigenstate view shares the memory of its rows, and Q is
    exactly zero above its top coefficient, which is exactly 1."""
    sol = request.getfixturevalue(name)
    params, spec = sol.params, sol.states
    d, N, p, nsep = params.dim, params.n_sites, params.p, params.n_separate
    K = (p - 1) * N
    shapes = {"t_rows": (d, params.n_bar + 1), "theta_m": (d,), "R": (d, d), "L": (d, d),
              "q_poly": (d, K + 1), "qbar_poly": (d, K + 1 + N % p),
              "nullspace_dim": (d,), "fit_gap": (d,), "q_vals": (d, nsep, p),
              "qbar_vals": (d, nsep, p), "ff_u_kets": (d, nsep, nsep, p),
              "pair_kets": (d, nsep, nsep, p)}
    assert [f.name for f in dataclasses.fields(spec)] == list(shapes)
    assert len(spec) == d
    for field, shape in shapes.items():
        arr = getattr(spec, field)
        assert arr.shape == shape, field
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(spec, field, None)
    assert spec.ff_u_kets.flags.c_contiguous and spec.pair_kets.flags.c_contiguous
    rows = {"t_coeffs": spec.t_rows, "vec_right": spec.R.T, "vec_left": spec.L,
            "q_poly": spec.q_poly, "qbar_poly": spec.qbar_poly, "q_vals": spec.q_vals,
            "qbar_vals": spec.qbar_vals, "ff_u_ket": spec.ff_u_kets,
            "pair_ket": spec.pair_kets}
    for i in (0, d // 2, d - 1):
        st = spec.eigenstate(i)
        assert type(st.theta_m) is int and st.theta_m == spec.theta_m[i]
        assert type(st.nullspace_dim) is int and st.nullspace_dim == spec.nullspace_dim[i]
        for field, table in rows.items():
            assert np.shares_memory(getattr(st, field), table), field
            assert np.array_equal(getattr(st, field), table[i]), field
    for q_poly in spec.q_poly:
        top = np.flatnonzero(q_poly)[-1]
        assert q_poly[top] == 1.0
        assert np.all(q_poly[top + 1:] == 0)


def _count_basis_builds(monkeypatch, fail=False):
    calls = []
    original = sb.build_sov_basis

    def counted(*args, **kwargs):
        calls.append(1)
        if fail:
            raise AssertionError("build_sov_basis called")
        return original(*args, **kwargs)
    monkeypatch.setattr(sb, "build_sov_basis", counted)
    monkeypatch.setattr(ss, "build_sov_basis", counted)
    return calls


def test_sov_build_builds_one_basis(monkeypatch, tmp_path):
    calls = _count_basis_builds(monkeypatch)
    assert main(["sov-build", "--config", N1_CONFIG,
                 "--json", str(tmp_path / "rows.jsonl")]) == 0
    assert len(calls) == 1


def test_algebra_section_builds_no_basis(monkeypatch):
    calls = _count_basis_builds(monkeypatch, fail=True)
    reports = oracle.verify_suite(n1_params(), SEED, sections={"algebra"})
    assert reports and all(r.passed for r in reports)
    assert calls == []


@pytest.mark.parametrize("make", [cfg_b_params, cfg_a_params])   # even; odd
def test_spectrum_and_determinant_tables_build_no_basis(make):
    sol = ss.prepare(make(), SEED)
    grid, spec = sol.grid, sol.states
    for table in (spec.q_vals, spec.ff_u_kets, spec.t_rows):
        assert len(table) == sol.params.dim
    ff.ff_u_table(grid, spec, 1)
    ss.eigen_action_table(grid, spec)
    ff.ff_elementary_table(grid, spec, lo.ElementaryBasisElement(((0, 1, 1),)))
    assert "basis" not in vars(sol)


@pytest.mark.parametrize("make", [cfg_b_params, cfg_a_params])   # even; odd
def test_npoint_over_determinant_tables_builds_no_basis(make):
    # the norms are grid determinants: no dense covector or vector is needed
    sol = ss.prepare(make(), SEED)
    table = ff.ff_u_table(sol.grid, sol.states, 1)[0]
    ff.npoint(sol, 0, [table, table])
    assert "basis" not in vars(sol) and "_dense" not in vars(sol)


@pytest.mark.parametrize("make", [cfg_b_params, cfg_a_params])   # even; odd
def test_elementary_operators_build_no_basis(make):
    # the even-chain charge operators come from the end coefficients of B
    sol = ss.prepare(make(), SEED)
    params, ops = sol.params, sol.elementary_ops
    lam = params.spectral_samples(sol.rng(961), 1, exclude=sol.grid.grid.reshape(-1))[0]
    lo.binvA_interpolation(params, sol.grid, sol.charge_ops, lam, ops)
    elems = [lo.ElementaryBasisElement(((0, 1, 1),))]
    if params.even_chain:
        elems.append(lo.ElementaryBasisElement((), theta_pow=1, theta_a_pow=1))
    for elem in elems:
        elem.to_dense(params, sol.charge_ops, ops)
    assert "basis" not in vars(sol)


def test_labeling_failure_stops_only_the_commands_that_read_the_basis(monkeypatch, tmp_path):
    def refuse(*args):
        raise sb.DegenerateSpectrum("labeling refused")
    monkeypatch.setattr(sb, "_label_eigenvectors", refuse)
    rows = tmp_path / "rows.jsonl"
    assert main(["spectrum", "--config", CFG_A_CONFIG, "--json", str(rows)]) == 0
    assert len(rows.read_text().splitlines()) == 27
    assert main(["check-algebra", "--config", CFG_A_CONFIG, "--json", str(rows)]) == 0
    for command in ("verify-all", "scalar"):
        assert main([command, "--config", CFG_A_CONFIG, "--json", str(rows)]) == 3


@pytest.mark.parametrize("make", [cfg_b_params, cfg_a_params])
def test_verification_writes_nothing_to_the_eigenstates(make):
    sol = ss.prepare(make(), SEED)
    spec = sol.states
    before = dict(vars(spec))
    copies = {name: value.copy() for name, value in before.items()}
    assert all(r.passed for r in oracle.verify_solution(sol))
    assert sol.states is spec and vars(spec).keys() == before.keys()
    for name, value in before.items():
        assert vars(spec)[name] is value and not value.flags.writeable
        assert np.array_equal(value, copies[name])


def test_separate_states_need_attached_q_data(cfg_b):
    bare = dataclasses.replace(cfg_b.states.eigenstate(0), q_vals=None, qbar_vals=None)
    with pytest.raises(SgSovError):
        ss.eigenstate_separate_states(bare, cfg_b.basis)
    assert bare.q_vals is None
    with pytest.raises(SgSovError):
        ff.ff_u(cfg_b.params, cfg_b.basis, bare, cfg_b.states.eigenstate(1), 1)
    with pytest.raises(SgSovError):
        ss.eigen_action(cfg_b.basis, bare, cfg_b.states.eigenstate(1))
    no_ket = dataclasses.replace(cfg_b.states.eigenstate(0), ff_u_ket=None)
    with pytest.raises(SgSovError):
        ss.require_q_data(cfg_b.states.eigenstate(1), no_ket)
    with pytest.raises(SgSovError):
        ff.ff_u(cfg_b.params, cfg_b.basis, cfg_b.states.eigenstate(1), no_ket, 1)
    no_qbar_poly = dataclasses.replace(cfg_b.states.eigenstate(0), qbar_poly=None)
    with pytest.raises(SgSovError):
        ss.attach_q_data(no_qbar_poly, cfg_b.basis)
    no_pair_ket = dataclasses.replace(cfg_b.states.eigenstate(0), pair_ket=None)
    with pytest.raises(SgSovError):
        ss.require_q_data(no_pair_ket)
    with pytest.raises(SgSovError):
        ss.eigen_action(cfg_b.basis, cfg_b.states.eigenstate(1), no_pair_ket)


def test_pair_products_match_explicit_loops():
    rng = np.random.default_rng(3)
    x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    lower = [(a, b) for a in range(4) for b in range(a)]
    assert np.isclose(sb.vandermonde(x),
                      np.prod([x[a] / x[b] - x[b] / x[a] for a, b in lower]))
    assert np.isclose(sb.vandermonde(x, squares=True),
                      np.prod([x[a] ** 2 - x[b] ** 2 for a, b in lower]))
    batch = np.stack([x, 2 * x])
    assert np.allclose(sb.vandermonde(batch), [sb.vandermonde(x), sb.vandermonde(2 * x)])
    assert np.isclose(sb.cross_product(x[1], x, 1),
                      np.prod([x[1] / x[b] - x[b] / x[1] for b in (0, 2, 3)]))
    assert np.isclose(sb.cross_product(x[1], x[2:], squares=True),
                      (x[1] ** 2 - x[2] ** 2) * (x[1] ** 2 - x[3] ** 2))
    assert sb.vandermonde(x[:1]) == 1.0 and sb.cross_product(x[0], x[:1], 0) == 1.0
