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
    """The public per-state calls in the order the benchmark makes them."""
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
    sol = request.getfixturevalue(name)
    states, covs, vecs = _per_state_pipeline(sol.params, SEED)
    assert len(sol.states) == len(states)
    for got, ref in zip(sol.states, states):
        assert np.array_equal(got.t_coeffs, ref.t_coeffs)
        assert got.theta_m == ref.theta_m
        assert np.array_equal(got.q_poly, ref.q_poly)
        assert np.array_equal(got.q_vals, ref.q_vals)
        assert np.array_equal(got.qbar_vals, ref.qbar_vals)
        assert np.array_equal(got.ff_u_ket, ref.ff_u_ket)
    assert np.array_equal(sol.covs, covs)
    assert np.array_equal(sol.vecs, vecs)
    norms = [ss.eigen_action(sol.basis, st, st) for st in sol.states]
    assert np.array_equal(sol.norms, norms)


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
    arrays = {f: getattr(basis, f) for f in ("left", "right", "mjj", "measure")}
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
    """Every array an eigenstate of a solution carries is read-only and has a
    fixed shape, and Q is exactly zero above its top coefficient, which is
    exactly 1."""
    sol = request.getfixturevalue(name)
    params = sol.params
    d, N, p, nsep = params.dim, params.n_sites, params.p, params.n_separate
    K = (p - 1) * N
    shapes = {"t_coeffs": (params.n_bar + 1,), "vec_right": (d,), "vec_left": (d,),
              "q_poly": (K + 1,),
              "qbar_poly": (K + 1 + N % p,), "q_vals": (nsep, p), "qbar_vals": (nsep, p),
              "ff_u_ket": (N, nsep, p, nsep)}
    for st in sol.states:
        for field, shape in shapes.items():
            arr = getattr(st, field)
            assert arr.shape == shape, field
            with pytest.raises(ValueError):
                arr[(0,) * arr.ndim] = 1.0
        top = np.flatnonzero(st.q_poly)[-1]
        assert st.q_poly[top] == 1.0
        assert np.all(st.q_poly[top + 1:] == 0)


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
    grid, states = sol.grid, sol.states
    for table in (sol.q_vals, sol.ff_u_kets, sol.t_rows):
        assert len(table) == sol.params.dim
    ff.ff_u_table(sol.params, grid, states, states, 1)
    ss.eigen_action_table(grid, states, states)
    ff.ff_elementary_table(sol.params, grid, states, states,
                           lo.ElementaryBasisElement(((0, 1, 1),)))
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
    before = [dict(vars(st)) for st in sol.states]
    diagnostics = [dict(st.diagnostics) for st in sol.states]
    assert all(r.passed for r in oracle.verify_solution(sol))
    for st, fields, diag in zip(sol.states, before, diagnostics):
        assert vars(st).keys() == fields.keys()
        assert all(vars(st)[name] is value for name, value in fields.items())
        assert st.diagnostics == diag


def test_separate_states_need_attached_q_data(cfg_b):
    bare = dataclasses.replace(cfg_b.states[0], q_vals=None, qbar_vals=None)
    with pytest.raises(SgSovError):
        ss.eigenstate_separate_states(bare, cfg_b.basis)
    assert bare.q_vals is None
    with pytest.raises(SgSovError):
        ff.ff_u(cfg_b.params, cfg_b.basis, bare, cfg_b.states[1], 1)
    no_ket = dataclasses.replace(cfg_b.states[0], ff_u_ket=None)
    with pytest.raises(SgSovError):
        ss.require_q_data(cfg_b.states[1], no_ket)
    with pytest.raises(SgSovError):
        ff.ff_u(cfg_b.params, cfg_b.basis, cfg_b.states[1], no_ket, 1)
    with pytest.raises(SgSovError):
        ff.ff_u_table(cfg_b.params, cfg_b.grid, cfg_b.states, [no_ket], 1)


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
