"""Shared desk-scale configurations and their prepared solutions."""

from types import SimpleNamespace

import pytest

from sgsov.params import ModelParams
from sgsov.model_core import embedded_u  # noqa: F401  (imported by the tests)
from sgsov.separate_states import prepare
from sgsov.spectrum import extract_Q_grids

SEED = 1234


def short_spectrum(sol, missing):
    """The eigenbasis of ``sol`` without its last ``missing`` eigenstates."""
    keep = slice(0, sol.params.dim - missing)
    return SimpleNamespace(params=sol.params, covs=sol.covs[keep], vecs=sol.vecs[keep],
                           norms=sol.norms[keep])


def eigenstates(sol):
    """The per-pair API's view of every row of the spectrum of ``sol``."""
    return [sol.states.eigenstate(i) for i in range(len(sol.states))]


def q_grids(sol):
    """``extract_Q_grids`` on every right eigenvector of the spectrum of ``sol``."""
    return extract_Q_grids(sol.states.R.T, sol.states.theta_m, sol.basis)


def cfg_a_params():
    return ModelParams(3, 3, 2, kappa=[1.1j, 1.3j, 0.7j], xi=[1.0, 1.2, 0.9])


def cfg_b_params():
    return ModelParams(2, 3, 2, kappa=[1.1j, 0.8j], xi=[1.0, 1.3])


def n1_params():
    return ModelParams(1, 3, 2, kappa=[0.9j], xi=[1.1])


def hom3_params():
    return ModelParams(3, 3, 2, kappa=[1.1j, 1.1j, 1.1j], xi=[1.0, 1.0, 1.0])


def stretch_params():
    return ModelParams(3, 5, 2, kappa=[1.1j, 1.3j, 0.7j], xi=[1.0, 1.2, 0.9])


@pytest.fixture(scope="session")
def cfg_a():
    return prepare(cfg_a_params(), SEED)


@pytest.fixture(scope="session")
def cfg_b():
    return prepare(cfg_b_params(), SEED)


@pytest.fixture(scope="session")
def n1():
    return prepare(n1_params(), SEED)


@pytest.fixture(scope="session")
def hom3():
    return prepare(hom3_params(), SEED)


@pytest.fixture(scope="session")
def stretch():
    return prepare(stretch_params(), SEED)


@pytest.fixture(scope="session")
def desk_bundles(n1, cfg_b, cfg_a):
    return {"n1": n1, "cfg_b": cfg_b, "cfg_a": cfg_a}
