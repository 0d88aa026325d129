"""Shared desk-scale configurations and their prepared solutions."""

from types import SimpleNamespace

import numpy as np
import pytest

from sgsov.params import ModelParams
from sgsov import model_core as mc
from sgsov.separate_states import prepare

SEED = 1234


def embedded_u(params, n, power=1):
    """The site-n shift generator (to ``power``) on the full chain."""
    U, _ = mc.weyl_generators(params.p, params.u[n - 1], params.v[n - 1], params.p_prime)
    return mc.site_embed(params, n, np.linalg.matrix_power(U, power))


def short_spectrum(sol, missing):
    """The eigenbasis of ``sol`` without its last ``missing`` eigenstates."""
    keep = slice(0, sol.params.dim - missing)
    return SimpleNamespace(params=sol.params, states=sol.states[keep],
                           covs=sol.covs[keep], vecs=sol.vecs[keep], norms=sol.norms[keep])


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
