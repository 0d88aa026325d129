"""Separate states, the scalar-product determinant, eigenstate pairings,
orthogonality, the resolution of the identity over transfer eigenstates,
and the prepared solution of one chain.

A separate state is specified by one coefficient table per separate
variable; its dense materialization is the measure-weighted sum over the
SOV basis with squared-difference Vandermonde weights.  The pairing of a
left and a right separate state collapses to a single determinant whose
entries are weighted moment sums over each variable's grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .params import ModelParams, SgSovError
from . import model_core as mc
from .sov_basis import SovBasis, _read_only, build_sov_basis, vandermonde_weights
from .spectrum import (TransferEigenstate, diagonalize_transfer, extract_Q_grid,
                       fit_Q_polynomial, polyval_ascending, qbar_from_q)

__all__ = [
    "SeparateState", "IncompleteSpectrum", "materialize",
    "scalar_product_det", "phi_moments", "phi_general", "phi_matrix",
    "sector_zero", "eigen_action", "eigen_action_table", "stacked_tables",
    "identity_resolution_T", "attach_q_data", "require_q_data",
    "eigenstate_separate_states", "eigen_dense", "t_coeff_null_vector",
    "Solution", "prepare",
]


class IncompleteSpectrum(SgSovError):
    """Fewer eigenstates than the dimension of the state space."""


@dataclass
class SeparateState:
    """Coefficient tables alpha_a(eta_a^{(h)}) of a separate state.

    ``coeff`` has shape (n_separate, p); ``theta_m`` labels the charge sector
    and is used only on even chains."""
    side: str                     # "left" | "right"
    coeff: np.ndarray
    theta_m: int | None = None

    def __post_init__(self):
        if self.side not in ("left", "right"):
            raise ValueError("side must be 'left' or 'right'")
        self.coeff = np.asarray(self.coeff, dtype=complex)


def materialize(state: SeparateState, basis: SovBasis):
    """Dense covector (left) or vector (right) of a separate state."""
    params = basis.params
    nsep = params.n_separate
    tup = basis.tuples[:, :nsep]
    w = vandermonde_weights(basis)
    w *= np.prod(state.coeff[np.arange(nsep)[None, :], tup], axis=1)
    if params.even_chain:
        m = state.theta_m if state.theta_m is not None else 0
        sign = 1 if state.side == "left" else -1
        hN = basis.tuples[:, -1]
        w = w * params.q ** (sign * m * hN) / np.sqrt(params.p)
    if state.side == "left":
        return w @ basis.left
    return basis.right @ w


def scalar_product_det(alpha: SeparateState, beta: SeparateState,
                       basis: SovBasis):
    """Pairing of a left and a right separate state as a single determinant.

    The entries are grid-moment sums; the determinant carries the reference
    normalization constant of the basis, and on even chains the charge
    sectors must match for a nonzero result."""
    if alpha.side != "left" or beta.side != "right":
        raise ValueError("scalar_product_det expects (left, right) states")
    params = basis.params
    nsep = params.n_separate
    if sector_zero(params, alpha.theta_m, beta.theta_m):
        return 0.0 + 0.0j
    M = phi_moments(basis, alpha.coeff, beta.coeff, range(0, 2 * nsep, 2))
    return basis.c_ref * np.linalg.det(M)


def phi_moments(basis: SovBasis, left, right, exponents):
    """Weighted grid moments of two coefficient tables of shape (..., nsep, p),
    broadcast against each other over the leading axes:
    ``out[..., a, k] = sum_h left[..., a, h] * right[..., a, h]
    * eta_a^{(h)}**e_k / omega[a, h]`` for every separate variable a and
    exponent e_k, shape (..., nsep, len(exponents))."""
    w = left * right / basis.omega
    eta = basis.grid.grid[:basis.params.n_separate, :, None]
    return np.einsum("...ah,ahk->...ak", w, eta ** np.asarray(exponents, dtype=int))


# ---------------------------------------------------------------------------
# Eigenstate pairings via the moment matrix
# ---------------------------------------------------------------------------

def attach_q_data(state: TransferEigenstate, basis: SovBasis):
    """Evaluate the fitted Baxter polynomial and its conjugate partner on the
    separate-variable grids and cache the tables on the eigenstate."""
    params = basis.params
    nsep = params.n_separate
    if state.q_poly is None:
        raise SgSovError("fit the Baxter polynomial before attaching Q data")
    grids = basis.grid.grid[:nsep]
    state.q_vals = polyval_ascending(state.q_poly, grids)
    state.qbar_vals = polyval_ascending(state.qbar_poly, grids)
    return state


def require_q_data(*states):
    """Raise unless every eigenstate carries its Baxter grid tables."""
    for st in states:
        if st.q_vals is None or st.qbar_vals is None:
            raise SgSovError("attach Baxter grid data to the eigenstates first")


def eigenstate_separate_states(state: TransferEigenstate, basis: SovBasis):
    """The left/right separate-state representations of an eigenstate."""
    require_q_data(state)
    left = SeparateState("left", state.qbar_vals, state.theta_m)
    right = SeparateState("right", state.q_vals, state.theta_m)
    return left, right


def phi_general(basis: SovBasis, bra: TransferEigenstate,
                ket: TransferEigenstate, a: int, exponent: int):
    """Weighted grid moment of the two Baxter functions on variable ``a``:
    sum_h Qbar_bra * Q_ket * eta^exponent / omega."""
    return complex(phi_moments(basis, bra.qbar_vals, ket.q_vals, [exponent])[a, 0])


def phi_matrix(basis: SovBasis, bra: TransferEigenstate,
               ket: TransferEigenstate, half_shift: int = 0):
    """Moment matrix of the eigenstate pairing; ``half_shift`` moves every
    column exponent by that many half-steps (in units of eta)."""
    nsep = basis.params.n_separate
    return phi_moments(basis, bra.qbar_vals, ket.q_vals,
                       range(half_shift, 2 * nsep + half_shift, 2))


def sector_zero(params: ModelParams, bra_theta, ket_theta, step: int = 0):
    """Whether the charge-sector rule of an even chain sets a matrix element
    to zero: theta_bra - theta_ket differs from ``step`` mod p.  Elementwise
    on arrays of sector labels; always false on odd chains."""
    return params.even_chain and (bra_theta - ket_theta - step) % params.p != 0


def _pairing_dets(basis: SovBasis, qbar, q):
    """Determinants of the moment matrices of Qbar tables against Q tables,
    (..., nsep, p) each, broadcast over the leading axes; the pairings are
    ``c_ref`` times these."""
    nsep = basis.params.n_separate
    return np.linalg.det(phi_moments(basis, qbar, q, range(0, 2 * nsep, 2)))


def _cmul(a, b):
    """Elementwise complex product ``a * b``, rounded as the scalar complex
    product is (NumPy's vectorized one may round otherwise), so that the
    pair tables equal the per-pair calls bit for bit."""
    return (a.real * b.real - a.imag * b.imag) + 1j * (a.real * b.imag + a.imag * b.real)


def eigen_action(basis: SovBasis, bra: TransferEigenstate,
                 ket: TransferEigenstate):
    """Pairing <bra|ket> of the separate-state representations, as the
    determinant of the moment matrix (with the sector rule on even chains)."""
    if sector_zero(basis.params, bra.theta_m, ket.theta_m):
        return 0.0 + 0.0j
    return basis.c_ref * _pairing_dets(basis, bra.qbar_vals, ket.q_vals)


def stacked_tables(states):
    """The Qbar and Q grid tables of eigenstates stacked on a leading axis,
    shape (len(states), nsep, p) each, and their charge-sector labels (0 on
    odd chains, which have none); read-only arrays."""
    require_q_data(*states)
    return (_read_only(np.array([st.qbar_vals for st in states])),
            _read_only(np.array([st.q_vals for st in states])),
            _read_only(np.array([st.theta_m or 0 for st in states], dtype=int)))


def eigen_action_table(basis: SovBasis, bras, kets):
    """Pairings <bra|ket> of every bra with every ket, shape
    (len(bras), len(kets)), as one batched determinant, and the mask of the
    pairs that the sector rule sets to zero."""
    qbar, _, theta_bra = stacked_tables(bras)
    _, q, theta_ket = stacked_tables(kets)
    values = _cmul(basis.c_ref, _pairing_dets(basis, qbar[:, None], q[None]))
    zero = np.broadcast_to(sector_zero(basis.params, theta_bra[:, None],
                                       theta_ket[None]), values.shape)
    return np.where(zero, 0.0, values), zero


def eigen_dense(states, basis: SovBasis):
    """Stacked dense covectors and vectors of the separate-state
    representations of ``states``, shape (len(states), d) each, and the
    determinant norms <t|t>, one batched determinant over the diagonal
    pairs."""
    covs, vecs = [], []
    for st in states:
        left, right = eigenstate_separate_states(st, basis)
        covs.append(materialize(left, basis))
        vecs.append(materialize(right, basis))
    qbar, q, _ = stacked_tables(states)
    return np.array(covs), np.array(vecs), _cmul(basis.c_ref, _pairing_dets(basis, qbar, q))


def identity_resolution_T(sol):
    """Sum of |t><t| / <t|t> over the whole spectrum, from the
    separate-state materializations and determinant pairings of ``sol``: a
    ``Solution``, or any object with ``params`` and the stacked
    ``covs``/``vecs``/``norms`` of ``eigen_dense``."""
    dim = sol.params.dim
    if len(sol.norms) < dim:
        raise IncompleteSpectrum(f"need {dim} eigenstates, got {len(sol.norms)}")
    return (sol.vecs.T / sol.norms) @ sol.covs


def t_coeff_null_vector(params: ModelParams, bra_t: dict, ket_t: dict):
    """Difference of interior eigenvalue coefficients; annihilates the moment
    matrix of two distinct eigenstates."""
    nsep = params.n_separate
    degs = [2 * b - nsep - 1 for b in range(1, nsep + 1)]
    return np.array([ket_t.get(dg, 0.0) - bra_t.get(dg, 0.0) for dg in degs])


# ---------------------------------------------------------------------------
# The prepared solution of one chain
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Solution:
    """The monodromy, the calibrated SOV basis and the transfer eigenstates
    with their Baxter polynomials and grid tables, shared by every scalar
    product and form factor of one chain.

    The basis, the eigenstates, their stacked Baxter grid tables
    ``qbar_vals``/``q_vals`` (shape (d, nsep, p)), sector labels ``theta_m``
    and transfer coefficients ``t_rows``, and the stacked
    ``covs``/``vecs``/``norms`` of ``eigen_dense`` are built on first use,
    as read-only arrays, from the seed streams
    ``[seed, 1]`` (basis), ``[seed, 2]`` (diagonalization) and a fresh
    ``[seed, 3]`` per Baxter fit, so they do not depend on the order of
    use.  Nothing is modified after it is built."""
    params: ModelParams
    seed: int
    mono: mc.Monodromy
    rel_gap: float = 1e-6         # minimal relative separation of the B zeros

    def rng(self, salt):
        return np.random.default_rng(np.random.SeedSequence([self.seed, salt]))

    @cached_property
    def basis(self) -> SovBasis:
        return build_sov_basis(self.params, mono=self.mono, rng=self.rng(1),
                               rel_gap=self.rel_gap)

    @cached_property
    def states(self) -> tuple:
        basis = self.basis
        states = diagonalize_transfer(self.params, self.mono, rng=self.rng(2))
        for st in states:
            extract_Q_grid(st, basis)
            st.q_poly, st.nullspace_dim = fit_Q_polynomial(
                self.params, st.t_coeffs, self.rng(3))
            st.qbar_poly = qbar_from_q(self.params, st.q_poly)
            attach_q_data(st, basis)
        return tuple(states)

    @cached_property
    def _tables(self):
        return stacked_tables(self.states)

    qbar_vals = property(lambda self: self._tables[0])
    q_vals = property(lambda self: self._tables[1])
    theta_m = property(lambda self: self._tables[2])

    @cached_property
    def t_rows(self) -> np.ndarray:
        """Transfer coefficients, shape (d, n_bar + 1); column c holds the
        degree 2c - n_bar."""
        degrees = range(-self.params.n_bar, self.params.n_bar + 1, 2)
        return _read_only(np.array([[st.t_coeffs[dg] for dg in degrees]
                                    for st in self.states]))

    @cached_property
    def _dense(self):
        return tuple(_read_only(x) for x in eigen_dense(self.states, self.basis))

    covs = property(lambda self: self._dense[0])
    vecs = property(lambda self: self._dense[1])
    norms = property(lambda self: self._dense[2])


def prepare(params: ModelParams, seed: int = 0, tolerances=None) -> Solution:
    """The prepared solution of one chain; ``tolerances`` may carry the
    ``zero_gap`` separation of the B zeros."""
    rel_gap = (tolerances or {}).get("zero_gap", Solution.rel_gap)
    return Solution(params, seed, mc.monodromy(params), rel_gap)
