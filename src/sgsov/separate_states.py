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
from . import local_ops as lo
from .sov_basis import (SovBasis, SovGrid, _read_only, b_zeros, build_sov_basis,
                        moment_weights)
from .spectrum import (Spectrum, TransferEigenstate, fit_Q_polynomials, power_sum,
                       qbar_from_q, transfer_eigensystem)

__all__ = [
    "SeparateState", "IncompleteSpectrum", "materialize",
    "scalar_product_det", "phi_moments", "phi_general", "phi_matrix",
    "sector_zero", "pair_table", "eigen_action", "eigen_action_table",
    "identity_resolution_T", "attach_q_data", "attach_q_tables", "require_q_data",
    "eigenstate_separate_states", "eigen_dense", "t_coeff_null_vector",
    "Solution", "prepare",
]


# bra rows per block of an all-pairs table: bounds its (bras, kets, ...)
# transients; each determinant is formed on its own, so no value depends on it
BRA_BLOCK = 64


def bra_blocks(n):
    """Slices of at most ``BRA_BLOCK`` of n bra rows."""
    return [slice(i, i + BRA_BLOCK) for i in range(0, n, BRA_BLOCK)]


class IncompleteSpectrum(SgSovError):
    """Fewer eigenstates than the dimension of the state space."""


@dataclass
class SeparateState:
    """Coefficient tables alpha_a(eta_a^{(h)}) of a separate state.

    ``coeff`` has shape (n_separate, p); ``theta_m`` labels the charge sector
    and is used only on even chains (0 on odd ones)."""
    side: str                     # "left" | "right"
    coeff: np.ndarray
    theta_m: int = 0

    def __post_init__(self):
        if self.side not in ("left", "right"):
            raise ValueError("side must be 'left' or 'right'")
        self.coeff = np.asarray(self.coeff, dtype=complex)
        self.theta_m = int(self.theta_m)


def materialize(state: SeparateState, basis: SovBasis):
    """Dense covector (left) or vector (right) of a separate state."""
    return _materialize(basis, state.side, state.coeff, state.theta_m)


def _materialize(basis: SovBasis, side, coeff, theta_m):
    """``materialize`` of coefficient tables (..., nsep, p) with sector labels
    (...), one matrix-vector product per table, stacked."""
    params = basis.params
    nsep = params.n_separate
    # contiguous, so that each product over the variables rounds alike in a batch
    w = basis.vandermonde_weights * np.prod(np.ascontiguousarray(
        coeff[..., np.arange(nsep)[None, :], params.tuples[:, :nsep]]), axis=-1)
    if params.even_chain:
        sign = 1 if side == "left" else -1
        theta_m = np.asarray(theta_m)[..., None]
        w = w * params.q ** (sign * theta_m * params.tuples[:, -1]) / np.sqrt(params.p)
    if side == "left":
        return (w[..., None, :] @ basis.left)[..., 0, :]
    return (basis.right @ w[..., :, None])[..., 0]


def scalar_product_det(alpha: SeparateState, beta: SeparateState, grid: SovGrid):
    """Pairing of a left and a right separate state as a single determinant.

    The entries are grid-moment sums; the determinant carries the reference
    normalization constant ``grid.c_ref``, and on even chains the charge
    sectors must match for a nonzero result."""
    if alpha.side != "left" or beta.side != "right":
        raise ValueError("scalar_product_det expects (left, right) states")
    if sector_zero(grid.params, alpha.theta_m, beta.theta_m):
        return 0.0 + 0.0j
    return grid.c_ref * _ket_dets(alpha.coeff, _pair_kets(grid, beta.coeff))


def phi_moments(grid: SovGrid, left, right, exponents):
    """Weighted grid moments of two coefficient tables of shape (..., nsep, p),
    broadcast against each other over the leading axes:
    ``out[..., a, k] = sum_h left[..., a, h] * right[..., a, h]
    * eta_a^{(h)}**e_k / omega[a, h]`` for every separate variable a and
    exponent e_k, shape (..., nsep, len(exponents)).  The pairings and
    ``ff_u`` read the states' ket tables instead (``_ket_matrices``)."""
    return ((left * right)[..., None, :] @ moment_weights(grid, exponents))[..., 0, :]


def _ket_matrices(qbar, ket):
    """The matrices of Qbar tables ``qbar`` (..., nsep, p) against ket tables
    ``ket`` [..., a, k, g] (g the Qbar grid index), broadcast over the leading
    axes; a ket table is a state's ``pair_ket`` or ``ff_u_ket``."""
    return np.matvec(ket, qbar)


def _pair_kets(grid: SovGrid, q_vals):
    """Q tables (..., nsep, p) times the ``pairing_weights``, as C-contiguous ket tables."""
    return np.multiply(q_vals[..., None, :], grid.pairing_weights.swapaxes(-1, -2), order="C")


def _ket_dets(qbar, ket):
    """The determinants of the ``_ket_matrices``."""
    return np.linalg.det(_ket_matrices(qbar, ket))


# ---------------------------------------------------------------------------
# Eigenstate pairings via the moment matrix
# ---------------------------------------------------------------------------

def attach_q_data(state: TransferEigenstate, basis: SovBasis):
    """Evaluate the fitted Baxter polynomial and its conjugate partner on the
    separate-variable grids and cache the tables on the eigenstate."""
    if state.q_poly is None or state.qbar_poly is None:
        raise SgSovError("fit the Baxter polynomial before attaching Q data")
    tables = attach_q_tables(basis.grid, state.q_poly[None], state.qbar_poly[None],
                             [state.theta_m])
    state.q_vals, state.qbar_vals, state.ff_u_ket, state.pair_ket = (x[0] for x in tables)
    return state


def attach_q_tables(grid: SovGrid, q_poly, qbar_poly, theta_m):
    """The read-only Q and Qbar tables (states, nsep, p) of the Baxter rows
    ``q_poly`` and ``qbar_poly`` on the separate-variable grids, and the
    C-contiguous ket tables of ``_ket_matrices``, (states, nsep, nsep, p)
    each: for ``ff_u``, Q against the ``ff_u_weights`` of each state's sector
    ``theta_m``, one product per sector; for the pairings, Q times the
    ``pairing_weights``, the same in every sector."""
    q_vals, qbar_vals = (_read_only(power_sum(np.asarray(rows)[:, None, None], grid.powers))
                         for rows in (q_poly, qbar_poly))
    theta, pair_kets = np.asarray(theta_m), _pair_kets(grid, q_vals)
    kets = np.empty_like(pair_kets)
    for m, sector in enumerate(grid.ff_u_weights):
        kets[theta == m] = np.swapaxes(
            (q_vals[theta == m][:, :, None, None] @ sector)[..., 0, :], -1, -2)
    return q_vals, qbar_vals, _read_only(kets), _read_only(pair_kets)


def require_q_data(*states):
    """Raise unless every eigenstate carries its Baxter and ket tables."""
    for st in states:
        if st.q_vals is None or st.qbar_vals is None or st.ff_u_ket is None or st.pair_ket is None:
            raise SgSovError("attach Baxter grid data to the eigenstates first")


def eigenstate_separate_states(state: TransferEigenstate, basis: SovBasis):
    """The left/right separate-state representations of an eigenstate."""
    require_q_data(state)
    left = SeparateState("left", state.qbar_vals, state.theta_m)
    right = SeparateState("right", state.q_vals, state.theta_m)
    return left, right


def phi_general(grid: SovGrid, bra: TransferEigenstate,
                ket: TransferEigenstate, a: int, exponent: int):
    """Weighted grid moment of the two Baxter functions on variable ``a``:
    sum_h Qbar_bra * Q_ket * eta^exponent / omega."""
    return complex(phi_moments(grid, bra.qbar_vals, ket.q_vals, [exponent])[a, 0])


def phi_matrix(grid: SovGrid, bra: TransferEigenstate,
               ket: TransferEigenstate, half_shift: int = 0):
    """Moment matrix of the eigenstate pairing; ``half_shift`` moves every
    column exponent by that many half-steps (in units of eta)."""
    nsep = grid.params.n_separate
    return phi_moments(grid, bra.qbar_vals, ket.q_vals,
                       range(half_shift, 2 * nsep + half_shift, 2))


def sector_zero(params: ModelParams, bra_theta, ket_theta, step: int = 0):
    """Whether the charge-sector rule of an even chain sets a matrix element
    to zero: theta_bra - theta_ket differs from ``step`` mod p.  Elementwise
    on arrays of sector labels; always false on odd chains."""
    return params.even_chain and (bra_theta - ket_theta - step) % params.p != 0


def _cmul(a, b):
    """Elementwise complex product ``a * b``, rounded as the scalar complex
    product is (NumPy's vectorized one may round otherwise), so that the
    pair tables equal the per-pair calls bit for bit."""
    return (a.real * b.real - a.imag * b.imag) + 1j * (a.real * b.imag + a.imag * b.real)


def eigen_action(basis: SovBasis, bra: TransferEigenstate,
                 ket: TransferEigenstate):
    """Pairing <bra|ket> of the separate-state representations, as the
    determinant of the moment matrix (with the sector rule on even chains)."""
    if bra.qbar_vals is None or ket.pair_ket is None:
        require_q_data(bra, ket)      # the per-pair path checks only the two tables it reads
    grid = basis.grid
    if sector_zero(grid.params, bra.theta_m, ket.theta_m):
        return 0.0 + 0.0j
    return grid.c_ref * _ket_dets(bra.qbar_vals, ket.pair_ket)


def pair_table(params: ModelParams, spec: Spectrum, bras, kets, step, values_of):
    """The table of matrix elements from the rows ``bras`` to the rows
    ``kets`` of ``spec`` (index arrays, repeats allowed, or slices), and the
    mask of the pairs that the sector rule at charge step ``step`` zeroes.
    ``values_of(b, k)`` gives the values of the bra rows ``b`` against the
    ket rows ``k`` (index arrays into ``spec``); it is called on blocks of at
    most ``BRA_BLOCK`` bras, so its temporaries stay bounded."""
    index = np.arange(len(spec))
    bras, kets = index[bras], index[kets]
    values = np.empty((len(bras), len(kets)), dtype=complex)
    for rows in bra_blocks(len(bras)):
        values[rows] = values_of(bras[rows], kets)
    zero = np.broadcast_to(sector_zero(params, spec.theta_m[bras][:, None],
                                       spec.theta_m[kets][None], step), values.shape)
    return np.where(zero, 0.0, values), zero


def eigen_action_table(grid: SovGrid, spec: Spectrum, bras=slice(None), kets=slice(None)):
    """``eigen_action`` from the rows ``bras`` to the rows ``kets`` of
    ``spec`` (all rows by default), as a ``pair_table`` of batched
    determinants, and the mask of the pairs that the sector rule zeroes."""
    return pair_table(grid.params, spec, bras, kets, 0, lambda b, k: _cmul(
        grid.c_ref, _ket_dets(spec.qbar_vals[b][:, None], spec.pair_kets[k][None])))


def eigen_dense(spec: Spectrum, basis: SovBasis):
    """Stacked dense covectors and vectors of the separate-state
    representations of the rows of ``spec``, shape (len(spec), d) each."""
    return (_materialize(basis, "left", spec.qbar_vals, spec.theta_m),
            _materialize(basis, "right", spec.q_vals, spec.theta_m))


def identity_resolution_T(sol):
    """Sum of |t><t| / <t|t> over the whole spectrum, from the
    separate-state materializations and determinant pairings of ``sol``: a
    ``Solution``, or any object with ``params`` and its stacked
    ``covs``/``vecs``/``norms``."""
    dim = sol.params.dim
    if len(sol.norms) < dim:
        raise IncompleteSpectrum(f"need {dim} eigenstates, got {len(sol.norms)}")
    return (sol.vecs.T / sol.norms) @ sol.covs


def t_coeff_null_vector(params: ModelParams, bra_t, ket_t):
    """Difference of the interior eigenvalue coefficients, of the degrees
    2b - nsep - 1 (b = 1..nsep), of two rows of transfer coefficients
    (``Spectrum.t_rows``), broadcast over the leading axes; annihilates the
    moment matrix of two distinct eigenstates."""
    interior = slice(params.e_n, params.e_n + params.n_separate)
    return ket_t[..., interior] - bra_t[..., interior]


# ---------------------------------------------------------------------------
# The prepared solution of one chain
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Solution:
    """The monodromy, the SOV grid, the transfer spectrum with its Baxter
    polynomials and grid tables, the calibrated SOV basis and the
    local-operator data of one chain.

    The grid (``b_zeros``), the ``Spectrum`` ``states``, the basis, the
    ``covs``/``vecs`` of ``eigen_dense``, the determinant ``norms``, the
    even-chain ``charge_ops`` and the graded table ``elementary_ops`` are
    built on first use, read-only, from the seed streams ``[seed, 1]``
    (basis) and ``[seed, 2]`` (diagonalization), so they do not depend on
    the order of use; the Baxter fit draws no points.  The spectrum, the
    norms and the local-operator tables read the grid and the monodromy
    only; the basis is built for the parts that read its vectors."""
    params: ModelParams
    seed: int
    mono: mc.Monodromy
    rel_gap: float = 1e-6         # minimal relative separation of the B zeros

    def rng(self, salt):
        return np.random.default_rng(np.random.SeedSequence([self.seed, salt]))

    @cached_property
    def grid(self) -> SovGrid:
        return b_zeros(self.params, rel_gap=self.rel_gap)

    @cached_property
    def basis(self) -> SovBasis:
        return build_sov_basis(self.params, mono=self.mono, rng=self.rng(1), grid=self.grid)

    @cached_property
    def states(self) -> Spectrum:
        params = self.params
        t_rows, theta_m, R, L = transfer_eigensystem(params, self.mono, rng=self.rng(2))
        polys, nds, gaps = fit_Q_polynomials(params, t_rows)
        qbar = qbar_from_q(params, polys)
        return Spectrum(t_rows, theta_m, R, L, polys, qbar, nds, gaps,
                        *attach_q_tables(self.grid, polys, qbar, theta_m))

    @cached_property
    def _dense(self):
        return tuple(_read_only(x) for x in eigen_dense(self.states, self.basis))

    covs = property(lambda self: self._dense[0])
    vecs = property(lambda self: self._dense[1])

    @cached_property
    def norms(self) -> np.ndarray:
        """The determinant norms <t|t>, one batched determinant over the
        diagonal pairs."""
        grid, spec = self.grid, self.states
        return _read_only(_cmul(grid.c_ref, _ket_dets(spec.qbar_vals, spec.pair_kets)))

    @cached_property
    def charge_ops(self):
        """The ``sov_charge_operators`` (eta_ref, eta_ref^-1, eta_A,
        eta_A^-1) of an even chain, None on an odd chain."""
        return lo.sov_charge_operators(self.params, self.grid, self.mono)

    @cached_property
    def elementary_ops(self) -> mc.Graded:
        """The elementary lowering operators as one graded table,
        ``[a, k]`` = O_{a,k}, of batch shape (nsep, p)."""
        params, grid, eta, mono = self.params, self.grid, self.charge_ops, self.mono
        return mc.Graded.stack([mc.Graded.stack([lo.elementary_O(params, grid, eta, a, k, mono)
                                                 for k in range(params.p)])
                                for a in range(params.n_separate)])

    @cached_property
    def _frame1(self) -> lo.ShiftedMonodromy:
        return lo.ShiftedMonodromy(self.params, 1, self.mono)

    def frame(self, n: int) -> lo.ShiftedMonodromy:
        """The site-n reconstruction frame.  Site 1 keeps the default site
        order, so its frame reuses ``mono`` and is cached with its solves.
        Frames of other sites are not cached: each holds its own reordered
        monodromy."""
        if n == 1:
            return self._frame1
        return lo.shifted_monodromy(self.params, n)


def prepare(params: ModelParams, seed: int = 0, tolerances=None) -> Solution:
    """The prepared solution of one chain; ``tolerances`` may carry the
    ``zero_gap`` separation of the B zeros."""
    rel_gap = (tolerances or {}).get("zero_gap", Solution.rel_gap)
    return Solution(params, seed, mc.monodromy(params), rel_gap)
