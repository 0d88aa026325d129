"""Determinant formulas for matrix elements of local operators between
transfer eigenstates, and the multi-point expansion over intermediate
eigenstates.

All formulas are stated for the separate-state representations of the
eigenstates; each one differs from the scalar-product moment matrix in a
controlled set of columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .params import ModelParams, SgSovError
from .sov_basis import SovBasis, SovGrid, cross_product, vandermonde
from .spectrum import Spectrum, TransferEigenstate
from .separate_states import (IncompleteSpectrum, _cmul, _ket_dets, _ket_matrices,
                              pair_table, phi_moments, require_q_data, sector_zero)
from .local_ops import ElementaryBasisElement

__all__ = [
    "FormFactorResult", "ShiftUnavailable", "ff_u", "ff_u_table", "ff_elementary",
    "ff_elementary_table", "npoint", "shift_eigenvalues",
]


class ShiftUnavailable(SgSovError):
    """Site shifts beyond the first site need a homogeneous chain."""


@dataclass
class FormFactorResult:
    value: complex
    selection_zero: bool = False
    matrix: np.ndarray = None


def shift_eigenvalues(sol, w_matrix):
    """Eigenvalues <t|W|t> / <t|t> of a chain-shift permutation ``w_matrix``
    on every eigenstate of ``sol``, from the materialized separate-state
    representations ``sol.covs``, ``sol.vecs``."""
    return np.sum(sol.covs @ w_matrix * sol.vecs, axis=1) \
        / np.sum(sol.covs * sol.vecs, axis=1)


def _require_shift(params: ModelParams, n: int, shift):
    """Raise unless n is a site of the chain and, for n > 1, the chain is
    homogeneous and its chain-shift eigenvalues ``shift`` are given."""
    if not 1 <= n <= params.n_sites:
        raise IndexError(f"site index {n} out of range 1..{params.n_sites}")
    if n != 1 and not params.homogeneous:
        raise ShiftUnavailable(
            "site shifts need the per-state chain-shift eigenvalue, which exists "
            "on homogeneous chains only")
    if n != 1 and shift is None:
        raise ShiftUnavailable("pass the per-state chain-shift eigenvalues for n > 1")


def _u_step(n: int):
    """Charge step of the site-n shift generator on an even chain."""
    return 1 if n % 2 == 1 else -1


def ff_u(params: ModelParams, basis: SovBasis, bra: TransferEigenstate,
         ket: TransferEigenstate, n: int = 1, shift_ratio=None,
         keep_matrix=False) -> FormFactorResult:
    """Matrix element of the site-n shift generator between eigenstates, as
    ``basis.grid.ff_u_pref`` times the determinant of the matrix (kept by
    ``keep_matrix``) that differs from the moment matrix in its last column.

    For n > 1 the ratio ``shift_ratio`` of the bra's and the ket's chain-shift
    eigenvalues must be supplied (they exist on homogeneous chains only)."""
    if bra.qbar_vals is None or ket.ff_u_ket is None:
        require_q_data(bra, ket)      # the per-pair path checks only the two tables it reads
    _require_shift(params, n, shift_ratio)
    if sector_zero(params, bra.theta_m, ket.theta_m, _u_step(n)):
        return FormFactorResult(0.0 + 0.0j, selection_zero=True)
    U = _ket_matrices(bra.qbar_vals, ket.ff_u_ket)
    value = basis.grid.ff_u_pref * np.linalg.det(U)
    if shift_ratio is not None:
        value = shift_ratio * value
    return FormFactorResult(value, matrix=U if keep_matrix else None)


def ff_u_table(grid: SovGrid, spec: Spectrum, n: int = 1, shift=None,
               bras=slice(None), kets=slice(None)):
    """``ff_u`` from the rows ``bras`` to the rows ``kets`` of ``spec`` (all
    rows by default), as a ``pair_table`` of batched determinants against the
    kets' ``ff_u_kets``, and the mask of the selection zeros.  For n > 1,
    ``shift`` holds the chain-shift eigenvalue of each row of ``spec``, shape
    (d,); each pair is scaled by the bra's over the ket's."""
    _require_shift(grid.params, n, shift)

    def values_of(b, k):
        values = _cmul(grid.ff_u_pref, _ket_dets(spec.qbar_vals[b][:, None],
                                                 spec.ff_u_kets[k][None]))
        return values if shift is None else _cmul(shift[b][:, None] / shift[k][None], values)

    return pair_table(grid.params, spec, bras, kets, _u_step(n), values_of)


# ---------------------------------------------------------------------------
# Elementary-operator form factors
# ---------------------------------------------------------------------------

def _ff_elementary_values(params: ModelParams, grid: SovGrid, qbar, q, theta,
                          elem: ElementaryBasisElement):
    """The elementary form factors of ``elem`` for Qbar tables ``qbar`` against
    Q tables ``q``, (..., nsep, p) each, broadcast over the leading axes, for
    kets in the charge sectors ``theta`` (read on even chains only), and their
    determinant matrices.  The grid-power columns and every grid factor of
    the prefactor are built once; per pair only the spectator moments, the
    Q.Qbar factor and the sector factor are formed."""
    p, nsep = params.p, params.n_separate
    roots, omega, z = grid.grid, grid.omega, grid.z
    factors = elem.factors
    r = len(factors)
    g = sum(alpha for _, _, alpha in factors)
    h0 = elem.theta_a_pow if params.even_chain else 0
    excited = [a for a, _, _ in factors]
    spectators = [b for b in range(nsep) if b not in excited]
    size = nsep + r * p - g
    # a block of grid-power columns for every excited variable, then the
    # moment columns of the spectator variables
    col_roots = [roots[a, (k + j) % p] for a, k, alpha in factors
                 for j in range(p - alpha + 1)]
    powers = (np.array(col_roots, dtype=complex) ** 2) ** np.arange(size)[:, None]
    mom = phi_moments(grid, qbar, q, range(h0 + g, 2 * size + h0 + g, 2))[..., spectators, :]
    M = np.empty(mom.shape[:-2] + (size, size), dtype=complex)
    M[..., :len(col_roots)] = powers
    M[..., len(col_roots):] = np.swapaxes(mom, -1, -2)

    # grid part of the scalar prefactor
    f_num = 1.0 + 0.0j
    for a, k, alpha in factors:
        f_num *= roots[a, k] ** (h0 + alpha * (nsep - r)) / omega[a, k]
        for h in range(alpha):
            f_num *= grid.a_vals[a, (k - h) % p]
    # cross factors between excited variables follow the operator order:
    # the i-th factor still sees variable a_j at its original grid index,
    # while the j-th factor sees a_i already lowered by alpha_i (i < j)
    f_den = 1.0 + 0.0j
    for i, (ai, ki, alphai) in enumerate(factors):
        for aj, kj, alphaj in factors[i + 1:]:
            for h in range(alphai):
                x, y = roots[ai, (ki - h) % p], roots[aj, kj]
                f_den *= x / y - y / x
            for h in range(alphaj):
                x, y = roots[aj, (kj - h) % p], roots[ai, (ki - alphai) % p]
                f_den *= x / y - y / x
    # variable order, then the operator-ordering orientation of the excited blocks
    sign = (-1.0) ** (sum(a - i for i, a in enumerate(excited)) + (r - 1) * (g - r))
    qpow = np.prod([params.q ** (-(nsep - r) * alpha * (alpha - 1) / 2)
                    for _, _, alpha in factors])
    v_small = vandermonde([roots[a, k] for a, k, _ in factors], squares=True)
    v_big = vandermonde(col_roots, squares=True)
    z_cross = np.prod([cross_product(z[a], z[spectators], squares=True)
                       for a in excited])
    pref = sign * qpow * f_num * v_small / (f_den * z_cross * v_big)
    if params.even_chain:
        # the sector factor of every ket sector, read by label
        pref = _cmul(np.array([grid.c_ref * params.q ** (h0 * m)
                               / (grid.eta0[-1] ** elem.theta_pow
                                  * params.xi_prod ** h0)
                               for m in range(p)])[theta], pref)
    for a, k, alpha in factors:
        pref = _cmul(pref, _cmul(q[..., a, (k - alpha) % p], qbar[..., a, k]))
    return _cmul(pref, np.linalg.det(M)), M


def ff_elementary(params: ModelParams, grid: SovGrid,
                  bra: TransferEigenstate, ket: TransferEigenstate,
                  elem: ElementaryBasisElement,
                  keep_matrix=False) -> FormFactorResult:
    """Matrix element of a canonical elementary monomial: one determinant
    with a block of grid-power columns for every excited variable and
    moment columns for the spectator variables."""
    require_q_data(bra, ket)
    if sector_zero(params, bra.theta_m, ket.theta_m, elem.theta_pow):
        return FormFactorResult(0.0 + 0.0j, selection_zero=True)
    value, M = _ff_elementary_values(params, grid, bra.qbar_vals, ket.q_vals,
                                     ket.theta_m, elem)
    return FormFactorResult(value[()], matrix=M if keep_matrix else None)


def ff_elementary_table(grid: SovGrid, spec: Spectrum, elem: ElementaryBasisElement,
                        bras=slice(None), kets=slice(None)):
    """``ff_elementary`` from the rows ``bras`` to the rows ``kets`` of
    ``spec`` (all rows by default), as a ``pair_table`` of the same kernel
    on the stacked tables, and the mask of the selection zeros."""
    return pair_table(grid.params, spec, bras, kets, elem.theta_pow, lambda b, k: (
        _ff_elementary_values(grid.params, grid, spec.qbar_vals[b][:, None],
                              spec.q_vals[k][None], spec.theta_m[k], elem)[0]))


# ---------------------------------------------------------------------------
# Multi-point expansion
# ---------------------------------------------------------------------------

def npoint(sol, index: int, tables):
    """Normalized expectation <t| O_1 ... O_m |t> / <t|t> of row ``index``
    of the spectrum of ``sol``, expanded over the full eigenbasis: ``sol``
    is a ``Solution``, or any object with ``params`` and the determinant
    norms ``norms``.

    ``tables[s][i, j]`` is the matrix element <t_i| O_s |t_j> between
    eigenstates, from dense contraction (``sol.covs @ O @ sol.vecs.T``) or
    from a determinant pair table (``ff_u_table(...)[0]``)."""
    norms = sol.norms
    if len(norms) < sol.params.dim:
        raise IncompleteSpectrum(f"need the full spectrum of {sol.params.dim} states")
    amps = tables[0][index]
    for table in tables[1:]:
        amps = (amps / norms) @ table
    return amps[index] / norms[index]
