"""Determinant formulas for matrix elements of local operators between
transfer eigenstates, and the multi-point expansion over intermediate
eigenstates.

All formulas are stated for the separate-state representations of the
eigenstates; each one differs from the scalar-product moment matrix in a
controlled set of columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .params import ModelParams, SgSovError
from .sov_basis import SovBasis, cross_product, vandermonde
from .spectrum import TransferEigenstate
from .separate_states import (IncompleteSpectrum, _cmul, eigen_dense, phi_moments,
                              require_q_data, sector_zero, stacked_tables)
from .local_ops import ElementaryBasisElement

__all__ = [
    "FormFactorResult", "ShiftUnavailable", "ff_u", "ff_u_table", "ff_elementary", "npoint",
    "shift_eigenvalue",
]


class ShiftUnavailable(SgSovError):
    """Site shifts beyond the first site need a homogeneous chain."""


@dataclass
class FormFactorResult:
    value: complex
    method: str = "determinant"
    selection_zero: bool = False
    matrix: np.ndarray = None
    context: dict = field(default_factory=dict)


def shift_eigenvalue(params: ModelParams, basis: SovBasis,
                     state: TransferEigenstate, w_matrix):
    """Eigenvalue of a chain-shift permutation on a transfer eigenstate,
    from the materialized separate-state representation."""
    (cov,), (vec,), _ = eigen_dense([state], basis)
    return complex(cov @ w_matrix @ vec) / complex(cov @ vec)


def _require_shift(params: ModelParams, n: int, shift_ratio):
    if n != 1 and shift_ratio is None:
        if not params.homogeneous:
            raise ShiftUnavailable(
                "site shifts need the chain-shift eigenvalue ratio, computable "
                "on homogeneous chains only")
        raise ShiftUnavailable("pass shift_ratio for n > 1")


def _u_step(n: int):
    """Charge step of the site-n shift generator on an even chain."""
    return 1 if n % 2 == 1 else -1


def _sector_weights(params: ModelParams, m: int, n: int):
    """Weights of the two theta-sector columns of ``ff_u`` for a ket in
    sector m (even chains)."""
    lam = complex(params.mu_plus[n - 1])
    return (params.q ** m * (lam / params.xi_prod),
            params.q ** (-m) * (params.xi_prod / lam))


def _ff_u_matrices(params: ModelParams, basis: SovBasis, qbar, q, weights, n):
    """The ff_u determinant matrices of Qbar tables ``qbar`` against Q tables
    ``q``, (..., nsep, p) each, broadcast over the leading axes.  On even
    chains ``weights`` are the ket's ``_sector_weights``, shaped to broadcast
    against (..., nsep)."""
    lam = complex(params.mu_plus[n - 1])
    nsep = params.n_separate
    even = params.even_chain
    exps = list(range(1, 2 * nsep - 2, 2)) + ([2 * nsep - 1, -1] if even else [])
    mom = phi_moments(basis, qbar, q, exps)
    # substituted column: sum_h Q_ket(eta^{(h)}) (eta^{(h)})^{nsep-1} / omega
    # * Qbar_bra(eta^{(h+1)}) a(eta^{(h+1)}) / (lam/eta^{(h+1)} - eta^{(h+1)}/lam)
    eta = basis.grid.grid[:nsep]
    pole = qbar * basis.grid.a_vals / (lam / eta - eta / lam)
    pole_next = np.concatenate((pole[..., 1:], pole[..., :1]), axis=-1)   # h -> h+1
    ker = (q * eta ** (nsep - 1) / basis.omega * pole_next).sum(axis=-1)
    col = basis.c_ref * ker / (params.kprod * basis.grid.eta0[-1] ** params.e_n)
    if even:
        col = col + np.sqrt(params.p) * (weights[0] * mom[..., -2]
                                         - weights[1] * mom[..., -1])
    return np.concatenate((mom[..., :nsep - 1], col[..., None]), axis=-1)


def ff_u(params: ModelParams, basis: SovBasis, bra: TransferEigenstate,
         ket: TransferEigenstate, n: int = 1, shift_ratio=None,
         keep_matrix=False) -> FormFactorResult:
    """Matrix element of the site-n shift generator between eigenstates, as a
    single determinant that differs from the scalar-product moment matrix in
    its last column.

    For n > 1 the prefactor ratio of chain-shift eigenvalues must be supplied
    (available on homogeneous chains)."""
    require_q_data(bra, ket)
    _require_shift(params, n, shift_ratio)
    if sector_zero(params, bra.theta_m, ket.theta_m, _u_step(n)):
        return FormFactorResult(0.0 + 0.0j, selection_zero=True)
    weights = _sector_weights(params, ket.theta_m, n) if params.even_chain else None
    U = _ff_u_matrices(params, basis, bra.qbar_vals, ket.q_vals, weights, n)
    value = np.linalg.det(U)
    if shift_ratio is not None:
        value = shift_ratio * value
    return FormFactorResult(value, matrix=U if keep_matrix else None)


def ff_u_table(params: ModelParams, basis: SovBasis, bras, kets, n: int = 1,
               shift_ratio=None):
    """``ff_u`` from every bra to every ket, shape (len(bras), len(kets)), as
    one batched determinant, and the mask of the selection zeros.  For n > 1,
    ``shift_ratio`` holds the chain-shift eigenvalue ratio of each pair (or
    broadcasts to that shape)."""
    _require_shift(params, n, shift_ratio)
    qbar, _, theta_bra = stacked_tables(bras)
    _, q, theta_ket = stacked_tables(kets)
    weights = None
    if params.even_chain:
        # Python scalars per ket, as the per-pair call forms them, so that
        # both give the same values; shape (2, len(kets), 1)
        weights = np.array([_sector_weights(params, int(m), n) for m in theta_ket]).T[..., None]
    values = np.linalg.det(_ff_u_matrices(params, basis, qbar[:, None], q[None],
                                          weights, n))
    if shift_ratio is not None:
        values = _cmul(np.asarray(shift_ratio), values)
    zero = np.broadcast_to(sector_zero(params, theta_bra[:, None], theta_ket[None],
                                       _u_step(n)), values.shape)
    return np.where(zero, 0.0, values), zero


# ---------------------------------------------------------------------------
# Elementary-operator form factors
# ---------------------------------------------------------------------------

def ff_elementary(params: ModelParams, basis: SovBasis,
                  bra: TransferEigenstate, ket: TransferEigenstate,
                  elem: ElementaryBasisElement,
                  keep_matrix=False) -> FormFactorResult:
    """Matrix element of a canonical elementary monomial: one determinant
    with a block of grid-power columns for every excited variable and
    moment columns for the spectator variables."""
    require_q_data(bra, ket)
    p = params.p
    nsep = params.n_separate
    grid = basis.grid.grid
    omega = basis.omega
    factors = list(elem.factors)
    r = len(factors)
    g = sum(f[2] for f in factors)
    h0 = elem.theta_a_pow if params.even_chain else 0
    hN = elem.theta_pow if params.even_chain else 0
    if sector_zero(params, bra.theta_m, ket.theta_m, hN):
        return FormFactorResult(0.0 + 0.0j, selection_zero=True)
    excited = [f[0] for f in factors]
    spectators = [b for b in range(nsep) if b not in excited]
    size = nsep + r * p - g
    M = np.zeros((size, size), dtype=complex)
    col = 0
    col_roots = []
    for (a, k, alpha) in factors:
        for j in range(p - alpha + 1):
            col_roots.append(grid[a, (k + j) % p])
            M[:, col] = (col_roots[-1] ** 2) ** np.arange(size)
            col += 1
    mom = phi_moments(basis, bra.qbar_vals, ket.q_vals,
                      range(h0 + g, 2 * size + h0 + g, 2))
    M[:, col:] = mom[spectators].T

    # scalar prefactor
    f_num = 1.0 + 0.0j
    for i, (a, k, alpha) in enumerate(factors):
        eta_k = grid[a, k]
        f_num *= (ket.q_vals[a, (k - alpha) % p] * bra.qbar_vals[a, k]
                  * eta_k ** (h0 + alpha * (nsep - r)) / omega[a, k])
        for h in range(alpha):
            f_num *= basis.grid.a_vals[a, (k - h) % p]
    # cross factors between excited variables follow the operator order:
    # the i-th factor still sees variable a_j at its original grid index,
    # while the j-th factor sees a_i already lowered by alpha_i (i < j)
    f_den = 1.0 + 0.0j
    for i, (ai, ki, alphai) in enumerate(factors):
        for j, (aj, kj, alphaj) in enumerate(factors):
            if j <= i:
                continue
            for h in range(alphai):
                x = grid[ai, (ki - h) % p]
                y = grid[aj, kj]
                f_den *= x / y - y / x
            for h in range(alphaj):
                x = grid[aj, (kj - h) % p]
                y = grid[ai, (ki - alphai) % p]
                f_den *= x / y - y / x
    sign = (-1.0) ** sum(a - i for i, (a, _, _) in enumerate(factors))
    # operator-ordering orientation of the excited blocks
    sign *= (-1.0) ** ((r - 1) * (g - r)) if r else 1.0
    qpow = np.prod([params.q ** (-(nsep - r) * alpha * (alpha - 1) / 2)
                    for (_, _, alpha) in factors]) if factors else 1.0
    z = basis.grid.z
    v_small = vandermonde([grid[a, k] for (a, k, _) in factors], squares=True)
    v_big = vandermonde(col_roots, squares=True)
    z_cross = np.prod([cross_product(z[a], z[spectators], squares=True)
                       for a in excited])
    pref = sign * qpow * f_num * v_small / (f_den * z_cross * v_big)

    sector = 1.0 + 0.0j
    if params.even_chain:
        sector = basis.c_ref * params.q ** (h0 * ket.theta_m) \
            / (basis.grid.eta0[-1] ** hN * params.xi_prod ** h0)
    value = sector * pref * np.linalg.det(M)
    return FormFactorResult(value, matrix=M if keep_matrix else None)


# ---------------------------------------------------------------------------
# Multi-point expansion
# ---------------------------------------------------------------------------

def npoint(sol, index: int, ops, me_fns=None):
    """Normalized expectation <t| O_1 ... O_m |t> / <t|t> of the eigenstate
    ``sol.states[index]``, expanded over the full eigenbasis of ``sol``: a
    ``Solution``, or any object with ``params``, ``states`` and the stacked
    ``covs``/``vecs``/``norms`` of ``eigen_dense``.

    ``ops`` is a list of dense operators; ``me_fns`` optionally supplies a
    matrix-element function (bra, ket) -> complex for each slot (determinant
    routes plug in here), defaulting to dense contraction with the
    separate-state materializations."""
    dim = sol.params.dim
    states, covs, vecs, norms = sol.states, sol.covs, sol.vecs, sol.norms
    if len(norms) < dim:
        raise IncompleteSpectrum(f"need the full spectrum of {dim} states")

    def me(slot, i, j):
        if me_fns is not None and me_fns[slot] is not None:
            return me_fns[slot](states[i], states[j])
        return covs[i] @ ops[slot] @ vecs[j]

    m = len(ops)
    amps = {index: 1.0 + 0.0j}
    for slot in range(m):
        new = {}
        targets = range(len(states)) if slot < m - 1 else [index]
        for j in targets:
            acc = 0.0 + 0.0j
            for i, amp in amps.items():
                if amp == 0.0:
                    continue
                acc += amp * me(slot, i, j)
            if acc != 0.0:
                new[j] = acc / (norms[j] if slot < m - 1 else 1.0)
        amps = new
    total = amps.get(index, 0.0 + 0.0j)
    return total / norms[index]
