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
from .separate_states import (IncompleteSpectrum, eigen_dense, phi_moments,
                              require_q_data)
from .local_ops import ElementaryBasisElement

__all__ = [
    "FormFactorResult", "ShiftUnavailable", "ff_u", "ff_elementary", "npoint",
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


def _u_selection_ok(params, bra, ket, n):
    if not params.even_chain:
        return True
    step = 1 if n % 2 == 1 else -1
    return (bra.theta_m - ket.theta_m - step) % params.p == 0


def ff_u(params: ModelParams, basis: SovBasis, bra: TransferEigenstate,
         ket: TransferEigenstate, n: int = 1, shift_ratio=None,
         keep_matrix=False) -> FormFactorResult:
    """Matrix element of the site-n shift generator between eigenstates, as a
    single determinant that differs from the scalar-product moment matrix in
    its last column.

    For n > 1 the prefactor ratio of chain-shift eigenvalues must be supplied
    (available on homogeneous chains)."""
    require_q_data(bra, ket)
    if n != 1 and shift_ratio is None:
        if not params.homogeneous:
            raise ShiftUnavailable(
                "site shifts need the chain-shift eigenvalue ratio, computable "
                "on homogeneous chains only")
        raise ShiftUnavailable("pass shift_ratio for n > 1")
    if not _u_selection_ok(params, bra, ket, n):
        return FormFactorResult(0.0 + 0.0j, selection_zero=True)
    lam = complex(params.mu_plus[n - 1])
    nsep = params.n_separate
    even = params.even_chain
    exps = list(range(1, 2 * nsep - 2, 2)) + ([2 * nsep - 1, -1] if even else [])
    mom = phi_moments(basis, bra.qbar_vals, ket.q_vals, exps)
    U = np.empty((nsep, nsep), dtype=complex)
    U[:, :nsep - 1] = mom[:, :nsep - 1]
    # substituted column: sum_h Q_ket(eta^{(h)}) (eta^{(h)})^{nsep-1} / omega
    # * Qbar_bra(eta^{(h+1)}) a(eta^{(h+1)}) / (lam/eta^{(h+1)} - eta^{(h+1)}/lam)
    eta = basis.grid.grid[:nsep]
    pole = bra.qbar_vals * basis.grid.a_vals / (lam / eta - eta / lam)
    pole_next = np.concatenate((pole[:, 1:], pole[:, :1]), axis=1)   # h -> h+1
    ker = (ket.q_vals * eta ** (nsep - 1) / basis.omega * pole_next).sum(axis=1)
    col = basis.c_ref * ker / (params.kprod * basis.grid.eta0[-1] ** params.e_n)
    if even:
        mprime = ket.theta_m
        col = col + np.sqrt(params.p) * (
            params.q ** mprime * (lam / params.xi_prod) * mom[:, -2]
            - params.q ** (-mprime) * (params.xi_prod / lam) * mom[:, -1])
    U[:, nsep - 1] = col
    value = np.linalg.det(U)
    if shift_ratio is not None:
        value = shift_ratio * value
    return FormFactorResult(value, matrix=U if keep_matrix else None)


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
    if params.even_chain and \
            (bra.theta_m - ket.theta_m - hN) % p != 0:
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

def npoint(params: ModelParams, basis: SovBasis, state: TransferEigenstate,
           ops, states, me_fns=None):
    """Normalized expectation <t| O_1 ... O_m |t> / <t|t> expanded over the
    full eigenbasis.

    ``ops`` is a list of dense operators; ``me_fns`` optionally supplies a
    matrix-element function (bra, ket) -> complex for each slot (determinant
    routes plug in here), defaulting to dense contraction with the
    separate-state materializations."""
    if len(states) < params.dim:
        raise IncompleteSpectrum(f"need the full spectrum of {params.dim} states")
    covs, vecs, norms = eigen_dense(states, basis)
    t_idx = states.index(state)

    def me(slot, i, j):
        if me_fns is not None and me_fns[slot] is not None:
            return me_fns[slot](states[i], states[j])
        return covs[i] @ ops[slot] @ vecs[j]

    m = len(ops)
    amps = {t_idx: 1.0 + 0.0j}
    for slot in range(m):
        new = {}
        targets = range(len(states)) if slot < m - 1 else [t_idx]
        for j in targets:
            acc = 0.0 + 0.0j
            for i, amp in amps.items():
                if amp == 0.0:
                    continue
                acc += amp * me(slot, i, j)
            if acc != 0.0:
                new[j] = acc / (norms[j] if slot < m - 1 else 1.0)
        amps = new
    total = amps.get(t_idx, 0.0 + 0.0j)
    return total / norms[t_idx]
