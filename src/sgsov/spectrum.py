"""Transfer-matrix spectrum: joint diagonalization with the grading charge,
eigenvalue Laurent coefficients, the p x p functional-equation verifier,
and the two routes to the Baxter polynomial (grid extraction and nullspace
fit of the functional difference equation).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .params import ModelParams, SgSovError
from . import model_core as mc
from .sov_basis import SovBasis, DegenerateSpectrum, rayleigh_pairings

__all__ = [
    "TransferEigenstate", "EmptyNullspace", "ZeroReference",
    "diagonalize_transfer", "check_functional_equation",
    "extract_Q_grid", "fit_Q_polynomial", "qbar_from_q",
    "eval_t", "polyval_ascending",
]


FE_POINTS = 10            # spectral points of the functional-equation check
FACTORIZATION_TOL = 1e-7  # worst relative factorization residual of a wavefunction
NULL_TOL = 1e-9           # relative SVD-null and pivot threshold of the Baxter fit


class EmptyNullspace(SgSovError):
    """No polynomial solves the functional difference equation at tolerance."""


class ZeroReference(SgSovError):
    """Every wavefunction component vanished; no anchor available."""


@dataclass
class TransferEigenstate:
    """One joint eigenstate of the commuting transfer family (and of the
    grading charge on even chains)."""
    t_coeffs: dict                      # even degree -> complex coefficient
    theta_m: int                        # Z_p exponent of the charge eigenvalue, 0 on odd chains
    vec_right: np.ndarray
    vec_left: np.ndarray                # covector (row)
    psi: np.ndarray = None              # wavefunction on SOV labels
    q_grid: np.ndarray = None           # per-variable ratio tables (nsep or N, p)
    q_anchor: tuple = None              # label tuple used to anchor the ratios
    q_poly: np.ndarray = None           # ascending coefficients, leading coeff 1
    qbar_poly: np.ndarray = None
    nullspace_dim: int = 0
    q_vals: np.ndarray = None           # Q on the grids, (nsep, p)
    qbar_vals: np.ndarray = None
    diagnostics: dict = field(default_factory=dict)

    def t_at(self, lam):
        return eval_t(self.t_coeffs, lam)


def eval_t(t_coeffs, lam):
    lam = np.asarray(lam, dtype=complex)
    out = np.zeros_like(lam)
    for deg, c in t_coeffs.items():
        out = out + c * lam ** deg
    return complex(out) if out.ndim == 0 else out


def polyval_ascending(coeffs, lam):
    lam = np.asarray(lam, dtype=complex)
    out = np.zeros_like(lam)
    for k, c in enumerate(coeffs):
        out = out + c * lam ** k
    return complex(out) if out.ndim == 0 else out


def diagonalize_transfer(params: ModelParams, mono, rng,
                         gap_tol=1e-8) -> list[TransferEigenstate]:
    """Joint eigenstates of the transfer family, with eigenvalue Laurent
    coefficients recovered from left/right pairings of the coefficient
    operators.  On even chains the charge eigenspaces are diagonalized
    separately, which makes the joint labels exact."""
    tpoly = mono.transfer()
    d = params.dim
    lam0, lam1 = params.spectral_samples(rng, 2)
    T0 = tpoly.evaluate(lam0)

    blocks = []
    if params.even_chain:
        theta_diag = np.diag(mc.theta_charge(params))
        for m in range(params.p):
            idx = np.where(np.abs(theta_diag - params.q ** m) < 1e-10)[0]
            if idx.size:
                blocks.append((m, idx))
        if sum(len(ix) for _, ix in blocks) != d:
            raise DegenerateSpectrum("charge eigenspaces do not exhaust the space")
    else:
        blocks.append((0, np.arange(d)))

    T1 = tpoly.evaluate(lam1)
    R = np.zeros((d, d), dtype=complex)
    col = 0
    ms = []
    for m, idx in blocks:
        sub = T0[np.ix_(idx, idx)]
        w, v = np.linalg.eig(sub)
        # refine near-degenerate clusters with a second spectral point
        order = np.argsort(w.real * 1e6 + w.imag)
        w, v = w[order], v[:, order]
        scale = max(np.max(np.abs(w)), 1e-300)
        groups = []
        start = 0
        for i in range(1, len(w) + 1):
            if i == len(w) or abs(w[i] - w[start]) > 1e-6 * scale:
                groups.append(list(range(start, i)))
                start = i
        T1sub = T1[np.ix_(idx, idx)]
        for g in groups:
            if len(g) > 1:
                P = v[:, g]
                small = np.linalg.pinv(P) @ T1sub @ P
                _, mix = np.linalg.eig(small)
                v[:, g] = P @ mix
        full = np.zeros((d, len(idx)), dtype=complex)
        full[idx, :] = v
        R[:, col:col + len(idx)] = full
        ms.extend([m] * len(idx))
        col += len(idx)
    L = np.linalg.inv(R)

    # Rayleigh pairings l C r / l r of every state, one product per degree
    degrees = list(range(-params.n_bar, params.n_bar + 1, 2))
    norm = np.sum(L * R.T, axis=1)
    vecs = np.stack([rayleigh_pairings(L, tpoly.coeff(deg), R) / norm
                     for deg in degrees], axis=1)            # (d, len(degrees))
    states = [TransferEigenstate(t_coeffs=dict(zip(degrees, map(complex, vecs[i]))),
                                 theta_m=ms[i], vec_right=R[:, i], vec_left=L[i])
              for i in range(d)]

    # joint-label simplicity: no two states of one sector share their labels
    scale = max(np.max(np.abs(vecs)), 1e-300)
    sector = np.array(ms)
    gap = np.zeros((d, d))
    for k in range(len(degrees)):
        gap = np.maximum(gap, np.abs(vecs[:, None, k] - vecs[None, :, k]))
    collide = np.triu(sector[:, None] == sector[None, :], 1) & (gap < gap_tol * scale)
    if collide.any():
        i, j = np.argwhere(collide)[0]
        raise DegenerateSpectrum(
            f"joint labels {i} and {j} collide below {gap_tol:.1e}")
    # residual of the eigen-relation at a fresh spectral point
    lam2 = params.spectral_samples(rng, 1)[0]
    T2 = tpoly.evaluate(lam2)
    res = np.linalg.norm(T2 @ R - (vecs @ np.power(lam2, degrees)) * R, axis=0)
    bad = np.flatnonzero(res > 1e-8 * np.linalg.norm(T2) * np.linalg.norm(R, axis=0))
    if bad.size:
        raise DegenerateSpectrum(f"eigenvector residual {res[bad[0]]:.3e} too large")
    return states


def check_functional_equation(params: ModelParams, t_coeffs, rng):
    """Maximal normalized determinant of the cyclic tridiagonal family built
    from the candidate eigenvalue and the gauge coefficients, over
    ``FE_POINTS`` spectral points; vanishes exactly on the spectrum."""
    pts = params.spectral_samples(rng, FE_POINTS)
    p = params.p
    lams = np.asarray(pts)[:, None] * params.q ** np.arange(p)     # (points, p)
    j = np.arange(p)
    D = np.zeros((len(pts), p, p), dtype=complex)
    D[:, j, j] = eval_t(t_coeffs, lams)
    D[:, j, (j + 1) % p] = -mc.d_coeff(params, lams)
    D[:, j, (j - 1) % p] = -mc.a_coeff(params, lams)
    rownorms = np.linalg.norm(D, axis=2)
    vals = np.abs(np.linalg.det(D)) / np.maximum(np.prod(rownorms, axis=1), 1e-300)
    return float(np.max(vals, initial=0.0))


def extract_Q_grid(state: TransferEigenstate, basis: SovBasis):
    """Wavefunction components in the SOV basis and the per-variable ratio
    tables of the Baxter function; validates the separated factorization."""
    params = basis.params
    p = params.p
    psi = basis.left @ state.vec_right
    state.psi = psi
    j0 = int(np.argmax(np.abs(psi)))
    if abs(psi[j0]) <= 1e-13 * np.linalg.norm(state.vec_right):
        raise ZeroReference("all SOV components of the eigenvector vanish")
    anchor = params.tuples[j0]
    nvar = params.n_sites
    # label tuples of the anchor with variable a set to h, shape (nvar, p, nvar)
    tups = np.broadcast_to(anchor, (nvar, p, nvar)).copy()
    tups[np.arange(nvar), :, np.arange(nvar)] = np.arange(p)
    grid_ratios = psi[params.flat_indices(tups)] / psi[j0]
    state.q_grid = grid_ratios
    state.q_anchor = tuple(anchor)
    # factorization across the whole label set
    predicted = np.prod(grid_ratios[np.arange(nvar), params.tuples], axis=1) * psi[j0]
    resid = np.max(np.abs(predicted - psi)) / max(np.max(np.abs(psi)), 1e-300)
    state.diagnostics["factorization_residual"] = float(resid)
    if resid > FACTORIZATION_TOL:
        raise DegenerateSpectrum(
            f"wavefunction does not factorize over the separate variables: {resid:.2e}")
    if params.even_chain:
        # the reference-variable dependence is the pure charge phase
        m = state.theta_m
        expect = params.q ** (-m * (np.arange(p) - anchor[-1]))
        dev = np.max(np.abs(grid_ratios[-1] - expect))
        state.diagnostics["reference_phase_residual"] = float(dev)
    return grid_ratios


def _min_degree_representative(null_basis):
    """Eliminate from the top degree downward to find the lowest-degree
    element of the nullspace span."""
    V = np.array(null_basis)  # (k, D+1) ascending coefficients
    k, ncols = V.shape
    # Gaussian elimination on reversed columns (highest degree first)
    W = V[:, ::-1].copy()
    row = 0
    for c in range(ncols):
        if row >= k:
            break
        piv = row + np.argmax(np.abs(W[row:, c]))
        if abs(W[piv, c]) < NULL_TOL * max(np.max(np.abs(W)), 1e-300):
            continue
        W[[row, piv]] = W[[piv, row]]
        W[row] = W[row] / W[row, c]
        for r in range(k):
            if r != row:
                W[r] = W[r] - W[r, c] * W[row]
        row += 1
    cand = W[row - 1, ::-1] if row > 0 else V[0]
    # normalize: leading coefficient one
    nz = np.where(np.abs(cand) > 1e-10 * np.max(np.abs(cand)))[0]
    cand = cand[: nz[-1] + 1] if nz.size else cand
    return cand / cand[-1]


def fit_Q_polynomial(params: ModelParams, t_coeffs, rng):
    """Polynomial solution of the finite difference equation
    t(lam) Q(lam) = a(lam) Q(lam/q) + d(lam) Q(lam q), found as the SVD
    nullspace of the sampled linear map; returns the minimal-degree
    representative (leading coefficient one) and the nullspace dimension."""
    deg_max = (params.p - 1) * params.n_sites
    n_pts = 2 * (deg_max + params.n_sites) + 1
    pts = np.array(params.spectral_samples(rng, n_pts))
    q = params.q
    mono_pow = np.arange(deg_max + 1)
    W = (pts[:, None] ** mono_pow[None, :]) * (
        eval_t(t_coeffs, pts)[:, None]
        - mc.a_coeff(params, pts)[:, None] * q ** (-mono_pow[None, :])
        - mc.d_coeff(params, pts)[:, None] * q ** (mono_pow[None, :]))
    # row scaling keeps the SVD threshold meaningful across samples
    W = W / np.linalg.norm(W, axis=1, keepdims=True)
    _, sv, vh = np.linalg.svd(W)
    null_mask = sv <= NULL_TOL * sv[0]
    nd = int(np.sum(null_mask)) + max(0, W.shape[1] - len(sv))
    if nd == 0:
        raise EmptyNullspace(
            f"no polynomial solution at threshold {NULL_TOL:.1e}; smallest "
            f"singular value {sv[-1] / sv[0]:.3e}")
    null_basis = vh[len(sv) - int(np.sum(null_mask)):].conj()
    coeffs = _min_degree_representative(null_basis)
    return coeffs, nd


def qbar_from_q(params: ModelParams, q_poly):
    """Image of the Baxter polynomial solving the conjugate difference
    equation in the reference gauge: lam^{N mod p} * Q(-lam)."""
    chi = params.n_sites % params.p
    out = np.zeros(len(q_poly) + chi, dtype=complex)
    for k, c in enumerate(q_poly):
        out[k + chi] = c * (-1.0) ** k
    return out
