"""Transfer-matrix spectrum: joint diagonalization with the grading charge,
eigenvalue Laurent coefficients, the p x p functional-equation verifier,
and the two routes to the Baxter polynomial (grid extraction and nullspace
fit of the coefficients of the functional difference equation).
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .params import ModelParams, SgSovError
from . import model_core as mc
from .sov_basis import SovBasis, DegenerateSpectrum, _read_only, rayleigh_pairings

__all__ = [
    "TransferEigenstate", "Spectrum", "EmptyNullspace", "ZeroReference",
    "transfer_eigensystem", "diagonalize_transfer", "diagonalization_point",
    "digit_parity_defect", "check_functional_equation",
    "check_functional_equations",
    "extract_Q_grid", "extract_Q_grids", "fit_Q_polynomial", "fit_Q_polynomials",
    "qbar_from_q", "eval_t", "polyval_ascending", "power_sum",
]


FE_POINTS = 10            # spectral points of the functional-equation check
FACTORIZATION_TOL = 1e-7  # worst relative factorization residual of a wavefunction
NULL_TOL = 1e-9           # relative SVD-null and top-coefficient threshold of the Baxter fit
LABEL_GAP_TOL = 1e-8      # relative gap below which two joint transfer labels collide
PARITY_TOL = 1e-12        # relative ||P T P - T|| up to which T is split by digit parity


class EmptyNullspace(SgSovError):
    """No polynomial solves the functional difference equation at tolerance."""


class ZeroReference(SgSovError):
    """Every wavefunction component vanished; no anchor available."""


@dataclass
class TransferEigenstate:
    """One joint eigenstate of the transfer family (and of the grading charge
    on even chains) for the per-pair kernels: ``Spectrum.eigenstate``."""
    t_coeffs: np.ndarray                # (n_bar + 1,), column c is degree 2c - n_bar
    theta_m: int                        # Z_p exponent of the charge eigenvalue, 0 on odd chains
    vec_right: np.ndarray
    vec_left: np.ndarray                # covector (row)
    q_poly: np.ndarray = None           # ((p - 1) N + 1,) ascending, top nonzero coeff 1
    qbar_poly: np.ndarray = None        # ((p - 1) N + 1 + N mod p,) ascending
    nullspace_dim: int = 0
    q_vals: np.ndarray = None           # Q on the grids, (nsep, p)
    qbar_vals: np.ndarray = None
    ff_u_ket: np.ndarray = None         # Q against its sector's ff_u_weights, (nsep, nsep, p)
    pair_ket: np.ndarray = None         # Q times the pairing_weights, (nsep, nsep, p)


@dataclass(frozen=True, eq=False)
class Spectrum:
    """The transfer spectrum of one chain, one row per joint eigenstate, as
    stacked arrays that the constructor marks read-only in place."""
    t_rows: np.ndarray                  # (d, n_bar + 1), column c is degree 2c - n_bar
    theta_m: np.ndarray                 # (d,) charge sectors, 0 on odd chains
    R: np.ndarray                       # (d, d), the right eigenvectors as columns
    L: np.ndarray                       # R^-1, the left eigenvectors as rows
    q_poly: np.ndarray                  # (d, (p - 1) N + 1) ascending
    qbar_poly: np.ndarray               # (d, (p - 1) N + 1 + N mod p) ascending
    nullspace_dim: np.ndarray           # (d,) of the Baxter fit
    fit_gap: np.ndarray                 # (d,) least non-null singular value over the top one
    q_vals: np.ndarray                  # Q on the grids, (d, nsep, p)
    qbar_vals: np.ndarray
    ff_u_kets: np.ndarray               # Q against ff_u_weights, (d, nsep, nsep, p)
    pair_kets: np.ndarray               # Q times pairing_weights, (d, nsep, nsep, p)

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, _read_only(np.asarray(getattr(self, f.name))))

    def __len__(self):
        return len(self.t_rows)

    def eigenstate(self, i) -> TransferEigenstate:
        """The per-pair kernels' view of row i, sharing its memory."""
        return TransferEigenstate(
            self.t_rows[i], int(self.theta_m[i]), self.R[:, i], self.L[i], self.q_poly[i],
            self.qbar_poly[i], int(self.nullspace_dim[i]), self.q_vals[i], self.qbar_vals[i],
            self.ff_u_kets[i], self.pair_kets[i])


def eval_t(t_rows, lam):
    """Transfer eigenvalue of the coefficient rows ``t_rows``
    (..., n_bar + 1), column c holding degree 2c - n_bar, at ``lam``; the
    leading axes of the rows broadcast against ``lam``."""
    lam, n_bar = np.asarray(lam, dtype=complex), np.shape(t_rows)[-1] - 1
    return power_sum(t_rows, (lam ** (2 * c - n_bar) for c in range(n_bar + 1)))


def polyval_ascending(coeffs, lam):
    """Polynomial of the ascending coefficient rows ``coeffs`` (..., K + 1)
    at ``lam``; the leading axes of the rows broadcast against ``lam``."""
    lam = np.asarray(lam, dtype=complex)
    return power_sum(coeffs, (lam ** k for k in range(np.shape(coeffs)[-1])))


def power_sum(coeffs, powers):
    """sum_k coeffs[..., k] * powers[k] over the ascending coefficient rows
    ``coeffs`` (..., K + 1): the sum of ``polyval_ascending``."""
    coeffs = np.asarray(coeffs)
    out = 0
    for k, power in zip(range(coeffs.shape[-1]), powers):
        out = out + coeffs[..., k] * power
    return out


def diagonalize_transfer(params: ModelParams, mono, rng) -> list[TransferEigenstate]:
    """The rows of ``transfer_eigensystem``, one eigenstate of read-only views each."""
    t_rows, theta_m, R, L = transfer_eigensystem(params, mono, rng)
    return [TransferEigenstate(t, int(m), r, l) for t, m, r, l in zip(t_rows, theta_m, R.T, L)]


def digit_parity_defect(T, neg):
    """||P T P - T||_F / ||T||_F of the digit negation P whose index map is
    ``neg`` (``model_core.digit_negation``)."""
    return mc.frob(T[np.ix_(neg, neg)] - T) / max(mc.frob(T), 1e-300)


def diagonalization_point(params: ModelParams, mono, rng):
    """T at the one spectral point that ``transfer_eigensystem`` draws from
    ``rng``, and whether it splits T by digit parity there: when
    ``digit_parity_defect`` is at most ``PARITY_TOL``."""
    T0 = mc.transfer(mono, params.spectral_samples(rng, 1)[0])
    return T0, digit_parity_defect(T0, mc.digit_negation(params)) <= PARITY_TOL


def _parity_blocks(idx, neg):
    """The P-even and P-odd blocks of the P-closed index set ``idx``, each
    as (r, Pr, c, s): basis vector k is c_k e_r_k + s_k e_Pr_k over the
    orbit representatives r (1/sqrt2 and +-1/sqrt2 on a digit pair, 1 and 0
    on the fixed all-zero tuple, which only the even block has)."""
    r = idx[idx <= neg[idx]]
    pair = r != neg[r]
    c = np.where(pair, np.sqrt(0.5), 1.0)
    return [(r, neg[r], c, np.where(pair, c, 0.0)),
            (r[pair], neg[r[pair]], c[pair], -c[pair])]


def transfer_eigensystem(params: ModelParams, mono, rng):
    """Joint eigenstates of the transfer family, with eigenvalue Laurent
    coefficients recovered from left/right pairings of the coefficient
    operators.  On even chains the digit-charge sectors (``mono.A.sectors``)
    are diagonalized separately, which makes the joint labels exact.  The
    eigenvectors are those of T at one spectral point; a degenerate pair
    there shows as a label collision or as an eigen-residual at a fresh
    point, and raises.

    Where T commutes with the digit negation P at that point
    (``diagonalization_point``), every P-closed sector (the whole odd
    chain, sector 0 of an even one) is diagonalized as its P-even and P-odd
    blocks, and sector p - m of an even chain is P times sector m, with no
    ``eig``.  Within a sector the states are sorted by their eigenvalue w at
    the point, key ``w.real * 1e6 + w.imag``, over both parity blocks.
    Returns the read-only coefficient rows (d, n_bar + 1), charge sectors
    (d,), right eigenvectors as the columns of R (d, d) and L = R^-1,
    inverted per block."""
    d = params.dim
    T0, split = diagonalization_point(params, mono, rng)
    neg = mc.digit_negation(params)
    sectors = mono.A.sectors if params.even_chain else np.arange(d)[None]
    count, n = sectors.shape

    R = np.zeros((d, d), dtype=complex)
    L = np.zeros((d, d), dtype=complex)
    for m, idx in enumerate(sectors):
        cols = m * n + np.arange(n)
        if split and m > count // 2:
            # P maps sector p - m, diagonalized above, onto sector m
            src = (count - m) * n + np.arange(n)
            R[:, cols], L[cols] = R[neg][:, src], L[src][:, neg]
            continue
        # a plain sector is one block of index columns
        blocks = (_parity_blocks(idx, neg) if split and m == 0
                  else [(idx, idx, np.ones(n), np.zeros(n))])
        eigs = [np.linalg.eig((T0[np.ix_(r, r)] * c + T0[np.ix_(r, pr)] * s) / c[:, None])
                for r, pr, c, s in blocks]
        w = np.concatenate([e[0] for e in eigs])
        at = np.empty(n, dtype=int)
        at[np.argsort(w.real * 1e6 + w.imag)] = cols
        for (r, pr, c, s), (_, v), col in zip(
                blocks, eigs, np.split(at, np.cumsum([len(b[0]) for b in blocks])[:-1])):
            vi = np.linalg.inv(v)
            R[r[:, None], col] = c[:, None] * v
            R[pr[:, None], col] += s[:, None] * v
            L[col[:, None], r] = vi * c
            L[col[:, None], pr] += vi * s
    R, L = _read_only(R), _read_only(L)

    # Rayleigh pairings l C r / l r of every state, one product per degree
    degrees = list(range(-params.n_bar, params.n_bar + 1, 2))
    norm = np.sum(L * R.T, axis=1)
    if params.even_chain:
        # A and D keep the charge: sector m pairs with block m of A + D only
        cols = np.arange(d).reshape(count, n)
        Lb, Rb = L[cols[:, :, None], sectors[:, None]], R[sectors[:, :, None], cols[:, None]]

        def pairing(deg):
            op = sum((e.blocks[e.degrees.index(deg)] for e in (mono.A, mono.D)
                      if deg in e.degrees), np.zeros(Lb.shape, dtype=complex))
            return rayleigh_pairings(Lb, op, Rb).ravel()
    else:
        def pairing(deg):
            return rayleigh_pairings(L, mono.A.coeff(deg) + mono.D.coeff(deg), R)
    vecs = _read_only(np.stack([pairing(g) for g in degrees], axis=1) / norm[:, None])
    sector = _read_only(np.repeat(np.arange(count), n))

    # joint-label simplicity: no two states of one sector share their labels
    scale = max(np.max(np.abs(vecs)), 1e-300)
    gap = np.zeros((d, d))
    for k in range(len(degrees)):
        gap = np.maximum(gap, np.abs(vecs[:, None, k] - vecs[None, :, k]))
    collide = np.triu(sector[:, None] == sector[None, :], 1) & (gap < LABEL_GAP_TOL * scale)
    if collide.any():
        i, j = np.argwhere(collide)[0]
        raise DegenerateSpectrum(
            f"joint labels {i} and {j} collide below {LABEL_GAP_TOL:.1e}")
    # residual of the eigen-relation at a fresh spectral point
    lam2 = params.spectral_samples(rng, 1)[0]
    T2 = mc.transfer(mono, lam2)
    res = np.linalg.norm(T2 @ R - (vecs @ np.power(lam2, degrees)) * R, axis=0)
    bad = np.flatnonzero(res > 1e-8 * np.linalg.norm(T2) * np.linalg.norm(R, axis=0))
    if bad.size:
        raise DegenerateSpectrum(f"eigenvector residual {res[bad[0]]:.3e} too large")
    return vecs, sector, R, L


def check_functional_equation(params: ModelParams, t_coeffs, rng):
    """Maximal normalized determinant of the cyclic tridiagonal family built
    from the candidate eigenvalue row and the gauge coefficients, over
    ``FE_POINTS`` spectral points; vanishes exactly on the spectrum."""
    return float(check_functional_equations(params, t_coeffs, rng))


def check_functional_equations(params: ModelParams, t_rows, rng):
    """``check_functional_equation`` of the coefficient rows ``t_rows``
    (..., n_bar + 1) at one shared draw of spectral points, shape (...)."""
    t_rows = np.asarray(t_rows)
    pts = params.spectral_samples(rng, FE_POINTS)
    p = params.p
    lams = np.asarray(pts)[:, None] * params.q ** np.arange(p)     # (points, p)
    j = np.arange(p)
    D = np.zeros(t_rows.shape[:-1] + (len(pts), p, p), dtype=complex)
    D[..., j, j] = eval_t(t_rows[..., None, None, :], lams)
    D[..., j, (j + 1) % p] = -mc.d_coeff(params, lams)
    D[..., j, (j - 1) % p] = -mc.a_coeff(params, lams)
    rownorms = np.linalg.norm(D, axis=-1)
    vals = np.abs(np.linalg.det(D)) / np.maximum(np.prod(rownorms, axis=-1), 1e-300)
    return np.max(vals, axis=-1, initial=0.0)


def extract_Q_grid(state: TransferEigenstate, basis: SovBasis):
    """Wavefunction components in the SOV basis and the per-variable ratio
    tables of the Baxter function; validates the separated factorization.
    Returns the state's entry of each of the ``extract_Q_grids`` results."""
    return tuple(None if x is None else x[0]
                 for x in extract_Q_grids(state.vec_right[None], [state.theta_m], basis))


def extract_Q_grids(vec_right, theta_m, basis: SovBasis):
    """``extract_Q_grid`` on the rows ``vec_right`` (states, d) of right
    eigenvectors in the charge sectors ``theta_m`` (states,); the first state
    that fails raises.  Returns the read-only wavefunctions psi (states, d),
    ratio tables (states, N, p), anchor label tuples (states, N), residuals
    of the factorization (states,) and, on even chains, the deviations of the
    reference-variable ratios from the pure charge phase, None on odd ones."""
    params = basis.params
    p = params.p
    R = np.ascontiguousarray(vec_right)
    # one matrix-vector product per state, stacked
    psi = _read_only((basis.left @ R[..., None])[..., 0])     # (states, d)
    rows = np.arange(len(R))[:, None]
    j0 = np.argmax(np.abs(psi), axis=1)
    ref = psi[rows[:, 0], j0]
    zero = np.abs(ref) <= 1e-13 * np.linalg.norm(R, axis=1)
    ref = np.where(zero, 1.0, ref)            # those states raise below
    anchor = _read_only(params.tuples[j0])
    nvar = params.n_sites
    # index of each anchor with variable a set to h, shape (states, nvar, p)
    idx = j0[:, None, None] + (np.arange(p) - anchor[..., None]) * p ** np.arange(nvar)[:, None]
    grid_ratios = _read_only(psi[rows[..., None], idx] / ref[:, None, None])
    # factorization across the whole label set
    predicted = np.prod(np.ascontiguousarray(
        grid_ratios[rows[..., None], np.arange(nvar), params.tuples]), axis=-1) * ref[:, None]
    resid = _read_only(np.max(np.abs(predicted - psi), axis=1)
                       / np.maximum(np.max(np.abs(psi), axis=1), 1e-300))
    bad = np.flatnonzero(zero | (resid > FACTORIZATION_TOL))
    if bad.size and zero[bad[0]]:
        raise ZeroReference("all SOV components of the eigenvector vanish")
    if bad.size:
        raise DegenerateSpectrum("wavefunction does not factorize over the separate "
                                 f"variables: {resid[bad[0]]:.2e}")
    phase_dev = None
    if params.even_chain:
        # the reference-variable dependence is the pure charge phase
        m = np.asarray(theta_m)
        expect = params.q ** (-m[:, None] * (np.arange(p) - anchor[:, -1:]))
        phase_dev = _read_only(np.max(np.abs(grid_ratios[:, -1] - expect), axis=1))
    return psi, grid_ratios, anchor, resid, phase_dev


def fit_Q_polynomial(params: ModelParams, t_coeffs, rng=None):
    """Polynomial solution of the finite difference equation
    t(lam) Q(lam) = a(lam) Q(lam/q) + d(lam) Q(lam q), found as the SVD
    nullspace of the exact coefficient map; returns the null vector cut at
    its highest coefficient of at least ``NULL_TOL`` times the largest, with
    that coefficient one and zeros above it up to degree (p - 1) N, and the
    nullspace dimension, which is always 1: a wider nullspace raises
    ``DegenerateSpectrum``, an empty one ``EmptyNullspace``.  ``rng`` is not
    read: the fit draws no points."""
    polys, nds, _ = fit_Q_polynomials(params, np.asarray(t_coeffs)[None])
    return polys[0], nds[0]


def fit_Q_polynomials(params: ModelParams, t_rows):
    """``fit_Q_polynomial`` for every row of ``t_rows`` (states, n_bar + 1),
    with one stacked SVD of the coefficient maps, each divided by its
    Frobenius norm; returns the read-only polynomial rows
    (states, (p - 1) N + 1), the nullspace dimensions (all 1) and the fit
    gaps: per state the smallest singular value above the null threshold
    over the largest.  The first state whose nullspace is not
    one-dimensional raises."""
    N, q = params.n_sites, params.q
    K = (params.p - 1) * N                        # top degree of Q
    k, j = np.arange(-N, N + 1), np.arange(K + 1)
    a = mc.a_laurent(params)
    d = q ** N * (-q) ** k * a
    n = len(t_rows)
    t = np.zeros((n, 2 * N + 1), dtype=complex)
    t[:, N - params.n_bar:N + params.n_bar + 1:2] = t_rows
    # W[:, N + k + j, j]: coefficient of lam^(k + j) in t Q - a Q(lam/q) - d Q(lam q)
    # for Q = lam^j, one map of 2N + K + 1 degrees by K + 1 per state
    W = np.zeros((n, 2 * N + K + 1, K + 1), dtype=complex)
    W[:, N + k[:, None] + j, j] = t[..., None] - a[:, None] * q ** (-j) - d[:, None] * q ** j
    # a row can vanish exactly, so the maps are scaled as a whole
    W = W / np.linalg.norm(W, axis=(1, 2), keepdims=True)
    _, svs, vhs = np.linalg.svd(W, full_matrices=False)
    nds = np.sum(svs <= NULL_TOL * svs[:, :1], axis=1)
    bad = np.flatnonzero(nds != 1)
    if bad.size and nds[bad[0]] == 0:
        sv = svs[bad[0]]
        raise EmptyNullspace(
            f"no polynomial solution at threshold {NULL_TOL:.1e}; smallest "
            f"singular value {sv[-1] / sv[0]:.3e}")
    if bad.size:
        raise DegenerateSpectrum(
            f"Baxter nullspace has dimension {nds[bad[0]]} at threshold {NULL_TOL:.1e}, "
            "not 1")
    v = vhs[:, -1].conj()
    big = np.abs(v) >= NULL_TOL * np.max(np.abs(v), axis=1, keepdims=True)
    top = (K - np.argmax(big[:, ::-1], axis=1))[:, None]
    polys = v / np.take_along_axis(v, top, axis=1)
    # complex x / x need not round to 1
    polys = polys / np.take_along_axis(polys, top, axis=1)
    return (_read_only(np.where(j <= top, polys, 0)), nds.tolist(),
            svs[:, -2] / svs[:, 0])


def qbar_from_q(params: ModelParams, q_poly):
    """Image of the Baxter polynomial rows ``q_poly`` (..., K + 1) solving the
    conjugate difference equation in the reference gauge:
    lam^{N mod p} * Q(-lam), read-only rows (..., K + 1 + N mod p)."""
    q_poly = np.asarray(q_poly)
    chi = params.n_sites % params.p
    out = np.zeros(q_poly.shape[:-1] + (q_poly.shape[-1] + chi,), dtype=complex)
    out[..., chi:] = q_poly * (-1.0) ** np.arange(q_poly.shape[-1])
    return _read_only(out)
