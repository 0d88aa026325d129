"""Numerical construction of the separated (SOV) bases.

The commuting family B(lam) is diagonalized once via a random linear
combination at a handful of probe points; eigenvectors are labeled by
matching their measured eigenvalue patterns against the factorized form
b_k(lam).  Normalizations are then calibrated along a spanning tree of
shift moves so that the separated actions of the Yang-Baxter generators
hold with the reference gauge coefficients, and the left/right pairing
reproduces the closed-form diagonal measure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from .params import ModelParams, SgSovError
from . import model_core as mc

__all__ = [
    "SovGrid", "SovBasis", "SimplicityViolation", "DegenerateSpectrum",
    "GaugeInconsistency", "b_zeros", "build_sov_basis", "kappa_index",
    "inverse_kappa", "identity_resolution_sov", "measure_weights_formula",
    "mjj_formula", "b_pattern", "vandermonde", "cross_product",
    "grid_values", "vandermonde_weights", "flat_indices", "rayleigh_pairings",
    "LABEL_TOL", "CALIBRATION_TOL",
]

# bounds of the pattern mismatch of the B-eigenvector labeling and of the
# worst calibration step of ``build_sov_basis``
LABEL_TOL = 1e-8
CALIBRATION_TOL = 1e-7


class SimplicityViolation(SgSovError):
    """Two operator zeros of the B family collide; perturb xi."""


class DegenerateSpectrum(SgSovError):
    """Eigenvalue labeling failed: gaps below tolerance."""


class GaugeInconsistency(SgSovError):
    """A closed cycle of shift calibrations fails to return to its start."""


# ---------------------------------------------------------------------------
# Tuple <-> linear index bookkeeping
# ---------------------------------------------------------------------------

def kappa_index(h, p):
    """1-based linear index of a tuple (h_1..h_N) with h_a in {1..p};
    site 1 runs fastest."""
    h = tuple(int(x) for x in h)
    if any(not 1 <= x <= p for x in h):
        raise IndexError(f"tuple entries must lie in 1..{p}: {h}")
    return h[0] + sum(p ** a * (h[a] - 1) for a in range(1, len(h)))


def inverse_kappa(j, p, n_sites):
    """Inverse of ``kappa_index``."""
    if not 1 <= j <= p ** n_sites:
        raise IndexError(f"linear index {j} out of range 1..{p ** n_sites}")
    j0 = j - 1
    out = []
    for _ in range(n_sites):
        out.append(j0 % p + 1)
        j0 //= p
    return tuple(out)


def flat_indices(tuples, p):
    """0-based linear indices of 0-based label tuples along the last axis,
    entries taken mod p, site 1 fastest: ``(h % p) @ p ** arange(N)``."""
    h = np.asarray(tuples)
    return (h % p) @ p ** np.arange(h.shape[-1])


def _tuple_table(p, n_sites):
    """(p^N, N) array of 0-based tuples in linear order (site 1 fastest)."""
    idx = np.arange(p ** n_sites)
    return np.stack([(idx // p ** a) % p for a in range(n_sites)], axis=1)


# ---------------------------------------------------------------------------
# Pairwise products over the separate variables
# ---------------------------------------------------------------------------

def _pair_factor(xa, xb, squares):
    return xa ** 2 - xb ** 2 if squares else xa / xb - xb / xa


def vandermonde(x, squares=False):
    """prod_{b<a} (x_a/x_b - x_b/x_a) over the last axis of ``x``, or of
    (x_a^2 - x_b^2) with ``squares``; leading axes are batch axes."""
    x = np.asarray(x)
    n = x.shape[-1]
    out = np.ones(x.shape[:-1], dtype=complex)
    for b in range(n):
        for a in range(b + 1, n):
            out = out * _pair_factor(x[..., a], x[..., b], squares)
    return out[()]


def cross_product(xa, x, skip=None, squares=False):
    """prod_{b != skip} (xa/x_b - x_b/xa), or of (xa^2 - x_b^2) with
    ``squares``, over the entries of ``x``."""
    out = 1.0 + 0.0j
    for b, xb in enumerate(x):
        if b != skip:
            out *= _pair_factor(xa, xb, squares)
    return out


# ---------------------------------------------------------------------------
# Operator zeros of the B family and the root grids
# ---------------------------------------------------------------------------

def _read_only(x):
    x.flags.writeable = False
    return x


@dataclass
class SovGrid:
    """Zeros of the averaged B entry and the chosen p-th root grids.

    ``z`` has length N; for an even chain the last entry is the reference
    variable fixed by the overall scale of the average rather than a root of
    it.  ``grid[a, h] = q^h * eta0[a]``.

    The constructor also tabulates, on the separate-variable grids, the shift
    coefficients ``a_vals[a, h] = a(eta_a^{(h)})`` and ``d_vals``, shape
    (nsep, p); the tables are read-only."""
    params: ModelParams
    z: np.ndarray
    eta0: np.ndarray
    grid: np.ndarray = field(init=False)
    a_vals: np.ndarray = field(init=False)
    d_vals: np.ndarray = field(init=False)

    def __post_init__(self):
        params = self.params
        nsep = params.n_separate
        self.grid = self.eta0[:, None] * params.q ** np.arange(params.p)[None, :]
        eta = self.grid[:nsep]
        self.a_vals = _read_only(mc.a_coeff(params, eta))
        self.d_vals = _read_only(mc.d_coeff(params, eta))


def _pair_and_root(params, z_values):
    """Choose p-th roots whose squares are real or come in conjugate pairs."""
    p = params.p
    n = len(z_values)
    eta = np.empty(n, dtype=complex)
    done = np.zeros(n, dtype=bool)
    scale = max(np.max(np.abs(z_values)), 1e-300)
    for a in range(n):
        if done[a]:
            continue
        z = z_values[a]
        roots = z ** (1.0 / p) * np.exp(2j * np.pi * np.arange(p) / p)
        if abs(z.imag) <= 1e-10 * scale or abs(z.real) <= 1e-10 * scale:
            # z real or purely imaginary: exactly one root has a real square
            sq = roots ** 2
            ok = np.abs(sq.imag) <= 1e-8 * np.abs(sq)
            cand = roots[ok]
            if cand.size == 0:
                raise SgSovError("no admissible root found for a real-type zero")
            eta[a] = cand[np.argmin(np.abs(np.angle(cand)))]
            done[a] = True
            continue
        # genuinely complex: find the conjugate partner among the others
        partners = [b for b in range(n) if b != a and not done[b]
                    and abs(z_values[b] - np.conj(z)) < 1e-6 * scale]
        if not partners:
            raise SgSovError("complex zero without a conjugate partner; the "
                             "parameter set violates the reality structure")
        b = partners[0]
        eta[a] = roots[np.argmin(np.abs(np.angle(roots)))]
        # partner root with conjugate square: +-conj(eta_a), sign fixed by z_b
        cand = np.conj(eta[a])
        if abs(cand ** p - z_values[b]) > abs((-cand) ** p - z_values[b]):
            cand = -cand
        eta[b] = cand
        done[a] = done[b] = True
    return eta


def b_zeros(params: ModelParams, rel_gap=1e-6) -> SovGrid:
    """Zeros of the averaged B entry (in Lambda) and the per-variable root
    grids, with deterministic ordering and the reality-pairing root choice.

    ``rel_gap`` is the minimal admissible separation of two zeros relative
    to the largest zero modulus."""
    nsep = params.n_separate
    # Laurent coefficients of the averaged B entry from the 2x2 route:
    # sample at n_bar+1 circles is overkill; evaluate on enough points and
    # solve the small Vandermonde for coefficients of Lambda^{-nsep..nsep}.
    degs = np.arange(-nsep, nsep + 1, 2)
    pts = 1.3 * np.exp(2j * np.pi * np.arange(len(degs)) / len(degs)) if len(degs) > 1 \
        else np.array([1.3 + 0j])
    vals = np.array([mc.average_monodromy(params, L)[0, 1] for L in pts])
    V = pts[:, None] ** degs[None, :]
    coeffs = np.linalg.solve(V, vals)
    # polynomial in x = Lambda^2 of degree nsep: roots are the squared zeros
    poly = coeffs[::-1]  # highest Lambda power first
    roots_sq = np.roots(poly) if nsep > 0 else np.array([])
    order = np.lexsort((np.round(roots_sq.imag, 10), np.round(roots_sq.real, 10)))
    roots_sq = roots_sq[order]
    z = np.sqrt(roots_sq.astype(complex))
    scale = max(np.max(np.abs(z)) if z.size else 1.0, 1e-300)
    gap = rel_gap * scale
    for a in range(nsep):
        for b in range(a + 1, nsep):
            if abs(z[a] - z[b]) < gap or abs(z[a] + z[b]) < gap:
                raise SimplicityViolation(
                    f"zeros {a} and {b} collide within {gap:.1e}; perturb xi")

    kprod_p = params.kprod ** params.p
    if params.even_chain:
        # reference-variable scale from the leading Laurent coefficient
        lead = coeffs[-1]  # coefficient of Lambda^{+nsep}
        z_ref = lead * np.prod(z) / kprod_p
        z_all = np.concatenate([z, [z_ref]])
    else:
        # overall sign of the factorized form fixes the sign of one root
        probe = 1.7 + 0.3j
        fac = kprod_p * np.prod(probe / z - z / probe)
        actual = np.polyval(poly, probe ** 2) / probe ** nsep if nsep else coeffs[0]
        ratio = actual / fac
        if abs(ratio - 1) > abs(ratio + 1):
            z[-1] = -z[-1]
        z_all = z
    eta0 = _pair_and_root(params, z_all)
    grid = SovGrid(params, z_all, eta0)
    # consistency: the factorized average must reproduce the 2x2 route
    for L in (0.9 + 0.4j, 1.6 - 0.2j):
        fac = kprod_p * (z_all[-1] if params.even_chain else 1.0) \
            * cross_product(L, z_all[:nsep])
        direct = complex(mc.average_monodromy(params, L)[0, 1])
        if abs(fac - direct) > 1e-8 * max(abs(direct), 1e-300):
            raise SgSovError(f"B-average factorization mismatch: {fac} vs {direct}")
    return grid


# ---------------------------------------------------------------------------
# Eigenvalue patterns and labeling
# ---------------------------------------------------------------------------

def b_pattern(params: ModelParams, grid: SovGrid, tuples, lam):
    """Eigenvalues b_k(lam) for all label tuples (vectorized over labels)."""
    nsep = params.n_separate
    vals = grid.grid[np.arange(nsep)[None, :], tuples[:, :nsep]]  # (p^N, nsep)
    out = params.kprod * np.prod(lam / vals - vals / lam, axis=1)
    if params.even_chain:
        out = out * grid.grid[-1, tuples[:, -1]]
    return out


def rayleigh_pairings(L, op, R):
    """``L[i] @ op @ R[:, i]`` for every row i of ``L``, as one matrix
    product."""
    return np.sum(L * (op @ R).T, axis=1)


def _label_eigenvectors(params, grid, tuples, b_ops, rng, tol=LABEL_TOL):
    """Diagonalize a random combination of the B probes and assign labels.

    Returns (right eigvec matrix R with columns in label order, rows of
    R^{-1} in label order, worst relative pattern mismatch)."""
    d = params.dim
    probes = len(b_ops)
    patterns = np.stack([b_pattern(params, grid, tuples, lam) for lam, _ in b_ops], axis=1)
    pat_scale = np.maximum(np.linalg.norm(patterns, axis=1), 1e-300)
    last_err = None
    for _ in range(6):
        c = rng.standard_normal(probes) + 1j * rng.standard_normal(probes)
        S = sum(ci * op for ci, (_, op) in zip(c, b_ops))
        _, R = np.linalg.eig(S)
        Linv = np.linalg.inv(R)
        # measured per-probe eigenvalues via the Rayleigh pairing l B r / l r
        measured = np.empty((d, probes), dtype=complex)
        for jp, (_, op) in enumerate(b_ops):
            measured[:, jp] = rayleigh_pairings(Linv, op, R)
        cost = np.linalg.norm(measured[None, :, :] - patterns[:, None, :], axis=2) \
            / pat_scale[:, None]
        row, col = linear_sum_assignment(cost)
        worst = cost[row, col].max()
        if worst < tol:
            perm = np.empty(d, dtype=int)
            perm[row] = col
            return R[:, perm], Linv[perm, :], worst
        last_err = worst
    raise DegenerateSpectrum(
        f"B-eigenvalue labeling failed: worst pattern mismatch {last_err:.3e}")


# ---------------------------------------------------------------------------
# Calibrated basis
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SovBasis:
    """Calibrated left covectors and right vectors indexed by label tuples.

    ``left[j]`` is the covector (row) and ``right[:, j]`` the vector for the
    j-th tuple in linear order.  The constructor derives the diagonal
    pairings ``mjj``, the measure ``measure[j] = 1 / mjj[j]`` entering the
    resolution of the identity, and the gauge table ``omega``; nothing is
    modified afterwards.  ``label_mismatch`` is the worst relative mismatch
    between measured and predicted B-eigenvalue patterns of the labeling
    (bound ``LABEL_TOL``), ``calibration_residual`` the worst relative
    residual of a calibration step (bound ``CALIBRATION_TOL``)."""
    params: ModelParams
    grid: SovGrid
    tuples: np.ndarray
    left: np.ndarray
    right: np.ndarray
    c_ref: complex = 1.0
    label_mismatch: float = 0.0
    calibration_residual: float = 0.0
    mjj: np.ndarray = field(init=False)
    measure: np.ndarray = field(init=False)
    omega: np.ndarray = field(init=False)   # omega_a(eta_a^{(h)}) = (eta_a^{(h)})^{nsep-1}

    def __post_init__(self):
        mjj = np.einsum("jd,dj->j", self.left, self.right)
        if np.min(np.abs(mjj)) < 1e-12 * np.max(np.abs(mjj)):
            raise GaugeInconsistency("a diagonal pairing vanished; measure is singular")
        nsep = self.params.n_separate
        object.__setattr__(self, "mjj", mjj)
        object.__setattr__(self, "measure", 1.0 / mjj)
        object.__setattr__(self, "omega", _read_only(self.grid.grid[:nsep] ** (nsep - 1)))

    def flat_index(self, h) -> int:
        return int(flat_indices(h, self.params.p))

    def shifted_index(self, j, a, delta) -> int:
        h = self.tuples[j].copy()
        h[a] = (h[a] + delta) % self.params.p
        return self.flat_index(h)

    def shifted_indices(self, delta):
        """(d, nsep) table of ``shifted_index(j, a, delta)`` over every label
        j and separate variable a."""
        p, nsep = self.params.p, self.params.n_separate
        tup = self.tuples[:, :nsep]
        stride = p ** np.arange(nsep)
        return np.arange(len(tup))[:, None] + stride * ((tup + delta) % p - tup)


def _interp_weights(params, grid, tup, lam):
    """c_a(lam) for a separated-variable label tuple: the Lagrange-type factor
    multiplying the shift of variable a in the action of A or D."""
    nsep = params.n_separate
    vals = grid.grid[np.arange(nsep), tup[:nsep]]
    return np.array([cross_product(lam, vals, a) / cross_product(vals[a], vals, a)
                     for a in range(nsep)])


def _project_scale(target, raw):
    """Least-squares scalar g with target ~ g * raw, plus the relative residual."""
    g = np.vdot(raw, target) / np.vdot(raw, raw)
    res = np.linalg.norm(target - g * raw) / max(np.linalg.norm(target), 1e-300)
    return g, res


def build_sov_basis(params: ModelParams, grid: SovGrid = None, mono=None,
                    rng=None, tol=CALIBRATION_TOL, rel_gap=1e-6) -> SovBasis:
    """Construct, label and calibrate the left and right SOV bases."""
    rng = rng if rng is not None else np.random.default_rng(0)
    mono = mono if mono is not None else mc.monodromy(params)
    grid = grid if grid is not None else b_zeros(params, rel_gap=rel_gap)
    p, nsep, d = params.p, params.n_separate, params.dim
    tuples = _tuple_table(p, params.n_sites)

    # cycle consistency of the gauge coefficients against the average values
    abar_vals = mc.abar_coeff(params, grid.grid[:nsep])
    for a in range(nsep):
        dprod = np.prod(grid.d_vals[a])
        dav = mc.average_value(params, "D", grid.z[a])
        if abs(dprod - dav) > tol * max(abs(dav), 1e-300):
            raise GaugeInconsistency(
                f"cycle product of the d coefficients on variable {a} "
                f"misses the D average: {dprod} vs {dav}")
        aprod = np.prod(abar_vals[a])
        aav = mc.average_value(params, "A", grid.z[a])
        if abs(aprod - aav) > tol * max(abs(aav), 1e-300):
            raise GaugeInconsistency(
                f"cycle product of the right-gauge coefficients on variable {a} "
                f"misses the A average: {aprod} vs {aav}")

    exclude = grid.grid.reshape(-1)
    probe_pts = params.spectral_samples(rng, nsep + 1, exclude=exclude)
    b_ops = [(lam, mono.B.evaluate(lam)) for lam in probe_pts]
    R_raw, L_raw, label_mismatch = _label_eigenvectors(params, grid, tuples, b_ops, rng)

    # precompute generator evaluations on the grid
    d_ops = {(a, h): mono.D.evaluate(grid.grid[a, h]) for a in range(nsep) for h in range(p)}
    a_ops = {(a, h): mono.A.evaluate(grid.grid[a, h]) for a in range(nsep) for h in range(p)}

    left = np.zeros((d, d), dtype=complex)
    right = np.zeros((d, d), dtype=complex)
    assigned_l = np.zeros(d, dtype=bool)
    assigned_r = np.zeros(d, dtype=bool)
    worst_step = 0.0

    def _shift(j, a, delta):
        h = tuples[j].copy()
        h[a] += delta
        return int(flat_indices(h, p))

    def _slice_anchor(kn):
        base = np.zeros(params.n_sites, dtype=int)
        base[-1] = kn
        return int(flat_indices(base, p))

    def _even_coeffs(jb, lam):
        """Prefactors of the reference-direction shifts in the action of A."""
        bk = b_pattern(params, grid, tuples[jb:jb + 1], lam)[0]
        eta_n = grid.grid[-1, tuples[jb][-1]]
        eta_a_val = params.xi_prod / np.prod(grid.grid[np.arange(nsep), tuples[jb][:nsep]])
        pref = bk / eta_n
        return pref * lam / eta_a_val, pref * eta_a_val / lam

    # ---- left sweep: anchor at the zero tuple, then shifts ----
    anchor = L_raw[0] / np.linalg.norm(L_raw[0])
    phase = anchor[np.argmax(np.abs(anchor))]
    left[0] = anchor * (abs(phase) / phase)
    assigned_l[0] = True

    def left_even_residual(jb, lam):
        """cov[jb] . A(lam) minus the known separate-variable shift terms."""
        r = left[jb] @ mono.A.evaluate(lam)
        cw = _interp_weights(params, grid, tuples[jb], lam)
        for a in range(nsep):
            r = r - cw[a] * grid.a_vals[a, tuples[jb][a]] * left[_shift(jb, a, -1)]
        return r

    def left_anchor_step(kn):
        """Targets along the reference direction: solves
        r(lam) = c_m(lam) cov[k - e_N] - c_p(lam) cov[k + e_N]."""
        jb = _slice_anchor(kn - 1)
        jm = _shift(jb, params.n_sites - 1, -1)
        jp_ = _shift(jb, params.n_sites - 1, +1)
        lam1, lam2 = params.spectral_samples(rng, 2, exclude=exclude)
        r1 = left_even_residual(jb, lam1)
        c1m, c1p = _even_coeffs(jb, lam1)
        if not assigned_l[jm]:
            r2 = left_even_residual(jb, lam2)
            c2m, c2p = _even_coeffs(jb, lam2)
            det = c1m * (-c2p) - (-c1p) * c2m
            xm = ((-c2p) * r1 - (-c1p) * r2) / det
            xp = (c1m * r2 - c2m * r1) / det
            return [(jm, xm), (jp_, xp)]
        return [(jp_, -(r1 - c1m * left[jm]) / c1p)]

    def fill_left_slice(kn):
        nonlocal worst_step
        for j in range(d):
            if assigned_l[j] or (params.even_chain and tuples[j][-1] != kn):
                continue
            a = next(i for i in range(nsep) if tuples[j][i] > 0)
            jprev = _shift(j, a, -1)
            h = tuples[jprev][a]
            w = left[jprev] @ d_ops[(a, h)] / grid.d_vals[a, h]
            g, res = _project_scale(w, L_raw[j])
            worst_step = max(worst_step, res)
            left[j] = g * L_raw[j]
            assigned_l[j] = True

    fill_left_slice(0)
    if params.even_chain:
        for kn in range(1, p):
            if not assigned_l[_slice_anchor(kn)]:
                for jdx, vec in left_anchor_step(kn):
                    g, res = _project_scale(vec, L_raw[jdx])
                    worst_step = max(worst_step, res)
                    left[jdx] = g * L_raw[jdx]
                    assigned_l[jdx] = True
            fill_left_slice(kn)
        # closure around the reference direction
        jb = _slice_anchor(p - 1)
        lam = params.spectral_samples(rng, 1, exclude=exclude)[0]
        cm, cp = _even_coeffs(jb, lam)
        r = left_even_residual(jb, lam)
        wrap = -(r - cm * left[_shift(jb, params.n_sites - 1, -1)]) / cp
        cyc = np.linalg.norm(wrap - left[0]) / np.linalg.norm(left[0])
        if cyc > tol:
            raise GaugeInconsistency(
                f"reference-direction cycle fails to close: residual {cyc:.3e}")

    # ---- right sweep: anchored by the closed-form pairing at the zero tuple ----
    c_ref = (grid.eta0[-1] * np.sqrt(p)) ** params.e_n
    m00 = c_ref / vandermonde(grid.grid[:nsep, 0])
    right[:, 0] = R_raw[:, 0] * (m00 / (left[0] @ R_raw[:, 0]))
    assigned_r[0] = True

    def right_even_residual(jb, lam):
        r = mono.A.evaluate(lam) @ right[:, jb]
        cw = _interp_weights(params, grid, tuples[jb], lam)
        for a in range(nsep):
            r = r - cw[a] * abar_vals[a, tuples[jb][a]] * right[:, _shift(jb, a, +1)]
        return r

    def right_anchor_step(kn):
        """Solves r(lam) = c_p(lam) vec[k + e_N] - c_m(lam) vec[k - e_N]."""
        jb = _slice_anchor(kn - 1)
        jm = _shift(jb, params.n_sites - 1, -1)
        jp_ = _shift(jb, params.n_sites - 1, +1)
        lam1, lam2 = params.spectral_samples(rng, 2, exclude=exclude)
        r1 = right_even_residual(jb, lam1)
        c1p, c1m = _even_coeffs(jb, lam1)
        if not assigned_r[jm]:
            r2 = right_even_residual(jb, lam2)
            c2p, c2m = _even_coeffs(jb, lam2)
            det = c1p * (-c2m) - (-c1m) * c2p
            xp = ((-c2m) * r1 - (-c1m) * r2) / det
            xm = (c1p * r2 - c2p * r1) / det
            return [(jp_, xp), (jm, xm)]
        return [(jp_, (r1 + c1m * right[:, jm]) / c1p)]

    def fill_right_slice(kn):
        nonlocal worst_step
        for j in range(d):
            if assigned_r[j] or (params.even_chain and tuples[j][-1] != kn):
                continue
            a = next(i for i in range(nsep) if tuples[j][i] > 0)
            jprev = _shift(j, a, -1)
            h = tuples[jprev][a]
            w = a_ops[(a, h)] @ right[:, jprev] / abar_vals[a, h]
            g, res = _project_scale(w, R_raw[:, j])
            worst_step = max(worst_step, res)
            right[:, j] = g * R_raw[:, j]
            assigned_r[j] = True

    fill_right_slice(0)
    if params.even_chain:
        for kn in range(1, p):
            if not assigned_r[_slice_anchor(kn)]:
                for jdx, vec in right_anchor_step(kn):
                    g, res = _project_scale(vec, R_raw[:, jdx])
                    worst_step = max(worst_step, res)
                    right[:, jdx] = g * R_raw[:, jdx]
                    assigned_r[jdx] = True
            fill_right_slice(kn)

    if worst_step > tol:
        raise GaugeInconsistency(
            f"calibration step residual {worst_step:.3e} exceeds {tol:.1e}; "
            "labels or parameters are degenerate")

    return SovBasis(params, grid, tuples, left, right, c_ref=complex(c_ref),
                    label_mismatch=float(label_mismatch),
                    calibration_residual=float(worst_step))


def grid_values(basis: SovBasis):
    """(d, nsep) grid values of the separate variables for every label tuple."""
    nsep = basis.params.n_separate
    return basis.grid.grid[np.arange(nsep)[None, :], basis.tuples[:, :nsep]]


def vandermonde_weights(basis: SovBasis):
    """Squared-difference Vandermonde over the separate-variable grid values
    for every label tuple, divided by the gauge functions."""
    nsep = basis.params.n_separate
    wgt = np.prod(basis.omega[np.arange(nsep)[None, :], basis.tuples[:, :nsep]], axis=1)
    return vandermonde(grid_values(basis), squares=True) / wgt


def mjj_formula(basis: SovBasis):
    """Closed form of the diagonal pairings in the reference gauge."""
    return basis.c_ref / vandermonde(grid_values(basis))


def measure_weights_formula(basis: SovBasis):
    """Explicit identity-decomposition weights: squared-difference Vandermonde
    over the gauge functions and the reference constant."""
    return vandermonde_weights(basis) / basis.c_ref


def identity_resolution_sov(basis: SovBasis):
    """Sum of measure-weighted outer products; equals the identity."""
    return (basis.right * basis.measure[None, :]) @ basis.left
