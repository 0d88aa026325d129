"""Numerical construction of the separated (SOV) bases.

The commuting family B(lam) is diagonalized once via a random linear
combination at a handful of probe points, evaluated on its charge blocks;
eigenvectors are labeled by matching their measured eigenvalue patterns
against the factorized form b_k(lam).  On an odd chain B moves no charge and
the label h sits in the charge sector -sum(h) mod p, so the combination is
diagonalized block by block and each label is matched within its sector; an
even chain's B moves the charge, and its combination is diagonalized as one
dense matrix.  Normalizations are then calibrated along a spanning tree of
shift moves, with the blocks of D and A on the grid, so that the separated
actions of the Yang-Baxter generators hold with the reference gauge
coefficients, and the left/right pairing reproduces the closed-form diagonal
measure; on an even chain the grading charge carries them along the
reference variable.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .params import ModelParams, SgSovError
from . import model_core as mc

__all__ = [
    "SovGrid", "SovBasis", "SimplicityViolation", "DegenerateSpectrum",
    "GaugeInconsistency", "b_zeros", "build_sov_basis", "mjj_formula",
    "b_pattern", "vandermonde", "cross_product", "rayleigh_pairings",
    "sov_diagonal", "moment_weights",
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


@dataclass(frozen=True, eq=False)
class SovGrid:
    """Zeros of the averaged B entry, the chosen p-th root grids and every
    table of the determinant kernels that depends on them only; none is
    indexed by the p^N labels, which only ``SovBasis`` holds.

    ``z`` has length N; for an even chain the last entry is the reference
    variable fixed by the overall scale of the average rather than a root of
    it.  ``grid[a, h] = q^h * eta0[a]``.

    The constructor also tabulates, on the separate-variable grids, the shift
    coefficients ``a_vals[a, h] = a(eta_a^{(h)})`` and ``d_vals``, shape
    (nsep, p), ``powers[k] = grid[:nsep] ** k`` up to the degree of Qbar, the
    gauge table ``omega[a, h] = (eta_a^{(h)})**(nsep - 1)`` and the reference
    constant ``c_ref = (eta0_ref sqrt(p))**e_N`` of the closed-form measure.
    The weight tables of the determinant kernels, which contract a Qbar table
    against a Q table, both (nsep, p), are:
    - ``pairing_weights[a, h, k] = eta_a^{(h)}**(2k) / omega[a, h]``, shape
      (nsep, p, nsep): the moment matrix of a pairing;
    - ``ff_u_weights[m, a, g, h, k]``, shape (S, nsep, p, p, nsep) with S = p
      sectors on even chains and S = 1 on odd ones, at mu_+ of site 1, which
      every site shares where ``ff_u`` exists: the weight of Qbar(eta_a^{(g)})
      Q(eta_a^{(h)}) in column k of the ``ff_u`` matrix for a ket in sector m;
      ``ff_u`` is ``ff_u_pref`` = c_ref / (kprod eta0_ref**e_N), the
      normalization of that last column, times the determinant.  Its diagonal
      g = h holds the moment columns eta**(2k+1) / omega and, on even chains,
      the theta-sector terms over ``ff_u_pref`` in the last column, which also
      holds the pole terms at g = h + 1 (mod p).
    Every array is read-only, ``z`` and ``eta0`` marked in place."""
    params: ModelParams
    z: np.ndarray
    eta0: np.ndarray
    grid: np.ndarray = field(init=False)
    a_vals: np.ndarray = field(init=False)
    d_vals: np.ndarray = field(init=False)
    powers: np.ndarray = field(init=False)
    omega: np.ndarray = field(init=False)
    c_ref: complex = field(init=False)
    pairing_weights: np.ndarray = field(init=False)
    ff_u_pref: complex = field(init=False)
    ff_u_weights: np.ndarray = field(init=False)

    def __post_init__(self):
        params, nsep = self.params, self.params.n_separate
        _read_only(self.z), _read_only(self.eta0)
        grid = _read_only(self.eta0[:, None] * params.q ** np.arange(params.p)[None, :])
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "a_vals", _read_only(mc.a_coeff(params, grid[:nsep])))
        object.__setattr__(self, "d_vals", _read_only(mc.d_coeff(params, grid[:nsep])))
        top = (params.p - 1) * params.n_sites + params.n_sites % params.p
        powers = [grid[:nsep] ** k for k in range(top + 1)]   # as ``polyval_ascending`` has it
        object.__setattr__(self, "powers", _read_only(np.stack(powers)))
        object.__setattr__(self, "omega", _read_only(grid[:nsep] ** (nsep - 1)))
        c_ref = complex((self.eta0[-1] * np.sqrt(params.p)) ** params.e_n)
        object.__setattr__(self, "c_ref", c_ref)
        object.__setattr__(self, "pairing_weights",
                           _read_only(moment_weights(self, range(0, 2 * nsep, 2))))
        object.__setattr__(self, "ff_u_pref", complex(
            c_ref / (params.kprod * self.eta0[-1] ** params.e_n)))
        object.__setattr__(self, "ff_u_weights", _read_only(_ff_u_weights(self)))


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
    nsep, N = params.n_separate, params.n_sites
    # Laurent coefficients of the averaged B entry of the parity of nsep,
    # degrees -nsep..nsep (on an even chain those of degree +-N vanish exactly)
    coeffs = mc.average_monodromy_laurent(params)[N - nsep:N + nsep + 1:2, 0, 1]
    # polynomial in x = Lambda^2 of degree nsep: roots are the squared zeros
    poly = coeffs[::-1]  # highest Lambda power first
    roots_sq = np.roots(poly)
    order = np.lexsort((np.round(roots_sq.imag, 10), np.round(roots_sq.real, 10)))
    roots_sq = roots_sq[order]
    z = np.sqrt(roots_sq.astype(complex))
    scale = max(np.max(np.abs(z)), 1e-300)
    gap = rel_gap * scale
    for a in range(nsep):
        for b in range(a + 1, nsep):
            if abs(z[a] - z[b]) < gap or abs(z[a] + z[b]) < gap:
                raise SimplicityViolation(
                    f"zeros {a} and {b} collide within {gap:.1e}; perturb xi")

    kprod_p = params.kprod ** params.p
    # the leading coefficient is kprod^p z_ref / prod(z): it gives the
    # reference-variable scale z_ref of an even chain, and on an odd chain
    # (z_ref = 1) the sign of one root
    ratio = coeffs[-1] * np.prod(z) / kprod_p
    if not params.even_chain and abs(ratio - 1) > abs(ratio + 1):
        z[-1] = -z[-1]
    z_all = np.concatenate([z, [ratio]]) if params.even_chain else z
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
    product; leading axes are batch axes."""
    return np.sum(L * np.swapaxes(op @ R, -1, -2), axis=-1)


def _label_eigenvectors(params, grid, b_ops, rng):
    """Diagonalize a random combination of the graded B probes ``b_ops``
    (pairs of a point and ``Graded`` operator) and give each label the
    eigenvector whose measured pattern is nearest to its own.  On an odd
    chain this runs per charge block (one batched ``eig``): the labels of
    sector x are matched against the eigenvectors of block x.

    Past ``b_zeros`` the spectrum of B is simple, so the labels have distinct
    patterns; a nearest match that is a bijection with every mismatch below
    ``LABEL_TOL`` is then the optimal assignment.  Anything else raises
    ``DegenerateSpectrum`` with the worst eigenvalue condition number.

    Returns (right eigvec matrix R with columns in label order, rows of
    R^{-1} in label order, worst relative pattern mismatch)."""
    d, p = params.dim, params.p
    probes = len(b_ops)
    patterns = np.stack([b_pattern(params, grid, params.tuples, lam) for lam, _ in b_ops],
                        axis=1)
    pat_scale = np.maximum(np.linalg.norm(patterns, axis=1), 1e-300)
    c = rng.standard_normal(probes) + 1j * rng.standard_normal(probes)
    S = reduce(operator.add, [ci * op for ci, (_, op) in zip(c, b_ops)])
    if params.even_chain:
        # one block: every label against the whole space
        rows = labels = np.arange(d)[None]
        S, ops = S.dense()[None], [op.dense()[None] for _, op in b_ops]
    else:
        rows, labels = S.sectors, mc.charge_sectors(-params.tuples.sum(axis=1) % p, p)
        S, ops = S.blocks, [op.blocks for _, op in b_ops]
    _, R = np.linalg.eig(S)
    Linv = np.linalg.inv(R)
    # measured per-probe eigenvalues via the Rayleigh pairing l B r / l r
    measured = np.stack([rayleigh_pairings(Linv, op, R) for op in ops], axis=-1)
    cost = np.linalg.norm(measured[:, None] - patterns[labels][:, :, None], axis=-1) \
        / pat_scale[labels][..., None]
    perm = np.argmin(cost, axis=-1)
    worst = np.take_along_axis(cost, perm[..., None], axis=-1).max()
    if worst < LABEL_TOL and all(np.unique(row).size == row.size for row in perm):
        R_out, L_out = np.zeros((d, d), dtype=complex), np.zeros((d, d), dtype=complex)
        R_out[rows[:, :, None], labels[:, None, :]] = np.take_along_axis(R, perm[:, None], 2)
        L_out[labels[:, :, None], rows[:, None, :]] = np.take_along_axis(Linv, perm[..., None], 1)
        return R_out, L_out, worst
    # l_i r_i = 1, so |l_i| |r_i| is the condition number of eigenvalue i
    cond = np.max(np.linalg.norm(Linv, axis=-1) * np.linalg.norm(R, axis=-2))
    cause = "mismatch above bound" if worst >= LABEL_TOL else "nearest match not a bijection"
    raise DegenerateSpectrum(
        f"B-eigenvalue labeling failed ({cause}): worst pattern mismatch {worst:.3e} "
        f"(bound {LABEL_TOL:.0e}), worst eigenvalue condition number {cond:.2e}")


# ---------------------------------------------------------------------------
# Calibrated basis
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SovBasis:
    """Calibrated left covectors and right vectors indexed by label tuples.

    ``left[j]`` is the covector (row) and ``right[:, j]`` the vector for the
    j-th tuple ``params.tuples[j]``.  The constructor marks ``left`` and
    ``right`` read-only in place and derives the diagonal pairings ``mjj`` and
    the measure ``measure[j] = 1 / mjj[j]`` entering the resolution of the
    identity, both read-only; nothing is modified afterwards.
    ``label_mismatch`` is the worst relative mismatch between measured and
    predicted B-eigenvalue patterns of the labeling
    (bound ``LABEL_TOL``), ``calibration_residual`` the worst relative
    residual of a calibration step (bound ``CALIBRATION_TOL``).

    The tables indexed by the labels live here, read-only, and the tables
    that depend on the grid only live on ``grid``: per label tuple j
    ``grid_values[j, a] = eta_a^{(h_a)}``, shape (d, nsep), and
    ``vandermonde_weights[j]``, the squared-difference Vandermonde of that
    row over the product of its gauge functions, shape (d,)."""
    params: ModelParams
    grid: SovGrid
    left: np.ndarray
    right: np.ndarray
    label_mismatch: float = 0.0
    calibration_residual: float = 0.0
    mjj: np.ndarray = field(init=False)
    measure: np.ndarray = field(init=False)
    grid_values: np.ndarray = field(init=False)
    vandermonde_weights: np.ndarray = field(init=False)

    def __post_init__(self):
        mjj = np.einsum("jd,dj->j", _read_only(self.left), _read_only(self.right))
        if np.min(np.abs(mjj)) < 1e-12 * np.max(np.abs(mjj)):
            raise GaugeInconsistency("a diagonal pairing vanished; measure is singular")
        object.__setattr__(self, "mjj", _read_only(mjj))
        object.__setattr__(self, "measure", _read_only(1.0 / mjj))
        nsep = self.params.n_separate
        rows, tup = np.arange(nsep), self.params.tuples[:, :nsep]
        values = _read_only(self.grid.grid[rows, tup])
        gauge = np.prod(self.grid.omega[rows, tup], axis=1)
        object.__setattr__(self, "grid_values", values)
        object.__setattr__(self, "vandermonde_weights",
                           _read_only(vandermonde(values, squares=True) / gauge))

    def shifted_index(self, j, a, delta) -> int:
        """Index of tuple j with digit a moved by ``delta``, one label at a
        time (``params.shifted_indices`` tabulates every label)."""
        h = self.params.tuples[j].copy()
        h[a] += delta
        return int(self.params.flat_indices(h))


def moment_weights(grid: SovGrid, exponents):
    """``eta_a^{(h)}**e_k / omega[a, h]`` on the separate-variable grids, shape
    (nsep, p, len(exponents)): the weights that turn the product of two
    coefficient tables into grid moments."""
    eta = grid.grid[:grid.params.n_separate, :, None]
    return eta ** np.asarray(exponents, dtype=int) / grid.omega[..., None]


def _ff_u_weights(grid: SovGrid):
    """The ``ff_u_weights`` table of every sector (see ``SovGrid``)."""
    params = grid.params
    nsep, p = params.n_separate, params.p
    lam = np.asarray(params.mu_plus, dtype=complex)[0]   # NumPy scalar: a complex rounds otherwise
    h = np.arange(p)
    out = np.zeros((p if params.even_chain else 1, nsep, p, p, nsep), dtype=complex)
    out[..., h, h, :nsep - 1] = moment_weights(grid, range(1, 2 * nsep - 2, 2))
    if params.even_chain:
        # sector m: sqrt(p) (q^m lam / xi_prod eta^{2 nsep - 1} - q^-m xi_prod / lam eta^-1) / omega
        hi, lo = np.moveaxis(moment_weights(grid, [2 * nsep - 1, -1]), -1, 0)
        m = h[:, None, None]
        out[..., h, h, -1] = np.sqrt(p) * (params.q ** m * (lam / params.xi_prod) * hi
                                           - params.q ** -m * (params.xi_prod / lam) * lo) \
            / grid.ff_u_pref
    # pole terms, Qbar at g = h+1 against Q at h:
    # a(eta^{(g)}) / (lam/eta^{(g)} - eta^{(g)}/lam) (eta^{(h)})^{nsep-1} / omega
    eta = grid.grid[:nsep]
    pole = np.roll(grid.a_vals / (lam / eta - eta / lam), -1, axis=-1) \
        * moment_weights(grid, [nsep - 1])[..., 0]
    out[..., (h + 1) % p, h, -1] += pole
    return out


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


def build_sov_basis(params: ModelParams, mono, rng, grid: SovGrid = None,
                    rel_gap=1e-6) -> SovBasis:
    """Construct, label and calibrate the left and right SOV bases.

    One calibration sweep over the slice k_N = 0 of the reference digit (every
    label on an odd chain) scales both: covectors step through D(eta) with d,
    vectors (calibrated as rows) through A(eta) with abar.  On an even chain
    the reference digit is the slowest, and slice k is the charge image of
    slice 0, <j + k e_N| = <j| theta^-k and |j + k e_N> = theta^k |j>; one
    step of A(lam) around the reference direction checks that the cycle
    closes."""
    grid = grid if grid is not None else b_zeros(params, rel_gap=rel_gap)
    p, nsep, d = params.p, params.n_separate, params.dim
    n_ref = params.n_sites - 1
    d0 = d // p if params.even_chain else d        # labels of the slice k_N = 0
    tuples, down = params.tuples, params.shifted_indices(-1)

    # cycle consistency of the gauge coefficients against the average values
    abar_vals = mc.abar_coeff(params, grid.grid[:nsep])
    for a in range(nsep):
        for vals, op, what in ((grid.d_vals, "D", "d coefficients"),
                               (abar_vals, "A", "right-gauge coefficients")):
            prod = np.prod(vals[a])
            avg = mc.average_value(params, op, grid.z[a])
            if abs(prod - avg) > CALIBRATION_TOL * max(abs(avg), 1e-300):
                raise GaugeInconsistency(
                    f"cycle product of the {what} on variable {a} "
                    f"misses the {op} average: {prod} vs {avg}")

    exclude = grid.grid.reshape(-1)
    probe_pts = params.spectral_samples(rng, nsep + 1, exclude=exclude)
    b_ops = [(lam, mono.B.at(lam)) for lam in probe_pts]
    R_raw, L_raw, label_mismatch = _label_eigenvectors(params, grid, b_ops, rng)

    # the blocks of the generators on the grid
    d_ops = {(a, h): mono.D.at(grid.grid[a, h]) for a in range(nsep) for h in range(p)}
    a_ops = {(a, h): mono.A.at(grid.grid[a, h]) for a in range(nsep) for h in range(p)}
    worst_step = 0.0

    def calibrate(raw, x0, act, step_ops, step_vals, s):
        """Rows g_j raw[j] scaled from x[0] = x0: on the slice k_N = 0 each
        x[j] is fitted to act(x[j - e_a], step_ops[a, h]) / step_vals[a, h];
        slice k is slice 0 times diag(theta)**(s k)."""
        nonlocal worst_step
        x = np.empty((d0, d), dtype=complex)
        x[0] = x0
        for j in range(1, d0):
            a = next(i for i in range(nsep) if tuples[j][i] > 0)
            jprev = down[j, a]
            h = tuples[jprev][a]
            g, res = _project_scale(act(x[jprev], step_ops[(a, h)]) / step_vals[a, h], raw[j])
            worst_step = max(worst_step, res)
            x[j] = g * raw[j]
        if not params.even_chain:
            return x
        charge = np.diag(mc.theta_charge(params)) ** (s * np.arange(p))[:, None]
        return (x[None] * charge[:, None, :]).reshape(d, d)

    # left: anchored at the zero tuple with a unit-modulus largest entry
    anchor = L_raw[0] / np.linalg.norm(L_raw[0])
    phase = anchor[np.argmax(np.abs(anchor))]
    left = calibrate(L_raw, anchor * (abs(phase) / phase), lambda x, M: x @ M,
                     d_ops, grid.d_vals, -1)
    if params.even_chain:
        # closure around the reference direction: the action of A(lam) on
        # <jb| less its shifts of the separate variables leaves
        # c_+ <jb + e_N| + c_- <jb - e_N|, with jb the tuple (0, ..., 0, p - 1)
        jb = down[0, n_ref]
        lam = params.spectral_samples(rng, 1, exclude=exclude)[0]
        r = left[jb] @ mono.A.at(lam)
        cw = _interp_weights(params, grid, tuples[jb], lam)
        for a in range(nsep):
            r = r - cw[a] * grid.a_vals[a, 0] * left[down[jb, a]]
        pref = b_pattern(params, grid, tuples[jb:jb + 1], lam)[0] / grid.grid[-1, p - 1]
        eta_a_val = params.xi_prod / np.prod(grid.grid[:nsep, 0])
        c_plus, c_minus = -(pref * eta_a_val / lam), pref * lam / eta_a_val
        wrap = (r - c_minus * left[down[jb, n_ref]]) / c_plus
        cyc = np.linalg.norm(wrap - left[0]) / np.linalg.norm(left[0])
        if cyc > CALIBRATION_TOL:
            raise GaugeInconsistency(
                f"reference-direction cycle fails to close: residual {cyc:.3e}")

    # right: anchored by the closed-form pairing at the zero tuple
    m00 = grid.c_ref / vandermonde(grid.grid[:nsep, 0])
    raw = R_raw.T
    right = calibrate(raw, raw[0] * (m00 / (left[0] @ raw[0])), lambda v, M: M @ v,
                      a_ops, abar_vals, +1)

    if worst_step > CALIBRATION_TOL:
        raise GaugeInconsistency(
            f"calibration step residual {worst_step:.3e} exceeds {CALIBRATION_TOL:.1e}; "
            "labels or parameters are degenerate")

    return SovBasis(params, grid, left, np.ascontiguousarray(right.T),
                    label_mismatch=float(label_mismatch),
                    calibration_residual=float(worst_step))


def mjj_formula(basis: SovBasis):
    """Closed form of the diagonal pairings in the reference gauge."""
    return basis.grid.c_ref / vandermonde(basis.grid_values)


def sov_diagonal(basis: SovBasis, weights=1.0):
    """sum_j weights[j] |j><j| / <j|j>: the operator diagonal in the SOV
    basis with the eigenvalue weights[j] on label j."""
    return (basis.right * (weights * basis.measure)) @ basis.left

