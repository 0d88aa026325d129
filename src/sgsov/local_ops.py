"""Reconstruction of the local Weyl generators from the Yang-Baxter algebra,
q-combinatorics, separated representations of operator monomials, and the
elementary shift operators with their exchange algebra.

Every operator built here from the monodromy is kept on its charge blocks,
as a ``model_core.Graded`` operator; the ``reconstruct_*`` and ``binvA_*``
functions and ``to_dense`` scatter only their dense return values.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from itertools import groupby, product, zip_longest
from operator import add, itemgetter

import numpy as np

from .params import ModelParams, DegenerateKappa, SgSovError
from . import model_core as mc
from .model_core import Monodromy
from .sov_basis import SovBasis, SovGrid, cross_product

__all__ = [
    "SingularMatrix", "ShiftedMonodromy", "ElementaryBasisElement",
    "shifted_monodromy", "reconstruct_u", "reconstruct_u_via_dc",
    "reconstruct_alpha0", "reconstruct_beta", "beta_target", "beta_sum_target",
    "reconstruct_v2k", "v_power_target", "fourier_degenerate", "v2k_fourier_weights",
    "q_number", "q_factorial", "q_multinomial", "q_multinomial_direct",
    "binvA_power_sov", "binvA_dense", "sov_charge_operators",
    "elementary_O", "elementary_O_power", "o_action_weights",
    "binvA_interpolation", "reduce_O_monomial", "ZERO_MONOMIAL",
    "cyclic_shift_permutation", "spanning_rank", "v2k_shift_sums",
]

class SingularMatrix(SgSovError):
    """A generator evaluation that must be inverted is numerically singular."""


# condition number above which an operator is not inverted
COND_LIMIT = 1e10
RANK_TOL = 1e-8  # relative singular-value threshold of ``spanning_rank``


def _solve(X, Y, lam, what):
    """X(lam)^{-1} Y(lam) for two entries of one monodromy, one
    pivoted-LU solve per charge block, with a condition check; returns the
    solution as a ``Graded`` operator, and the 2-norm condition number of
    X(lam) (named ``what`` in the error): its singular values are those of
    its blocks."""
    shift = Y.shift - X.shift
    # block x of the solution maps sector x to x + shift, and block x of Y
    # lands in sector x + Y.shift, which block x + shift of X maps onto
    xb = mc._rotate(X.blocks_at(lam), shift)
    sv = np.linalg.svd(xb, compute_uv=False)
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = float(np.max(sv) / np.min(sv))
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise SingularMatrix(f"condition number {cond:.3e} while inverting {what}")
    return mc.Graded(shift, np.linalg.solve(xb, Y.blocks_at(lam)), X.sectors), cond


# ---------------------------------------------------------------------------
# Shifted monodromy and the reconstruction identities
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ShiftedMonodromy:
    """Per-site reconstruction frame: the monodromy with the chain cyclically
    reordered so that site n is the rightmost factor (the dressing by the
    shift operator, without materializing it), and the solves that every
    local generator of site n is rebuilt from, each computed once, on first
    use, as a ``Graded`` operator: ``binva`` = B^{-1}A at mu_+ (the shift
    generator U), ``alpha0`` = A^{-1}B at mu_-, and ``betas[k]`` = U^k alpha0
    U^{1-k}, k = 0..p-1, as one table.  ``binva_cond`` and ``alpha0_cond``
    are the condition numbers of B(mu_+) and A(mu_-)."""
    params: ModelParams
    n: int
    mono: Monodromy

    @cached_property
    def _plus(self):
        lam = self.params.mu_plus[self.n - 1]
        return _solve(self.mono.B, self.mono.A, lam, what="B(mu_+)")

    @cached_property
    def _minus(self):
        lam = self.params.mu_minus[self.n - 1]
        return _solve(self.mono.A, self.mono.B, lam, what="A(mu_-)")

    binva = property(lambda self: self._plus[0])
    binva_cond = property(lambda self: self._plus[1])
    alpha0 = property(lambda self: self._minus[0])
    alpha0_cond = property(lambda self: self._minus[1])

    @cached_property
    def betas(self) -> mc.Graded:
        # beta_0 = alpha0 U and beta_k = U beta_{k-1} U^-1
        U, Uinv = self.binva, self.binva.inv()
        out = [self.alpha0 @ U]
        for _ in range(1, self.params.p):
            out.append(U @ out[-1] @ Uinv)
        return mc.Graded.stack(out)


def shifted_monodromy(params: ModelParams, n: int) -> ShiftedMonodromy:
    if not 1 <= n <= params.n_sites:
        raise IndexError(f"site index {n} out of range 1..{params.n_sites}")
    order = list(range(n - 1, 0, -1)) + list(range(params.n_sites, n - 1, -1))
    return ShiftedMonodromy(params, n, mc.monodromy(params, site_order=order))


def reconstruct_u(frame: ShiftedMonodromy, k: int = 1):
    """k-th power of the frame site's shift generator from the reordered
    monodromy evaluated at the first quantum-determinant zero."""
    return (frame.binva ** k).dense()


def reconstruct_u_via_dc(frame: ShiftedMonodromy):
    """Alternative route through the lower row of the monodromy."""
    mono, lam = frame.mono, frame.params.mu_plus[frame.n - 1]
    return _solve(mono.D, mono.C, lam, what="D(mu_+)")[0].dense()


def reconstruct_alpha0(frame: ShiftedMonodromy):
    """The rational local operator obtained at the second determinant zero."""
    return frame.alpha0.dense()


def reconstruct_beta(frame: ShiftedMonodromy, k: int):
    """Conjugate of the rational local operator by the k-th shift power
    (p-periodic in k, as U^p is central)."""
    return frame.betas[k % frame.params.p].dense()


def beta_target(params: ModelParams, n: int, k: int):
    """Embedded closed form of the rational local operator family."""
    kap2 = params.kappa[n - 1] ** 2
    q = params.q
    w = params.v[n - 1] * q ** np.arange(params.p)
    vals = (q ** (2 * k - 1) * w ** 2 + kap2) / (q ** (2 * k - 1) * w ** 2 * kap2 + 1)
    return mc.site_embed(params, n, np.diag(vals))


def beta_sum_target(params: ModelParams, n: int):
    """Scalar value of the sum of the rational family over a full period."""
    kap = params.kappa[n - 1]
    v2p = params.v[n - 1] ** (2 * params.p)
    return params.p * (v2p * kap ** (2 * (params.p - 1)) + kap ** 2) \
        / (v2p * kap ** (2 * params.p) + 1)


def v_power_target(params: ModelParams, n: int, k: int):
    """Embedded 2k-th power of the site clock generator."""
    w = params.v[n - 1] * params.q ** np.arange(params.p)
    return mc.site_embed(params, n, np.diag(w ** (2 * k)))


def fourier_degenerate(params: ModelParams, n: int) -> bool:
    """kappa_n^4 = 1: the Fourier denominator of the V_n^{2k} reconstruction
    vanishes."""
    return abs(params.kappa[n - 1] ** 4 - 1.0) < 1e-10


def v2k_fourier_weights(params: ModelParams, n: int, ks):
    """The Fourier phases (len(ks), p) and prefactors (len(ks),) that turn
    the rational family of site n into the clock powers V_n^{2k}:
    V_n^{2k} = pref[k] sum_m phases[k, m] beta_m."""
    if fourier_degenerate(params, n):
        raise DegenerateKappa(f"kappa^4 = 1 at site {n}: Fourier denominator vanishes")
    p, kap = params.p, params.kappa[n - 1]
    ks = np.asarray(ks)
    phases = params.q ** (-ks[:, None] * (2 * np.arange(p) - 1))
    pref = (-1.0) ** ks * (params.v[n - 1] ** (2 * p) * kap ** (2 * p) + 1) \
        / (p * kap ** (2 * ks) * (kap ** 2 - kap ** (-2)))
    return phases, pref


def reconstruct_v2k(frame: ShiftedMonodromy, k: int):
    """Even powers of the frame site's clock generator by discrete Fourier
    transform of the rational family."""
    if not 1 <= k <= frame.params.p - 1:
        raise IndexError("power index must lie in 1..p-1")
    phases, pref = v2k_fourier_weights(frame.params, frame.n, [k])
    return pref[0] * mc.scatter_blocks(frame.betas.sectors, frame.betas.shift,
                                       np.tensordot(phases[0], frame.betas.blocks, axes=1))


# ---------------------------------------------------------------------------
# q-combinatorics at the root of unity
# ---------------------------------------------------------------------------

def q_number(q, a: int):
    """Symmetric q-integer (q^a - q^-a)/(q - q^-1)."""
    q = complex(q)
    return (q ** a - q ** (-a)) / (q - 1.0 / q)


def q_factorial(q, k: int):
    out = 1.0 + 0.0j
    for n in range(1, k + 1):
        out *= q_number(q, n)
    return out


@lru_cache(maxsize=None)
def _gauss_binom_poly(n, m):
    """Gaussian binomial [n, m] as an integer-coefficient polynomial in
    z = q^2 (ascending), a tuple of Python ints, by the rule
    [n, m] = [n-1, m-1] + z^m [n-1, m]; cached, as the shift powers ask for
    the same few again and again."""
    if m < 0 or m > n:
        return (0,)
    if m in (0, n):
        return (1,)
    right = (0,) * m + _gauss_binom_poly(n - 1, m)
    return tuple(a + b for a, b in zip_longest(_gauss_binom_poly(n - 1, m - 1), right,
                                               fillvalue=0))


def q_multinomial(q, k: int, alphas):
    """Symmetric q-multinomial, evaluated through the integer-coefficient
    Gaussian polynomials so that root-of-unity points are exact."""
    alphas = [int(a) for a in alphas]
    if any(a < 0 for a in alphas) or sum(alphas) != k:
        raise ValueError("multinomial indices must be nonnegative and sum to k")
    q = complex(q)
    z = q ** 2
    val = 1.0 + 0.0j
    s = 0
    for a in alphas:
        s += a
        poly = _gauss_binom_poly(s, a)
        val *= sum(complex(c) * z ** i for i, c in enumerate(poly))
    exponent = (sum(a * (a - 1) for a in alphas) - k * (k - 1)) / 2
    return q ** exponent * val


def q_multinomial_direct(q, k: int, alphas):
    """Plain ratio of symmetric q-factorials; valid below the root order."""
    alphas = [int(a) for a in alphas]
    num = q_factorial(q, k)
    den = 1.0 + 0.0j
    for a in alphas:
        den *= q_factorial(q, a)
    return num / den


# ---------------------------------------------------------------------------
# Separated representation of powers of the shift combination
# ---------------------------------------------------------------------------

def binvA_dense(mono: Monodromy, lam, k: int = 1):
    """k-th power of B^{-1}(lam) A(lam) by a blockwise solve."""
    return (_solve(mono.B, mono.A, lam, what="B(lam)")[0] ** k).dense()


def binvA_power_sov(params: ModelParams, basis: SovBasis, k: int, lam):
    """Assemble the k-th power of B^{-1}A from the multinomial sum over
    label-lowering shifts in the SOV basis (odd chains)."""
    if params.even_chain:
        raise SgSovError("the multinomial shift representation is stated for odd chains")
    if not 1 <= k <= params.p:
        raise IndexError("power must lie in 1..p")
    p, nsep, d = params.p, params.n_separate, params.dim
    q = params.q
    lam = complex(lam)
    kpref = params.kprod ** (-k)

    tup = params.tuples                 # odd chains: one digit per separate variable
    eta = basis.grid_values
    # the left action of every composition, <y_j| -> coeff_j <y_{j - alpha}|,
    # gathered into one (labels, d) array of shifted covectors
    shifted = np.zeros((d, d), dtype=complex)
    for alphas in product(range(k + 1), repeat=nsep):
        if sum(alphas) != k:
            continue
        multi = q_multinomial(q, k, alphas)
        if abs(multi) < 1e-14:
            continue
        coeffs = np.ones(d, dtype=complex)
        for vvar in range(nsep):
            eta_v = eta[:, vvar]
            for h in range(alphas[vvar]):
                # a(eta_v q^{-h}) read from the grid table, as q^p = 1
                coeffs *= basis.grid.a_vals[vvar, (tup[:, vvar] - h) % p] \
                    / (lam * q ** h / eta_v - eta_v / (lam * q ** h))
            for ivar in range(nsep):
                if ivar == vvar:
                    continue
                eta_i = eta[:, ivar]
                for h in range(alphas[ivar] - alphas[vvar] + 1, alphas[ivar] + 1):
                    coeffs *= 1.0 / (eta_v * q ** h / eta_i - eta_i / (eta_v * q ** h))
        shifted += (multi * kpref * coeffs)[:, None] * basis.left[params.flat_indices(tup - alphas)]
    return (basis.right * basis.measure) @ shifted


def v2k_shift_sums(params: ModelParams, basis: SovBasis, ks):
    """Even clock powers V^{2k} at the first site, for every k in ``ks``,
    assembled entirely from separated shift sums (odd chains): the Fourier
    combination of the rational family, with every factor realized through
    the multinomial representation and the central full-period scalars.
    The p+1 shift powers (B^{-1}A moves the charge by -1) and the p products
    of the family are built once, on their charge blocks; each k is a
    phase-weighted sum of the products.  Shape (len(ks), d, d)."""
    if params.even_chain:
        raise SgSovError("the separated shift-sum route is stated for odd chains")
    p = params.p
    sectors = mc.charge_sectors(mc.digit_charge(params), p)

    def power(k, lam):
        return mc.Graded.project(binvA_power_sov(params, basis, k, lam), sectors, -k)[0]

    phases, pref = v2k_fourier_weights(params, 1, ks)
    mu_p = complex(params.mu_plus[0])
    mu_m = complex(params.mu_minus[0])
    big_p, big_m = mu_p ** p, mu_m ** p
    central_p = mc.average_value(params, "A", big_p) / mc.average_value(params, "B", big_p)
    central_m = mc.average_value(params, "B", big_m) / mc.average_value(params, "A", big_m)
    mid = power(p - 1, mu_m) * central_m
    powers = {m: power(m, mu_p) for m in range(1, p + 1)}
    # product m: (B^{-1}A)^m mid (B^{-1}A)^{p+1-m} / central_p, and mid B^{-1}A at m = 0
    products = mc.Graded.stack([(powers[m] if m else mc.Graded.eye(sectors)) @ mid
                                @ (powers[p + 1 - m] / central_p if m else powers[1])
                                for m in range(p)])
    return mc.scatter_blocks(sectors, 0, np.einsum("k,km,m...->k...", pref, phases,
                                                   products.blocks))


# ---------------------------------------------------------------------------
# Elementary shift operators
# ---------------------------------------------------------------------------

def sov_charge_operators(params: ModelParams, grid: SovGrid, mono: Monodromy):
    """The SOV-diagonal operators (eta_ref, eta_ref^-1, eta_A, eta_A^-1) of
    an even chain, eta_A = xi_prod / prod_a eta_a, as ``Graded`` operators
    from the end coefficients of B, with no basis vector, inverse or
    projection: B_top (degree nsep) = kprod eta_ref / prod_a eta_a and B_bot
    (degree -nsep) = (-1)^nsep kprod eta_ref prod_a eta_a, so
    Y = (-1)^nsep B_top B_bot / kprod^2 = eta_ref^2, while
    eta_ref^p = z_ref = eta0_ref^p (p odd).  None on an odd chain."""
    if not params.even_chain:
        return None
    nsep, p, kprod, B = params.n_separate, params.p, params.kprod, mono.B
    top, bot = (mc.Graded(B.shift, B.blocks[B.degrees.index(g)], B.sectors)
                for g in (nsep, -nsep))
    sign = (-1) ** nsep
    y = top @ bot * (sign / kprod ** 2)
    z_ref = grid.eta0[-1] ** p
    eta_ref, eta_ref_inv = (y ** ((p + s) // 2) / z_ref for s in (1, -1))
    return (eta_ref, eta_ref_inv, top @ eta_ref_inv * (params.xi_prod / kprod),
            bot @ eta_ref_inv * (sign / (kprod * params.xi_prod)))


def elementary_O(params: ModelParams, grid: SovGrid, charge_ops, a: int, k: int,
                 mono: Monodromy) -> mc.Graded:
    """Elementary lowering operator O_{a,k} on variable ``a`` at grid index
    ``k``: the normalized product of p-1 B evaluations and one A evaluation
    on their charge blocks, a weighted lowering shift of that separate
    variable; on an even chain times eta_ref^-(p-1) = eta_ref / z_ref from
    ``charge_ops``, the ``sov_charge_operators`` (None on an odd chain).  A
    prepared ``Solution`` holds the whole family as ``elementary_ops``."""
    nsep = params.n_separate
    if not 0 <= a < nsep or not 0 <= k < params.p:
        raise IndexError("variable or grid index out of range")
    roots = grid.grid
    op = mono.A.at(roots[a, k % params.p])
    for j in range(k + 1, k + params.p):
        op = mono.B.at(roots[a, j % params.p]) @ op
    z = grid.z
    op = op / (params.p * params.kprod ** (params.p - 1) * cross_product(z[a], z[:nsep], a))
    if params.even_chain:
        op = op @ charge_ops[0] / grid.eta0[-1] ** params.p
    return op


def elementary_O_power(ops: mc.Graded, a: int, k: int, alpha: int) -> mc.Graded:
    """Descending product O_{a,k} O_{a,k-1} ... of length alpha, read from
    the graded table ``ops[a, k]`` = O_{a,k} of batch shape (nsep, p)."""
    if alpha < 1:
        raise IndexError("power must be >= 1")
    p = ops.blocks.shape[1]
    out = mc.Graded.eye(ops.sectors)
    for j in range(alpha):
        out = out @ ops[a, (k - j) % p]
    return out


def o_action_weights(basis: SovBasis, a: int, k: int):
    """Left-action weight of the elementary operator O_{a,k} on the covector
    of every label tuple, shape (d,); nonzero only where digit a is k."""
    vals = basis.grid_values
    cross = cross_product(vals[:, a], vals.T, a)
    return np.where(basis.params.tuples[:, a] == k, basis.grid.a_vals[a, k] / cross, 0.0)


def binvA_interpolation(params: ModelParams, grid: SovGrid, charge_ops, lam, ops):
    """Reassemble B^{-1}(lam) A(lam) from the graded elementary operators
    ``ops[a, k]`` = O_{a,k} through the pole expansion over the
    separate-variable grid (plus the charge term of the ``charge_ops`` on
    even chains, where the charge acts on SOV labels as the unit shift of
    the reference variable); a dense matrix."""
    lam = complex(lam)
    roots = grid.grid
    out = reduce(add, [ops[a, k] / (lam / roots[a, k] - roots[a, k] / lam)
                       for a in range(params.n_separate) for k in range(params.p)])
    out = out / params.kprod
    if params.even_chain:
        # eta_ref^-1 (out + lam theta eta_A^-1 - eta_A theta^-1 / lam); every
        # term keeps the charge, on whose sector x theta is one scalar
        _, eta_ref_inv, eta_a, eta_a_inv = charge_ops
        theta = np.diag(mc.theta_charge(params))[out.sectors[:, :1], None]
        out = eta_ref_inv @ (out + eta_a_inv * (lam * theta) - eta_a / (lam * theta))
    return out.dense()


# ---------------------------------------------------------------------------
# Monomial reduction in the elementary algebra
# ---------------------------------------------------------------------------

ZERO_MONOMIAL = object()


def _exchange_ratio(grid: SovGrid, a, k, b, h):
    """Scalar relating O_{a,k} O_{b,h} to O_{b,h} O_{a,k} for a != b."""
    q = grid.params.q
    eta_a0 = grid.eta0[a]
    eta_b0 = grid.eta0[b]
    up = q ** (k - h + 1) * eta_a0 / eta_b0 - eta_b0 / (q ** (k - h + 1) * eta_a0)
    dn = q ** (k - h - 1) * eta_a0 / eta_b0 - eta_b0 / (q ** (k - h - 1) * eta_a0)
    return up / dn


def reduce_O_monomial(params: ModelParams, grid: SovGrid, factors):
    """Normal-order a product of elementary operators: variables ascending,
    same-variable runs contiguous and consecutive-descending in grid index.

    Returns (scalar, ordered factor list) or ZERO_MONOMIAL when a
    same-variable adjacency rule forbids the product."""
    p = params.p
    factors = [(int(a), int(k) % p) for a, k in factors]
    # a stable sort by variable moves every pair that stands in descending
    # variable order past each other once, at one exchange ratio each
    scalar = 1.0 + 0.0j
    for i, (a1, k1) in enumerate(factors):
        for a2, k2 in factors[i + 1:]:
            if a1 > a2:
                scalar *= _exchange_ratio(grid, a1, k1, a2, k2)
    out = []
    z = grid.z[:params.n_separate]
    for a, run in groupby(sorted(factors, key=itemgetter(0)), key=itemgetter(0)):
        run = list(run)
        # same-variable runs must descend by one step
        if any((k2 - k1) % p != p - 1 for (_, k1), (_, k2) in zip(run, run[1:])):
            return ZERO_MONOMIAL
        # fold each full period past the first factor into the central scalar
        folds = (len(run) - 1) // p
        if folds:
            scalar *= (mc.average_value(params, "A", z[a]) / cross_product(z[a], z, a)) ** folds
        out += run[:1] + run[1 + folds * p:]
    return scalar, out


@dataclass
class ElementaryBasisElement:
    """Canonical basis monomial: optional charge dressing on even chains and
    ascending-variable runs of elementary lowering operators."""
    factors: tuple            # ((a, k, alpha), ...) with ascending a
    theta_pow: int = 0        # reference-variable power (even chains)
    theta_a_pow: int = 0      # charge-over-interpolation-variable power

    def __post_init__(self):
        avars = [f[0] for f in self.factors]
        if sorted(avars) != avars or len(set(avars)) != len(avars):
            raise ValueError("factor variables must be strictly ascending")

    def to_dense(self, params: ModelParams, charge_ops, ops):
        """Dense operator of the monomial, its factors read from the graded
        table ``ops[a, k]`` = O_{a,k} and its even-chain charge dressing
        eta_ref^-theta_pow (theta eta_A^-1)^theta_a_pow from ``charge_ops``."""
        out = np.eye(params.dim, dtype=complex)
        if params.even_chain and (self.theta_pow or self.theta_a_pow):
            eta_ref, eta_ref_inv, _, eta_a_inv = charge_ops
            h = self.theta_pow
            pre = eta_ref_inv ** h if h >= 0 else eta_ref ** -h
            out = pre @ np.linalg.matrix_power(mc.theta_charge(params) @ eta_a_inv,
                                               self.theta_a_pow)
        for a, k, alpha in self.factors:
            out = out @ elementary_O_power(ops, a, k, alpha)
        return out


# ---------------------------------------------------------------------------
# Homogeneous-chain shift operator and the local spanning diagnostic
# ---------------------------------------------------------------------------

def cyclic_shift_permutation(params: ModelParams, n: int):
    """Permutation matrix realizing the chain rotation that moves site
    content j to site j + n - 1; conjugation by it reproduces the reordered
    monodromy on homogeneous chains."""
    d = params.dim
    W = np.zeros((d, d), dtype=complex)
    W[params.flat_indices(np.roll(params.tuples, n - 1, axis=1)), np.arange(d)] = 1.0
    return W


def _local_block(params: ModelParams, n: int, op):
    """Project an operator supported on site n onto its local factor: the
    partial trace over the other sites (site 1 is the fastest tensor factor),
    divided by their dimension."""
    p, N = params.p, params.n_sites
    return np.einsum("xiyxjy->ij", op.reshape((p ** (N - n), p, p ** (n - 1)) * 2)) \
        / p ** (N - 1)


def spanning_rank(frame: ShiftedMonodromy):
    """Dimension of the operator algebra generated at the frame's site by the
    shift powers and the conjugated rational family, on the local factor."""
    params, n, mono = frame.params, frame.n, frame.mono
    lam = params.mu_minus[n - 1]
    mid = _solve(mono.B, mono.A, lam, what="B(mu_-)")[0]
    powers = [frame.binva ** k for k in range(params.p)]
    gens = powers[1:] + [powers[k] @ mid @ powers[params.p - 1 - k]
                         for k in range(1, params.p)]
    basis_ops = [np.eye(params.p, dtype=complex)] + [_local_block(params, n, g.dense())
                                                     for g in gens]
    # close under products until the spanned dimension stabilizes
    def rank_of(mats):
        M = np.stack([m.reshape(-1) for m in mats])
        return np.linalg.matrix_rank(M, tol=RANK_TOL * np.linalg.norm(M))

    current = list(basis_ops)
    r = rank_of(current)
    for _ in range(params.p * params.p):
        new = []
        for x in current:
            for y in basis_ops:
                new.append(x @ y)
        cand = current + new
        r2 = rank_of(cand)
        current = cand
        if r2 == r:
            break
        r = r2
        if r == params.p ** 2:
            break
    return int(r)
