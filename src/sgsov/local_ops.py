"""Reconstruction of the local Weyl generators from the Yang-Baxter algebra,
q-combinatorics, separated representations of operator monomials, and the
elementary shift operators with their exchange algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .params import ModelParams, DegenerateKappa, SgSovError
from . import model_core as mc
from .model_core import Monodromy
from .sov_basis import SovBasis, cross_product, grid_values, _read_only

__all__ = [
    "SingularMatrix", "ShiftedMonodromy", "ElementaryOp", "ElementaryBasisElement",
    "shifted_monodromy", "reconstruct_u", "reconstruct_u_via_dc",
    "reconstruct_alpha0", "reconstruct_beta", "beta_target", "beta_sum_target",
    "reconstruct_v2k", "v_power_target",
    "q_number", "q_factorial", "q_multinomial", "q_multinomial_direct",
    "binvA_power_sov", "binvA_dense",
    "elementary_O", "elementary_O_power", "o_action_weight",
    "eta_diag_operator", "eta_ref_operator", "eta_interp_operator",
    "binvA_interpolation", "reduce_O_monomial", "ZERO_MONOMIAL",
    "cyclic_shift_permutation", "spanning_rank", "v2k_shift_sums",
]

class SingularMatrix(SgSovError):
    """A generator evaluation that must be inverted is numerically singular."""


def _solve(Amat, Bmat, cond_limit=1e10, what=""):
    """Pivoted-LU solve A^{-1} B with a condition check; returns the solution,
    read-only, and the condition number of A."""
    cond = float(np.linalg.cond(Amat))
    if not np.isfinite(cond) or cond > cond_limit:
        raise SingularMatrix(f"condition number {cond:.3e} while inverting {what}")
    return _read_only(np.linalg.solve(Amat, Bmat)), cond


# ---------------------------------------------------------------------------
# Shifted monodromy and the reconstruction identities
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ShiftedMonodromy:
    """Per-site reconstruction frame: the monodromy with the chain cyclically
    reordered so that site n is the rightmost factor (the dressing by the
    shift operator, without materializing it), and the solves that every
    local generator of site n is rebuilt from, each computed once, on first
    use, as a read-only array: ``binva`` = B^{-1}A at mu_+ (the shift
    generator U), ``alpha0`` = A^{-1}B at mu_-, and ``betas[k]`` = U^k alpha0
    U^{1-k}, k = 0..p-1.  ``binva_cond`` and ``alpha0_cond`` are the
    condition numbers of B(mu_+) and A(mu_-)."""
    params: ModelParams
    n: int
    mono: Monodromy

    @cached_property
    def _plus(self):
        lam = self.params.mu_plus[self.n - 1]
        return _solve(self.mono.B.evaluate(lam), self.mono.A.evaluate(lam), what="B(mu_+)")

    @cached_property
    def _minus(self):
        lam = self.params.mu_minus[self.n - 1]
        return _solve(self.mono.A.evaluate(lam), self.mono.B.evaluate(lam), what="A(mu_-)")

    binva = property(lambda self: self._plus[0])
    binva_cond = property(lambda self: self._plus[1])
    alpha0 = property(lambda self: self._minus[0])
    alpha0_cond = property(lambda self: self._minus[1])

    @cached_property
    def betas(self) -> np.ndarray:
        binva, inv = self.binva, np.linalg.inv(self.binva)
        return _read_only(np.stack([
            np.linalg.matrix_power(binva, k) @ self.alpha0 @ np.linalg.matrix_power(inv, k - 1)
            for k in range(self.params.p)]))


def shifted_monodromy(params: ModelParams, n: int) -> ShiftedMonodromy:
    if not 1 <= n <= params.n_sites:
        raise IndexError(f"site index {n} out of range 1..{params.n_sites}")
    order = list(range(n - 1, 0, -1)) + list(range(params.n_sites, n - 1, -1))
    return ShiftedMonodromy(params, n, mc.monodromy(params, site_order=order))


def reconstruct_u(params: ModelParams, n: int, k: int = 1,
                  shifted: ShiftedMonodromy = None):
    """k-th power of the site-n shift generator from the reordered monodromy
    evaluated at the first quantum-determinant zero."""
    return np.linalg.matrix_power((shifted or shifted_monodromy(params, n)).binva, k)


def reconstruct_u_via_dc(params: ModelParams, n: int,
                         shifted: ShiftedMonodromy = None):
    """Alternative route through the lower row of the monodromy."""
    mono, lam = (shifted or shifted_monodromy(params, n)).mono, params.mu_plus[n - 1]
    return _solve(mono.D.evaluate(lam), mono.C.evaluate(lam), what="D(mu_+)")[0]


def reconstruct_alpha0(params: ModelParams, n: int,
                       shifted: ShiftedMonodromy = None):
    """The rational local operator obtained at the second determinant zero."""
    return (shifted or shifted_monodromy(params, n)).alpha0


def reconstruct_beta(params: ModelParams, n: int, k: int,
                     shifted: ShiftedMonodromy = None):
    """Conjugate of the rational local operator by the k-th shift power
    (p-periodic in k, as U^p is central)."""
    return (shifted or shifted_monodromy(params, n)).betas[k % params.p]


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


def reconstruct_v2k(params: ModelParams, n: int, k: int,
                    shifted: ShiftedMonodromy = None):
    """Even powers of the clock generator by discrete Fourier transform of
    the rational family."""
    if not 1 <= k <= params.p - 1:
        raise IndexError("power index must lie in 1..p-1")
    kap = params.kappa[n - 1]
    if abs(kap ** 4 - 1.0) < 1e-10:
        raise DegenerateKappa(f"kappa^4 = 1 at site {n}: Fourier denominator vanishes")
    phases = params.q ** (-k * (2 * np.arange(params.p) - 1))
    acc = np.tensordot(phases, (shifted or shifted_monodromy(params, n)).betas, axes=1)
    v2p = params.v[n - 1] ** (2 * params.p)
    pref = (-1.0) ** k * (v2p * kap ** (2 * params.p) + 1) \
        / (params.p * kap ** (2 * k) * (kap ** 2 - kap ** (-2)))
    return pref * acc


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


def _gauss_binom_poly(n, m):
    """Gaussian binomial as an integer-coefficient polynomial (ascending)."""
    if m < 0 or m > n:
        return np.zeros(1, dtype=object)
    row = [np.array([1], dtype=object)]  # binom(j, 0..j) built row by row
    for j in range(1, n + 1):
        prev = row
        row = []
        for i in range(j + 1):
            left = prev[i - 1] if 1 <= i <= j else None  # binom(j-1, i-1)
            right = prev[i] if i <= j - 1 else None      # binom(j-1, i)
            acc = np.zeros(max(
                len(left) if left is not None else 0,
                (len(right) + i) if right is not None else 0, 1), dtype=object)
            if left is not None:
                acc[:len(left)] += left
            if right is not None:
                acc[i:i + len(right)] += right  # z^i * binom(j-1, i)
            row.append(acc)
    return row[m]


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

def binvA_dense(params: ModelParams, mono: Monodromy, lam, k: int = 1):
    binva = _solve(mono.B.evaluate(lam), mono.A.evaluate(lam), what="B(lam)")[0]
    return np.linalg.matrix_power(binva, k)


def binvA_power_sov(params: ModelParams, basis: SovBasis, k: int, lam,
                    mono: Monodromy = None):
    """Assemble the k-th power of B^{-1}A from the multinomial sum over
    label-lowering shifts in the SOV basis (odd chains)."""
    if params.even_chain:
        raise SgSovError("the multinomial shift representation is stated for odd chains")
    if not 1 <= k <= params.p:
        raise IndexError("power must lie in 1..p")
    p, nsep, d = params.p, params.n_separate, params.dim
    q = params.q
    lam = complex(lam)
    grid = basis.grid.grid
    out = np.zeros((d, d), dtype=complex)
    kpref = params.kprod ** (-k)

    def compositions(total, parts):
        if parts == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in compositions(total - first, parts - 1):
                yield (first,) + rest

    tup = basis.tuples                  # odd chains: one entry per separate variable
    eta = grid[np.arange(nsep), tup]
    for alphas in compositions(k, nsep):
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
        # operator with left action <y_j| -> coeff_j <y_{j - alpha}|
        target = ((tup - np.asarray(alphas)) % p) @ p ** np.arange(nsep)
        out += (basis.right * (multi * kpref * coeffs * basis.measure)) @ basis.left[target]
    return out


def v2k_shift_sums(params: ModelParams, basis: SovBasis, ks, mono: Monodromy = None):
    """Even clock powers V^{2k} at the first site, for every k in ``ks``,
    assembled entirely from separated shift sums (odd chains): the Fourier
    combination of the rational family, with every factor realized through
    the multinomial representation and the central full-period scalars.
    The p+1 shift powers and the p products of the family are built once;
    each k is a phase-weighted sum of the products.  Shape (len(ks), d, d)."""
    if params.even_chain:
        raise SgSovError("the separated shift-sum route is stated for odd chains")
    mono = mono if mono is not None else mc.monodromy(params)
    p, d = params.p, params.dim
    kap = params.kappa[0]
    if abs(kap ** 4 - 1.0) < 1e-10:
        raise DegenerateKappa("kappa^4 = 1: Fourier denominator vanishes")
    mu_p = complex(params.mu_plus[0])
    mu_m = complex(params.mu_minus[0])
    big_p, big_m = mu_p ** p, mu_m ** p
    central_p = mc.average_value(params, "A", big_p) / mc.average_value(params, "B", big_p)
    central_m = mc.average_value(params, "B", big_m) / mc.average_value(params, "A", big_m)
    mid = binvA_power_sov(params, basis, p - 1, mu_m, mono) * central_m
    powers = {m: binvA_power_sov(params, basis, m, mu_p, mono) for m in range(1, p + 1)}
    # product m: (B^{-1}A)^m mid (B^{-1}A)^{p+1-m} / central_p, and mid B^{-1}A at m = 0
    products = np.array([(powers[m] if m else np.eye(d, dtype=complex)) @ mid
                         @ (powers[p + 1 - m] / central_p if m else powers[1])
                         for m in range(p)])
    ks = np.asarray(ks)
    phases = params.q ** (-ks[:, None] * (2 * np.arange(p) - 1))
    v2p = params.v[0] ** (2 * p)
    pref = (-1.0) ** ks * (v2p * kap ** (2 * p) + 1) \
        / (p * kap ** (2 * ks) * (kap ** 2 - kap ** (-2)))
    return np.einsum("k,km,mij->kij", pref, phases, products)


# ---------------------------------------------------------------------------
# Elementary shift operators
# ---------------------------------------------------------------------------

@dataclass
class ElementaryOp:
    """Normalized product of B evaluations and one A evaluation acting as a
    weighted lowering shift on a single separate variable."""
    a: int          # separate-variable index, 0-based
    k: int          # grid index, 0-based
    matrix: np.ndarray


def eta_diag_operator(basis: SovBasis, a: int, power: int = 1):
    """Operator diagonal in the SOV basis with eigenvalue eta_a^{(k_a)}^power."""
    vals = basis.grid.grid[a, basis.tuples[:, a]] ** power
    return (basis.right * (vals * basis.measure)[None, :]) @ basis.left


def eta_ref_operator(basis: SovBasis, power: int = 1):
    """Diagonal operator of the reference (last) variable on even chains."""
    return eta_diag_operator(basis, basis.params.n_sites - 1, power)


def eta_interp_operator(basis: SovBasis, power: int = 1):
    """Diagonal operator with eigenvalue (prod xi / prod_{a<=nsep} eta_a)^power."""
    params = basis.params
    vals = (params.xi_prod / np.prod(grid_values(basis), axis=1)) ** power
    return (basis.right * (vals * basis.measure)[None, :]) @ basis.left


def elementary_O(params: ModelParams, basis: SovBasis, a: int, k: int,
                 mono: Monodromy = None) -> ElementaryOp:
    """Elementary lowering operator on variable ``a`` at grid index ``k``."""
    nsep = params.n_separate
    if not 0 <= a < nsep or not 0 <= k < params.p:
        raise IndexError("variable or grid index out of range")
    mono = mono if mono is not None else mc.monodromy(params)
    grid = basis.grid.grid
    op = mono.A.evaluate(grid[a, k % params.p])
    for j in range(k + 1, k + params.p):
        op = mono.B.evaluate(grid[a, j % params.p]) @ op
    z = basis.grid.z
    op = op / (params.p * params.kprod ** (params.p - 1) * cross_product(z[a], z[:nsep], a))
    if params.even_chain:
        op = op @ eta_ref_operator(basis, -(params.p - 1))
    return ElementaryOp(a, k, op)


def elementary_O_power(params: ModelParams, basis: SovBasis, a: int, k: int,
                       alpha: int, mono: Monodromy = None):
    """Descending product O_{a,k} O_{a,k-1} ... of length alpha."""
    if alpha < 1:
        raise IndexError("power must be >= 1")
    out = np.eye(params.dim, dtype=complex)
    for j in range(alpha):
        out = out @ elementary_O(params, basis, a, (k - j) % params.p, mono).matrix
    return out


def o_action_weight(params: ModelParams, basis: SovBasis, a: int, k: int, j: int):
    """Left-action weight of the elementary operator on the covector with
    label tuple j (nonzero only when that tuple sits at grid index k)."""
    tup = basis.tuples[j]
    if tup[a] != k:
        return 0.0 + 0.0j
    nsep = params.n_separate
    vals = basis.grid.grid[np.arange(nsep), tup[:nsep]]
    return complex(basis.grid.a_vals[a, k] / cross_product(vals[a], vals, a))


def binvA_interpolation(params: ModelParams, basis: SovBasis, lam,
                        mono: Monodromy = None):
    """Reassemble B^{-1}(lam) A(lam) from the elementary operators through
    the pole expansion over the separate-variable grid (plus the charge term
    on even chains, where the charge acts on SOV labels as the unit shift of
    the reference variable)."""
    mono = mono if mono is not None else mc.monodromy(params)
    lam = complex(lam)
    d = params.dim
    out = np.zeros((d, d), dtype=complex)
    grid = basis.grid.grid
    for a in range(params.n_separate):
        for k in range(params.p):
            eta = grid[a, k]
            out += elementary_O(params, basis, a, k, mono).matrix \
                / (lam / eta - eta / lam)
    out = out / params.kprod
    if params.even_chain:
        out = eta_ref_operator(basis, -1) @ out
        theta = mc.theta_charge(params)
        eta_a_inv = eta_interp_operator(basis, -1)
        eta_a = eta_interp_operator(basis, +1)
        even = lam * theta @ eta_a_inv - eta_a @ np.linalg.inv(theta) / lam
        out = out + eta_ref_operator(basis, -1) @ even
    return out


# ---------------------------------------------------------------------------
# Monomial reduction in the elementary algebra
# ---------------------------------------------------------------------------

ZERO_MONOMIAL = object()


def _exchange_ratio(basis: SovBasis, a, k, b, h):
    """Scalar relating O_{a,k} O_{b,h} to O_{b,h} O_{a,k} for a != b."""
    q = basis.params.q
    eta_a0 = basis.grid.eta0[a]
    eta_b0 = basis.grid.eta0[b]
    up = q ** (k - h + 1) * eta_a0 / eta_b0 - eta_b0 / (q ** (k - h + 1) * eta_a0)
    dn = q ** (k - h - 1) * eta_a0 / eta_b0 - eta_b0 / (q ** (k - h - 1) * eta_a0)
    return up / dn


def reduce_O_monomial(params: ModelParams, basis: SovBasis, factors):
    """Normal-order a product of elementary operators: variables ascending,
    same-variable runs contiguous and consecutive-descending in grid index.

    Returns (scalar, ordered factor list) or ZERO_MONOMIAL when a
    same-variable adjacency rule forbids the product."""
    factors = [(int(a), int(k) % params.p) for a, k in factors]
    scalar = 1.0 + 0.0j
    seq = list(factors)
    # bubble exchange to ascending variable order (stable)
    changed = True
    while changed:
        changed = False
        for i in range(len(seq) - 1):
            (a1, k1), (a2, k2) = seq[i], seq[i + 1]
            if a1 > a2:
                scalar *= _exchange_ratio(basis, a1, k1, a2, k2)
                seq[i], seq[i + 1] = seq[i + 1], seq[i]
                changed = True
    # same-variable runs must descend by one step
    for i in range(len(seq) - 1):
        (a1, k1), (a2, k2) = seq[i], seq[i + 1]
        if a1 == a2 and (k2 - k1) % params.p != params.p - 1:
            return ZERO_MONOMIAL
    # fold cycles longer than a full period
    out = []
    i = 0
    while i < len(seq):
        a = seq[i][0]
        j = i
        while j < len(seq) and seq[j][0] == a:
            j += 1
        run = seq[i:j]
        while len(run) > params.p:
            z = basis.grid.z[:params.n_separate]
            scalar *= mc.average_value(params, "A", z[a]) / cross_product(z[a], z, a)
            run = run[:1] + run[1 + params.p:]
            if run[:1] and len(run) > 1 and (run[1][1] - run[0][1]) % params.p != params.p - 1:
                return ZERO_MONOMIAL
        out.extend(run)
        i = j
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

    def total_power(self):
        return sum(f[2] for f in self.factors)

    def to_dense(self, params: ModelParams, basis: SovBasis, mono=None):
        out = np.eye(params.dim, dtype=complex)
        if params.even_chain and (self.theta_pow or self.theta_a_pow):
            theta = mc.theta_charge(params)
            pre = eta_ref_operator(basis, -self.theta_pow)
            mid = np.linalg.matrix_power(
                theta @ eta_interp_operator(basis, -1), self.theta_a_pow)
            out = pre @ mid
        for a, k, alpha in self.factors:
            out = out @ elementary_O_power(params, basis, a, k, alpha, mono)
        return out


# ---------------------------------------------------------------------------
# Homogeneous-chain shift operator and the local spanning diagnostic
# ---------------------------------------------------------------------------

def cyclic_shift_permutation(params: ModelParams, n: int):
    """Permutation matrix realizing the chain rotation that moves site
    content j to site j + n - 1; conjugation by it reproduces the reordered
    monodromy on homogeneous chains."""
    p, N = params.p, params.n_sites
    d = params.dim
    src = np.arange(d)
    digits = [(src // p ** a) % p for a in range(N)]
    dest = np.zeros(d, dtype=int)
    for a in range(N):
        dest += digits[(a - (n - 1)) % N] * p ** a
    W = np.zeros((d, d), dtype=complex)
    W[dest, src] = 1.0
    return W


def _local_block(params: ModelParams, n: int, op):
    """Project an operator supported on site n onto its local factor: the
    partial trace over the other sites (site 1 is the fastest tensor factor),
    divided by their dimension."""
    p, N = params.p, params.n_sites
    return np.einsum("xiyxjy->ij", op.reshape((p ** (N - n), p, p ** (n - 1)) * 2)) \
        / p ** (N - 1)


def spanning_rank(params: ModelParams, n: int, tol=1e-8,
                  shifted: ShiftedMonodromy = None):
    """Dimension of the operator algebra generated at site n by the shift
    powers and the conjugated rational family, computed on the local factor."""
    sh = shifted or shifted_monodromy(params, n)
    lam = params.mu_minus[n - 1]
    mid = _solve(sh.mono.B.evaluate(lam), sh.mono.A.evaluate(lam), what="B(mu_-)")[0]
    powers = [np.linalg.matrix_power(sh.binva, k) for k in range(params.p)]
    gens = powers[1:] + [powers[k] @ mid @ powers[params.p - 1 - k]
                         for k in range(1, params.p)]
    basis_ops = [np.eye(params.p, dtype=complex)] + [_local_block(params, n, g) for g in gens]
    # close under products until the spanned dimension stabilizes
    def rank_of(mats):
        M = np.stack([m.reshape(-1) for m in mats])
        return np.linalg.matrix_rank(M, tol=tol * np.linalg.norm(M))

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
