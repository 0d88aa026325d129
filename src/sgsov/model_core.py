"""Cyclic Weyl representation, Lax and monodromy matrices, transfer matrix,
grading charge, quantum determinant and average values.

Every monodromy entry moves the alternating digit charge by one fixed step,
so it is stored as its p charge blocks of size d/p.  At a spectral point it
is a ``Graded`` operator: the same p blocks, which every operator built from
the monodromy (products, solves, inverses) keeps.  It also evaluates to a
dense complex matrix on the p^N state space, so that the algebraic
identities downstream can be checked against brute-force linear algebra.
The exchange relation is checked on the blocks.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce

import numpy as np

from .params import ModelParams, OddChain, SgSovError

__all__ = [
    "Graded", "OperatorLaurent", "Monodromy", "NotCentral", "NotGraded",
    "weyl_generators", "site_embed", "embedded_u",
    "local_lax", "lax_matrix", "monodromy", "transfer",
    "digit_charge", "digit_negation", "charge_sectors", "scatter_blocks",
    "theta_charge", "rmatrix", "yang_baxter_residual",
    "a_coeff", "d_coeff", "abar_coeff", "dbar_coeff", "a_laurent",
    "quantum_determinant", "quantum_determinant_product",
    "laurent_product", "average_monodromy_laurent",
    "average_monodromy", "average_value", "average_value_dense",
    "frob", "rel_err",
]


class NotCentral(SgSovError):
    """An operator that must be a scalar multiple of the identity is not."""


class NotGraded(SgSovError):
    """An operator has a nonzero entry off its charge shift."""


def frob(x) -> float:
    """Frobenius norm of an array, or of a ``Graded`` operator's blocks."""
    return float(np.linalg.norm(x.blocks if isinstance(x, Graded) else np.asarray(x)))


def rel_err(lhs, rhs, scale=None) -> float:
    """Frobenius error of lhs-rhs relative to an explicit or implied scale;
    two ``Graded`` operators are compared on their blocks."""
    if not isinstance(lhs, Graded):
        lhs, rhs = np.asarray(lhs), np.asarray(rhs)
    if scale is None:
        scale = max(frob(lhs), frob(rhs), 1e-300)
    return frob(lhs - rhs) / scale


# ---------------------------------------------------------------------------
# Laurent polynomials stored as charge blocks
# ---------------------------------------------------------------------------

def charge_sectors(charge, p):
    """Basis indices of each charge sector x in Z_p, in index order, as the
    rows of a read-only (p, d/p) array."""
    sectors = np.argsort(charge, kind="stable").reshape(p, -1)
    sectors.flags.writeable = False
    return sectors


def _block_index(sectors, shift):
    """Dense row and column indices of the p blocks of one shift: block x
    maps charge sector x (its columns) to sector x + shift (its rows)."""
    p = len(sectors)
    return sectors[(np.arange(p) + shift) % p][:, :, None], sectors[:, None, :]


def _rotate(blocks, shift):
    """``np.roll(blocks, -shift, axis=-3)`` as one index gather: block x + shift at x."""
    p = blocks.shape[-3]
    return blocks[..., (np.arange(p) + shift) % p, :, :] if shift % p else blocks


def scatter_blocks(sectors, shift, blocks):
    """Dense matrix whose map from charge sector x to sector x + shift is
    ``blocks[..., x, :, :]``, zero elsewhere; leading axes are batch axes."""
    out = np.zeros(blocks.shape[:-3] + (sectors.size,) * 2, dtype=blocks.dtype)
    out[(Ellipsis,) + _block_index(sectors, shift)] = blocks
    return out


@dataclass(frozen=True, eq=False)
class Graded:
    """Operator that moves a Z_p charge by ``shift``, stored as its blocks in
    the layout of ``OperatorLaurent``: ``blocks[..., x, :, :]`` (read-only,
    shape (..., p, d/p, d/p)) maps sector x to sector x + shift, with the
    sectors' basis indices in the rows of ``sectors``.  Leading axes are
    batch axes (a table of operators of one shift), indexed by ``op[i]``.

    ``@`` multiplies two of them blockwise (the shifts add), or applies one
    (unbatched) to dense vectors or matrices on either side; ``+`` and ``-``
    need equal shifts; ``*`` and ``/`` take scalars; ``**`` is the repeated
    product; ``frob`` reads the blocks."""
    shift: int
    blocks: np.ndarray
    sectors: np.ndarray
    __array_ufunc__ = None        # ndarray @ Graded goes to __rmatmul__

    def __post_init__(self):
        object.__setattr__(self, "shift", int(self.shift) % len(self.sectors))
        self.blocks.flags.writeable = False

    @classmethod
    def eye(cls, sectors):
        m = sectors.shape[1]
        return cls(0, np.broadcast_to(np.eye(m, dtype=complex), sectors.shape + (m,)), sectors)

    @staticmethod
    def stack(ops):
        """Operators of one shift as one table on a new leading axis."""
        op = ops[0]
        return Graded(op.shift, np.stack([op._same_shift(o).blocks for o in ops]), op.sectors)

    @classmethod
    def project(cls, dense, sectors, shift):
        """The blocks of ``dense`` on the charge shift ``shift``, and the
        Frobenius norm of the dropped rest over that of the kept blocks."""
        index, rest = _block_index(sectors, shift), np.array(dense)
        kept, rest[index] = dense[index], 0.0
        return cls(shift, kept, sectors), frob(rest) / max(frob(kept), 1e-300)

    def __getitem__(self, index):
        return Graded(self.shift, self.blocks[index], self.sectors)

    def dense(self):
        return scatter_blocks(self.sectors, self.shift, self.blocks)

    def inv(self):
        # block x of the inverse maps sector x back to x - shift
        return Graded(-self.shift, np.linalg.inv(_rotate(self.blocks, -self.shift)),
                      self.sectors)

    def __matmul__(self, other):
        if isinstance(other, Graded):
            # block x of other lands in sector x + other.shift
            return Graded(self.shift + other.shift,
                          _rotate(self.blocks, other.shift) @ other.blocks, self.sectors)
        other = np.asarray(other)
        out = np.zeros(other.shape, dtype=complex)
        blocks = self.blocks @ other[self.sectors].reshape(self.sectors.shape + (-1,))
        out[self._rows] = blocks.reshape(self.sectors.shape + other.shape[1:])
        return out

    def __rmatmul__(self, other):
        flat = np.asarray(other).reshape(-1, self.sectors.size)
        out = np.zeros(flat.shape, dtype=complex)
        rows = np.swapaxes(flat[:, self._rows], 0, 1)
        out[:, self.sectors] = np.swapaxes(rows @ self.blocks, 0, 1)
        return out.reshape(np.shape(other))

    @cached_property
    def _rows(self):
        """Basis indices of the target sector of each block."""
        return _block_index(self.sectors, self.shift)[0][:, :, 0]

    def __pow__(self, k: int):
        return reduce(operator.matmul, [self] * k) if k else Graded.eye(self.sectors)

    def __mul__(self, scalar):
        return Graded(self.shift, np.multiply(scalar, self.blocks), self.sectors)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return Graded(self.shift, self.blocks / scalar, self.sectors)

    def __add__(self, other):
        return Graded(self.shift, self.blocks + self._same_shift(other).blocks, self.sectors)

    def __sub__(self, other):
        return Graded(self.shift, self.blocks - self._same_shift(other).blocks, self.sectors)

    def _same_shift(self, other):
        if other.shift != self.shift:
            raise NotGraded(f"operators of charge shifts {self.shift} and {other.shift} "
                            "do not add")
        return other


@dataclass(frozen=True, eq=False)
class OperatorLaurent:
    """Laurent polynomial in the spectral parameter whose coefficients move
    a Z_p charge by ``shift``, stored as its charge blocks: ``blocks[g, x]``
    (read-only, shape (ndeg, p, d/p, d/p)) is the coefficient of degree
    ``degrees[g]`` (ascending) restricted to the map from charge sector x to
    sector x + shift, with the sectors' basis indices, in index order, in
    the rows of ``sectors``."""
    shift: int
    degrees: list
    blocks: np.ndarray
    sectors: np.ndarray

    def __post_init__(self):
        self.blocks.flags.writeable = False

    @classmethod
    def gather(cls, coeffs, charge, p):
        """The block form of the dense coefficients ``coeffs`` (pairs of a
        degree and a d x d matrix, ascending in degree and taken one at a
        time; all-zero ones are dropped) on the sectors of ``charge``
        (values in Z_p, each taken by d/p basis states).  The shift is read
        off the largest entry of the lowest coefficient; raises NotGraded if
        any nonzero entry of any coefficient lies off it."""
        sectors = charge_sectors(charge, p)
        degrees, blocks, shift = [], [], None
        for g, c in coeffs:
            if not np.any(c):
                continue
            if shift is None:
                row, col = np.unravel_index(np.argmax(np.abs(c)), c.shape)
                shift = int(charge[row] - charge[col]) % p
            block = c[_block_index(sectors, shift)]
            dropped = np.count_nonzero(c) - np.count_nonzero(block)
            if dropped:
                raise NotGraded(f"{dropped} nonzero entries lie off the charge shift {shift}")
            degrees.append(int(g))
            blocks.append(block)
        m = sectors.shape[1]
        blocks = np.array(blocks, dtype=complex).reshape(len(degrees), p, m, m)
        return cls(shift or 0, degrees, blocks, sectors)

    def coeff(self, deg):
        """Dense coefficient of degree ``deg`` (zero if absent)."""
        if int(deg) not in self.degrees:
            d = self.sectors.size
            return np.zeros((d, d), dtype=complex)
        return scatter_blocks(self.sectors, self.shift, self.blocks[self.degrees.index(int(deg))])

    @property
    def coeffs(self):
        """Dense coefficients by degree, scattered on each access."""
        return dict(zip(self.degrees, scatter_blocks(self.sectors, self.shift, self.blocks)))

    def __mul__(self, scalar):
        return OperatorLaurent(self.shift, self.degrees, scalar * self.blocks, self.sectors)

    def blocks_at(self, lam):
        """The p blocks at the given spectral point, shape (p, d/p, d/p),
        summed from zeros in ascending degree: the order of the dense sum of
        the coefficients, which ``evaluate`` thus equals bit for bit."""
        lam = complex(lam)
        out = np.zeros(self.blocks.shape[1:], dtype=complex)
        for g, b in zip(self.degrees, self.blocks):
            out += (lam ** g) * b
        return out

    def at(self, lam) -> Graded:
        """The graded value at the given spectral point."""
        return Graded(self.shift, self.blocks_at(lam), self.sectors)

    def evaluate(self, lam):
        """Dense value at the given spectral point."""
        return self.at(lam).dense()


@dataclass(eq=False)
class Monodromy:
    """The 2x2 matrix of Yang-Baxter generators as operator Laurent
    polynomials on the sectors of the alternating digit charge (in Z_p) of
    each basis state, in the factor order they were built in."""
    A: OperatorLaurent
    B: OperatorLaurent
    C: OperatorLaurent
    D: OperatorLaurent
    charge: np.ndarray
    p: int

    def entry(self, name) -> OperatorLaurent:
        return getattr(self, name)

    def evaluate(self, lam):
        """2x2 array of dense matrices at the given spectral point."""
        return np.array([[self.A.evaluate(lam), self.B.evaluate(lam)],
                         [self.C.evaluate(lam), self.D.evaluate(lam)]])


# ---------------------------------------------------------------------------
# Local Weyl pairs and tensor embedding
# ---------------------------------------------------------------------------

def weyl_generators(p, u=1.0, v=1.0, p_prime=2):
    """Cyclic Weyl pair on C^p: V is the clock diag(v*q^k) and U the shift
    mapping basis state k to k-1 (mod p), scaled by u.  They obey
    U V = q V U with U^p = u^p and V^p = v^p."""
    q = np.exp(-1j * np.pi * p_prime / p)
    V = np.diag(v * q ** np.arange(p)).astype(complex)
    U = np.zeros((p, p), dtype=complex)
    for k in range(p):
        U[(k - 1) % p, k] = u
    return U, V


def site_embed(params: ModelParams, n: int, X):
    """Embed a p x p matrix as an operator acting on tensor slot n only."""
    p, N = params.p, params.n_sites
    if not 1 <= n <= N:
        raise IndexError(f"site index {n} out of range 1..{N}")
    # the index is (slower sites, site n, faster sites): X scattered on the spectators' diagonal
    high, low = np.ogrid[:p ** (N - n), :p ** (n - 1)]
    out = np.zeros((high.size, p, low.size) * 2, dtype=complex)
    out[high, :, low, high, :, low] = X
    return out.reshape(p ** N, p ** N)


def embedded_u(params: ModelParams, n: int, power: int = 1):
    """The site-n shift generator (to ``power``) on the full chain."""
    U, _ = weyl_generators(params.p, params.u[n - 1], params.v[n - 1], params.p_prime)
    return site_embed(params, n, np.linalg.matrix_power(U, power))


# ---------------------------------------------------------------------------
# Lax matrix, monodromy, transfer matrix, grading charge
# ---------------------------------------------------------------------------

def local_lax(params: ModelParams, n: int):
    """Local p x p coefficients of the site-n Lax matrix: ``[i][j]`` maps
    each power of the spectral parameter to its coefficient on C^p.

    Diagonal entries are independent of the spectral parameter; off-diagonal
    entries carry exactly the powers +1 and -1."""
    kap = params.kappa[n - 1]
    xi = params.xi[n - 1]
    sq = params.sqrt_q
    U, V = weyl_generators(params.p, params.u[n - 1], params.v[n - 1], params.p_prime)
    Uinv, Vinv = np.linalg.inv(U), np.linalg.inv(V)
    a11 = kap * (U @ (V * (kap / sq) + Vinv * (sq / kap)))
    a22 = kap * (Uinv @ (V * (sq / kap) + Vinv * (kap / sq)))
    # (lam_n * v - 1/(v*lam_n)) / i  with lam_n = lam/xi
    return [[{0: a11}, {1: kap * V / (1j * xi), -1: -kap * xi * Vinv / 1j}],
            [{1: kap * Vinv / (1j * xi), -1: -kap * xi * V / 1j}, {0: a22}]]


def lax_matrix(params: ModelParams, n: int):
    """2x2 matrix of degree-1 operator Laurent polynomials for site n: the
    local coefficients of ``local_lax`` embedded on tensor slot n, on the
    sectors of the site-n digit."""
    digit = params.tuples[:, n - 1]
    return [[OperatorLaurent.gather(((dg, site_embed(params, n, c)) for dg, c in sorted(
        entry.items())), digit, params.p) for entry in row] for row in local_lax(params, n)]


def _kron_degrees(row, col, p, low, size, rows, cols):
    """Entry sum_c row[c] (x) col[c] of a product of 2x2 Laurent matrices
    acting on different tensor slots (the left factor's entries map a degree
    to its p x p coefficient, the right one's are pairs of ascending degrees
    and stacked size x size coefficients), the left factor's slot placed
    above the ``low`` fastest basis states of the right factor's slots,
    formed only at the broadcasting index arrays ``rows`` and ``cols``: the
    same pair, all-zero degrees dropped, each degree's terms summed in the
    order of c."""
    terms = {}
    for left, right in zip(row, col):
        for d1, a in left.items():
            for d2, b in zip(*right):
                terms.setdefault(d1 + d2, []).append((a, b))
    degrees = sorted(terms)
    # each index as the left factor's digit and the right factor's index, and
    # the flat index of each entry in the left and in the right coefficients
    (yr, rr), (yc, rc) = ((i // low % p, i // (p * low) * low + i % low) for i in (rows, cols))
    at_a, at_b = yr * p + yc, rr * size + rc
    out = np.empty((len(degrees),) + at_a.shape, dtype=complex)
    for values, g in zip(out, degrees):
        values[...] = reduce(operator.add, (np.take(a, at_a) * np.take(b, at_b)
                                            for a, b in terms[g]))
    keep = out.any(axis=tuple(range(1, out.ndim)))
    return [g for g, k in zip(degrees, keep) if k], out if keep.all() else out[keep]


def digit_charge(params: ModelParams, site_order=None):
    """Alternating digit charge chi(k) = sum_pos (-1)^pos k_{site_order[pos]}
    mod p of every basis state (read-only), site N first by default.

    In the product of Lax factors in that order, the factor at position pos
    with auxiliary indices (i_pos, i_pos+1) moves its site's digit by
    i_pos + i_pos+1 - 1 (the clock keeps it, U and U^-1 move it by -1 and
    +1), so the alternating sum telescopes: every monodromy entry (i, j)
    moves chi by i - (-1)^N j - (N mod 2), whatever its degree."""
    N = params.n_sites
    if site_order is None:
        site_order = list(range(N, 0, -1))
    chi = params.tuples[:, np.asarray(site_order) - 1] @ (-1) ** np.arange(N) % params.p
    chi.flags.writeable = False
    return chi


def digit_negation(params: ModelParams):
    """Index of every basis state's digit tuple with each digit negated mod
    p (read-only): the permutation of the digit parity P, an involution
    that fixes only the all-zero tuple and maps the ``digit_charge`` chi to
    -chi.  T commutes with P on every chain with u = v = 1."""
    neg = params.flat_indices(-params.tuples)
    neg.flags.writeable = False
    return neg


def _graded_lax(params: ModelParams, n: int):
    """``local_lax`` of site n; raises NotGraded, with the exact count, if a
    coefficient of entry (i, c) has a nonzero entry that does not move the
    digit by i + c - 1 (mod p), the premise of ``digit_charge``."""
    L, p = local_lax(params, n), params.p
    step = np.subtract.outer(np.arange(p), np.arange(p)) + 1   # row - column digit + 1
    off = sum(np.count_nonzero(a[(step - i - c) % p != 0])
              for i, c in np.ndindex(2, 2) for a in L[i][c].values())
    if off:
        raise NotGraded(f"{off} nonzero entries of the site-{n} Lax coefficients lie off "
                        "their digit steps")
    return L


def monodromy(params: ModelParams, site_order=None) -> Monodromy:
    """Ordered product of Lax matrices, site N leftmost by default.

    ``site_order`` gives the left-to-right factor order and allows cyclic
    reorderings of the chain.  The product is the Kronecker recursion
    M_ij = sum_c L[i][c] (x) M'_cj from the rightmost factor, over the local
    coefficients of ``_graded_lax``, each site on its own tensor slot (the
    lowest site the fastest digit), so the coefficients come out in the
    basis order.  Every step but the last is dense; the last forms only the
    charge blocks of each nonzero degree, in the sectors of the
    ``digit_charge`` of the same order (recorded in the result), which
    entry (i, j) moves by i - (-1)^N j - (N mod 2): every local factor is
    checked to be graded, so no finite product entry lies off that shift."""
    if site_order is None:
        site_order = list(range(params.n_sites, 0, -1))
    p, N = params.p, len(site_order)
    charge = digit_charge(params, site_order)
    sectors = charge_sectors(charge, p)
    shift = [[(i - (-1) ** N * j - N % 2) % p for j in range(2)] for i in range(2)]
    one = ([0], np.ones((1, 1, 1), dtype=complex))
    M = [[one, ([], ())], [([], ()), one]]
    for pos, n in reversed(list(enumerate(site_order))):
        L, size = _graded_lax(params, n), p ** (N - pos - 1)
        low, idx = p ** sum(m < n for m in site_order[pos + 1:]), np.arange(p * size)
        M = [[_kron_degrees(L[i], [M[0][j], M[1][j]], p, low, size, *(
            _block_index(sectors, shift[i][j]) if pos == 0 else (idx[:, None], idx)))
            for j in range(2)] for i in range(2)]
    A, B, C, D = (OperatorLaurent(shift[i][j], *M[i][j], sectors) for i, j in np.ndindex(2, 2))
    return Monodromy(A=A, B=B, C=C, D=D, charge=charge, p=p)


def transfer(mono: Monodromy, lam):
    return mono.A.evaluate(lam) + mono.D.evaluate(lam)


def theta_charge(params: ModelParams):
    """Grading charge of the even chain: product of the clock generators
    V_n^{(-1)^n}, which is (prod_n v_n^{(-1)^n}) q^chi with chi the
    ``digit_charge``.  Diagonal in the computational basis."""
    if not params.even_chain:
        raise OddChain("the grading charge exists only for even chains")
    v = np.asarray(params.v)
    scale = np.prod(v ** (-1) ** np.arange(1, params.n_sites + 1))
    return np.diag(scale * params.q ** digit_charge(params))


# ---------------------------------------------------------------------------
# R-matrix and the quadratic exchange relation
# ---------------------------------------------------------------------------

def rmatrix(lam, q):
    """Six-vertex R-matrix in multiplicative form."""
    lam = complex(lam)
    b = lam - 1.0 / lam
    c = q - 1.0 / q
    a = q * lam - 1.0 / (q * lam)
    return np.array([[a, 0, 0, 0],
                     [0, b, c, 0],
                     [0, c, b, 0],
                     [0, 0, 0, a]], dtype=complex)


def yang_baxter_residual(params: ModelParams, lam, mu, mono: Monodromy):
    """Relative residual of the quadratic exchange relation at (lam, mu),
    formed on the charge blocks of the monodromy entries."""
    p = mono.p
    entries = [mono.entry(name) for name in "ABCD"]
    shift = np.array([op.shift for op in entries]).reshape(2, 2)
    if (shift[0, 0] + shift[1, 1] - shift[0, 1] - shift[1, 0]) % p:
        # R only mixes (a, b) with (b, a), so the terms of each block of the
        # relation share one shift exactly when s_A + s_D = s_B + s_C
        raise NotGraded(f"entry shifts {shift.ravel().tolist()} mix charge sectors "
                        "in the exchange relation")
    Tl, Tm = (np.array([op.blocks_at(x) for op in entries]).reshape(
        (2, 2) + entries[0].blocks.shape[1:]) for x in (lam, mu))
    # Tl[:, :, roll[b, e]][a, c, b, e, x] is block x + s_be of Tl[a, c]: the
    # one that takes the image of block x of Tm[b, e] (and conversely)
    roll = (np.arange(p) + shift[..., None]) % p
    # products of T(lam) (x) 1 and 1 (x) T(mu) in the doubled auxiliary space:
    # block [(a, b), (c, e)] is Tl[a, c] Tm[b, e], resp. Tm[b, e] Tl[a, c]
    P12 = np.matmul(Tl[:, :, roll], Tm).transpose(0, 2, 1, 3, 4, 5, 6).reshape(4, 4, -1)
    P21 = np.matmul(Tm[:, :, roll], Tl).transpose(2, 0, 3, 1, 4, 5, 6).reshape(4, 4, -1)
    R = rmatrix(lam / mu, params.q)
    # R contracts the row pairs of P12 and the column pairs of P21
    err = np.linalg.norm((R @ P12.reshape(4, -1)).reshape(P12.shape) - np.matmul(R.T, P21))
    # each block of T appears twice in its lift, so each lift has norm sqrt(2) |T|
    scale = 2.0 * frob(R) * frob(Tl) * frob(Tm)
    return err / scale


# ---------------------------------------------------------------------------
# Quantum determinant and the shift coefficients
# ---------------------------------------------------------------------------

def a_coeff(params: ModelParams, lam):
    """Coefficient function of the downward shift in the separated action."""
    lam = np.asarray(lam, dtype=complex)
    kap = np.asarray(params.kappa)
    xi = np.asarray(params.xi)
    sq = params.sqrt_q
    lam_n = lam[..., None] / xi
    fac = (kap * xi / lam[..., None]) * (1 + 1j * lam_n * kap / sq) * (1 + 1j * lam_n / (kap * sq))
    return (-1j) ** params.n_sites * np.prod(fac, axis=-1)


def d_coeff(params: ModelParams, lam):
    """Coefficient function of the upward shift; image of ``a_coeff`` under
    lam -> -q*lam up to the q^N phase."""
    lam = np.asarray(lam, dtype=complex)
    return params.q ** params.n_sites * a_coeff(params, -lam * params.q)


def abar_coeff(params: ModelParams, lam):
    """Right-representation gauge partner of ``a_coeff``."""
    return a_coeff(params, np.asarray(lam, dtype=complex) * params.q)


def dbar_coeff(params: ModelParams, lam):
    """Right-representation gauge partner of ``d_coeff``."""
    return d_coeff(params, np.asarray(lam, dtype=complex) / params.q)


def quantum_determinant(params: ModelParams, lam):
    """Central scalar a(lam) * d(lam/q); equals the operator combination
    A(lam) D(lam/q) - B(lam) C(lam/q)."""
    lam = np.asarray(lam, dtype=complex)
    return a_coeff(params, lam) * d_coeff(params, lam / params.q)


def quantum_determinant_product(params: ModelParams, lam):
    """Factorized form over the quantum-determinant zeros mu_{n,+-}.

    Equals ``quantum_determinant`` up to the overall sign (-1)^N; the
    operator identity fixes the sign carried by ``quantum_determinant``."""
    lam = np.asarray(lam, dtype=complex)
    kap = np.asarray(params.kappa)
    mp = params.mu_plus
    mm = params.mu_minus
    lamc = lam[..., None]
    fac = kap ** 2 * (lamc / mp - mp / lamc) * (lamc / mm - mm / lamc)
    return np.prod(fac, axis=-1)


# ---------------------------------------------------------------------------
# Average values
# ---------------------------------------------------------------------------

def laurent_product(factors):
    """Coefficients, degrees -N..N ascending, of the ordered product
    F_1 F_2 ... F_N of Laurent polynomials of degrees -1..1 with square
    matrix coefficients (scalars as 1 x 1 matrices): ``factors[n, g]`` is
    the coefficient of degree g - 1 of F_{n+1}, the leftmost factor first."""
    out = factors[0]
    for f in factors[1:]:
        nxt = np.zeros((len(out) + 2,) + out.shape[1:], dtype=complex)
        for g in range(3):
            nxt[g:g + len(out)] += out @ f[g]
        out = nxt
    return out


@lru_cache(maxsize=8)          # the chains in use; the Baxter fit asks once per state
def a_laurent(params: ModelParams):
    """Coefficients of ``a_coeff``, degrees -N..N ascending: the product of
    the site factors -i (kappa xi / lam) (1 + i lam kappa / (xi sqrt q))
    (1 + i lam / (kappa xi sqrt q)).  Those of ``d_coeff`` are
    q^N (-q)^k a_k.  Built once per parameter set and returned read-only."""
    kap, xi, sq = np.asarray(params.kappa), np.asarray(params.xi), params.sqrt_q
    fac = -1j * np.stack([kap * xi, 1j * (kap ** 2 + 1) / sq, -kap / (xi * sq ** 2)], axis=1)
    out = laurent_product(fac[..., None, None])[:, 0, 0]
    out.flags.writeable = False
    return out


@lru_cache(maxsize=8)          # the chains in use; each entry is (2N + 1, 2, 2)
def average_monodromy_laurent(params: ModelParams):
    """Laurent coefficients in Lambda = lam^p, degrees -N..N, of the
    averaged monodromy, shape (2N + 1, 2, 2): the ordered product, site N
    leftmost, of the p-fold averaged Lax matrices, whose coefficient of
    degree g - 1 at site n is ``lax[n - 1, g]``.  Built once per parameter
    set and returned read-only."""
    p = params.p
    kap, xi, u, v = (np.asarray(x) ** p for x in (params.kappa, params.xi, params.u, params.v))
    qp2, ip = params.sqrt_q ** p, 1j ** p
    lax = np.zeros((params.n_sites, 3, 2, 2), dtype=complex)
    lax[:, 1, 0, 0] = qp2 * u * (kap ** 2 * v + 1.0 / v)
    lax[:, 1, 1, 1] = qp2 / u * (kap ** 2 / v + v)
    lax[:, 2, 0, 1] = kap * v / (xi * ip)
    lax[:, 0, 0, 1] = -kap * xi / (v * ip)
    lax[:, 2, 1, 0] = kap / (v * xi * ip)
    lax[:, 0, 1, 0] = -kap * xi * v / ip
    out = laurent_product(lax[::-1])
    out.flags.writeable = False
    return out


def average_monodromy(params: ModelParams, big_lam):
    """2x2 scalar matrix of averages of the monodromy entries at Lambda."""
    powers = complex(big_lam) ** np.arange(-params.n_sites, params.n_sites + 1)
    return np.tensordot(powers, average_monodromy_laurent(params), axes=1)

CENTRAL_TOL = 1e-9  # relative deviation from a scalar of a central average


def average_value_dense(params: ModelParams, entry: str, lam, mono: Monodromy):
    """Oracle route: multiply the p operators O(q^k lam) on their charge
    blocks and reduce the (necessarily central) product to its scalar.
    Raises NotCentral if the product is not proportional to the identity."""
    op = mono.entry(entry)
    prod = reduce(operator.matmul, [op.at(params.q ** k * lam) for k in range(1, params.p + 1)])
    # p steps of one shift move no charge: the trace is that of the blocks
    scalar = np.trace(prod.blocks, axis1=-2, axis2=-1).sum() / params.dim
    dev = frob(prod - Graded.eye(prod.sectors) * scalar)
    if dev > CENTRAL_TOL * max(frob(prod), 1e-300):
        raise NotCentral(f"average of {entry} deviates from scalar*Id by {dev:.3e}")
    return complex(scalar), dev


def average_value(params: ModelParams, entry: str, big_lam):
    """Average value of a monodromy entry as a function of Lambda = lam^p,
    from the 2x2 product of averaged Lax matrices (``average_value_dense``
    is the dense p-fold operator product it is checked against)."""
    i, j = divmod("ABCD".index(entry), 2)
    return complex(average_monodromy(params, big_lam)[i, j])
