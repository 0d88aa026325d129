"""Representation data for the lattice sine-Gordon chain at a root of unity.

A chain of N sites carries one p-dimensional cyclic Weyl pair per site.  The
deformation parameter q = exp(-i*pi*p'/p) is a primitive p-th root of unity
for odd p and even p', which makes the p-th powers of the generators central
and the whole state space p^N dimensional.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = ["ModelParams", "SgSovError", "DegenerateKappa", "OddChain"]


SAMPLE_MODULUS = (0.5, 2.0)  # modulus range of ``ModelParams.spectral_samples``


class SgSovError(Exception):
    """Base class for numerical / structural failures of the toolkit."""


class OddChain(SgSovError):
    """Raised when an even-chain-only quantity is requested on an odd chain."""


class DegenerateKappa(SgSovError):
    """Raised when kappa**4 == 1 makes a reconstruction denominator vanish."""


def _as_complex_tuple(values, n, name):
    arr = np.asarray(values, dtype=complex).reshape(-1)
    if arr.size != n:
        raise ValueError(f"{name} must have length {n}, got {arr.size}")
    return tuple(arr.tolist())


@dataclass(frozen=True)
class ModelParams:
    """Immutable site parameters plus the derived constants of the model.

    ``kappa`` and ``xi`` are the per-site coupling and inhomogeneity
    parameters; ``u`` and ``v`` are the unit-modulus central parameters of the
    cyclic Weyl representation (both default to 1 at every site).
    """

    n_sites: int
    p: int
    p_prime: int = 2
    kappa: tuple = ()
    xi: tuple = ()
    u: tuple = field(default=None)
    v: tuple = field(default=None)

    def __post_init__(self):
        if self.p < 3 or self.p % 2 == 0:
            raise ValueError(f"p must be an odd integer >= 3, got {self.p}")
        if self.p_prime <= 0 or self.p_prime % 2 != 0:
            raise ValueError(f"p' must be a positive even integer, got {self.p_prime}")
        if self.n_sites < 1:
            raise ValueError(f"chain length must be >= 1, got {self.n_sites}")
        n = self.n_sites
        object.__setattr__(self, "kappa", _as_complex_tuple(self.kappa, n, "kappa"))
        object.__setattr__(self, "xi", _as_complex_tuple(self.xi, n, "xi"))
        u = self.u if self.u is not None else np.ones(n)
        v = self.v if self.v is not None else np.ones(n)
        object.__setattr__(self, "u", _as_complex_tuple(u, n, "u"))
        object.__setattr__(self, "v", _as_complex_tuple(v, n, "v"))
        for name in ("u", "v"):
            vals = np.asarray(getattr(self, name))
            if np.max(np.abs(np.abs(vals) - 1.0)) > 1e-12:
                raise ValueError(f"{name} parameters must be unit modulus")
        if np.min(np.abs(np.asarray(self.kappa))) == 0 or np.min(np.abs(np.asarray(self.xi))) == 0:
            raise ValueError("kappa and xi must be nonzero")
        # q must be a primitive p-th root of unity.
        q = self.q
        powers = q ** np.arange(1, self.p)
        if abs(q ** self.p - 1.0) > 1e-12 or np.min(np.abs(powers - 1.0)) < 1e-12:
            raise ValueError("q = exp(-i*pi*p'/p) is not a primitive p-th root of unity "
                             f"for p={self.p}, p'={self.p_prime}")

    # -- derived constants -------------------------------------------------

    @cached_property
    def q(self) -> complex:
        return complex(np.exp(-1j * np.pi * self.p_prime / self.p))

    @cached_property
    def sqrt_q(self) -> complex:
        return complex(np.exp(-1j * np.pi * self.p_prime / (2 * self.p)))

    @property
    def dim(self) -> int:
        return self.p ** self.n_sites

    @cached_property
    def even_chain(self) -> bool:
        return self.n_sites % 2 == 0

    @property
    def e_n(self) -> int:
        """1 for an even chain, 0 for an odd one."""
        return 1 if self.even_chain else 0

    @property
    def n_separate(self) -> int:
        """Number of separate variables: N for odd chains, N-1 for even ones."""
        return self.n_sites - self.e_n

    @property
    def n_bar(self) -> int:
        """Leading even power of the transfer matrix in the spectral parameter."""
        return self.n_sites + self.e_n - 1

    @cached_property
    def mu_plus(self) -> np.ndarray:
        return 1j * np.asarray(self.kappa) * self.sqrt_q * np.asarray(self.xi)

    @cached_property
    def mu_minus(self) -> np.ndarray:
        return 1j * self.sqrt_q * np.asarray(self.xi) / np.asarray(self.kappa)

    @cached_property
    def kprod(self) -> complex:
        """Product of kappa_n / i over the chain; leading scale of the B family."""
        return complex(np.prod(np.asarray(self.kappa) / 1j))

    @cached_property
    def xi_prod(self) -> complex:
        return complex(np.prod(np.asarray(self.xi)))

    # -- label encoding ----------------------------------------------------

    @cached_property
    def tuples(self) -> np.ndarray:
        """Read-only (p^N, N) table of the digit tuples h in Z_p^N in linear
        order, site 1 fastest.  The SOV labels and the computational basis
        (digit a of a basis index is the clock state of site a + 1) share it."""
        out = np.arange(self.dim)[:, None] // self.p ** np.arange(self.n_sites) % self.p
        out.flags.writeable = False
        return out

    def flat_indices(self, h):
        """Linear indices of digit tuples along the last axis of ``h``,
        entries taken mod p; the inverse of ``tuples``."""
        return (np.asarray(h) % self.p) @ self.p ** np.arange(self.n_sites)

    def shifted_indices(self, delta):
        """(p^N, N) table whose entry [j, a] is the index of tuple j with
        digit a moved by ``delta``."""
        return self.flat_indices(self.tuples[:, None] + delta * np.eye(self.n_sites, dtype=int))

    # -- self-adjoint family ----------------------------------------------

    @cached_property
    def hermitian_eps(self):
        """Phase epsilon of the conjugation rule, or None outside the
        self-adjoint parameter family (kappa^2, xi^2 real, uniform epsilon)."""
        kap = np.asarray(self.kappa)
        xi = np.asarray(self.xi)
        if np.max(np.abs(np.imag(kap ** 2))) > 1e-12 * np.max(np.abs(kap) ** 2):
            return None
        if np.max(np.abs(np.imag(xi ** 2))) > 1e-12 * np.max(np.abs(xi) ** 2):
            return None
        eps = -(kap * xi) / (np.conj(kap) * np.conj(xi))
        if np.max(np.abs(eps - eps[0])) > 1e-12:
            return None
        return complex(eps[0])

    @property
    def self_adjoint(self) -> bool:
        return self.hermitian_eps is not None

    @property
    def homogeneous(self) -> bool:
        """Every site carries the same kappa and the same xi."""
        kap, xi = np.asarray(self.kappa), np.asarray(self.xi)
        return bool(np.max(np.abs(kap - kap[0])) <= 1e-12
                    and np.max(np.abs(xi - xi[0])) <= 1e-12)

    # -- sampling ----------------------------------------------------------

    def spectral_samples(self, rng, count, exclude=(), min_dist=1e-3):
        """Draw generic spectral points: modulus in ``SAMPLE_MODULUS``, uniform
        argument, rejecting points within ``min_dist`` of any excluded value
        (quantum-determinant zeros are always excluded).

        Each round draws the missing points as (modulus, argument) pairs in
        one call; the draws, the accepted points and the generator state
        afterwards equal those of a loop that draws one pair per attempt."""
        excl = np.concatenate([np.asarray(self.mu_plus), np.asarray(self.mu_minus),
                               np.asarray(exclude, dtype=complex).reshape(-1)])
        out = []
        attempts, limit = 0, 1000 * max(count, 1)
        while len(out) < count:
            if attempts == limit:
                raise SgSovError("spectral sampling failed: exclusion set too dense")
            need = min(count - len(out), limit - attempts)
            attempts += need
            r, phi = rng.uniform([SAMPLE_MODULUS[0], 0.0], [SAMPLE_MODULUS[1], 2.0 * np.pi],
                                 size=(need, 2)).T
            lam = r * np.exp(1j * phi)
            far = np.min(np.abs(excl[None, :] - lam[:, None]), axis=1) >= min_dist
            out.extend(complex(x) for x in lam[far])
        return out
