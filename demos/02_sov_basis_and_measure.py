# Construct the separated eigenbasis of the B family: operator zeros, the
# per-variable root grids, the calibrated left/right bases, the diagonal
# measure, and the resolution of the identity.
import numpy as np

from sgsov import ModelParams, monodromy, b_zeros, build_sov_basis
from sgsov.sov_basis import mjj_formula, sov_diagonal
from sgsov.model_core import frob

params = ModelParams(3, 3, 2, kappa=[1.1j, 1.3j, 0.7j], xi=[1.0, 1.2, 0.9])
mono = monodromy(params)

grid = b_zeros(params)
print("operator zeros of the averaged B entry and chosen p-th roots:")
for a in range(params.n_sites):
    print(f"  variable {a + 1}: Z = {grid.z[a]:.6f}   root = {grid.eta0[a]:.6f}"
          f"   root^2 = {grid.eta0[a] ** 2:.6f}")

basis = build_sov_basis(params, mono, np.random.default_rng(5), grid)

G = basis.left @ basis.right
off = G - np.diag(np.diag(G))
print(f"\nbiorthogonality: worst off-diagonal pairing = "
      f"{np.max(np.abs(off)) / np.max(np.abs(np.diag(G))):.2e}")

mf = mjj_formula(basis)
print(f"diagonal pairings vs closed form: worst rel. diff = "
      f"{np.max(np.abs(basis.mjj - mf) / np.abs(mf)):.2e}")

print("\nsample measure weights (complex, not a probability measure):")
for j in (0, 5, 13, 26):
    tup = "".join(map(str, params.tuples[j]))
    print(f"  labels {tup}: weight = {basis.measure[j]:.6f}")

ident = sov_diagonal(basis)   # sum_j |j><j| / <j|j>
print(f"\nresolution of the identity: |sum - 1| = "
      f"{frob(ident - np.eye(params.dim)):.2e}")
