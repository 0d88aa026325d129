# Pair random separate states through the single-determinant formula and
# check it against dense covector-vector contractions; then show eigenstate
# orthogonality and the eigenbasis resolution of the identity.
import numpy as np

from sgsov import (ModelParams, prepare, SeparateState, materialize,
                   scalar_product_det, eigen_action_table, identity_resolution_T)
from sgsov.model_core import frob

params = ModelParams(3, 3, 2, kappa=[1.1j, 1.3j, 0.7j], xi=[1.0, 1.2, 0.9])
sol = prepare(params, seed=5)
basis = sol.basis
rng = np.random.default_rng(40)

print("random separate states: determinant vs dense contraction")
nsep = params.n_separate
for trial in range(5):
    al = rng.standard_normal((nsep, 3)) + 1j * rng.standard_normal((nsep, 3))
    be = rng.standard_normal((nsep, 3)) + 1j * rng.standard_normal((nsep, 3))
    left = SeparateState("left", al)
    right = SeparateState("right", be)
    det = scalar_product_det(left, right, sol.grid)
    dense = materialize(left, basis) @ materialize(right, basis)
    print(f"  pair {trial}: det = {det:+.6f}   dense = {dense:+.6f}"
          f"   rel.diff = {abs(det - dense) / abs(det):.1e}")

print("\neigenstate pairings <t|t'> (moment-matrix determinants), first five states:")
first = np.arange(5)
pairings, _ = eigen_action_table(sol.grid, sol.states, first, first)
for row in np.abs(pairings):
    print("  " + "  ".join(f"{x:9.2e}" for x in row))
print("  (off-diagonal entries vanish: distinct eigenvalues are orthogonal)")

ident = identity_resolution_T(sol)
print(f"\neigenbasis resolution of the identity: |sum - 1| = "
      f"{frob(ident - np.eye(params.dim)):.2e}")
