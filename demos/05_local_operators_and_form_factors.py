# Reconstruct local Weyl generators from the monodromy, then evaluate their
# matrix elements between transfer eigenstates by determinant formulas and
# compare against brute-force contractions.
import numpy as np

from sgsov import (ModelParams, prepare, embedded_u, reconstruct_u,
                   reconstruct_v2k, ff_u_table, ff_elementary_table, npoint,
                   ElementaryBasisElement)
from sgsov.local_ops import v_power_target
from sgsov.model_core import rel_err

params = ModelParams(3, 3, 2, kappa=[1.1j, 1.3j, 0.7j], xi=[1.0, 1.2, 0.9])
sol = prepare(params, seed=5)

print("inverse problem: reconstructed local operators vs embedded generators")
for n in (1, 2, 3):
    frame = sol.frame(n)   # the site-n reordered monodromy and its solves
    err_u = rel_err(reconstruct_u(frame), embedded_u(params, n))
    err_v = rel_err(reconstruct_v2k(frame, 1), v_power_target(params, n, 1))
    print(f"  site {n}: shift generator {err_u:.1e}   clock squared {err_v:.1e}")

# dense covectors and vectors of the eigenstates, for the comparisons
covs, vecs = sol.covs, sol.vecs

u1 = embedded_u(params, 1)
print("\nform factors of the first-site shift generator (determinant vs dense):")
dets = ff_u_table(sol.grid, sol.states, 1)[0]    # every pair, one batched table
worst = 0.0
for i in range(27):
    for j in range(27):
        det = dets[i, j]
        dense = covs[i] @ u1 @ vecs[j]
        scale = max(abs(dense), np.linalg.norm(covs[i]) * np.linalg.norm(vecs[j]) / 5)
        worst = max(worst, abs(det - dense) / scale)
print(f"  all {27 * 27} pairs agree; worst relative deviation = {worst:.2e}")

elem = ElementaryBasisElement(((0, 1, 1), (1, 2, 1)))
dense_op = elem.to_dense(params, sol.charge_ops, sol.elementary_ops)
det = ff_elementary_table(sol.grid, sol.states, elem, [3], [11])[0][0, 0]
dense = covs[3] @ dense_op @ vecs[11]
print(f"\ntwo-variable elementary monomial between states 3 and 11:")
print(f"  determinant {det:+.6e}   dense {dense:+.6e}")

u1_table = covs @ u1 @ vecs.T   # <t_i| u1 |t_j> between all eigenstates
val = npoint(sol, 0, [u1_table, u1_table])
dense = (covs[0] @ u1 @ u1 @ vecs[0]) / sol.norms[0]
print(f"\ntwo-point function via the eigenbasis expansion:")
print(f"  expansion {val:+.6e}   dense {dense:+.6e}   "
      f"rel.diff {abs(val - dense) / abs(dense):.1e}")
