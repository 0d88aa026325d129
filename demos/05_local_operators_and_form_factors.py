# Reconstruct local Weyl generators from the monodromy, then evaluate their
# matrix elements between transfer eigenstates by determinant formulas and
# compare against brute-force contractions.
import numpy as np

from sgsov import (ModelParams, prepare, site_embed, weyl_generators,
                   reconstruct_u, reconstruct_v2k, ff_u, ff_elementary,
                   npoint, ElementaryBasisElement)
from sgsov.model_core import rel_err

params = ModelParams(3, 3, 2, kappa=[1.1j, 1.3j, 0.7j], xi=[1.0, 1.2, 0.9])
sol = prepare(params, seed=5)
mono, basis = sol.mono, sol.basis

print("inverse problem: reconstructed local operators vs embedded generators")
for n in (1, 2, 3):
    U, V = weyl_generators(params.p, params.u[n - 1], params.v[n - 1], params.p_prime)
    err_u = rel_err(reconstruct_u(params, n), site_embed(params, n, U))
    err_v = rel_err(reconstruct_v2k(params, n, 1),
                    site_embed(params, n, np.diag(np.diag(V) ** 2)))
    print(f"  site {n}: shift generator {err_u:.1e}   clock squared {err_v:.1e}")

# dense covectors and vectors of the eigenstates, for the comparisons
states, covs, vecs = sol.states, sol.covs, sol.vecs

u1 = site_embed(params, 1, weyl_generators(params.p)[0])
print("\nform factors of the first-site shift generator (determinant vs dense):")
worst = 0.0
for i in range(27):
    for j in range(27):
        det = ff_u(params, basis, states[i], states[j], 1).value
        dense = covs[i] @ u1 @ vecs[j]
        scale = max(abs(dense), np.linalg.norm(covs[i]) * np.linalg.norm(vecs[j]) / 5)
        worst = max(worst, abs(det - dense) / scale)
print(f"  all {27 * 27} pairs agree; worst relative deviation = {worst:.2e}")

elem = ElementaryBasisElement(((0, 1, 1), (1, 2, 1)))
dense_op = elem.to_dense(params, basis, mono)
det = ff_elementary(params, basis, states[3], states[11], elem).value
dense = covs[3] @ dense_op @ vecs[11]
print(f"\ntwo-variable elementary monomial between states 3 and 11:")
print(f"  determinant {det:+.6e}   dense {dense:+.6e}")

val = npoint(sol, 0, [u1, u1])
dense = (covs[0] @ u1 @ u1 @ vecs[0]) / sol.norms[0]
print(f"\ntwo-point function via the eigenbasis expansion:")
print(f"  expansion {val:+.6e}   dense {dense:+.6e}   "
      f"rel.diff {abs(val - dense) / abs(dense):.1e}")
