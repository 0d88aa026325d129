# Build a three-site chain and confirm the exchange algebra numerically:
# the quadratic relation with the six-vertex R-matrix, the central quantum
# determinant, and the p-fold averages computed along two independent routes.
import numpy as np

from sgsov import (ModelParams, monodromy, yang_baxter_residual, transfer,
                   quantum_determinant, average_value, average_value_dense,
                   theta_charge)
from sgsov.model_core import frob

params = ModelParams(3, 3, 2, kappa=[1.1j, 1.3j, 0.7j], xi=[1.0, 1.2, 0.9])
mono = monodromy(params)
rng = np.random.default_rng(7)

print(f"chain: N={params.n_sites}, p={params.p}, state space {params.dim}-dimensional")
print(f"q = {params.q:.6f}, primitive {params.p}-th root of unity")

print("\nexchange relation at random spectral points:")
for _ in range(3):
    lam, mu = params.spectral_samples(rng, 2)
    print(f"  (lam, mu) = ({lam:.3f}, {mu:.3f})"
          f"  residual = {yang_baxter_residual(params, lam, mu, mono):.2e}")

lam = params.spectral_samples(rng, 1)[0]
AD = mono.A.evaluate(lam) @ mono.D.evaluate(lam / params.q) \
    - mono.B.evaluate(lam) @ mono.C.evaluate(lam / params.q)
qd = quantum_determinant(params, lam)
print(f"\nquantum determinant at lam = {lam:.3f}:")
print(f"  scalar value          {qd:.6f}")
print(f"  operator identity dev {frob(AD - qd * np.eye(params.dim)) / frob(AD):.2e}")

l1, l2 = params.spectral_samples(rng, 2)
T1, T2 = transfer(mono, l1), transfer(mono, l2)
print(f"\ncommuting transfer family: |[T(l1), T(l2)]| / scale = "
      f"{frob(T1 @ T2 - T2 @ T1) / (frob(T1) * frob(T2)):.2e}")

print("\naverage values (dense p-fold product vs 2x2 averaged factors):")
big = 1.4 - 0.3j
for entry in "ABCD":
    dense, dev = average_value_dense(params, entry, big ** (1 / 3), mono)
    closed = average_value(params, entry, big)
    print(f"  {entry}: dense {dense:.6f}  closed {closed:.6f}"
          f"  rel.diff {abs(dense - closed) / abs(dense):.1e}  centrality {dev:.1e}")

even = ModelParams(2, 3, 2, kappa=[1.1j, 0.8j], xi=[1.0, 1.3])
mono_even = monodromy(even)
theta = theta_charge(even)
lam = 0.8 + 0.5j
B = mono_even.B.evaluate(lam)
print("\neven chain grading charge:")
print(f"  B Theta = q Theta B up to {frob(B @ theta - even.q * theta @ B) / (frob(B) * frob(theta)):.2e}")
print(f"  Theta^p = 1 up to        {frob(np.linalg.matrix_power(theta, 3) - np.eye(9)):.2e}")
