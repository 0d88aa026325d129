# Diagonalize the transfer family, verify each eigenvalue through the p x p
# functional determinant, and recover the Baxter polynomial two independent
# ways: from the separated wavefunction and from the difference equation.
import numpy as np

from sgsov import ModelParams, prepare, check_functional_equation
from sgsov.spectrum import extract_Q_grids, polyval_ascending

params = ModelParams(2, 3, 2, kappa=[1.1j, 0.8j], xi=[1.0, 1.3])
# the spectrum arrives as stacked rows, one per joint eigenstate, with the
# fitted polynomials of fit_Q_polynomials; the wavefunction ratios come from
# the right eigenvectors (the columns of spec.R) and the dense SOV basis
sol = prepare(params, seed=5)
spec = sol.states
_, q_grid, anchors, _, _ = extract_Q_grids(spec.R.T, spec.theta_m, sol.basis)

print(f"{len(spec)} joint eigenstates of the transfer family and the charge\n")
print("idx  sector   eigenvalue coefficients (degree: value)        "
      "funcEq     Baxter-fit deg")
degrees = range(-params.n_bar, params.n_bar + 1, 2)    # the columns of spec.t_rows
for i, (t, m, q_poly) in enumerate(zip(spec.t_rows, spec.theta_m, spec.q_poly)):
    fe = check_functional_equation(params, t, np.random.default_rng(3))
    coeffs = "  ".join(f"{dg}: {c.real:+.4f}" for dg, c in zip(degrees, t))
    deg = np.flatnonzero(q_poly)[-1]
    print(f"{i:3d}    q^{m}   {coeffs}   {fe:.1e}   {deg}")

t, q_poly = spec.t_rows[4], spec.q_poly[4]
print(f"\nstate 4: the fitted polynomial against the wavefunction ratios")
anchor, ratios = anchors[4], q_grid[4]
for a in range(params.n_separate):
    pv = polyval_ascending(q_poly, sol.grid.grid[a])
    rp = pv / pv[anchor[a]]
    rg = ratios[a] / ratios[a][anchor[a]]
    print(f"  variable {a + 1}: worst rel. diff across the grid = "
          f"{np.max(np.abs(rp - rg)):.2e}")

pert = t + 0.1 * np.eye(len(t))[0]    # the lowest degree
print(f"\nperturbing one eigenvalue coefficient by 0.1:")
print(f"  functional-equation residual jumps to "
      f"{check_functional_equation(params, pert, np.random.default_rng(3)):.2e}")
