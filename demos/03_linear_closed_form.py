"""Closed-form pipeline for a fully coupled linear mean-field equation,
cross-validated against the Picard solver on the same ensemble.

The linear equation's means solve a Volterra system V = F + AV whose
kernel is built from the deterministic mean of the exponential
propagator; the system is solved both by a windowed Neumann series and
by a dense factorisation.  Y(0) is the system's E[Y] at t = 0, the
closed formula with the propagator's exact mean in place of its sample
mean, so it needs no second pass over the paths.
"""
import math

import numpy as np

from mfbsde import (
    LevyMeasure,
    LinearCoefficients,
    RegressionBasis,
    build_grid,
    mean_yzk,
    picard_full_freeze,
    simulate_ensemble,
    simulate_gamma,
    smooth_of_brownian,
)
from mfbsde.linear import (
    assemble_system,
    direct_solve,
    mean_gamma,
    neumann_solve,
    operator_norm_estimate,
    y_closed_formula,
)

grid = build_grid(1.0, 100)
levy = LevyMeasure.from_atoms([(1.0, 0.5)])
ens = simulate_ensemble(grid, levy, n_paths=50_000, seed=11)

coeffs = LinearCoefficients(
    alpha1=0.12, alpha2=0.18, beta1=0.3, beta2=0.12, eta1=0.25,
    eta2=0.15, gamma=0.1, terminal=smooth_of_brownian([1.0, 0.5, 0.2]),
)

gamma = simulate_gamma(coeffs, ens)
gt = gamma.factor(0, grid.steps)
print(f"propagator: simulated mean over [0,1] = {gt.mean():.4f}, "
      f"analytic exp(int a1) = "
      f"{mean_gamma(coeffs, grid, 0.0, 1.0):.4f}")
flow = gamma.factor(10, 60) - gamma.factor(10, 30) * gamma.factor(30, 60)
print(f"flow property holds to {np.abs(flow).max():.1e}")

system = assemble_system(coeffs, coeffs.terminal, ens, gamma=gamma)
print(f"\nkernel norm on [0, 1]: "
      f"{operator_norm_estimate(system, (0.0, 1.0)):.4f}")

v_neumann = neumann_solve(system)
v_direct = direct_solve(system)
gap = np.abs(v_neumann.stack() - v_direct.stack()).max()
print(f"Neumann vs dense solve: max componentwise gap {gap:.1e}")

y0, se, _ = y_closed_formula(coeffs, coeffs.terminal, ens, v_neumann,
                             gamma=gamma)
print(f"\nclosed form (mean system V1(0)): Y(0) = {y0:.5f} +/- {se:.5f} "
      f"(SE of F1's node-0 sample)")

driver = coeffs.as_driver(grid, levy)
sol, rep = picard_full_freeze(driver, mean_yzk(levy.n_atoms),
                              coeffs.terminal, ens,
                              RegressionBasis(degree=2))
y0p = sol.y[:, 0].mean()
sep = sol.y[:, 1].std(ddof=1) / math.sqrt(ens.n_paths)
print(f"Picard solver:                    Y(0) = {y0p:.5f} +/- {sep:.5f} "
      f"({rep.iterations} iterations)")
print(f"cross-solver gap {abs(y0 - y0p):.5f} vs 3 combined se "
      f"{3 * math.hypot(se, sep):.5f}")
