"""Driving noise and the exponential change of measure.

Simulates a seeded ensemble of Brownian increments and compound-Poisson
jump counts, evaluates the Girsanov density, and shows the two equivalent
ways of sampling under the tilted measure: weighting P-paths by M(T), or
shifting the simulation itself.
"""
import numpy as np

from mfbsde import (
    LevyMeasure,
    build_grid,
    girsanov_density,
    shift_to_q,
    simulate_ensemble,
)

grid = build_grid(horizon=1.0, steps=100)
levy = LevyMeasure.from_atoms([(1.0, 2.0), (-0.5, 0.7)])
ens = simulate_ensemble(grid, levy, n_paths=100_000, seed=42)

print(f"grid: T={grid.horizon}, M={grid.steps}, dt={grid.dt}")
print(f"jump measure: {levy.n_atoms} atoms, total mass {levy.total_mass}")

db = ens.db.ravel()
print(f"\nBrownian increments: mean {db.mean():+.2e} (target 0), "
      f"variance {np.var(db):.5f} (target {grid.dt})")
counts = ens.jumps[:, :, 0]
print(f"atom (1.0, w=2.0) counts per step: mean {counts.mean():.5f} "
      f"(target {2.0 * grid.dt})")

# density of the tilted measure: drift 0.3 on B, intensity factor 1.5
beta1, eta1 = 0.3, 0.5
dens = girsanov_density(ens, beta1, eta1)
mt = dens[:, -1]
print(f"\ndensity at T: mean {mt.mean():.4f} "
      f"(martingale target 1, se {mt.std() / np.sqrt(mt.size):.4f})")

ens_q = shift_to_q(ens, beta1, eta1)
print(f"shifted ensemble: db mean {ens_q.db.mean():.5f} "
      f"(target {beta1 * grid.dt}), atom-0 counts "
      f"{ens_q.jumps[:, :, 0].mean():.5f} "
      f"(target {(1 + eta1) * 2.0 * grid.dt})")

# weighting vs shifting: both estimate the tilted mean of any statistic
phi_p = ens.db.sum(axis=1) ** 2          # B(T)^2 on P paths
phi_q = ens_q.db.sum(axis=1) ** 2        # same functional on Q paths
weighted = (phi_p * mt).mean()
shifted = phi_q.mean()
print(f"\nE_Q[B(T)^2]: weighted-P {weighted:.4f}, shifted-Q {shifted:.4f}")
