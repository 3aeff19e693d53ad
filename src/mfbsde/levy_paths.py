"""Driving-noise simulation: time grids, finite-activity jump measures,
seeded path ensembles and the exponential change of measure.

The jump part is a compound Poisson process described by a finite list of
atoms (mark, weight); every integral against the Levy measure downstream
becomes a weighted sum over atoms.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConfigError, DomainError

__all__ = [
    "TimeGrid",
    "LevyMeasure",
    "PathEnsemble",
    "build_grid",
    "simulate_ensemble",
    "girsanov_density",
    "shift_to_q",
]


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid 0 = t_0 < t_1 < ... < t_M = T with t_i = i * dt."""

    horizon: float
    steps: int

    @property
    def dt(self) -> float:
        return self.horizon / self.steps

    @property
    def nodes(self) -> np.ndarray:
        return np.arange(self.steps + 1) * self.dt


@dataclass(frozen=True)
class LevyMeasure:
    """Finite-activity jump measure given by atoms (mark, weight)."""

    marks: np.ndarray
    weights: np.ndarray

    @property
    def n_atoms(self) -> int:
        return self.marks.size

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum())

    @staticmethod
    def from_atoms(atoms) -> "LevyMeasure":
        """Build from an iterable of (mark, weight) pairs; may be empty."""
        atoms = list(atoms)
        marks = np.asarray([a[0] for a in atoms], dtype=float)
        weights = np.asarray([a[1] for a in atoms], dtype=float)
        if np.any(marks == 0.0):
            raise ConfigError("jump marks must be nonzero")
        if np.any(weights <= 0.0):
            raise ConfigError("jump weights must be positive")
        if len(set(marks.tolist())) != marks.size:
            raise ConfigError("jump marks must be distinct")
        if not np.all(np.isfinite(marks)) or not np.all(np.isfinite(weights)):
            raise ConfigError("jump atoms must be finite")
        return LevyMeasure(marks=marks, weights=weights)


def build_grid(horizon: float, steps: int) -> TimeGrid:
    """Uniform time grid on [0, horizon] with `steps` subintervals."""
    if not (horizon > 0.0) or not math.isfinite(horizon):
        raise ConfigError(f"horizon must be a positive real, got {horizon}")
    if int(steps) != steps or steps < 1:
        raise ConfigError(f"steps must be an integer >= 1, got {steps}")
    return TimeGrid(horizon=float(horizon), steps=int(steps))


def _atom_generators(seed: int, n_atoms: int):
    """Per-source generators derived from one seed.

    Stream 0 drives the Brownian increments, streams 1..J the per-atom
    Poisson counts.  Philox is counter-based, so regeneration is
    bit-identical for the same (seed, shape) regardless of how callers
    parallelise around this module.
    """
    root = np.random.SeedSequence(seed)
    children = root.spawn(n_atoms + 1)
    return [np.random.Generator(np.random.Philox(c)) for c in children]


@dataclass(frozen=True)
class PathEnsemble:
    """Seeded Monte Carlo ensemble of driving noise on a time grid.

    db[n, i] is the increment of B over [t_i, t_{i+1}]; jumps[n, i, j] the
    Poisson count of atom j on that interval, in the smallest unsigned
    type that holds the largest count.  `bm_drift` and `jump_comp` hold
    the per-step mean of db and the per-step jump compensator under the
    ensemble's own measure, so downstream schemes can form martingale
    increments without knowing which measure they are under.  Only the
    two node arrays below are derived from the draws and cached.
    """

    grid: TimeGrid
    levy: LevyMeasure
    n_paths: int
    seed: int
    db: np.ndarray          # (n, M)
    jumps: np.ndarray       # (n, M, J) integer counts
    measure: str = "P"
    bm_drift: np.ndarray = field(default=None)   # (M,)
    jump_comp: np.ndarray = field(default=None)  # (M, J)

    def __post_init__(self):
        m = self.grid.steps
        if self.bm_drift is None:
            object.__setattr__(self, "bm_drift", np.zeros(m))
        if self.jump_comp is None:
            comp = np.broadcast_to(
                self.levy.weights * self.grid.dt, (m, self.levy.n_atoms)
            ).copy()
            object.__setattr__(self, "jump_comp", comp)

    # -- path functionals (cached; ensembles are immutable).  Node-sliced
    # arrays are kept column-contiguous since solvers walk them by node.
    @cached_property
    def brownian_nodes(self) -> np.ndarray:
        """B(t_i) for i = 0..M, shape (n, M+1)."""
        out = np.zeros((self.n_paths, self.grid.steps + 1), order="F")
        np.cumsum(self.db, axis=1, out=out[:, 1:])
        return out

    @cached_property
    def compensated_jump_nodes(self) -> np.ndarray:
        """Running sums of the P-compensated increments N - w dt, shape
        (n, M+1, J).  This is the definitional compensated measure entering
        path functionals, independent of the sampling measure."""
        out = np.zeros((self.n_paths, self.grid.steps + 1, self.levy.n_atoms),
                       order="F")
        np.cumsum(self.jumps - self.levy.weights * self.grid.dt, axis=1,
                  out=out[:, 1:, :])
        return out


def _poisson_counts(gens, comp: np.ndarray, n_paths: int,
                    steps: int) -> np.ndarray:
    """Per-atom Poisson counts, shape (n, M, J): atom j is drawn from
    gens[j] with per-step mean comp[..., j] (a scalar or an (M,) column),
    stored in the smallest unsigned type that holds the largest count."""
    out = np.empty((n_paths, steps, len(gens)), dtype=np.uint8)
    for a, gen in enumerate(gens):
        d = gen.poisson(comp[..., a], size=(n_paths, steps))
        wide = np.promote_types(out.dtype, np.min_scalar_type(d.max()))
        out = out.astype(wide, copy=False)
        out[:, :, a] = d
    return out


def simulate_ensemble(
    grid: TimeGrid, levy: LevyMeasure, n_paths: int, seed: int
) -> PathEnsemble:
    """Draw Brownian increments N(0, dt) and per-atom Poisson counts with
    mean weight * dt, all from per-source counter-based streams."""
    if n_paths < 1:
        raise ConfigError(f"n_paths must be >= 1, got {n_paths}")
    m = grid.steps
    gens = _atom_generators(seed, levy.n_atoms)
    db = gens[0].standard_normal((n_paths, m)) * math.sqrt(grid.dt)
    jumps = _poisson_counts(gens[1:], levy.weights * grid.dt, n_paths, m)
    return PathEnsemble(
        grid=grid, levy=levy, n_paths=n_paths, seed=seed, db=db, jumps=jumps
    )


def _eval_nodes(fn, nodes) -> np.ndarray:
    """Evaluate a scalar-or-callable time coefficient on grid nodes."""
    if callable(fn):
        return np.asarray([float(fn(t)) for t in nodes])
    return np.full(len(nodes), float(fn))


def _eval_nodes_atoms(fn, nodes, marks) -> np.ndarray:
    """Evaluate a scalar-or-callable (t, mark) coefficient, shape (len(nodes), J)."""
    out = np.empty((len(nodes), len(marks)))
    if callable(fn):
        for a, z in enumerate(marks):
            out[:, a] = [float(fn(t, z)) for t in nodes]
    else:
        out[:] = float(fn)
    return out


def _check_jump_tilt(values: np.ndarray, nodes, marks, name: str) -> None:
    """Raise unless every jump coefficient on the (node, atom) grid
    exceeds -1, naming the first violating node and mark."""
    bad = np.argwhere(1.0 + values <= 0.0)
    if bad.size:
        i, a = bad[0]
        raise DomainError(
            f"{name} must exceed -1; violated at t={nodes[i]:g}, "
            f"mark={marks[a]:g}"
        )


def _log_exponential(ens: PathEnsemble, drift, vol, jump) -> np.ndarray:
    """Log of the stochastic exponential of (drift, vol, jump) on the
    grid, shape (n, M+1), zero at t_0.

    Each step adds
        (drift - vol^2/2) dt + vol dB
        + sum_j [log(1 + jump_j) dN_j - jump_j w_j dt],
    evaluated exactly on the grid increments; the jump term is the
    compensated log term plus the (log(1 + jump) - jump) w dt
    correction, collected over raw counts.  `drift` is (M,) or
    pathwise (n, M), `vol` is (M,) and `jump` is (M, J), all taken at
    left nodes; jump values must exceed -1.
    """
    grid, levy = ens.grid, ens.levy
    dt = grid.dt
    out = np.empty((ens.n_paths, grid.steps + 1))
    out[:, 0] = 0.0
    incr = out[:, 1:]
    np.multiply(vol, ens.db, out=incr)
    incr += (drift - 0.5 * vol**2) * dt
    if levy.n_atoms:
        incr += (np.log1p(jump) * ens.jumps - jump * levy.weights * dt
                 ).sum(axis=2)
    np.cumsum(incr, axis=1, out=incr)
    return out


def girsanov_density(ens: PathEnsemble, beta1, eta1) -> np.ndarray:
    """Density process M(t_i), shape (n, M+1), of the measure that
    removes drift beta1 from B and tilts atom intensities by (1 + eta1).

    M is the stochastic exponential of (0, beta1, eta1), so M > 0
    pathwise and E[M(t_i)] = 1 at every node.
    """
    grid, levy = ens.grid, ens.levy
    nodes = grid.nodes
    b1 = _eval_nodes(beta1, nodes)[:-1]
    e1 = _eval_nodes_atoms(eta1, nodes, levy.marks)
    _check_jump_tilt(e1, nodes, levy.marks, "eta1")
    logm = _log_exponential(ens, 0.0, b1, e1[:-1])
    return np.exp(logm, out=logm)


def shift_to_q(ens: PathEnsemble, beta1, eta1) -> PathEnsemble:
    """Resample the ensemble under the tilted measure.

    Brownian increments acquire mean beta1 * dt, atom j's counts are drawn
    with intensity (1 + eta1) * weight.  The same per-source streams are
    reused, so a zero tilt reproduces the input bit for bit.  The returned
    ensemble carries its own drift/compensator so martingale increments
    stay correct downstream.
    """
    if ens.measure != "P":
        raise ConfigError("shift_to_q expects a P-measure ensemble")
    grid, levy = ens.grid, ens.levy
    nodes = grid.nodes
    b1 = _eval_nodes(beta1, nodes)[:-1]
    e1 = _eval_nodes_atoms(eta1, nodes, levy.marks)
    _check_jump_tilt(e1, nodes, levy.marks, "eta1")
    e1 = e1[:-1]

    drift = b1 * grid.dt
    db_q = ens.db + drift
    comp_q = (1.0 + e1) * levy.weights * grid.dt
    gens = _atom_generators(ens.seed, levy.n_atoms)
    jumps_q = _poisson_counts(gens[1:], comp_q, ens.n_paths, grid.steps)
    return PathEnsemble(
        grid=grid,
        levy=levy,
        n_paths=ens.n_paths,
        seed=ens.seed,
        db=db_q,
        jumps=jumps_q,
        measure="Q",
        bm_drift=drift,
        jump_comp=comp_q,
    )
