"""Driving-noise simulation: time grids, finite-activity jump measures,
seeded path ensembles and the exponential change of measure.

The jump part is a compound Poisson process described by a finite list of
atoms (mark, weight); every integral against the Levy measure downstream
becomes a weighted sum over atoms.

Work that reads the noise a row block at a time, node-major (the
stochastic exponent and the closed-form passes), runs on the threads of
the draw in chunks whose size `_pass_rows` sets from the node count.
"""
from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, field, replace
from typing import Optional

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


@dataclass(frozen=True)
class PathEnsemble:
    """Seeded Monte Carlo ensemble of driving noise on a time grid.

    Each noise source is stored once, as its levels on the grid nodes:
    brownian_nodes[n, i] = B(t_i) and count_nodes[n, i, j] = N_j(t_i), the
    number of jumps of atom j up to t_i, in the smallest unsigned type that
    holds the largest N_j(T).  Both are node-major (column-contiguous),
    since solvers walk them by node, and every increment over
    [t_i, t_{i+1}] is a difference of neighbouring node columns
    (`increments`).  `bm_drift` and `jump_comp` hold the per-step mean of
    dB and the per-step jump compensator under the ensemble's own
    measure, so downstream schemes can form martingale increments without
    knowing which measure they are under.
    """

    grid: TimeGrid
    levy: LevyMeasure
    n_paths: int
    seed: int
    brownian_nodes: np.ndarray   # (n, M+1), B(t_0) = 0
    count_nodes: np.ndarray      # (n, M+1, J) unsigned, N(t_0) = 0
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

    def increments(self, i: int, out: Optional[np.ndarray] = None
                   ) -> np.ndarray:
        """Raw increments over [t_i, t_{i+1}], shape (n, 1+J): dB, then
        the counts dN_j, as float differences of the node columns (counts
        are differenced forward, so the unsigned subtraction cannot wrap).
        """
        if out is None:
            out = np.empty((self.n_paths, 1 + self.levy.n_atoms), order="F")
        b, c = self.brownian_nodes, self.count_nodes
        np.subtract(b[:, i + 1], b[:, i], out=out[:, 0])
        np.subtract(c[:, i + 1], c[:, i], out=out[:, 1:])
        return out


# Paths per noise block.  Block b of source s (0 the Brownian motion,
# 1 + j atom j) is drawn from its own counter-based Philox stream, keyed
# by (seed, s, b), so this value is part of what the noise is: changing
# it changes every seeded number.  Since each block is its own stream,
# the blocks can be drawn in any order and on any number of threads with
# the same result, and one block's (M, 256) draw stays in cache.
_BLOCK_ROWS = 256


# Largest number of paths per chunk of the work that reads the noise a
# row block at a time, node-major: the stochastic exponent and the
# closed-form passes.  `_pass_rows` sizes the chunk from the node count.
_PASS_ROWS = 4 * _BLOCK_ROWS


def _pass_rows(nodes: int) -> int:
    """Paths per chunk for planes of `nodes` values per path: at most
    _PASS_ROWS, and at most the _PASS_ROWS x 101 values of a 101-node
    plane, rounded down to a multiple of 64 (64 at least).  That is
    1,024 rows up to 101 nodes, 256 at 401 and 128 at 801, so that one
    chunk's planes stay in cache and a worker's scratch is O(M), not
    O(M x 1,024).  The chunk depends on the grid only, never on the
    worker count."""
    return min(_PASS_ROWS, max(64, _PASS_ROWS * 101 // nodes // 64 * 64))


def _block_generator(seed: int, source: int, block: int):
    """The stream of one path block of one noise source: the grandchild
    (source, block) of the seed's SeedSequence."""
    return np.random.Generator(np.random.Philox(
        np.random.SeedSequence(seed, spawn_key=(source, block))))


def _block_rows(n_paths: int, block: int) -> slice:
    lo = block * _BLOCK_ROWS
    return slice(lo, min(lo + _BLOCK_ROWS, n_paths))


def _n_blocks(n_paths: int) -> int:
    return -(-n_paths // _BLOCK_ROWS)


def _worker_count() -> int:
    """Number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def _for_each_block(draw, n_blocks: int, buffer_size: int) -> None:
    """Call draw(b, buf) for every block b, spread over one thread per
    usable CPU; numpy's generators and ufuncs release the GIL.

    Worker w takes the blocks w, w + workers, ... with its own scratch
    buffer of `buffer_size` doubles, allocated here; worker 0 is the
    calling thread.  A block writes only its own rows, so the result
    does not depend on the number of workers.  The threads live for one
    call, so nothing is left running across a fork.  Every thread is
    joined before the first exception raised by a block is raised again
    here.
    """
    workers = min(_worker_count(), n_blocks)
    buffers = [np.empty(buffer_size) for _ in range(workers)]
    errors = []

    def run(w: int) -> None:
        try:
            for b in range(w, n_blocks, workers):
                draw(b, buffers[w])
        except BaseException as exc:  # raised again below
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(w,))
               for w in range(1, workers)]
    for t in threads:
        t.start()
    run(0)
    for t in threads:
        t.join()
    if errors:
        raise errors[0]


def _over_row_blocks(rows: range, shape: tuple, work) -> None:
    """Call work(b, part, scratch) for runs `part` of at most
    _pass_rows(shape[-1]) consecutive rows of the b-th _PASS_ROWS-row
    slot, on the block workers: a worker takes whole slots and runs each
    slot's parts in row order.  scratch is a node-major (*shape, k) view
    of the worker's buffer for a run of k rows."""
    size, step = math.prod(shape), _pass_rows(shape[-1])

    def run(b: int, buf: np.ndarray) -> None:
        lo = rows.start + b * _PASS_ROWS
        hi = min(lo + _PASS_ROWS, rows.stop)
        for start in range(lo, hi, step):
            part = slice(start, min(start + step, hi))
            k = part.stop - part.start
            work(b, part, buf[:size * k].reshape(*shape, k))

    _for_each_block(run, -(-len(rows) // _PASS_ROWS),
                    size * min(len(rows), step))


def _cumulate_nodes(levels: np.ndarray) -> None:
    """Running sum, in place, down the first (node) axis of node-major
    levels: one contiguous add per node, in node order."""
    for i in range(1, levels.shape[0]):
        np.add(levels[i], levels[i - 1], out=levels[i])


def _brownian_nodes(seed: int, grid: TimeGrid, n_paths: int) -> np.ndarray:
    """B(t_i), shape (n, M+1), node-major: each block's N(0, dt)
    increments are drawn node-major, (M, k), and stored in the block's
    columns of the transposed levels, which are then cumulated node by
    node."""
    m, n_blocks = grid.steps, _n_blocks(n_paths)
    out = np.zeros((n_paths, m + 1), order="F")
    levels = out.T
    scale = math.sqrt(grid.dt)
    # made by the caller: each worker thread that allocates grows a
    # malloc arena of its own, which shows in the peak RSS
    gens = [_block_generator(seed, 0, b) for b in range(n_blocks)]

    def draw(b: int, buf: np.ndarray) -> None:
        rows = _block_rows(n_paths, b)
        db = buf[:m * (rows.stop - rows.start)].reshape(m, -1)
        gens[b].standard_normal(out=db)
        np.multiply(db, scale, out=levels[1:, rows])

    _for_each_block(draw, n_blocks, m * min(n_paths, _BLOCK_ROWS))
    _cumulate_nodes(levels)
    return out


def _poisson_counts(seed: int, comp, n_paths: int, steps: int
                    ) -> np.ndarray:
    """Cumulative per-atom Poisson counts N_j(t_i), shape (n, M+1, J),
    node-major, for per-step means comp broadcast to (M, J).

    Each path draws its total N_j(T) ~ Poisson(sum_i comp_ij), then
    places each jump in the step found by inverting the cumulative
    compensator at a uniform.  Given the total, the steps of the jumps
    are independent with P(step i) = comp_ij / sum_i comp_ij, so the
    per-step counts are independent Poisson(comp_ij): the draw is exact
    in law and costs O(n (1 + sum_i comp_ij)) numbers, not O(n M).  The
    totals fix the smallest unsigned type that holds the largest
    N_j(T) before anything is written.
    """
    comp = np.broadcast_to(comp, (steps, np.shape(comp)[-1]))
    cum = np.cumsum(comp, axis=0)
    n_atoms, n_blocks = cum.shape[1], _n_blocks(n_paths)
    gens, totals = [], []
    for b in range(n_blocks):
        rows = _block_rows(n_paths, b)
        gens.append([_block_generator(seed, 1 + a, b)
                     for a in range(n_atoms)])
        totals.append([g.poisson(mass, size=rows.stop - rows.start)
                       for g, mass in zip(gens[b], cum[-1])])
    top = max((int(t.max()) for ts in totals for t in ts), default=0)
    out = np.zeros((n_paths, steps + 1, n_atoms),
                   dtype=np.min_scalar_type(top), order="F")
    one = out.dtype.type(1)  # add.at casts a Python int per element
    # on the calling thread: searchsorted, the index arithmetic and
    # add.at hold the GIL, so worker threads would gain nothing here
    for b in range(n_blocks):
        rows = _block_rows(n_paths, b)
        for a in range(n_atoms):
            levels = out[:, :, a].T            # (M+1, n), C-contiguous
            total = totals[b][a]
            u = gens[b][a].random(int(total.sum()))
            u *= cum[-1, a]
            step = np.searchsorted(cum[:, a], u, side="right")
            # u * total mass can round up to the total mass itself
            np.minimum(step, steps - 1, out=step)
            step += 1
            step *= n_paths
            step += np.repeat(np.arange(rows.start, rows.stop), total)
            np.add.at(levels.reshape(-1), step, one)
    if n_atoms:
        _cumulate_nodes(np.moveaxis(out.T, 1, 0))
    return out


def simulate_ensemble(
    grid: TimeGrid, levy: LevyMeasure, n_paths: int, seed: int
) -> PathEnsemble:
    """Draw Brownian increments N(0, dt) and per-atom Poisson counts with
    mean weight * dt, each path block of each source from its own
    counter-based stream, and keep their running sums on the grid
    nodes."""
    if n_paths < 1:
        raise ConfigError(f"n_paths must be >= 1, got {n_paths}")
    return PathEnsemble(
        grid=grid, levy=levy, n_paths=n_paths, seed=seed,
        brownian_nodes=_brownian_nodes(seed, grid, n_paths),
        count_nodes=_poisson_counts(seed, levy.weights * grid.dt,
                                    n_paths, grid.steps),
    )


def _on_nodes(value, name: str, nodes, marks=None) -> np.ndarray:
    """A deterministic coefficient on the grid nodes: (M+1,) for a time
    coefficient (a number or a callable of t), (M+1, J) for a jump
    coefficient, given `marks` (a number, one value per atom, or a
    callable of (t, mark)).  ConfigError naming `name` for another form,
    a per-atom sequence of the wrong length or a value that is not
    finite."""
    shape = (len(nodes),) if marks is None else (len(nodes), len(marks))
    if not callable(value):
        arr = np.asarray(value, dtype=float)
        if arr.shape not in ((), shape[1:]):
            forms = "a number or a callable of t" if marks is None else \
                f"a number, {len(marks)} per-atom values or a callable"
            raise ConfigError(f"{name} must be {forms}, got {arr.shape}")
        out = np.full(shape, arr)
    elif marks is None:
        out = np.asarray([float(value(t)) for t in nodes])
    else:
        out = np.empty(shape)
        for a, z in enumerate(marks):
            out[:, a] = [float(value(t, z)) for t in nodes]
    bad = np.argwhere(~np.isfinite(out))
    if bad.size:
        raise ConfigError(f"coefficient {name} is not finite at "
                          f"t={nodes[bad[0, 0]]:g}")
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


def _log_exponential(ens: PathEnsemble, drift, vol, jump,
                     rows: slice = slice(None),
                     out: Optional[np.ndarray] = None) -> np.ndarray:
    """Log of the stochastic exponential of (drift, vol, jump) on the
    grid for the paths `rows`, node-major: shape (M+1, k) for k rows,
    zero at t_0.  The transpose of an all-rows call is the (n, M+1)
    exponent in the layout of the ensemble's node arrays.

    Each step adds
        (drift - vol^2/2) dt + vol dB
        + sum_j [log(1 + jump_j) dN_j - jump_j w_j dt],
    evaluated exactly on the grid; the jump term is the compensated log
    term plus the (log(1 + jump) - jump) w dt correction, collected over
    raw counts.  `drift` is a scalar or (M,), `vol` is (M,) and `jump` is
    (M, J), all deterministic and taken at left nodes; jump values must
    exceed -1.

    Summed by parts, the exponent is read off the node levels,
        L_i = D_i + v_{i-1} B(t_i) + sum_j log(1 + g_{i-1,j}) N_j(t_i) - C_i,
    with D the cumulative deterministic quadrature and C the running
    correction sum_{1<=l<i} [(v_l - v_{l-1}) B(t_l) + sum_j
    (log(1 + g_l) - log(1 + g_{l-1}))_j N_j(t_l)].  C vanishes up to the
    first node at which vol or jump moves, so up to there a node costs a
    few products of the levels, with no differencing and no running sum;
    from there on the exponent continues step by step.  With
    time-constant vol and jump the level form covers every node.  The
    rows are taken in chunks of _pass_rows(M) on the block workers; each
    element sees the same operations in the same order whatever the
    chunk, so a path's exponent does not depend on the rows it is
    computed with.  `out`, if given, is the (M+1, k) array to write.
    """
    lo, hi, _ = rows.indices(ens.n_paths)
    write = _exponent_writer(ens, drift, vol, jump)
    if out is None:
        out = np.empty((ens.grid.steps + 1, hi - lo))

    def chunk(c: int, part: slice, scratch: np.ndarray) -> None:
        write(part, out[:, part.start - lo:part.stop - lo], scratch)

    _over_row_blocks(range(lo, hi), (ens.grid.steps,), chunk)
    return out


def _exponent_writer(ens: PathEnsemble, drift, vol, jump):
    """The per-chunk work of `_log_exponential`, with the coefficient
    set-up done once: write(part, level, scratch) writes the exponent of
    the paths `part` into the node-major (M+1, k) `level`, using an
    (M, k) `scratch`.  A pass that already runs on the block workers
    calls it with a plane of its own scratch, so that no worker thread
    allocates a path-sized buffer (glibc keeps such buffers resident in
    the thread's arena, which raises the peak RSS)."""
    grid, levy = ens.grid, ens.levy
    dt, m = grid.dt, grid.steps
    logj = np.log1p(jump)
    det = (-0.5 * vol**2 - (jump * levy.weights).sum(axis=1)) * dt
    det += np.asarray(drift, dtype=float) * dt
    # the level form holds up to the node `first` after which vol or
    # jump moves; from there the exponent runs on in steps
    moved = (np.diff(vol) != 0.0) \
        | (np.diff(logj, axis=0) != 0.0).any(axis=1)
    first = 1 + int(moved.argmax()) if moved.any() else m
    det[:first] = np.cumsum(det[:first])
    det = det[:, None]

    def write(part: slice, level: np.ndarray, scratch: np.ndarray) -> None:
        levels = ens.brownian_nodes[part].T          # (M+1, k) views
        counts = ens.count_nodes[part].transpose(2, 1, 0)
        level[0] = 0.0
        level = level[1:]
        f = first
        np.multiply(levels[1:f + 1], vol[:f, None], out=level[:f])
        np.subtract(levels[f + 1:], levels[f:m], out=level[f:])
        level[f:] *= vol[f:, None]
        for a in range(levy.n_atoms):
            np.multiply(counts[a, 1:f + 1], logj[:f, a, None],
                        out=scratch[:f])
            # counts are differenced forward: the subtraction cannot wrap
            np.subtract(counts[a, f + 1:], counts[a, f:m], out=scratch[f:])
            scratch[f:] *= logj[f:, a, None]
            level += scratch
        level += det
        _cumulate_nodes(level[f - 1:])

    return write


def _tilt_nodes(ens: PathEnsemble, beta1, eta1):
    """The tilt (beta1, eta1) at the left nodes, (M,) and (M, J);
    DomainError unless eta1 exceeds -1."""
    nodes, marks = ens.grid.nodes, ens.levy.marks
    b1 = _on_nodes(beta1, "beta1", nodes)
    e1 = _on_nodes(eta1, "eta1", nodes, marks)
    _check_jump_tilt(e1, nodes, marks, "eta1")
    return b1[:-1], e1[:-1]


def girsanov_density(ens: PathEnsemble, beta1, eta1) -> np.ndarray:
    """Density process M(t_i), shape (n, M+1), of the measure that
    removes drift beta1 from B and tilts atom intensities by (1 + eta1).

    M is the stochastic exponential of (0, beta1, eta1), so M > 0
    pathwise and E[M(t_i)] = 1 at every node.
    """
    logm = _log_exponential(ens, 0.0, *_tilt_nodes(ens, beta1, eta1)).T
    return np.exp(logm, out=logm)


def shift_to_q(ens: PathEnsemble, beta1, eta1) -> PathEnsemble:
    """Resample the ensemble under the tilted measure.

    Brownian levels acquire the drift cumsum(beta1 dt), a per-node
    scalar; atom j's counts are redrawn with intensity (1 + eta1) * weight
    and cumulated.  The same block streams are reused through the same
    code, so a zero tilt reproduces the input bit for bit.  The returned ensemble carries
    its own drift/compensator so martingale increments stay correct
    downstream.
    """
    if ens.measure != "P":
        raise ConfigError("shift_to_q expects a P-measure ensemble")
    grid, levy = ens.grid, ens.levy
    b1, e1 = _tilt_nodes(ens, beta1, eta1)
    drift = b1 * grid.dt
    comp_q = (1.0 + e1) * levy.weights * grid.dt
    return replace(
        ens, measure="Q", bm_drift=drift, jump_comp=comp_q,
        brownian_nodes=ens.brownian_nodes
        + np.concatenate([[0.0], np.cumsum(drift)]),
        count_nodes=_poisson_counts(ens.seed, comp_q, ens.n_paths,
                                    grid.steps),
    )
