"""Closed-form engine for the linear mean-field equation.

Pipeline: set up the exponential propagator on the ensemble, assemble
the deterministic system V = F + AV for the means (Ybar, Zbar, Kbar),
solve it by a windowed Neumann series (with a dense factorisation as the
oracle route), and read Y(0) off the solution: the closed formula's
Y(0) is the mean system's V1(0), with the propagator's exact mean in
place of its sample mean.  A measure-change special case solves the
tilted equation by weighted and by shifted simulation.

The paths are read only through per-node averages, so the route is one
pass over chunks of paths on the block workers of the noise draw: the
source assembly, which also records F1's node-0 per-path sample for
Y(0)'s standard error.  A chunk has
`levy_paths._pass_rows(M+1)` paths: 1,024 up to M = 100 and fewer on
finer grids, so that its node-major planes stay in cache and a worker's
scratch is O(M).  Each chunk computes its propagator exponent in its
worker's scratch; no (n, M+1) propagator, source or sample array is
formed.  Per-chunk moments are merged in chunk order into fixed
1,024-path slots, and the chunk depends on the grid alone, so the worker
count changes no byte.  The mean system is built in one (M+1)^2 array,
which after assembly is the kernel, the only one the system holds.

Derivative conventions: variational derivatives are taken as left limits
in time, so the propagator factors drop out of the rows for Zbar and
Kbar.  Those means are therefore pure source terms, and the system is the
one integral equation for Ybar, with the Zbar and Kbar couplings folded
into its source.  Every closed-form derivative of the terminal is a short
sum of (path factor) x (node profile) terms, so each derivative source row
is one pass over the paths.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .core import (
    CoefficientGrid,
    LinearCoefficients,
    TerminalCondition,
    derivative_terms,
    terminal_value,
)
from .errors import CapabilityError, ConfigError, NumericalError
from .levy_paths import (
    PathEnsemble,
    _PASS_ROWS,
    _check_jump_tilt,
    _exponent_writer,
    _log_exponential,
    _on_nodes,
    _over_row_blocks,
    girsanov_density,
    shift_to_q,
)

__all__ = [
    "GammaEnsemble",
    "VolterraSystem",
    "MeanVector",
    "simulate_gamma",
    "mean_gamma",
    "assemble_system",
    "operator_norm_estimate",
    "neumann_solve",
    "direct_solve",
    "y_closed_formula",
    "q_special_solve",
    "QSpecialResult",
    "solve_linear_y0",
]


# ---------------------------------------------------------------------------
# Propagator
# ---------------------------------------------------------------------------

def _left_quadrature(v: np.ndarray, dt: float) -> np.ndarray:
    """Cumulative left-node dt-quadrature of the node values v:
    sum_{l<i} v_l dt at each node i, zero at t_0."""
    return np.concatenate([[0.0], np.cumsum(v[:-1] * dt)])


@dataclass(frozen=True)
class GammaEnsemble:
    """Exponential propagator of (a1, b1, e1) on an ensemble.

    gamma(i, l) = exp(L_l - L_i) for i <= l, with L the running exponent
    of each path, which makes the diagonal exactly one and the flow
    property exact by construction.  No path array is held: the closed
    form computes L block by block in its workers' scratch (`writer`),
    and `log_levels` gives the whole (n, M+1) exponent on request.
    """

    ens: PathEnsemble
    coeffs: LinearCoefficients
    cg: CoefficientGrid     # every coefficient of `coeffs` on the grid

    @property
    def a1_cum(self) -> np.ndarray:
        """(M+1,) cumulative dt-quadrature of a1."""
        return _left_quadrature(self.cg.a1, self.ens.grid.dt)

    def log_block(self, rows: slice, out: Optional[np.ndarray] = None
                  ) -> np.ndarray:
        """L on the paths `rows`, node-major (M+1, k)."""
        return _log_exponential(self.ens, self.cg.a1[:-1], self.cg.b1[:-1],
                                self.cg.e1[:-1], rows, out)

    def writer(self):
        """write(rows, level, scratch): L on the paths `rows` into the
        node-major (M+1, k) `level`, with (M, k) `scratch`, for a pass
        on the block workers."""
        return _exponent_writer(self.ens, self.cg.a1[:-1], self.cg.b1[:-1],
                                self.cg.e1[:-1])

    def log_levels(self) -> np.ndarray:
        """The whole exponent L, shape (n, M+1), L[:, 0] = 0."""
        return self.log_block(slice(None)).T

    def factor(self, i: int, l: int) -> np.ndarray:
        """gamma(t_i, t_l) on every path, shape (n,)."""
        out = np.empty(self.ens.n_paths)
        write = self.writer()

        def work(b: int, rows: slice, planes: np.ndarray) -> None:
            lv, scratch = planes
            write(rows, lv, scratch[1:])
            np.exp(lv[l] - lv[i], out=out[rows])

        _over_row_blocks(range(self.ens.n_paths), (2, self.cg.a1.size), work)
        return out


def simulate_gamma(coeffs: LinearCoefficients, ens: PathEnsemble
                   ) -> GammaEnsemble:
    """The propagator: the stochastic exponential of (a1, b1, e1) on the
    ensemble, read path block by path block; one evaluation of `coeffs`."""
    cg = coeffs.on_grid(ens.grid, ens.levy)
    _check_jump_tilt(cg.e1, ens.grid.nodes, ens.levy.marks, "eta1")
    return GammaEnsemble(ens, coeffs, cg)


def _node_index(grid, t: float, name: str, caller: str) -> int:
    """Index of the grid node at time t; ConfigError naming `caller` and
    `name` unless t is a node of [0, T]."""
    x = t / grid.dt
    i = int(round(x))
    if not (0 <= i <= grid.steps and abs(x - i) <= 1e-9 * max(1.0, x)):
        raise ConfigError(
            f"{caller} needs {name} on a grid node of [0, "
            f"{grid.horizon:g}], got {name}={t:g}"
        )
    return i


def mean_gamma(coeffs: LinearCoefficients, grid, t: float, s: float
               ) -> float:
    """E[gamma(t, s)] = exp of the grid quadrature of a1 over [t, s], for
    grid times 0 <= t <= s <= T; from the same cumulative quadrature
    the propagator carries, and no coefficient but alpha1 is read."""
    if s < t:
        raise ConfigError("mean_gamma needs t <= s")
    i = _node_index(grid, t, "t", "mean_gamma")
    l = _node_index(grid, s, "s", "mean_gamma")
    a1_cum = _left_quadrature(_on_nodes(coeffs.alpha1, "alpha1",
                                        grid.nodes), grid.dt)
    return float(np.exp(a1_cum[l] - a1_cum[i]))


# ---------------------------------------------------------------------------
# Mean system
# ---------------------------------------------------------------------------

@dataclass
class MeanVector:
    """Means of the solution triplet on the grid; on a system's sources
    and its solutions, also F1's node-0 sample (see `assemble_system`)."""

    grid: object
    v1: np.ndarray          # (M+1,)  E[Y]
    v2: np.ndarray          # (M+1,)  E[Z]
    v3: np.ndarray          # (M+1, J) E[K_j]
    node0: Optional[tuple] = None   # ((n,) sample, its standard error)

    def stack(self) -> np.ndarray:
        return np.concatenate([self.v1, self.v2, self.v3.T.ravel()])


@dataclass
class VolterraSystem:
    """Discretised mean system on the grid.

    The means of Z and K are the sources F2 and F3 themselves, so the one
    integral equation is V1 = source + kernel V1 for E[Y].  `source` is
    F1 plus the couplings b2 F2 and e2_j w_j F3_j integrated with the
    kernel's quadrature.  Kernel entries carry the trapezoid weight and
    vanish below the diagonal in node index (causality).
    """

    grid: object
    kernel: np.ndarray       # (M+1, M+1) kernel of the E[Y] equation
    source: np.ndarray       # (M+1,) source of the E[Y] equation
    f: MeanVector            # sources F1, F2, F3
    f_se: MeanVector         # their Monte Carlo standard errors
    n_nodes: int


def _merge_moments(sizes: np.ndarray, sums: np.ndarray, m2: np.ndarray):
    """Per-node mean and standard error from the (blocks, M+1) slots of
    per-block sums and centred sums of squares over `sizes` paths each,
    merged in block order by the update of Chan, Golub & LeVeque (Am.
    Stat. 1983) taken over all blocks at once: the centred sums of
    squares add, plus k_b (mean_b - mean)^2 for each block of k_b paths.
    No raw second moment is formed, so the error matches a two-pass
    standard deviation."""
    n = sizes.sum()
    mean = sums.sum(axis=0) / n
    if n == 1:
        return mean, np.zeros_like(mean)
    k = sizes[:, None]
    dev = sums / k - mean
    var = (m2.sum(axis=0) + (k * dev * dev).sum(axis=0)) / (n - 1)
    return mean, np.sqrt(var) / math.sqrt(n)


def _mean_se(sample: np.ndarray):
    """Mean and standard error std(ddof=1) / sqrt(n) of a per-path sample;
    the standard error of one path is 0.0, as in `_merge_moments`."""
    n = sample.size
    se = float(sample.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return float(sample.mean()), se


def _reverse_trapezoid(v: np.ndarray, tmp: np.ndarray) -> None:
    """Replace v (M+1, k), node-major, by S_i = sum_{i<=l<M} (v_l +
    v_{l+1}), the per-path reverse sums of trapezoid pairs, grown from
    S_M = 0 one node at a time going left: 0.5 dt S_i is the trapezoid
    rule for int_{t_i}^T v.  tmp is scratch of the same shape."""
    m = v.shape[0] - 1
    np.add(v[:-1], v[1:], out=tmp[:-1])
    v[m - 1] = tmp[m - 1]
    for i in range(m - 2, -1, -1):
        np.add(v[i + 1], tmp[i], out=v[i])
    v[m] = 0.0


def _check_inputs(gamma: Optional[GammaEnsemble], gamma_path,
                  coeffs: LinearCoefficients, ens: PathEnsemble,
                  v: Optional[MeanVector] = None):
    """The pathwise running cost as floats, or None; ConfigError for a
    propagator other than `simulate_gamma(coeffs, ens)`, or for a
    gamma_path or `v` of another shape."""
    if gamma is not None and (gamma.ens is not ens
                              or gamma.coeffs is not coeffs):
        raise ConfigError(
            "gamma was simulated on another ensemble or from other "
            "coefficients; pass the propagator of this equation"
        )
    m1 = ens.grid.steps + 1
    shapes = [(m1,), (m1,), (m1, ens.levy.n_atoms)]
    if v is not None and (v.grid != ens.grid or shapes != [
            a.shape for a in (v.v1, v.v2, v.v3)]):
        raise ConfigError(f"v must hold the means of this grid and atom "
                          f"count, of shapes {shapes}")
    if gamma_path is None:
        return None
    gp = np.asarray(gamma_path, dtype=float)
    if gp.shape != (ens.n_paths, m1):
        raise ConfigError("gamma_path must have shape (n_paths, M+1)")
    return gp


def assemble_system(coeffs: LinearCoefficients, tc: TerminalCondition,
                    ens: PathEnsemble,
                    gamma: Optional[GammaEnsemble] = None,
                    gamma_path: Optional[np.ndarray] = None,
                    gamma_db: Optional[np.ndarray] = None,
                    gamma_dn: Optional[np.ndarray] = None,
                    derivative_rows: bool = True) -> VolterraSystem:
    """Assemble kernel and source of the mean system.

    Sources are Monte Carlo means over the ensemble:
        F1(t) = E[xi G(t,T)] + int_t^T E[G(t,s) gamma(s)] ds
        F2(t) = E[D_t xi  G(t,T)] + int_t^T E[G(t,s)] D_t gamma ds
        F3(t,z) = E[D_{t,z} xi G(t,T)] + int_t^T E[G(t,s)] D_{t,z} gamma ds
    with the derivatives of xi from the closed-form catalog.  gamma is
    the deterministic coefficient plus, when given, the pathwise running
    cost `gamma_path` (n, M+1), whose deterministic derivative profiles
    `gamma_db` (M+1,) and `gamma_dn` (M+1, J) supply the last terms
    (they vanish for deterministic gamma).  Every coefficient is read
    from `gamma`, `simulate_gamma(coeffs, ens)` of these two objects,
    simulated here when not given.

    One pass over chunks of _pass_rows(M+1) paths on the block workers:
    each chunk forms its propagator exponent, exp(-L) and G(., T) in the
    worker's scratch and merges the per-node sums and centred sums of
    squares of every source row, in row order, into the slot of its
    _PASS_ROWS paths (one worker runs a slot's chunks in turn), so the
    slots are O(n(M+1)/1,024) at any M; after the join the slots are
    merged in slot order, so the worker count changes no byte.  A row
    that is one (path factor) x (node profile) term takes the moments of
    the path factor's sample and scales them by the profile.  The
    pathwise running cost joins F1's sample: sum_l wq_il G(t_i, t_l)
    g_l is G(0, t_i)^-1 R_i with R_i = sum_{l>=i} wq_il G(0, t_l) g_l,
    a per-path reverse trapezoid sum (O(nM) work, where the (M+1)^2
    matrix of joint means costs O(nM^2)), so F1's sample at node i is
    G(0, t_i)^-1 (xi G(0, T) + R_i), and its mean and standard error
    cover both parts.  The deterministic gamma and the tail
    int_t^T E[G] ds of the derivative rows have no sampling error:
    E[G(t_i, t_l)] is the propagator mean exp(a1_cum_l - a1_cum_i), so
    both are row sums of the quadrature weights of the mean system.
    Those are built in place in one (M+1)^2 array, which then becomes
    the kernel, so at most two such arrays are alive at once.  F1's
    node-0 sample xi G(0, T) + R_0 is recorded per path, before the
    chunk centres it, as the sources' `node0` with F1's node-0 standard
    error: the solves carry it to `y_closed_formula`.
    """
    grid, levy = ens.grid, ens.levy
    if tc is None:
        raise CapabilityError("assemble_system needs a terminal condition")
    gp = _check_inputs(gamma, gamma_path, coeffs, ens)
    if gp is not None and not np.isfinite(gp).all():
        raise ConfigError("gamma_path must be finite on every path and node")
    if gamma is None:
        gamma = simulate_gamma(coeffs, ens)
    cg = gamma.cg
    m1, nj, dt, n = grid.steps + 1, levy.n_atoms, grid.dt, ens.n_paths

    # source rows as (path factor, node profile) terms: F1's terminal
    # part, then F2 and each F3_j
    brownian, jumps = derivative_terms(tc, ens) if derivative_rows \
        else ([], [[]] * nj)
    row_terms = [[(path, prof) for path, prof in terms if prof.any()]
                 for terms in [[(terminal_value(tc, ens), np.ones(m1))],
                               brownian, *jumps]]
    paths = [np.array([path for path, _ in terms]) for terms in row_terms]
    profs = [np.array([prof for _, prof in terms]) for terms in row_terms]
    live = [r for r, terms in enumerate(row_terms) if terms]

    # one slot per _PASS_ROWS paths, as in _over_row_blocks below
    n_slots = -(-n // _PASS_ROWS)
    sizes = np.minimum(_PASS_ROWS,
                       n - _PASS_ROWS * np.arange(n_slots)).astype(float)
    sums = np.zeros((len(row_terms), n_slots, m1))
    m2 = np.zeros((len(row_terms), n_slots, m1))
    node0 = np.empty(n)
    write = gamma.writer()

    def work(b: int, rows: slice, planes: np.ndarray) -> None:
        # paths of slot b merged so far, and in this chunk
        done, k = rows.start - b * _PASS_ROWS, rows.stop - rows.start
        einv, sample = planes[:2]
        write(rows, einv, sample[1:])
        exp_t = np.exp(einv[-1])
        if gp is not None:
            # R_i: the running cost's reverse trapezoid sums
            run = planes[2]
            np.exp(einv, out=run)
            run *= gp[rows].T   # node-major, whatever the caller's layout
            _reverse_trapezoid(run, sample)
            run *= 0.5 * dt
        np.negative(einv, out=einv)
        np.exp(einv, out=einv)
        for r in live:
            factors = paths[r][:, rows] * exp_t
            if r == 0 and gp is not None:
                run += factors[0]
                np.multiply(einv, run, out=sample)
            elif len(factors) == 1:
                np.multiply(einv, factors[0], out=sample)
            else:
                # einsum, not a BLAS product: the result must not depend
                # on threading
                np.einsum("kn,km->mn", factors, profs[r], out=sample)
                sample *= einv
            if r == 0:
                node0[rows] = sample[0]
            # the chunk's sum and centred sum of squares at each node,
            # merged into its slot in row order (Chan, Golub & LeVeque)
            s = np.sum(sample, axis=1)
            sample -= (s / k)[:, None]
            q = np.einsum("ij,ij->i", sample, sample)
            if done:
                d = s / k - sums[r, b] / done
                m2[r, b] += q + d * d * (done * k / (done + k))
                sums[r, b] += s
            else:
                sums[r, b], m2[r, b] = s, q

    _over_row_blocks(range(n), (2 if gp is None else 3, m1), work)

    moments = [(np.zeros(m1), np.zeros(m1)) for _ in row_terms]
    for r in live:
        mean, se = _merge_moments(sizes, sums[r], m2[r])
        if len(row_terms[r]) == 1:
            prof = profs[r][0]
            mean, se = prof * mean, np.abs(prof) * se
        moments[r] = mean, se
    (f1, f1_se), (f2, f2_se) = moments[:2]
    f3, f3_se = np.zeros((m1, nj)), np.zeros((m1, nj))
    for a in range(nj):
        f3[:, a], f3_se[:, a] = moments[2 + a]

    # quad[i, l] = E[Gamma(t_i, t_l)] = exp(int a1) on the grid
    # quadrature, times the trapezoid weight of node l in int_{t_i}^T
    # (.) ds: upper triangular, built in place in one (M+1)^2 array
    quad = gamma.a1_cum[None, :] - gamma.a1_cum[:, None]
    np.exp(quad, out=quad)
    quad *= dt
    quad.reshape(-1)[::m1 + 1] *= 0.5        # the diagonal
    quad[:, -1] *= 0.5
    quad[-1, -1] = 0.0
    for i in range(1, m1):
        quad[i, :i] = 0.0

    # the deterministic running cost, and the derivative rows' tail
    # int_t^T E[G(t, s)] ds of a pathwise one, both exact
    f1 += (quad * cg.g[None, :]).sum(axis=1)
    if derivative_rows:
        tail = quad.sum(axis=1)
        if gamma_db is not None:
            f2 += np.asarray(gamma_db, dtype=float) * tail
        if gamma_dn is not None:
            f3 += np.asarray(gamma_dn, dtype=float) * tail[:, None]

    # E[Z] = F2 and E[K] = F3 (left-limit derivative convention): their
    # couplings move into the source of the E[Y] equation
    coupling = cg.b2 * f2 + (cg.e2 * levy.weights * f3).sum(axis=1)
    source = f1 + quad @ coupling
    quad *= cg.a2[None, :]                   # now the kernel
    return VolterraSystem(
        grid=grid, kernel=quad, source=source,
        f=MeanVector(grid, f1, f2, f3, (node0, float(f1_se[0]))),
        f_se=MeanVector(grid, f1_se, f2_se, f3_se), n_nodes=m1)


# power iteration of `_spectral_norm`: relative tolerance, iteration cap
# before the exact SVD, and seed of the start vector
_POWER_TOL, _POWER_MAX_ITER, _POWER_SEED = 1e-10, 5000, 5
# `neumann_solve`: the largest norm of a window's kernel, and the size of
# the series term that ends a window's sum
_TARGET_NORM, _SERIES_TOL = 0.5, 1e-12


def _spectral_norm(mat: np.ndarray) -> float:
    """Largest singular value by power iteration on A'A, with an exact
    SVD fallback if the iteration stalls."""
    if mat.size == 0 or not mat.any():
        return 0.0
    rng = np.random.default_rng(_POWER_SEED)
    v = rng.standard_normal(mat.shape[1])
    v /= np.linalg.norm(v)
    sigma = 0.0
    for _ in range(_POWER_MAX_ITER):
        w = mat.T @ (mat @ v)
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        v = w / nw
        new_sigma = math.sqrt(nw)
        if abs(new_sigma - sigma) <= _POWER_TOL * max(new_sigma, 1e-300):
            return new_sigma
        sigma = new_sigma
    return float(np.linalg.norm(mat, 2))


def operator_norm_estimate(sys: VolterraSystem, window: tuple) -> float:
    """Induced 2-norm of the E[Y] kernel restricted to grid nodes in
    [a, b]."""
    a, b = window
    if not a < b:
        raise ConfigError("window must satisfy a < b")
    dt = sys.grid.dt
    lo = max(0, int(math.ceil(a / dt - 1e-9)))
    hi = min(sys.n_nodes, int(math.floor(b / dt + 1e-9)) + 1)
    return _spectral_norm(sys.kernel[lo:hi, lo:hi])


def direct_solve(sys: VolterraSystem) -> MeanVector:
    """Dense factorisation of (I - A) V1 = source over the whole grid."""
    try:
        v1 = np.linalg.solve(np.eye(sys.n_nodes) - sys.kernel, sys.source)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            "dense mean system is singular; kernel violates causality"
        ) from exc
    return replace(sys.f, v1=v1)


def _window_starts(m1: int, w_len: int) -> list:
    """Node windows [lo, hi) tiling the grid from the right."""
    out = []
    hi = m1
    while hi > 0:
        lo = max(0, hi - w_len)
        out.append((lo, hi))
        hi = lo
    return out


def neumann_solve(sys: VolterraSystem,
                  window_len: Optional[int] = None) -> MeanVector:
    """Windowed Neumann-series solution of V1 = source + A V1.

    The window length is the largest multiple of dt for which every
    window's restricted kernel has norm at most _TARGET_NORM (bisection,
    verified after the fact); `window_len` (in nodes) overrides the
    search.  Windows are solved right to left; already solved nodes feed
    the lower windows as an extra source.
    """
    m1 = sys.n_nodes
    kernel = sys.kernel

    def feasible(w_len: int) -> bool:
        return all(_spectral_norm(kernel[lo:hi, lo:hi]) <= _TARGET_NORM
                   for lo, hi in _window_starts(m1, w_len))

    if window_len is not None:
        if not 2 <= window_len <= m1:
            raise ConfigError("window_len must be between 2 and M+1 nodes")
        if not feasible(window_len):
            raise ConfigError(
                "requested window does not meet the target kernel norm"
            )
        w_len = window_len
    # a principal submatrix never has a larger norm than the whole kernel,
    # so a feasible full window makes every shorter window feasible too
    elif feasible(m1):
        w_len = m1
    elif not feasible(2):
        raise ConfigError(
            "no window of at least two steps meets the target kernel norm; "
            "refine the grid or reduce the coefficients"
        )
    else:
        lo_len, hi_len = 2, m1
        while hi_len - lo_len > 1:
            mid = (lo_len + hi_len) // 2
            if feasible(mid):
                lo_len = mid
            else:
                hi_len = mid
        w_len = lo_len

    x = np.zeros(m1)
    for lo, hi in _window_starts(m1, w_len):
        f_eff = sys.source[lo:hi] + kernel[lo:hi, hi:] @ x[hi:]
        sub = kernel[lo:hi, lo:hi]
        term = f_eff
        acc = f_eff.copy()
        for _ in range(100000):
            term = sub @ term
            acc += term
            if np.abs(term).max() < _SERIES_TOL:
                break
        else:
            raise NumericalError("Neumann series failed to converge")
        x[lo:hi] = acc
    return replace(sys.f, v1=x)


def y_closed_formula(coeffs: LinearCoefficients, tc: TerminalCondition,
                     ens: PathEnsemble, v: MeanVector,
                     gamma: Optional[GammaEnsemble] = None,
                     gamma_path: Optional[np.ndarray] = None,
                     return_sample: bool = False):
    """Y(0) of the closed formula, read off the mean system's solution `v`.

    The formula E[xi G(0,T) + sum_l wq_l G(0,t_l) (h_l + gamma_path_l)],
    h = a2 V1 + b2 V2 + sum_j e2_j w_j V3_j + gamma, with the exact mean
    E[G(0, t_l)] in place of the sample mean on the h part (a control
    variate: Glasserman, Monte Carlo Methods in Financial Engineering,
    2004, 4.1) is the mean system's node-0 row V1(0), so Y(0) is v.v1[0]
    and no path is read.  The standard error is that of F1's node-0
    sample xi G(0, T) + R_0; it treats the rest of the system as exact.
    Returns (Y(0), standard error, V1 grid) or, with `return_sample`,
    also that sample shifted to mean Y(0) (for paired comparisons across
    controls on common noise).  `tc` and the values of `gamma_path`
    entered the sample in the assembly; the arguments are checked as
    there, and a `v` that no solve of a system on `ens` returned is a
    ConfigError.
    """
    _check_inputs(gamma, gamma_path, coeffs, ens, v)
    if v.node0 is None or v.node0[0].shape != (ens.n_paths,):
        raise ConfigError(
            "v must be the neumann_solve or direct_solve of a system "
            "assembled on this ensemble: a MeanVector built otherwise "
            "holds no node-0 sample for Y(0)")
    sample, se = v.node0
    y0 = float(v.v1[0])
    if not return_sample:
        return y0, se, v.v1
    return y0, se, v.v1, sample + (y0 - sample.mean())


def solve_linear_y0(coeffs: LinearCoefficients, ens: PathEnsemble):
    """Convenience pipeline: assemble, solve the mean system by the
    Neumann series (`direct_solve` is its dense oracle), read Y(0).
    Returns (y0, se, MeanVector)."""
    gamma = simulate_gamma(coeffs, ens)
    sys = assemble_system(coeffs, coeffs.terminal, ens, gamma=gamma)
    v = neumann_solve(sys)
    y0, se, _ = y_closed_formula(coeffs, coeffs.terminal, ens, v, gamma=gamma)
    return y0, se, v


# ---------------------------------------------------------------------------
# Measure-change special case
# ---------------------------------------------------------------------------

@dataclass
class QSpecialResult:
    """Weighted-P and shifted-Q estimates of the tilted linear equation."""

    y0_weighted: float
    se_weighted: float
    y0_shifted: float
    se_shifted: float
    mean_y: np.ndarray        # E_Q[Y(t_i)] from the shifted estimate
    xi_weighted: float
    xi_shifted: float


def q_special_solve(alpha1, alpha2, beta1, eta1, gamma,
                    tc: TerminalCondition, ens: PathEnsemble
                    ) -> QSpecialResult:
    """Solve the special linear equation whose mean term is the tilted
    expectation of Y.

    Under the tilted measure the equation loses its Z and K coefficients,
    so E_Q[Y] solves the scalar terminal-value problem
        d/dt m = -(a1 + a2) m - gamma,  m(T) = E_Q[xi],
    stepped with exact exponential factors.  Y(0) combines the
    deterministic propagator exp(int a1) with E_Q[xi], which is estimated
    both by density weighting under P and by shifted simulation; both
    full pipelines are returned.
    """
    if tc.kind == "wealth_linear":
        raise CapabilityError(
            "q_special_solve does not support wealth terminals"
        )
    grid, levy = ens.grid, ens.levy
    nodes = grid.nodes
    dt = grid.dt
    a1 = _on_nodes(alpha1, "alpha1", nodes)
    a2 = _on_nodes(alpha2, "alpha2", nodes)
    g = _on_nodes(gamma, "gamma", nodes)

    dens = girsanov_density(ens, beta1, eta1)
    xiw, xiw_se = _mean_se(dens[:, -1] * terminal_value(tc, ens))
    xis, xis_se = _mean_se(terminal_value(tc, shift_to_q(ens, beta1, eta1)))

    def backward_mean(xi_mean: float, with_g: bool) -> np.ndarray:
        m = np.empty(grid.steps + 1)
        m[-1] = xi_mean
        for i in reversed(range(grid.steps)):
            c = a1[i] + a2[i]
            f = math.exp(c * dt)
            gi = g[i] if with_g else 0.0
            m[i] = f * m[i + 1] + (gi * (f - 1.0) / c if abs(c) > 1e-14
                                   else gi * dt)
        return m

    gprime = np.exp(_left_quadrature(a1, dt))
    wq = np.full(grid.steps + 1, dt)
    wq[0] = wq[-1] = 0.5 * dt
    quad_coef = gprime[-1] + (
        gprime * a2 * backward_mean(1.0, with_g=False)
    ) @ wq

    def y0_of(xi_mean: float) -> float:
        m = backward_mean(xi_mean, with_g=True)
        return float(gprime[-1] * xi_mean
                     + (gprime * (a2 * m + g)) @ wq)

    return QSpecialResult(
        y0_weighted=y0_of(xiw), se_weighted=abs(quad_coef) * xiw_se,
        y0_shifted=y0_of(xis), se_shifted=abs(quad_coef) * xis_se,
        mean_y=backward_mean(xis, with_g=True),
        xi_weighted=xiw, xi_shifted=xis,
    )
