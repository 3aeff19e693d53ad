"""Least-squares Monte Carlo Picard solver for mean-field backward
equations on a grid.

Conditional expectations of Y are ridge-regularised least squares on
adapted path features.  Those of the Z and K integrands are exact on a
P ensemble with the built-in features (powers of B and compensated jump
sums, no extras), whose one-step moments are known, and the same least
squares otherwise.  Driver time integrals use the trapezoid weights
1/2 (f(t_i) + f(t_{i+1})); the backward recursion and the regressions
of Z and K on the increments are left-endpoint.  The solvers and the
contraction check iterate on the node regression coefficients
(`coefficient_route`) and evaluate custom callables pathwise.  Both
freezes share one preamble (guards, probes, one scenario-free
regression set-up and one route that adds the terminal and any source,
`setup_s` timing both) and one loop, `_iterate`: the full freeze over
sweeps with the driver frozen along the previous iterate, the mean
freeze over outer steps that each run that loop in (Y, Z, K) with only
the mean channel frozen.  The two solvers are the only entry points,
and their `SolutionGrid` is the only reader of the answers.
"""
from __future__ import annotations

import numbers
import time
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import (
    DriverSpec,
    MeanFunctional,
    SolutionGrid,
    TerminalCondition,
    default_beta,
    probe_driver,
    probe_mean_functional,
)
from .errors import ConfigError
from .levy_paths import PathEnsemble

__all__ = [
    "RegressionBasis",
    "PicardReport",
    "picard_full_freeze",
    "picard_mean_freeze",
    "contraction_check",
]


@dataclass
class RegressionBasis:
    """Adapted path features used to estimate conditional expectations.

    Columns at node i: the constant, powers of B(t_i) up to `degree`
    (an integer from 1 to 6, else a ConfigError), one running
    compensated jump sum per atom (if `jump_features`), and any extra
    finite (n, M+1) path arrays such as wealth and log-wealth.
    """

    degree: int = 2
    jump_features: bool = True
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        d = self.degree
        if isinstance(d, bool) or not isinstance(d, numbers.Integral) \
                or not 1 <= d <= 6:
            raise ConfigError(
                f"degree must be an integer from 1 to 6, got {d!r}")


@dataclass
class PicardReport:
    """Iteration diagnostics of a Picard solve."""

    deltas: list = field(default_factory=list)       # sup-node E|dY|^2
    integrated: list = field(default_factory=list)   # sum_i E|dY_i|^2 dt
    ratios: list = field(default_factory=list)
    iter_s: list = field(default_factory=list)       # wall time per iteration
    iterations: int = 0
    converged: bool = False
    tol: float = 0.0
    ridge_max: float = 0.0
    cond_max: float = 0.0        # largest cond(X_i'X_i), see _Regressions
    setup_s: float = 0.0         # the regression set-up and the route's
                                 # scenario columns
    scheme: str = "full-freeze"
    inner_unconverged: int = 0   # mean freeze: outer steps whose inner
                                 # solve hit its iteration cap

    def record(self, delta: float, integ: float, seconds: float):
        if self.deltas:
            prev = self.deltas[-1]
            self.ratios.append(delta / prev if prev > 0 else 0.0)
        self.deltas.append(delta)
        self.integrated.append(integ)
        self.iter_s.append(seconds)
        self.iterations += 1


def _route(driver: DriverSpec, phi: Optional[MeanFunctional],
           tc: TerminalCondition, ens: PathEnsemble, basis: RegressionBasis):
    """One solve's route on its own set-up, and the seconds both took."""
    # imported on first use: the closed-form and utility routes import
    # the package without ever taking this route
    from .coefficient_route import CoefficientRoute, _Regressions
    started = time.perf_counter()
    route = CoefficientRoute(driver, phi, tc, ens, _Regressions(ens, basis))
    return route, time.perf_counter() - started


def _preamble(driver: DriverSpec, phi: Optional[MeanFunctional],
              tc: TerminalCondition, ens: PathEnsemble,
              basis: RegressionBasis, check: bool, tol: float, scheme: str,
              **caps):
    """A freeze's route and its report with the set-up's diagnostics,
    after the step guard dt * L < 1, the iteration caps and, if `check`,
    the probes of the driver and of phi if there is one."""
    ldt = driver.lipschitz_c * ens.grid.dt
    if ldt >= 1.0:
        raise ConfigError(f"dt * Lipschitz constant = {ldt:.3g} >= 1; "
                          "refine the grid")
    for name, cap in caps.items():
        if cap < 1:
            raise ConfigError(f"{name} must be >= 1, got {cap}")
    if check:
        probe_driver(driver, ens.grid, ens.levy)
        if phi is not None:
            probe_mean_functional(phi, ens.levy.n_atoms)
    route, setup_s = _route(driver, phi, tc, ens, basis)
    return route, PicardReport(tol=tol, scheme=scheme, setup_s=setup_s,
                               ridge_max=route.reg.ridge_max,
                               cond_max=route.reg.cond_max)


def _iterate(route, report: PicardReport, step, it, max_iter: int):
    """The Picard loop: the last of it = step(it), at most max_iter times,
    each step's sup-node and integrated E|dY|^2 and its seconds recorded
    on `report`, until the sup-node one drops below report.tol."""
    for _ in range(max_iter):
        started = time.perf_counter()
        new = step(it)
        dy2 = route.dy2(new, it)
        report.record(float(dy2.max()), float(dy2.sum() * route.dt),
                      time.perf_counter() - started)
        it = new
        if report.deltas[-1] < report.tol:
            report.converged = True
            break
    return it


def picard_full_freeze(driver: DriverSpec, phi: MeanFunctional,
                       tc: TerminalCondition, ens: PathEnsemble,
                       basis: RegressionBasis, tol: float = 1e-6,
                       max_iter: int = 50, check: bool = True
                       ) -> tuple[SolutionGrid, PicardReport]:
    """Picard iteration freezing the whole previous iterate.

    Each iteration evaluates the driver along (y, z, k) and the mean
    channel of the previous iterate and performs one backward sweep.
    Stops when the sup-node mean-square iterate difference drops below
    tol; non-convergence is reported through the flag, never silently.
    The iteration runs on regression coefficients (see coefficient_route)
    and custom callables are evaluated on the paths once per node.  The
    solution is read off the coefficients: its means at no pass over the
    paths, `node(i)` with one design, and y, z and k each written on
    first read, so a caller that reads none of them forms no (n, M+1)
    array.
    """
    route, report = _preamble(driver, phi, tc, ens, basis, check, tol,
                              "full-freeze", max_iter=max_iter)
    it = _iterate(route, report, route.sweep, route.initial(), max_iter)
    if not report.converged:
        warnings.warn(
            f"Picard full freeze did not converge in {report.iterations} "
            f"iterations (last delta {report.deltas[-1]:.3g})", stacklevel=2,
        )
    return route.solution(it), report


def picard_mean_freeze(driver: DriverSpec, tc: TerminalCondition,
                       ens: PathEnsemble, basis: RegressionBasis,
                       tol: float = 1e-6, max_iter: int = 50,
                       inner_max_iter: int = 50, check: bool = True
                       ) -> tuple[SolutionGrid, PicardReport]:
    """Outer iteration freezing only the mean of Y.

    The driver must read the mean channel as the scalar E[Y].  Each outer
    step solves the inner equation in (Y, Z, K) to convergence (to tol,
    within inner_max_iter sweeps) with the frozen mean path, then updates
    the mean.  Outer iterate differences are the quantity whose
    factorial-rate decay the convergence lemma predicts.  Both levels run
    the full freeze's loop on one route, so the set-up is paid once.
    The solution is read off the coefficients (see `picard_full_freeze`).
    """
    if driver.mean_dim != 1:
        raise ConfigError(
            "mean-freeze driver must depend on the mean through E[Y] only"
        )
    route, report = _preamble(driver, None, tc, ens, basis, check, tol,
                              "mean-freeze", max_iter=max_iter,
                              inner_max_iter=inner_max_iter)

    def outer(prev):
        frozen = route.ybar(prev)[:, None]
        inner = PicardReport(tol=tol, scheme="mean-freeze-inner")
        it = _iterate(route, inner, lambda it: route.sweep(it, frozen),
                      route.initial(), inner_max_iter)
        if not inner.converged:
            report.inner_unconverged += 1
            # attributed to the line that called picard_mean_freeze
            warnings.warn("mean-freeze inner solve did not converge",
                          stacklevel=4)
        return it

    it = _iterate(route, report, outer, route.initial(), max_iter)
    if not report.converged:
        warnings.warn(
            f"Picard mean freeze did not converge in {report.iterations} "
            f"outer iterations", stacklevel=2,
        )
    return route.solution(it), report


def contraction_check(driver: DriverSpec, phi: MeanFunctional,
                      tc: TerminalCondition, ens: PathEnsemble,
                      basis: RegressionBasis, beta: Optional[float] = None,
                      n_pairs: int = 10, seed: int = 123) -> list[float]:
    """Observed contraction ratios of the one-step solution map.

    Applies the map (input triplet -> mean channel and driver freeze ->
    one sweep) to random adapted input pairs and returns the ratio of
    weighted squared norms of output and input differences; a pair of
    equal inputs scores zero by convention.  Each input is X_i c at every
    node below M, for one standard normal (2+J, p) coefficient matrix c
    on the solver's basis, and the terminal xi at node M, as every
    iterate of the map is.  Inputs and outputs are node coefficients on
    one route, so the norm
        sum_{i<M} e^{beta (t_i - T)} dt (d_Y'G_i d_Y + d_Z'G_i d_Z
                                         + sum_j w_j d_Kj'G_i d_Kj) / n
    is a quadratic form in the per-node Grams G_i (left-endpoint rule).
    The weight is the e^{beta t_i} of the paper's norm divided by
    e^{beta T}, a factor that cancels in every ratio, so that no weight
    exceeds one and a large beta (the default is 1 + 12 c^2) cannot
    overflow.
    """
    if beta is None:
        beta = default_beta(driver, phi)
    if beta < 0:
        raise ConfigError("beta must be nonnegative")
    rng = np.random.default_rng(seed)
    route, _ = _route(driver, phi, tc, ens, basis)
    grid = ens.grid
    wt = np.exp(beta * (grid.nodes[:-1] - grid.horizon)) * grid.dt
    wc = np.concatenate([[1.0, 1.0], ens.levy.weights])

    def norm(a, b):
        d = np.concatenate([(a.b - b.b)[:, None], a.zk - b.zk], axis=1)
        return float(np.einsum("i,c,icp,ipq,icq->", wt, wc, d, route.gn, d))

    def draw():
        return route.uniform(rng.normal(size=(2 + ens.levy.n_atoms,
                                              route.p)))

    ratios = []
    for _ in range(n_pairs):
        in1, in2 = draw(), draw()
        din = norm(in1, in2)
        out1, out2 = (route.sweep(it) for it in (in1, in2))
        ratios.append(0.0 if din == 0.0 else norm(out1, out2) / din)
    return ratios
