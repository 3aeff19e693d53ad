"""Ordering certification for pairs of mean-coupled backward equations.

Checks the three comparison hypotheses (ordered terminals, driver
monotonicity in the mean, and a jump-direction lower bound), solves both
equations on the same ensemble with the mean-freeze solver, and certifies
the pathwise margin Y1 - Y2 up to Monte Carlo noise.  Common random
numbers turn the almost-sure ordering into a testable margin.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import DriverSpec, TerminalCondition, _probe_blocks, \
    terminal_value
from .errors import ConfigError
from .levy_paths import PathEnsemble, _on_nodes
from .picard import RegressionBasis, picard_mean_freeze

__all__ = [
    "ComparisonScenario",
    "HypothesisReport",
    "ComparisonReport",
    "verify_hypotheses",
    "run_comparison",
]

PROBE_TOL = 1e-9
_PROBE_SEED = 17
N_BATCHES = 20


@dataclass
class ComparisonScenario:
    """Two drivers with mean dependence through E[Y] only, two terminals,
    and the jump-direction bound entering the third hypothesis."""

    g1: DriverSpec
    g2: DriverSpec
    xi1: TerminalCondition
    xi2: TerminalCondition
    eta_bound: object = 0.0   # as an eta of LinearCoefficients

    def __post_init__(self):
        if self.g1.mean_dim != 1 or self.g2.mean_dim != 1:
            raise ConfigError(
                "comparison drivers must read the mean channel as E[Y]"
            )


@dataclass
class HypothesisReport:
    terminal_ordered: bool
    driver_ordered: bool
    jump_bound_holds: bool
    violations: list = field(default_factory=list)

    @property
    def all_pass(self) -> bool:
        return (self.terminal_ordered and self.driver_ordered
                and self.jump_bound_holds)


def verify_hypotheses(sc: ComparisonScenario, ens: PathEnsemble,
                      n_probes: int = 10000) -> HypothesisReport:
    """Probe the three ordering hypotheses; records violations instead of
    raising.

    Terminal ordering is checked pathwise on the ensemble.  The driver
    and jump conditions are checked on uniform random probes over a box,
    spread over the grid nodes with each probe at a uniform node.  Each
    probed node draws one ordered E[Y] pair for g1 >= g2 and one mean for
        g2(k1) - g2(k2) >= sum_j eta(t, z_j) (k1_j - k2_j) w_j,
    and each driver call takes all of that node's probes.  The first
    violation of each kind is recorded with its node and values.
    """
    rep = HypothesisReport(True, True, True)

    v1 = terminal_value(sc.xi1, ens)
    v2 = terminal_value(sc.xi2, ens)
    bad = np.argwhere(v1 < v2 - PROBE_TOL)
    if bad.size:
        rep.terminal_ordered = False
        n = int(bad[0, 0])
        rep.violations.append(
            ("terminal", f"path {n}: xi1={v1[n]:.6g} < xi2={v2[n]:.6g}")
        )

    nodes, levy = ens.grid.nodes, ens.levy
    nj = levy.n_atoms
    eta_w = _on_nodes(sc.eta_bound, "eta_bound", nodes, levy.marks) \
        * levy.weights

    for i, r, m in _probe_blocks(_PROBE_SEED, n_probes, len(nodes),
                                 2 + 2 * nj, 3):
        t = nodes[i]
        y, z = r[:, 0], r[:, 1]
        k1, k2 = r[:, 2:2 + nj], r[:, 2 + nj:]
        if rep.driver_ordered:
            lo, hi = np.sort(m[:2])[:, None]
            lhs = sc.g1(t, y, z, k1, hi)
            rhs = sc.g2(t, y, z, k1, lo)
            bad = np.flatnonzero(lhs < rhs - PROBE_TOL)
            if bad.size:
                p = bad[0]
                rep.driver_ordered = False
                rep.violations.append(
                    ("driver",
                     f"t={t:g}, y={y[p]:.3g}, z={z[p]:.3g}, ybar=("
                     f"{hi[0]:.3g},{lo[0]:.3g}): g1={lhs[p]:.6g} < "
                     f"g2={rhs[p]:.6g}")
                )
        if nj and rep.jump_bound_holds:
            d = sc.g2(t, y, z, k1, m[2:]) - sc.g2(t, y, z, k2, m[2:])
            bound = ((k1 - k2) * eta_w[i]).sum(axis=1)
            bad = np.flatnonzero(d < bound - PROBE_TOL)
            if bad.size:
                p = bad[0]
                rep.jump_bound_holds = False
                rep.violations.append(
                    ("jump",
                     f"t={t:g}, k1={np.round(k1[p], 3)}, "
                     f"k2={np.round(k2[p], 3)}: increment {d[p]:.6g} < "
                     f"bound {bound[p]:.6g}")
                )
    return rep


@dataclass
class ComparisonReport:
    hypotheses: HypothesisReport
    solved: bool
    margin: Optional[np.ndarray] = None        # (M+1,) min over paths
    margin_se: Optional[np.ndarray] = None     # (M+1,) batch-means SE
    min_margin: float = math.nan
    min_margin_se: float = math.nan
    ordering_holds: bool = False
    reports: tuple = ()
    se_method: str = f"batch means over {N_BATCHES} path batches"
    pass_threshold: str = "min margin >= -3 se"

    @property
    def passed(self) -> bool:
        return self.hypotheses.all_pass and self.solved \
            and self.ordering_holds


def _batch_min_se(columns) -> tuple[np.ndarray, np.ndarray]:
    """Per-node min margin and its batch-means standard error, from the
    (n,) margin column of each node in turn: the minimum over each of
    N_BATCHES consecutive path batches, and the spread of those minima."""
    mins, ses = [], []
    for d in columns:
        n = d.shape[0]
        nb = min(N_BATCHES, n)
        starts = np.linspace(0, n, nb + 1).astype(int)[:-1]
        mins.append(d.min())
        ses.append(np.minimum.reduceat(d, starts).std(ddof=1)
                   / math.sqrt(nb))
    return np.array(mins), np.array(ses)


def run_comparison(sc: ComparisonScenario, ens: PathEnsemble,
                   basis: RegressionBasis, tol: float = 1e-6,
                   max_iter: int = 50, n_probes: int = 10000,
                   force: bool = False) -> ComparisonReport:
    """Solve both equations on the same ensemble and certify the margin.

    Skips the solves (unless `force`) when a hypothesis fails; the
    hypothesis status is always part of the report.  The ordering is
    declared to hold when the global minimum margin is at least minus
    three batch-means standard errors.
    """
    hyp = verify_hypotheses(sc, ens, n_probes=n_probes)
    if not hyp.all_pass and not force:
        return ComparisonReport(hypotheses=hyp, solved=False)

    (sol1, rep1), (sol2, rep2) = (
        picard_mean_freeze(g, xi, ens, basis, tol, max_iter, check=False)
        for g, xi in ((sc.g1, sc.xi1), (sc.g2, sc.xi2)))
    margin, margin_se = _batch_min_se(
        sol1.node(i)[:, 0] - sol2.node(i)[:, 0]
        for i in range(ens.grid.steps + 1))
    imin = int(np.argmin(margin))
    ok = bool(margin[imin] >= -3.0 * max(margin_se[imin], 1e-300)) \
        if margin[imin] < 0 else True
    return ComparisonReport(
        hypotheses=hyp, solved=True, margin=margin, margin_se=margin_se,
        min_margin=float(margin[imin]),
        min_margin_se=float(margin_se[imin]), ordering_holds=ok,
        reports=(rep1, rep2),
    )
