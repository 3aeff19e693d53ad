"""The benchmark's workloads.

Each workload builds, from the run seed, a list of jobs that call the
package only through its public functions.  A job returns an `Outcome`;
its check runs after the job's timed interval, with the acceptance
bounds as the test suite states them.  Scenarios and paths follow the
acceptance suite; path counts are scaled down so that several
repetitions of each job list fit in one run (see README.md).
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np


@dataclass
class Outcome:
    value: Optional[float] = None   # the job's Y(0) or J estimate
    se: Optional[float] = None      # its Monte Carlo standard error
    ok: bool = True                 # converged, or the CLI exited with 0
    detail: object = None           # what the check reads; dropped after it


@dataclass
class Job:
    name: str
    run: Callable[[], Outcome]
    # (outcome, earlier outcomes of the same repetition by job name)
    # -> failure message, or None when the output is correct
    check: Callable[[Outcome, dict], Optional[str]]


@dataclass
class Workload:
    name: str
    sizes: dict       # "full" and "toy" parameter sets
    build: Callable   # (mfbsde package, seed, size, work dir) -> [Job]


def _cross_scenarios(mf):
    """The five stochastic scenarios of acceptance criterion 2."""
    lc, bl, jl, sb = (mf.LinearCoefficients, mf.brownian_linear,
                      mf.jump_linear, mf.smooth_of_brownian)
    return [
        ("brownian_terminal", lc(
            alpha1=0.2, alpha2=0.1, beta1=0.25, beta2=0.1, eta1=0.2,
            eta2=0.1, terminal=bl(0.5, 1.0))),
        ("jump_terminal", lc(
            alpha1=0.15, alpha2=0.1, beta1=0.2, beta2=0.15, eta1=0.3,
            eta2=0.2, gamma=0.05, terminal=jl(1.0))),
        ("smooth_terminal", lc(
            alpha1=0.1, alpha2=0.2, beta1=0.15, beta2=0.1, eta1=0.1,
            eta2=0.05, terminal=sb([0.5, 0.0, 0.25]))),
        ("negative_exposures", lc(
            alpha1=0.1, alpha2=0.1, beta1=-0.2, beta2=0.1, eta1=-0.4,
            eta2=0.1, terminal=bl(0.3, 0.5))),
        ("all_six_with_source", lc(
            alpha1=0.12, alpha2=0.18, beta1=0.3, beta2=0.12, eta1=0.25,
            eta2=0.15, gamma=0.1, terminal=sb([1.0, 0.5, 0.2]))),
    ]


def _within_3se(label, y_a, se_a, y_b, se_b):
    gap, lim = abs(y_a - y_b), 3.0 * math.hypot(se_a, se_b)
    return None if gap <= lim else f"{label}: gap {gap:.4g} > 3 SE {lim:.4g}"


def _desk(mf, size):
    return (mf.build_grid(1.0, size["steps"]),
            mf.LevyMeasure.from_atoms([(1.0, 0.5)]))


# ---------------------------------------------------------------------------

def build_desk_closed_form(mf, seed, size, workdir):
    """Closed-form route alone on the desk grid, a fresh ensemble per
    job: derivative-row assembly dominates and no Picard code runs."""
    grid, levy = _desk(mf, size)
    n = size["paths"]
    jobs = []
    for k, (name, c) in enumerate(_cross_scenarios(mf)):
        def run(c=c, ens_seed=seed * 100 + k):
            ens = mf.simulate_ensemble(grid, levy, n, ens_seed)
            gamma = mf.simulate_gamma(c, ens)
            system = mf.assemble_system(c, c.terminal, ens, gamma=gamma)
            v = mf.neumann_solve(system)
            y0, se, _ = mf.y_closed_formula(c, c.terminal, ens, v,
                                            gamma=gamma)
            return Outcome(y0, se, detail=(system, v))

        def check(out, _earlier):
            system, v = out.detail
            gap = float(np.abs(mf.direct_solve(system).stack()
                               - v.stack()).max())
            return None if gap <= 1e-10 else \
                f"Neumann vs dense gap {gap:.3g} > 1e-10"

        jobs.append(Job(name, run, check))
    return jobs


def build_desk_picard(mf, seed, size, workdir):
    """Picard full freeze on the desk grid, plus one mean-freeze
    comparison: regressions over many paths at few nodes."""
    grid, levy = _desk(mf, size)
    n, n_cmp = size["paths"], size["compare_paths"]
    tol, max_iter = size["tol"], size["max_iter"]
    basis = mf.RegressionBasis(degree=2)
    phi = mf.mean_yzk(levy.n_atoms)
    references = {}
    jobs = []
    for k, (name, c) in enumerate(_cross_scenarios(mf)):
        driver = c.as_driver(grid, levy)
        ens_seed = seed * 100 + k

        def run(c=c, driver=driver, ens_seed=ens_seed):
            ens = mf.simulate_ensemble(grid, levy, n, ens_seed)
            sol, rep = mf.picard_full_freeze(driver, phi, c.terminal, ens,
                                             basis, tol=tol,
                                             max_iter=max_iter, check=False)
            se = sol.y[:, 1].std(ddof=1) / math.sqrt(n)
            return Outcome(float(sol.y[:, 0].mean()), float(se),
                           ok=rep.converged)

        def check(out, _earlier, c=c, name=name, ens_seed=ens_seed):
            # the closed-form reference runs once, outside any timing
            if name not in references:
                ens = mf.simulate_ensemble(grid, levy, n, ens_seed)
                references[name] = mf.solve_linear_y0(c, ens)[:2]
            y_cf, se_cf = references[name]
            return _within_3se("closed form vs Picard", out.value, out.se,
                               y_cf, se_cf)

        jobs.append(Job("picard_" + name, run, check))

    # criterion 7's "mean growth" pair: mean-freeze solves and the
    # hypothesis probe loop
    zero = mf.DriverSpec(lambda t, y, z, k, mu: np.zeros_like(y), 0.0, 1,
                         name="zero")
    growth = mf.DriverSpec(
        lambda t, y, z, k, mu: np.full_like(y, max(mu[0], 0.0)), 1.0, 1,
        name="mean+")
    scenario = mf.ComparisonScenario(growth, zero, mf.constant(1.0),
                                     mf.constant(1.0))

    def run_compare():
        ens = mf.simulate_ensemble(grid, levy, n_cmp, seed * 100 + 99)
        rep = mf.run_comparison(scenario, ens, basis, tol=tol,
                                max_iter=max_iter, n_probes=5000)
        converged = all(r.converged for r in rep.reports)
        return Outcome(ok=rep.solved and converged, detail=rep)

    def check_compare(out, _earlier):
        return None if out.detail.ordering_holds else \
            f"ordering_holds is false (min margin {out.detail.min_margin:.4g})"

    jobs.append(Job("compare_mean_growth", run_compare, check_compare))
    return jobs


_FINE_GRID_INI = """\
[run]
mode = {mode}
[grid]
horizon = 1.0
steps = {steps}
[levy]
atoms = 1.0:0.5, -0.5:0.7
[mc]
paths = {paths}
seed = {seed}
[linear_coeffs]
alpha1 = 0.12
alpha2 = 0.18
beta1 = 0.3
beta2 = 0.12
eta1 = 0.25
eta2 = 0.15
gamma = 0.1
[terminal]
kind = smooth_of_brownian
coeffs = 1.0, 0.5, 0.2
"""

_PICARD_SECTIONS = """\
[solver]
tol = {tol!r}
max_iter = {max_iter}
[driver]
name = linear
[mean_functional]
name = mean_yzk
"""


def build_fine_grid_cli(mf, seed, size, workdir):
    """`linear` then `picard` through `mfbsde.cli.main`, in-process, on
    the "all six with source" scenario with two atoms."""
    workdir = Path(workdir)
    fields = dict(steps=size["steps"], paths=size["paths"], seed=seed,
                  tol=size["tol"], max_iter=size["max_iter"])
    lin_ini, pic_ini = workdir / "linear.ini", workdir / "picard.ini"
    lin_ini.write_text(_FINE_GRID_INI.format(mode="linear", **fields))
    pic_ini.write_text(_FINE_GRID_INI.format(mode="picard", **fields)
                       + _PICARD_SECTIONS.format(**fields))
    lin_out, pic_out = workdir / "out_linear", workdir / "out_picard"

    def run_linear():
        code = mf.cli.main(["linear", "--config", str(lin_ini),
                            "--out", str(lin_out)])
        if code != 0:
            return Outcome(ok=False)
        manifest = json.loads((lin_out / "manifest.json").read_text())
        diag = manifest["diagnostics"]["linear"]
        return Outcome(diag["y0"], diag["se"])

    def run_picard():
        code = mf.cli.main(["picard", "--config", str(pic_ini),
                            "--out", str(pic_out)])
        if code != 0:
            return Outcome(ok=False)
        last = (pic_out / "picard_solution.csv").read_text().splitlines()[-1]
        _node, _t, stat, value, se = last.split(",")
        if stat != "y0":
            return Outcome(ok=False)
        return Outcome(float(value), float(se))

    def check_linear(out, _earlier):
        return None if math.isfinite(out.value) and out.se > 0 else \
            f"linear y0 {out.value} se {out.se} not a finite estimate"

    def check_picard(out, earlier):
        lin = earlier.get("cli_linear")
        if lin is None or lin.value is None:
            return "no linear result to compare against"
        return _within_3se("CLI linear vs picard", out.value, out.se,
                           lin.value, lin.se)

    return [Job("cli_linear", run_linear, check_linear),
            Job("cli_picard", run_picard, check_picard)]


def _perturbations(pi_hat, n_paths, steps):
    """The 20 rate perturbations of acceptance criterion 9, made one at a
    time: multiplicative bumps, then half-interval bumps."""
    base = pi_hat.paths(n_paths)
    for f in (0.7, 0.8, 0.9, 0.95, 1.05, 1.1, 1.2, 1.3, 1.4, 1.5):
        yield base * f
    half = steps // 2
    for f in (0.75, 0.85, 1.15, 1.25, 1.4):
        for part in (slice(None, half), slice(half, None)):
            bumped = base.copy()
            bumped[:, part] *= f
            yield bumped


def build_utility_sweep(mf, seed, size, workdir):
    """Adjoints, the candidate rate and 21 utility evaluations on one
    ensemble per scenario: repeated closed-form solves with a pathwise
    running cost and no derivative rows."""
    grid, levy = _desk(mf, size)
    n = size["paths"]
    basis = mf.RegressionBasis(degree=2)
    scenarios = [
        ("diffusive",
         mf.WealthParams(x0=1.0, b0=0.05, sigma0=0.2, gamma0=0.1),
         mf.UtilityCoefficients(alpha0=0.05, alpha1=0.03, beta0=0.15,
                                eta0=0.2, theta=mf.constant(4.0))),
        ("jumpy",
         mf.WealthParams(x0=1.0, b0=0.04, sigma0=0.25, gamma0=-0.2),
         mf.UtilityCoefficients(alpha0=0.04, alpha1=0.02, beta0=0.1,
                                eta0=-0.25, theta=mf.constant(4.5))),
    ]
    jobs = []
    for k, (name, wp, uc) in enumerate(scenarios):
        def run(wp=wp, uc=uc, ens_seed=seed * 100 + k):
            ens = mf.simulate_ensemble(grid, levy, n, ens_seed)
            adj = mf.solve_adjoints(uc, ens, basis)
            pi_hat = mf.optimal_pi(adj)
            j_hat, se_hat, _ = mf.evaluate_j(wp, uc, pi_hat, ens)
            bumped = [
                mf.evaluate_j(wp, uc,
                              mf.ControlProcess(b, pi_hat.deterministic),
                              ens)[:2]
                for b in _perturbations(pi_hat, n, grid.steps)
            ]
            return Outcome(j_hat, se_hat, detail=(adj, pi_hat, bumped))

        def check(out, _earlier):
            adj, pi_hat, bumped = out.detail
            resid = float(np.abs(mf.dh_dpi(pi_hat.paths(n), adj.p,
                                           adj.lam)).max())
            if resid != 0.0:
                return f"dh_dpi residual {resid:.3g} is not exactly 0"
            for jb, seb in bumped:
                if out.value - jb + 3.0 * math.hypot(out.se, seb) < 0.0:
                    return (f"a perturbed rate beats the candidate: "
                            f"J {jb:.6g} > {out.value:.6g} + 3 SE")
            return None

        jobs.append(Job("utility_" + name, run, check))
    return jobs


_PICARD_SOLVER = {"tol": 1e-6, "max_iter": 50}

WORKLOADS = {w.name: w for w in (
    Workload(
        "desk_closed_form",
        {"full": {"steps": 100, "paths": 50_000},
         "toy": {"steps": 20, "paths": 2_000}},
        build_desk_closed_form),
    Workload(
        "desk_picard",
        {"full": {"steps": 100, "paths": 20_000, "compare_paths": 6_000,
                  **_PICARD_SOLVER},
         "toy": {"steps": 20, "paths": 2_000, "compare_paths": 1_000,
                 **_PICARD_SOLVER}},
        build_desk_picard),
    Workload(
        "fine_grid_cli",
        {"full": {"steps": 800, "paths": 6_000, **_PICARD_SOLVER},
         "toy": {"steps": 80, "paths": 500, **_PICARD_SOLVER}},
        build_fine_grid_cli),
    Workload(
        "utility_sweep",
        {"full": {"steps": 100, "paths": 10_000},
         "toy": {"steps": 20, "paths": 1_000}},
        build_utility_sweep),
)}
