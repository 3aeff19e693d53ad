"""Command-line entry points.

Subcommands: picard, linear, compare, utility, qcheck, validate.  Each
run reads one scenario document, writes tidy CSV files with the fixed
columns (node, time, statistic, value, se) plus a JSON manifest, and
exits 0 on success, 2 on validation failure (or when the path count
does not fit in memory), 3 on non-convergence and 4 on a failed
comparison hypothesis.  `parse_config` builds every solver input, so
`validate` rejects what a run would; a run draws the ensemble and calls
the public solvers only.  The picard run reads its rows off the
returned `SolutionGrid` (node means and `node(i)`), so it writes no
(n, M+1) path array.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
import warnings
from collections import Counter
from pathlib import Path

import numpy as np

from . import __version__
from .comparison import run_comparison
from .config import ScenarioConfig, config_hash, parse_config_file
from .errors import CapabilityError, ConfigError, DomainError, \
    MfbsdeError, NumericalError
from .levy_paths import PathEnsemble, simulate_ensemble
from .linear import q_special_solve
from .picard import picard_full_freeze
from .utility import evaluate_j, optimal_pi, solve_adjoints

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NO_CONVERGENCE = 3
EXIT_HYPOTHESIS = 4


def _fmt(x) -> str:
    return format(float(x), ".12g")


class RunWriter:
    """Collects rows and emits manifest-stamped CSV files."""

    def __init__(self, out_dir: Path, cfg: ScenarioConfig):
        self.out = Path(out_dir)
        self.out.mkdir(parents=True, exist_ok=True)
        self.hash = config_hash(cfg)
        self.cfg = cfg
        self.diagnostics = {}
        self.t0 = time.time()

    def write_csv(self, name: str, rows):
        """rows: iterables (node, time, statistic, value, se)."""
        path = self.out / name
        lines = [f"# manifest={self.hash}", "node,time,statistic,value,se"]
        for node, t, stat, value, se in rows:
            lines.append(
                f"{node},{_fmt(t)},{stat},{_fmt(value)},{_fmt(se)}"
            )
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    def write_manifest(self):
        payload = {
            "config_hash": self.hash,
            "seed": self.cfg.seed,
            "paths": self.cfg.n_paths,
            "mode": self.cfg.mode,
            "version": __version__,
            "wall_clock_s": round(time.time() - self.t0, 3),
            "diagnostics": self.diagnostics,
        }
        path = self.out / "manifest.json"
        path.write_text(json.dumps(payload, indent=2, sort_keys=True)
                        + "\n", encoding="utf-8")
        return path


def _mean_rows(grid, label, values, ses=None):
    ses = np.zeros(len(values)) if ses is None else ses
    nodes = grid.nodes
    return [(i, nodes[i], label, values[i], ses[i])
            for i in range(len(values))]


def _run_picard(cfg: ScenarioConfig, ens: PathEnsemble, writer) -> int:
    """Full-freeze Picard solve.  The rows are the solution's node means
    and Y(0) with the SE of Y at node 1, read through `node(0)` and
    `node(1)`: the solution never writes an (n, M+1) array."""
    sol, rep = picard_full_freeze(cfg.driver, cfg.phi, cfg.linear.terminal,
                                  ens, cfg.basis, cfg.tol, cfg.max_iter,
                                  check=True)
    rows = _mean_rows(cfg.grid, "ybar", sol.ybar)
    rows += _mean_rows(cfg.grid, "zbar", sol.zbar)
    for a in range(cfg.levy.n_atoms):
        rows += _mean_rows(cfg.grid, f"kbar_atom{a}", sol.kbar[:, a])
    rows.append((0, 0.0, "y0", sol.node(0)[:, 0].mean(),
                 sol.node(1)[:, 0].std(ddof=1) / np.sqrt(ens.n_paths)))
    writer.write_csv("picard_solution.csv", rows)
    writer.write_csv(
        "picard_report.csv",
        [(i, 0.0, "delta", d, 0.0) for i, d in enumerate(rep.deltas)]
        + [(i + 1, 0.0, "ratio", r, 0.0) for i, r in enumerate(rep.ratios)],
    )
    writer.diagnostics["picard"] = {
        "iterations": rep.iterations, "converged": rep.converged,
        "ridge_max": rep.ridge_max, "cond_max": rep.cond_max,
        "setup_s": rep.setup_s, "iter_s": rep.iter_s,
    }
    return EXIT_OK if rep.converged else EXIT_NO_CONVERGENCE


def _run_linear(cfg: ScenarioConfig, ens: PathEnsemble, writer) -> int:
    from .linear import assemble_system, neumann_solve, \
        operator_norm_estimate, simulate_gamma, y_closed_formula

    coeffs = cfg.linear
    gamma = simulate_gamma(coeffs, ens)
    system = assemble_system(coeffs, coeffs.terminal, ens, gamma=gamma)
    norm = operator_norm_estimate(system, (0.0, cfg.grid.horizon))
    v = neumann_solve(system)
    y0, se, _ = y_closed_formula(coeffs, coeffs.terminal, ens, v,
                                 gamma=gamma)

    f, f_se = system.f, system.f_se
    rows = _mean_rows(cfg.grid, "ybar", v.v1)
    rows += _mean_rows(cfg.grid, "zbar", v.v2)
    rows += _mean_rows(cfg.grid, "f1", f.v1, f_se.v1)
    rows += _mean_rows(cfg.grid, "f2", f.v2, f_se.v2)
    for a in range(cfg.levy.n_atoms):
        rows += _mean_rows(cfg.grid, f"kbar_atom{a}", v.v3[:, a])
        rows += _mean_rows(cfg.grid, f"f3_atom{a}", f.v3[:, a],
                           f_se.v3[:, a])
    rows.append((0, 0.0, "kernel_norm", norm, 0.0))
    rows.append((0, 0.0, "y0", y0, se))
    writer.write_csv("linear_solution.csv", rows)
    writer.diagnostics["linear"] = {"y0": y0, "se": se,
                                    "se_method": "f1_node0",
                                    "kernel_norm": norm}
    return EXIT_OK


def _run_compare(cfg: ScenarioConfig, ens: PathEnsemble, writer) -> int:
    rep = run_comparison(cfg.compare, ens, cfg.basis, tol=cfg.tol,
                         max_iter=cfg.max_iter, n_probes=cfg.n_probes)
    rows = []
    if rep.solved:
        for i, t in enumerate(cfg.grid.nodes):
            rows.append((i, t, "margin", rep.margin[i], rep.margin_se[i]))
    for name, flag in (("terminal", rep.hypotheses.terminal_ordered),
                       ("driver", rep.hypotheses.driver_ordered),
                       ("jump", rep.hypotheses.jump_bound_holds)):
        rows.append((0, 0.0, f"hypothesis_{name}", float(flag), 0.0))
    writer.write_csv("comparison.csv", rows)
    writer.diagnostics["compare"] = {
        "hypotheses_pass": rep.hypotheses.all_pass,
        "violations": rep.hypotheses.violations,
        "min_margin": rep.min_margin,
        "ordering_holds": rep.ordering_holds,
    }
    if not rep.hypotheses.all_pass:
        print("hypothesis failure:", file=sys.stderr)
        for kind, detail in rep.hypotheses.violations:
            print(f"  {kind}: {detail}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    return EXIT_OK if rep.passed else EXIT_HYPOTHESIS


def _run_utility(cfg: ScenarioConfig, ens: PathEnsemble, writer) -> int:
    adj = solve_adjoints(cfg.utility, ens, cfg.basis)
    pi = optimal_pi(adj) if cfg.rate is None else cfg.rate
    j, se, _ = evaluate_j(cfg.wealth, cfg.utility, pi, ens)
    pv = pi.paths(ens.n_paths)
    rows = []
    for i, t in enumerate(cfg.grid.nodes):
        rows.append((i, t, "pi_mean", pv[:, i].mean(), 0.0))
        rows.append((i, t, "pi_q25", np.quantile(pv[:, i], 0.25), 0.0))
        rows.append((i, t, "pi_q75", np.quantile(pv[:, i], 0.75), 0.0))
        rows.append((i, t, "p_mean", adj.p[:, i].mean(), 0.0))
        rows.append((i, t, "lambda_mean", adj.lam[:, i].mean(), 0.0))
    rows.append((0, 0.0, "J", j, se))
    writer.write_csv("utility.csv", rows)
    writer.diagnostics["utility"] = {
        "J": j, "se": se, "optimal_control": cfg.rate is None,
        "p_floor_hits": adj.floor_hits,
    }
    return EXIT_OK


def _run_qcheck(cfg: ScenarioConfig, ens: PathEnsemble, writer) -> int:
    q = cfg.linear
    res = q_special_solve(q.alpha1, q.alpha2, q.beta1, q.eta1, q.gamma,
                          q.terminal, ens)
    rows = _mean_rows(cfg.grid, "mean_y_q", res.mean_y)
    rows.append((0, 0.0, "y0_weighted", res.y0_weighted, res.se_weighted))
    rows.append((0, 0.0, "y0_shifted", res.y0_shifted, res.se_shifted))
    writer.write_csv("qcheck.csv", rows)
    gap = abs(res.y0_weighted - res.y0_shifted)
    tol3 = 3.0 * float(np.hypot(res.se_weighted, res.se_shifted))
    writer.diagnostics["qcheck"] = {
        "duality_gap": gap, "three_se": tol3, "agree": bool(gap <= tol3),
    }
    return EXIT_OK


RUNNERS = {
    "picard": _run_picard,
    "linear": _run_linear,
    "compare": _run_compare,
    "utility": _run_utility,
    "qcheck": _run_qcheck,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mfbsde",
        description="Mean-field backward SDE solvers and diagnostics",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in (*RUNNERS, "validate"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, type=Path)
        p.add_argument("--seed", type=int, default=None,
                       help="override the scenario seed")
        p.add_argument("--paths", type=int, default=None,
                       help="override the scenario path count")
        p.add_argument("--out", type=Path, default=Path("out"))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = parse_config_file(args.config)
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    if args.seed is not None:
        if args.seed < 0:
            print("--seed must be >= 0", file=sys.stderr)
            return EXIT_VALIDATION
        cfg.seed = args.seed
    if args.paths is not None:
        if args.paths < 1:
            print("--paths must be >= 1", file=sys.stderr)
            return EXIT_VALIDATION
        cfg.n_paths = args.paths

    if args.command == "validate":
        print(f"configuration valid (mode={cfg.mode})")
        return EXIT_OK
    if cfg.mode != args.command:
        print(
            f"config mode {cfg.mode!r} does not match subcommand "
            f"{args.command!r}", file=sys.stderr,
        )
        return EXIT_VALIDATION

    writer = RunWriter(args.out, cfg)
    # "always" so that repeated runs in one process still record
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        error = None
        try:
            ens = simulate_ensemble(cfg.grid, cfg.levy, cfg.n_paths,
                                    cfg.seed)
            code = RUNNERS[args.command](cfg, ens, writer)
        except (ConfigError, DomainError, CapabilityError) as exc:
            code, error = EXIT_VALIDATION, exc
        except (NumericalError, MfbsdeError) as exc:
            code, error = EXIT_NO_CONVERGENCE, exc
        except MemoryError:
            code, error = EXIT_VALIDATION, (
                f"out of memory at mc.paths = {cfg.n_paths}; lower "
                "mc.paths or pass a smaller --paths")
    if error is not None:
        print(f"{args.command}: {error}", file=sys.stderr)
        writer.diagnostics["error"] = str(error)
    counts = Counter(str(w.message) for w in caught)
    writer.diagnostics["warnings"] = [{"message": m, "count": c}
                                      for m, c in counts.items()]
    for msg in counts:
        print(f"warning: {msg}", file=sys.stderr)
    writer.write_manifest()
    return code


if __name__ == "__main__":
    sys.exit(main())
