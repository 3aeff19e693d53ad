"""Span recording around the public functions of the mfbsde layers, and
the per-layer metrics derived from the spans.

The wrappers are installed from outside the package: each public
function of a layer module is replaced, on its own module and on every
mfbsde namespace that imported it by name (for example
`mfbsde.picard.solve_inner`, `mfbsde.cli.simulate_ensemble`,
`mfbsde.simulate_ensemble`), by a wrapper that records
(name, start, end, parent).  `uninstall` puts every original back.
Spans stay in memory; the caller writes them out when the run ends.
"""
from __future__ import annotations

import contextlib
import functools
import resource
import statistics
import sys
import time
import types

LAYERS = ("levy_paths", "core", "linear", "picard", "comparison",
          "utility", "config", "cli")

# methods wrapped besides the module-level public functions
METHODS = (("cli", "RunWriter", "write_csv"),)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _array_bytes(obj) -> int:
    """Bytes of every array held by an object, including cached
    properties (which live in the instance dict)."""
    return sum(v.nbytes for v in vars(obj).values() if hasattr(v, "nbytes"))


class Tracer:
    """Collects spans while a job runs; inactive (pass-through) otherwise."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self.rep_starts = []     # index of the first span of each repetition
        self.counters = []       # one dict of counts per repetition
        self.first_picard_rss_mb = 0.0
        self.active = False
        self._stack = []
        self._patches = []       # (owner, attribute, original)
        self._ensembles = []     # ensembles created by the running job

    # -- recording ---------------------------------------------------------
    def begin_rep(self):
        self.rep_starts.append(len(self.spans))
        self.counters.append({"ensemble_bytes": 0, "kernel_bytes": 0,
                              "picard_iterations": 0, "csv_bytes": 0})

    @contextlib.contextmanager
    def job(self, name: str):
        """Root span of one job; tracing is on only inside it."""
        self.active = True
        try:
            with self._span("job." + name):
                yield
        finally:
            self.active = False
            c = self.counters[-1]
            for ens in self._ensembles:
                c["ensemble_bytes"] = max(c["ensemble_bytes"],
                                          _array_bytes(ens))
            self._ensembles.clear()

    @contextlib.contextmanager
    def _span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def _wrap(self, name: str, fn):
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            with self._span(name):
                out = fn(*args, **kwargs)
            if hook is not None:
                hook(self, out)
            return out

        return traced

    # -- patching ----------------------------------------------------------
    def install(self, package_name: str = "mfbsde"):
        """Wrap the public functions of every layer module, wherever the
        package's own modules refer to them by name."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == package_name or n.startswith(package_name + ".")]
        for layer in LAYERS:
            mod = sys.modules[f"{package_name}.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_")
                        or not isinstance(obj, types.FunctionType)
                        or obj.__module__ != mod.__name__):
                    continue
                wrapped = self._wrap(f"{layer}.{attr}", obj)
                for owner in modules:
                    for name, value in list(vars(owner).items()):
                        if value is obj:
                            self._patch(owner, name, wrapped)
        for layer, cls_name, meth in METHODS:
            cls = getattr(sys.modules[f"{package_name}.{layer}"], cls_name)
            self._patch(cls, meth,
                        self._wrap(f"{layer}.{meth}", vars(cls)[meth]))

    def _patch(self, owner, name, value):
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    # -- metrics -----------------------------------------------------------
    def rep_metrics(self, rep: int) -> dict:
        """Per-layer metrics of one repetition (values, no units)."""
        lo = self.rep_starts[rep]
        hi = (self.rep_starts[rep + 1] if rep + 1 < len(self.rep_starts)
              else len(self.spans))
        total, calls, self_s, durations = {}, {}, {}, {}
        child_s = [0.0] * (hi - lo)
        for name, start, end, parent in self.spans[lo:hi]:
            if parent >= lo:
                child_s[parent - lo] += end - start
        for k, (name, start, end, _) in enumerate(self.spans[lo:hi]):
            d = end - start
            total[name] = total.get(name, 0.0) + d
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + d - child_s[k]
            durations.setdefault(name, []).append(d)

        def tot(*names):
            return sum(total.get(n, 0.0) for n in names)

        def cnt(*names):
            return sum(calls.get(n, 0) for n in names)

        def own(*names):
            return sum(self_s.get(n, 0.0) for n in names)

        c = self.counters[rep]
        sweeps = durations.get("picard.solve_inner", [])
        out = {
            "levy_paths.simulate_ensemble_s": tot("levy_paths.simulate_ensemble"),
            "levy_paths.ensemble_mb": c["ensemble_bytes"] / 1e6,
            "core.malliavin_calls": cnt("core.malliavin_b", "core.malliavin_n"),
            "core.malliavin_s": tot("core.malliavin_b", "core.malliavin_n"),
            "core.mean_functional_eval_calls": cnt("core.mean_functional_eval"),
            "core.mean_functional_eval_s": tot("core.mean_functional_eval"),
            "core.terminal_value_calls": cnt("core.terminal_value"),
            "linear.simulate_gamma_calls": cnt("linear.simulate_gamma"),
            "linear.simulate_gamma_s": tot("linear.simulate_gamma"),
            "linear.assemble_system_self_s": own("linear.assemble_system"),
            "linear.kernel_mb": c["kernel_bytes"] / 1e6,
            "linear.neumann_solve_s": tot("linear.neumann_solve"),
            "linear.direct_solve_s": tot("linear.direct_solve"),
            "linear.operator_norm_estimate_s":
                tot("linear.operator_norm_estimate"),
            "linear.y_closed_formula_s": tot("linear.y_closed_formula"),
            "picard.sweeps": len(sweeps),
            "picard.sweep_s_p50": statistics.median(sweeps) if sweeps else 0.0,
            "picard.iterations": c["picard_iterations"],
            "picard.freeze_self_s": own("picard.picard_full_freeze",
                                        "picard.picard_mean_freeze"),
            "comparison.verify_hypotheses_s":
                tot("comparison.verify_hypotheses"),
            "utility.solve_adjoints_s": tot("utility.solve_adjoints"),
            "utility.simulate_wealth_s": tot("utility.simulate_wealth"),
            "utility.evaluate_j_calls": cnt("utility.evaluate_j"),
            "utility.evaluate_j_self_s": own("utility.evaluate_j"),
            "config.parse_config_file_s": tot("config.parse_config_file"),
            "cli.write_csv_s": tot("cli.write_csv"),
            "cli.csv_bytes": c["csv_bytes"],
            "trace.spans": hi - lo,
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                v for n, v in self_s.items() if n.startswith(layer + "."))
        return out

    def dump(self) -> list:
        return [{"name": n, "start": s, "end": e, "parent": p}
                for n, s, e, p in self.spans]


def _on_ensemble(tracer, ens):
    tracer._ensembles.append(ens)


def _on_system(tracer, system):
    c = tracer.counters[-1]
    c["kernel_bytes"] = max(c["kernel_bytes"], system.kernel.nbytes)


def _on_picard(tracer, result):
    tracer.counters[-1]["picard_iterations"] += result[1].iterations
    if not tracer.first_picard_rss_mb:
        tracer.first_picard_rss_mb = peak_rss_mb()


def _on_csv(tracer, path):
    tracer.counters[-1]["csv_bytes"] += path.stat().st_size


_HOOKS = {
    "levy_paths.simulate_ensemble": _on_ensemble,
    "linear.assemble_system": _on_system,
    "picard.picard_full_freeze": _on_picard,
    "picard.picard_mean_freeze": _on_picard,
    "cli.write_csv": _on_csv,
}

# unit of every per-layer metric; all of them are better when lower
UNITS = {
    "levy_paths.simulate_ensemble_s": "s",
    "levy_paths.ensemble_mb": "MB",
    "core.malliavin_calls": "count",
    "core.malliavin_s": "s",
    "core.mean_functional_eval_calls": "count",
    "core.mean_functional_eval_s": "s",
    "core.terminal_value_calls": "count",
    "linear.simulate_gamma_calls": "count",
    "linear.simulate_gamma_s": "s",
    "linear.assemble_system_self_s": "s",
    "linear.kernel_mb": "MB",
    "linear.neumann_solve_s": "s",
    "linear.direct_solve_s": "s",
    "linear.operator_norm_estimate_s": "s",
    "linear.y_closed_formula_s": "s",
    "picard.sweeps": "count",
    "picard.sweep_s_p50": "s",
    "picard.iterations": "count",
    "picard.freeze_self_s": "s",
    "picard.rss_mb": "MB",
    "comparison.verify_hypotheses_s": "s",
    "utility.solve_adjoints_s": "s",
    "utility.simulate_wealth_s": "s",
    "utility.evaluate_j_calls": "count",
    "utility.evaluate_j_self_s": "s",
    "config.parse_config_file_s": "s",
    "cli.write_csv_s": "s",
    "cli.csv_bytes": "B",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.spans": "count",
    "trace.overhead_s": "s",
}
