"""Declarative scenario configuration.

Scenarios are INI documents (flat sections of key = value) naming
built-in drivers, mean functionals and terminal conditions with
parameters; no code is accepted.  Parsing builds every solver input of
the scenario's mode (drivers, mean functional, coefficients, terminal,
regression basis, control rate) and collects every validation error
with the offending section.key path instead of stopping at the first
one, so a document that parses is one a run accepts.  See README for
the full schema.
"""
from __future__ import annotations

import configparser
import hashlib
import io
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import core
from .comparison import ComparisonScenario
from .errors import ConfigError
from .levy_paths import LevyMeasure, TimeGrid, build_grid
from .picard import RegressionBasis
from .utility import ControlProcess, UtilityCoefficients, WealthParams

__all__ = ["ScenarioConfig", "parse_config", "parse_config_file", "config_hash"]

MODES = ("picard", "linear", "compare", "utility", "qcheck")

_KNOWN_KEYS = {
    "run": {"mode"},
    "grid": {"horizon", "steps"},
    "levy": {"atoms"},
    "mc": {"paths", "seed"},
    "solver": {"tol", "max_iter", "basis_degree", "jump_features"},
    "driver": {"name", "value", "c_y", "c_z", "c_k", "c_mean", "const",
               "lipschitz"},
    "mean_functional": {"name", "bound"},
    "terminal": {"kind", "c", "a", "b", "psi", "coeffs"},
    "linear_coeffs": {"alpha1", "alpha2", "beta1", "beta2", "eta1", "eta2",
                      "gamma"},
    "compare": {"eta_bound", "n_probes"},
    "driver2": {"name", "value", "c_y", "c_z", "c_k", "c_mean", "const",
                "lipschitz"},
    "terminal2": {"kind", "c", "a", "b", "psi", "coeffs"},
    "qcheck": {"alpha1", "alpha2", "beta1", "eta1", "gamma"},
    "wealth": {"x0", "b0", "sigma0", "gamma0"},
    "utility_coeffs": {"alpha0", "alpha1", "beta0", "beta1", "eta0", "eta1"},
    "theta": {"kind", "c", "coeffs"},
    "control": {"pi", "optimal"},
}


@dataclass
class ScenarioConfig:
    """Validated scenario with the solver inputs of its mode.

    picard: `driver`, `phi` and `linear`; linear and qcheck: `linear`
    (qcheck's tilted equation uses alpha1, alpha2, beta1, eta1 and
    gamma); `linear.terminal` is the scenario's terminal.  compare:
    `compare` and `n_probes`.  utility: `wealth`, `utility` and `rate`,
    which is None when the run derives the optimal rate.
    """

    mode: str
    grid: TimeGrid
    levy: LevyMeasure
    n_paths: int
    seed: int
    basis: RegressionBasis
    tol: float = 1e-6
    max_iter: int = 50
    driver: Optional[core.DriverSpec] = None
    phi: Optional[core.MeanFunctional] = None
    linear: Optional[core.LinearCoefficients] = None
    compare: Optional[ComparisonScenario] = None
    n_probes: int = 10000
    wealth: Optional[WealthParams] = None
    utility: Optional[UtilityCoefficients] = None
    rate: Optional[ControlProcess] = None
    raw: dict = field(default_factory=dict)


class _Collector:
    def __init__(self):
        self.errors = []

    def add(self, path: str, message: str):
        self.errors.append(f"{path}: {message}")

    def raise_if_any(self):
        if self.errors:
            raise ConfigError(
                "invalid configuration:\n  " + "\n  ".join(self.errors)
            )


def _get(cp, errs, section, key, default=None, required=False,
         convert=float, kind="a number"):
    """Value of section.key through `convert`; a missing, unconvertible
    or non-finite value records an error naming section.key and gives
    `default`."""
    if not cp.has_option(section, key):
        if required:
            errs.add(f"{section}.{key}", "missing required key")
        return default
    raw = cp.get(section, key)
    try:
        value = convert(raw)
    except (ValueError, KeyError):
        errs.add(f"{section}.{key}", f"not {kind}: {raw!r}")
        return default
    # a float, or the float list of `_get_floats`
    if isinstance(value, (float, list)) and not np.isfinite(value).all():
        errs.add(f"{section}.{key}", f"not a finite number: {raw!r}")
        return default
    return value


def _get_int(cp, errs, section, key, default=None, required=False):
    return _get(cp, errs, section, key, default, required, int, "an integer")


def _get_bool(cp, errs, section, key, default):
    return _get(cp, errs, section, key, default, False,
                lambda raw: cp.BOOLEAN_STATES[raw.lower()], "a boolean")


def _get_floats(cp, errs, section, key, default=()):
    return _get(cp, errs, section, key, list(default), False,
                lambda raw: [float(t) for t in raw.replace(",", " ").split()],
                "a number list")


def _scalars(cp, errs, section, *keys):
    """{key: section.key} for optional numbers that default to 0."""
    return {key: _get(cp, errs, section, key, default=0.0) for key in keys}


def _parse_atoms(cp, errs) -> LevyMeasure:
    """atoms = mark:weight, mark:weight, ... (may be empty)."""
    raw = cp.get("levy", "atoms", fallback="").strip()
    atoms = []
    if raw:
        for tok in raw.split(","):
            tok = tok.strip()
            if not tok:
                continue
            parts = tok.split(":")
            if len(parts) != 2:
                errs.add("levy.atoms", f"expected mark:weight, got {tok!r}")
                continue
            try:
                atoms.append((float(parts[0]), float(parts[1])))
            except ValueError:
                errs.add("levy.atoms", f"non-numeric atom {tok!r}")
    try:
        return LevyMeasure.from_atoms(atoms)
    except ConfigError as exc:
        errs.add("levy.atoms", str(exc))
        return LevyMeasure.from_atoms([])


_TERMINALS = ("constant", "brownian_linear", "jump_linear",
              "smooth_of_brownian")


def _parse_terminal(cp, errs, levy, section="terminal", kinds=_TERMINALS):
    if not cp.has_section(section):
        errs.add(f"{section}.kind", "missing required section")
        return None
    kind = cp.get(section, "kind", fallback=None)
    if kind not in kinds:
        errs.add(f"{section}.kind", f"must be one of {kinds}, got {kind!r}")
        return None
    if kind == "constant":
        c = _get(cp, errs, section, "c", required=True)
        return core.constant(c if c is not None else 0.0)
    if kind == "brownian_linear":
        a = _get(cp, errs, section, "a", required=True)
        b = _get(cp, errs, section, "b", default=0.0)
        return core.brownian_linear(a if a is not None else 0.0, b)
    if kind == "jump_linear":
        return core.jump_linear(_atom_floats(cp, errs, levy, section, "psi",
                                             default=1.0))
    coeffs = _get_floats(cp, errs, section, "coeffs")
    if not coeffs:
        errs.add(f"{section}.coeffs", "missing polynomial coefficients")
        coeffs = [0.0]
    return core.smooth_of_brownian(coeffs)


def _atom_floats(cp, errs, levy, section, key, default=0.0, floor=None,
                 strict=True):
    """section.key as one value, or one per atom as a tuple; with a
    `floor`, every value must exceed it (reach it if not `strict`)."""
    path = f"{section}.{key}"
    values = _get_floats(cp, errs, section, key, default=[default])
    low = min(values, default=default)
    if floor is not None and (low < floor or strict and low == floor):
        errs.add(path, f"values must be {'>' if strict else '>='} "
                 f"{floor:g}, got {low:g}")
    if len(values) == 1:
        return values[0]
    if len(values) != levy.n_atoms:
        errs.add(path, f"need 1 or {levy.n_atoms} values, got {len(values)}")
        return 0.0
    return tuple(values)


_MEAN_FUNCTIONALS = ("mean_y", "mean_yzk", "mean_yzk_avg", "mean_y_squared")


def _parse_mean_functional(cp, errs, levy, driver_name):
    """[mean_functional] of a picard scenario as a MeanFunctional; None
    after recording an unknown name, a name the linear driver cannot
    read, or a bound on a functional without one."""
    section = "mean_functional"
    name = cp.get(section, "name", fallback="mean_yzk"
                  if driver_name == "linear" else "mean_y")
    bound = _get(cp, errs, section, "bound")
    if bound is not None and name != "mean_y_squared":
        errs.add(f"{section}.bound",
                 f"only mean_y_squared takes a bound, not {name!r}")
    if name not in _MEAN_FUNCTIONALS:
        errs.add(f"{section}.name", f"unknown {name!r}")
        return None
    if driver_name == "linear" and name != "mean_yzk":
        errs.add(f"{section}.name", f"driver.name=linear reads its mean "
                 f"channel through mean_yzk, got {name!r}")
        return None
    if name == "mean_y":
        return core.mean_y()
    if name == "mean_yzk":
        return core.mean_yzk(levy.n_atoms)
    if name == "mean_yzk_avg":
        return core.mean_yzk_avg(levy)
    return core.mean_y_squared() if bound is None else \
        core.mean_y_squared(bound)


def _parse_driver(cp, errs, grid, levy, phi, section="driver",
                  names=("zero", "constant", "affine", "linear"),
                  linear=None):
    """A [driver]-style section as a DriverSpec reading the mean of `phi`
    (None: its errors are recorded and no driver is built); `linear` is
    the [linear_coeffs] equation that driver name linear expresses."""
    if not cp.has_section(section):
        errs.add(f"{section}.name", "missing required section")
        return None
    name = cp.get(section, "name", fallback=None)
    if name not in names:
        errs.add(f"{section}.name", f"must be one of {names}, got {name!r}")
        return None
    nj = levy.n_atoms
    if name == "linear":
        return None if linear is None else linear.as_driver(grid, levy)
    if name != "affine":
        value = 0.0
        if name == "constant":
            value = _get(cp, errs, section, "value", required=True) or 0.0
        return None if phi is None else core.affine_driver(
            grid, nj, phi.dim, 0.0, name, const=value)
    c = _scalars(cp, errs, section, "c_y", "c_z", "c_k", "const")
    cm = np.asarray(_get_floats(cp, errs, section, "c_mean", default=[0.0]))
    lip = _get(cp, errs, section, "lipschitz")
    if phi is None:
        return None
    if cm.size != phi.dim:
        errs.add(f"{section}.c_mean", f"need {phi.dim} values for mean "
                 f"functional {phi.name}, got {cm.size}")
        return None
    if lip is None:
        lip = max(abs(c["c_y"]), abs(c["c_z"]),
                  abs(c["c_k"]) * np.sqrt(max(levy.total_mass, 1.0)),
                  float(np.linalg.norm(cm)))
    return core.affine_driver(grid, nj, phi.dim, lip, "affine", y=c["c_y"],
                              z=c["c_z"], k=c["c_k"] * levy.weights, mu=cm,
                              const=c["const"])


def _parse_linear_coeffs(cp, errs, levy, terminal):
    sec = "linear_coeffs"
    return core.LinearCoefficients(
        **_scalars(cp, errs, sec, "alpha1", "alpha2", "beta1", "beta2",
                   "gamma"),
        eta1=_atom_floats(cp, errs, levy, sec, "eta1", floor=-1.0),
        eta2=_atom_floats(cp, errs, levy, sec, "eta2"), terminal=terminal)


def _picard_inputs(cp, errs, grid, levy):
    name = cp.get("driver", "name", fallback=None)
    terminal = _parse_terminal(cp, errs, levy)
    linear = _parse_linear_coeffs(cp, errs, levy, terminal)
    if name == "linear" and not cp.has_section("linear_coeffs"):
        errs.add("linear_coeffs", "driver.name=linear needs this section")
        linear = None
    phi = _parse_mean_functional(cp, errs, levy, name)
    return {"driver": _parse_driver(cp, errs, grid, levy, phi,
                                    linear=linear),
            "phi": phi, "linear": linear}


def _linear_inputs(cp, errs, grid, levy):
    if not cp.has_section("linear_coeffs"):
        errs.add("linear_coeffs", "missing required section")
    return {"linear": _parse_linear_coeffs(
        cp, errs, levy, _parse_terminal(cp, errs, levy))}


def _compare_inputs(cp, errs, grid, levy):
    """Both drivers read the mean as E[Y], so driver name linear, whose
    mean channel is (E[Y], E[Z], E[K]), is not one of theirs."""
    phi = core.mean_y()
    g1, g2 = (_parse_driver(cp, errs, grid, levy, phi, section,
                            ("zero", "constant", "affine"))
              for section in ("driver", "driver2"))
    xi1 = _parse_terminal(cp, errs, levy, "terminal")
    xi2 = _parse_terminal(cp, errs, levy, "terminal2")
    eta_bound = _atom_floats(cp, errs, levy, "compare", "eta_bound")
    n_probes = _get_int(cp, errs, "compare", "n_probes", default=10000)
    if n_probes < 1:
        errs.add("compare.n_probes", "must be >= 1")
    if None in (g1, g2, xi1, xi2):
        return {}
    return {"compare": ComparisonScenario(g1, g2, xi1, xi2, eta_bound),
            "n_probes": n_probes}


def _qcheck_inputs(cp, errs, grid, levy):
    if not cp.has_section("qcheck"):
        errs.add("qcheck", "missing required section")
    return {"linear": core.LinearCoefficients(
        **_scalars(cp, errs, "qcheck", "alpha1", "alpha2", "beta1", "gamma"),
        eta1=_atom_floats(cp, errs, levy, "qcheck", "eta1", floor=-1.0),
        terminal=_parse_terminal(cp, errs, levy))}


def _utility_inputs(cp, errs, grid, levy):
    """The rate is None for `optimal = true`: the run derives it."""
    x0 = _get(cp, errs, "wealth", "x0", required=True)
    if x0 is not None and not x0 > 0.0:
        errs.add("wealth.x0", "must be > 0")
    wealth = WealthParams(
        x0=x0, **_scalars(cp, errs, "wealth", "b0", "sigma0"),
        gamma0=_atom_floats(cp, errs, levy, "wealth", "gamma0",
                            floor=-1.0))
    sec = "utility_coeffs"
    utility = UtilityCoefficients(
        **_scalars(cp, errs, sec, "alpha0", "alpha1", "beta0", "beta1"),
        eta0=_atom_floats(cp, errs, levy, sec, "eta0", floor=-1.0),
        eta1=_atom_floats(cp, errs, levy, sec, "eta1", floor=-1.0,
                          strict=False),
        theta=_parse_terminal(cp, errs, levy, "theta",
                              ("constant", "smooth_of_brownian")))
    pi = _get(cp, errs, "control", "pi", default=1.0)
    rate = None
    if not _get_bool(cp, errs, "control", "optimal", default=False):
        if not pi > 0.0:
            errs.add("control.pi", "must be > 0")
        else:
            rate = ControlProcess.from_constant(pi, grid)
    else:
        # lambda carries beta1 dB and, with atoms, eta1 dN: the optimal
        # rate is then adapted, and evaluate_j takes no mean coupling of
        # Z or K with an adapted rate
        if utility.beta1 != 0.0:
            errs.add(f"{sec}.beta1", "must be 0 with control.optimal = true")
        if levy.n_atoms and np.any(np.asarray(utility.eta1) != 0.0):
            errs.add(f"{sec}.eta1", "must be 0 with control.optimal = true")
    return {"wealth": wealth, "utility": utility, "rate": rate}


_INPUTS = {"picard": _picard_inputs, "linear": _linear_inputs,
           "compare": _compare_inputs, "utility": _utility_inputs,
           "qcheck": _qcheck_inputs}


def parse_config(text: str) -> ScenarioConfig:
    """Parse and validate a scenario document and build its mode's solver
    inputs; raises ConfigError listing every problem found."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"unparseable configuration: {exc}") from exc
    errs = _Collector()

    for section in cp.sections():
        if section not in _KNOWN_KEYS:
            errs.add(section, "unknown section")
            continue
        for key in cp.options(section):
            if key not in _KNOWN_KEYS[section]:
                errs.add(f"{section}.{key}", "unknown key")

    mode = cp.get("run", "mode", fallback=None)
    if mode is None:
        errs.add("run.mode", "missing required key")
    elif mode not in MODES:
        errs.add("run.mode", f"must be one of {MODES}, got {mode!r}")

    horizon = _get(cp, errs, "grid", "horizon", required=True)
    steps = _get_int(cp, errs, "grid", "steps", required=True)
    grid = None
    if horizon is not None and steps is not None:
        try:
            grid = build_grid(horizon, steps)
        except ConfigError as exc:
            errs.add("grid", str(exc))
    levy = _parse_atoms(cp, errs)

    n_paths = _get_int(cp, errs, "mc", "paths", required=True)
    seed = _get_int(cp, errs, "mc", "seed", default=0)
    if n_paths is not None and n_paths < 1:
        errs.add("mc.paths", "must be >= 1")
    if seed is not None and seed < 0:
        errs.add("mc.seed", "must be >= 0")

    tol = _get(cp, errs, "solver", "tol", default=1e-6)
    max_iter = _get_int(cp, errs, "solver", "max_iter", default=50)
    if tol is not None and not tol > 0.0:
        errs.add("solver.tol", "must be > 0")
    if max_iter is not None and max_iter < 1:
        errs.add("solver.max_iter", "must be >= 1")
    degree = _get_int(cp, errs, "solver", "basis_degree", default=2)
    if degree is not None and not (1 <= degree <= 6):
        errs.add("solver.basis_degree", "must be between 1 and 6")
    jump_features = _get_bool(cp, errs, "solver", "jump_features",
                              default=True)

    # a stand-in grid lets the mode sections report their own errors
    # when the [grid] ones are already recorded
    inputs = _INPUTS[mode](cp, errs, grid or build_grid(1.0, 1), levy) \
        if mode in _INPUTS else {}
    errs.raise_if_any()
    return ScenarioConfig(
        mode=mode, grid=grid, levy=levy, n_paths=n_paths, seed=seed,
        tol=tol, max_iter=max_iter,
        basis=RegressionBasis(degree, jump_features), **inputs,
        raw={s: dict(cp.items(s)) for s in cp.sections()},
    )


def parse_config_file(path) -> ScenarioConfig:
    with io.open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def config_hash(cfg: ScenarioConfig) -> str:
    """Stable hash of the scenario content plus effective seed/paths."""
    canon = repr(sorted(
        (s, sorted(kv.items())) for s, kv in cfg.raw.items()
    )) + f"|seed={cfg.seed}|paths={cfg.n_paths}"
    return hashlib.sha256(canon.encode()).hexdigest()[:16]
