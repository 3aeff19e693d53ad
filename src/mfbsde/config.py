"""Declarative scenario configuration.

Scenarios are INI documents (flat sections of key = value) naming
built-in drivers, mean functionals and terminal conditions with
parameters; no code is accepted.  Parsing collects every validation
error with the offending section.key path instead of stopping at the
first one.  See README for the full schema.
"""
from __future__ import annotations

import configparser
import hashlib
import io
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import core
from .errors import ConfigError
from .levy_paths import LevyMeasure, TimeGrid, build_grid

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
    """Validated scenario ready to hand to a pipeline."""

    mode: str
    grid: TimeGrid
    levy: LevyMeasure
    n_paths: int
    seed: int
    tol: float = 1e-6
    max_iter: int = 50
    basis_degree: int = 2
    jump_features: bool = True
    driver: Optional[dict] = None
    mean_functional: Optional[dict] = None
    terminal: Optional[core.TerminalCondition] = None
    linear: Optional[core.LinearCoefficients] = None
    compare: Optional[dict] = None
    qcheck: Optional[dict] = None
    utility: Optional[dict] = None
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


def _atom_coeff(values, levy, path, errs):
    """Scalar, or one value per atom, for an eta-style coefficient."""
    if len(values) == 1:
        return values[0]
    if len(values) == levy.n_atoms:
        arr = np.asarray(values)
        return lambda t, z: float(arr[np.argmin(np.abs(levy.marks - z))])
    errs.add(path, f"need 1 or {levy.n_atoms} values, got {len(values)}")
    return 0.0


def _parse_terminal(cp, errs, levy, section="terminal"):
    if not cp.has_section(section):
        errs.add(f"{section}.kind", "missing required section")
        return None
    kind = cp.get(section, "kind", fallback=None)
    if kind == "constant":
        c = _get(cp, errs, section, "c", required=True)
        return core.constant(c if c is not None else 0.0)
    if kind == "brownian_linear":
        a = _get(cp, errs, section, "a", required=True)
        b = _get(cp, errs, section, "b", default=0.0)
        return core.brownian_linear(a if a is not None else 0.0, b)
    if kind == "jump_linear":
        psi = _get_floats(cp, errs, section, "psi", default=[1.0])
        return core.jump_linear(_atom_coeff(psi, levy, f"{section}.psi",
                                            errs))
    if kind == "smooth_of_brownian":
        coeffs = _get_floats(cp, errs, section, "coeffs")
        if not coeffs:
            errs.add(f"{section}.coeffs", "missing polynomial coefficients")
            coeffs = [0.0]
        return core.smooth_of_brownian(coeffs)
    errs.add(f"{section}.kind", f"unknown terminal kind {kind!r}")
    return None


def _parse_driver(cp, errs, levy, section="driver"):
    if not cp.has_section(section):
        errs.add(f"{section}.name", "missing required section")
        return None
    name = cp.get(section, "name", fallback=None)
    if name == "zero":
        return {"name": "zero"}
    if name == "constant":
        return {"name": "constant",
                "value": _get(cp, errs, section, "value",
                                    required=True) or 0.0}
    if name == "affine":
        spec = {
            "name": "affine",
            "c_y": _get(cp, errs, section, "c_y", default=0.0),
            "c_z": _get(cp, errs, section, "c_z", default=0.0),
            "c_k": _get(cp, errs, section, "c_k", default=0.0),
            "c_mean": _get_floats(cp, errs, section, "c_mean",
                                  default=[0.0]),
            "const": _get(cp, errs, section, "const", default=0.0),
        }
        lip = _get(cp, errs, section, "lipschitz")
        if lip is not None:
            spec["lipschitz"] = lip
        return spec
    if name == "linear":
        return {"name": "linear"}
    errs.add(f"{section}.name", f"unknown driver {name!r}")
    return None


def _parse_linear_coeffs(cp, errs, levy, section="linear_coeffs"):
    if not cp.has_section(section):
        return None
    e1 = _get_floats(cp, errs, section, "eta1", default=[0.0])
    if any(v <= -1.0 for v in e1):
        errs.add(f"{section}.eta1",
                 f"values must stay above -1, got {min(e1)}")
    return core.LinearCoefficients(
        alpha1=_get(cp, errs, section, "alpha1", default=0.0),
        alpha2=_get(cp, errs, section, "alpha2", default=0.0),
        beta1=_get(cp, errs, section, "beta1", default=0.0),
        beta2=_get(cp, errs, section, "beta2", default=0.0),
        eta1=_atom_coeff(e1, levy, f"{section}.eta1", errs),
        eta2=_atom_coeff(_get_floats(cp, errs, section, "eta2",
                                     default=[0.0]),
                         levy, f"{section}.eta2", errs),
        gamma=_get(cp, errs, section, "gamma", default=0.0),
    )


_MEAN_FUNCTIONALS = ("mean_y", "mean_yzk", "mean_yzk_avg", "mean_y_squared")


def _mean_functional_errors(driver_name, mean_fn: dict):
    """(section.key, message) for each problem of a picard scenario's
    [mean_functional]: an unknown name, a name the linear driver cannot
    read, or a bound on a functional without one."""
    name = mean_fn.get("name")
    if name not in _MEAN_FUNCTIONALS:
        yield "mean_functional.name", f"unknown {name!r}"
    elif driver_name == "linear" and name != "mean_yzk":
        yield ("mean_functional.name",
               f"driver.name=linear reads its mean channel through "
               f"mean_yzk, got {name!r}")
    if "bound" in mean_fn and name != "mean_y_squared":
        yield ("mean_functional.bound",
               f"only mean_y_squared takes a bound, not {name!r}")


def _default_mean_functional(driver_name) -> str:
    return "mean_yzk" if driver_name == "linear" else "mean_y"


def build_driver_objects(cfg: ScenarioConfig):
    """Materialise (DriverSpec, MeanFunctional) from a parsed scenario."""
    levy, grid = cfg.levy, cfg.grid
    nj = levy.n_atoms
    spec = cfg.driver or {"name": "zero"}
    name = spec["name"]
    mean_fn = dict(cfg.mean_functional or {})
    mean_fn.setdefault("name", _default_mean_functional(name))
    for path, message in _mean_functional_errors(name, mean_fn):
        raise ConfigError(f"{path}: {message}")
    phi_name = mean_fn["name"]
    if phi_name == "mean_y":
        phi = core.mean_y()
    elif phi_name == "mean_yzk":
        phi = core.mean_yzk(nj)
    elif phi_name == "mean_yzk_avg":
        phi = core.mean_yzk_avg(levy)
    else:
        bound = mean_fn.get("bound")
        phi = core.mean_y_squared() if bound is None else \
            core.mean_y_squared(bound)

    if name in ("zero", "constant"):
        drv = core.affine_driver(grid, nj, phi.dim, 0.0, name,
                                 const=spec.get("value", 0.0))
    elif name == "affine":
        cy, cz, ck = spec["c_y"], spec["c_z"], spec["c_k"]
        cm = np.asarray(spec["c_mean"], dtype=float)
        if cm.size != phi.dim:
            raise ConfigError(
                f"driver.c_mean: need {phi.dim} values for mean functional "
                f"{phi.name}, got {cm.size}"
            )
        lip = spec.get("lipschitz")
        if lip is None:
            lip = max(abs(cy), abs(cz),
                      abs(ck) * np.sqrt(max(levy.total_mass, 1.0)),
                      float(np.linalg.norm(cm)))
        drv = core.affine_driver(grid, nj, phi.dim, lip, "affine", y=cy,
                                 z=cz, k=ck * levy.weights, mu=cm,
                                 const=spec["const"])
    elif name == "linear":
        if cfg.linear is None:
            raise ConfigError("driver.name=linear needs [linear_coeffs]")
        drv = cfg.linear.as_driver(grid, levy)
    else:
        raise ConfigError(f"driver.name: unknown {name!r}")
    return drv, phi


def parse_config(text: str) -> ScenarioConfig:
    """Parse and validate a scenario document; raises ConfigError listing
    every problem found."""
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
    jumpf = _get_bool(cp, errs, "solver", "jump_features", default=True)

    driver = mean_fn = terminal = linear = compare = qcheck = usect = None
    if mode == "picard":
        driver = _parse_driver(cp, errs, levy)
        driver_name = (driver or {}).get("name")
        mean_fn = {"name": cp.get(
            "mean_functional", "name",
            fallback=_default_mean_functional(driver_name))}
        bound = _get(cp, errs, "mean_functional", "bound")
        if bound is not None:
            mean_fn["bound"] = bound
        for path, message in _mean_functional_errors(driver_name, mean_fn):
            errs.add(path, message)
        terminal = _parse_terminal(cp, errs, levy)
        linear = _parse_linear_coeffs(cp, errs, levy)
        if driver and driver.get("name") == "linear" and linear is None:
            errs.add("linear_coeffs",
                     "driver.name=linear needs this section")
    elif mode == "linear":
        terminal = _parse_terminal(cp, errs, levy)
        linear = _parse_linear_coeffs(cp, errs, levy)
        if not cp.has_section("linear_coeffs"):
            errs.add("linear_coeffs", "missing required section")
    elif mode == "compare":
        compare = {
            "driver1": _parse_driver(cp, errs, levy, "driver"),
            "driver2": _parse_driver(cp, errs, levy, "driver2"),
            "terminal1": _parse_terminal(cp, errs, levy, "terminal"),
            "terminal2": _parse_terminal(cp, errs, levy, "terminal2"),
            "eta_bound": _atom_coeff(
                _get_floats(cp, errs, "compare", "eta_bound", default=[0.0]),
                levy, "compare.eta_bound", errs,
            ),
            "n_probes": _get_int(cp, errs, "compare", "n_probes",
                                 default=10000),
        }
        if compare["n_probes"] < 1:
            errs.add("compare.n_probes", "must be >= 1")
    elif mode == "qcheck":
        if not cp.has_section("qcheck"):
            errs.add("qcheck", "missing required section")
        qcheck = {k: _get(cp, errs, "qcheck", k, default=0.0)
                  for k in ("alpha1", "alpha2", "beta1", "gamma")}
        eta_vals = _get_floats(cp, errs, "qcheck", "eta1", default=[0.0])
        qcheck["eta1"] = _atom_coeff(eta_vals, levy, "qcheck.eta1", errs)
        if any(v <= -1.0 for v in eta_vals):
            errs.add("qcheck.eta1", "values must stay above -1")
        terminal = _parse_terminal(cp, errs, levy)
    elif mode == "utility":
        g0 = _get_floats(cp, errs, "wealth", "gamma0", default=[0.0])
        usect = {
            "x0": _get(cp, errs, "wealth", "x0", required=True),
            "b0": _get(cp, errs, "wealth", "b0", default=0.0),
            "sigma0": _get(cp, errs, "wealth", "sigma0", default=0.0),
            "gamma0": _atom_coeff(g0, levy, "wealth.gamma0", errs),
            "alpha0": _get(cp, errs, "utility_coeffs", "alpha0",
                                 default=0.0),
            "alpha1": _get(cp, errs, "utility_coeffs", "alpha1",
                                 default=0.0),
            "beta0": _get(cp, errs, "utility_coeffs", "beta0",
                                default=0.0),
            "beta1": _get(cp, errs, "utility_coeffs", "beta1",
                                default=0.0),
            "eta0": _atom_coeff(
                _get_floats(cp, errs, "utility_coeffs", "eta0",
                            default=[0.0]),
                levy, "utility_coeffs.eta0", errs,
            ),
            "eta1": _atom_coeff(
                _get_floats(cp, errs, "utility_coeffs", "eta1",
                            default=[0.0]),
                levy, "utility_coeffs.eta1", errs,
            ),
            "theta": _parse_terminal(cp, errs, levy, "theta"),
            "pi": _get(cp, errs, "control", "pi", default=1.0),
            "optimal": _get_bool(cp, errs, "control", "optimal",
                                 default=False),
        }
        if any(v <= -1.0 for v in g0):
            errs.add("wealth.gamma0", "values must stay above -1")

    errs.raise_if_any()
    return ScenarioConfig(
        mode=mode, grid=grid, levy=levy, n_paths=n_paths, seed=seed,
        tol=tol, max_iter=max_iter, basis_degree=degree,
        jump_features=jumpf, driver=driver, mean_functional=mean_fn,
        terminal=terminal, linear=linear, compare=compare, qcheck=qcheck,
        utility=usect,
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
