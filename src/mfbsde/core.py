"""Problem-definition types: drivers, mean functionals, the terminal
condition catalog with closed-form variational derivatives, solution grids
and the weighted norm used for contraction diagnostics.

Terminal conditions are restricted to a catalog for which both the
pathwise value and the two directional derivatives (Brownian and per-atom
jump) are available in closed form; that is what the closed-form engine
needs for its source vector.  Arbitrary square-integrable terminals can
still be fed to the Picard solver, which never differentiates them.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import CapabilityError, ConfigError
from .levy_paths import PathEnsemble, _eval_nodes, _eval_nodes_atoms

__all__ = [
    "TerminalCondition",
    "constant",
    "brownian_linear",
    "jump_linear",
    "smooth_of_brownian",
    "poly_of_jump_linear",
    "wealth_linear",
    "terminal_value",
    "derivative_terms",
    "malliavin_b",
    "malliavin_n",
    "DriverSpec",
    "MeanFunctional",
    "mean_y",
    "mean_yzk",
    "mean_y_squared",
    "mean_yzk_avg",
    "SolutionGrid",
    "beta_norm",
    "mean_functional_eval",
    "LinearCoefficients",
    "CoefficientGrid",
    "probe_driver",
    "probe_mean_functional",
    "default_beta",
]


# ---------------------------------------------------------------------------
# Terminal conditions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TerminalCondition:
    """One member of the closed-form terminal catalog.

    kind: 'constant' | 'brownian_linear' | 'jump_linear'
        | 'smooth_of_brownian' | 'poly_of_jump_linear' | 'wealth_linear'
    params: kind-specific parameters (see constructors below).
    """

    kind: str
    params: dict


def constant(c: float) -> TerminalCondition:
    return TerminalCondition("constant", {"c": float(c)})


def brownian_linear(a: float, b: float = 0.0) -> TerminalCondition:
    """a * B(T) + b."""
    return TerminalCondition("brownian_linear", {"a": float(a), "b": float(b)})


def jump_linear(psi) -> TerminalCondition:
    """Integral of psi against the compensated jump measure.

    psi is a per-atom constant (scalar, or sequence over atoms) or a
    callable (t, mark) -> float, deterministic in either case.
    """
    return TerminalCondition("jump_linear", {"psi": psi})


def smooth_of_brownian(coeffs) -> TerminalCondition:
    """Polynomial of B(T): sum coeffs[p] * B(T)**p."""
    return TerminalCondition(
        "smooth_of_brownian", {"coeffs": [float(c) for c in coeffs]}
    )


def poly_of_jump_linear(coeffs, psi) -> TerminalCondition:
    """Polynomial of a jump_linear functional; exercises the difference
    rule for jump derivatives."""
    return TerminalCondition(
        "poly_of_jump_linear", {"coeffs": [float(c) for c in coeffs], "psi": psi}
    )


def wealth_linear(theta: TerminalCondition, wealth: np.ndarray,
                  sigma0_nodes: np.ndarray, gamma0_nodes: np.ndarray,
                  pi_is_deterministic: bool = True) -> TerminalCondition:
    """theta * X(T) for a positive bounded factor theta ('constant' or
    'smooth_of_brownian') and a simulated wealth grid X (n, M+1).

    sigma0_nodes (M+1,) and gamma0_nodes (M+1, J) are the wealth exposure
    coefficients; they give the closed-form derivatives
    D_t X(T) = X(T) sigma0(t) and D_{t,z_j} X(T) = X(T) gamma0(t, z_j),
    which hold when the consumption rate entering X is deterministic.
    """
    if theta.kind not in ("constant", "smooth_of_brownian"):
        raise CapabilityError(
            f"wealth_linear factor must be constant or smooth_of_brownian, "
            f"got {theta.kind}"
        )
    return TerminalCondition(
        "wealth_linear",
        {
            "theta": theta,
            "wealth": wealth,
            "sigma0": np.asarray(sigma0_nodes, dtype=float),
            "gamma0": np.asarray(gamma0_nodes, dtype=float),
            "pi_deterministic": bool(pi_is_deterministic),
        },
    )


def _psi_nodes(psi, ens: PathEnsemble) -> np.ndarray:
    """Materialise a jump_linear psi on (nodes, atoms), shape (M+1, J)."""
    marks = ens.levy.marks
    nodes = ens.grid.nodes
    if callable(psi):
        return _eval_nodes_atoms(psi, nodes, marks)
    arr = np.asarray(psi, dtype=float)
    if arr.ndim == 0:
        return np.full((len(nodes), len(marks)), float(arr))
    if arr.shape != (len(marks),):
        raise ConfigError("psi must be scalar, per-atom, or callable (t, mark)")
    return np.broadcast_to(arr, (len(nodes), len(marks))).copy()


def _poly_eval(coeffs, x):
    out = np.zeros_like(x, dtype=float) if isinstance(x, np.ndarray) else 0.0
    for p, c in enumerate(coeffs):
        out = out + c * x**p
    return out


def _poly_deriv(coeffs, x):
    out = np.zeros_like(x, dtype=float) if isinstance(x, np.ndarray) else 0.0
    for p, c in enumerate(coeffs):
        if p >= 1:
            out = out + p * c * x ** (p - 1)
    return out


def terminal_value(tc: TerminalCondition, ens: PathEnsemble) -> np.ndarray:
    """Pathwise terminal value, shape (n,).

    jump_linear integrals use the compensated counts as defined under P;
    the functional itself does not change with the sampling measure.
    """
    out = _terminal_value(tc, ens)
    if not np.all(np.isfinite(out)):
        raise ConfigError(
            f"terminal condition {tc.kind!r} produced non-finite values; "
            "its empirical second moment is not finite"
        )
    return out


def _terminal_value(tc: TerminalCondition, ens: PathEnsemble) -> np.ndarray:
    p = tc.params
    if tc.kind == "constant":
        return np.full(ens.n_paths, p["c"])
    if tc.kind == "brownian_linear":
        return p["a"] * ens.db.sum(axis=1) + p["b"]
    if tc.kind == "jump_linear":
        psi = _psi_nodes(p["psi"], ens)[:-1]
        comp = ens.jumps - ens.levy.weights * ens.grid.dt
        return (psi[None, :, :] * comp).sum(axis=(1, 2))
    if tc.kind == "smooth_of_brownian":
        return _poly_eval(p["coeffs"], ens.db.sum(axis=1))
    if tc.kind == "poly_of_jump_linear":
        g = terminal_value(jump_linear(p["psi"]), ens)
        return _poly_eval(p["coeffs"], g)
    if tc.kind == "wealth_linear":
        theta = terminal_value(p["theta"], ens)
        return theta * p["wealth"][:, -1]
    raise CapabilityError(f"unknown terminal kind {tc.kind!r}")


def derivative_terms(tc: TerminalCondition, ens: PathEnsemble):
    """Closed-form derivatives of the terminal value as separable terms.

    Returns (brownian, jumps).  `brownian` is a list of (path factor (n,),
    node profile (M+1,)) pairs whose sum of outer products is the
    Brownian derivative D_{t_i} xi, taken as the left limit in t, at every
    node; `jumps[a]` is the same for the derivative in the direction of
    atom a.  An empty list is an identically zero derivative.
    """
    p = tc.params
    nj = ens.levy.n_atoms
    ones = np.ones(ens.grid.steps + 1)
    no_jumps = [[] for _ in range(nj)]
    if tc.kind == "constant":
        return [], no_jumps
    if tc.kind == "brownian_linear":
        return [(np.full(ens.n_paths, p["a"]), ones)], no_jumps
    if tc.kind == "smooth_of_brownian":
        slope = _poly_deriv(p["coeffs"], ens.db.sum(axis=1))
        return [(slope, ones)], no_jumps
    if tc.kind == "jump_linear":
        psi = _psi_nodes(p["psi"], ens)
        return [], [[(np.ones(ens.n_paths), psi[:, a])] for a in range(nj)]
    if tc.kind == "poly_of_jump_linear":
        # difference rule phi(G + psi) - phi(G), expanded binomially:
        # sum_q G^q sum_{p>q} c_p C(p, q) psi^(p-q)
        coeffs = p["coeffs"]
        g = terminal_value(jump_linear(p["psi"]), ens)
        psi = _psi_nodes(p["psi"], ens)
        jumps = []
        for a in range(nj):
            terms = []
            for q in range(len(coeffs) - 1):
                prof = sum(c * math.comb(k, q) * psi[:, a] ** (k - q)
                           for k, c in enumerate(coeffs) if k > q)
                terms.append((g**q, prof))
            jumps.append(terms)
        return [], jumps
    if tc.kind == "wealth_linear":
        if not p["pi_deterministic"]:
            raise CapabilityError(
                "closed-form wealth derivatives need a deterministic "
                "consumption rate; use the Picard solver instead"
            )
        # D X(T) = X(T) sigma0(t), D_{t,z} X(T) = X(T) gamma0(t, z)
        xt = p["wealth"][:, -1]
        theta_tc = p["theta"]
        level = terminal_value(theta_tc, ens) * xt
        brownian = [(level, p["sigma0"])]
        for path, prof in derivative_terms(theta_tc, ens)[0]:
            brownian.append((path * xt, prof))
        return brownian, [[(level, p["gamma0"][:, a])] for a in range(nj)]
    raise CapabilityError(f"unknown terminal kind {tc.kind!r}")


def _at_node(terms, n: int, i: int) -> np.ndarray:
    out = np.zeros(n)
    for path, prof in terms:
        out = out + path * prof[i]
    return out


def malliavin_b(tc: TerminalCondition, ens: PathEnsemble, i: int) -> np.ndarray:
    """Closed-form Brownian derivative of the terminal value at node i,
    taken as the left limit in t, shape (n,)."""
    return _at_node(derivative_terms(tc, ens)[0], ens.n_paths, i)


def malliavin_n(tc: TerminalCondition, ens: PathEnsemble, i: int, atom: int
                ) -> np.ndarray:
    """Closed-form jump derivative of the terminal value at node i in the
    direction of atom `atom`, shape (n,)."""
    return _at_node(derivative_terms(tc, ens)[1][atom], ens.n_paths, i)


# ---------------------------------------------------------------------------
# Drivers and mean functionals
# ---------------------------------------------------------------------------

@dataclass
class DriverSpec:
    """Generator f(t, y, z, k, mu) of the backward equation.

    eval is vectorised over paths: (t, y (n,), z (n,), k (n, J), mu (d,))
    -> (n,).  `source`, if given, is an exogenous per-path, per-node term
    (n, M+1) added on top of eval; it is exempt from the Lipschitz probes.
    """

    eval: Callable[..., np.ndarray]
    lipschitz_c: float
    mean_dim: int = 1
    source: Optional[np.ndarray] = None
    name: str = "custom"

    def __call__(self, t, y, z, k, mu):
        return self.eval(t, y, z, k, mu)


@dataclass(frozen=True)
class MeanFunctional:
    """Vector functional whose ensemble mean enters the driver."""

    dim: int
    eval: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    derivative_bound: float
    name: str = "custom"


def mean_y() -> MeanFunctional:
    return MeanFunctional(1, lambda y, z, k: y[:, None], 1.0, "mean_y")


def mean_yzk(n_atoms: int) -> MeanFunctional:
    def ev(y, z, k):
        return np.column_stack([y, z] + [k[:, j] for j in range(n_atoms)])
    return MeanFunctional(2 + n_atoms, ev, 1.0, "mean_yzk")


def mean_y_squared(bound: float = 10.0) -> MeanFunctional:
    return MeanFunctional(1, lambda y, z, k: (y**2)[:, None], bound,
                          "mean_y_squared")


def mean_yzk_avg(levy) -> MeanFunctional:
    """(y, z, mass-weighted average of k) as a 3-vector."""
    total = levy.total_mass
    w = levy.weights / total if total > 0 else levy.weights

    def ev(y, z, k):
        kavg = k @ w if k.shape[1] else np.zeros_like(y)
        return np.column_stack([y, z, kavg])

    return MeanFunctional(3, ev, 1.0, "mean_yzk_avg")


# ---------------------------------------------------------------------------
# Solution grids and norms
# ---------------------------------------------------------------------------

@dataclass
class SolutionGrid:
    """Triplet (Y, Z, K) on the grid plus ensemble means.

    y has shape (n, M+1); z (n, M) and k (n, M, J) live on nodes 0..M-1
    (they multiply the forward increments of the corresponding interval).
    """

    ens: PathEnsemble
    y: np.ndarray
    z: np.ndarray
    k: np.ndarray
    ybar: np.ndarray = field(init=False)
    zbar: np.ndarray = field(init=False)
    kbar: np.ndarray = field(init=False)

    def __post_init__(self):
        self.recompute_means()

    def recompute_means(self):
        self.ybar = self.y.mean(axis=0)
        self.zbar = self.z.mean(axis=0)
        self.kbar = self.k.mean(axis=0)

    @staticmethod
    def zeros(ens: PathEnsemble) -> "SolutionGrid":
        n, m, j = ens.n_paths, ens.grid.steps, ens.levy.n_atoms
        return SolutionGrid(ens, np.zeros((n, m + 1)), np.zeros((n, m)),
                            np.zeros((n, m, j)))


def beta_norm(sol: SolutionGrid, beta: float) -> float:
    """Discrete weighted squared norm
    E sum_i e^{beta t_i} (y_i^2 + z_i^2 + sum_j k_ij^2 w_j) dt
    over nodes i = 0..M-1 (left-endpoint rule)."""
    if beta < 0:
        raise ConfigError("beta must be nonnegative")
    ens = sol.ens
    w = ens.levy.weights
    t = ens.grid.nodes[:-1]
    dens = sol.y[:, :-1] ** 2 + sol.z**2
    if w.size:
        dens = dens + (sol.k**2 * w).sum(axis=2)
    return float((np.exp(beta * t) * dens).mean(axis=0).sum() * ens.grid.dt)


def mean_functional_eval(phi: MeanFunctional, sol: SolutionGrid, i: int
                         ) -> np.ndarray:
    """Ensemble mean of phi applied pathwise at node i, shape (d,).

    The catalog functionals return a C-ordered (n, d) sample; einsum sums
    its columns in one walk, where a mean over axis 0 is strided."""
    m = sol.ens.grid.steps
    zi = min(i, m - 1)
    v = phi.eval(sol.y[:, i], sol.z[:, zi], sol.k[:, zi, :])
    return np.einsum("nd->d", v) / v.shape[0]


# ---------------------------------------------------------------------------
# Linear coefficients
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoefficientGrid:
    """Linear-equation coefficients materialised on grid nodes."""

    a1: np.ndarray   # (M+1,)
    a2: np.ndarray
    b1: np.ndarray
    b2: np.ndarray
    e1: np.ndarray   # (M+1, J)
    e2: np.ndarray
    g: np.ndarray    # (M+1,)


@dataclass(frozen=True)
class LinearCoefficients:
    """Deterministic coefficients of the linear mean-field equation

    dY = -[a1 Y + b1 Z + sum_j e1_j K_j w_j
           + a2 E[Y] + b2 E[Z] + sum_j e2_j E[K_j] w_j + g(t)] dt
         + Z dB + sum_j K_j dNtilde_j,   Y(T) = terminal.

    Each scalar coefficient is a constant or a callable of t; eta
    coefficients are constants or callables of (t, mark).  gamma is
    deterministic here; the pathwise-gamma channel of the closed-form
    engine is fed separately by the utility module.
    """

    alpha1: object = 0.0
    alpha2: object = 0.0
    beta1: object = 0.0
    beta2: object = 0.0
    eta1: object = 0.0
    eta2: object = 0.0
    gamma: object = 0.0
    terminal: Optional[TerminalCondition] = None

    def on_grid(self, grid, levy) -> CoefficientGrid:
        nodes, marks = grid.nodes, levy.marks
        cg = CoefficientGrid(
            a1=_eval_nodes(self.alpha1, nodes),
            a2=_eval_nodes(self.alpha2, nodes),
            b1=_eval_nodes(self.beta1, nodes),
            b2=_eval_nodes(self.beta2, nodes),
            e1=_eval_nodes_atoms(self.eta1, nodes, marks),
            e2=_eval_nodes_atoms(self.eta2, nodes, marks),
            g=_eval_nodes(self.gamma, nodes),
        )
        for name in ("a1", "a2", "b1", "b2", "e1", "e2", "g"):
            if not np.all(np.isfinite(getattr(cg, name))):
                raise ConfigError(f"coefficient {name} not finite on the grid")
        return cg

    def as_driver(self, grid, levy) -> DriverSpec:
        """The same equation expressed as a generic driver, for feeding the
        Picard solver.  The mean channel is (E[Y], E[Z], E[K_j]...)."""
        cg = self.on_grid(grid, levy)
        e1w = cg.e1 * levy.weights
        e2w = cg.e2 * levy.weights
        dt = grid.dt
        nj = levy.n_atoms

        def ev(t, y, z, k, mu):
            i = int(round(t / dt))
            shift = cg.a2[i] * mu[0] + cg.b2[i] * mu[1] + cg.g[i]
            if nj:
                shift += e2w[i] @ mu[2:]
            out = cg.a1[i] * y
            out += cg.b1[i] * z
            out += shift
            for a in range(nj):  # per-atom columns, not a strided k @ v
                out += e1w[i, a] * k[:, a]
            return out

        lip = max(
            np.abs(cg.a1).max() + np.abs(cg.a2).max(),
            np.abs(cg.b1).max() + np.abs(cg.b2).max(),
            (np.abs(cg.e1).max() + np.abs(cg.e2).max())
            * np.sqrt(max(levy.total_mass, 1.0)) if nj else 0.0,
        )
        return DriverSpec(eval=ev, lipschitz_c=float(lip), mean_dim=2 + nj,
                          name="linear")


# ---------------------------------------------------------------------------
# Assumption probes
# ---------------------------------------------------------------------------

def probe_driver(driver: DriverSpec, grid, levy, n_probes: int = 1000,
                 box: float = 5.0, seed: int = 7, tol: float = 1.05
                 ) -> float:
    """Sampled Lipschitz ratio of the driver over a randomised box.

    Warns when the observed ratio exceeds the declared constant by more
    than `tol`; returns the largest observed ratio.
    """
    rng = np.random.default_rng(seed)
    nj = levy.n_atoms
    w = levy.weights
    d = driver.mean_dim
    nodes = grid.nodes
    worst = 0.0
    for _ in range(n_probes):
        t = float(rng.choice(nodes))
        y1, y2, z1, z2 = rng.uniform(-box, box, 4)
        k1, k2 = rng.uniform(-box, box, (2, nj))
        m1, m2 = rng.uniform(-box, box, (2, d))
        f1 = driver(t, np.array([y1]), np.array([z1]), k1[None], m1)[0]
        f2 = driver(t, np.array([y2]), np.array([z2]), k2[None], m2)[0]
        if not np.isfinite(f1) or not np.isfinite(f2):
            raise ConfigError("driver produced a non-finite value on probes")
        knorm = np.sqrt(((k1 - k2) ** 2 * w).sum()) if nj else 0.0
        denom = abs(y1 - y2) + abs(z1 - z2) + knorm \
            + np.linalg.norm(m1 - m2)
        if denom > 1e-12:
            worst = max(worst, abs(f1 - f2) / denom)
    for t in nodes:  # square-summable over the grid at the origin
        zero = driver(float(t), np.zeros(1), np.zeros(1),
                      np.zeros((1, nj)), np.zeros(d))[0]
        if not np.isfinite(zero):
            raise ConfigError(
                f"driver not finite at the origin for t={t:g}"
            )
    if worst > driver.lipschitz_c * tol:
        warnings.warn(
            f"sampled Lipschitz ratio {worst:.4g} exceeds declared "
            f"constant {driver.lipschitz_c:.4g}", stacklevel=2,
        )
    return worst


def probe_mean_functional(phi: MeanFunctional, n_atoms: int,
                          n_probes: int = 1000, box: float = 5.0,
                          seed: int = 11, step: float = 1e-5) -> float:
    """Finite-difference bound check for the mean functional's partials."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_probes):
        y = rng.uniform(-box, box, 1)
        z = rng.uniform(-box, box, 1)
        k = rng.uniform(-box, box, (1, n_atoms))
        base = phi.eval(y, z, k)
        dy = (phi.eval(y + step, z, k) - base) / step
        dz = (phi.eval(y, z + step, k) - base) / step
        worst = max(worst, np.abs(dy).max(), np.abs(dz).max())
        for j in range(n_atoms):
            kk = k.copy()
            kk[0, j] += step
            worst = max(worst, np.abs((phi.eval(y, z, kk) - base) / step).max())
    if worst > phi.derivative_bound * 1.05:
        warnings.warn(
            f"sampled derivative bound {worst:.4g} exceeds declared "
            f"{phi.derivative_bound:.4g}", stacklevel=2,
        )
    return worst


def default_beta(driver: DriverSpec, phi: MeanFunctional) -> float:
    """Weight used in the contraction diagnostics: 1 + 12 cbar^2 with
    cbar = max(driver Lipschitz constant, mean functional bound)."""
    cbar = max(driver.lipschitz_c, phi.derivative_bound)
    return 1.0 + 12.0 * cbar**2
