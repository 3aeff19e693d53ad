"""Problem-definition types: drivers, mean functionals, the terminal
condition catalog with closed-form variational derivatives, solution grids
and the weighted norm used for contraction diagnostics.

Terminal conditions are restricted to a catalog for which both the
pathwise value and the two directional derivatives (Brownian and per-atom
jump) are available in closed form; that is what the closed-form engine
needs for its source vector.  Both solvers read a terminal through the
catalog, so a kind outside it is a CapabilityError on either route.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import CapabilityError, ConfigError
from .levy_paths import PathEnsemble, _on_nodes

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
    "DriverForm",
    "DriverSpec",
    "affine_driver",
    "MeanForm",
    "MeanFunctional",
    "mean_y",
    "mean_yzk",
    "mean_y_squared",
    "mean_yzk_avg",
    "SolutionGrid",
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

    psi is a number, one value per atom, or a callable (t, mark) ->
    float; reading the terminal names psi in a ConfigError if it has
    another form or is not finite.
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
    'smooth_of_brownian') and simulated wealth X, (n, M+1) or any (n, k)
    array whose last column is X(T): only `wealth[:, -1]` is read, so a
    caller with the terminal wealth alone passes it as an (n, 1) column.

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


def _poly_eval(coeffs, x):
    out = np.zeros_like(x, dtype=float) if isinstance(x, np.ndarray) else 0.0
    for p, c in enumerate(coeffs):
        out = out + c * x**p
    return out


def _poly_deriv(coeffs, x):
    return _poly_eval([p * c for p, c in enumerate(coeffs)][1:], x)


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
        return p["a"] * ens.brownian_nodes[:, -1] + p["b"]
    if tc.kind == "jump_linear":
        # sum_i psi_i (dN_i - w dt), summed by parts over the count
        # levels N(t_1..t_M): psi (N(T) - w T) for a constant psi
        psi = _on_nodes(p["psi"], "psi", ens.grid.nodes,
                        ens.levy.marks)[:-1]
        by_parts = -np.diff(psi, axis=0, append=0.0)
        return np.einsum("nij,ij->n", ens.count_nodes[:, 1:], by_parts) \
            - (psi * ens.levy.weights).sum() * ens.grid.dt
    if tc.kind == "smooth_of_brownian":
        return _poly_eval(p["coeffs"], ens.brownian_nodes[:, -1])
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
        slope = _poly_deriv(p["coeffs"], ens.brownian_nodes[:, -1])
        return [(slope, ones)], no_jumps
    if tc.kind == "jump_linear":
        psi = _on_nodes(p["psi"], "psi", ens.grid.nodes, ens.levy.marks)
        return [], [[(np.ones(ens.n_paths), psi[:, a])] for a in range(nj)]
    if tc.kind == "poly_of_jump_linear":
        # difference rule phi(G + psi) - phi(G), expanded binomially:
        # sum_q G^q sum_{p>q} c_p C(p, q) psi^(p-q)
        coeffs = p["coeffs"]
        g = terminal_value(jump_linear(p["psi"]), ens)
        psi = _on_nodes(p["psi"], "psi", ens.grid.nodes, ens.levy.marks)
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

class DriverForm:
    """Per-node coefficients of a driver affine in (y, z, k, mu):

        f(t_i, y, z, k, mu) = y_i y + z_i z + sum_j k_ij k_j + mu_i . mu
                              + const_i,

    as arrays y, z, const (M+1,), k (M+1, J) and mu (M+1, d).  The k
    coefficients carry the atom weights already.
    """

    def __init__(self, y, z, k, mu, const):
        self.y, self.z, self.k, self.mu, self.const = y, z, k, mu, const


@dataclass
class DriverSpec:
    """Generator f(t, y, z, k, mu) of the backward equation.

    eval is vectorised over paths: (t, y (n,), z (n,), k (n, J), mu (d,))
    -> (n,).  `source`, if given, is an exogenous per-path, per-node term
    (n, M+1) added on top of eval; it is exempt from the Lipschitz probes.
    `form` holds the per-node affine coefficients of the catalog drivers,
    which build their eval from it; the Picard sweep is then a linear map
    of the regression coefficients.  A custom callable has no form: the
    sweep calls it once per node on the iterate written from them.
    """

    eval: Callable[..., np.ndarray]
    lipschitz_c: float
    mean_dim: int = 1
    source: Optional[np.ndarray] = None
    name: str = "custom"
    form: Optional[DriverForm] = None

    def __call__(self, t, y, z, k, mu):
        return self.eval(t, y, z, k, mu)


def _form_values(form: DriverForm, node, y, z, k, base) -> np.ndarray:
    """The affine form at node(s) `node` (an index, or one per row) with
    its mean and constant term `base` = mu_i . mu + const_i."""
    out = form.y[node] * y
    out += form.z[node] * z
    out += base
    for a in range(k.shape[1]):  # per-atom columns, not a strided k @ v
        out += form.k[node, a] * k[:, a]
    return out


def affine_driver(grid, n_atoms: int, mean_dim: int, lipschitz_c: float,
                  name: str = "affine", *, y=0.0, z=0.0, k=0.0, mu=0.0,
                  const=0.0) -> DriverSpec:
    """Driver affine in (y, z, k, mu) on the nodes of `grid`.

    Each coefficient is a scalar, a per-node array, or (k and mu) a
    per-atom or per-component vector; k is weight-multiplied.  The eval
    reads node round(t / dt).
    """
    def on_nodes(value, *shape):
        return np.broadcast_to(np.asarray(value, dtype=float),
                               (grid.steps + 1, *shape)).copy()

    form = DriverForm(on_nodes(y), on_nodes(z), on_nodes(k, n_atoms),
                      on_nodes(mu, mean_dim), on_nodes(const))
    dt = grid.dt

    def ev(t, y, z, k, mu):
        i = int(round(t / dt))
        return _form_values(form, i, y, z, k, form.mu[i] @ mu + form.const[i])

    return DriverSpec(eval=ev, lipschitz_c=float(lipschitz_c),
                      mean_dim=mean_dim, name=name, form=form)


class MeanForm:
    """phi(y, z, k) = y l_y + z l_z + L_k k, squared entrywise if
    `squared`: l_y, l_z (d,) and L_k (d, J), or None when phi does not
    read k."""

    def __init__(self, y, z, k=None, squared=False):
        self.y, self.z, self.k, self.squared = y, z, k, squared


@dataclass(frozen=True)
class MeanFunctional:
    """Vector functional whose ensemble mean enters the driver.  The
    catalog functionals carry their `form` and build eval from it."""

    dim: int
    eval: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    derivative_bound: float
    name: str = "custom"
    form: Optional[MeanForm] = None


def _linear_functional(name: str, bound: float, ly, lz, lk=None,
                       squared: bool = False) -> MeanFunctional:
    form = MeanForm(np.asarray(ly, dtype=float), np.asarray(lz, dtype=float),
                    None if lk is None else np.asarray(lk, dtype=float),
                    squared)

    reads_k = form.k is not None
    lmap_t = np.column_stack(
        [form.y, form.z] + ([form.k] if reads_k else [])).T

    def ev(y, z, k):
        out = np.column_stack([y, z] + ([k] if reads_k else [])) @ lmap_t
        return out * out if form.squared else out

    return MeanFunctional(form.y.size, ev, float(bound), name, form)


def mean_y() -> MeanFunctional:
    return _linear_functional("mean_y", 1.0, [1.0], [0.0])


def mean_yzk(n_atoms: int) -> MeanFunctional:
    eye = np.eye(2 + n_atoms)
    return _linear_functional("mean_yzk", 1.0, eye[:, 0], eye[:, 1],
                              eye[:, 2:])


def mean_y_squared(bound: float = 10.0) -> MeanFunctional:
    return _linear_functional("mean_y_squared", bound, [1.0], [0.0],
                              squared=True)


def mean_yzk_avg(levy) -> MeanFunctional:
    """(y, z, mass-weighted average of k) as a 3-vector."""
    total = levy.total_mass
    w = levy.weights / total if total > 0 else levy.weights
    lk = np.zeros((3, levy.n_atoms))
    lk[2] = w
    return _linear_functional("mean_yzk_avg", 1.0, [1.0, 0.0, 0.0],
                              [0.0, 1.0, 0.0], lk)


# ---------------------------------------------------------------------------
# Solution grids and norms
# ---------------------------------------------------------------------------

class SolutionGrid:
    """Triplet (Y, Z, K) on the grid plus ensemble means.

    y has shape (n, M+1); z (n, M) and k (n, M, J) live on nodes 0..M-1
    (they multiply the forward increments of the corresponding interval).
    `node(i)` reads the triplet at one node.  A Picard solver's grid is a
    subclass (`CoefficientRoute.solution`) that reads its means and nodes
    off the regression coefficients and writes y, z and k on first read.
    """

    def __init__(self, ens: PathEnsemble, y: np.ndarray, z: np.ndarray,
                 k: np.ndarray):
        self.ens, self.y, self.z, self.k = ens, y, z, k
        self.recompute_means()

    def node(self, i: int) -> np.ndarray:
        """[Y_i, Z_i', K_i'] per path, (n, 2+J) in Fortran order, with
        i' = min(i, M-1): node M pairs Y_M with the node M-1 Z and K."""
        zi = min(i, self.ens.grid.steps - 1)
        out = np.empty((self.ens.n_paths, 2 + self.ens.levy.n_atoms),
                       order="F")
        out[:, 0] = self.y[:, i]
        out[:, 1] = self.z[:, zi]
        out[:, 2:] = self.k[:, zi]
        return out

    def recompute_means(self):
        self.ybar = self.y.mean(axis=0)
        self.zbar = self.z.mean(axis=0)
        self.kbar = self.k.mean(axis=0)

    @staticmethod
    def zeros(ens: PathEnsemble) -> "SolutionGrid":
        n, m, j = ens.n_paths, ens.grid.steps, ens.levy.n_atoms
        return SolutionGrid(ens, np.zeros((n, m + 1)), np.zeros((n, m)),
                            np.zeros((n, m, j)))


def mean_functional_eval(phi: MeanFunctional, sol: SolutionGrid, i: int
                         ) -> np.ndarray:
    """Ensemble mean of phi applied pathwise at node i, shape (d,)."""
    return _phi_mean(phi, sol.node(i))


def _phi_mean(phi: MeanFunctional, v: np.ndarray) -> np.ndarray:
    """Ensemble mean of phi over node values [Y | Z | K] (n, 2+J), (d,):
    einsum sums the columns of the catalog's C-ordered (n, d) sample in
    one walk, where a mean over axis 0 is strided."""
    v = phi.eval(v[:, 0], v[:, 1], v[:, 2:])
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

    def as_driver(self, grid, levy) -> DriverSpec:
        """The equation of these coefficients as a generic driver on
        `grid`, for feeding the Picard solver.  The mean channel is
        (E[Y], E[Z], E[K_j]...)."""
        nj = levy.n_atoms
        lip = max(
            np.abs(self.a1).max() + np.abs(self.a2).max(),
            np.abs(self.b1).max() + np.abs(self.b2).max(),
            (np.abs(self.e1).max() + np.abs(self.e2).max())
            * np.sqrt(max(levy.total_mass, 1.0)) if nj else 0.0,
        )
        return affine_driver(
            grid, nj, 2 + nj, lip, "linear", y=self.a1, z=self.b1,
            k=self.e1 * levy.weights, const=self.g,
            mu=np.column_stack([self.a2, self.b2, self.e2 * levy.weights]),
        )


@dataclass(frozen=True)
class LinearCoefficients:
    """Deterministic coefficients of the linear mean-field equation

    dY = -[a1 Y + b1 Z + sum_j e1_j K_j w_j
           + a2 E[Y] + b2 E[Z] + sum_j e2_j E[K_j] w_j + g(t)] dt
         + Z dB + sum_j K_j dNtilde_j,   Y(T) = terminal.

    Each alpha, beta and gamma is a number or a callable of t, each eta a
    number, one value per atom or a callable of (t, mark); `on_grid`
    names a coefficient of another form or not finite in a ConfigError.
    gamma is deterministic here; the closed-form engine adds a pathwise
    running cost, its `gamma_path`, to it (the utility module passes one).
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
        return CoefficientGrid(
            a1=_on_nodes(self.alpha1, "alpha1", nodes),
            a2=_on_nodes(self.alpha2, "alpha2", nodes),
            b1=_on_nodes(self.beta1, "beta1", nodes),
            b2=_on_nodes(self.beta2, "beta2", nodes),
            e1=_on_nodes(self.eta1, "eta1", nodes, marks),
            e2=_on_nodes(self.eta2, "eta2", nodes, marks),
            g=_on_nodes(self.gamma, "gamma", nodes),
        )

    def as_driver(self, grid, levy) -> DriverSpec:
        """The same equation expressed as a generic driver, for feeding the
        Picard solver (`CoefficientGrid.as_driver` of `on_grid`)."""
        return self.on_grid(grid, levy).as_driver(grid, levy)


# ---------------------------------------------------------------------------
# Assumption probes
# ---------------------------------------------------------------------------

_PROBE_BOX = 5.0     # probe coordinates are uniform on [-box, box]
_PROBE_SLACK = 1.05  # a sampled constant may exceed the declared one by 5%
_PROBE_STEP = 1e-5   # forward-difference step of the mean functional probe
_DRIVER_SEED, _MEAN_FUNCTIONAL_SEED = 7, 11


def _probe_draw(seed: int, n_probes: int, n_nodes: int, row_width: int,
                node_width: int = 0):
    """n_probes uniform rows on the box, each at a uniform node, in node
    order, as (rows per node (n_nodes,), multinomial; rows (n_probes,
    row_width); node values (n_nodes, node_width))."""
    if n_probes < 1:
        raise ConfigError("n_probes must be >= 1")
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(n_probes, np.full(n_nodes, 1.0 / n_nodes))
    rows = rng.uniform(-_PROBE_BOX, _PROBE_BOX, (n_probes, row_width))
    per_node = rng.uniform(-_PROBE_BOX, _PROBE_BOX, (n_nodes, node_width))
    return counts, rows, per_node


def _probe_blocks(seed: int, n_probes: int, n_nodes: int, row_width: int,
                  node_width: int = 0) -> list:
    """The draw of `_probe_draw` as (i, rows (n_i, row_width), node
    values (node_width,)) for each node i that drew a row."""
    counts, rows, per_node = _probe_draw(seed, n_probes, n_nodes,
                                         row_width, node_width)
    blocks = np.split(rows, np.cumsum(counts)[:-1])
    return [(i, r, per_node[i]) for i, r in enumerate(blocks) if len(r)]


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a_r @ b_r for each row r, with the bits of the 1-D product."""
    return np.matmul(a[:, None], b[:, :, None])[:, 0, 0]


def probe_driver(driver: DriverSpec, grid, levy, n_probes: int = 1000
                 ) -> float:
    """Sampled Lipschitz ratio of the driver over a randomised box.

    Each probed node draws one mean pair.  A catalog driver whose form
    covers the grid is evaluated through the form on all probe rows at
    once, and it is finite at the origin of every node exactly when all
    its coefficients are finite; any other driver is called once per
    mean on each probed node's rows and once at each node's origin.
    Raises when the driver is not finite on a probe or at the origin of
    any node; warns when the largest observed ratio exceeds the declared
    constant by more than the factor 1.05, and returns that ratio.
    """
    nj, d, nodes = levy.n_atoms, driver.mean_dim, grid.nodes
    counts, r, m = _probe_draw(_DRIVER_SEED, n_probes, len(nodes),
                               4 + 2 * nj, 2 * d)
    node = np.repeat(np.arange(len(nodes)), counts)
    y1, y2, z1, z2 = r[:, :4].T
    k1, k2 = r[:, 4:4 + nj], r[:, 4 + nj:]
    m1, m2 = m[:, :d], m[:, d:]
    form = driver.form
    by_form = form is not None and form.k.shape == (len(nodes), nj)
    if by_form:
        finite = np.isfinite(np.column_stack(
            [form.y, form.z, form.k, form.mu, form.const])).all(axis=1)
        if not finite.all():
            raise ConfigError(f"driver not finite at the origin for "
                              f"t={nodes[np.argmin(finite)]:g}")
        # eval's own operations, with its per-node mean term
        f1 = _form_values(form, node, y1, z1, k1,
                          (_rowdot(form.mu, m1) + form.const)[node])
        f2 = _form_values(form, node, y2, z2, k2,
                          (_rowdot(form.mu, m2) + form.const)[node])
    else:
        f1, f2 = np.empty(n_probes), np.empty(n_probes)
        ends = np.cumsum(counts)
        for i in np.flatnonzero(counts):
            rows = slice(ends[i] - counts[i], ends[i])
            f1[rows] = driver(nodes[i], y1[rows], z1[rows], k1[rows], m1[i])
            f2[rows] = driver(nodes[i], y2[rows], z2[rows], k2[rows], m2[i])
    if not (np.isfinite(f1).all() and np.isfinite(f2).all()):
        raise ConfigError("driver produced a non-finite value on probes")
    if not by_form:
        for t in nodes:  # square-summable over the grid at the origin
            zero = driver(float(t), np.zeros(1), np.zeros(1),
                          np.zeros((1, nj)), np.zeros(d))
            if not np.isfinite(zero).all():
                raise ConfigError(
                    f"driver not finite at the origin for t={t:g}")
    dm = m1 - m2
    denom = np.abs(y1 - y2) + np.abs(z1 - z2) \
        + np.sqrt(((k1 - k2) ** 2 * levy.weights).sum(axis=1)) \
        + np.sqrt(_rowdot(dm, dm))[node]
    ok = denom > 1e-12
    worst = float((np.abs(f1 - f2)[ok] / denom[ok]).max(initial=0.0))
    if worst > driver.lipschitz_c * _PROBE_SLACK:
        warnings.warn(
            f"sampled Lipschitz ratio {worst:.4g} exceeds declared "
            f"constant {driver.lipschitz_c:.4g}", stacklevel=2,
        )
    return worst


def probe_mean_functional(phi: MeanFunctional, n_atoms: int,
                          n_probes: int = 1000) -> float:
    """Forward-difference bound check for the mean functional's partials.

    Evaluates phi on all probe rows at once, at the rows and with each of
    y, z and the J jump coordinates stepped: 3 + J calls.  Warns when the
    largest quotient exceeds the declared bound by more than the factor
    1.05, and returns that quotient.
    """
    _, r, _ = _probe_draw(_MEAN_FUNCTIONAL_SEED, n_probes, 1, 2 + n_atoms)
    base = phi.eval(r[:, 0], r[:, 1], r[:, 2:])
    worst = 0.0
    for c in range(2 + n_atoms):
        s = r.copy()
        s[:, c] += _PROBE_STEP
        diff = phi.eval(s[:, 0], s[:, 1], s[:, 2:]) - base
        worst = max(worst, float(np.abs(diff).max()) / _PROBE_STEP)
    if worst > phi.derivative_bound * _PROBE_SLACK:
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
