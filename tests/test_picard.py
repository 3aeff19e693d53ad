import dataclasses
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import mfbsde
from mfbsde import (
    ConfigError,
    DriverSpec,
    LevyMeasure,
    LinearCoefficients,
    MeanFunctional,
    NumericalError,
    RegressionBasis,
    affine_driver,
    brownian_linear,
    build_grid,
    constant,
    contraction_check,
    default_beta,
    jump_linear,
    mean_y,
    mean_y_squared,
    mean_yzk,
    mean_yzk_avg,
    picard_full_freeze,
    picard_mean_freeze,
    shift_to_q,
    simulate_ensemble,
    smooth_of_brownian,
)
from mfbsde.coefficient_route import _Regressions
from mfbsde.core import mean_functional_eval, terminal_value

from conftest import mc_se
from path_map import (
    _PathRegressions,
    _frozen_driver,
    _mean_channel,
    _path_freeze,
    condexp,
    path_contraction_check,
    solve_inner,
)


def zero_driver(dim=1):
    return DriverSpec(lambda t, y, z, k, mu: np.zeros_like(y), 0.0, dim,
                      name="zero")


def const_driver(c, dim=1):
    return DriverSpec(lambda t, y, z, k, mu: np.full_like(y, c), 0.0, dim,
                      name="constant")


class TestCondexp:
    def test_constant_reproduced_exactly(self, ens_small, basis):
        fitted = condexp(np.full(ens_small.n_paths, 4.5), basis, ens_small,
                         10)
        assert np.allclose(fitted, 4.5, atol=1e-12)

    def test_martingale_projection(self, ens_small, basis):
        """Regressing B(T) at node i recovers B(t_i) with unit slope."""
        bt = ens_small.brownian_nodes[:, -1]
        i = 25
        fitted = condexp(bt, basis, ens_small, i)
        bi = ens_small.brownian_nodes[:, i]
        # oracle: plain least squares slope of B(T) on B(t_i), with its SE
        x = np.column_stack([np.ones_like(bi), bi])
        coef, res, *_ = np.linalg.lstsq(x, bt, rcond=None)
        resid = bt - x @ coef
        cov = np.linalg.inv(x.T @ x) * (resid @ resid) / (len(bt) - 2)
        assert abs(coef[1] - 1.0) <= 3 * math.sqrt(cov[1, 1])
        # fitted values track B(t_i)
        slope = np.polyfit(bi, fitted, 1)[0]
        assert abs(slope - 1.0) <= 3 * math.sqrt(cov[1, 1]) + 0.05

    def test_independent_targets_give_sample_mean(self, ens_small, basis):
        rng = np.random.default_rng(3)
        noise = rng.normal(2.0, 1.0, ens_small.n_paths)
        fitted = condexp(noise, basis, ens_small, 12)
        assert abs(fitted.mean() - noise.mean()) <= 1e-10
        assert fitted.std() <= 5 * mc_se(noise) * math.sqrt(
            _Regressions(ens_small, basis).n_cols
        )

    def test_needs_more_paths_than_columns(self, grid50, levy1, basis):
        tiny = simulate_ensemble(grid50, levy1, 3, seed=1)
        with pytest.raises(ConfigError, match="paths"):
            condexp(np.zeros(3), basis, tiny, 0)


class TestSolveInner:
    def test_constant_terminal_exact(self, ens_small, basis):
        f0 = np.zeros((ens_small.n_paths, ens_small.grid.steps))
        sol = solve_inner(f0, constant(3.0), ens_small, basis)
        assert np.allclose(sol.y, 3.0, atol=1e-10)
        assert np.abs(sol.z).max() <= 1e-10
        assert np.abs(sol.k).max() <= 1e-10

    def test_unit_driver_gives_one_minus_t(self, ens_small, basis):
        f1 = np.ones((ens_small.n_paths, ens_small.grid.steps))
        sol = solve_inner(f1, constant(0.0), ens_small, basis)
        expected = 1.0 - ens_small.grid.nodes
        assert np.allclose(sol.ybar, expected, atol=1e-10)

    def test_z_converges_to_closed_form_derivative(self, grid100, levy1,
                                                   basis):
        """Mean-square gap between the sweep's Z (the exact maps of the
        regressed Y coefficients) and the terminal's (constant) Brownian
        derivative shrinks as paths grow."""
        slope = 1.3
        gaps = []
        for n in (2000, 16000):
            ens = simulate_ensemble(grid100, levy1, n, seed=61)
            f0 = np.zeros((n, grid100.steps))
            sol = solve_inner(f0, brownian_linear(slope, 0.0), ens, basis)
            gaps.append(((sol.z - slope) ** 2).mean())
        assert gaps[1] <= gaps[0] / 2.0

    def test_brownian_terminal_martingale_representation(self, grid100,
                                                         levy1, basis):
        """Node-averaged Z and K across independent batches: Z tracks the
        terminal's Brownian slope, K is centred at zero.  Batch means give
        an SE that includes the regression-chain noise."""
        zstats, kstats = [], []
        for b in range(20):
            ens = simulate_ensemble(grid100, levy1, 2000, seed=900 + b)
            f0 = np.zeros((2000, grid100.steps))
            sol = solve_inner(f0, brownian_linear(1.0, 0.0), ens, basis)
            zstats.append(sol.z[:, :-1].mean())
            kstats.append(sol.k[:, :-1, 0].mean())
        zstats, kstats = np.asarray(zstats), np.asarray(kstats)
        for stats, target in ((zstats, 1.0), (kstats, 0.0)):
            se = stats.std(ddof=1) / math.sqrt(len(stats))
            assert abs(stats.mean() - target) <= 3 * se


@pytest.mark.parametrize("measure", ["P", "Q"])
def test_fused_sweep_matches_condexp_reference(grid50, levy2, measure):
    """The one-pass node step of solve_inner equals the plain sequence of
    least-squares fits (condexp, on one set-up): Y, then the centred
    residual, then Z and K."""
    ens = simulate_ensemble(grid50, levy2, 3000, seed=41)
    if measure == "Q":
        ens = shift_to_q(ens, 0.3, lambda t, z: 0.2 * z)
    bn = ens.brownian_nodes
    jn = ens.count_nodes - np.multiply.outer(ens.grid.nodes, levy2.weights)
    basis = RegressionBasis(degree=3, extras={"sin_b": np.sin(bn)})
    tc = smooth_of_brownian([0.5, 1.0, 0.3])
    f_hat = 0.3 * np.cos(bn[:, :-1]) + 0.2 * jn[:, :-1, 0] \
        - 0.1 * jn[:, :-1, 1] ** 2
    sol = solve_inner(f_hat, tc, ens, basis)

    n, m, dt = ens.n_paths, ens.grid.steps, ens.grid.dt
    db = np.diff(bn, axis=1)
    dn = np.diff(ens.count_nodes.astype(float), axis=1)
    y = np.empty((n, m + 1))
    y[:, m] = terminal_value(tc, ens)
    z = np.empty((n, m))
    k = np.empty((n, m, 2))
    fit = _Regressions(ens, basis).fit
    for i in reversed(range(m)):
        ynext = y[:, i + 1]
        y[:, i] = fit(i, ynext + f_hat[:, i] * dt)
        resid = ynext - fit(i, ynext)
        dm_b = db[:, i] - ens.bm_drift[i]
        z[:, i] = fit(i, resid * dm_b) / dt
        for a in range(2):
            dm_n = dn[:, i, a] - ens.jump_comp[i, a]
            k[:, i, a] = fit(i, resid * dm_n) / ens.jump_comp[i, a]
    for got, want in ((sol.y, y), (sol.z, z), (sol.k, k)):
        assert np.abs(want).max() > 0.1
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()


class TestFullFreeze:
    def test_zero_driver_converges_first_iteration(self, ens_small, basis):
        """One iteration, and the path sweep's Y: the solver runs on
        regression coefficients, so the two agree to rounding."""
        f0 = np.zeros((ens_small.n_paths, ens_small.grid.steps))
        direct = solve_inner(f0, constant(2.0), ens_small, basis)
        sol, rep = picard_full_freeze(zero_driver(), mean_y(),
                                      constant(2.0), ens_small, basis)
        assert rep.converged and rep.iterations == 1
        assert np.abs(sol.y - direct.y).max() <= 1e-12 * 2.0

    def test_mean_feedback_ode(self, ens_small, basis):
        """driver = E[Y], terminal 1: backward ODE with value e at 0."""
        drv = DriverSpec(lambda t, y, z, k, mu: np.full_like(y, mu[0]),
                         1.0, 1, name="mean")
        sol, rep = picard_full_freeze(drv, mean_y(), constant(1.0),
                                      ens_small, basis, check=False)
        assert rep.converged
        assert sol.y[:, 0].mean() == pytest.approx(math.e, abs=3e-2)

    def test_decay_ode(self, ens_small, basis):
        drv = DriverSpec(lambda t, y, z, k, mu: -y, 1.0, 1, name="-y")
        sol, rep = picard_full_freeze(drv, mean_y(), constant(1.0),
                                      ens_small, basis, check=False)
        assert sol.y[:, 0].mean() == pytest.approx(math.exp(-1.0),
                                                   abs=3e-2)

    def test_terminal_exact_every_iterate(self, ens_small, basis):
        xi = brownian_linear(0.7, 0.2)
        from mfbsde.core import terminal_value

        drv = DriverSpec(lambda t, y, z, k, mu: 0.3 * y, 0.3, 1)
        sol, _ = picard_full_freeze(drv, mean_y(), xi, ens_small, basis,
                                    check=False)
        assert np.array_equal(sol.y[:, -1], terminal_value(xi, ens_small))

    def test_dynamic_consistency(self, ens_small, basis):
        """Accumulated process has conditionally-centred increments."""
        coeffs = LinearCoefficients(alpha1=0.2, beta1=0.2,
                                    terminal=brownian_linear(1.0, 0.0))
        drv = coeffs.as_driver(ens_small.grid, ens_small.levy)
        phi = mean_yzk(1)
        sol, _ = picard_full_freeze(drv, phi, coeffs.terminal, ens_small,
                                    basis, check=False)
        mu = np.stack([mean_functional_eval(phi, sol, i)
                       for i in range(ens_small.grid.steps + 1)])
        f_hat = _frozen_driver(drv, sol, mu)
        dt = ens_small.grid.dt
        reg = _Regressions(ens_small, basis)
        for i in (0, 20, 40):
            incr = sol.y[:, i + 1] + f_hat[:, i] * dt - sol.y[:, i]
            fitted = reg.fit(i, incr)
            assert np.abs(fitted).max() <= 3 * mc_se(incr) * math.sqrt(
                ens_small.n_paths
            ) * 0.05 + 1e-9

    def test_same_seed_same_result(self, grid50, levy1, basis):
        drv = DriverSpec(lambda t, y, z, k, mu: 0.2 * y + 0.1 * mu[0],
                         0.3, 1)
        outs = []
        for _ in range(2):
            ens = simulate_ensemble(grid50, levy1, 2000, seed=77)
            sol, _ = picard_full_freeze(drv, mean_y(), constant(1.0), ens,
                                        basis, check=False)
            outs.append(sol.y)
        assert np.array_equal(outs[0], outs[1])

    def test_nonconvergence_reported(self, ens_small, basis):
        drv = DriverSpec(lambda t, y, z, k, mu: np.full_like(y, mu[0]),
                         1.0, 1)
        with pytest.warns(UserWarning, match="did not converge"):
            _, rep = picard_full_freeze(drv, mean_y(), constant(1.0),
                                        ens_small, basis, max_iter=2,
                                        check=False)
        assert not rep.converged
        assert rep.iterations == 2
        assert len(rep.iter_s) == 2 and min(rep.iter_s) > 0.0

    def test_step_size_guard(self, levy1, basis):
        coarse = build_grid(1.0, 1)
        ens = simulate_ensemble(coarse, levy1, 100, seed=1)
        drv = DriverSpec(lambda t, y, z, k, mu: 2.0 * y, 2.0, 1)
        with pytest.raises(ConfigError, match="refine"):
            picard_full_freeze(drv, mean_y(), constant(1.0), ens, basis,
                               check=False)


@pytest.mark.parametrize("name,solve", [
    ("max_iter", lambda ens, basis: picard_full_freeze(
        zero_driver(), mean_y(), constant(1.0), ens, basis, max_iter=0)),
    ("max_iter", lambda ens, basis: picard_mean_freeze(
        zero_driver(), constant(1.0), ens, basis, max_iter=0)),
    ("inner_max_iter", lambda ens, basis: picard_mean_freeze(
        zero_driver(), constant(1.0), ens, basis, inner_max_iter=-1)),
], ids=["full_freeze", "mean_freeze", "mean_freeze_inner"])
def test_iteration_cap_below_one_rejected(ens_small, basis, name, solve):
    """A cap below one would run no iteration and leave nothing to
    report; it is a ConfigError naming the cap."""
    with pytest.raises(ConfigError, match=rf"^{name} must be >= 1"):
        solve(ens_small, basis)


class TestMeanFreeze:
    def test_matches_full_freeze_when_mean_free(self, ens_small, basis):
        drv = DriverSpec(lambda t, y, z, k, mu: 0.2 * y, 0.2, 1)
        s1, _ = picard_full_freeze(drv, mean_y(), brownian_linear(1.0, 0.0),
                                   ens_small, basis, check=False)
        s2, rep = picard_mean_freeze(drv, brownian_linear(1.0, 0.0),
                                     ens_small, basis, check=False)
        assert np.array_equal(s1.y, s2.y)
        assert rep.converged
        assert rep.deltas[-1] == 0.0

    def test_mean_ode(self, ens_small, basis):
        drv = DriverSpec(lambda t, y, z, k, mu: np.full_like(y, mu[0]),
                         1.0, 1)
        sol, rep = picard_mean_freeze(drv, constant(1.0), ens_small, basis,
                                      check=False)
        assert sol.y[:, 0].mean() == pytest.approx(math.e, abs=3e-2)

    def test_inner_nonconvergence_counted(self, ens_small, basis):
        drv = DriverSpec(lambda t, y, z, k, mu: np.full_like(y, mu[0]),
                         1.0, 1)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            _, rep = picard_mean_freeze(drv, constant(1.0), ens_small,
                                        basis, max_iter=3, inner_max_iter=1,
                                        check=False)
        messages = [str(w.message) for w in caught]
        assert messages.count("mean-freeze inner solve did not converge") == 3
        assert rep.inner_unconverged == rep.iterations == 3
        assert len(rep.iter_s) == 3

    def test_first_outer_step_is_a_full_freeze(self, ens_small, basis):
        """The mean freeze nests the full freeze: one outer step
        (max_iter=1) gives the y, z and k of a full freeze, byte for
        byte, of the same callable run to inner_max_iter sweeps with its
        mean argument fixed at the per-node values that the mean freeze
        passes in its first sweep."""
        def fn(t, y, z, k, mu):
            return -0.5 * y + 0.3 * np.sin(z) + 0.4 * mu[0]

        calls = []

        def recording(t, y, z, k, mu):
            calls.append((t, mu.copy()))
            return fn(t, y, z, k, mu)

        tc, nodes = smooth_of_brownian([0.5, 1.0, 0.2]), ens_small.grid.nodes
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            got, rep = picard_mean_freeze(DriverSpec(recording, 0.5, 1), tc,
                                          ens_small, basis, max_iter=1,
                                          inner_max_iter=50, check=False)
        assert rep.iterations == 1 and not rep.converged
        fixed = dict(calls[:nodes.size])
        assert sorted(fixed) == list(nodes)
        frozen = DriverSpec(lambda t, y, z, k, mu: fn(t, y, z, k, fixed[t]),
                            0.5, 1)
        want, want_rep = picard_full_freeze(frozen, mean_y(), tc, ens_small,
                                            basis, max_iter=50, check=False)
        assert want_rep.converged
        for name in ("y", "z", "k"):
            assert getattr(got, name).tobytes() == \
                getattr(want, name).tobytes(), name

    def test_super_geometric_decay(self, ens_small, basis):
        drv = DriverSpec(lambda t, y, z, k, mu: np.full_like(y, mu[0]),
                         1.0, 1)
        _, rep = picard_mean_freeze(drv, constant(1.0), ens_small, basis,
                                    tol=1e-12, max_iter=12, check=False)
        d = [x for x in rep.deltas if x > 1e-26]
        ratios = [d[i + 1] / d[i] for i in range(len(d) - 1)]
        assert all(r2 < r1 for r1, r2 in zip(ratios, ratios[1:]))

    def test_requires_scalar_mean_channel(self, ens_small, basis):
        drv = DriverSpec(lambda t, y, z, k, mu: y, 1.0, 2)
        with pytest.raises(ConfigError, match="mean"):
            picard_mean_freeze(drv, constant(1.0), ens_small, basis,
                               check=False)


class TestContraction:
    def test_zero_driver_ratio_zero(self, ens_small, basis):
        ratios = contraction_check(zero_driver(), mean_y(), constant(1.0),
                                   ens_small, basis, n_pairs=3)
        assert max(ratios) == 0.0

    def test_lipschitz_driver_contracts(self, ens_small, basis):
        coeffs = LinearCoefficients(alpha1=0.15, alpha2=0.1, beta1=0.1,
                                    beta2=0.05, eta1=0.1, eta2=0.05,
                                    terminal=constant(1.0))
        drv = coeffs.as_driver(ens_small.grid, ens_small.levy)
        ratios = contraction_check(drv, mean_yzk(1), constant(1.0),
                                   ens_small, basis, n_pairs=10)
        assert max(ratios) <= 0.5 + 0.05

    def test_equal_inputs_score_zero(self, ens_small, basis, monkeypatch):
        """With every draw equal, each pair maps equal inputs to equal
        outputs, and the pair scores 0.0 where the ratio is 0/0."""
        monkeypatch.setattr(np.random, "default_rng", lambda seed: (
            SimpleNamespace(normal=lambda size: np.full(size, 0.5))))
        coeffs = LinearCoefficients(alpha1=0.15, beta1=0.1, eta1=0.1)
        drv = coeffs.as_driver(ens_small.grid, ens_small.levy)
        ratios = contraction_check(drv, mean_yzk(1), constant(1.0),
                                   ens_small, basis, n_pairs=3)
        assert ratios == [0.0, 0.0, 0.0]

    def test_negative_beta_rejected(self, ens_small, basis):
        with pytest.raises(ConfigError, match="beta"):
            contraction_check(zero_driver(), mean_y(), constant(1.0),
                              ens_small, basis, beta=-1.0)


# ---------------------------------------------------------------------------
# The solvers against the Picard freezes on the paths
# ---------------------------------------------------------------------------

def _without_forms(driver, phi):
    """The same driver and functional as custom callables: no structured
    forms, so the solver evaluates them pathwise."""
    return dataclasses.replace(driver, form=None), \
        dataclasses.replace(phi, form=None)


def _custom_driver(kind, levy, dim):
    """Custom callables: a nonlinear driver in (y, z, k, mu), and the
    mean-growth/zero pair of the comparison theorem."""
    kw, mw = 0.1 * levy.weights, np.linspace(0.05, 0.1, dim)
    fn = {"nonlinear": lambda t, y, z, k, mu: 0.2 * np.sin(y)
          + 0.15 * np.abs(z) + k @ kw + mu @ mw + 0.05,
          "mean-growth": lambda t, y, z, k, mu: np.full_like(
              y, max(mu[0], 0.0)),
          "zero": lambda t, y, z, k, mu: np.zeros_like(y)}[kind]
    return DriverSpec(fn, 1.0, dim, name=kind)


def _catalog_problem(atoms, measure, extras, phi_name, source, seed,
                     scale=1.0, driver_kind="catalog"):
    """An ensemble, basis, driver, functional and terminal for one case
    of the route-equivalence matrix (25 steps, 2000 paths); `scale`
    multiplies the atom weights."""
    grid = build_grid(1.0, 25)
    levy = LevyMeasure.from_atoms(
        [(1.0, 0.8 * scale), (-0.5, 0.6 * scale)][:atoms])
    ens = simulate_ensemble(grid, levy, 2000, seed=seed)
    if measure == "Q":
        ens = shift_to_q(ens, 0.3, lambda t, z: 0.2 * z)
    bn = ens.brownian_nodes
    basis = RegressionBasis(
        degree=2, extras={"sin_b": np.sin(bn)} if extras else {})
    phi = {"mean_y": mean_y(), "mean_yzk": mean_yzk(atoms),
           "mean_yzk_avg": mean_yzk_avg(levy),
           "mean_y_squared": mean_y_squared(1.0),
           "y_and_y2": MeanFunctional(
               2, lambda y, z, k: np.column_stack([y, y * y]), 10.0,
               "y_and_y2")}[phi_name]
    if driver_kind != "catalog":
        driver = _custom_driver(driver_kind, levy, phi.dim)
    elif phi_name == "mean_yzk":
        coeffs = LinearCoefficients(
            alpha1=lambda t: 0.2 + 0.1 * t, alpha2=0.1, beta1=0.25,
            beta2=0.1, eta1=0.2, eta2=0.1, gamma=lambda t: 0.05 * t)
        driver = coeffs.as_driver(grid, levy)
    else:
        driver = affine_driver(
            grid, atoms, phi.dim, 1.0, y=0.2, z=0.15,
            k=0.1 * levy.weights, mu=np.linspace(0.05, 0.1, phi.dim),
            const=0.05)
    if source:
        driver.source = 0.1 * np.cos(bn)
    tc = jump_linear(0.7) if atoms else smooth_of_brownian([0.5, 1.0, 0.2])
    return ens, basis, driver, phi, tc


ROUTE_CASES = [
    # (atoms, measure, extras, mean functional, source, freeze[, atom
    # weight scale: 8 gives steps with dN >= 2 on some paths, 0.005
    # steps on which no path jumps, and with two atoms a second atom
    # that first jumps after the first step[, custom driver]])
    (0, "P", False, "mean_y", False, "full"),
    (1, "P", True, "mean_yzk", False, "full"),
    (2, "Q", False, "mean_yzk", True, "full"),
    (2, "P", False, "mean_yzk_avg", False, "full"),
    (1, "Q", True, "mean_yzk_avg", False, "full"),
    (0, "Q", True, "mean_y_squared", True, "full"),
    (2, "P", True, "mean_y_squared", False, "full"),
    (1, "P", False, "mean_y", True, "full"),
    (0, "P", True, "mean_y", False, "mean"),
    (1, "Q", False, "mean_y", True, "mean"),
    (2, "Q", True, "mean_y", False, "mean"),
    (2, "P", True, "mean_yzk", False, "full", 8.0),
    (1, "Q", False, "mean_yzk_avg", True, "full", 0.005),
    (2, "Q", False, "mean_y", False, "mean", 8.0),
    (1, "P", False, "mean_y_squared", True, "full", 0.005),
    (2, "Q", True, "mean_yzk", False, "full", 0.005),
    # custom callables: a nonlinear driver with a catalog phi, a catalog
    # driver with a phi without a form (y and y^2), both custom, and the
    # mean-growth/zero pair of the comparison theorem
    (0, "P", False, "mean_y", False, "full", 1.0, "nonlinear"),
    (1, "Q", True, "mean_yzk", False, "full", 1.0, "nonlinear"),
    (2, "P", False, "mean_yzk_avg", True, "full", 1.0, "nonlinear"),
    (1, "P", False, "y_and_y2", False, "full"),
    (2, "Q", True, "y_and_y2", True, "full"),
    (0, "Q", False, "y_and_y2", False, "full", 1.0, "nonlinear"),
    (1, "Q", False, "mean_y", True, "mean", 1.0, "nonlinear"),
    (0, "P", False, "mean_y", False, "mean", 1.0, "mean-growth"),
    (2, "Q", True, "mean_y", False, "mean", 1.0, "mean-growth"),
    (1, "P", False, "mean_y", False, "mean", 1.0, "zero"),
    (2, "Q", False, "mean_y", False, "mean", 1.0, "zero"),
]

# every case with its defaults filled in, under its own id
ROUTE_PARAMS = pytest.mark.parametrize(
    "atoms,measure,extras,phi_name,source,freeze,scale,driver_kind",
    [c + (1.0, "catalog")[len(c) - 6:] for c in ROUTE_CASES],
    ids=[f"{c[0]}atoms-{c[1]}-{'extras' if c[2] else 'plain'}-{c[3]}"
         f"{'-source' if c[4] else ''}-{c[5]}"
         f"{f'-weights{c[6]:g}' if len(c) > 6 and c[6] != 1.0 else ''}"
         f"{f'-{c[7]}' if len(c) > 7 else ''}"
         for c in ROUTE_CASES])


@ROUTE_PARAMS
def test_coefficient_route_matches_path_sweep(atoms, measure, extras,
                                              phi_name, source, freeze,
                                              scale, driver_kind):
    """Every solve iterates on regression coefficients; the Picard
    freezes and the contraction check on the paths (`path_map`) are its
    oracle.  The problem as given and, when it has forms, the same
    problem as custom callables give the oracle's Y, Z, K and Picard
    deltas to 1e-10 of each array's largest entry, in the same number of
    iterations, and its contraction ratios to 1e-10 relative.  The
    scaled-weight cases reach the jump products' edge cases: paths with
    several jumps in one step, and steps on which no path jumps."""
    ens, basis, driver, phi, tc = _catalog_problem(
        atoms, measure, extras, phi_name, source, seed=300 + atoms,
        scale=scale, driver_kind=driver_kind)
    dn = np.diff(ens.count_nodes, axis=1)
    if scale > 1.0:
        assert dn.max() >= 2
    elif scale < 1.0:
        assert (dn.max(axis=0) == 0).any() and dn.max() >= 1
        # with two atoms, one has no jump in the first step
        assert atoms < 2 or not ens.count_nodes[:, 1].any(axis=0).all()
    ref, want = _path_freeze(driver, phi, tc, ens, basis, freeze)
    assert want["converged"]
    # a fixed weight here; the default beta has a test of its own
    want_ratios = path_contraction_check(driver, phi, tc, ens, basis,
                                         beta=3.0, n_pairs=3)
    assert np.isfinite(want_ratios).all()
    problems = [(driver, phi)]
    if driver.form is not None or phi.form is not None:
        problems.append(_without_forms(driver, phi))
    for drv, fn in problems:
        if freeze == "full":
            sol, rep = picard_full_freeze(drv, fn, tc, ens, basis,
                                          check=False)
        else:
            sol, rep = picard_mean_freeze(drv, tc, ens, basis, check=False)
        assert rep.setup_s > 0.0
        for got, exp in ((sol.y, ref.y), (sol.z, ref.z), (sol.k, ref.k)):
            if exp.size:
                assert np.abs(exp).max() > 1e-3
                assert np.abs(got - exp).max() <= 1e-10 * np.abs(exp).max()
        for key in ("deltas", "integrated"):
            got, exp = np.asarray(getattr(rep, key)), np.asarray(want[key])
            assert got.shape == exp.shape
            assert np.abs(got - exp).max() <= 1e-10 * exp.max()
        assert (rep.iterations, rep.converged) == \
            (want["iterations"], want["converged"])
        assert rep.cond_max == pytest.approx(want["cond_max"], rel=1e-8)
        ratios = contraction_check(drv, fn, tc, ens, basis, beta=3.0,
                                   n_pairs=3)
        np.testing.assert_allclose(ratios, want_ratios, rtol=1e-10, atol=0,
                                   equal_nan=False)


def _eager_write(route, it):
    """Y, Z and K written in one pass over the nodes, V_i = X_i [b_i |
    zk_i'] as one product per node below M, and per entry the scale of
    its rounding, the sum of |x_ij c_j| over the basis.  Y_M comes from
    the route's node writer, which writes xi as it is."""
    ens, m = route.ens, route.m
    n, nj = ens.n_paths, ens.levy.n_atoms
    y, z, k = np.empty((n, m + 1)), np.empty((n, m)), np.empty((n, m, nj))
    scale = np.empty((n, m + 1, 2 + nj))
    coefs = np.concatenate([it.b[:, None], it.zk], axis=1)
    for i in range(m):
        x = route.reg.design(i)
        v = x @ coefs[i].T
        y[:, i], z[:, i], k[:, i] = v[:, 0], v[:, 1], v[:, 2:]
        scale[:, i] = np.abs(x) @ np.abs(coefs[i]).T
    route.write(it, m, y[:, m:], slice(1))
    scale[:, m, 0] = np.abs(y[:, m])
    return (y, z, k), (scale[:, :, 0], scale[:, :m, 1], scale[:, :m, 2:])


@ROUTE_PARAMS
def test_solution_written_on_read(atoms, measure, extras, phi_name, source,
                                  freeze, scale, driver_kind):
    """The solvers' SolutionGrid holds the node means off the coefficients
    and writes y, z and k on first read, one column product at a time.
    They equal the arrays written in one pass with one product per node
    (V_i = X_i [b_i | zk_i']) to 1e-15 of each entry's rounding scale,
    the means equal theirs to 1e-12, and a second read returns the same
    array.  At every node 0..M, `node(i)` has the bytes of the written
    columns: Y_i, then Z and K at node min(i, M-1).  The problem as given
    and as custom callables."""
    ens, basis, driver, phi, tc = _catalog_problem(
        atoms, measure, extras, phi_name, source, seed=300 + atoms,
        scale=scale, driver_kind=driver_kind)
    m = ens.grid.steps
    problems = [(driver, phi)]
    if driver.form is not None or phi.form is not None:
        problems.append(_without_forms(driver, phi))
    for drv, fn in problems:
        if freeze == "full":
            sol, _ = picard_full_freeze(drv, fn, tc, ens, basis, check=False)
        else:
            sol, _ = picard_mean_freeze(drv, tc, ens, basis, check=False)
        nodes = [sol.node(i) for i in range(m + 1)]
        assert not {"y", "z", "k"} & set(vars(sol))
        arrays, scales = _eager_write(sol.route, sol.it)
        for name, want, sc in zip("yzk", arrays, scales):
            got = getattr(sol, name)
            assert got.shape == want.shape and got.flags.f_contiguous
            assert np.all(np.abs(got - want) <= 1e-15 * sc)
            assert getattr(sol, name) is got
        for got, want in ((sol.ybar, arrays[0]), (sol.zbar, arrays[1]),
                          (sol.kbar, arrays[2])):
            assert np.abs(got - want.mean(axis=0)).max(initial=0.0) <= 1e-12
        for i, v in enumerate(nodes):
            zi = min(i, m - 1)
            assert v.shape == (ens.n_paths, 2 + ens.levy.n_atoms)
            assert v[:, 0].tobytes() == sol.y[:, i].tobytes()
            assert v[:, 1].tobytes() == sol.z[:, zi].tobytes()
            assert v[:, 2:].tobytes() == sol.k[:, zi].tobytes()


FREEZE_RSS = """
import resource, sys
from mfbsde import (LevyMeasure, LinearCoefficients, RegressionBasis,
                    brownian_linear, build_grid, mean_yzk,
                    picard_full_freeze, simulate_ensemble)
grid = build_grid(1.0, 50)
levy = LevyMeasure.from_atoms([(1.0, 0.5)])
ens = simulate_ensemble(grid, levy, 100000, seed=5)
c = LinearCoefficients(alpha1=0.2, alpha2=0.1, beta1=0.25, beta2=0.1,
                       eta1=0.2, eta2=0.1, terminal=brownian_linear(0.5, 1.0))
driver = c.as_driver(grid, levy)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
sol, rep = picard_full_freeze(driver, mean_yzk(1), c.terminal, ens,
                              RegressionBasis(2), check=False)
assert rep.converged and sol.y[:, 0].mean() > 0.0
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print((after - before) * 1024)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="ru_maxrss is in KiB on Linux only")
def test_full_freeze_reading_y0_writes_y_only():
    """A full freeze at 1e5 paths and M=50 whose caller reads only
    sol.y[:, 0] grows the peak RSS by less than three (n, M+1) float
    arrays: y is written, z and k are not."""
    src = str(Path(mfbsde.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    grown = int(subprocess.run(
        [sys.executable, "-c", FREEZE_RSS], env=env, check=True,
        capture_output=True, text=True).stdout)
    assert grown < 3 * 100000 * 51 * 8


def test_contraction_check_at_large_default_beta():
    """y_and_y2's derivative bound 10 gives the default beta = 1 + 12 *
    10^2 = 1201, and e^{beta t} overflows float64 beyond t = 0.59 at
    T = 1.  The weight e^{beta (t - T)} keeps the ratios finite, with no
    RuntimeWarning, and equal to the oracle's to 1e-10 relative."""
    ens, basis, driver, phi, tc = _catalog_problem(
        1, "P", False, "y_and_y2", False, seed=301)
    assert default_beta(driver, phi) == pytest.approx(1201.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        ratios = contraction_check(driver, phi, tc, ens, basis, n_pairs=3)
        want = path_contraction_check(driver, phi, tc, ens, basis,
                                      n_pairs=3)
    assert np.isfinite(ratios).all() and min(ratios) > 0.0
    np.testing.assert_allclose(ratios, want, rtol=1e-10, atol=0)


@pytest.mark.parametrize("route", ["coefficients", "paths"])
def test_design_passes_fixed_on_coefficient_route(monkeypatch, ens_small,
                                                  basis, route):
    """A solve builds each node's design below M once (set-up) and the
    node M-1 design once more for xi's column (route), however many
    iterations it runs, and never a node-M design: Y_M = xi.  Custom
    callables are evaluated on the iterate written with one more design
    per node below M and iteration, which serves the driver and the mean
    functional alike.  The solution writes nothing until it is read: the
    first read of y, z or k costs one design per node below M, a second
    read of the same array none."""
    coeffs = LinearCoefficients(alpha1=0.2, alpha2=0.1, beta1=0.25,
                                beta2=0.1, eta1=0.2, eta2=0.1)
    driver = coeffs.as_driver(ens_small.grid, ens_small.levy)
    phi = mean_yzk(1)
    if route == "paths":
        driver, phi = _without_forms(driver, phi)
    calls = []
    design = _Regressions.design

    def counting(self, i, out=None):
        calls.append(i)
        return design(self, i, out)

    monkeypatch.setattr(_Regressions, "design", counting)
    counts = []
    m = ens_small.grid.steps
    for max_iter in (2, 5):
        calls.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            sol, rep = picard_full_freeze(driver, phi,
                                          brownian_linear(1.0, 0.0),
                                          ens_small, basis, tol=1e-300,
                                          max_iter=max_iter, check=False)
        assert rep.iterations == max_iter
        counts.append(len(calls))
    per_iter = 0 if route == "coefficients" else 1
    assert counts == [(1 + per_iter * it) * m + 1 for it in (2, 5)]
    assert m not in calls
    calls.clear()
    sol.y[:, 0]
    assert sorted(calls) == list(range(m))
    sol.y[:, 1]
    sol.z
    assert len(calls) == 2 * m


def test_custom_driver_non_finite_value_rejected(ens_small, basis):
    """A custom driver that returns NaN on one path at one node fails the
    sweep, like a non-finite form coefficient."""
    t_bad = ens_small.grid.nodes[17]

    def fn(t, y, z, k, mu):
        out = 0.2 * y
        if t == t_bad:
            out[123] = np.nan
        return out

    with pytest.raises(NumericalError, match="non-finite"):
        picard_full_freeze(DriverSpec(fn, 0.2, 1), mean_y(), constant(1.0),
                           ens_small, basis, check=False)


def test_coefficient_route_rejects_non_finite_driver(ens_small, basis):
    driver = affine_driver(ens_small.grid, 1, 1, 1.0, y=0.2,
                           const=np.inf)
    with pytest.raises(NumericalError, match="non-finite"):
        picard_full_freeze(driver, mean_y(), constant(1.0), ens_small,
                           basis, check=False)


def test_coefficient_route_needs_the_ensemble_grid(ens_small, basis):
    driver = affine_driver(build_grid(1.0, 10), 1, 1, 0.5, y=0.2)
    with pytest.raises(ConfigError, match="nodes"):
        picard_full_freeze(driver, mean_y(), constant(1.0), ens_small,
                           basis, check=False)


def test_cond_max_grows_with_basis_degree(ens_small):
    """The report carries the largest cond(X_i'X_i): raw powers of B(t)
    up to degree 6 are far worse conditioned than degree 1."""
    coeffs = LinearCoefficients(alpha1=0.2, beta1=0.1)
    driver = coeffs.as_driver(ens_small.grid, ens_small.levy)
    conds = []
    for degree in (1, 6):
        _, rep = picard_full_freeze(driver, mean_yzk(1), constant(1.0),
                                    ens_small, RegressionBasis(degree),
                                    check=False)
        conds.append(rep.cond_max)
    assert 1.0 <= conds[0] < conds[1]


def test_mean_channel_from_coefficients(ens_small, basis):
    """The coefficient means equal the path means of the written iterate
    for each catalog functional: on the initial iterate, after one sweep
    and on a random input, each with xi at node M."""
    from mfbsde.coefficient_route import CoefficientRoute

    coeffs = LinearCoefficients(alpha1=0.2, beta1=0.1, eta1=0.1)
    driver = coeffs.as_driver(ens_small.grid, ens_small.levy)
    mu = np.zeros((ens_small.grid.steps + 1, driver.mean_dim))
    for phi in (mean_y(), mean_yzk(1), mean_yzk_avg(ens_small.levy),
                mean_y_squared()):
        route = CoefficientRoute(driver, phi, brownian_linear(1.0, 0.5),
                                  ens_small, _Regressions(ens_small, basis))
        first = route.initial()
        rand = route.uniform(np.random.default_rng(5).normal(
            size=(2 + ens_small.levy.n_atoms, route.p)))
        for it in (first, route.sweep(first, mu), rand):
            got = route.mean_channel(it)
            want = _mean_channel(phi, route.solution(it))
            assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()


def test_every_iterate_holds_the_terminal_at_node_m(monkeypatch,
                                                     ens_small, basis):
    """Y_M has xi's bytes in the initial iterate, in every sweep input
    and output of both freezes, and in both inputs of every
    contraction-check pair; below M the initial iterate is xi's mean.
    The set-up builds no node-M design."""
    from mfbsde.coefficient_route import CoefficientRoute

    coeffs = LinearCoefficients(alpha1=0.2, alpha2=0.1, beta1=0.25,
                                beta2=0.1, eta1=0.2, eta2=0.1)
    driver = coeffs.as_driver(ens_small.grid, ens_small.levy)
    tc = brownian_linear(1.0, 0.5)
    m, xi = ens_small.grid.steps, terminal_value(tc, ens_small)
    seen, designs = [], []
    sweep, design = CoefficientRoute.sweep, _Regressions.design

    def recording(self, it, mu=None):
        out = sweep(self, it, mu)
        seen.append((self, it, out))
        return out

    def counting(self, i, out=None):
        designs.append(i)
        return design(self, i, out)

    monkeypatch.setattr(CoefficientRoute, "sweep", recording)
    monkeypatch.setattr(_Regressions, "design", counting)
    picard_full_freeze(driver, mean_yzk(1), tc, ens_small, basis,
                       check=False)
    route, first, _ = seen[0]
    start = route.solution(first).y
    np.testing.assert_allclose(start[:, :m], xi.mean(), rtol=1e-13)
    picard_mean_freeze(affine_driver(ens_small.grid, 1, 1, 0.5, y=0.2,
                                     z=0.1, mu=0.1),
                       tc, ens_small, basis, check=False)
    freezes = len(seen)
    contraction_check(driver, mean_yzk(1), tc, ens_small, basis,
                      n_pairs=3)
    assert len(seen) - freezes == 6 and m not in designs
    for route, it, out in seen:
        for v in (it, out):
            sol = route.solution(v)
            assert sol.y[:, m].tobytes() == xi.tobytes()
            assert sol.node(m)[:, 0].tobytes() == xi.tobytes()


@pytest.mark.parametrize("bad", ["n-by-M", "transposed", "nan"])
def test_malformed_extra_named_by_key(ens_small, bad):
    """The set-up checks every basis extra once: one that is not an
    (n_paths, M+1) array of finite values fails with a ConfigError that
    names it, not with an IndexError, a broadcast error or a non-finite
    driver."""
    extra = np.sin(ens_small.brownian_nodes)
    extra = {"n-by-M": extra[:, :-1], "transposed": extra.T,
             "nan": np.where(np.arange(extra.shape[1]) == 7, np.nan,
                             extra)}[bad]
    basis = RegressionBasis(degree=2, extras={"wealth": extra})
    with pytest.raises(ConfigError, match=r"extras\['wealth'\]"):
        picard_full_freeze(affine_driver(ens_small.grid, 1, 1, 0.5, y=0.2),
                           mean_y(), constant(1.0), ens_small, basis,
                           check=False)


def test_one_set_up_serves_many_routes():
    """One regression set-up serves any number of routes and none of
    them changes it: on one set-up, the five criterion-2 scenarios and a
    driver with a pathwise source give the coefficients and Picard deltas
    of the same route on a fresh set-up, byte for byte, and every array
    the set-up holds keeps its bytes (the design scratch buffer aside)."""
    from mfbsde.coefficient_route import CoefficientRoute
    from mfbsde.picard import PicardReport, _iterate
    from test_acceptance import CROSS_SCENARIOS

    ens = simulate_ensemble(build_grid(1.0, 25),
                            LevyMeasure.from_atoms([(1.0, 0.5)]), 2000,
                            seed=404)
    basis = RegressionBasis(degree=2)
    shared = _Regressions(ens, basis)
    held = {name: v.copy() for name, v in vars(shared).items()
            if isinstance(v, np.ndarray) and name != "_xbuf"}
    problems = [(c.as_driver(ens.grid, ens.levy), mean_yzk(1), c.terminal)
                for _, c in CROSS_SCENARIOS]
    sourced = affine_driver(ens.grid, 1, 1, 1.0, y=0.2, z=0.15,
                            k=0.1 * ens.levy.weights, mu=0.1, const=0.05)
    sourced.source = 0.1 * np.cos(ens.brownian_nodes)
    problems.append((sourced, mean_y(), smooth_of_brownian([0.5, 1.0, 0.2])))

    def freeze(route):
        rep = PicardReport(tol=1e-6)
        return _iterate(route, rep, route.sweep, route.initial(), 50), rep

    for driver, phi, tc in problems:
        routes = [CoefficientRoute(driver, phi, tc, ens, reg)
                  for reg in (shared, _Regressions(ens, basis))]
        (it, rep), (want, want_rep) = (freeze(r) for r in routes)
        assert rep.converged
        last = [r.solution(i).node(ens.grid.steps)
                for r, i in zip(routes, (it, want))]
        for got, exp in ((it.b, want.b), (it.zk, want.zk), last,
                         (rep.deltas, want_rep.deltas)):
            assert np.asarray(got).tobytes() == np.asarray(exp).tobytes()
    for name, v in held.items():
        assert getattr(shared, name).tobytes() == v.tobytes(), name


@pytest.mark.parametrize("steps", [50, 1])
@pytest.mark.parametrize("case", ["P", "extras", "Q"])
def test_terminal_block_is_the_routes(monkeypatch, ens_small, case, steps):
    """The set-up holds no node-(M-1) block: each route forms
    X_{M-1}' diag(1, dB, dNtilde_j) [X_{M-1} | xi] itself, with one
    `jump_products` call on the p+1 columns.  On a P ensemble and a
    basis without extras that is the only call of a solve; the
    regression maps (extras, or a shift_to_q ensemble) add one set-up
    call per node below M-1, none on a one-step grid."""
    from mfbsde.coefficient_route import CoefficientRoute

    ens, basis = ens_small, RegressionBasis(degree=2)
    if steps != ens.grid.steps:
        ens = simulate_ensemble(build_grid(1.0, steps), ens.levy, 500,
                                seed=9)
    if case == "extras":
        basis = RegressionBasis(degree=2, extras={
            "cos": np.cos(ens.brownian_nodes)})
    elif case == "Q":
        ens = shift_to_q(ens, 0.2, 0.1)
    coeffs = LinearCoefficients(alpha1=0.2, alpha2=0.1, beta1=0.25,
                                beta2=0.1, eta1=0.2, eta2=0.1)
    calls = []
    products = _Regressions.jump_products

    def counting(self, i, x, rows, base):
        caller = sys._getframe(1).f_locals["self"]
        calls.append((type(caller), i, rows.shape[1]))
        return products(self, i, x, rows, base)

    monkeypatch.setattr(_Regressions, "jump_products", counting)
    m, p = ens.grid.steps, 4 + (case == "extras")
    for _ in range(2):
        sol, _rep = picard_full_freeze(
            coeffs.as_driver(ens.grid, ens.levy), mean_yzk(1),
            brownian_linear(1.0, 0.5), ens, basis, check=False)
        assert not hasattr(sol.route.reg, "h")
    setup = [] if case == "P" else \
        [(_Regressions, i, 2 * p) for i in reversed(range(m - 1))]
    assert calls == 2 * (setup + [(CoefficientRoute, m - 1, p + 1)])


def test_import_leaves_the_coefficient_route_out():
    """`import mfbsde` does not import the coefficient route: only the
    Picard solvers and the adjoint regressions take it, on first use."""
    src = str(Path(mfbsde.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, mfbsde; "
         "print('mfbsde.coefficient_route' in sys.modules)"],
        env=env, check=True, capture_output=True, text=True).stdout
    assert out.strip() == "False"


# ---------------------------------------------------------------------------
# The exact Z and K maps of the built-in basis
# ---------------------------------------------------------------------------

def _martingale_basis_maps(dt, degree, atoms):
    """E[dM_c X_{i+1} | F_i] / scale_c on the basis [1, B, .., B^d,
    Ntilde_1 .. Ntilde_J] under P, written out: C(q, s) mu_{q-s+1} / dt
    at row B^s, column B^q, for mu_r the r-th moment of N(0, dt), which
    is (r-1)!! dt^(r/2) for even r and 0 for odd r; and 1 at row
    "constant", column Ntilde_j, for atom j (E[dNtilde_j^2] = w_j dt)."""
    p = 1 + degree + atoms
    e = np.zeros((1 + atoms, p, p))
    for q in range(degree + 1):
        for s in range(q + 1):
            r = q - s + 1
            if r % 2 == 0:
                mu = math.prod(range(r - 1, 0, -2)) * dt ** (r // 2)
                e[0, s, q] = math.comb(q, s) * mu / dt
    for j in range(atoms):
        e[1 + j, 0, 1 + degree + j] = 1.0
    return e


@pytest.fixture(scope="module", params=[0, 1, 2],
                ids=lambda atoms: f"{atoms}atoms")
def large_p_ensemble(request):
    """1e5 paths, M = 20, under P, with 0, 1 or 2 atoms."""
    levy = LevyMeasure.from_atoms([(1.0, 0.8), (-0.5, 0.6)][:request.param])
    return simulate_ensemble(build_grid(1.0, 20), levy, 100_000,
                             seed=600 + request.param)


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_exact_maps_are_the_regression_limit(large_p_ensemble, degree):
    """On a P ensemble and a basis without extras the set-up's Z and K
    maps are exact: e equals the written-out moments to 1e-15 at every
    node below M-1 and is zero at node M-1, which the route fills from
    xi.  They are the large-sample limit of the regression they replace:
    per node i in 1..M-2, the regression estimate
        (S_i^-1 X_i' diag(dM_c) X_{i+1} - H_ic A_i) / scale_ic,
    with H_ic from the path oracle's `covariation`, averages over the
    nodes to within 5 standard errors of e, the standard error being the
    node-to-node spread over sqrt(M-2) (at most 2.5 on these seeds).  A
    wrong binomial index (degree 2 and up), moment or 1/dt or
    1/(w_j dt) scale moves some entry by 20 or more of them."""
    ens = large_p_ensemble
    atoms = ens.levy.n_atoms
    reg = _PathRegressions(ens, RegressionBasis(degree))
    m, dt = ens.grid.steps, ens.grid.dt
    want = _martingale_basis_maps(dt, degree, atoms)
    assert reg.e.shape == (m,) + want.shape
    assert np.abs(reg.e[:-1] - want).max() <= 1e-15
    assert not reg.e[-1].any()

    est = []
    for i in range(1, m - 1):
        x = reg.design(i).copy()
        xn = reg.design(i + 1)
        dm = ens.increments(i) + reg.shift[i]
        raw = np.stack([reg.solve((x * dm[:, c, None]).T @ xn, i)
                        for c in range(1 + atoms)])
        est.append((raw - reg.covariation(i, x) @ reg.a[i])
                   / reg.scale[i][:, None, None])
    est = np.array(est)
    gap = np.abs(est.mean(axis=0) - want)
    se = est.std(axis=0, ddof=1) / math.sqrt(len(est))
    assert np.all(gap <= 5.0 * se + 1e-12)


@pytest.mark.parametrize("degree", [0, -1, 2.5, 7])
def test_basis_degree_outside_one_to_six_rejected(degree):
    """A degree that is not an integer in 1..6 (the range of
    `solver.basis_degree`) fails with a ConfigError that names degree
    when the basis is made, before any path is read."""
    with pytest.raises(ConfigError, match="degree"):
        RegressionBasis(degree=degree, jump_features=False)
