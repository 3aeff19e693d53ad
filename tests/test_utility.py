import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import mfbsde
from mfbsde import levy_paths, utility
from mfbsde import (
    ConfigError,
    ControlProcess,
    DomainError,
    DriverSpec,
    RegressionBasis,
    UtilityCoefficients,
    WealthParams,
    adjoint_lambda,
    adjoint_p,
    build_grid,
    constant,
    dh_dpi,
    evaluate_j,
    hamiltonian,
    mean_y,
    optimal_pi,
    picard_full_freeze,
    picard_utility_y0,
    simulate_ensemble,
    simulate_wealth,
    smooth_of_brownian,
    solve_adjoints,
)
from mfbsde.core import CoefficientGrid, terminal_value
from mfbsde.levy_paths import _PASS_ROWS, _pass_rows
from mfbsde.linear import MeanVector, assemble_system

from conftest import mc_se
from wealth_pass import two_pass_inputs, wealth_pass


# the two utility routes, by their names in `mfbsde.utility`
ROUTES = ["evaluate_j", "picard_utility_y0"]


def lambda_euler_residual(uc, ens, lam, mean_lam):
    """Mean-square gap at T between the explicit lambda and an Euler
    stepping of its forward equation (an O(dt) consistency check)."""
    grid, levy = ens.grid, ens.levy
    a0, a1, b0, b1, e0, e1 = uc.on_grid(grid, levy)
    dt = grid.dt
    w = levy.weights
    le = np.ones(ens.n_paths)
    for i in range(grid.steps):
        d = ens.increments(i)
        jump = ((e0[i] * le[:, None] + e1[i] * mean_lam[i])
                * (d[:, 1:] - w * dt)).sum(axis=1)
        le = le + (a0[i] * le + a1[i] * mean_lam[i]) * dt \
            + (b0[i] * le + b1[i] * mean_lam[i]) * d[:, 0] + jump
    return float(((lam[:, -1] - le) ** 2).mean())


class TestWealth:
    def test_constant_when_everything_zero(self, ens_small):
        wp = WealthParams(x0=2.0)
        pi = ControlProcess.from_constant(0.0, ens_small.grid)
        x = simulate_wealth(wp, pi, ens_small)
        assert np.allclose(x, 2.0, rtol=1e-14)

    def test_pure_drift(self, ens_small):
        wp = WealthParams(x0=1.0, b0=0.05)
        pi = ControlProcess.from_constant(0.0, ens_small.grid)
        x = simulate_wealth(wp, pi, ens_small)
        assert np.allclose(x[:, -1], math.exp(0.05), rtol=1e-12)

    def test_always_positive(self, ens_small):
        wp = WealthParams(x0=1.0, b0=0.1, sigma0=0.5, gamma0=-0.6)
        pi = ControlProcess.from_constant(1.5, ens_small.grid)
        assert simulate_wealth(wp, pi, ens_small).min() > 0.0

    def test_euler_step_consistent(self, ens_small):
        wp = WealthParams(x0=1.0, b0=0.05, sigma0=0.2, gamma0=0.1)
        pi = ControlProcess.from_constant(0.3, ens_small.grid)
        x = simulate_wealth(wp, pi, ens_small)
        grid, levy = ens_small.grid, ens_small.levy
        dt = grid.dt
        xe = np.full(ens_small.n_paths, 1.0)
        db = np.diff(ens_small.brownian_nodes, axis=1)
        dn = np.diff(ens_small.count_nodes, axis=1) - levy.weights * dt
        for i in range(grid.steps):
            xe = xe * (1.0 + (0.05 - 0.3) * dt + 0.2 * db[:, i]
                       + 0.1 * dn[:, i].sum(axis=1))
        resid = ((x[:, -1] - xe) ** 2).mean()
        assert resid <= 5.0 * dt * (x[:, -1] ** 2).mean()

    def test_jump_floor_rejected(self, ens_small):
        wp = WealthParams(x0=1.0, gamma0=-1.0)
        pi = ControlProcess.from_constant(0.0, ens_small.grid)
        with pytest.raises(DomainError, match="-1"):
            simulate_wealth(wp, pi, ens_small)

    def test_rate_shape_checked(self, ens_small):
        """A rate of neither shape (M+1,) nor (n, M+1) is a ConfigError
        naming both, not a numpy broadcast error."""
        n, m1 = ens_small.n_paths, ens_small.grid.steps + 1
        pi = ControlProcess(np.full(10, 0.1), True)
        with pytest.raises(ConfigError, match=r"rate must have a shape in "
                           rf"\[\({m1},\), \({n}, {m1}\)\], got \(10,\)"):
            simulate_wealth(WealthParams(x0=1.0), pi, ens_small)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -0.1])
    def test_rate_nonnegative_and_finite(self, ens_small, bad):
        """A negative or non-finite rate value is a DomainError, before
        numpy warns about anything; a zero rate stays valid."""
        pi = ControlProcess.from_constant(0.0, ens_small.grid)
        pi.values[7] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="^simulate_wealth needs a "
                                                  "nonnegative finite rate$"):
                simulate_wealth(WealthParams(x0=1.0), pi, ens_small)

    def test_deterministic_flag_checked(self, ens_small):
        r = np.asfortranarray(0.3 + 0.1 * np.cos(ens_small.brownian_nodes))
        with pytest.raises(ConfigError, match="flagged deterministic"):
            simulate_wealth(WealthParams(x0=1.0), ControlProcess(r, True),
                            ens_small)


class TestAdjointP:
    def test_constant_theta(self, ens_small, basis):
        p = adjoint_p(constant(3.0), ens_small, basis)
        assert np.all(p == 3.0)

    def test_smooth_theta_initial_value(self, ens_mid, basis):
        p = adjoint_p(smooth_of_brownian([1.0, 0.0, 1.0]), ens_mid, basis)
        # E[B(T)^2 + 1] = T + 1
        assert p[:, 0].mean() == pytest.approx(2.0, abs=0.05)
        assert np.allclose(p[:, -1],
                           ens_mid.brownian_nodes[:, -1] ** 2 + 1.0)

    def test_martingale_increments(self, ens_mid, basis):
        from mfbsde.coefficient_route import _Regressions

        p = adjoint_p(smooth_of_brownian([0.0, 1.0]), ens_mid, basis)
        reg = _Regressions(ens_mid, basis)
        for i in (10, 60):
            incr = p[:, i + 1] - p[:, i]
            fitted = reg.fit(i, incr)
            assert abs(fitted.mean()) <= 3 * mc_se(incr)


class TestAdjointLambda:
    def test_all_zero_coefficients(self, ens_small):
        uc = UtilityCoefficients(theta=constant(1.0))
        lam, ups, mlam = adjoint_lambda(uc, ens_small)
        assert np.all(lam == 1.0) and np.all(ups == 1.0) \
            and np.all(mlam == 1.0)

    def test_mean_formula_value(self, ens_small):
        uc = UtilityCoefficients(alpha0=0.1, alpha1=0.05,
                                 theta=constant(1.0))
        _, _, mlam = adjoint_lambda(uc, ens_small)
        assert mlam[-1] == pytest.approx(math.exp(0.15), rel=1e-12)

    def test_starts_at_one_exactly(self, ens_small):
        uc = UtilityCoefficients(alpha0=0.2, beta0=0.3, beta1=0.1,
                                 eta0=0.4, eta1=0.2, theta=constant(1.0))
        lam, _, _ = adjoint_lambda(uc, ens_small)
        assert np.all(lam[:, 0] == 1.0)

    def test_monte_carlo_mean_identity(self, ens_mid):
        uc = UtilityCoefficients(alpha0=0.1, alpha1=0.05, beta0=0.2,
                                 beta1=0.1, eta0=0.3, eta1=0.15,
                                 theta=constant(1.0))
        lam, _, mlam = adjoint_lambda(uc, ens_mid)
        for i in (25, 50, 100):
            se = mc_se(lam[:, i])
            assert abs(lam[:, i].mean() - mlam[i]) <= 3 * se

    def test_euler_residual_order(self, grid100, levy1):
        from mfbsde import build_grid, simulate_ensemble

        uc = UtilityCoefficients(alpha0=0.1, alpha1=0.05, beta0=0.2,
                                 beta1=0.1, eta0=0.3, eta1=0.15,
                                 theta=constant(1.0))
        resids = []
        for steps in (25, 100):
            g = build_grid(1.0, steps)
            e = simulate_ensemble(g, levy1, 20000, seed=55)
            lam, _, mlam = adjoint_lambda(uc, e)
            resids.append(lambda_euler_residual(uc, e, lam, mlam))
        # mean-square residual shrinks linearly with dt
        assert resids[1] <= resids[0] / 2.0


class TestOptimalPi:
    def test_plug_in_ratio(self, ens_small, basis):
        uc = UtilityCoefficients(theta=constant(3.0))
        adj = solve_adjoints(uc, ens_small, basis)
        pi = optimal_pi(adj)
        assert pi.deterministic
        assert np.allclose(pi.values, 1.0 / 3.0, rtol=1e-12)

    def test_unit_coefficients(self, ens_small, basis):
        uc = UtilityCoefficients(theta=constant(1.0))
        adj = solve_adjoints(uc, ens_small, basis)
        assert np.allclose(optimal_pi(adj).values, 1.0)

    def test_floor_counts_reported(self, ens_small, basis):
        uc = UtilityCoefficients(theta=constant(1.0))
        adj = solve_adjoints(uc, ens_small, basis)
        adj.p = adj.p * 0.0  # degenerate adjoint to exercise the clip
        with pytest.warns(UserWarning, match="floor"):
            pi = optimal_pi(adj)
        assert adj.floor_hits == adj.p.size
        assert np.all(np.isfinite(pi.values))


class TestHamiltonian:
    def test_zero_lambda_derivative(self):
        assert dh_dpi(2.0, 1.5, 0.0) == pytest.approx(-1.5)

    def test_first_order_condition_exact(self, ens_small, basis):
        uc = UtilityCoefficients(alpha0=0.05, theta=constant(2.0))
        adj = solve_adjoints(uc, ens_small, basis)
        pi = optimal_pi(adj)
        res = dh_dpi(pi.paths(ens_small.n_paths), adj.p, adj.lam)
        assert np.abs(res).max() == 0.0

    def test_grid_argmax_at_ratio(self, ens_small):
        wp = WealthParams(x0=1.0, b0=0.05, sigma0=0.2, gamma0=0.1)
        uc = UtilityCoefficients(alpha0=0.1, beta0=0.1, eta0=0.2,
                                 theta=constant(2.0))
        p, lam = 2.0, 0.8
        grid_pi = np.linspace(0.05, 2.0, 200)
        vals = [hamiltonian(0.5, 1.0, 0.4, 0.1, [0.2], 0.4, 0.1, [0.2],
                            pi, p, 0.3, [0.1], lam, wp, uc,
                            ens_small.grid, ens_small.levy)
                for pi in grid_pi]
        best = grid_pi[int(np.argmax(vals))]
        target = lam / p
        assert abs(best - target) <= grid_pi[1] - grid_pi[0]

    def test_time_must_be_a_grid_node(self, ens_small):
        """t = -dt, T + dt and an off-node t raise a ConfigError that
        names hamiltonian; every node of the grid evaluates."""
        grid = ens_small.grid
        wp = WealthParams(x0=1.0, b0=0.05, sigma0=0.2, gamma0=0.1)
        uc = UtilityCoefficients(alpha0=0.1, beta0=0.1, eta0=0.2,
                                 theta=constant(2.0))

        def h(t):
            return hamiltonian(t, 1.0, 0.4, 0.1, [0.2], 0.4, 0.1, [0.2],
                               0.5, 2.0, 0.3, [0.1], 0.8, wp, uc, grid,
                               ens_small.levy)

        for t in (-grid.dt, grid.horizon + grid.dt, 0.5 * grid.dt):
            with pytest.raises(ConfigError, match="hamiltonian needs t"):
                h(t)
        assert all(math.isfinite(h(t)) for t in grid.nodes)

    @staticmethod
    def _counting_coefficients(calls):
        """The nine wealth and utility coefficients as callables that
        vary in t (and mark) and count their calls by name."""
        def counted(name, fn):
            def wrapped(*args):
                calls[name] = calls.get(name, 0) + 1
                return fn(*args)
            return wrapped
        wp = WealthParams(
            x0=1.0, b0=counted("b0", lambda t: 0.05 + 0.01 * t),
            sigma0=counted("sigma0", lambda t: 0.2 - 0.05 * t),
            gamma0=counted("gamma0", lambda t, z: 0.1 * z * (1 + t)))
        uc = UtilityCoefficients(
            alpha0=counted("alpha0", lambda t: 0.1 * math.cos(t)),
            alpha1=counted("alpha1", lambda t: 0.03 * t),
            beta0=counted("beta0", lambda t: 0.1 + t * t),
            beta1=counted("beta1", lambda t: -0.02 * t),
            eta0=counted("eta0", lambda t, z: 0.2 * z - 0.1 * t),
            eta1=counted("eta1", lambda t, z: 0.05 * (z + t)),
            theta=constant(2.0))
        return wp, uc

    def test_coefficients_read_at_the_node_only(self, ens_small):
        """One `hamiltonian` call evaluates each of the nine coefficients
        at its node alone: one call per coefficient (one atom), however
        many nodes the grid has.  The value at every node equals the
        formula on the coefficients evaluated on the whole grid, bit for
        bit."""
        calls = {}
        wp, uc = self._counting_coefficients(calls)
        grid, levy = ens_small.grid, ens_small.levy
        assert levy.n_atoms == 1
        b0, s0, g0 = wp.on_grid(grid, levy)
        a0, a1, b0u, b1u, e0, e1 = uc.on_grid(grid, levy)
        x, y, z, k, ybar, zbar, kbar = 1.3, 0.4, 0.1, [0.2], 0.5, 0.15, [0.3]
        pi, p, q, r, lam = 0.6, 2.0, 0.3, [0.1], 0.8
        w = levy.weights
        for i, t in enumerate(grid.nodes):
            calls.clear()
            got = hamiltonian(t, x, y, z, k, ybar, zbar, kbar, pi, p, q, r,
                              lam, wp, uc, grid, levy)
            assert calls == dict.fromkeys(
                ["b0", "sigma0", "gamma0", "alpha0", "alpha1", "beta0",
                 "beta1", "eta0", "eta1"], 1)
            out = (b0[i] - pi) * x * p + s0[i] * x * q
            out += float((g0[i] * x * np.asarray(r) * w).sum())
            util = a0[i] * y + a1[i] * ybar + b0u[i] * z + b1u[i] * zbar \
                + math.log(pi) + math.log(x)
            util += float(((e0[i] * np.asarray(k) + e1[i]
                            * np.asarray(kbar)) * w).sum())
            assert got == float(out + lam * util)

    def test_evaluate_j_reads_each_coefficient_once(self, ens_small):
        """One `evaluate_j` call evaluates each of the nine coefficients
        once per node (one atom): the closed form reads the grid the
        propagator carries, and the wealth pass the wealth values the
        route holds."""
        calls = {}
        wp, uc = self._counting_coefficients(calls)
        assert ens_small.levy.n_atoms == 1
        evaluate_j(wp, uc, ControlProcess.from_constant(0.5, ens_small.grid),
                   ens_small)
        assert calls == dict.fromkeys(
            ["b0", "sigma0", "gamma0", "alpha0", "alpha1", "beta0",
             "beta1", "eta0", "eta1"], ens_small.grid.steps + 1)

    def test_picard_route_reads_the_wealth_once(self, grid50, levy1):
        """`picard_utility_y0` evaluates each wealth and each utility
        coefficient once per node: its driver is built from the grid of
        the utility equation."""
        calls = {}
        wp, uc = self._counting_coefficients(calls)
        ens = simulate_ensemble(grid50, levy1, 1000, seed=23)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            picard_utility_y0(wp, uc, ControlProcess.from_constant(
                0.5, grid50), ens, max_iter=2)
        m1 = grid50.steps + 1
        assert calls == dict.fromkeys(
            ["b0", "sigma0", "gamma0", "alpha0", "alpha1", "beta0",
             "beta1", "eta0", "eta1"], m1)

    def test_picard_driver_from_the_grid_changes_no_byte(self, grid50,
                                                         levy1, monkeypatch):
        """The Picard route gives the same bytes when its driver is built
        from a second evaluation of the utility coefficients, as
        `LinearCoefficients.as_driver` builds it."""
        wp, uc = self._counting_coefficients({})
        ens = simulate_ensemble(grid50, levy1, 1000, seed=23)
        pi = ControlProcess.from_constant(0.5, grid50)

        def run():
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                return picard_utility_y0(wp, uc, pi, ens, max_iter=2)[:2]

        once = run()
        coeffs, _ = utility._utility_equation(uc, grid50, levy1)
        as_driver = CoefficientGrid.as_driver
        monkeypatch.setattr(
            CoefficientGrid, "as_driver",
            lambda cg, grid, levy: as_driver(coeffs.on_grid(grid, levy),
                                             grid, levy))
        assert run() == once

    def test_picard_route_writes_nodes_zero_and_one_once(self, grid50,
                                                         levy1, monkeypatch):
        """After its solve, `picard_utility_y0` writes node 0 and node 1
        once each: phi's means there are taken over the node values it
        already holds."""
        from mfbsde.coefficient_route import CoefficientRoute

        wp, uc = self._counting_coefficients({})
        ens = simulate_ensemble(grid50, levy1, 1000, seed=23)
        solve, write = utility.picard_full_freeze, CoefficientRoute.write
        solved, nodes = [], []

        def solving(*args, **kwargs):
            out = solve(*args, **kwargs)
            solved.append(True)
            return out

        def writing(self, it, i, *args, **kwargs):
            if solved:
                nodes.append(i)
            return write(self, it, i, *args, **kwargs)

        monkeypatch.setattr(utility, "picard_full_freeze", solving)
        monkeypatch.setattr(CoefficientRoute, "write", writing)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            picard_utility_y0(wp, uc, ControlProcess.from_constant(
                0.5, grid50), ens, max_iter=2)
        assert nodes == [0, 1]

    def test_domain_checked_at_the_node(self, ens_small):
        """A jump exposure at or below -1 fails at the node where it is,
        and only there: the checks run on the node's coefficients."""
        grid, levy = ens_small.grid, ens_small.levy
        wp = WealthParams(x0=1.0, gamma0=lambda t, z: -2.0 if t > 0.5
                          else 0.1)
        uc = UtilityCoefficients(theta=constant(1.0))

        def h(t):
            return hamiltonian(t, 1.0, 0.4, 0.1, [0.2], 0.4, 0.1, [0.2],
                               0.5, 2.0, 0.3, [0.1], 0.8, wp, uc, grid,
                               levy)

        assert math.isfinite(h(0.5))
        with pytest.raises(DomainError, match="gamma0"):
            h(grid.nodes[-1])

    def test_domain_guards(self, ens_small):
        wp = WealthParams(x0=1.0)
        uc = UtilityCoefficients(theta=constant(1.0))
        with pytest.raises(DomainError):
            hamiltonian(0.0, -1.0, 0, 0, [0.0], 0, 0, [0.0], 1.0, 1, 0,
                        [0.0], 1, wp, uc, ens_small.grid, ens_small.levy)
        with pytest.raises(DomainError):
            dh_dpi(0.0, 1.0, 1.0)


class TestEvaluateJ:
    def test_trivial_logs_cancel(self, ens_small):
        """Unit wealth held flat and unit rate: J = theta = 1."""
        wp = WealthParams(x0=1.0, b0=1.0)  # b0 offsets pi = 1 drain
        uc = UtilityCoefficients(theta=constant(1.0))
        pi = ControlProcess.from_constant(1.0, ens_small.grid)
        j, se, _ = evaluate_j(wp, uc, pi, ens_small)
        assert j == pytest.approx(1.0, abs=1e-10)
        assert se <= 1e-12

    def test_cross_check_against_picard(self, ens_mid):
        wp = WealthParams(x0=1.0, b0=0.05, sigma0=0.2, gamma0=0.1)
        uc = UtilityCoefficients(alpha0=0.05, alpha1=0.04, beta0=0.1,
                                 beta1=0.08, eta0=0.15, eta1=0.1,
                                 theta=constant(1.5))
        pi = ControlProcess.from_constant(math.e, ens_mid.grid)
        j_c, se_c, _ = evaluate_j(wp, uc, pi, ens_mid)
        j_p, se_p, rep = picard_utility_y0(wp, uc, pi, ens_mid)
        assert rep.converged
        assert abs(j_c - j_p) <= 3 * math.hypot(se_c, se_p)

    def test_picard_y0_se_reads_first_step_only(self, levy1, monkeypatch):
        """The Y(0) standard error evaluates the driver at nodes 0 and 1
        only, on Y, Z and K read off the route there; it equals the one
        from the whole-grid frozen driver on the written solution."""
        import mfbsde.utility as utility_mod
        from path_map import _frozen_driver, _mean_channel

        solved = []
        full_freeze = utility_mod.picard_full_freeze

        def keep(driver, phi, *args):
            sol, rep = full_freeze(driver, phi, *args)
            solved.append((driver, phi, sol))
            return sol, rep

        monkeypatch.setattr(utility_mod, "picard_full_freeze", keep)
        grid = build_grid(1.0, 10)
        ens = simulate_ensemble(grid, levy1, 2000, 4)
        wp = WealthParams(x0=1.0, b0=0.05, sigma0=0.2, gamma0=0.1)
        uc = UtilityCoefficients(alpha0=0.05, alpha1=0.03, beta0=0.15,
                                 eta0=0.2, theta=constant(1.5))
        pi = ControlProcess.from_constant(0.5, grid)
        y0, se, _ = picard_utility_y0(wp, uc, pi, ens)
        driver, phi, sol = solved[0]
        f_hat = _frozen_driver(driver, sol, _mean_channel(phi, sol))
        target0 = sol.y[:, 1] + f_hat[:, 0] * grid.dt
        assert y0 == pytest.approx(sol.y[:, 0].mean(), rel=1e-12)
        assert se == pytest.approx(target0.std(ddof=1) / math.sqrt(2000),
                                   rel=1e-12)

    def test_picard_route_leaves_caller_basis_alone(self, levy1):
        """The wealth features are added to a copy of the basis, so the
        caller's basis still fits an ensemble of another size."""
        grid = build_grid(1.0, 10)
        basis = RegressionBasis(degree=2)
        wp = WealthParams(x0=1.0, b0=0.05, sigma0=0.2, gamma0=0.1)
        uc = UtilityCoefficients(alpha0=0.05, theta=constant(1.5))
        pi = ControlProcess.from_constant(0.5, grid)
        picard_utility_y0(wp, uc, pi, simulate_ensemble(grid, levy1, 2000, 4),
                          basis=basis)
        assert basis.extras == {}
        drv = DriverSpec(lambda t, y, z, k, mu: 0.1 * y, 0.1, 1)
        sol, rep = picard_full_freeze(
            drv, mean_y(), constant(1.0),
            simulate_ensemble(grid, levy1, 3000, 5), basis, check=False)
        assert sol.y.shape == (3000, 11) and rep.converged

    def test_optimality_against_bumps(self, ens_mid, basis):
        wp = WealthParams(x0=1.0, b0=0.05, sigma0=0.2, gamma0=0.1)
        uc = UtilityCoefficients(alpha0=0.05, alpha1=0.03, beta0=0.15,
                                 eta0=0.2, theta=constant(2.0))
        adj = solve_adjoints(uc, ens_mid, basis)
        pihat = optimal_pi(adj)
        j_hat, se_hat, _ = evaluate_j(wp, uc, pihat, ens_mid)
        for bump in (0.8, 1.25):
            pib = ControlProcess(pihat.paths(ens_mid.n_paths) * bump,
                                 pihat.deterministic)
            jb, seb, _ = evaluate_j(wp, uc, pib, ens_mid)
            assert j_hat - jb >= -3 * math.hypot(se_hat, seb)

    def test_candidate_rate_is_stationary_not_always_maximal(self,
                                                             ens_mid,
                                                             basis):
        """The first-order rate lambda/p comes from a necessary condition
        only.  With a strong running-utility weight relative to the
        bequest, a uniformly lower rate improves J beyond noise; this
        pins the boundary of the optimality property rather than hiding
        it."""
        wp = WealthParams(x0=1.0, b0=0.05, sigma0=0.2, gamma0=0.15)
        uc = UtilityCoefficients(alpha0=0.2, alpha1=0.1, beta0=0.15,
                                 eta0=0.25, theta=constant(10.0))
        adj = solve_adjoints(uc, ens_mid, basis)
        pihat = optimal_pi(adj)
        _, _, _, s_hat = evaluate_j(wp, uc, pihat, ens_mid,
                                    return_sample=True)
        lowered = ControlProcess(pihat.paths(ens_mid.n_paths) * 0.7,
                                 pihat.deterministic)
        _, _, _, s_low = evaluate_j(wp, uc, lowered, ens_mid,
                                    return_sample=True)
        diff = s_low - s_hat          # paired on common noise
        assert diff.mean() > 3 * mc_se(diff)

    def test_adapted_rate_with_mean_z_coupling_rejected(self, ens_small,
                                                        basis):
        from mfbsde import CapabilityError

        wp = WealthParams(x0=1.0, sigma0=0.2)
        uc = UtilityCoefficients(beta0=0.1, beta1=0.2, eta0=0.1,
                                 theta=constant(1.0))
        adj = solve_adjoints(uc, ens_small, basis)
        pihat = optimal_pi(adj)
        assert not pihat.deterministic
        with pytest.raises(CapabilityError, match="Picard"):
            evaluate_j(wp, uc, pihat, ens_small)

    def test_nonpositive_rate_values_counted(self, ens_small, basis):
        """lambda is regressed and dips below 0 on this ensemble:
        optimal_pi counts the rate values that are not positive in a
        warning, and evaluate_j still raises the CapabilityError, which
        does not depend on the data, before it looks at the rate."""
        from mfbsde import CapabilityError

        uc = UtilityCoefficients(beta0=0.1, beta1=0.2, eta0=0.1,
                                 theta=constant(1.0))
        adj = solve_adjoints(uc, ens_small, basis)
        bad = int((adj.lam <= 0.0).sum())
        assert bad > 0
        with pytest.warns(UserWarning,
                          match=rf"non-positive rate on {bad} node values"):
            pihat = optimal_pi(adj)
        assert int((pihat.values <= 0.0).sum()) == bad
        with pytest.raises(CapabilityError, match="Picard"):
            evaluate_j(WealthParams(x0=1.0, sigma0=0.2), uc, pihat,
                       ens_small)

    @pytest.mark.parametrize("route", ROUTES)
    def test_nonpositive_rate_rejected(self, ens_small, monkeypatch, route):
        """On both routes a bad rate fails before any wealth path is
        formed: both form their wealth with `_wealth_chunk`."""
        def no_paths(*args, **kwargs):
            raise AssertionError("wealth formed for a bad rate")

        monkeypatch.setattr(utility, "_wealth_chunk", no_paths)
        wp = WealthParams(x0=1.0)
        uc = UtilityCoefficients(theta=constant(1.0))
        pi = ControlProcess.from_constant(0.0, ens_small.grid)
        with pytest.raises(DomainError, match=f"^{route} needs a strictly "
                                              "positive finite rate$"):
            getattr(utility, route)(wp, uc, pi, ens_small)

    @pytest.mark.parametrize("route", ROUTES)
    @pytest.mark.parametrize("case", ["nan-constant", "inf-node",
                                      "nan-adapted"])
    def test_non_finite_rate_rejected(self, ens_small, case, route):
        """On both routes a rate that is not finite fails as a
        non-positive one does, before numpy warns about anything."""
        n, m1 = ens_small.n_paths, ens_small.grid.steps + 1
        if case == "nan-constant":
            pi = ControlProcess(np.full(m1, np.nan), True)
        elif case == "inf-node":
            pi = ControlProcess(np.full(m1, 0.1), True)
            pi.values[7] = np.inf
        else:
            pi = ControlProcess(np.full((n, m1), 0.1, order="F"), False)
            pi.values[3, 7] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError,
                               match="strictly positive finite rate"):
                getattr(utility, route)(
                    WealthParams(x0=1.0),
                    UtilityCoefficients(theta=constant(1.0)), pi, ens_small)

    @pytest.mark.parametrize("route", ROUTES)
    @pytest.mark.parametrize("shape", ["M", "n-by-M", "other-n"])
    def test_rate_shape_checked(self, ens_small, route, shape):
        """On both routes a rate of neither shape (M+1,) nor (n, M+1) is
        a ConfigError, not a numpy broadcast error."""
        n, m1 = ens_small.n_paths, ens_small.grid.steps + 1
        values = np.full({"M": (m1 - 1,), "n-by-M": (n, m1 - 1),
                          "other-n": (n + 1, m1)}[shape], 0.1)
        pi = ControlProcess(values, values.ndim == 1)
        with pytest.raises(ConfigError, match=r"rate must have a shape in "
                           rf"\[\({m1},\), \({n}, {m1}\)\]"):
            getattr(utility, route)(
                WealthParams(x0=1.0), UtilityCoefficients(theta=constant(1.0)),
                pi, ens_small)

    @pytest.mark.parametrize("route", ROUTES)
    def test_theta_required(self, ens_small, route):
        pi = ControlProcess.from_constant(0.5, ens_small.grid)
        with pytest.raises(ConfigError, match="need a terminal theta"):
            getattr(utility, route)(WealthParams(x0=1.0),
                                    UtilityCoefficients(), pi, ens_small)

    @pytest.mark.parametrize("c", [-0.1, np.nan, np.inf])
    def test_constant_rate_nonnegative_and_finite(self, grid50, c):
        with pytest.raises(ConfigError, match="nonnegative, finite"):
            ControlProcess.from_constant(c, grid50)

    def test_rate_layout_changes_no_byte(self, ens_small, basis):
        """A C-ordered copy of an adapted rate gives the same bytes as the
        node-major original: the wealth and the running cost are formed
        node-major whatever the rate's layout."""
        wp = WealthParams(x0=1.0, b0=0.05, sigma0=0.2, gamma0=0.1)
        uc = UtilityCoefficients(alpha0=0.05, alpha1=0.03, beta0=0.15,
                                 eta0=0.2, theta=constant(4.0))
        pi = optimal_pi(solve_adjoints(uc, ens_small, basis))
        assert not pi.deterministic and pi.values.flags.f_contiguous
        pi_c = ControlProcess(np.ascontiguousarray(pi.values), False)
        assert pi_c.values.flags.c_contiguous

        def raw(rate):
            j, se, v, sample = evaluate_j(wp, uc, rate, ens_small,
                                          return_sample=True)
            return [np.array([j, se]).tobytes(), v.stack().tobytes(),
                    sample.tobytes()]

        assert raw(pi_c) == raw(pi)

    def test_deterministic_rate_and_its_paths_agree(self, ens_small):
        """A deterministic rate and its (n, M+1) copy flagged adapted give
        the same bytes in `evaluate_j`, `simulate_wealth` and
        `picard_utility_y0`: every rate takes one per-block wealth
        pass."""
        grid = ens_small.grid
        wp = WealthParams(x0=1.3, b0=0.05, sigma0=0.2, gamma0=0.1)
        uc = UtilityCoefficients(alpha0=0.05, alpha1=0.03, beta0=0.15,
                                 eta0=0.2, theta=constant(4.0))
        rate = ControlProcess(0.4 + 0.2 * grid.nodes, True)
        copy = ControlProcess(
            np.asfortranarray(rate.paths(ens_small.n_paths)), False)

        def raw(pi):
            j, se, v, sample = evaluate_j(wp, uc, pi, ens_small,
                                          return_sample=True)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                y0, y0_se, _ = picard_utility_y0(wp, uc, pi, ens_small,
                                                 max_iter=2)
            return [np.array([j, se, y0, y0_se]).tobytes(),
                    v.stack().tobytes(), sample.tobytes(),
                    simulate_wealth(wp, pi, ens_small).tobytes()]

        assert raw(copy) == raw(rate)

    @pytest.mark.parametrize("route", ROUTES)
    def test_deterministic_flag_checked(self, ens_small, route):
        """On both routes a rate flagged deterministic whose paths differ
        is a ConfigError (the closed form would use wealth derivatives
        that hold for a deterministic rate only); with a nan in it, it is
        the DomainError of any rate that is not finite."""
        wp = WealthParams(x0=1.0, b0=0.05, sigma0=0.2)
        uc = UtilityCoefficients(beta1=0.2, theta=constant(1.0))
        r = np.asfortranarray(0.3 + 0.1 * np.cos(ens_small.brownian_nodes))
        with pytest.raises(ConfigError, match="flagged deterministic"):
            getattr(utility, route)(wp, uc, ControlProcess(r, True),
                                    ens_small)
        r[3, 7] = np.nan
        with pytest.raises(DomainError, match="strictly positive finite"):
            getattr(utility, route)(wp, uc, ControlProcess(r, True),
                                    ens_small)

    @pytest.mark.parametrize("route", ROUTES)
    def test_candidate_and_its_bumps_pass_the_flag_check(self, ens_small,
                                                         basis, route):
        """A deterministic `optimal_pi` rate, and bumps of its paths
        flagged as it is (as criterion 9 and the utility sweep build
        them), pass the check on both routes."""
        wp = WealthParams(x0=1.0, b0=0.05, sigma0=0.2)
        uc = UtilityCoefficients(alpha0=0.05, alpha1=0.03,
                                 theta=constant(4.0))
        pi_hat = optimal_pi(solve_adjoints(uc, ens_small, basis))
        assert pi_hat.deterministic and pi_hat.values.ndim == 1
        base = pi_hat.paths(ens_small.n_paths)
        half = base.copy()
        half[:, ens_small.grid.steps // 2:] *= 1.15
        for pi in (pi_hat, ControlProcess(base * 0.9, pi_hat.deterministic),
                   ControlProcess(half, pi_hat.deterministic)):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                out = getattr(utility, route)(wp, uc, pi, ens_small)
            assert math.isfinite(out[0])


def _gemm_sources(coeffs, tc, ens, gamma, gamma_path, gamma_db=None,
                  gamma_dn=None, derivative_rows=True):
    """Reference for assemble_system's pathwise running cost: F1 and its
    SE are the mean and std(ddof=1) / sqrt(n) of the per-path sample
    G(t_i, T) xi + sum_l wq_il G(t_i, t_l) g_l, written as an (M+1)^2
    matrix product over the paths, plus the deterministic gamma's row
    sums; the tail of the derivative rows is the trapezoid row sum of
    the exact propagator mean E[G(t_i, t_l)] = exp(a1_cum_l - a1_cum_i).
    The derivative rows' terminal parts come from assemble_system
    without a running cost.  Returns (sources, standard errors)."""
    base = assemble_system(coeffs, tc, ens, gamma=gamma,
                           derivative_rows=derivative_rows)
    m1, dt, n = ens.grid.steps + 1, ens.grid.dt, ens.n_paths
    wq = np.triu(np.full((m1, m1), dt))
    wq[np.arange(m1), np.arange(m1)] = 0.5 * dt
    wq[:, -1] = 0.5 * dt
    wq[-1, -1] = 0.0
    expl = np.exp(gamma.log_levels())
    xi = terminal_value(tc, ens)
    sample = ((expl * gamma_path) @ wq.T
              + (xi * expl[:, -1])[:, None]) / expl
    a1_cum = gamma.a1_cum
    quad = np.exp(a1_cum[None, :] - a1_cum[:, None]) * wq
    tail = quad.sum(axis=1)
    f1 = sample.mean(axis=0) + quad @ gamma.cg.g
    f1_se = sample.std(axis=0, ddof=1) / math.sqrt(n)
    f2, f3 = base.f.v2.copy(), base.f.v3.copy()
    if derivative_rows and gamma_db is not None:
        f2 += gamma_db * tail
    if derivative_rows and gamma_dn is not None:
        f3 += gamma_dn * tail[:, None]
    return (MeanVector(ens.grid, f1, f2, f3),
            MeanVector(ens.grid, f1_se, base.f_se.v2, base.f_se.v3))


class TestRunningCostReverseSum:
    """The O(nM) reverse trapezoid sum of the pathwise running cost, in
    F1's sample, against the matrix-product reference, on the two-pass
    route's arguments (`TestWealthPassOracle` ties them to evaluate_j):
    the means and the SEs, which cover the running cost."""

    @pytest.mark.parametrize("case", ["adapted", "deterministic_rows"])
    def test_matches_matrix_products(self, ens_small, basis, case):
        wp = WealthParams(x0=1.0, b0=0.05, sigma0=0.2, gamma0=0.1)
        if case == "adapted":
            uc = UtilityCoefficients(alpha0=0.05, alpha1=0.03, beta0=0.15,
                                     eta0=0.2, theta=constant(4.0))
            pi = optimal_pi(solve_adjoints(uc, ens_small, basis))
            assert not pi.deterministic
        else:
            uc = UtilityCoefficients(alpha0=0.05, alpha1=0.04, beta0=0.1,
                                     beta1=0.08, eta0=0.15, eta1=0.1,
                                     theta=constant(1.5))
            pi = ControlProcess.from_constant(0.4, ens_small.grid)
        args, kwargs = two_pass_inputs(wp, uc, pi, ens_small)
        assert kwargs["derivative_rows"] == (case != "adapted")
        got = assemble_system(*args, **kwargs)
        ref, ref_se = _gemm_sources(*args, **kwargs)
        if case != "adapted":     # the tail rows are live
            base = assemble_system(*args, **{**kwargs, "gamma_db": None,
                                             "gamma_dn": None})
            assert np.abs(got.f.v2 - base.f.v2).max() > 1e-3
            assert np.abs(got.f.v3 - base.f.v3).max() > 1e-3
        for new, old in ((got.f.v1, ref.v1), (got.f.v2, ref.v2),
                         (got.f.v3, ref.v3),
                         (got.f_se.stack(), ref_se.stack())):
            assert np.abs(new - old).max() <= 1e-12 * np.abs(old).max()


def _utility_cases(ens):
    """(wealth, utility coefficients, rate) for an adapted rate and for a
    deterministic one with the mean-Z/K derivative rows on."""
    wp = WealthParams(x0=1.3, b0=0.05, sigma0=0.2, gamma0=0.1)
    adapted = (wp, UtilityCoefficients(alpha0=0.05, alpha1=0.03,
                                       beta0=0.15, eta0=0.2,
                                       theta=constant(4.0)),
               ControlProcess(np.asfortranarray(
                   0.3 + 0.1 * np.cos(ens.brownian_nodes)), False))
    rate = 0.4 + 0.2 * ens.grid.nodes
    deterministic = (wp, UtilityCoefficients(alpha0=0.05, alpha1=0.04,
                                             beta0=0.1, beta1=0.08,
                                             eta0=0.15, eta1=0.1,
                                             theta=constant(1.5)),
                     ControlProcess(rate, True))
    return {"adapted": adapted, "deterministic_rows": deterministic}


def _raw(out):
    """The bytes of evaluate_j's (J, SE), MeanVector and sample."""
    j, se, v, sample = out
    return [np.array([j, se]).tobytes(), v.stack().tobytes(),
            sample.tobytes()]


class TestWealthPassOracle:
    """evaluate_j's one pass gives the bytes of the two-pass route of
    tests/wealth_pass.py, which writes the whole log(pi X) and reads it
    back as assemble_system's gamma_path."""

    @pytest.mark.parametrize("levy,theta,case,n", [
        ("levy1", constant(4.0), "adapted", 2 * _PASS_ROWS),
        ("levy1", constant(1.5), "deterministic_rows", 2 * _PASS_ROWS),
        ("levy0", smooth_of_brownian([2.0, 0.3]), "adapted", _PASS_ROWS),
        ("levy2", smooth_of_brownian([2.0, 0.3]), "deterministic_rows",
         _PASS_ROWS),
        ("levy2", constant(4.0), "adapted", _PASS_ROWS + 300),
    ], ids=["adapted", "deterministic-rows", "no-atoms-smooth-theta",
            "two-atoms-smooth-theta-rows", "ragged-last-chunk"])
    def test_bytes_equal_two_passes(self, grid50, request, levy, theta,
                                    case, n):
        ens = simulate_ensemble(grid50, request.getfixturevalue(levy), n,
                                seed=23)
        wp, uc, pi = _utility_cases(ens)[case]
        uc = replace(uc, theta=theta)
        assert _raw(evaluate_j(wp, uc, pi, ens, return_sample=True)) == \
            _raw(wealth_pass(wp, uc, pi, ens, return_sample=True))


def test_evaluate_j_forms_no_path_array(levy1, monkeypatch):
    """On one worker, evaluate_j's traced peak at 2e4 paths and M = 100
    stays below half of one (n, M+1) float array: the running cost lives
    in the chunk's scratch planes, never in a whole-path array."""
    ens = simulate_ensemble(build_grid(1.0, 100), levy1, 20_000, seed=31)
    wp, uc, pi = _utility_cases(ens)["adapted"]
    monkeypatch.setattr(levy_paths, "_worker_count", lambda: 1)
    tracemalloc.start()
    try:
        evaluate_j(wp, uc, pi, ens, return_sample=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * 8 * ens.n_paths * (ens.grid.steps + 1)


class TestLogWealthBlocks:
    """evaluate_j forms log(pi X) in log space inside the closed-form
    assembly's chunks."""

    @pytest.mark.parametrize("case", ["adapted", "deterministic_rows"])
    def test_running_cost_is_log_of_wealth(self, ens_small, case):
        """The running cost of the two-pass reference, whose bytes
        evaluate_j gives (`TestWealthPassOracle`), equals log(pi X) of
        simulate_wealth, and its terminal wealth is X(T)."""
        wp, uc, pi = _utility_cases(ens_small)[case]
        args, kwargs = two_pass_inputs(wp, uc, pi, ens_small)
        assert kwargs["derivative_rows"] == (case != "adapted")
        x = simulate_wealth(wp, pi, ens_small)
        want = np.log(pi.paths(ens_small.n_paths) * x)
        assert np.abs(kwargs["gamma_path"] - want).max() <= 1e-12
        wealth = args[1].params["wealth"]
        assert wealth.shape == (ens_small.n_paths, 1)
        np.testing.assert_allclose(wealth[:, 0], x[:, -1], rtol=1e-15,
                                   atol=0.0)

    @pytest.mark.parametrize("case", ["adapted", "deterministic_rows"])
    def test_worker_count_changes_no_byte(self, levy2, monkeypatch, case):
        """1, 2 and 3 workers over three 256-path chunks of a fine grid,
        the last one ragged, with thread switches forced often."""
        grid = build_grid(1.0, 400)
        k = _pass_rows(grid.steps + 1)
        assert k < _PASS_ROWS
        ens = simulate_ensemble(grid, levy2, 2 * k + 100, seed=19)
        wp, uc, pi = _utility_cases(ens)[case]

        def run(workers):
            monkeypatch.setattr(levy_paths, "_worker_count",
                                lambda: workers)
            j, se, v, sample = evaluate_j(wp, uc, pi, ens,
                                          return_sample=True)
            return [np.array([j, se]).tobytes(), v.stack().tobytes(),
                    sample.tobytes()]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            want = run(1)
            for workers in (2, 3):
                assert run(workers) == want
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("case", ["adapted", "deterministic_rows"])
    def test_one_path_pass_per_closed_form_solve(self, ens_small,
                                                 monkeypatch, case):
        """A closed-form solve walks the paths once, in the assembly:
        `solve_linear_y0` makes one pass over row blocks, and so does
        `evaluate_j`, which forms its running cost in that pass and scans
        no (n, M+1) array for finiteness."""
        real = levy_paths._over_row_blocks
        passes = []

        def spy(rows, shape, work):
            passes.append(len(rows))
            real(rows, shape, work)

        # every module that holds the helper by name
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "mfbsde" and \
                    getattr(module, "_over_row_blocks", None) is real:
                monkeypatch.setattr(module, "_over_row_blocks", spy)
        n, m1 = ens_small.n_paths, ens_small.grid.steps + 1
        isfinite, scans = np.isfinite, []

        def scan(x, *args, **kwargs):
            if np.shape(x) == (n, m1):
                scans.append(1)
            return isfinite(x, *args, **kwargs)

        monkeypatch.setattr(np, "isfinite", scan)
        c = mfbsde.LinearCoefficients(
            alpha1=0.2, alpha2=0.1, beta1=0.3, beta2=0.15, eta1=0.25,
            eta2=0.2, gamma=0.1, terminal=smooth_of_brownian([1.0, 0.5]))
        mfbsde.solve_linear_y0(c, ens_small)
        assert passes == [n]
        passes.clear()
        wp, uc, pi = _utility_cases(ens_small)[case]
        evaluate_j(wp, uc, pi, ens_small, return_sample=True)
        assert passes == [n]
        assert scans == []


# the utility route of acceptance criterion 9 ("diffusive" scenario),
# printing a hash of the raw bytes of evaluate_j's output
UTILITY_ARRAYS = textwrap.dedent("""
    import hashlib
    import numpy as np
    import mfbsde as mf
    grid = mf.build_grid(1.0, 100)
    levy = mf.LevyMeasure.from_atoms([(1.0, 0.5)])
    ens = mf.simulate_ensemble(grid, levy, 50000, 7)
    wp = mf.WealthParams(x0=1.0, b0=0.05, sigma0=0.2, gamma0=0.1)
    uc = mf.UtilityCoefficients(alpha0=0.05, alpha1=0.03, beta0=0.15,
                                eta0=0.2, theta=mf.constant(4.0))
    adj = mf.solve_adjoints(uc, ens, mf.RegressionBasis(degree=2))
    j, se, v, sample = mf.evaluate_j(wp, uc, mf.optimal_pi(adj), ens,
                                     return_sample=True)
    h = hashlib.sha256()
    for arr in (np.array([j, se]), v.stack(), sample):
        h.update(arr.tobytes())
    print(h.hexdigest(), repr(j), repr(se))
""")


def test_evaluate_j_independent_of_blas_threads():
    """The same ensemble gives byte-identical utility output whatever the
    number of BLAS threads."""
    src = str(Path(mfbsde.__file__).resolve().parents[1])
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        outs.append(subprocess.run(
            [sys.executable, "-c", UTILITY_ARRAYS], env=env, check=True,
            capture_output=True, text=True).stdout)
    assert outs[0] and outs[0] == outs[1]
