import math

import numpy as np
import pytest

from mfbsde import (
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
from mfbsde.utility import lambda_euler_residual

from conftest import mc_se


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
        for i in range(grid.steps):
            dn = ens_small.jumps[:, i, :] - levy.weights * dt
            xe = xe * (1.0 + (0.05 - 0.3) * dt + 0.2 * ens_small.db[:, i]
                       + 0.1 * dn.sum(axis=1))
        resid = ((x[:, -1] - xe) ** 2).mean()
        assert resid <= 5.0 * dt * (x[:, -1] ** 2).mean()

    def test_jump_floor_rejected(self, ens_small):
        wp = WealthParams(x0=1.0, gamma0=-1.0)
        pi = ControlProcess.from_constant(0.0, ens_small.grid)
        with pytest.raises(DomainError, match="-1"):
            simulate_wealth(wp, pi, ens_small)


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
        from mfbsde.picard import _Regressions

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

    def test_nonpositive_rate_rejected(self, ens_small):
        wp = WealthParams(x0=1.0)
        uc = UtilityCoefficients(theta=constant(1.0))
        pi = ControlProcess.from_constant(0.0, ens_small.grid)
        with pytest.raises(DomainError, match="positive"):
            evaluate_j(wp, uc, pi, ens_small)
