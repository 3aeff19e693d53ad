import math
import warnings

import numpy as np
import pytest

from mfbsde import (
    ConfigError,
    DriverSpec,
    LinearCoefficients,
    RegressionBasis,
    brownian_linear,
    condexp,
    constant,
    contraction_check,
    mean_y,
    mean_yzk,
    picard_full_freeze,
    picard_mean_freeze,
    shift_to_q,
    simulate_ensemble,
    smooth_of_brownian,
    solve_inner,
)
from mfbsde.core import mean_functional_eval, terminal_value
from mfbsde.picard import _Regressions, _frozen_driver

from conftest import mc_se


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
        bt = ens_small.db.sum(axis=1)
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
        """Mean-square gap between the regression Z and the terminal's
        (constant) Brownian derivative shrinks as paths grow."""
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
    condexp calls: Y, then the centred residual, then Z and K."""
    ens = simulate_ensemble(grid50, levy2, 3000, seed=41)
    if measure == "Q":
        ens = shift_to_q(ens, 0.3, lambda t, z: 0.2 * z)
    bn, jn = ens.brownian_nodes, ens.compensated_jump_nodes
    basis = RegressionBasis(degree=3, extras={"sin_b": np.sin(bn)})
    tc = smooth_of_brownian([0.5, 1.0, 0.3])
    f_hat = 0.3 * np.cos(bn[:, :-1]) + 0.2 * jn[:, :-1, 0] \
        - 0.1 * jn[:, :-1, 1] ** 2
    sol = solve_inner(f_hat, tc, ens, basis)

    n, m, dt = ens.n_paths, ens.grid.steps, ens.grid.dt
    y = np.empty((n, m + 1))
    y[:, m] = terminal_value(tc, ens)
    z = np.empty((n, m))
    k = np.empty((n, m, 2))
    for i in reversed(range(m)):
        ynext = y[:, i + 1]
        y[:, i] = condexp(ynext + f_hat[:, i] * dt, basis, ens, i)
        resid = ynext - condexp(ynext, basis, ens, i)
        dm_b = ens.db[:, i] - ens.bm_drift[i]
        z[:, i] = condexp(resid * dm_b, basis, ens, i) / dt
        for a in range(2):
            dm_n = ens.jumps[:, i, a] - ens.jump_comp[i, a]
            k[:, i, a] = condexp(resid * dm_n, basis, ens,
                                 i) / ens.jump_comp[i, a]
    for got, want in ((sol.y, y), (sol.z, z), (sol.k, k)):
        assert np.abs(want).max() > 0.1
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()


class TestFullFreeze:
    def test_zero_driver_converges_first_iteration(self, ens_small, basis):
        f0 = np.zeros((ens_small.n_paths, ens_small.grid.steps))
        direct = solve_inner(f0, constant(2.0), ens_small, basis)
        sol, rep = picard_full_freeze(zero_driver(), mean_y(),
                                      constant(2.0), ens_small, basis)
        assert rep.converged
        assert np.array_equal(sol.y, direct.y)

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
        from mfbsde import build_grid

        coarse = build_grid(1.0, 1)
        ens = simulate_ensemble(coarse, levy1, 100, seed=1)
        drv = DriverSpec(lambda t, y, z, k, mu: 2.0 * y, 2.0, 1)
        with pytest.raises(ConfigError, match="refine"):
            picard_full_freeze(drv, mean_y(), constant(1.0), ens, basis,
                               check=False)


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

    def test_equal_inputs_score_zero(self, ens_small, basis):
        # the map sees identical inputs when the rng draws coincide; the
        # convention is exercised directly on the ratio definition
        from mfbsde.picard import _random_triplet, _Regressions

        reg = _Regressions(ens_small, basis)
        rng = np.random.default_rng(0)
        trip = _random_triplet(ens_small, reg, rng)
        from mfbsde import SolutionGrid, beta_norm

        diff = SolutionGrid(ens_small, trip.y - trip.y, trip.z - trip.z,
                            trip.k - trip.k)
        assert beta_norm(diff, 13.0) == 0.0
