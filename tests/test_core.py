import math
from dataclasses import replace

import numpy as np
import pytest

from mfbsde import (
    CapabilityError,
    ConfigError,
    DriverSpec,
    LevyMeasure,
    LinearCoefficients,
    SolutionGrid,
    affine_driver,
    brownian_linear,
    constant,
    default_beta,
    jump_linear,
    malliavin_b,
    malliavin_n,
    mean_functional_eval,
    mean_y,
    mean_y_squared,
    mean_yzk,
    mean_yzk_avg,
    poly_of_jump_linear,
    simulate_ensemble,
    smooth_of_brownian,
    solve_linear_y0,
    terminal_value,
)
from mfbsde.core import probe_driver, probe_mean_functional

from path_map import beta_norm


class TestTerminalValue:
    def test_constant(self, ens_small):
        assert np.all(terminal_value(constant(2.0), ens_small) == 2.0)

    def test_brownian_linear_telescopes(self, ens_small):
        v = terminal_value(brownian_linear(1.0, 0.0), ens_small)
        db = np.diff(ens_small.brownian_nodes, axis=1)
        assert np.allclose(v, db.sum(axis=1))

    def test_jump_linear_unit_psi(self, ens_small):
        v = terminal_value(jump_linear(1.0), ens_small)
        w_dt = ens_small.levy.weights[0] * ens_small.grid.dt
        dn = np.diff(ens_small.count_nodes[:, :, 0], axis=1)
        direct = (dn - w_dt).sum(axis=1)
        assert np.allclose(v, direct)

    def test_smooth_polynomial(self, ens_small):
        v = terminal_value(smooth_of_brownian([1.0, 0.0, 2.0]), ens_small)
        bt = ens_small.brownian_nodes[:, -1]
        assert np.allclose(v, 1.0 + 2.0 * bt**2)


class TestMalliavinB:
    def test_constant_is_zero(self, ens_small):
        assert np.all(malliavin_b(constant(5.0), ens_small, 3) == 0.0)

    def test_brownian_linear_is_slope(self, ens_small):
        assert np.all(malliavin_b(brownian_linear(1.0, 0.0), ens_small, 0)
                      == 1.0)

    def test_smooth_square_chain_rule(self, ens_small):
        d = malliavin_b(smooth_of_brownian([0.0, 0.0, 1.0]), ens_small, 7)
        assert np.allclose(d, 2.0 * ens_small.brownian_nodes[:, -1])

    def test_jump_linear_has_no_brownian_derivative(self, ens_small):
        assert np.all(malliavin_b(jump_linear(1.0), ens_small, 2) == 0.0)

    def test_wealth_smooth_factor_product_rule(self, ens_small):
        from mfbsde import wealth_linear

        m1 = ens_small.grid.steps + 1
        wealth = np.exp(0.3 * ens_small.brownian_nodes)
        sigma0 = np.linspace(0.1, 0.4, m1)
        tc = wealth_linear(smooth_of_brownian([1.0, 0.5, 0.25]), wealth,
                           sigma0, np.zeros((m1, 1)))
        bt, xt = ens_small.brownian_nodes[:, -1], wealth[:, -1]
        d = malliavin_b(tc, ens_small, 9)
        expected = (1.0 + 0.5 * bt + 0.25 * bt**2) * xt * sigma0[9] \
            + (0.5 + 0.5 * bt) * xt
        assert np.allclose(d, expected, rtol=1e-13, atol=1e-13)


class TestMalliavinN:
    def test_constant_is_zero(self, ens_small):
        assert np.all(malliavin_n(constant(1.0), ens_small, 0, 0) == 0.0)

    def test_jump_linear_psi_mark(self, ens_small):
        tc = jump_linear(lambda t, z: z)
        d = malliavin_n(tc, ens_small, 4, 0)
        assert np.all(d == ens_small.levy.marks[0])

    def test_square_difference_rule(self, ens_small):
        tc = poly_of_jump_linear([0.0, 0.0, 1.0], 1.0)
        g = terminal_value(jump_linear(1.0), ens_small)
        d = malliavin_n(tc, ens_small, 6, 0)
        assert np.allclose(d, (g + 1.0) ** 2 - g**2)

    def test_cubic_difference_rule_per_atom_psi(self, grid50, levy2):
        from mfbsde import simulate_ensemble

        ens = simulate_ensemble(grid50, levy2, 2000, seed=12)
        coeffs = [0.3, 0.5, -0.2, 0.1]
        tc = poly_of_jump_linear(coeffs, [0.6, -0.4])
        g = terminal_value(jump_linear([0.6, -0.4]), ens)

        def phi(x):
            return sum(c * x**p for p, c in enumerate(coeffs))

        for atom, psi in enumerate((0.6, -0.4)):
            d = malliavin_n(tc, ens, 5, atom)
            assert np.allclose(d, phi(g + psi) - phi(g), rtol=1e-12,
                               atol=1e-12)

    def test_brownian_kinds_are_zero(self, ens_small):
        assert np.all(malliavin_n(smooth_of_brownian([0, 1]), ens_small,
                                  1, 0) == 0.0)


class TestBetaNorm:
    def test_zero_triplet(self, ens_small):
        assert beta_norm(SolutionGrid.zeros(ens_small), 2.0) == 0.0

    def test_unit_constant_beta_zero(self, ens_small):
        sol = SolutionGrid.zeros(ens_small)
        sol.y[:] = 1.0
        assert beta_norm(sol, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_unit_constant_beta_one(self, ens_small):
        sol = SolutionGrid.zeros(ens_small)
        sol.y[:] = 1.0
        # left-endpoint quadrature of int_0^1 e^{t - 1} dt
        assert beta_norm(sol, 1.0) == pytest.approx(
            1.0 - math.exp(-1.0), abs=2 * ens_small.grid.dt
        )

    def test_monotone_in_beta(self, ens_small):
        """The weight e^{beta (t - T)} is at most one and falls as beta
        grows."""
        rng = np.random.default_rng(0)
        sol = SolutionGrid.zeros(ens_small)
        sol.y[:] = rng.normal(size=sol.y.shape)
        sol.z[:] = rng.normal(size=sol.z.shape)
        assert beta_norm(sol, 2.0) <= beta_norm(sol, 1.0) \
            <= beta_norm(sol, 0.0)


class TestMeanFunctional:
    def test_projection_reproduces_stored_mean(self, ens_small):
        rng = np.random.default_rng(1)
        sol = SolutionGrid.zeros(ens_small)
        sol.y[:] = rng.normal(size=sol.y.shape)
        sol.recompute_means()
        got = mean_functional_eval(mean_y(), sol, 10)
        assert got[0] == pytest.approx(sol.ybar[10], abs=1e-14)

    def test_identity_vector(self, ens_small):
        rng = np.random.default_rng(2)
        sol = SolutionGrid.zeros(ens_small)
        sol.y[:] = rng.normal(size=sol.y.shape)
        sol.z[:] = rng.normal(size=sol.z.shape)
        sol.k[:] = rng.normal(size=sol.k.shape)
        sol.recompute_means()
        got = mean_functional_eval(mean_yzk(1), sol, 5)
        assert got == pytest.approx([sol.ybar[5], sol.zbar[5],
                                     sol.kbar[5, 0]])
        # node(i) reads [Y_i, Z_i', K_i'] with i' = min(i, M-1)
        m = ens_small.grid.steps
        for i, zi in ((5, 5), (m, m - 1)):
            v = sol.node(i)
            assert v.shape == (ens_small.n_paths, 3) and v.flags.f_contiguous
            np.testing.assert_array_equal(v, np.column_stack(
                [sol.y[:, i], sol.z[:, zi], sol.k[:, zi, 0]]))

    def test_weighted_average_functional(self, ens_small):
        phi = mean_yzk_avg(ens_small.levy)
        sol = SolutionGrid.zeros(ens_small)
        sol.y[:] = 2.0
        sol.k[:] = 3.0
        sol.recompute_means()
        got = mean_functional_eval(phi, sol, 0)
        assert got == pytest.approx([2.0, 0.0, 3.0])

    def test_square_of_constant(self, ens_small):
        sol = SolutionGrid.zeros(ens_small)
        sol.y[:] = 3.0
        sol.recompute_means()
        got = mean_functional_eval(mean_y_squared(), sol, 4)
        assert got[0] == pytest.approx(9.0)


class TestProbes:
    def test_linear_driver_within_declared_constant(self, grid50, levy1):
        c = LinearCoefficients(alpha1=0.2, beta1=0.1, eta1=0.3, alpha2=0.1,
                               terminal=constant(1.0))
        drv = c.as_driver(grid50, levy1)
        worst = probe_driver(drv, grid50, levy1, n_probes=300)
        assert worst <= drv.lipschitz_c * 1.05

    def test_underdeclared_constant_warns(self, grid50, levy1):
        drv = DriverSpec(lambda t, y, z, k, mu: 2.0 * y, 0.5, 1)
        with pytest.warns(UserWarning, match="Lipschitz"):
            probe_driver(drv, grid50, levy1, n_probes=300)

    def test_mean_functional_bound(self):
        worst = probe_mean_functional(mean_y(), 1, n_probes=100)
        assert worst <= 1.05

    def test_no_probes_rejected(self, grid50, levy1):
        drv = DriverSpec(lambda t, y, z, k, mu: y, 1.0, 1)
        with pytest.raises(ConfigError, match="n_probes"):
            probe_driver(drv, grid50, levy1, n_probes=0)
        with pytest.raises(ConfigError, match="n_probes"):
            probe_mean_functional(mean_y(), 1, n_probes=0)

    @pytest.mark.parametrize("n_probes", [10, 300, 5000])
    def test_driver_calls_per_node(self, grid50, levy1, n_probes):
        """One call per mean of each probed node's pair, plus the origin
        call of every node, whatever the number of probes."""
        calls = []

        def ev(t, y, z, k, mu):
            calls.append(t)
            return 0.5 * y

        probe_driver(DriverSpec(ev, 0.5, 1), grid50, levy1,
                     n_probes=n_probes)
        assert len(calls) <= 3 * len(grid50.nodes)

    @pytest.mark.parametrize("n_probes", [10, 5000])
    def test_mean_functional_calls(self, n_probes):
        """Base rows, y, z and each of the J jump coordinates stepped:
        3 + J calls on all rows at once."""
        phi = mean_yzk(2)
        calls = []

        def ev(y, z, k):
            calls.append(len(y))
            return phi.eval(y, z, k)

        worst = probe_mean_functional(replace(phi, eval=ev), 2,
                                      n_probes=n_probes)
        assert calls == [n_probes] * 5
        assert worst == pytest.approx(1.0, rel=1e-6)

    @pytest.mark.parametrize("atoms", [0, 1, 2])
    @pytest.mark.parametrize("mean_dim", [1, 3])
    def test_form_probe_keeps_the_ratio(self, grid50, atoms, mean_dim):
        """A catalog driver is probed through its form; the ratio has the
        bits of the per-node calls of the same driver without it."""
        levy = LevyMeasure.from_atoms([(1.0, 0.5), (-0.5, 0.7)][:atoms])
        nodes = grid50.nodes
        drv = affine_driver(
            grid50, atoms, mean_dim, 2.0, y=0.3 - 0.5 * nodes, z=0.4,
            k=np.outer(1.0 + nodes, levy.weights),
            mu=np.linspace(0.1, -0.5, mean_dim), const=np.sin(nodes))
        worst = probe_driver(drv, grid50, levy)
        assert worst > 0.0
        assert worst == probe_driver(replace(drv, form=None), grid50, levy)

    def test_catalog_driver_makes_no_eval_call(self, grid50, levy1):
        c = LinearCoefficients(alpha1=0.2, beta1=0.1, eta1=0.3, alpha2=0.1)
        drv = c.as_driver(grid50, levy1)
        calls = []

        def counting(*args):
            calls.append(args[0])
            return drv.eval(*args)

        worst = probe_driver(replace(drv, eval=counting), grid50, levy1)
        assert calls == []
        assert worst == probe_driver(replace(drv, form=None), grid50, levy1)

    @pytest.mark.parametrize("coef", ["y", "z", "k", "mu", "const"])
    def test_inf_coefficient_fails_the_origin_check(self, grid50, levy1,
                                                    coef):
        """Through the form, the origin check is "every coefficient is
        finite" (0 * inf is nan): it names the first bad node."""
        values = np.full(len(grid50.nodes), 0.2)
        values[17] = np.inf
        if coef in ("k", "mu"):   # per node and per atom or component
            values = values[:, None]
        drv = affine_driver(grid50, 1, 1, 1.0, **{coef: values})
        with pytest.raises(ConfigError, match=r"origin for t=0\.34$"):
            probe_driver(drv, grid50, levy1)

    def test_default_beta(self):
        drv = DriverSpec(lambda t, y, z, k, mu: y, 1.0, 1)
        assert default_beta(drv, mean_y()) == pytest.approx(13.0)


class TestWealthTerminalGuards:
    def test_adapted_rate_blocks_closed_form_derivatives(self, ens_small):
        from mfbsde import wealth_linear

        n, m1 = ens_small.n_paths, ens_small.grid.steps + 1
        tc = wealth_linear(constant(1.0), np.ones((n, m1)),
                           np.zeros(m1), np.zeros((m1, 1)),
                           pi_is_deterministic=False)
        with pytest.raises(CapabilityError, match="deterministic"):
            malliavin_b(tc, ens_small, 0)

    def test_theta_kind_restricted(self, ens_small):
        from mfbsde import wealth_linear

        with pytest.raises(CapabilityError, match="constant or"):
            wealth_linear(jump_linear(1.0), np.ones((1, 2)), np.zeros(2),
                          np.zeros((2, 1)))


class TestCoefficientForms:
    """One value per atom is the callable of (t, mark) that takes each
    atom's value at its mark."""

    @staticmethod
    def by_mark(t, z):
        return {1.0: 0.1, -0.5: 0.2}[z]     # levy2's marks

    @pytest.mark.parametrize("per_atom", [
        [0.1, 0.2], (0.1, 0.2), np.array([0.1, 0.2])],
        ids=["list", "tuple", "array"])
    def test_per_atom_eta_is_the_callable(self, grid50, levy2, per_atom):
        got = LinearCoefficients(eta1=per_atom, eta2=per_atom).on_grid(
            grid50, levy2)
        want = LinearCoefficients(eta1=self.by_mark,
                                  eta2=self.by_mark).on_grid(grid50, levy2)
        for name in ("e1", "e2"):
            assert getattr(got, name).shape == (51, 2)
            assert getattr(got, name).tobytes() == \
                getattr(want, name).tobytes()

    def test_per_atom_runs_are_the_callable_runs(self, grid50, levy2):
        ens = simulate_ensemble(grid50, levy2, 500, seed=12)
        runs = []
        for eta in ((0.1, 0.2), self.by_mark):
            c = LinearCoefficients(alpha1=0.1, alpha2=0.2, eta1=eta,
                                   eta2=eta, terminal=jump_linear(eta))
            y0, se, v = solve_linear_y0(c, ens)
            runs.append([np.array([y0, se]).tobytes(), v.stack().tobytes(),
                         terminal_value(c.terminal, ens).tobytes()])
        assert runs[0] == runs[1]
