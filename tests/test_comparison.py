import math

import numpy as np
import pytest

from mfbsde import (
    ComparisonScenario,
    ConfigError,
    DriverSpec,
    constant,
    picard_mean_freeze,
    run_comparison,
    verify_hypotheses,
)


def drv(fn, c, name):
    return DriverSpec(fn, c, 1, name=name)


def zero():
    return drv(lambda t, y, z, k, mu: np.zeros_like(y), 0.0, "zero")


def plus_one():
    return drv(lambda t, y, z, k, mu: np.ones_like(y), 0.0, "one")


def mean_plus():
    """max(E[Y], 0): coincides with E[Y] on positive solutions and is
    ordered against the zero driver on the whole probe box."""
    return drv(lambda t, y, z, k, mu: np.full_like(y, max(mu[0], 0.0)),
               1.0, "mean+")


class TestHypotheses:
    def test_equal_pair_passes(self, ens_small):
        sc = ComparisonScenario(zero(), zero(), constant(1.0),
                                constant(1.0))
        rep = verify_hypotheses(sc, ens_small, n_probes=500)
        assert rep.all_pass and not rep.violations

    def test_linear_jump_driver_is_its_own_bound(self, ens_small):
        w = ens_small.levy.weights
        eta = 0.7
        g = drv(lambda t, y, z, k, mu: eta * (k @ w), 0.7, "etak")
        sc = ComparisonScenario(g, g, constant(1.0), constant(1.0),
                                eta_bound=eta)
        rep = verify_hypotheses(sc, ens_small, n_probes=2000)
        assert rep.jump_bound_holds

    def test_constructed_jump_violation_reported(self, ens_small):
        w = ens_small.levy.weights
        g2 = drv(lambda t, y, z, k, mu: -(k @ w), 1.0, "negk")
        sc = ComparisonScenario(zero(), g2, constant(1.0), constant(0.0),
                                eta_bound=1.0)
        rep = verify_hypotheses(sc, ens_small, n_probes=2000)
        assert not rep.jump_bound_holds
        assert any(kind == "jump" for kind, _ in rep.violations)

    def test_terminal_violation_names_path(self, ens_small):
        sc = ComparisonScenario(zero(), zero(), constant(0.0),
                                constant(1.0))
        rep = verify_hypotheses(sc, ens_small, n_probes=10)
        assert not rep.terminal_ordered
        assert "xi1" in rep.violations[0][1]

    def test_driver_violation_names_node(self, ens_small):
        sc = ComparisonScenario(zero(), plus_one(), constant(1.0),
                                constant(1.0))
        rep = verify_hypotheses(sc, ens_small, n_probes=50)
        assert not rep.driver_ordered
        assert rep.terminal_ordered and rep.jump_bound_holds
        assert [kind for kind, _ in rep.violations] == ["driver"]
        assert rep.violations[0][1].startswith("t=")

    @pytest.mark.parametrize("n_probes", [10, 500, 5000])
    def test_driver_calls_per_node(self, ens_small, n_probes):
        """One call per mean: an ordered E[Y] pair and one jump-check
        mean taken with two jump rows, each on all of a node's probes."""
        calls = []

        def counting(t, y, z, k, mu):
            calls.append(t)
            return np.zeros_like(y)

        g = drv(counting, 0.0, "counting")
        rep = verify_hypotheses(ComparisonScenario(g, g, constant(1.0),
                                                   constant(1.0)),
                                ens_small, n_probes=n_probes)
        assert rep.all_pass
        assert len(calls) <= 4 * len(ens_small.grid.nodes)

    def test_mean_channel_required(self):
        with pytest.raises(ConfigError, match="mean"):
            ComparisonScenario(
                DriverSpec(lambda t, y, z, k, mu: y, 1.0, 2),
                zero(), constant(1.0), constant(1.0),
            )


class TestRunComparison:
    def test_ordered_constants_margin_exact(self, ens_small, basis):
        sc = ComparisonScenario(zero(), zero(), constant(1.0),
                                constant(0.0))
        rep = run_comparison(sc, ens_small, basis, n_probes=200)
        assert rep.passed
        assert np.allclose(rep.margin, 1.0, atol=1e-10)

    def test_driver_gap_gives_linear_margin(self, ens_small, basis):
        sc = ComparisonScenario(plus_one(), zero(), constant(0.0),
                                constant(0.0))
        rep = run_comparison(sc, ens_small, basis, n_probes=200)
        assert rep.passed
        expected = 1.0 - ens_small.grid.nodes
        assert np.allclose(rep.margin, expected, atol=1e-8)

    def test_mean_growth_margin(self, ens_small, basis):
        sc = ComparisonScenario(mean_plus(), zero(), constant(1.0),
                                constant(1.0))
        rep = run_comparison(sc, ens_small, basis, n_probes=500)
        assert rep.passed
        assert rep.margin[0] == pytest.approx(math.e - 1.0, abs=3e-2)

    def test_skips_solve_on_violation(self, ens_small, basis):
        sc = ComparisonScenario(zero(), zero(), constant(0.0),
                                constant(1.0))
        rep = run_comparison(sc, ens_small, basis, n_probes=10)
        assert not rep.solved and rep.margin is None
        assert not rep.passed

    def test_force_overrides_hypotheses(self, ens_small, basis):
        sc = ComparisonScenario(zero(), zero(), constant(0.0),
                                constant(1.0))
        rep = run_comparison(sc, ens_small, basis, n_probes=10, force=True)
        assert rep.solved
        assert rep.min_margin == pytest.approx(-1.0, abs=1e-10)

    def test_swap_negates_margins(self, ens_small, basis):
        sc = ComparisonScenario(plus_one(), zero(), constant(0.0),
                                constant(0.0))
        fwd = run_comparison(sc, ens_small, basis, n_probes=100)
        swapped = ComparisonScenario(zero(), plus_one(), constant(0.0),
                                     constant(0.0))
        bwd = run_comparison(swapped, ens_small, basis, n_probes=100,
                             force=True)
        d1 = fwd.margin         # min over paths of (Y1 - Y2)
        d2 = bwd.margin         # min over paths of -(Y1 - Y2) = -max
        # deterministic difference: min == max pathwise, so exact negation
        assert np.allclose(d1, -d2, atol=1e-10)

    def test_per_iterate_ordering(self, ens_small, basis):
        """Mean-freeze iterates stay ordered under common noise."""
        import warnings

        xi = constant(1.0)
        for max_outer in (1, 2, 3):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                s1, _ = picard_mean_freeze(mean_plus(), xi, ens_small,
                                           basis, max_iter=max_outer,
                                           check=False)
                s2, _ = picard_mean_freeze(zero(), xi, ens_small, basis,
                                           max_iter=max_outer, check=False)
            assert (s1.y - s2.y).min() >= -1e-8

    def test_raising_terminal_restores_order(self, ens_mid, basis):
        """With xi2 lifted to xi1 the margin is nonnegative everywhere."""
        sc = ComparisonScenario(zero(), zero(), constant(1.0),
                                constant(1.0))
        rep = run_comparison(sc, ens_mid, basis, n_probes=100)
        assert rep.passed
        assert rep.min_margin >= -3 * max(rep.min_margin_se, 1e-300)


def _whole_array_margin(sc, ens, basis):
    """The margin from the written solutions: the per-node minimum of
    Y1 - Y2 over all paths, and the batch-means SE of the minima over
    N_BATCHES consecutive path batches."""
    from mfbsde.comparison import N_BATCHES

    sols = [picard_mean_freeze(g, xi, ens, basis, check=False)[0]
            for g, xi in ((sc.g1, sc.xi1), (sc.g2, sc.xi2))]
    diff = sols[0].y - sols[1].y
    edges = np.linspace(0, ens.n_paths, N_BATCHES + 1).astype(int)
    mins = np.stack([diff[edges[b]:edges[b + 1]].min(axis=0)
                     for b in range(N_BATCHES)])
    return diff.min(axis=0), mins.std(axis=0, ddof=1) / math.sqrt(N_BATCHES)


def test_margin_off_the_coefficients_matches_the_written_solutions():
    """Criterion 7's pairs, the forced violating pair and a pair whose
    margin varies across paths: the margin read node by node off both
    routes' coefficients equals the one formed from the two written
    solutions to 1e-12, and so does the ordering verdict."""
    from mfbsde import (LevyMeasure, RegressionBasis, build_grid,
                        simulate_ensemble, smooth_of_brownian)

    levy = LevyMeasure.from_atoms([(1.0, 0.5)])
    ens = simulate_ensemble(build_grid(1.0, 100), levy, 15000, seed=303)
    basis = RegressionBasis(degree=2)
    neg_k = drv(lambda t, y, z, k, mu: -(k @ levy.weights), 1.0, "neg-k")
    pairs = [
        ComparisonScenario(zero(), zero(), constant(1.0), constant(0.0)),
        ComparisonScenario(plus_one(), zero(), constant(0.0),
                           constant(0.0)),
        ComparisonScenario(mean_plus(), zero(), constant(1.0),
                           constant(1.0)),
        ComparisonScenario(zero(), neg_k, constant(1.0), constant(0.0),
                           eta_bound=1.0),
        ComparisonScenario(mean_plus(), zero(),
                           smooth_of_brownian([1.0, 0.3, 0.4]),
                           smooth_of_brownian([0.5, 0.3, 0.1])),
    ]
    for sc in pairs:
        rep = run_comparison(sc, ens, basis, n_probes=10, force=True)
        margin, se = _whole_array_margin(sc, ens, basis)
        imin = int(np.argmin(margin))
        assert np.abs(rep.margin - margin).max() <= 1e-12
        assert np.abs(rep.margin_se - se).max() <= 1e-12
        assert abs(rep.min_margin - margin[imin]) <= 1e-12
        assert abs(rep.min_margin_se - se[imin]) <= 1e-12
        assert rep.ordering_holds == bool(
            margin[imin] >= -3.0 * max(se[imin], 1e-300)
            or margin[imin] >= 0)
    assert rep.margin_se.max() > 1e-4       # the last pair's spread
