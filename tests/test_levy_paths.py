import math

import numpy as np
import pytest

from mfbsde import (
    ConfigError,
    ControlProcess,
    DomainError,
    LevyMeasure,
    LinearCoefficients,
    RegressionBasis,
    UtilityCoefficients,
    WealthParams,
    adjoint_lambda,
    build_grid,
    constant,
    evaluate_j,
    girsanov_density,
    mean_yzk,
    picard_full_freeze,
    shift_to_q,
    simulate_ensemble,
    simulate_gamma,
    simulate_wealth,
    smooth_of_brownian,
    solve_adjoints,
    solve_linear_y0,
)
from mfbsde.levy_paths import _log_exponential

from conftest import mc_se


class TestBuildGrid:
    def test_uniform_subdivision(self):
        g = build_grid(1.0, 4)
        assert np.array_equal(g.nodes, [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_single_step(self):
        g = build_grid(2.0, 1)
        assert np.array_equal(g.nodes, [0.0, 2.0])
        assert g.dt == 2.0

    @pytest.mark.parametrize("horizon,steps", [(1.0, 0), (0.0, 10),
                                               (-1.0, 5), (1.0, 2.5)])
    def test_bad_inputs_rejected(self, horizon, steps):
        with pytest.raises(ConfigError):
            build_grid(horizon, steps)


class TestLevyMeasure:
    def test_total_mass(self, levy2):
        assert levy2.total_mass == pytest.approx(2.7)

    def test_zero_mark_rejected(self):
        with pytest.raises(ConfigError, match="nonzero"):
            LevyMeasure.from_atoms([(0.0, 1.0)])

    def test_duplicate_marks_rejected(self):
        with pytest.raises(ConfigError, match="distinct"):
            LevyMeasure.from_atoms([(1.0, 0.5), (1.0, 0.7)])

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ConfigError, match="positive"):
            LevyMeasure.from_atoms([(1.0, 0.0)])


class TestSimulateEnsemble:
    def test_no_atoms_means_no_jumps(self, grid50, levy0):
        ens = simulate_ensemble(grid50, levy0, 100, seed=1)
        assert ens.jumps.shape == (100, 50, 0)
        assert np.all(ens.jumps - levy0.weights * grid50.dt == 0)

    def test_brownian_moments(self, grid50, levy0):
        ens = simulate_ensemble(grid50, levy0, 100000, seed=2)
        db = ens.db.ravel()
        assert abs(db.mean()) <= 3 * mc_se(db)
        var = db**2
        assert abs(var.mean() - grid50.dt) <= 3 * mc_se(var)

    def test_poisson_mean(self):
        grid = build_grid(1.0, 10)  # dt = 0.1
        levy = LevyMeasure.from_atoms([(1.0, 2.0)])
        ens = simulate_ensemble(grid, levy, 100000, seed=3)
        counts = ens.jumps[:, :, 0].ravel()
        assert abs(counts.mean() - 0.2) <= 3 * mc_se(counts)

    def test_compensation(self, ens_small):
        comp = ens_small.jumps - ens_small.levy.weights * ens_small.grid.dt
        for i in (0, 20, 49):
            s = comp[:, i, 0]
            assert abs(s.mean()) <= 3 * mc_se(s)

    def test_reproducible(self, grid50, levy2):
        a = simulate_ensemble(grid50, levy2, 500, seed=9)
        b = simulate_ensemble(grid50, levy2, 500, seed=9)
        assert np.array_equal(a.db, b.db)
        assert np.array_equal(a.jumps, b.jumps)

    def test_paths_required(self, grid50, levy0):
        with pytest.raises(ConfigError):
            simulate_ensemble(grid50, levy0, 0, seed=1)


class TestGirsanovDensity:
    def test_identity_when_no_tilt(self, ens_small):
        dens = girsanov_density(ens_small, 0.0, 0.0)
        assert np.array_equal(dens, np.ones_like(dens))

    def test_density_starts_at_one(self, ens_small):
        dens = girsanov_density(ens_small, 0.4, 0.3)
        assert np.all(dens[:, 0] == 1.0)
        assert np.all(dens > 0)

    def test_martingale_mean(self, ens_mid):
        dens = girsanov_density(ens_mid, 0.3, 0.5)
        mt = dens[:, -1]
        assert abs(mt.mean() - 1.0) <= 3 * mc_se(mt)

    def test_singular_tilt_rejected(self, ens_small):
        with pytest.raises(DomainError, match="eta1"):
            girsanov_density(ens_small, 0.0, -1.0)


class TestShiftToQ:
    def test_zero_tilt_is_bit_identical(self, ens_small):
        q = shift_to_q(ens_small, 0.0, 0.0)
        assert np.array_equal(q.db, ens_small.db)
        assert np.array_equal(q.jumps, ens_small.jumps)
        assert q.measure == "Q"

    def test_brownian_drift(self, ens_mid):
        q = shift_to_q(ens_mid, 0.3, 0.0)
        db = q.db.ravel()
        assert abs(db.mean() - 0.3 * ens_mid.grid.dt) <= 3 * mc_se(db)
        assert np.allclose((q.db - q.bm_drift).mean(), 0.0, atol=1e-3)

    def test_tilted_intensity(self):
        grid = build_grid(1.0, 10)
        levy = LevyMeasure.from_atoms([(1.0, 2.0)])
        ens = simulate_ensemble(grid, levy, 100000, seed=5)
        q = shift_to_q(ens, 0.0, 0.5)
        counts = q.jumps[:, :, 0].ravel()
        assert abs(counts.mean() - 3.0 * grid.dt) <= 3 * mc_se(counts)

    def test_domain_error(self, ens_small):
        with pytest.raises(DomainError):
            shift_to_q(ens_small, 0.0, lambda t, z: -1.5)

    def test_weighting_matches_shifting(self, ens_mid):
        """E_P[phi M(T)] and the shifted-ensemble mean of phi agree."""
        b1, e1 = 0.25, 0.4
        dens = girsanov_density(ens_mid, b1, e1)
        q = shift_to_q(ens_mid, b1, e1)
        for phi in (lambda e: e.db.sum(axis=1),
                    lambda e: e.jumps[:, :, 0].sum(axis=1)):
            lhs = phi(ens_mid) * dens[:, -1]
            rhs = phi(q)
            tol = 3 * np.hypot(mc_se(lhs), mc_se(rhs))
            assert abs(lhs.mean() - rhs.mean()) <= tol


class TestEnsembleStorage:
    @pytest.mark.filterwarnings("ignore:Picard full freeze did not converge")
    def test_only_draws_measure_and_node_arrays(self, grid50, levy2):
        """After the Picard and closed-form routes, under P and under a
        shifted measure, an ensemble holds its draws, its measure and the
        two node arrays the regressions read, and nothing else."""
        ens = simulate_ensemble(grid50, levy2, 500, seed=17)
        coeffs = LinearCoefficients(alpha1=0.1, beta1=0.2, eta1=0.1,
                                    terminal=smooth_of_brownian([1.0, 0.5]))
        drv = coeffs.as_driver(grid50, levy2)
        basis = RegressionBasis(degree=2)
        for e in (ens, shift_to_q(ens, 0.3, 0.2)):
            picard_full_freeze(drv, mean_yzk(2), coeffs.terminal, e, basis,
                               max_iter=2, check=False)
            solve_linear_y0(coeffs, e)
            arrays = sorted(k for k, v in vars(e).items()
                            if isinstance(v, np.ndarray))
            assert arrays == ["bm_drift", "brownian_nodes",
                              "compensated_jump_nodes", "db", "jump_comp",
                              "jumps"]
            assert e.jumps.dtype.kind == "u"

    def test_heavy_atom_widens_counts(self):
        """weight * dt = 300 gives counts above 255: the counts widen past
        one byte and equal the int64 Poisson draws of the same Philox
        streams, both when simulated and after a zero tilt."""
        grid = build_grid(1.0, 10)
        levy = LevyMeasure.from_atoms([(1.0, 0.7), (-0.5, 3000.0)])
        n, seed = 200, 23
        streams = np.random.SeedSequence(seed).spawn(1 + levy.n_atoms)
        want = [np.random.Generator(np.random.Philox(s)).poisson(
                    w * grid.dt, size=(n, grid.steps))
                for s, w in zip(streams[1:], levy.weights)]
        assert want[0].max() <= 255 < want[1].max()
        ens = simulate_ensemble(grid, levy, n, seed)
        for counts in (ens.jumps, shift_to_q(ens, 0.0, 0.0).jumps):
            assert counts.dtype == np.uint16
            for a in range(levy.n_atoms):
                assert np.array_equal(counts[:, :, a], want[a])


class TestLogExponential:
    def test_matches_step_loop(self, grid50, levy2):
        """Vectorised exponent against a per-step, per-atom loop: two
        atoms, a (t, mark) jump coefficient and a pathwise drift."""
        ens = simulate_ensemble(grid50, levy2, 500, seed=31)
        nodes, dt = grid50.nodes[:-1], grid50.dt
        drift = 0.1 + 0.05 * np.sin(ens.brownian_nodes[:, :-1])
        vol = 0.3 - 0.2 * nodes
        jump = np.array([[0.4 * z - 0.1 * t for z in levy2.marks]
                         for t in nodes])
        want = np.zeros((ens.n_paths, grid50.steps + 1))
        for i in range(grid50.steps):
            step = (drift[:, i] - 0.5 * vol[i] ** 2) * dt \
                + vol[i] * ens.db[:, i]
            for a, w in enumerate(levy2.weights):
                step += math.log1p(jump[i, a]) * ens.jumps[:, i, a] \
                    - jump[i, a] * w * dt
            want[:, i + 1] = want[:, i] + step
        got = _log_exponential(ens, drift, vol, jump)
        assert np.all(got[:, 0] == 0.0)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-14)


def _tilt(t, z):
    """Jump coefficient that reaches -1 on the negative mark from t = 0.5."""
    return -1.0 if (t >= 0.5 and z < 0) else 0.1


@pytest.mark.parametrize("name,call", [
    ("eta1", lambda ens: simulate_gamma(LinearCoefficients(eta1=_tilt), ens)),
    ("eta1", lambda ens: girsanov_density(ens, 0.2, _tilt)),
    ("eta1", lambda ens: shift_to_q(ens, 0.2, _tilt)),
    ("gamma0", lambda ens: simulate_wealth(
        WealthParams(x0=1.0, gamma0=_tilt),
        ControlProcess.from_constant(0.1, ens.grid), ens)),
    ("eta0", lambda ens: adjoint_lambda(
        UtilityCoefficients(eta0=_tilt, theta=constant(1.0)), ens)),
    ("eta0", lambda ens: evaluate_j(
        WealthParams(x0=1.0),
        UtilityCoefficients(eta0=_tilt, theta=constant(1.0)),
        ControlProcess.from_constant(0.1, ens.grid), ens)),
    ("eta0", lambda ens: solve_adjoints(
        UtilityCoefficients(eta0=_tilt, theta=constant(1.0)), ens,
        RegressionBasis())),
], ids=["simulate_gamma", "girsanov_density", "shift_to_q",
        "simulate_wealth", "adjoint_lambda", "evaluate_j", "solve_adjoints"])
def test_jump_tilt_domain_error(grid50, levy2, name, call):
    ens = simulate_ensemble(grid50, levy2, 50, seed=3)
    with pytest.raises(DomainError,
                       match=rf"^{name} must exceed -1; violated at "
                             r"t=0\.5, mark=-0\.5$"):
        call(ens)
