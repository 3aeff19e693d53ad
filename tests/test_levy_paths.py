import math
import sys
import threading

import numpy as np
import pytest

from mfbsde import (
    ComparisonScenario,
    ConfigError,
    ControlProcess,
    DomainError,
    DriverSpec,
    LevyMeasure,
    LinearCoefficients,
    RegressionBasis,
    UtilityCoefficients,
    WealthParams,
    adjoint_lambda,
    build_grid,
    constant,
    derivative_terms,
    evaluate_j,
    girsanov_density,
    jump_linear,
    mean_yzk,
    picard_full_freeze,
    q_special_solve,
    shift_to_q,
    simulate_ensemble,
    simulate_gamma,
    simulate_wealth,
    smooth_of_brownian,
    solve_adjoints,
    solve_linear_y0,
    terminal_value,
    verify_hypotheses,
)
from mfbsde import levy_paths
from mfbsde.levy_paths import _PASS_ROWS, _log_exponential

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
        assert ens.count_nodes.shape == (100, 51, 0)
        assert ens.increments(7).shape == (100, 1)

    def test_brownian_moments(self, grid50, levy0):
        ens = simulate_ensemble(grid50, levy0, 100000, seed=2)
        db = np.diff(ens.brownian_nodes, axis=1).ravel()
        assert abs(db.mean()) <= 3 * mc_se(db)
        var = db**2
        assert abs(var.mean() - grid50.dt) <= 3 * mc_se(var)

    def test_poisson_mean(self):
        grid = build_grid(1.0, 10)  # dt = 0.1
        levy = LevyMeasure.from_atoms([(1.0, 2.0)])
        ens = simulate_ensemble(grid, levy, 100000, seed=3)
        counts = np.diff(ens.count_nodes[:, :, 0], axis=1).ravel()
        assert abs(counts.mean() - 0.2) <= 3 * mc_se(counts)

    def test_compensation(self, ens_small):
        comp = np.diff(ens_small.count_nodes, axis=1) \
            - ens_small.levy.weights * ens_small.grid.dt
        for i in (0, 20, 49):
            s = comp[:, i, 0]
            assert abs(s.mean()) <= 3 * mc_se(s)

    def test_reproducible(self, grid50, levy2):
        a = simulate_ensemble(grid50, levy2, 500, seed=9)
        b = simulate_ensemble(grid50, levy2, 500, seed=9)
        assert np.array_equal(a.brownian_nodes, b.brownian_nodes)
        assert np.array_equal(a.count_nodes, b.count_nodes)

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
        assert np.array_equal(q.brownian_nodes, ens_small.brownian_nodes)
        assert np.array_equal(q.count_nodes, ens_small.count_nodes)
        assert q.measure == "Q"

    def test_brownian_drift(self, ens_mid):
        q = shift_to_q(ens_mid, 0.3, 0.0)
        db = np.diff(q.brownian_nodes, axis=1)
        assert abs(db.mean() - 0.3 * ens_mid.grid.dt) <= 3 * mc_se(db)
        assert np.allclose((db - q.bm_drift).mean(), 0.0, atol=1e-3)

    def test_tilted_intensity(self):
        grid = build_grid(1.0, 10)
        levy = LevyMeasure.from_atoms([(1.0, 2.0)])
        ens = simulate_ensemble(grid, levy, 100000, seed=5)
        q = shift_to_q(ens, 0.0, 0.5)
        counts = np.diff(q.count_nodes[:, :, 0], axis=1).ravel()
        assert abs(counts.mean() - 3.0 * grid.dt) <= 3 * mc_se(counts)

    def test_domain_error(self, ens_small):
        with pytest.raises(DomainError):
            shift_to_q(ens_small, 0.0, lambda t, z: -1.5)

    def test_weighting_matches_shifting(self, ens_mid):
        """E_P[phi M(T)] and the shifted-ensemble mean of phi agree."""
        b1, e1 = 0.25, 0.4
        dens = girsanov_density(ens_mid, b1, e1)
        q = shift_to_q(ens_mid, b1, e1)
        for phi in (lambda e: e.brownian_nodes[:, -1],
                    lambda e: e.count_nodes[:, -1, 0].astype(float)):
            lhs = phi(ens_mid) * dens[:, -1]
            rhs = phi(q)
            tol = 3 * np.hypot(mc_se(lhs), mc_se(rhs))
            assert abs(lhs.mean() - rhs.mean()) <= tol


class TestEnsembleStorage:
    @pytest.mark.filterwarnings("ignore:Picard full freeze did not converge")
    def test_only_draws_measure_and_node_arrays(self, grid50, levy2):
        """After the Picard and closed-form routes, under P and under a
        shifted measure, an ensemble holds one node-major level array per
        noise source and its measure, and nothing else."""
        n, m, nj = 500, grid50.steps, levy2.n_atoms
        ens = simulate_ensemble(grid50, levy2, n, seed=17)
        coeffs = LinearCoefficients(alpha1=0.1, beta1=0.2, eta1=0.1,
                                    terminal=smooth_of_brownian([1.0, 0.5]))
        drv = coeffs.as_driver(grid50, levy2)
        basis = RegressionBasis(degree=2)
        for e in (ens, shift_to_q(ens, 0.3, 0.2)):
            picard_full_freeze(drv, mean_yzk(2), coeffs.terminal, e, basis,
                               max_iter=2, check=False)
            solve_linear_y0(coeffs, e)
            arrays = {k: v for k, v in vars(e).items()
                      if isinstance(v, np.ndarray)}
            assert sorted(arrays) == ["bm_drift", "brownian_nodes",
                                      "count_nodes", "jump_comp"]
            counts = e.count_nodes
            assert counts.dtype.kind == "u"
            assert e.brownian_nodes.flags.f_contiguous
            assert counts.flags.f_contiguous
            assert sum(v.nbytes for v in arrays.values()) == (
                n * (m + 1) * 8 + n * (m + 1) * nj * counts.itemsize
                + m * 8 + m * nj * 8)

    def test_heavy_atom_widens_counts(self):
        """An atom with weight * dt = 30 over 10 steps never draws more
        than 255 jumps in one step, but its running count passes 255: the
        counts widen to two bytes.  The node differences equal, exactly,
        the per-step counts built from each block's own stream
        SeedSequence(seed, spawn_key=(source, block)): the Poisson totals,
        then one uniform per jump placed by the cumulative compensator.
        The Brownian differences equal the block's node-major normals,
        scaled.  Both hold when simulated and after a zero tilt."""
        grid = build_grid(1.0, 10)
        levy = LevyMeasure.from_atoms([(1.0, 0.7), (-0.5, 300.0)])
        n, seed, m = 5000, 23, grid.steps
        db, want = [], [[] for _ in levy.weights]
        for b, lo in enumerate(range(0, n, 256)):
            k = min(256, n - lo)

            def stream(source):
                return np.random.Generator(np.random.Philox(
                    np.random.SeedSequence(seed, spawn_key=(source, b))))

            db.append(stream(0).standard_normal((m, k)).T
                      * math.sqrt(grid.dt))
            for a, w in enumerate(levy.weights):
                cum = np.cumsum(np.full(m, w * grid.dt))
                gen = stream(1 + a)
                total = gen.poisson(cum[-1], size=k)
                u = gen.random(total.sum()) * cum[-1]
                step = np.minimum(np.searchsorted(cum, u, side="right"),
                                  m - 1)
                path = np.repeat(np.arange(k), total)
                want[a].append(np.bincount(path * m + step,
                                           minlength=k * m).reshape(k, m))
        db = np.concatenate(db)
        want = [np.concatenate(w) for w in want]
        assert want[1].max() <= 255 < want[1].sum(axis=1).max()
        ens = simulate_ensemble(grid, levy, n, seed)
        for e in (ens, shift_to_q(ens, 0.0, 0.0)):
            assert e.count_nodes.dtype == np.uint16
            dn = np.diff(e.count_nodes, axis=1)
            for a in range(levy.n_atoms):
                assert np.array_equal(dn[:, :, a], want[a])
            np.testing.assert_allclose(np.diff(e.brownian_nodes, axis=1),
                                       db, rtol=0.0, atol=1e-15)


class TestBlockKeys:
    """Each 256-path block of each source has its own stream, so neither
    the number of worker threads nor the order of the blocks changes a
    byte."""

    def test_worker_count_changes_no_byte(self, grid50, levy2,
                                          monkeypatch):
        """1 to 8 workers, over 9 blocks, with thread switches forced
        often; a shared buffer or a lost write would change bytes."""
        def draw(workers):
            monkeypatch.setattr(levy_paths, "_worker_count",
                                lambda: workers)
            ens = simulate_ensemble(grid50, levy2, 2100, seed=4)
            q = shift_to_q(ens, 0.2, lambda t, z: 0.5 * t - 0.2 * z)
            return [a.tobytes() for e in (ens, q)
                    for a in (e.brownian_nodes, e.count_nodes)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            want = draw(1)
            for workers in (2, 3, 8):
                assert draw(workers) == want
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("source", [0, 1, 2])
    def test_error_in_one_block_reaches_caller(self, grid50, levy2,
                                               monkeypatch, source):
        """Block 1's draw runs out of memory, and the caller sees it.
        The Brownian block runs on the second of two workers, a thread
        of its own; the count blocks are drawn on the calling thread."""
        real = levy_paths._block_generator
        raised_in = []

        class Exhausted:
            def __init__(self, gen):
                self.poisson = gen.poisson

            def standard_normal(self, *args, **kwargs):
                raised_in.append(threading.current_thread())
                raise MemoryError("block 1")

            random = standard_normal

        def failing(seed, s, b):
            gen = real(seed, s, b)
            return Exhausted(gen) if (s, b) == (source, 1) else gen

        monkeypatch.setattr(levy_paths, "_worker_count", lambda: 2)
        monkeypatch.setattr(levy_paths, "_block_generator", failing)
        with pytest.raises(MemoryError, match="block 1"):
            simulate_ensemble(grid50, levy2, 1000, seed=4)
        assert len(raised_in) == 1
        assert (raised_in[0] is threading.current_thread()) == (source > 0)

    def test_time_dependent_tilt(self):
        """Counts redrawn under a tilt that varies with time: each step's
        mean count matches the tilted compensator within 4 SE, and N(T)
        is Poisson: its variance equals its mean within 4 SE."""
        grid = build_grid(1.0, 10)
        levy = LevyMeasure.from_atoms([(1.0, 2.0)])
        ens = simulate_ensemble(grid, levy, 100000, seed=8)
        q = shift_to_q(ens, 0.0, lambda t, z: 1.5 * t - 0.6)
        comp = (1.0 + 1.5 * grid.nodes[:-1] - 0.6) * 2.0 * grid.dt
        np.testing.assert_allclose(q.jump_comp[:, 0], comp, rtol=1e-14)
        dn = np.diff(q.count_nodes[:, :, 0].astype(float), axis=1)
        for i in range(grid.steps):
            assert abs(dn[:, i].mean() - comp[i]) <= 4 * mc_se(dn[:, i])
        total = q.count_nodes[:, -1, 0].astype(float)
        assert abs(total.mean() - comp.sum()) <= 4 * mc_se(total)
        excess = (total - total.mean()) ** 2 - total
        assert abs(excess.mean()) <= 4 * mc_se(excess)


def _step_loop(ens, drift, vol, jump):
    """The exponent stepped increment by increment, per atom: the
    reference for _log_exponential, shape (n, M+1)."""
    grid, levy = ens.grid, ens.levy
    dt = grid.dt
    drift = np.broadcast_to(drift, (ens.n_paths, grid.steps))
    db = np.diff(ens.brownian_nodes, axis=1)
    dn = np.diff(ens.count_nodes, axis=1)
    want = np.zeros((ens.n_paths, grid.steps + 1))
    for i in range(grid.steps):
        step = (drift[:, i] - 0.5 * vol[i] ** 2) * dt + vol[i] * db[:, i]
        for a, w in enumerate(levy.weights):
            step += math.log1p(jump[i, a]) * dn[:, i, a] \
                - jump[i, a] * w * dt
        want[:, i + 1] = want[:, i] + step
    return want


class TestLogExponential:
    def test_matches_step_loop(self, grid50, levy2):
        """Vectorised exponent against a per-step, per-atom loop: two
        atoms, a (t, mark) jump coefficient and a time-varying drift."""
        ens = simulate_ensemble(grid50, levy2, 500, seed=31)
        nodes = grid50.nodes[:-1]
        drift = 0.1 + 0.05 * np.sin(6.0 * nodes)
        vol = 0.3 - 0.2 * nodes
        jump = np.array([[0.4 * z - 0.1 * t for z in levy2.marks]
                         for t in nodes])
        want = _step_loop(ens, drift, vol, jump)
        got = _log_exponential(ens, drift, vol, jump).T
        assert np.all(got[:, 0] == 0.0)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("case", [
        "constant", "vol_moves_at_one_node", "jump_moves_on_last_step",
        "deterministic_drift_moving_vol"])
    def test_level_form_matches_step_loop(self, grid50, levy2, case):
        """The level form read off B(t_i) and N_j(t_i), and its switch to
        steps at the first node where vol or jump moves, against the step
        loop; a row block straddling two chunks has the bytes of the same
        rows of the whole exponent."""
        m = grid50.steps
        nodes = grid50.nodes[:-1]
        ens = simulate_ensemble(grid50, levy2, _PASS_ROWS + 300, seed=32)
        drift, vol = 0.07, np.full(m, 0.25)
        jump = np.tile([0.3, -0.2], (m, 1))
        if case == "vol_moves_at_one_node":
            vol[20:] = 0.4
        elif case == "jump_moves_on_last_step":
            jump[-1] = [0.5, -0.6]
        elif case == "deterministic_drift_moving_vol":
            drift, vol = 0.1 - 0.3 * nodes, 0.3 - 0.2 * nodes
        got = _log_exponential(ens, drift, vol, jump)
        assert np.all(got[0] == 0.0)
        np.testing.assert_allclose(got.T, _step_loop(ens, drift, vol, jump),
                                   rtol=0.0, atol=1e-14)
        rows = slice(200, _PASS_ROWS + 100)
        assert _log_exponential(ens, drift, vol, jump, rows).tobytes() == \
            got[:, rows].tobytes()


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


_NAN = float("nan")
_ZERO_DRIVER = DriverSpec(lambda t, y, z, k, mu: np.zeros_like(y), 0.0, 1)


def _inf_from_half(t):
    return math.inf if t >= 0.5 else 0.1


@pytest.mark.parametrize("name,message,call", [
    ("alpha1", "not finite at t=0$", lambda ens: q_special_solve(
        _NAN, 0.0, 0.0, 0.0, 0.0, constant(1.0), ens)),
    ("gamma", "not finite at t=0.5", lambda ens: q_special_solve(
        0.0, 0.0, 0.0, 0.0, _inf_from_half, constant(1.0), ens)),
    ("eta1", "not finite at t=0$", lambda ens: girsanov_density(
        ens, 0.0, _NAN)),
    ("beta1", "not finite at t=0$", lambda ens: shift_to_q(ens, _NAN, 0.0)),
    ("alpha0", "not finite at t=0$", lambda ens: evaluate_j(
        WealthParams(x0=1.0),
        UtilityCoefficients(alpha0=_NAN, theta=constant(1.0)),
        ControlProcess.from_constant(0.1, ens.grid), ens)),
    ("b0", "not finite at t=0$", lambda ens: simulate_wealth(
        WealthParams(x0=1.0, b0=_NAN),
        ControlProcess.from_constant(0.1, ens.grid), ens)),
    ("sigma0", "not finite at t=0.5", lambda ens: simulate_wealth(
        WealthParams(x0=1.0, sigma0=_inf_from_half),
        ControlProcess.from_constant(0.1, ens.grid), ens)),
    ("eta2", "not finite at t=0$", lambda ens: simulate_gamma(
        LinearCoefficients(eta2=(0.1, _NAN)), ens)),
    ("eta1", r"must be a number, 2 per-atom values or a callable, got "
     r"\(3,\)$", lambda ens: simulate_gamma(
         LinearCoefficients(eta1=[0.1, 0.2, 0.3]), ens)),
    ("alpha1", r"must be a number or a callable of t, got \(2,\)$",
     lambda ens: simulate_gamma(LinearCoefficients(alpha1=[0.1, 0.2]), ens)),
    ("gamma0", r"got \(1,\)$", lambda ens: simulate_wealth(
        WealthParams(x0=1.0, gamma0=(0.1,)),
        ControlProcess.from_constant(0.1, ens.grid), ens)),
    ("psi", r"got \(3,\)$", lambda ens: terminal_value(
        jump_linear([1.0, 2.0, 3.0]), ens)),
    ("psi", r"got \(3,\)$", lambda ens: derivative_terms(
        jump_linear([1.0, 2.0, 3.0]), ens)),
    ("eta_bound", r"got \(3,\)$", lambda ens: verify_hypotheses(
        ComparisonScenario(_ZERO_DRIVER, _ZERO_DRIVER, constant(1.0),
                           constant(0.0), eta_bound=[0.1, 0.2, 0.3]),
        ens, n_probes=10)),
], ids=["q_special_solve", "q_special_solve-callable", "girsanov_density",
        "shift_to_q", "evaluate_j", "simulate_wealth",
        "simulate_wealth-callable", "per-atom-nan", "per-atom-length",
        "time-sequence", "gamma0-length", "terminal_value",
        "derivative_terms", "verify_hypotheses"])
def test_coefficient_named_in_config_error(grid50, levy2, name, message,
                                           call):
    """Each coefficient reaches the grid through one evaluator, which
    names it, in the user's terms, for a value that is not finite or a
    form it does not take."""
    ens = simulate_ensemble(grid50, levy2, 50, seed=3)
    with pytest.raises(ConfigError, match=rf"\b{name}\b.*{message}"):
        call(ens)
