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
from mfbsde import (
    CapabilityError,
    ConfigError,
    DomainError,
    LevyMeasure,
    LinearCoefficients,
    brownian_linear,
    build_grid,
    constant,
    direct_solve,
    jump_linear,
    malliavin_b,
    malliavin_n,
    mean_gamma,
    neumann_solve,
    operator_norm_estimate,
    poly_of_jump_linear,
    q_special_solve,
    simulate_ensemble,
    simulate_gamma,
    smooth_of_brownian,
    solve_linear_y0,
    wealth_linear,
    y_closed_formula,
)
from mfbsde import levy_paths
from mfbsde import linear as linear_module
from mfbsde.core import terminal_value
from mfbsde.levy_paths import _PASS_ROWS, _pass_rows
from mfbsde.linear import MeanVector, _left_quadrature, assemble_system

from conftest import mc_se
from formula_pass import formula_pass


class TestSimulateGamma:
    def test_all_zero_coefficients(self, ens_small):
        g = simulate_gamma(LinearCoefficients(terminal=constant(1.0)),
                           ens_small)
        assert np.all(np.exp(g.log_levels()) == 1.0)

    def test_deterministic_drift(self, ens_small):
        g = simulate_gamma(LinearCoefficients(alpha1=0.5), ens_small)
        assert g.factor(0, ens_small.grid.steps)[0] == pytest.approx(
            math.exp(0.5), rel=1e-12
        )

    def test_brownian_martingale_mean(self, ens_mid):
        g = simulate_gamma(LinearCoefficients(beta1=0.4), ens_mid)
        gt = g.factor(0, ens_mid.grid.steps)
        assert abs(gt.mean() - 1.0) <= 3 * mc_se(gt)

    def test_jump_martingale_mean(self, ens_mid):
        g = simulate_gamma(LinearCoefficients(eta1=0.6), ens_mid)
        gt = g.factor(0, ens_mid.grid.steps)
        assert abs(gt.mean() - 1.0) <= 3 * mc_se(gt)

    def test_cocycle_exact(self, ens_small):
        g = simulate_gamma(
            LinearCoefficients(alpha1=0.2, beta1=0.3, eta1=0.4), ens_small
        )
        lhs = g.factor(10, 40)
        rhs = g.factor(10, 25) * g.factor(25, 40)
        assert np.allclose(lhs, rhs, rtol=1e-12)
        assert np.all(g.factor(17, 17) == 1.0)

    def test_eta_below_minus_one_rejected(self, ens_small):
        with pytest.raises(DomainError, match="eta1"):
            simulate_gamma(LinearCoefficients(eta1=-1.2), ens_small)


class TestMeanGamma:
    def test_degenerate_interval(self, grid50):
        c = LinearCoefficients(alpha1=0.7)
        assert mean_gamma(c, grid50, 0.5, 0.5) == 1.0

    def test_constant_coefficient(self, grid50):
        c = LinearCoefficients(alpha1=0.5)
        assert mean_gamma(c, grid50, 0.0, 1.0) == pytest.approx(
            math.exp(0.5), rel=1e-12
        )

    @pytest.mark.parametrize("t,s,named", [
        (0.0, 2.0, "s=2"),       # past the horizon
        (0.05, 1.0, "t=0.05"),   # between nodes 0 and 1
        (-0.1, 0.5, "t=-0.1"),
    ])
    def test_time_off_the_grid_rejected(self, t, s, named):
        grid = build_grid(1.0, 10)
        c = LinearCoefficients(alpha1=0.2)
        with pytest.raises(ConfigError, match=named):
            mean_gamma(c, grid, t, s)

    def test_same_quadrature_as_the_propagator(self, ens_small):
        c = LinearCoefficients(alpha1=lambda t: 0.3 - 0.2 * t)
        g = simulate_gamma(c, ens_small)
        nodes = ens_small.grid.nodes
        assert mean_gamma(c, ens_small.grid, nodes[7], nodes[40]) \
            == np.exp(g.a1_cum[40] - g.a1_cum[7])

    def test_reads_alpha1_only(self, levy1):
        """mean_gamma calls alpha1 once per node and no other
        coefficient, and gives the bytes of the quadrature of alpha1 as
        the whole coefficient grid holds it."""
        calls = {}

        def counted(name, fn):
            def wrapped(*args):
                calls[name] = calls.get(name, 0) + 1
                return fn(*args)
            return wrapped

        grid = build_grid(1.0, 20)
        c = LinearCoefficients(
            alpha1=counted("alpha1", lambda t: 0.3 - 0.2 * t),
            alpha2=counted("alpha2", lambda t: 0.1 * math.cos(t)),
            beta2=counted("beta2", lambda t: 0.15 * t))
        got = mean_gamma(c, grid, grid.nodes[3], grid.nodes[17])
        assert calls == {"alpha1": grid.steps + 1}
        a1_cum = _left_quadrature(c.on_grid(grid, levy1).a1, grid.dt)
        assert got == float(np.exp(a1_cum[17] - a1_cum[3]))

    def test_matches_simulated_mean(self, ens_mid):
        c = LinearCoefficients(alpha1=0.3, beta1=0.25, eta1=0.4)
        g = simulate_gamma(c, ens_mid)
        rng = np.random.default_rng(8)
        m = ens_mid.grid.steps
        for _ in range(10):
            i = int(rng.integers(0, m))
            l = int(rng.integers(i + 1, m + 1))
            sample = g.factor(i, l)
            target = mean_gamma(c, ens_mid.grid, ens_mid.grid.nodes[i],
                                ens_mid.grid.nodes[l])
            assert abs(sample.mean() - target) <= 3 * mc_se(sample) + 1e-12


class TestAssembleSystem:
    def test_zero_mean_coefficients_zero_kernel(self, ens_small):
        c = LinearCoefficients(alpha1=0.2, beta1=0.1,
                               terminal=constant(1.0))
        sys = assemble_system(c, constant(1.0), ens_small)
        assert not sys.kernel.any()

    def test_constant_terminal_sources(self, ens_small):
        c = LinearCoefficients(terminal=constant(2.0))
        sys = assemble_system(c, constant(2.0), ens_small)
        assert np.allclose(sys.f.v1, 2.0)               # E[xi Gamma] = 2
        assert np.allclose(sys.f.v2, 0.0)               # derivatives vanish
        assert np.allclose(sys.f.v3, 0.0)

    def test_kernel_matches_dense_construction(self, ens_small):
        """The in-place weights have the bytes of the product of the
        propagator means and a dense trapezoid weight matrix, in the
        kernel, the deterministic running cost and the source; the
        terminal part of F1 comes from the same equation with gamma = 0."""
        c = LinearCoefficients(alpha1=lambda t: 0.2 - 0.3 * t,
                               alpha2=lambda t: 0.1 - 0.2 * t,
                               beta1=0.1, beta2=0.15, eta1=0.2, eta2=0.1,
                               gamma=lambda t: 0.05 + t,
                               terminal=brownian_linear(0.5, 1.0))
        g = simulate_gamma(c, ens_small)
        got = assemble_system(c, c.terminal, ens_small, gamma=g)
        grid, levy = ens_small.grid, ens_small.levy
        cg = c.on_grid(grid, levy)
        m1, dt = grid.steps + 1, grid.dt
        eg = np.exp(g.a1_cum[None, :] - g.a1_cum[:, None])
        eg[np.tril_indices(m1, k=-1)] = 0.0
        wq = np.triu(np.full((m1, m1), dt))
        wq[np.arange(m1), np.arange(m1)] = 0.5 * dt
        wq[:, -1] = 0.5 * dt
        wq[-1, -1] = 0.0
        quad = eg * wq
        assert got.kernel.tobytes() == (quad * cg.a2[None, :]).tobytes()
        c0 = replace(c, gamma=0.0)
        f1 = assemble_system(c0, c.terminal, ens_small,
                             gamma=simulate_gamma(c0, ens_small)).f.v1
        f1 = f1 + (quad * cg.g[None, :]).sum(axis=1)
        assert got.f.v1.tobytes() == f1.tobytes()
        coupling = cg.b2 * got.f.v2 \
            + (cg.e2 * levy.weights * got.f.v3).sum(axis=1)
        assert got.source.tobytes() == (f1 + quad @ coupling).tobytes()

    def test_running_cost_joins_the_f1_sample(self, levy1):
        """With a gamma_path, F1 and its SE are the mean and the two-pass
        std(ddof=1) / sqrt(n) of the per-path sample G(t_i, T) xi +
        sum_l wq_il G(t_i, t_l) gp_l, here written as an (M+1)^2 product
        over the paths, merged over three 1,024-path slots."""
        ens = simulate_ensemble(build_grid(1.0, 20), levy1,
                                2 * _PASS_ROWS + 37, seed=19)
        c = LinearCoefficients(alpha1=0.2, alpha2=0.1, beta1=0.3,
                               eta1=0.25, terminal=smooth_of_brownian(
                                   [1.0, 0.5, 0.3]))
        g = simulate_gamma(c, ens)
        gp = 1.0 + 0.5 * np.cos(ens.brownian_nodes)
        got = assemble_system(c, c.terminal, ens, gamma=g, gamma_path=gp)
        m1, dt = ens.grid.steps + 1, ens.grid.dt
        wq = np.triu(np.full((m1, m1), dt))
        wq[np.arange(m1), np.arange(m1)] = 0.5 * dt
        wq[:, -1] = 0.5 * dt
        wq[-1, -1] = 0.0
        expl = np.exp(g.log_levels())
        xi = terminal_value(c.terminal, ens)
        sample = ((expl * gp) @ wq.T + (xi * expl[:, -1])[:, None]) / expl
        want, want_se = _whole_moments(sample)
        assert np.all(np.abs(got.f.v1 - want) <= 1e-12 * np.abs(want))
        assert np.all(np.abs(got.f_se.v1 - want_se) <= 1e-12 * want_se)

    def test_gamma_path_adds_to_gamma(self, ens_small):
        """With a deterministic propagator, gamma = 0.3 plus a running
        cost gp gives the Y(0) and the mean system of gamma = 0 with the
        running cost gp + 0.3."""
        grid = ens_small.grid
        gp = np.cos(ens_small.brownian_nodes) + grid.nodes
        runs = []
        for g0, path in ((0.3, gp), (0.0, gp + 0.3)):
            c = LinearCoefficients(alpha1=0.2, alpha2=0.1, gamma=g0,
                                   terminal=smooth_of_brownian([1.0, 0.5]))
            g = simulate_gamma(c, ens_small)
            sys_ = assemble_system(c, c.terminal, ens_small, gamma=g,
                                   gamma_path=path)
            v = neumann_solve(sys_)
            y0, se, _ = y_closed_formula(c, c.terminal, ens_small, v,
                                         gamma=g, gamma_path=path)
            runs.append([np.array([y0, se]), sys_.f.stack(),
                         sys_.f_se.stack(), sys_.source, sys_.kernel,
                         v.stack()])
        for a, b in zip(*runs):
            assert np.abs(a - b).max() <= 1e-10 * max(1.0, np.abs(b).max())

    def test_brownian_terminal_brownian_row(self, ens_mid):
        """With unit-slope Brownian terminal, the Z-row source is the
        propagator mean."""
        c = LinearCoefficients(alpha1=0.3,
                               terminal=brownian_linear(1.0, 0.0))
        g = simulate_gamma(c, ens_mid)
        sys = assemble_system(c, c.terminal, ens_mid, gamma=g)
        for i in (0, 50, 100):
            target = mean_gamma(c, ens_mid.grid, ens_mid.grid.nodes[i], 1.0)
            se = sys.f_se.v2[i]
            assert abs(sys.f.v2[i] - target) <= 3 * se + 1e-12


def _wealth_terminal(theta, ens, deterministic=True):
    """theta * X(T) on a synthetic positive wealth grid with
    time-dependent exposures."""
    nodes = ens.grid.nodes
    wealth = np.exp(0.2 * ens.brownian_nodes - 0.05 * nodes)
    sigma0 = 0.2 + 0.1 * nodes
    gamma0 = np.column_stack([0.1 - 0.05 * nodes, -0.2 + 0.1 * nodes])
    return wealth_linear(theta, wealth, sigma0, gamma0,
                         pi_is_deterministic=deterministic)


DERIVATIVE_KINDS = {
    "constant": lambda ens: constant(1.5),
    "brownian_linear": lambda ens: brownian_linear(0.7, 0.2),
    "jump_linear": lambda ens: jump_linear(lambda t, z: z * (1.0 + t)),
    "smooth_of_brownian": lambda ens: smooth_of_brownian(
        [0.5, -0.4, 0.3, 0.2]),
    "poly_of_jump_linear": lambda ens: poly_of_jump_linear(
        [0.3, 0.5, -0.2, 0.1], [0.6, -0.4]),
    "wealth_constant_theta": lambda ens: _wealth_terminal(constant(2.0),
                                                          ens),
    "wealth_smooth_theta": lambda ens: _wealth_terminal(
        smooth_of_brownian([1.0, 0.3, 0.1]), ens),
}


class TestDerivativeRows:
    """The one-pass derivative source rows against a per-node loop over
    the closed-form derivatives, on two atoms."""

    @pytest.fixture(scope="class")
    def ens2(self, grid50, levy2):
        return simulate_ensemble(grid50, levy2, 3000, seed=31)

    @staticmethod
    def _per_node(tc, ens, gamma):
        lv = gamma.log_levels()
        weight = np.exp(-lv) * np.exp(lv[:, -1:])
        m1, nj, n = ens.grid.steps + 1, ens.levy.n_atoms, ens.n_paths
        f2, se2 = np.zeros(m1), np.zeros(m1)
        f3, se3 = np.zeros((m1, nj)), np.zeros((m1, nj))
        for i in range(m1):
            s = malliavin_b(tc, ens, i) * weight[:, i]
            f2[i], se2[i] = s.mean(), s.std(ddof=1) / math.sqrt(n)
            for a in range(nj):
                s = malliavin_n(tc, ens, i, a) * weight[:, i]
                f3[i, a], se3[i, a] = s.mean(), s.std(ddof=1) / math.sqrt(n)
        return f2, se2, f3, se3

    @pytest.mark.parametrize("kind", list(DERIVATIVE_KINDS))
    def test_rows_match_per_node_loop(self, ens2, kind):
        tc = DERIVATIVE_KINDS[kind](ens2)
        c = LinearCoefficients(alpha1=0.2, beta1=0.3, eta1=0.25,
                               beta2=0.1, eta2=0.2, terminal=tc)
        g = simulate_gamma(c, ens2)
        sys = assemble_system(c, tc, ens2, gamma=g)
        f2, se2, f3, se3 = self._per_node(tc, ens2, g)
        assert np.abs(sys.f.v2 - f2).max() <= 1e-12
        assert np.abs(sys.f_se.v2 - se2).max() <= 1e-12
        assert np.abs(sys.f.v3 - f3).max() <= 1e-12
        assert np.abs(sys.f_se.v3 - se3).max() <= 1e-12
        if kind != "constant":
            assert np.abs(sys.f.v2).max() + np.abs(sys.f.v3).max() > 0.01

    def test_adapted_wealth_rate_rejected(self, ens2):
        tc = _wealth_terminal(constant(2.0), ens2, deterministic=False)
        c = LinearCoefficients(alpha1=0.2, terminal=tc)
        with pytest.raises(CapabilityError, match="deterministic"):
            assemble_system(c, tc, ens2)


class TestOperatorNorm:
    def test_zero_kernel(self, ens_small):
        c = LinearCoefficients(alpha1=0.2, terminal=constant(1.0))
        sys = assemble_system(c, constant(1.0), ens_small)
        assert operator_norm_estimate(sys, (0.0, 1.0)) == 0.0

    def test_monotone_in_window_length(self, ens_small):
        c = LinearCoefficients(alpha2=0.8, terminal=constant(1.0))
        sys = assemble_system(c, constant(1.0), ens_small)
        norms = [operator_norm_estimate(sys, (a, 1.0))
                 for a in (0.8, 0.5, 0.0)]
        assert norms[0] <= norms[1] <= norms[2]

    def test_against_dense_svd(self, ens_small):
        c = LinearCoefficients(alpha1=0.3, alpha2=1.0, beta2=0.4,
                               eta2=0.5, terminal=constant(1.0))
        sys = assemble_system(c, constant(1.0), ens_small)
        got = operator_norm_estimate(sys, (0.2, 0.9))
        dt = ens_small.grid.dt
        lo = int(math.ceil(0.2 / dt - 1e-9))
        hi = int(math.floor(0.9 / dt + 1e-9)) + 1
        oracle = np.linalg.norm(sys.kernel[lo:hi, lo:hi], 2)
        assert got == pytest.approx(oracle, abs=1e-8)


class TestSolves:
    def test_zero_kernel_returns_source(self, ens_small):
        c = LinearCoefficients(beta1=0.2, terminal=constant(3.0))
        sys = assemble_system(c, constant(3.0), ens_small)
        v = neumann_solve(sys)
        assert np.allclose(v.stack(), sys.f.stack(), atol=1e-14)
        assert np.allclose(direct_solve(sys).stack(), sys.f.stack(),
                           atol=1e-14)

    def test_neumann_matches_direct(self, ens_small):
        c = LinearCoefficients(alpha1=0.2, alpha2=0.4, beta1=0.3,
                               beta2=0.3, eta1=0.3, eta2=0.4, gamma=0.2,
                               terminal=smooth_of_brownian([1.0, 0.5, 0.3]))
        sys = assemble_system(c, c.terminal, ens_small)
        vn = neumann_solve(sys)
        vd = direct_solve(sys)
        assert np.abs(vn.stack() - vd.stack()).max() <= 1e-10

    def test_window_refinement_stable(self, ens_small):
        c = LinearCoefficients(alpha1=0.1, alpha2=0.5, beta2=0.2,
                               terminal=constant(2.0))
        sys = assemble_system(c, constant(2.0), ens_small)
        v1 = neumann_solve(sys, window_len=20)
        v2 = neumann_solve(sys, window_len=10)
        assert np.abs(v1.stack() - v2.stack()).max() <= 1e-8

    def test_scalar_triangular_oracle(self, ens_small):
        """Row-1-only coupling solved by explicit backward substitution."""
        c = LinearCoefficients(alpha1=0.1, alpha2=0.3,
                               terminal=constant(2.0))
        sys = assemble_system(c, constant(2.0), ens_small)
        m1 = sys.n_nodes
        a11 = sys.kernel
        f1 = sys.source
        v = np.zeros(m1)
        for i in reversed(range(m1)):
            v[i] = (f1[i] + a11[i, i + 1:] @ v[i + 1:]) / (1 - a11[i, i])
        vd = direct_solve(sys)
        assert np.abs(vd.v1 - v).max() <= 1e-12

    def test_deterministic_ode_value(self, grid100, levy1):
        ens = simulate_ensemble(grid100, levy1, 500, seed=6)
        c = LinearCoefficients(alpha1=0.1, alpha2=0.2,
                               terminal=constant(2.0))
        y0, se, v = solve_linear_y0(c, ens)
        assert se <= 1e-12
        assert y0 == pytest.approx(2 * math.exp(0.3), abs=1e-3)

    def test_feasible_full_window_needs_one_norm(self, ens_small,
                                                 monkeypatch):
        """When the whole kernel meets the target norm, no shorter window
        is checked: one power iteration, and the full-window result."""
        c = LinearCoefficients(alpha1=0.1, alpha2=0.3,
                               terminal=constant(2.0))
        sys = assemble_system(c, constant(2.0), ens_small)
        want = neumann_solve(sys, window_len=sys.n_nodes)
        norms = []

        def counted(mat, *args, **kwargs):
            norms.append(mat.shape)
            return spectral_norm(mat, *args, **kwargs)

        spectral_norm = linear_module._spectral_norm
        monkeypatch.setattr(linear_module, "_spectral_norm", counted)
        got = neumann_solve(sys)
        assert norms == [(sys.n_nodes, sys.n_nodes)]
        assert got.v1.tobytes() == want.v1.tobytes()

    def test_window_search_matches_direct(self, ens_small, monkeypatch):
        """alpha2 = 3 puts the whole kernel's norm above the target while
        two-node windows stay below it, so the search bisects to a
        shorter window; the windowed series still matches the dense
        solve."""
        c = LinearCoefficients(alpha1=0.1, alpha2=3.0,
                               terminal=constant(2.0))
        system = assemble_system(c, c.terminal, ens_small)
        lengths = []

        def recorded(m1, w_len):
            lengths.append(w_len)
            return window_starts(m1, w_len)

        window_starts = linear_module._window_starts
        monkeypatch.setattr(linear_module, "_window_starts", recorded)
        vn = neumann_solve(system)
        assert lengths[0] == system.n_nodes and lengths[1] == 2
        assert 2 < lengths[-1] < system.n_nodes    # the solve's windows
        assert np.abs(vn.stack() - direct_solve(system).stack()).max() \
            <= 1e-10

    def test_infeasible_window_rejected(self, grid50, levy1):
        ens = simulate_ensemble(grid50, levy1, 200, seed=4)
        c = LinearCoefficients(alpha2=60.0, terminal=constant(1.0))
        sys = assemble_system(c, constant(1.0), ens)
        with pytest.raises(ConfigError, match="window"):
            neumann_solve(sys)


class TestClosedFormula:
    def test_trivial_constant(self, ens_small):
        c = LinearCoefficients(terminal=constant(4.0))
        y0, se, _ = solve_linear_y0(c, ens_small)
        assert y0 == 4.0
        assert se == 0.0

    def test_pathwise_gamma_channel(self, ens_small):
        """A deterministic gamma fed through the pathwise channel matches
        the deterministic-coefficient route exactly."""
        c = LinearCoefficients(alpha1=0.2, alpha2=0.1, gamma=0.3,
                               terminal=constant(1.0))
        y0_det, _, _ = solve_linear_y0(c, ens_small)
        c2 = LinearCoefficients(alpha1=0.2, alpha2=0.1,
                                terminal=constant(1.0))
        g = simulate_gamma(c2, ens_small)
        gp = np.full((ens_small.n_paths, ens_small.grid.steps + 1), 0.3)
        sys = assemble_system(c2, constant(1.0), ens_small, gamma=g,
                              gamma_path=gp)
        v = neumann_solve(sys)
        y0_path, _, _ = y_closed_formula(c2, constant(1.0), ens_small, v,
                                         gamma=g, gamma_path=gp)
        assert y0_path == pytest.approx(y0_det, abs=1e-10)

    def test_gamma_path_layout_changes_no_byte(self, ens_small):
        """A node-major running cost and its C-ordered copy, passed
        straight to the assembly and the closed formula, give
        byte-identical Y(0), SE and per-path samples: each chunk reads
        its running cost elementwise into a node-major plane."""
        c = LinearCoefficients(alpha1=0.2, alpha2=0.1, beta1=0.1,
                               terminal=smooth_of_brownian([1.0, 0.5]))
        g = simulate_gamma(c, ens_small)
        gp = np.asfortranarray(np.cos(ens_small.brownian_nodes))
        outs = []
        for layout in (gp, np.ascontiguousarray(gp)):
            v = neumann_solve(assemble_system(c, c.terminal, ens_small,
                                              gamma=g, gamma_path=layout))
            y0, se, _, sample = y_closed_formula(
                c, c.terminal, ens_small, v, gamma=g, gamma_path=layout,
                return_sample=True)
            outs.append([np.array([y0, se]).tobytes(), sample.tobytes()])
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("atoms", [0, 1, 2])
    @pytest.mark.parametrize("pathwise", [False, True],
                             ids=["gamma", "gamma_path"])
    def test_formula_pass_minus_mean_system_is_the_control_variate(
            self, levy0, levy1, levy2, atoms, pathwise):
        """The closed formula's second pass over the paths differs from
        the mean system's V1(0) by sum_l wq_l (Gbar(0, t_l) - E G(0, t_l))
        h_l, to 1e-12 of Y(0), and each path's formula sample differs
        from the returned sample by the same sum with the path's own
        G(0, t_l)."""
        levy = (levy0, levy1, levy2)[atoms]
        ens = simulate_ensemble(build_grid(1.0, 20), levy,
                                2 * _PASS_ROWS + 37, seed=23 + atoms)
        tc = smooth_of_brownian([1.0, 0.5, 0.3]) if atoms == 0 else \
            poly_of_jump_linear([0.3, 0.5, -0.2], [0.6, -0.4][:atoms])
        c = LinearCoefficients(alpha1=0.2, alpha2=0.15, beta1=0.3,
                               beta2=0.12, eta1=0.25, eta2=0.15,
                               gamma=0.1, terminal=tc)
        g = simulate_gamma(c, ens)
        gp = 1.0 + 0.5 * np.cos(ens.brownian_nodes) if pathwise else None
        v = direct_solve(assemble_system(c, tc, ens, gamma=g,
                                         gamma_path=gp))
        y0, se, _, sample = y_closed_formula(c, tc, ens, v, gamma=g,
                                             gamma_path=gp,
                                             return_sample=True)
        y_ref, se_ref, ref = formula_pass(c, tc, ens, v, g, gp)
        cg, dt = g.cg, ens.grid.dt
        h = cg.a2 * v.v1 + cg.b2 * v.v2 \
            + (cg.e2 * v.v3 * levy.weights).sum(axis=1) + cg.g
        wq = np.full(ens.grid.steps + 1, dt)
        wq[0] = wq[-1] = 0.5 * dt
        expl = np.exp(g.log_levels())
        cv = (expl - np.exp(g.a1_cum)) * (wq * h)
        assert abs(y_ref - y0 - cv.sum(axis=1).mean()) <= 1e-12 * abs(y_ref)
        per_path = cv.sum(axis=1)
        assert np.abs(ref - sample - per_path).max() \
            <= 1e-12 * np.abs(ref).max()
        assert sample.mean() == pytest.approx(y0, rel=1e-14)
        assert se == pytest.approx(mc_se(sample), rel=1e-12)
        assert 0.5 < se / se_ref < 1.5

    def test_hand_built_means_rejected(self, ens_small):
        """A MeanVector that no solve returned has no node-0 sample: the
        closed formula names `v` in a ConfigError, not a silent number."""
        c = LinearCoefficients(alpha1=0.2, alpha2=0.1,
                               terminal=smooth_of_brownian([1.0, 0.5]))
        v = neumann_solve(assemble_system(c, c.terminal, ens_small))
        bare = MeanVector(v.grid, v.v1, v.v2, v.v3)
        other = simulate_ensemble(ens_small.grid, ens_small.levy, 500, 3)
        for means, ens in ((bare, ens_small), (v, other)):
            with pytest.raises(ConfigError, match="^v must be the "
                                                  "neumann_solve"):
                y_closed_formula(c, c.terminal, ens, means)


# the desk coefficients at 1e5 paths on a 50-step grid, printing the
# growth of the peak RSS across solve_linear_y0
LINEAR_RSS = textwrap.dedent("""
    import resource
    import mfbsde as mf
    grid = mf.build_grid(1.0, 50)
    levy = mf.LevyMeasure.from_atoms([(1.0, 0.5)])
    ens = mf.simulate_ensemble(grid, levy, 100000, 5)
    c = mf.LinearCoefficients(
        alpha1=0.12, alpha2=0.18, beta1=0.3, beta2=0.12, eta1=0.25,
        eta2=0.15, gamma=0.1, terminal=mf.smooth_of_brownian([1.0, 0.5]))
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    mf.solve_linear_y0(c, ens)
    after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print((after - before) * 1024)
""")


def _whole_moments(sample: np.ndarray):
    """Whole-array numpy mean and standard error over the path axis."""
    n = sample.shape[0]
    se = sample.std(axis=0, ddof=1) / math.sqrt(n) if n > 1 else \
        np.zeros(sample.shape[1:])
    return sample.mean(axis=0), se


class TestBlockPasses:
    """The closed-form route runs over chunks of _pass_rows(M+1) paths on
    the block workers and merges per-chunk moments in chunk order."""

    COEFFS = dict(alpha1=0.2, alpha2=0.1, beta1=0.3, beta2=0.15,
                  eta1=0.25, eta2=0.2)

    def test_pass_rows_from_node_count(self):
        """1,024 paths up to 101 nodes, then at most 1,024 x 101 values
        per plane in multiples of 64 paths, and never fewer than 64."""
        assert [_pass_rows(m + 1) for m in (1, 50, 100, 101, 400, 800,
                                            1600, 10 ** 5)] == \
            [_PASS_ROWS] * 3 + [960, 256, 128, 64, 64]
        for nodes in range(2, 3000, 7):
            k = _pass_rows(nodes)
            assert k % 64 == 0 and 64 <= k <= _PASS_ROWS
            assert k == 64 or k * nodes <= _PASS_ROWS * 101

    def test_worker_count_changes_no_byte(self, levy2, monkeypatch):
        """1, 2 and 3 workers over three 256-path chunks of a fine grid,
        the last one ragged, with thread switches forced often; a shared
        scratch buffer or a lost write would change bytes."""
        grid = build_grid(1.0, 400)
        k = _pass_rows(grid.steps + 1)
        assert k < _PASS_ROWS
        n = 2 * k + 100
        ens = simulate_ensemble(grid, levy2, n, seed=12)
        tc = poly_of_jump_linear([0.3, 0.5, -0.2, 0.1], [0.6, -0.4])
        c = LinearCoefficients(**self.COEFFS, terminal=tc)
        gp = np.asfortranarray(np.cos(ens.brownian_nodes))
        dn = np.tile([0.1, -0.2], (grid.steps + 1, 1))

        def run(workers):
            monkeypatch.setattr(levy_paths, "_worker_count",
                                lambda: workers)
            g = simulate_gamma(c, ens)
            sys_ = assemble_system(c, tc, ens, gamma=g, gamma_path=gp,
                                   gamma_db=np.full(grid.steps + 1, 0.3),
                                   gamma_dn=dn)
            v = neumann_solve(sys_)
            y0, se, _, sample = y_closed_formula(
                c, tc, ens, v, gamma=g, gamma_path=gp, return_sample=True)
            return [sys_.f.stack().tobytes(), sys_.f_se.stack().tobytes(),
                    np.array([y0, se]).tobytes(), sample.tobytes()]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            want = run(1)
            for workers in (2, 3):
                assert run(workers) == want
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize(
        "steps,n", [(50, 500), (50, 2 * _PASS_ROWS),
                    (50, 2 * _PASS_ROWS + 452), (50, 1),
                    (800, 3 * _pass_rows(801) + 37)],
        ids=["below_one_block", "exact_multiple", "ragged", "one_path",
             "fine_grid_ragged"])
    def test_merge_matches_whole_array(self, levy1, steps, n):
        """The per-node means and standard errors of the terminal source
        row and of a one-term derivative row against a whole-array numpy
        mean and std(ddof=1), on the exponent from log_levels."""
        ens = simulate_ensemble(build_grid(1.0, steps), levy1, n, seed=14)
        tc = smooth_of_brownian([1.0, 0.5, 0.3])
        c = LinearCoefficients(**self.COEFFS, terminal=tc)
        g = simulate_gamma(c, ens)
        sys_ = assemble_system(c, tc, ens, gamma=g)
        lv = g.log_levels()
        weight = np.exp(-lv) * np.exp(lv[:, -1:])
        b_t = ens.brownian_nodes[:, -1]
        for got, got_se, path in (
                (sys_.f.v1, sys_.f_se.v1, terminal_value(tc, ens)),
                (sys_.f.v2, sys_.f_se.v2, 0.5 + 0.6 * b_t)):
            want, want_se = _whole_moments(path[:, None] * weight)
            assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))
            assert np.all(np.abs(got_se - want_se) <= 1e-12 * want_se)
            if n == 1:
                assert not got_se.any()

    @pytest.mark.parametrize("steps", [101, 800])
    def test_moment_slots_hold_1024_paths(self, levy2, monkeypatch, steps):
        """Each chunk merges its moments into the slot of its 1,024 paths,
        so the slot count is n / 1,024 at any M: here 4 slots, of eight
        128-path chunks at M = 800 and of a 960-path and a 64-path chunk
        at M = 101, and a pathwise running cost takes one scratch plane
        more.  The merged means and SEs match a whole-array mean and
        std(ddof=1), with a pathwise running cost, and 3 workers with
        thread switches forced often give the bytes of one."""
        n = 3 * _PASS_ROWS + 37
        ens = simulate_ensemble(build_grid(1.0, steps), levy2, n, seed=16)
        tc = smooth_of_brownian([1.0, 0.5, 0.3])
        c = LinearCoefficients(**self.COEFFS, terminal=tc)
        gp = np.asfortranarray(np.cos(ens.brownian_nodes))
        over_rows, slots = linear_module._over_row_blocks, []

        def spy(rows, shape, work):
            cells = dict(zip(work.__code__.co_freevars, work.__closure__))
            slots.append([cells[k].cell_contents.shape[1]
                          for k in ("sums", "m2")] + [shape[0]])
            over_rows(rows, shape, work)

        monkeypatch.setattr(linear_module, "_over_row_blocks", spy)

        def run(workers):
            monkeypatch.setattr(levy_paths, "_worker_count",
                                lambda: workers)
            g = simulate_gamma(c, ens)
            return g, assemble_system(c, tc, ens, gamma=g, gamma_path=gp)

        g, sys_ = run(1)
        assert slots == [[4, 4, 3]]     # 4 slots; 3 scratch planes
        lv = g.log_levels()
        weight = np.exp(-lv) * np.exp(lv[:, -1:])
        # the Brownian derivative row: no running cost without gamma_db
        want, want_se = _whole_moments(
            (0.5 + 0.6 * ens.brownian_nodes[:, -1:]) * weight)
        assert np.all(np.abs(sys_.f.v2 - want) <= 1e-12 * np.abs(want))
        assert np.all(np.abs(sys_.f_se.v2 - want_se) <= 1e-12 * want_se)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            _, other = run(3)
        finally:
            sys.setswitchinterval(interval)
        for a, b in ((sys_.f, other.f), (sys_.f_se, other.f_se)):
            assert a.stack().tobytes() == b.stack().tobytes()

    def test_deterministic_propagator_has_no_spread(self, grid50, levy1):
        ens = simulate_ensemble(grid50, levy1, 2 * _PASS_ROWS + 452,
                                seed=15)
        c = LinearCoefficients(alpha1=0.3, alpha2=0.1,
                               terminal=constant(2.0))
        sys_ = assemble_system(c, c.terminal, ens)
        assert np.all(sys_.f_se.v1 <= 1e-15 * np.abs(sys_.f.v1))

    def test_block_exponent_is_the_whole_exponent(self, ens_small):
        """A path's exponent, and so each propagator factor, has the same
        bytes whatever rows it is computed with."""
        g = simulate_gamma(LinearCoefficients(**self.COEFFS), ens_small)
        lv = g.log_levels()
        rows = slice(_PASS_ROWS - 100, 2 * _PASS_ROWS + 30)
        assert g.log_block(rows).tobytes() == lv[rows].T.tobytes()
        assert g.factor(10, 40).tobytes() == \
            np.exp(lv[:, 40] - lv[:, 10]).tobytes()

    def test_reverse_trapezoid_is_the_cumulative_sum(self):
        """The node-by-node reverse sums have the bytes of a cumulative
        sum of the trapezoid pairs taken from the right."""
        v = np.random.default_rng(3).standard_normal((51, 40))
        v[-2:] = -0.0          # S_{M-1} = -0 keeps its sign
        pairs = v[:-1] + v[1:]
        want = np.zeros_like(v)
        want[-2::-1] = np.cumsum(pairs[::-1], axis=0)
        got = v.copy()
        linear_module._reverse_trapezoid(got, np.empty_like(v))
        assert got.tobytes() == want.tobytes()

    def test_gamma_of_another_ensemble_rejected(self, grid50, levy1):
        ens_a = simulate_ensemble(grid50, levy1, 300, seed=16)
        ens_b = simulate_ensemble(grid50, levy1, 300, seed=17)
        c = LinearCoefficients(**self.COEFFS, terminal=constant(1.0))
        g = simulate_gamma(c, ens_a)
        v = neumann_solve(assemble_system(c, c.terminal, ens_b))
        with pytest.raises(ConfigError, match="gamma"):
            assemble_system(c, c.terminal, ens_b, gamma=g)
        with pytest.raises(ConfigError, match="gamma"):
            y_closed_formula(c, c.terminal, ens_b, v, gamma=g)

    @pytest.mark.parametrize("other", [
        dict(alpha1=-3.0), dict(beta1=0.1), dict(eta1=0.1)],
        ids=["alpha1", "beta1", "eta1"])
    def test_gamma_of_other_coefficients_rejected(self, ens_small, other):
        """Both passes reject a propagator of another (alpha1, beta1,
        eta1), and also one of other mean coefficients or source: the
        propagator carries every coefficient the passes read."""
        c = LinearCoefficients(**self.COEFFS, terminal=constant(1.0))
        v = neumann_solve(assemble_system(c, c.terminal, ens_small))
        g = simulate_gamma(replace(c, **other), ens_small)
        with pytest.raises(ConfigError, match="other coefficients"):
            assemble_system(c, c.terminal, ens_small, gamma=g)
        with pytest.raises(ConfigError, match="other coefficients"):
            y_closed_formula(c, c.terminal, ens_small, v, gamma=g)
        g = simulate_gamma(replace(c, alpha2=0.5, gamma=1.0), ens_small)
        with pytest.raises(ConfigError, match="other coefficients"):
            y_closed_formula(c, c.terminal, ens_small, v, gamma=g)

    def test_gamma_path_shape_checked(self, levy1):
        """Both passes reject a running cost of the wrong shape with the
        same error."""
        ens = simulate_ensemble(build_grid(1.0, 10), levy1, 300, seed=18)
        c = LinearCoefficients(**self.COEFFS, terminal=constant(1.0))
        v = neumann_solve(assemble_system(c, c.terminal, ens))
        bad = np.zeros((300, 5))
        msg = r"gamma_path must have shape \(n_paths, M\+1\)"
        with pytest.raises(ConfigError, match=msg):
            assemble_system(c, c.terminal, ens, gamma_path=bad)
        with pytest.raises(ConfigError, match=msg):
            y_closed_formula(c, c.terminal, ens, v, gamma_path=bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_gamma_path_finiteness_checked(self, levy1, bad):
        """The one pass, the assembly, names gamma_path in a ConfigError
        when one value is not finite, before any arithmetic warns.  The
        closed formula reads only its shape: the values entered the
        sample in the assembly, so Y(0), its SE and the sample are those
        of the finite running cost the system was assembled with."""
        ens = simulate_ensemble(build_grid(1.0, 10), levy1, 300, seed=18)
        c = LinearCoefficients(**self.COEFFS, terminal=constant(1.0))
        gp = np.zeros((300, 11))
        v = neumann_solve(assemble_system(c, c.terminal, ens,
                                          gamma_path=gp))
        want = y_closed_formula(c, c.terminal, ens, v, gamma_path=gp,
                                return_sample=True)
        gp[123, 7] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match="gamma_path must be "
                                                  "finite"):
                assemble_system(c, c.terminal, ens, gamma_path=gp)
            got = y_closed_formula(c, c.terminal, ens, v, gamma_path=gp,
                                   return_sample=True)
        assert got[:2] == want[:2]
        assert got[3].tobytes() == want[3].tobytes()

    def test_means_of_another_grid_or_atom_count_rejected(self, levy1,
                                                          levy2):
        """The closed formula names `v` in a ConfigError when its means
        are of another grid or atom count: numpy would raise on another
        node count and broadcast another atom count silently."""
        grid = build_grid(1.0, 10)
        ens = simulate_ensemble(grid, levy1, 500, seed=3)
        c = LinearCoefficients(eta2=0.3, terminal=jump_linear(1.0))
        for other in (simulate_ensemble(build_grid(1.0, 20), levy1, 500, 3),
                      simulate_ensemble(build_grid(2.0, 10), levy1, 500, 3),
                      simulate_ensemble(grid, levy2, 500, 3)):
            v = neumann_solve(assemble_system(c, c.terminal, other))
            with pytest.raises(ConfigError, match="^v must hold the means"):
                y_closed_formula(c, c.terminal, ens, v)
        v = neumann_solve(assemble_system(c, c.terminal, ens))
        assert math.isfinite(y_closed_formula(c, c.terminal, ens, v)[0])

    def test_coefficients_evaluated_once_per_solve(self, ens_small):
        """solve_linear_y0 calls each coefficient once per node (one
        atom): assembly and the closed formula read the grid that the
        propagator carries."""
        calls = {}

        def counted(name, fn):
            def wrapped(*args):
                calls[name] = calls.get(name, 0) + 1
                return fn(*args)
            return wrapped

        c = LinearCoefficients(
            alpha1=counted("alpha1", lambda t: 0.2 + 0.1 * t),
            alpha2=counted("alpha2", lambda t: 0.1 * math.cos(t)),
            beta1=counted("beta1", lambda t: 0.3 - 0.1 * t),
            beta2=counted("beta2", lambda t: 0.15 * t),
            eta1=counted("eta1", lambda t, z: 0.25 * z + 0.1 * t),
            eta2=counted("eta2", lambda t, z: 0.2 * z * t),
            gamma=counted("gamma", lambda t: 0.1 + t),
            terminal=brownian_linear(0.5, 1.0))
        assert ens_small.levy.n_atoms == 1
        solve_linear_y0(c, ens_small)
        assert calls == dict.fromkeys(
            ["alpha1", "alpha2", "beta1", "beta2", "eta1", "eta2", "gamma"],
            ens_small.grid.steps + 1)

    def test_passed_propagator_changes_no_byte(self, ens_small):
        """The assembly and the closed formula give the same bytes with
        and without `gamma=simulate_gamma(c, ens)`, the call pattern of
        the CLI and the benchmark: the sources, with F1's node-0 sample,
        and the Y(0), SE and sample read off each system's solution."""
        c = LinearCoefficients(**self.COEFFS, gamma=0.1,
                               terminal=smooth_of_brownian([1.0, 0.5, 0.2]))
        g = simulate_gamma(c, ens_small)
        given = assemble_system(c, c.terminal, ens_small, gamma=g)
        own = assemble_system(c, c.terminal, ens_small)
        for a, b in ((given.kernel, own.kernel), (given.source, own.source),
                     (given.f.stack(), own.f.stack()),
                     (given.f_se.stack(), own.f_se.stack()),
                     (given.f.node0[0], own.f.node0[0])):
            assert a.tobytes() == b.tobytes()
        y_given = y_closed_formula(c, c.terminal, ens_small,
                                   neumann_solve(given), gamma=g,
                                   return_sample=True)
        y_own = y_closed_formula(c, c.terminal, ens_small,
                                 neumann_solve(own), return_sample=True)
        assert y_given[:2] == y_own[:2]
        assert y_given[3].tobytes() == y_own[3].tobytes()

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="ru_maxrss is in KiB on Linux only")
    def test_peak_rss_below_one_path_array(self):
        """The linear route holds no (n, M+1) array: across
        solve_linear_y0 the peak RSS grows by less than one."""
        src = str(Path(mfbsde.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        grown = int(subprocess.run(
            [sys.executable, "-c", LINEAR_RSS], env=env, check=True,
            capture_output=True, text=True).stdout)
        assert grown < 100000 * 51 * 8


    def test_fine_grid_memory_bound(self, monkeypatch):
        """At M = 1600 the route's traced peak stays below 2.5 (M+1)^2
        doubles plus the chunk planes of the two workers and the
        per-chunk moment slots: assembly holds at most two (M+1)^2 arrays
        and O(M) scratch per worker, and the solve and the closed formula
        add no (M+1)^2 array to the kernel."""
        grid = build_grid(1.0, 1600)
        levy = LevyMeasure.from_atoms([(1.0, 0.5), (-0.5, 0.7)])
        ens = simulate_ensemble(grid, levy, 3000, seed=21)
        tc = poly_of_jump_linear([0.3, 0.5, -0.2], [0.6, -0.4])
        c = LinearCoefficients(**self.COEFFS, gamma=0.1, terminal=tc)
        monkeypatch.setattr(levy_paths, "_worker_count", lambda: 2)
        m1, k = grid.steps + 1, 64      # 64 paths per chunk at M = 1600
        planes = 2 * 2 * m1 * k * 8
        slots = 2 * 4 * -(-ens.n_paths // k) * m1 * 8
        bound = 2.5 * m1 * m1 * 8 + planes + slots
        g = simulate_gamma(c, ens)
        tracemalloc.start()
        try:
            sys_ = assemble_system(c, tc, ens, gamma=g)
            _, assembly = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            v = neumann_solve(sys_)
            y_closed_formula(c, tc, ens, v, gamma=g)
            _, solve = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert assembly < bound
        assert solve < bound


class TestCrossSolver:
    @pytest.mark.parametrize("coeffs", [
        LinearCoefficients(alpha1=0.2, alpha2=0.1, beta1=0.25, beta2=0.1,
                           eta1=0.2, eta2=0.1,
                           terminal=brownian_linear(0.5, 1.0)),
        LinearCoefficients(alpha1=0.15, alpha2=0.1, beta1=0.2, beta2=0.15,
                           eta1=0.3, eta2=0.2, gamma=0.05,
                           terminal=jump_linear(1.0)),
    ], ids=["brownian", "jump"])
    def test_closed_vs_picard(self, ens_mid, basis, coeffs):
        from mfbsde import mean_yzk, picard_full_freeze

        y0l, sel, _ = solve_linear_y0(coeffs, ens_mid)
        drv = coeffs.as_driver(ens_mid.grid, ens_mid.levy)
        sol, rep = picard_full_freeze(drv, mean_yzk(1), coeffs.terminal,
                                      ens_mid, basis, check=False)
        assert rep.converged
        y0p = sol.y[:, 0].mean()
        sep = mc_se(sol.y[:, 1])
        assert abs(y0l - y0p) <= 3 * math.hypot(sel, sep)

    def test_terminal_outside_the_catalog_rejected_by_both(self, ens_small,
                                                           basis):
        """Both routes read the terminal through the catalog, so a
        hand-made kind is a CapabilityError naming it on either."""
        from mfbsde import TerminalCondition, mean_yzk, picard_full_freeze

        tc = TerminalCondition("custom", {})
        c = LinearCoefficients(alpha1=0.2, terminal=tc)
        with pytest.raises(CapabilityError, match="'custom'"):
            assemble_system(c, tc, ens_small)
        drv = c.as_driver(ens_small.grid, ens_small.levy)
        with pytest.raises(CapabilityError, match="'custom'"):
            picard_full_freeze(drv, mean_yzk(ens_small.levy.n_atoms), tc,
                               ens_small, basis, check=False)


class TestQSpecial:
    def test_deterministic_ode_exact(self, ens_small):
        res = q_special_solve(0.1, 0.2, 0.0, 0.0, 0.0, constant(2.0),
                              ens_small)
        assert res.mean_y[0] == pytest.approx(2 * math.exp(0.3),
                                              rel=1e-12)

    def test_identity_tilt_matches_linear_pipeline(self, ens_mid):
        tc = brownian_linear(0.5, 1.0)
        res = q_special_solve(0.1, 0.2, 0.0, 0.0, 0.05, tc, ens_mid)
        c = LinearCoefficients(alpha1=0.1, alpha2=0.2, gamma=0.05,
                               terminal=tc)
        y0l, sel, _ = solve_linear_y0(c, ens_mid)
        tol = 3 * math.hypot(sel, res.se_shifted) + 1e-6
        assert abs(res.y0_shifted - y0l) <= tol
        assert res.y0_weighted == pytest.approx(res.y0_shifted, abs=1e-12)

    def test_weighted_and_shifted_agree(self, ens_mid):
        res = q_special_solve(0.1, 0.15, 0.3, 0.4, 0.05,
                              brownian_linear(0.5, 1.0), ens_mid)
        gap = abs(res.y0_weighted - res.y0_shifted)
        assert gap <= 3 * math.hypot(res.se_weighted, res.se_shifted)

    def test_one_path_has_zero_standard_errors(self, grid50, levy1):
        """On a one-path ensemble both estimates report SE 0.0 without a
        warning, as solve_linear_y0 does."""
        ens = simulate_ensemble(grid50, levy1, 1, seed=8)
        tc = brownian_linear(0.5, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = q_special_solve(0.1, 0.15, 0.3, 0.4, 0.05, tc, ens)
            _, se, _ = solve_linear_y0(
                LinearCoefficients(alpha1=0.1, alpha2=0.2, terminal=tc),
                ens)
        assert (res.se_weighted, res.se_shifted, se) == (0.0, 0.0, 0.0)
        assert math.isfinite(res.y0_weighted)
        assert math.isfinite(res.y0_shifted)

    def test_positivity_inherited(self, ens_small):
        with pytest.raises(DomainError):
            q_special_solve(0.1, 0.1, 0.0, -1.5, 0.0, constant(1.0),
                            ens_small)
