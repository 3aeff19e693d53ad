"""Acceptance suite: one test per acceptance criterion, each printing a
PASS line with the measured quantities (run with `pytest -s` to see them
on success).  Desk scale throughout: T = 1, M = 100 steps, up to 1e5
paths, one or two jump atoms.
"""
import math
import warnings

import numpy as np
import pytest

from mfbsde import (
    ComparisonScenario,
    ControlProcess,
    DriverSpec,
    LevyMeasure,
    LinearCoefficients,
    RegressionBasis,
    UtilityCoefficients,
    WealthParams,
    affine_driver,
    brownian_linear,
    build_grid,
    constant,
    contraction_check,
    default_beta,
    dh_dpi,
    evaluate_j,
    jump_linear,
    mean_y,
    mean_yzk,
    optimal_pi,
    picard_full_freeze,
    picard_mean_freeze,
    q_special_solve,
    run_comparison,
    simulate_ensemble,
    simulate_gamma,
    smooth_of_brownian,
    solve_adjoints,
    solve_linear_y0,
    terminal_value,
    verify_hypotheses,
)
from mfbsde.linear import assemble_system, direct_solve, mean_gamma, \
    neumann_solve
from mfbsde.utility import adjoint_lambda

GRID = build_grid(1.0, 100)
LEVY = LevyMeasure.from_atoms([(1.0, 0.5)])
BASIS = RegressionBasis(degree=2)

# the five stochastic linear scenarios of the cross-validation criterion;
# together they cover nonzero values of all six linear coefficients
CROSS_SCENARIOS = [
    ("brownian terminal", LinearCoefficients(
        alpha1=0.2, alpha2=0.1, beta1=0.25, beta2=0.1, eta1=0.2, eta2=0.1,
        terminal=brownian_linear(0.5, 1.0))),
    ("jump terminal", LinearCoefficients(
        alpha1=0.15, alpha2=0.1, beta1=0.2, beta2=0.15, eta1=0.3,
        eta2=0.2, gamma=0.05, terminal=jump_linear(1.0))),
    ("smooth terminal", LinearCoefficients(
        alpha1=0.1, alpha2=0.2, beta1=0.15, beta2=0.1, eta1=0.1,
        eta2=0.05, terminal=smooth_of_brownian([0.5, 0.0, 0.25]))),
    ("negative exposures", LinearCoefficients(
        alpha1=0.1, alpha2=0.1, beta1=-0.2, beta2=0.1, eta1=-0.4,
        eta2=0.1, terminal=brownian_linear(0.3, 0.5))),
    ("all six with source", LinearCoefficients(
        alpha1=0.12, alpha2=0.18, beta1=0.3, beta2=0.12, eta1=0.25,
        eta2=0.15, gamma=0.1, terminal=smooth_of_brownian([1.0, 0.5, 0.2]))),
]


@pytest.fixture(scope="module")
def ens_desk():
    return simulate_ensemble(GRID, LEVY, 100000, seed=2024)


@pytest.fixture(scope="module")
def ens_50k():
    return simulate_ensemble(GRID, LEVY, 50000, seed=515)


@pytest.fixture(scope="module")
def ens_det():
    return simulate_ensemble(GRID, LEVY, 2000, seed=77)


def picard_y0(coeffs, ens, tc=None):
    drv = coeffs.as_driver(ens.grid, ens.levy)
    sol, rep = picard_full_freeze(drv, mean_yzk(ens.levy.n_atoms),
                                  tc or coeffs.terminal, ens, BASIS,
                                  check=False)
    assert rep.converged
    se = sol.y[:, 1].std(ddof=1) / math.sqrt(ens.n_paths)
    return float(sol.y[:, 0].mean()), float(se)


def test_criterion_01_deterministic_exactness(ens_det):
    """ODE-oracle scenarios within 1e-3 of the analytic value on both
    routes; exactly representable scenarios within 1e-8."""
    rows = []
    ode = [
        (LinearCoefficients(alpha1=0.1, alpha2=0.2, terminal=constant(2.0)),
         2 * math.exp(0.3)),
        (LinearCoefficients(alpha1=0.15, alpha2=0.1, gamma=0.2,
                            terminal=constant(1.0)),
         math.exp(0.25) + 0.2 * (math.exp(0.25) - 1.0) / 0.25),
    ]
    for coeffs, truth in ode:
        yl, _, _ = solve_linear_y0(coeffs, ens_det)
        yp, _ = picard_y0(coeffs, ens_det)
        assert abs(yl - truth) <= 1e-3
        assert abs(yp - truth) <= 1e-3
        rows.append(f"ode truth={truth:.5f} linear err={yl - truth:+.2e} "
                    f"picard err={yp - truth:+.2e}")
    trivial = [
        (LinearCoefficients(terminal=constant(2.0)), 2.0),
        (LinearCoefficients(gamma=0.5, terminal=constant(1.0)), 1.5),
    ]
    for coeffs, truth in trivial:
        yl, _, _ = solve_linear_y0(coeffs, ens_det)
        yp, _ = picard_y0(coeffs, ens_det)
        assert abs(yl - truth) <= 1e-8
        assert abs(yp - truth) <= 1e-8
        rows.append(f"trivial truth={truth} linear err={yl - truth:+.1e} "
                    f"picard err={yp - truth:+.1e}")
    print("\nACCEPTANCE 1 PASS - deterministic exactness: "
          + "; ".join(rows))


def test_criterion_02_cross_validation(ens_desk):
    """Closed-form vs Picard Y(0) within 3 combined SE on five stochastic
    linear scenarios spanning all six coefficients."""
    lines = []
    for name, coeffs in CROSS_SCENARIOS:
        yl, sel, _ = solve_linear_y0(coeffs, ens_desk)
        yp, sep = picard_y0(coeffs, ens_desk)
        gap = abs(yl - yp)
        lim = 3 * math.hypot(sel, sep)
        assert gap <= lim, f"{name}: gap {gap:.4g} > {lim:.4g}"
        lines.append(f"{name}: gap={gap:.1e} 3se={lim:.1e}")
    print("\nACCEPTANCE 2 PASS - closed form vs Picard: "
          + "; ".join(lines))


def test_criterion_03_contraction(ens_50k):
    """Observed solution-map contraction ratios at the default weight
    stay at or below 0.5 + 0.05 across ten random input pairs."""
    lines = []
    for coeffs in (
        LinearCoefficients(alpha1=0.15, alpha2=0.1, beta1=0.1, beta2=0.05,
                           eta1=0.1, eta2=0.05, terminal=constant(1.0)),
        LinearCoefficients(alpha1=0.3, alpha2=0.2, beta1=0.25, beta2=0.15,
                           eta1=0.3, eta2=0.2,
                           terminal=brownian_linear(0.5, 1.0)),
    ):
        drv = coeffs.as_driver(GRID, LEVY)
        phi = mean_yzk(1)
        beta = default_beta(drv, phi)
        ratios = contraction_check(drv, phi, coeffs.terminal, ens_50k,
                                   BASIS, beta=beta, n_pairs=10)
        assert max(ratios) <= 0.5 + 0.05
        lines.append(f"C={drv.lipschitz_c:.2f} beta={beta:.1f} "
                     f"max ratio={max(ratios):.2e}")
    print("\nACCEPTANCE 3 PASS - contraction: " + "; ".join(lines))


def test_criterion_04_factorial_envelope(ens_50k):
    """Mean-freeze iterate differences decay super-geometrically and sit
    below the factorial bound c T^n e^{CnT} / n! fitted at n = 2."""
    drv = DriverSpec(lambda t, y, z, k, mu: np.full_like(y, mu[0]), 1.0,
                     1, name="mean-growth")
    _, rep = picard_mean_freeze(drv, constant(1.0), ens_50k, BASIS,
                                tol=1e-12, max_iter=12, check=False)
    c_lip, horizon = 1.0, 1.0

    def envelope(c_fit, n):
        return c_fit * horizon**n * math.exp(c_lip * n * horizon) \
            / math.factorial(n)

    checked = 0
    for label, series in (("sup-node", rep.deltas),
                          ("integrated", rep.integrated)):
        d = [x for x in series if x > 1e-26]
        assert len(d) >= 5
        ratios = [d[i + 1] / d[i] for i in range(len(d) - 1)]
        assert all(r2 < r1 for r1, r2 in zip(ratios, ratios[1:])), \
            f"{label} decay not super-geometric"
        c_fit = d[1] / envelope(1.0, 2)
        for n in range(3, len(d) + 1):
            assert d[n - 1] <= envelope(c_fit, n) * (1 + 1e-9), \
                f"{label} exceeds envelope at n={n}"
            checked += 1
    print(f"\nACCEPTANCE 4 PASS - factorial envelope: deltas "
          f"{['%.1e' % x for x in rep.deltas[:6]]}, {checked} envelope "
          "points checked on both series")


def test_criterion_05_neumann_direct_oracle(ens_det, ens_50k):
    """Neumann and dense solutions agree to 1e-10 on every scenario;
    halving the window moves the solution by at most 1e-8."""
    worst_gap = 0.0
    worst_win = 0.0
    systems = []
    for _, coeffs in CROSS_SCENARIOS:
        systems.append(assemble_system(coeffs, coeffs.terminal, ens_50k))
    systems.append(assemble_system(
        LinearCoefficients(alpha1=0.1, alpha2=0.2, terminal=constant(2.0)),
        constant(2.0), ens_det))
    for sys_ in systems:
        vn = neumann_solve(sys_)
        vd = direct_solve(sys_)
        worst_gap = max(worst_gap,
                        float(np.abs(vn.stack() - vd.stack()).max()))
        v20 = neumann_solve(sys_, window_len=20)
        v10 = neumann_solve(sys_, window_len=10)
        worst_win = max(worst_win,
                        float(np.abs(v20.stack() - v10.stack()).max()))
    assert worst_gap <= 1e-10
    assert worst_win <= 1e-8
    print(f"\nACCEPTANCE 5 PASS - Neumann vs direct: max gap "
          f"{worst_gap:.1e}; window refinement max move {worst_win:.1e}")


def test_criterion_06_mean_gamma_identity(ens_desk):
    """Simulated propagator means match exp(int a1) at ten sampled node
    pairs per scenario, within 3 SE (exactly when deterministic)."""
    rng = np.random.default_rng(66)
    checked = 0
    for coeffs in (
        LinearCoefficients(alpha1=0.3, beta1=0.25, eta1=0.4),
        LinearCoefficients(alpha1=-0.2, beta1=0.4, eta1=-0.3),
        LinearCoefficients(alpha1=0.25),  # deterministic: zero spread
    ):
        g = simulate_gamma(coeffs, ens_desk)
        for _ in range(10):
            i = int(rng.integers(0, GRID.steps))
            l = int(rng.integers(i + 1, GRID.steps + 1))
            sample = g.factor(i, l)
            target = mean_gamma(coeffs, GRID, GRID.nodes[i],
                                GRID.nodes[l])
            se = sample.std(ddof=1) / math.sqrt(sample.size)
            assert abs(sample.mean() - target) <= 3 * se + 1e-12
            checked += 1
    print(f"\nACCEPTANCE 6 PASS - mean propagator identity at {checked} "
          "sampled (t, s) pairs across 3 scenarios")


def test_criterion_07_comparison_theorem():
    """Three hypothesis-satisfying pairs keep every node margin above
    -3 SE; a constructed jump-condition violation is reported."""
    ens = simulate_ensemble(GRID, LEVY, 15000, seed=303)
    w = LEVY.weights

    def drv(fn, c, name):
        return DriverSpec(fn, c, 1, name=name)

    pairs = [
        ("ordered terminals", ComparisonScenario(
            drv(lambda t, y, z, k, mu: np.zeros_like(y), 0.0, "zero"),
            drv(lambda t, y, z, k, mu: np.zeros_like(y), 0.0, "zero"),
            constant(1.0), constant(0.0))),
        ("driver gap", ComparisonScenario(
            drv(lambda t, y, z, k, mu: np.ones_like(y), 0.0, "one"),
            drv(lambda t, y, z, k, mu: np.zeros_like(y), 0.0, "zero"),
            constant(0.0), constant(0.0))),
        ("mean growth", ComparisonScenario(
            drv(lambda t, y, z, k, mu: np.full_like(y, max(mu[0], 0.0)),
                1.0, "mean+"),
            drv(lambda t, y, z, k, mu: np.zeros_like(y), 0.0, "zero"),
            constant(1.0), constant(1.0))),
    ]
    lines = []
    for name, sc in pairs:
        rep = run_comparison(sc, ens, BASIS, n_probes=5000)
        assert rep.hypotheses.all_pass, name
        assert rep.solved
        slack = rep.margin + 3 * np.maximum(rep.margin_se, 1e-300)
        assert np.all(slack >= 0), f"{name}: node margin below -3 SE"
        lines.append(f"{name}: min margin={rep.min_margin:+.4f}")

    violating = ComparisonScenario(
        drv(lambda t, y, z, k, mu: np.zeros_like(y), 0.0, "zero"),
        drv(lambda t, y, z, k, mu: -(k @ w), 1.0, "neg-k"),
        constant(1.0), constant(0.0), eta_bound=1.0)
    repv = run_comparison(violating, ens, BASIS, n_probes=5000)
    assert not repv.hypotheses.jump_bound_holds
    assert any(kind == "jump" for kind, _ in repv.hypotheses.violations)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        forced = run_comparison(violating, ens, BASIS, n_probes=10,
                                force=True)
    lines.append(
        "violating pair reported: "
        + repv.hypotheses.violations[0][1][:40]
        + f"...; forced min margin {forced.min_margin:+.3f} (logged)"
    )
    print("\nACCEPTANCE 7 PASS - comparison theorem: " + "; ".join(lines))


# The comparison theorem's hypotheses are needed: each pair below breaks
# exactly one of them, and its ordering fails on the exact solution.
# Bounds are about three times the errors measured on this ensemble
# (15,000 paths, M = 50, seed 303).

@pytest.fixture(scope="module")
def ens_counter():
    return simulate_ensemble(build_grid(1.0, 50), LEVY, 15000, seed=303)


def _forced(sc, ens):
    """The hypothesis kinds flagged, the forced comparison, and each
    equation's mean-freeze solution as the comparison solves it."""
    kinds = [kind for kind, _ in
             verify_hypotheses(sc, ens, n_probes=5000).violations]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        rep = run_comparison(sc, ens, BASIS, n_probes=5000, force=True)
        sols = [picard_mean_freeze(g, xi, ens, BASIS, check=False)[0]
                for g, xi in ((sc.g1, sc.xi1), (sc.g2, sc.xi2))]
    return kinds, rep, sols


def test_comparison_needs_a_driver_nondecreasing_in_the_mean(ens_counter):
    """g1 = g2 = -3 E[Y], xi1 = B(T)^2 >= xi2 = 0: only the driver
    hypothesis fails.  Y2 = 0 and Y1(t) = B(t)^2 + (1 - t)
    + e^{-3(1-t)} - 1, so Y1(0) > 0 but the margin falls to
    min_t e^{-3(1-t)} - t = -0.300 near t = 0.634, on paths with B = 0.
    The forced run reads min margin -0.309 (bound: within 0.03 of the
    exact node minimum) and ordering_holds False.  At t = 0.5 Picard's
    Y1 is negative on 54.83% of paths and the exact Y1 on the same paths
    on 54.51% (bound 0.01 apart), with an RMS error of 0.0163 (bound
    0.05); over all nodes the RMS error is at most 0.024 (bound
    0.075)."""
    ens = ens_counter
    g = DriverSpec(lambda t, y, z, k, mu: np.full_like(y, -3.0 * mu[0]),
                   3.0, 1, name="-3 E[Y]")
    kinds, rep, (sol1, sol2) = _forced(ComparisonScenario(
        g, g, smooth_of_brownian([0.0, 0.0, 1.0]), constant(0.0)), ens)
    assert kinds == ["driver"]
    assert not rep.ordering_holds
    t = ens.grid.nodes
    exact_min = float((np.exp(-3.0 * (1.0 - t)) - t).min())
    assert abs(rep.min_margin - exact_min) <= 0.03
    assert not sol2.y.any()
    exact = ens.brownian_nodes ** 2 + (1.0 - t) + np.exp(-3.0 * (1.0 - t)) \
        - 1.0
    i = 25                                  # t = 0.5
    assert abs((sol1.y[:, i] < 0).mean() - (exact[:, i] < 0).mean()) <= 0.01
    rms = np.sqrt(((sol1.y - exact) ** 2).mean(axis=0))
    assert rms[i] <= 0.05 and rms.max() <= 0.075


def test_comparison_needs_the_jump_bound(ens_counter):
    """g1 = g2 = -3 sum_j k_j w_j, xi1 = Ntilde(T) >= xi2 = -w T: only
    the jump hypothesis fails.  Y1 - Y2 = N(t) - 2 w (T - t), which is
    -1 at t = 0 (one atom, w = 0.5).  The forced run reads ordering_holds
    False and a node-0 margin of -0.981 (bound: within 0.06 of -1); the
    pathwise margin's RMS error is at most 0.019 at every node (bound
    0.06)."""
    ens = ens_counter
    w = ens.levy.weights
    g = DriverSpec(lambda t, y, z, k, mu: -3.0 * (k @ w), 3.0, 1,
                   name="-3 k.w")
    kinds, rep, (sol1, sol2) = _forced(ComparisonScenario(
        g, g, jump_linear(1.0), constant(-float(w[0]))), ens)
    assert kinds == ["jump"]
    assert not rep.ordering_holds
    assert abs(rep.margin[0] + 1.0) <= 0.06
    exact = ens.count_nodes[:, :, 0] - 2.0 * w[0] * (1.0 - ens.grid.nodes)
    rms = np.sqrt(((sol1.y - sol2.y - exact) ** 2).mean(axis=0))
    assert rms.max() <= 0.06


def test_criterion_08_measure_change_duality(ens_desk):
    """Weighted-P and shifted-Q estimates agree within 3 combined SE, and
    the zero-tilt case matches the linear pipeline within 3 SE."""
    tc = brownian_linear(0.5, 1.0)
    res = q_special_solve(0.1, 0.15, 0.3, 0.4, 0.05, tc, ens_desk)
    gap = abs(res.y0_weighted - res.y0_shifted)
    lim = 3 * math.hypot(res.se_weighted, res.se_shifted)
    assert gap <= lim

    res0 = q_special_solve(0.1, 0.2, 0.0, 0.0, 0.05, tc, ens_desk)
    assert res0.y0_weighted == pytest.approx(res0.y0_shifted, abs=1e-12)
    coeffs = LinearCoefficients(alpha1=0.1, alpha2=0.2, gamma=0.05,
                                terminal=tc)
    yl, sel, _ = solve_linear_y0(coeffs, ens_desk)
    gap0 = abs(res0.y0_shifted - yl)
    lim0 = 3 * math.hypot(sel, res0.se_shifted) + 1e-6
    assert gap0 <= lim0
    print(f"\nACCEPTANCE 8 PASS - measure-change duality: tilted gap "
          f"{gap:.1e} (3se {lim:.1e}); zero-tilt vs linear pipeline gap "
          f"{gap0:.1e} (3se {lim0:.1e})")


# Bequest-dominated scenarios: there the first-order candidate sits in
# the flat region of J and the 20-way optimality inequality holds with
# real margin (see test_utility for the improvable small-bequest regime).
UTILITY_SCENARIOS = [
    ("diffusive", WealthParams(x0=1.0, b0=0.05, sigma0=0.2, gamma0=0.1),
     UtilityCoefficients(alpha0=0.05, alpha1=0.03, beta0=0.15, eta0=0.2,
                         theta=constant(4.0))),
    ("jumpy", WealthParams(x0=1.0, b0=0.04, sigma0=0.25, gamma0=-0.2),
     UtilityCoefficients(alpha0=0.04, alpha1=0.02, beta0=0.1, eta0=-0.25,
                         theta=constant(4.5))),
]


def _perturbations(pi_hat, n_paths, grid):
    """20 rate perturbations: multiplicative bumps and half-interval
    time-shifted bumps."""
    base = pi_hat.paths(n_paths)
    out = []
    for f in (0.7, 0.8, 0.9, 0.95, 1.05, 1.1, 1.2, 1.3, 1.4, 1.5):
        out.append(base * f)
    half = grid.steps // 2
    for f in (0.75, 0.85, 1.15, 1.25, 1.4):
        bumped = base.copy()
        bumped[:, :half] = bumped[:, :half] * f
        out.append(bumped)
        bumped2 = base.copy()
        bumped2[:, half:] = bumped2[:, half:] * f
        out.append(bumped2)
    return out[:20]


def test_criterion_09_control_optimality(ens_50k):
    """Exact adjoint endpoints, the mean identity for lambda (including a
    fully-coupled coefficient set), an exactly vanishing first-order
    condition, and 20-way statistical optimality of the candidate rate on
    two scenarios."""
    deciles = np.arange(10, GRID.steps + 1, 10)

    def lam_deviation(lam, mlam):
        emp = lam[:, deciles].mean(axis=0)
        se = lam[:, deciles].std(axis=0, ddof=1) \
            / math.sqrt(lam.shape[0])
        return (np.abs(emp - mlam[deciles]) / np.maximum(se, 1e-300)).max()

    uc_full = UtilityCoefficients(alpha0=0.1, alpha1=0.05, beta0=0.2,
                                  beta1=0.1, eta0=0.3, eta1=0.15,
                                  theta=smooth_of_brownian([1.0, 0.0, 1.0]))
    lam, _, mlam = adjoint_lambda(uc_full, ens_50k)
    assert np.all(lam[:, 0] == 1.0)
    dev_full = lam_deviation(lam, mlam)
    assert dev_full <= 3.0

    lines = [f"full-coefficient E[lambda] max dev {dev_full:.2f} se"]
    for name, wp, uc in UTILITY_SCENARIOS:
        adj = solve_adjoints(uc, ens_50k, BASIS)
        assert np.all(adj.lam[:, 0] == 1.0)
        theta_path = terminal_value(uc.theta, ens_50k)
        assert np.array_equal(adj.p[:, -1], theta_path)
        assert lam_deviation(adj.lam, adj.mean_lam) <= 3.0

        pi_hat = optimal_pi(adj)
        res = dh_dpi(pi_hat.paths(ens_50k.n_paths), adj.p, adj.lam)
        assert np.abs(res).max() == 0.0

        j_hat, se_hat, _ = evaluate_j(wp, uc, pi_hat, ens_50k)
        worst = math.inf
        for bumped in _perturbations(pi_hat, ens_50k.n_paths,
                                     ens_50k.grid):
            jb, seb, _ = evaluate_j(
                wp, uc, ControlProcess(bumped, pi_hat.deterministic),
                ens_50k)
            slack = (j_hat - jb) + 3 * math.hypot(se_hat, seb)
            worst = min(worst, j_hat - jb)
            assert slack >= 0.0, \
                f"{name}: a perturbed rate beats the candidate by " \
                f"{jb - j_hat:.4g} (3 se = {3 * math.hypot(se_hat, seb):.4g})"
        lines.append(f"{name}: J={j_hat:.4f}, worst J gap {worst:+.4f}")
    print("\nACCEPTANCE 9 PASS - control optimality: " + "; ".join(lines))


def test_criterion_10_malliavin_representation():
    """With a Brownian-linear terminal and zero driver, the regression Z
    of the Picard solver averages to the terminal's closed-form Brownian
    derivative within 3 batch-means SE."""
    slope = 0.8
    zero = affine_driver(GRID, LEVY.n_atoms, 1, 0.0, name="zero")
    stats = []
    for b in range(20):
        ens = simulate_ensemble(GRID, LEVY, 2000, seed=4100 + b)
        sol, rep = picard_full_freeze(zero, mean_y(),
                                      brownian_linear(slope, 0.3), ens, BASIS)
        assert rep.converged
        stats.append(sol.z[:, :-1].mean())
    stats = np.asarray(stats)
    se = stats.std(ddof=1) / math.sqrt(stats.size)
    dev = abs(stats.mean() - slope)
    assert dev <= 3 * se
    print(f"\nACCEPTANCE 10 PASS - Malliavin representation: node-average "
          f"Z deviates from the closed-form derivative by {dev:.2e} "
          f"(3 se = {3 * se:.2e})")
