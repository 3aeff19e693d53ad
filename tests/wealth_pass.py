"""The utility J as two passes over the paths: the tests' reference for
`utility.evaluate_j`, which forms log(pi X) inside the closed-form
assembly's chunks instead.

The first pass writes the whole log-wealth log X, shape (n, M+1)
(`utility._log_wealth`), from which the running cost log(pi X) and the
terminal wealth X(T) are formed as whole arrays; the second is
`linear.assemble_system` reading that array as its `gamma_path`, with
the terminal theta X(T) of the simulated wealth.  The mean system is
then solved by `neumann_solve` and J read by `y_closed_formula`, as the
route computed it before its one pass.
"""
import numpy as np

from mfbsde.core import wealth_linear
from mfbsde.linear import GammaEnsemble, assemble_system, neumann_solve, \
    y_closed_formula
from mfbsde.utility import _log_wealth, _utility_equation


def two_pass_inputs(wp, uc, pi, ens):
    """(args, kwargs) of the two-pass route's `assemble_system` call:
    args (coeffs, tc, ens), kwargs with the propagator, the running cost
    and the derivative rows' settings."""
    b0, s0, g0 = wp.on_grid(ens.grid, ens.levy)
    coeffs, cg = _utility_equation(uc, ens.grid, ens.levy)
    rows23 = bool(np.any(cg.b2 != 0.0) or np.any(cg.e2 != 0.0))
    logx = _log_wealth(wp.x0, (b0, s0, g0), pi, ens)
    gamma_path = logx + np.log(pi.paths(ens.n_paths))
    tc = wealth_linear(uc.theta, np.exp(logx[:, -1:]), s0, g0,
                       pi_is_deterministic=pi.deterministic)
    kwargs = dict(gamma=GammaEnsemble(ens, coeffs, cg),
                  gamma_path=gamma_path,
                  gamma_db=s0 if rows23 else None,
                  gamma_dn=np.log1p(g0) if rows23 else None,
                  derivative_rows=rows23)
    return (coeffs, tc, ens), kwargs


def wealth_pass(wp, uc, pi, ens, return_sample=False):
    """(J, standard error, MeanVector[, sample]) as `evaluate_j` returns
    them, from the two passes."""
    args, kwargs = two_pass_inputs(wp, uc, pi, ens)
    v = neumann_solve(assemble_system(*args, **kwargs))
    j, se, _, *sample = y_closed_formula(
        *args, v, gamma=kwargs["gamma"], gamma_path=kwargs["gamma_path"],
        return_sample=return_sample)
    return (j, se, v, *sample)
