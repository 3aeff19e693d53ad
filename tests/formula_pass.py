"""The closed formula for Y(0) as its own pass over the paths: the tests'
reference for `linear.y_closed_formula`, which reads Y(0) off the mean
system instead.

Per path, xi G(0, T) + sum_l wq_l G(0, t_l) (h_l + gamma_path_l), with
h = a2 V1 + b2 V2 + sum_j e2_j w_j V3_j + gamma and trapezoid weights
wq, written chunk by chunk on the block workers from the propagator's
exponent, as the route computed it before its one pass.
"""
import numpy as np

from mfbsde.core import terminal_value
from mfbsde.levy_paths import _over_row_blocks


def formula_pass(coeffs, tc, ens, v, gamma, gamma_path=None):
    """(Y(0), standard error, per-path sample) of the closed formula on
    the means `v`, with every coefficient read from the propagator
    `gamma` of `coeffs`."""
    assert gamma.ens is ens and gamma.coeffs is coeffs
    cg, m1, dt = gamma.cg, ens.grid.steps + 1, ens.grid.dt
    h = cg.a2 * v.v1 + cg.b2 * v.v2 \
        + (cg.e2 * v.v3 * ens.levy.weights).sum(axis=1) + cg.g
    h, wq = h[:, None], np.full((m1, 1), dt)
    wq[0] = wq[-1] = 0.5 * dt
    xi = terminal_value(tc, ens)
    sample = np.empty(ens.n_paths)
    write = gamma.writer()

    def work(b, rows, planes):
        expl = planes[0]
        write(rows, expl, planes[1, 1:])
        np.exp(expl, out=expl)
        np.multiply(xi[rows], expl[-1], out=sample[rows])
        if gamma_path is None:
            term = expl
            term *= h
        else:
            term = planes[1]
            term[...] = gamma_path[rows].T
            term += h
            term *= expl
        term *= wq
        # a reduction down the node axis adds one node row at a time
        sample[rows] += term.sum(axis=0)

    _over_row_blocks(range(ens.n_paths), (2, m1), work)
    se = sample.std(ddof=1) / np.sqrt(sample.size)
    return float(sample.mean()), float(se), sample
