"""Picard iteration on regression coefficients.

Every Picard iterate below the terminal node is a regression fit X_i b_i
(Gobet, Lemor & Warin, Ann. Appl. Probab. 2005), so `picard` runs every
full freeze and the inner loop of every mean freeze on the node
coefficients through `CoefficientRoute`.  A driver with an affine form
(`core.DriverForm`) and a mean functional with a linear form
(`core.MeanForm`) are linear maps of the coefficients; a custom callable
is evaluated pathwise on the iterate written from them, once per node.
The results are read off the coefficients through one reader,
`solution`: a `SolutionGrid` whose node means come from the
coefficients, whose `node(i)` builds one design, and whose y, z and k
are each written on their first read.
"""
from __future__ import annotations

import functools
import time
from typing import Optional

import numpy as np

from .core import (
    DriverSpec,
    MeanFunctional,
    SolutionGrid,
    TerminalCondition,
    terminal_value,
)
from .errors import ConfigError, NumericalError
from .levy_paths import PathEnsemble


class CoefIterate:
    """b (M, p): Y_i = X_i b_i at nodes 0..M-1; zk (M, 1+J, p): Z_i, then
    K_ij, = X_i zk_i; yt (1+p): Y_M = [xi | X_M] yt, so s xi + X_M c
    covers xi (a sweep's output), the terminal's mean (the initial
    iterate) and a random input X_M c."""

    def __init__(self, b, zk, yt):
        self.b, self.zk, self.yt = b, zk, yt


class CoefficientRoute:
    """Picard iteration on regression coefficients.

    Below node M every iterate is X_i b_i for Y and X_i zk_i for Z and
    K_j; node M holds Y_M = [xi | X_M] yt.  One pass over the paths
    builds, per node, the Gram G_i = X_i'X_i, the cross-Gram
    X_i'X_{i+1}, X_i' diag(dM_c) X_i and X_i' diag(dM_c) X_{i+1} for the
    martingale increments dM_c (dB, then dNtilde_j): the product
    [X_i | X_i dB]' [X_i | X_{i+1}] gives the G and dB blocks, and each
    jump block is summed over the paths that jump in the step only, plus
    its compensator times the first block (`_Regressions.jump_products`).
    At node M-1, xi takes the place of X_M; a pathwise driver source
    joins as two more columns.  Multiplied by the cached ridge factor
    S_i^-1 these give the sweep as a linear map of the coefficients:
        b_i  = A_i b_{i+1} + r_i,   A_i = S_i^-1 X_i'X_{i+1},
        zk_i = E_i b_{i+1},         E_ic = (S_i^-1 X_i' diag(dM_c) X_{i+1}
                                           - H_ic A_i) / scale_ic,
    with H_ic = S_i^-1 X_i' diag(dM_c) X_i, which centres the one-step
    value Y_{i+1}, and b_M the unit vector on the xi column: a sweep
    ends at Y_M = xi.  The input's Y_M enters the frozen driver and phi
    at t_M, so the set-up also keeps X_M and the Gram of
    [X_{M-1} | xi | X_M].  With an affine form the frozen driver at node
    i < M is X_i phi_i, so r_i = dt/2 S_i^-1 X_i'(f_i + f_{i+1}) comes
    from G_i and the cross-Gram; f(t_M) reads Y_M and the node M-1
    estimates of Z and K, so it projects through that Gram.  Without a
    form, the driver is called once per node on V_i = X_i [b_i | zk_i']
    (node M: Y_M with the node M-1 Z and K) and X_i'(f_i + f_{i+1}) is
    solved over the stacked factors; phi without a form is averaged over
    the same V_i in the same node pass, so a sweep builds each design
    once.  Means are x_i . b with x_i the column means of X_i,
    E[Y^2] is b'G_i b / n, and so is the Picard delta
    E|dY_i|^2 = d'G_i d / n.  `solution` returns the iterate as a
    `SolutionGrid` read off the coefficients.  `reg` is the solve's
    picard._Regressions: the set-up fills its per-node Cholesky factors
    and Grams, and reads its design matrices.
    """

    def __init__(self, driver: DriverSpec, phi: Optional[MeanFunctional],
                 tc: TerminalCondition, ens: PathEnsemble, reg):
        started = time.perf_counter()
        n, m, nj = ens.n_paths, ens.grid.steps, ens.levy.n_atoms
        form = driver.form
        if form is not None and (form.y.shape[0] != m + 1
                                 or form.k.shape[1] != nj):
            raise ConfigError(
                f"driver coefficients cover {form.y.shape[0]} nodes and "
                f"{form.k.shape[1]} atoms; the ensemble has {m + 1} nodes "
                f"and {nj} atoms"
            )
        self.ens, self.reg, self.driver, self.phi = ens, reg, driver, phi
        self.lmap = None
        if phi is not None and phi.form is not None:
            # phi's linear map on the node values (y, z, k_1..k_J)
            f = phi.form
            self.lmap = np.column_stack(
                [f.y, f.z, np.zeros((f.y.size, nj)) if f.k is None else f.k])
            self.squared = f.squared
        self.m, self.dt = m, ens.grid.dt
        p, nc = reg.n_cols, 1 + nj
        self.p = p
        if form is not None:
            self.ay, self.amu, self.ac = form.y, form.mu, form.const
            self.azk = np.column_stack([form.z, form.k])
        self.xa = np.empty((n, 1 + p), order="F")      # [xi | X_M]
        self.xa[:, 0] = terminal_value(tc, ens)
        reg.design(m, out=self.xa[:, 1:])
        self.xi = self.xa[:, 0]
        self.xi_mean = self.xi.mean()
        src = driver.source
        ns = 0 if src is None else 2
        # columns: [s_i, s_{i+1} | X_{i+1} or (xi, 0..) | X_i | X_i dB]
        cn, cx = ns, ns + p
        buf = np.zeros((n, cx + 2 * p), order="F")
        db = np.empty(n)
        bn = ens.brownian_nodes
        prod = np.empty((m, 1 + nc, p, cx + p))
        buf[:, cn] = self.xi
        for i in reversed(range(m)):
            if i < m - 1:
                buf[:, cn:cx] = buf[:, cx:cx + p]
            x = reg.design(i, out=buf[:, cx:cx + p])
            if i == m - 1:
                cross = x.T @ self.xa               # X_{M-1}'[xi | X_M]
            np.subtract(bn[:, i + 1], bn[:, i], out=db)
            db += reg.shift[i, 0]
            np.multiply(x, db[:, None], out=buf[:, cx + p:])
            if src is not None:
                buf[:, 0] = src[:, i]
                buf[:, 1] = src[:, i + 1]
            prod[i, :2] = (buf[:, cx:].T @ buf[:, :cx + p]).reshape(
                2, p, cx + p)
            prod[i, 2:] = reg.jump_products(i, x, buf[:, :cx + p],
                                            prod[i, 0])
        gram = prod[:, 0, :, cx:]
        chol = np.stack([reg.factor(i, gram[i].copy()) for i in range(m)])
        self.gn = gram / n
        self.xbar = gram[:, 0, :] / n
        # Gram / n and column means of [X_{M-1} | xi | X_M], and
        # S_{M-1}^-1 X_{M-1}'[xi | X_M]
        self.gt = np.block([[gram[m - 1], cross],
                            [cross.T, self.xa.T @ self.xa]]) / n
        self.xt = np.concatenate([self.xbar[m - 1], [self.xi_mean],
                                  self.gt[0, p + 1:]])
        self.at = np.linalg.solve(chol[m - 1].T,
                                  np.linalg.solve(chol[m - 1], cross))
        # S^-1 applied to every block at once
        w = prod.transpose(0, 2, 1, 3).reshape(m, p, -1)
        w = np.linalg.solve(chol.transpose(0, 2, 1), np.linalg.solve(chol, w))
        w = w.reshape(m, p, 1 + nc, cx + p).transpose(0, 2, 1, 3)
        self.sg = w[:, 0, :, cx:]                # S^-1 G_i
        self.a = w[:, 0, :, cn:cx]     # A_i; A_{M-1} = [S^-1 X'xi, 0, ..]
        h = w[:, 1:, :, cx:]
        scale = np.column_stack([np.full(m, self.dt), ens.jump_comp])
        self.e = (w[:, 1:, :, cn:cx]
                  - np.einsum("icpq,iqr->icpr", h, self.a)) \
            / scale[:, :, None, None]
        self.src = None if src is None else w[:, 0, :, 0] + w[:, 0, :, 1]
        self.e0 = np.eye(p)[0]
        self.y_xi = np.eye(p + 1)[0]             # yt of Y_M = xi
        self.chol = chol
        self.setup_s = time.perf_counter() - started

    def initial(self) -> CoefIterate:
        """Y = the terminal's mean at every node, Z = K = 0."""
        c = np.zeros((2 + self.ens.levy.n_atoms, self.p))
        c[0, 0] = self.xi_mean
        return self.uniform(c)

    def uniform(self, c: np.ndarray) -> CoefIterate:
        """The iterate X_i c at every node 0..M: Y from c[0], Z and K_j
        from c[1:], with c of shape (2+J, p)."""
        m = self.m
        return CoefIterate(np.tile(c[0], (m, 1)), np.tile(c[1:], (m, 1, 1)),
                           np.append(0.0, c[0]))

    def _values(self, it: CoefIterate):
        """(i, X, V_i) for i = M .. 0: the iterate's Y, Z and K_j per path
        at node i, V_i = X [b_i | zk_i'] (n, 2+J) with X the node
        min(i, M-1) design (valid until the next step), so node M holds
        Y_M with the node M-1 Z and K.  One design per node below M."""
        for i in reversed(range(self.m)):
            x = self.reg.design(i)
            coefs = np.concatenate([it.b[i, None], it.zk[i]])
            v = (coefs @ x.T).T        # each column of V is contiguous
            if i == self.m - 1:
                vm = v.copy()
                vm[:, 0] = self.xa @ it.yt
                yield self.m, x, vm
            yield i, x, v

    def path_mean(self, v: np.ndarray) -> np.ndarray:
        """phi's mean over the per-path node values V (n, 2+J), (d,)."""
        return np.einsum("nd->d", self.phi.eval(
            v[:, 0], v[:, 1], v[:, 2:])) / v.shape[0]

    def mean_channel(self, it: CoefIterate) -> np.ndarray:
        """Means of phi at every node, (M+1, d): from the coefficients,
        or for phi without a form over the written iterate."""
        if self.lmap is None:
            return np.stack([self.path_mean(v)
                             for _, _, v in self._values(it)][::-1])
        lmap, m = self.lmap, self.m
        coefs = np.concatenate([it.b[:, None], it.zk], axis=1)
        wts = np.einsum("dc,icp->idp", lmap, coefs)      # X_i parts
        # node M on [X_{M-1} | xi | X_M]: Z and K_j, then Y_M
        tail = np.concatenate([lmap[:, 1:] @ it.zk[m - 1],
                               np.outer(lmap[:, 0], it.yt)], axis=1)
        mu = np.empty((m + 1, lmap.shape[0]))
        if not self.squared:
            mu[:m] = np.einsum("idp,ip->id", wts, self.xbar)
            mu[m] = tail @ self.xt
        else:
            mu[:m] = np.einsum("idp,ipq,idq->id", wts, self.gn, wts)
            mu[m] = np.einsum("dp,pq,dq->d", tail, self.gt, tail)
        return mu

    def _call_rhs(self, it: CoefIterate, mu: Optional[np.ndarray]
                  ) -> np.ndarray:
        """S_i^-1 X_i'(f_i + f_{i+1}), (M, p), for a driver without a form:
        one call per node on the written iterate, with phi's mean over
        the same values when no mean channel is given."""
        t, rhs = self.ens.grid.nodes, np.empty((self.m, self.p, 1))
        for i, x, v in self._values(it):
            mu_i = self.path_mean(v) if mu is None else mu[i]
            f = self.driver(t[i], v[:, 0], v[:, 1], v[:, 2:], mu_i)
            if i < self.m:              # node M comes first
                rhs[i, :, 0] = x.T @ (f + f_next)
            f_next = f
        return np.linalg.solve(self.chol.transpose(0, 2, 1),
                               np.linalg.solve(self.chol, rhs))[:, :, 0]

    def _form_rhs(self, it: CoefIterate, mu: np.ndarray) -> np.ndarray:
        """S_i^-1 X_i'(f_i + f_{i+1}), (M, p), for a driver with a form."""
        m = self.m
        base = np.einsum("id,id->i", self.amu, mu) + self.ac
        phi = self.ay[:m, None] * it.b \
            + np.einsum("ic,icp->ip", self.azk[:m], it.zk)
        phi[:, 0] += base[:m]
        psi = self.azk[m] @ it.zk[m - 1]
        psi[0] += base[m]
        r = np.einsum("ipq,iq->ip", self.sg, phi)
        r[:-1] += np.einsum("ipq,iq->ip", self.a[:-1], phi[1:])
        r[-1] += self.sg[m - 1] @ psi + self.ay[m] * (self.at @ it.yt)
        return r

    def sweep(self, it: CoefIterate, mu: Optional[np.ndarray] = None
              ) -> CoefIterate:
        """One backward sweep with the driver frozen along `it` and the
        mean channel mu (M+1, d), by default phi's means of `it`."""
        m = self.m
        if mu is None and (self.driver.form or self.lmap is not None):
            mu = self.mean_channel(it)
        # else phi is averaged in the driver's node pass
        r = (self._form_rhs if self.driver.form else self._call_rhs)(it, mu)
        if self.src is not None:
            r += self.src
        r *= 0.5 * self.dt
        if not np.all(np.isfinite(r)):
            raise NumericalError("frozen driver contains non-finite values")
        b = np.empty_like(it.b)
        bnext = self.e0
        for i in reversed(range(m)):
            b[i] = self.a[i] @ bnext + r[i]
            bnext = b[i]
        zk = np.einsum("icpq,iq->icp", self.e,
                       np.concatenate([b[1:], self.e0[None]]))
        return CoefIterate(b, zk, self.y_xi)

    def dy2(self, new: CoefIterate, old: CoefIterate) -> np.ndarray:
        d, e, p = new.b - old.b, new.yt - old.yt, self.p
        out = np.empty(self.m + 1)
        out[:-1] = np.einsum("ip,ipq,iq->i", d, self.gn, d)
        out[-1] = e @ self.gt[p:, p:] @ e
        return np.maximum(out, 0.0)

    def ybar(self, it: CoefIterate) -> np.ndarray:
        return np.append(np.einsum("ip,ip->i", self.xbar, it.b),
                         self.xt[self.p:] @ it.yt)

    def solution(self, it: CoefIterate) -> SolutionGrid:
        """Y, Z and K of the iterate, read off the coefficients."""
        return _CoefSolution(self, it)


class _CoefSolution(SolutionGrid):
    """A `SolutionGrid` of a coefficient iterate: the node means are
    x_i . b_i and x_i . zk_i, `node(i)` builds one design, and y, z and
    k are each written on their first read.  Column c of `node(i)` has
    the bytes of column i of the array that y, z or k writes: both are
    one X_i c product per column."""

    def __init__(self, route: CoefficientRoute, it: CoefIterate):
        self.ens, self.route, self.it = route.ens, route, it
        zk = np.einsum("ip,icp->ic", route.xbar, it.zk)
        self.ybar, self.zbar, self.kbar = route.ybar(it), zk[:, 0], zk[:, 1:]

    def node(self, i: int) -> np.ndarray:
        r, it = self.route, self.it
        j = min(i, r.m - 1)
        x = r.reg.design(j)
        out = np.empty((x.shape[0], 1 + it.zk.shape[1]), order="F")
        if i == r.m:
            np.matmul(r.xa, it.yt, out=out[:, 0])
        else:
            np.matmul(x, it.b[j], out=out[:, 0])
        # the coefficient views `_write` reads: a product's bytes depend
        # on its operands' strides
        for col, c in enumerate(it.zk[j], 1):
            np.matmul(x, c, out=out[:, col])
        return out

    y = functools.cached_property(lambda self: self._write("y"))
    z = functools.cached_property(lambda self: self._write("z"))
    k = functools.cached_property(lambda self: self._write("k"))

    def _write(self, name: str) -> np.ndarray:
        """Y (n, M+1), Z (n, M) or K (n, M, J), Fortran order: per node
        one design and one product per component, into its column."""
        r, it = self.route, self.it
        n, m = self.ens.n_paths, r.m
        c = {"y": it.b[:, None], "z": it.zk[:, :1], "k": it.zk[:, 1:]}[name]
        out = np.empty((n, m + (name == "y"), c.shape[1]), order="F")
        for i in range(m if c.shape[1] else 0):
            x = r.reg.design(i)
            for j in range(c.shape[1]):
                np.matmul(x, c[i, j], out=out[:, i, j])
        if name == "y":
            np.matmul(r.xa, it.yt, out=out[:, m, 0])
        return out if name == "k" else out[:, :, 0]
