"""Picard iteration on regression coefficients.

Every Picard iterate below the terminal node is a regression fit X_i b_i
(Gobet, Lemor & Warin, Ann. Appl. Probab. 2005), so `picard` runs every
full freeze and the inner loop of every mean freeze on the node
coefficients.  The set-up of an (ensemble, basis) pair, `_Regressions`,
holds every node moment that does not depend on the scenario, with
exact Z and K maps for the built-in basis under P, and
`CoefficientRoute` adds the terminal and a pathwise driver source.  A
driver with an affine form (`core.DriverForm`) and a mean functional
with a linear form (`core.MeanForm`) are linear maps of the
coefficients; a custom callable is evaluated pathwise on the iterate
written from them, once per node.  The one reader of the results,
`solution`, is a `SolutionGrid` whose node means come from the
coefficients, whose `node(i)` builds one design, and whose y, z and k
are each written on their first read.
"""
from __future__ import annotations

import functools
import math
from typing import Optional

import numpy as np

from .core import (
    DriverSpec,
    MeanFunctional,
    SolutionGrid,
    TerminalCondition,
    _phi_mean,
    terminal_value,
)
from .errors import ConfigError, NumericalError
from .levy_paths import PathEnsemble
from .picard import RegressionBasis

RIDGE_SCALE = 1e-8


class _Regressions:
    """The regression set-up of an (ensemble, basis) pair: every node
    moment that does not depend on the scenario.

    One backward pass builds each design X_i, i < M, once, and the
    product X_i'[X_{i+1} | X_i].  Node M has no design: every iterate
    holds Y_M = xi, which the route adds.  Kept, stacked over i < M: the
    Grams G_i (gn = G_i / n, column means xbar), the Cholesky factors
    `chol` of the ridge normal matrices S_i, sg = S_i^-1 G_i and the Y
    map a = A_i = S_i^-1 X_i'X_{i+1}, with A_{M-1} = 0.

    The Z and K maps e = E_ic take the coefficients of Y_{i+1} to those
    of E[dM_c Y_{i+1} | F_i] / scale_ic for the martingale increments
    dM_c (dB, then dNtilde_j) and scale_ic (dt, then the compensator),
    with E_{M-1} = 0: the route fills node M-1 from xi.  On a P ensemble
    and a basis without extras they are exact (`exact_maps`), and the
    set-up reads no increment.  Otherwise (extras, or a `shift_to_q`
    ensemble) they are the regression
        E_ic = (S_i^-1 X_i' diag(dM_c) X_{i+1} - H_ic A_i) / scale_ic,
    H_ic = S_i^-1 X_i' diag(dM_c) X_i, whose dB and jump blocks
    (`jump_products`) the same pass builds at every node i < M-1.
    `ridge_max` and `cond_max` are the largest ridge and cond(G_i) after
    node 0, on the columns that vary at the node.
    """

    def __init__(self, ens: PathEnsemble, basis: RegressionBasis):
        self.basis, self.ens = basis, ens
        n, m, nj = ens.n_paths, ens.grid.steps, ens.levy.n_atoms
        # per-node compensator w t_i of the running jump sums
        self.w_t = np.outer(ens.grid.nodes, ens.levy.weights)
        self.n_jump = nj if basis.jump_features else 0
        # per-node shift of the raw increments [dB, dN_j] to the
        # martingale increments under the ensemble measure
        self.shift = -np.column_stack([ens.bm_drift, ens.jump_comp])
        for key, arr in basis.extras.items():
            if np.shape(arr) != (n, m + 1) or not np.isfinite(arr).all():
                raise ConfigError(
                    f"extras[{key!r}] must be a finite (n_paths, M+1) = "
                    f"({n}, {m + 1}) array, got shape {np.shape(arr)}")
        self.extra = list(basis.extras.values())
        self.n_cols = p = 1 + basis.degree + self.n_jump + len(self.extra)
        if n <= p:
            raise ConfigError(
                f"need more paths ({n}) than basis functions ({p})")
        exact = ens.measure == "P" and not self.extra
        self._xbuf = np.empty((n, p), order="F")
        # [X_{i+1} | X_i], and X_i dB for the regression maps; X_M = 0:
        # Y_M = xi is the route's, so A_{M-1} and E_{M-1} are zeros
        buf = np.zeros((n, (2 if exact else 3) * p), order="F")
        db = None if exact else np.empty(n)
        bn = ens.brownian_nodes
        prod = np.empty((m, p, 2 * p))
        # X_i' diag(dM_c) [X_{i+1} | X_i] for the regression maps, i < M-1
        mart = np.empty((0 if exact else m - 1, 1 + nj, p, 2 * p))
        for i in reversed(range(m)):
            buf[:, :p] = buf[:, p:2 * p]
            x = self.design(i, out=buf[:, p:2 * p])
            if exact or i == m - 1:
                np.matmul(x.T, buf[:, :2 * p], out=prod[i])
                continue
            np.subtract(bn[:, i + 1], bn[:, i], out=db)
            db += self.shift[i, 0]
            np.multiply(x, db[:, None], out=buf[:, 2 * p:])
            both = buf[:, p:].T @ buf[:, :2 * p]
            prod[i], mart[i, 0] = both[:p], both[p:]
            mart[i, 1:] = self.jump_products(i, x, buf[:, :2 * p], prod[i])
        self.gram = gram = prod[:, :, p:]
        self.gn = gram / n
        self.xbar = gram[:, 0, :] / n

        # the ridge RIDGE_SCALE * trace(G_i) / p on every column but the
        # constant, so means are reproduced exactly
        lam = RIDGE_SCALE * np.trace(gram, axis1=1, axis2=2) / p
        self.ridge_max = float(lam.max())
        s = gram.copy()
        s[:, range(1, p), range(1, p)] += lam[:, None]
        try:
            self.chol = np.linalg.cholesky(s)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(
                "regression normal matrix not positive definite (least "
                f"eigenvalue at node {np.linalg.eigvalsh(s)[:, 0].argmin()})"
            ) from exc
        # cond(G_i) after node 0 on the columns that vary at node i:
        # every feature is constant at t_0, and an atom's jump column
        # until its first jump on any path
        keep = np.ones((m, p), dtype=bool)
        c = 1 + basis.degree
        keep[:, c:c + self.n_jump] = \
            ens.count_nodes[:, :m, :self.n_jump].any(axis=0)
        self.cond_max = max(
            (float(np.linalg.cond(
                gram[1:][np.ix_((keep[1:] == k).all(axis=1), k, k)]).max())
             for k in np.unique(keep[1:], axis=0)), default=0.0)

        w = self.solve(prod)
        self.sg, self.a = w[:, :, p:], w[:, :, :p]
        self.scale = np.column_stack([np.full(m, ens.grid.dt),
                                      ens.jump_comp])
        self.e = np.zeros((m, 1 + nj, p, p))
        if exact:
            self.e[:-1] = self.exact_maps()
        elif m > 1:                 # a one-step grid has no node below M-1
            w = self.solve(mart.transpose(0, 2, 1, 3).reshape(m - 1, p, -1),
                           slice(m - 1))
            w = w.reshape(m - 1, p, 1 + nj, 2 * p).transpose(0, 2, 1, 3)
            self.e[:-1] = (w[:, :, :, :p] - np.einsum(
                "icpq,iqr->icpr", w[:, :, :, p:], self.a[:-1])) \
                / self.scale[:-1, :, None, None]

    def exact_maps(self) -> np.ndarray:
        """The Z and K maps (1+J, p, p) of the basis without extras under
        P, the same at every node (regression later with martingale
        basis functions: Glasserman & Yu, Ann. Appl. Probab. 2004).  With
        mu_k the moments of N(0, dt),
            E[dB (B + dB)^q | F_i] / dt = sum_s C(q, s) mu_{q-s+1} / dt B^s,
        and dNtilde_j is independent of B and of the other atoms with
        E[dNtilde_j^2] = w_j dt, the compensator."""
        dt, d, p = self.ens.grid.dt, self.basis.degree, self.n_cols
        # mu_k for k = 0 .. d+1: mu_odd = 0, mu_2r = (2r-1)!! dt^r
        mu = np.zeros(d + 2)
        mu[0] = 1.0
        for k in range(2, d + 2, 2):
            mu[k] = mu[k - 2] * (k - 1) * dt
        e = np.zeros((1 + self.ens.levy.n_atoms, p, p))
        for q in range(1, d + 1):
            for s in range(q):
                e[0, s, q] = math.comb(q, s) * mu[q - s + 1] / dt
        for j in range(self.n_jump):
            e[1 + j, 0, 1 + d + j] = 1.0
        return e

    def design(self, i: int, out: Optional[np.ndarray] = None
               ) -> np.ndarray:
        """Node-i design matrix, written into `out` (n, n_cols) or else a
        shared buffer (valid until the next call)."""
        x = self._xbuf if out is None else out
        x[:, 0] = 1.0
        b = self.ens.brownian_nodes[:, i]
        x[:, 1] = b
        for p in range(2, self.basis.degree + 1):
            np.multiply(x[:, p - 1], b, out=x[:, p])
        c, nj = 1 + self.basis.degree, self.n_jump
        np.subtract(self.ens.count_nodes[:, i, :nj], self.w_t[i, :nj],
                    out=x[:, c:c + nj])
        for c, arr in enumerate(self.extra, c + nj):
            x[:, c] = arr[:, i]
        return x

    def solve(self, rhs: np.ndarray, i=slice(None)) -> np.ndarray:
        """S_i^-1 rhs for the ridge normal matrix S_i of node i, or of
        every node i < M for a stacked rhs (M, p, k)."""
        c = self.chol[i]
        return np.linalg.solve(np.swapaxes(c, -1, -2),
                               np.linalg.solve(c, rhs))

    def fit(self, i: int, targets: np.ndarray) -> np.ndarray:
        """Fitted values of the node-i least-squares projection, i < M."""
        x = self.design(i)
        return x @ self.solve(x.T @ targets, i)

    def jump_products(self, i: int, x: np.ndarray, rows: np.ndarray,
                      base: np.ndarray) -> np.ndarray:
        """X' diag(dNtilde_j) R over [t_i, t_{i+1}] for each atom j, shape
        (J, p, w), for the node-i design X, per-path rows R (n, w) and
        base = X'R.  Only the paths that jump read R:
            X' diag(dN_j + s_j) R = sum_{dN_j > 0} dN_j x r' + s_j X'R,
        with s_j = -comp_ij the compensator shift."""
        counts = self.ens.count_nodes
        out = np.empty((self.ens.levy.n_atoms, x.shape[1], rows.shape[1]))
        for j in range(out.shape[0]):
            # forward difference of the counts: cannot wrap
            dn = counts[:, i + 1, j] - counts[:, i, j]
            hit = np.flatnonzero(dn)
            np.matmul((x[hit] * dn[hit, None]).T, rows[hit], out=out[j])
            out[j] += self.shift[i, 1 + j] * base
        return out


class CoefIterate:
    """b (M, p): Y_i = X_i b_i, and zk (M, 1+J, p): Z_i, then K_ij, =
    X_i zk_i, at nodes 0..M-1.  Every iterate holds Y_M = xi."""

    def __init__(self, b, zk):
        self.b, self.zk = b, zk


class CoefficientRoute:
    """Picard iteration on regression coefficients.

    Below node M every iterate is X_i b_i for Y and X_i zk_i for Z and
    K_j; node M holds Y_M = xi with the node M-1 Z and K.  On the set-up
    `reg`, a sweep is the linear map b_i = A_i b_{i+1} + r_i,
    zk_i = E_i b_{i+1} for i < M-1 (E_i exact or regressed, see
    `_Regressions`), from Y_M = xi.  The route adds the scenario, and
    reads the paths only for it: at node M-1, where xi takes the place
    of X_{i+1} b_{i+1}, X' diag(1, dB, dNtilde_j) [X | xi] in one solve
    gives S^-1 X'xi, H_{M-1} and the regressed Z and K, and dt/2 S_i^-1
    X_i'(s_i + s_{i+1}) in r_i for a pathwise source s.  With an affine
    form the frozen driver at node i < M is X_i phi_i, so r_i = dt/2
    S_i^-1 X_i'(f_i + f_{i+1}) comes from S^-1 G_i and A_i; f(t_M) reads
    xi and the node M-1 Z and K, so it projects through S^-1 X_{M-1}'xi
    and S^-1 G_{M-1}, and its means through the Gram of [X_{M-1} | xi].
    Without a form, the driver is called once per node on the node
    values V_i (`write`), and phi without a form is averaged over the
    same V_i, so a sweep builds each design once.  Means are x_i . b,
    and E[Y^2] and the Picard delta are b'G_i b / n.  `solution`
    returns the iterate as a `SolutionGrid` read off the coefficients.
    """

    def __init__(self, driver: DriverSpec, phi: Optional[MeanFunctional],
                 tc: TerminalCondition, ens: PathEnsemble, reg: _Regressions):
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
        p = self.p = reg.n_cols
        if form is not None:
            self.ay, self.amu, self.ac = form.y, form.mu, form.const
            self.azk = np.column_stack([form.z, form.k])
        self.gn, self.xbar, self.sg, self.a, self.e = \
            reg.gn, reg.xbar, reg.sg, reg.a, reg.e
        self.xi = xi = terminal_value(tc, ens)
        self._v = np.empty((n, 2 + nj), order="F")      # `write` scratch
        # xi's block at node M-1: X_{M-1}' diag(1, dB, dNtilde_j) [X | xi]
        x = reg.design(m - 1)
        x_xi = np.column_stack([x, xi])
        blk = np.empty((2 + nj, p, p + 1))
        np.matmul(x.T, x_xi, out=blk[0])
        blk[2:] = reg.jump_products(m - 1, x, x_xi, blk[0])
        bn = ens.brownian_nodes
        x_xi *= (bn[:, m] - bn[:, m - 1] + reg.shift[m - 1, 0])[:, None]
        np.matmul(x.T, x_xi, out=blk[1])
        w = reg.solve(blk.transpose(1, 0, 2).reshape(p, -1), m - 1)
        w = w.reshape(p, 2 + nj, p + 1).transpose(1, 0, 2)
        self.axi = w[0, :, p]                        # S^-1 X_{M-1}'xi
        # Z and K at node M-1, centred by H_{M-1} = S^-1 X' diag(dM) X
        self.exi = (w[1:, :, p] - w[1:, :, :p] @ self.axi) \
            / reg.scale[m - 1, :, None]
        # Gram / n of [X_{M-1} | xi] and its column means (the constant
        # column's row), the last one xi's mean
        gt = np.empty((p + 1, p + 1))
        gt[:p, :p], gt[p, p] = reg.gram[m - 1], xi @ xi
        gt[:p, p] = gt[p, :p] = blk[0, :, p]
        self.gt = gt / n
        self.xt = self.gt[0]
        self.src = None
        if driver.source is not None:
            s, rhs = driver.source, np.empty((m, p, 1))
            for i in range(m):
                rhs[i, :, 0] = reg.design(i).T @ (s[:, i] + s[:, i + 1])
            self.src = reg.solve(rhs)[:, :, 0]

    def initial(self) -> CoefIterate:
        """Y = the terminal's mean below node M, Z = K = 0."""
        c = np.zeros((2 + self.ens.levy.n_atoms, self.p))
        c[0, 0] = self.xt[self.p]
        return self.uniform(c)

    def uniform(self, c: np.ndarray) -> CoefIterate:
        """The iterate X_i c at every node below M: Y from c[0], Z and K_j
        from c[1:], with c of shape (2+J, p)."""
        m = self.m
        return CoefIterate(np.tile(c[0], (m, 1)), np.tile(c[1:], (m, 1, 1)))

    def write(self, it: CoefIterate, i: int, out: np.ndarray,
              cols: slice = slice(None), x: Optional[np.ndarray] = None
              ) -> np.ndarray:
        """Columns `cols` of the iterate's node values V_i = [Y_i | Z_i' |
        K_i'] (n, 2+J), written into out and returned.  Node M holds xi
        with the node M-1 Z and K.  The other columns come from one
        product X [b_j | zk_j'] over all of them, X the node
        j = min(i, M-1) design (built unless given), so a column has the
        same bytes whichever columns are asked for; Y_M alone needs no
        design."""
        m = self.m
        v = out if cols == slice(None) else self._v
        if i < m or cols != slice(1):
            j = min(i, m - 1)
            x = self.reg.design(j) if x is None else x
            np.matmul(x, np.concatenate([it.b[j, None], it.zk[j]]).T, out=v)
        if i == m:
            v[:, 0] = self.xi
        if v is not out:
            out[...] = v[:, cols]
        return out

    def _values(self, it: CoefIterate):
        """(i, X, V_i) for i = M .. 0: the node values (n, 2+J) and the
        node min(i, M-1) design X (valid until the next step).  One
        design per node below M."""
        shape = (self.ens.n_paths, 2 + self.ens.levy.n_atoms)
        for i in reversed(range(self.m)):
            x = self.reg.design(i)
            if i == self.m - 1:
                yield self.m, x, self.write(
                    it, self.m, np.empty(shape, order="F"), x=x)
            yield i, x, self.write(it, i, np.empty(shape, order="F"), x=x)

    def mean_channel(self, it: CoefIterate) -> np.ndarray:
        """Means of phi at every node, (M+1, d): from the coefficients,
        or for phi without a form over the written iterate."""
        if self.lmap is None:
            return np.stack([_phi_mean(self.phi, v)
                             for _, _, v in self._values(it)][::-1])
        lmap, m = self.lmap, self.m
        coefs = np.concatenate([it.b[:, None], it.zk], axis=1)
        wts = np.einsum("dc,icp->idp", lmap, coefs)      # X_i parts
        # node M on [X_{M-1} | xi]: Z and K_j, then Y_M = xi
        tail = np.column_stack([lmap[:, 1:] @ it.zk[m - 1], lmap[:, 0]])
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
            mu_i = _phi_mean(self.phi, v) if mu is None else mu[i]
            f = self.driver(t[i], v[:, 0], v[:, 1], v[:, 2:], mu_i)
            if i < self.m:              # node M comes first
                rhs[i, :, 0] = x.T @ (f + f_next)
            f_next = f
        return self.reg.solve(rhs)[:, :, 0]

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
        r[-1] += self.sg[m - 1] @ psi + self.ay[m] * self.axi
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
        b[m - 1] = self.axi + r[m - 1]
        for i in reversed(range(m - 1)):
            b[i] = self.a[i] @ b[i + 1] + r[i]
        zk = np.empty_like(it.zk)
        np.einsum("icpq,iq->icp", self.e[:-1], b[1:], out=zk[:-1])
        zk[-1] = self.exi
        return CoefIterate(b, zk)

    def dy2(self, new: CoefIterate, old: CoefIterate) -> np.ndarray:
        """E|Y_i^new - Y_i^old|^2 at nodes 0..M-1; at node M both are xi."""
        d = new.b - old.b
        return np.maximum(np.einsum("ip,ipq,iq->i", d, self.gn, d), 0.0)

    def ybar(self, it: CoefIterate) -> np.ndarray:
        return np.append(np.einsum("ip,ip->i", self.xbar, it.b),
                         self.xt[self.p])

    def solution(self, it: CoefIterate) -> SolutionGrid:
        """Y, Z and K of the iterate, read off the coefficients."""
        return _CoefSolution(self, it)


class _CoefSolution(SolutionGrid):
    """A `SolutionGrid` of a coefficient iterate: the node means are
    x_i . b_i and x_i . zk_i, `node(i)` builds one design, and y, z and
    k are each written on their first read.  Both come from the route's
    `write`, so column c of `node(i)` has the bytes of column i of the
    array that y, z or k writes."""

    def __init__(self, route: CoefficientRoute, it: CoefIterate):
        self.ens, self.route, self.it = route.ens, route, it
        zk = np.einsum("ip,icp->ic", route.xbar, it.zk)
        self.ybar, self.zbar, self.kbar = route.ybar(it), zk[:, 0], zk[:, 1:]

    def node(self, i: int) -> np.ndarray:
        return self.route.write(self.it, i, np.empty(
            (self.ens.n_paths, 2 + self.ens.levy.n_atoms), order="F"))

    y = functools.cached_property(lambda self: self._write("y"))
    z = functools.cached_property(lambda self: self._write("z"))
    k = functools.cached_property(lambda self: self._write("k"))

    def _write(self, name: str) -> np.ndarray:
        """Y (n, M+1), Z (n, M) or K (n, M, J), Fortran order: per node
        the route's `write` of its columns."""
        r, nj = self.route, self.ens.levy.n_atoms
        cols, width = {"y": (slice(1), 1), "z": (slice(1, 2), 1),
                       "k": (slice(2, None), nj)}[name]
        out = np.empty((self.ens.n_paths, r.m + (name == "y"), width),
                       order="F")
        for i in range(out.shape[1] if width else 0):
            r.write(self.it, i, out[:, i], cols)
        return out if name == "k" else out[:, :, 0]
