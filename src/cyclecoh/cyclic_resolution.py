"""A small resolution for cyclic groups via a crossed-product model.

For v = u * t with u > 1 the cyclic group C_v = <g> is isomorphic to a
crossed product C_u x_zeta C_t with trivial action and the cocycle
zeta(y^j, y^j') = x when j + j' >= t (else 1); the isomorphism sends
x^i w_{y^j} to g^{t*i + j}.  Over E = Z[C_u x_zeta C_t] the trivial
module Z has a resolution by the total complex of a first-quadrant
array of copies of E indexed by (alpha, beta), with explicit structure
maps, closed-form higher differentials d^l (vanishing for l > 2), an
explicit Z-linear contracting homotopy, and explicit comparison maps
with the normalized bar resolution.

Tensoring over Z[C_v] with a trivial module M collapses every cell to a
copy of M and every map to an integer scalar, giving the complex used
by the cycle-set cohomology routines, together with induced comparison
maps and homotopy on the normalized complexes (D-bar tensors).

All maps are integer matrices on fixed bases:
  * X_{alpha,beta} = E with basis the v group elements (i, j);
  * Y_beta = Z[C_t] with basis y^0..y^{t-1};
  * bar_n = Ebar^{x n} (x) E with basis tuples (e_1..e_n, e), e_i != 1.
Right-E-linear maps are determined by their value on the basis element
w_1 = (0, 0) and extended by the right regular action, which permutes
bases.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .abelian import IntegerMatrix, PresentedModule, block_matrix
from .homology_engine import ChainComplex, CheckReport


class CrossedProduct:
    """The group C_u x_zeta C_t (abelian, isomorphic to C_v), v = u*t."""

    def __init__(self, u, t):
        if u <= 1:
            raise ValueError("crossed-product model requires u > 1")
        self.u = u
        self.t = t
        self.v = u * t
        self.elems = [(i, j) for i in range(u) for j in range(t)]
        self.index = {e: k for k, e in enumerate(self.elems)}
        self.identity = (0, 0)

    def mul(self, a, b):
        i1, j1 = a
        i2, j2 = b
        carry = 1 if j1 + j2 >= self.t else 0
        return ((i1 + i2 + carry) % self.u, (j1 + j2) % self.t)

    def f_exp(self, e):
        """The isomorphism onto Z/v: x^i w_{y^j} -> t*i + j."""
        return self.t * e[0] + e[1]

    def right_perm(self, e):
        """Permutation of element indices given by right multiplication."""
        return [self.index[self.mul(m, e)] for m in self.elems]


def _vec(n):
    return [0] * n


def exp_tuples(n, v):
    """Basis of Dbar^{x n} for D = Z[C_v]: exponent tuples with entries 1..v-1."""
    return list(itertools.product(range(1, v), repeat=n))


def tuple_bar_differential(n, v):
    """Tuple-level normalized bar differential Dbar^{x n} -> Dbar^{x (n-1)}
    with trivial coefficients (the map Mbar(n) -> Mbar(n-1) before any
    position sign)."""
    src = exp_tuples(n, v)
    tgt_index = {t: i for i, t in enumerate(exp_tuples(n - 1, v))}
    data = {}
    for col, tup in enumerate(src):
        def add(key, c):
            if all(x % v for x in key):
                k = (tgt_index[key], col)
                data[k] = data.get(k, 0) + c

        add(tup[1:], 1)
        for i in range(n - 1):
            add(tup[:i] + ((tup[i] + tup[i + 1]) % v,) + tup[i + 2 :], (-1) ** (i + 1))
        add(tup[:-1], (-1) ** n)
    return IntegerMatrix(len(tgt_index), len(src), data)


class ResolutionContext:
    """All matrices of the resolution for one (u, t), built lazily.

    Cells are indexed by (alpha, beta); sigma^0 homotopies are indexed
    by the position they map INTO (alpha = 0 means from Y_beta).
    """

    def __init__(self, u, t):
        self.G = CrossedProduct(u, t)
        self.u, self.t, self.v = u, t, u * t
        self._dl = {}
        self._sigma_l_X = {}
        self._sigma_l_Y = {}
        self._resolution = {}
        self._bar_bases = {}
        self._bar_index = {}
        self._bprime = {}
        self._phi = {}
        self._varphi = {}
        self._omega = {}
        self._breve_varphi = {}

    # -- structure maps of the array ------------------------------------

    def upsilon(self):
        """X_{0,beta} -> Y_beta, w_1 -> 1 (right E-linear)."""
        G = self.G
        data = {}
        for col, (i, j) in enumerate(G.elems):
            data[(j, col)] = 1
        return IntegerMatrix(self.t, self.v, data)

    def partial_col(self, beta):
        """Y_beta -> Y_{beta-1}: y - 1 for odd beta, the norm for even."""
        t = self.t
        data = {}
        if beta % 2 == 1:
            for j in range(t):
                data[((j + 1) % t, j)] = data.get(((j + 1) % t, j), 0) + 1
                data[(j, j)] = data.get((j, j), 0) - 1
        else:
            for j in range(t):
                for l in range(t):
                    data[(l, j)] = data.get((l, j), 0) + 1
        return IntegerMatrix(t, t, data)

    def d0(self, alpha, beta):
        """X_{alpha,beta} -> X_{alpha-1,beta}: x - 1 or the x-norm."""
        G = self.G
        v = self.v
        data = {}
        if alpha % 2 == 1:
            for col, (i, j) in enumerate(G.elems):
                data[(G.index[((i + 1) % self.u, j)], col)] = 1
                prev = data.get((col, col), 0)
                data[(col, col)] = prev - 1
        else:
            for col, (i, j) in enumerate(G.elems):
                for l in range(self.u):
                    key = (G.index[((i + l) % self.u, j)], col)
                    data[key] = data.get(key, 0) + 1
        return IntegerMatrix(v, v, data)

    def sigma0(self, alpha):
        """Row homotopy into column position alpha (alpha = 0: Y -> X_{0,beta})."""
        G = self.G
        v, u, t = self.v, self.u, self.t
        data = {}
        if alpha == 0:
            for j in range(t):
                data[(G.index[(0, j)], j)] = 1
            return IntegerMatrix(v, t, data)
        if alpha % 2 == 1:
            for col, (i, j) in enumerate(G.elems):
                for l in range(i):
                    data[(G.index[(l, j)], col)] = 1
        else:
            for col, (i, j) in enumerate(G.elems):
                if i == u - 1:
                    data[(G.index[(0, j)], col)] = 1
        return IntegerMatrix(v, v, data)

    def sigma_minus1(self, beta):
        """Column homotopy into Y_beta (beta = 0: from Z)."""
        t = self.t
        if beta == 0:
            return IntegerMatrix(t, 1, {(0, 0): 1})
        data = {}
        if beta % 2 == 0:
            data[(0, t - 1)] = 1
        else:
            for j in range(t):
                for l in range(j):
                    data[(l, j)] = 1
        return IntegerMatrix(t, t, data)

    def pi_E(self):
        return IntegerMatrix(1, self.v, {(0, c): 1 for c in range(self.v)})

    def unit(self):
        return IntegerMatrix(self.v, 1, {(self.G.index[(0, 0)], 0): 1})

    # -- right E-linear extension ---------------------------------------

    def extend_right(self, val):
        """Full matrix of the right E-linear map with the given value on w_1.

        val is a dense vector over the basis of a single E cell; the
        column for basis element e is val pushed through right
        multiplication by e.
        """
        G = self.G
        v = self.v
        data = {}
        for col, e in enumerate(G.elems):
            perm = G.right_perm(e)
            for src, x in enumerate(val):
                if x:
                    data[(perm[src], col)] = data.get((perm[src], col), 0) + x
        return IntegerMatrix(v, v, data)

    def _w1(self):
        vec = _vec(self.v)
        vec[self.G.index[(0, 0)]] = 1
        return vec

    # -- the higher differentials d^l -------------------------------------

    def dl(self, l, alpha, beta):
        """d^l_{alpha,beta}: X_{alpha,beta} -> X_{alpha+l-1,beta-l}, recursive."""
        if not (1 <= l <= beta and alpha >= 0):
            raise ValueError(f"d^{l} undefined at ({alpha},{beta})")
        key = (l, alpha, beta)
        if key in self._dl:
            return self._dl[key]
        w1 = self._w1()
        if l == 1 and alpha == 0:
            val = self.sigma0(0) @ self.partial_col(beta) @ self.upsilon()
            vec = [-x for x in val.apply(w1)]
        elif l == 1:
            val = self.sigma0(alpha) @ self.dl(1, alpha - 1, beta) @ self.d0(alpha, beta)
            vec = [-x for x in val.apply(w1)]
        elif alpha == 0:
            acc = _vec(self.v)
            for j in range(1, l):
                m = self.sigma0(l - 1) @ self.dl(l - j, j - 1, beta - j) @ self.dl(j, 0, beta)
                for idx, x in enumerate(m.apply(w1)):
                    acc[idx] += x
            vec = [-x for x in acc]
        else:
            acc = _vec(self.v)
            m = self.sigma0(alpha + l - 1) @ self.dl(l, alpha - 1, beta) @ self.d0(alpha, beta)
            for idx, x in enumerate(m.apply(w1)):
                acc[idx] += x
            for j in range(1, l):
                m = (
                    self.sigma0(alpha + l - 1)
                    @ self.dl(l - j, alpha + j - 1, beta - j)
                    @ self.dl(j, alpha, beta)
                )
                for idx, x in enumerate(m.apply(w1)):
                    acc[idx] += x
            vec = [-x for x in acc]
        out = self.extend_right(vec)
        self._dl[key] = out
        return out

    def dl_closed(self, l, alpha, beta):
        """Closed form: d^1 alternates w_1 - w_y / the y-norm, d^2 is -w_1
        on even columns and 0 on odd ones, d^l = 0 for l > 2."""
        G = self.G
        vec = _vec(self.v)
        if l == 1:
            if beta % 2 == 1:
                sign = (-1) ** alpha
                vec[G.index[(0, 0)]] += sign
                vec[G.index[(0, 1 % self.t)]] -= sign
            else:
                sign = (-1) ** (alpha + 1)
                for h in range(self.t):
                    vec[G.index[(0, h)]] += sign
        elif l == 2:
            if alpha % 2 == 0:
                vec[G.index[(0, 0)]] = -1
        elif l <= 0:
            raise ValueError("l must be >= 1")
        return self.extend_right(vec)

    # -- the Z-linear homotopies sigma^l ----------------------------------

    def sigma_l_X(self, l, alpha, beta):
        """sigma^l: X_{alpha,beta} -> X_{alpha+l+1,beta-l} (alpha >= 0)."""
        if l == 0:
            return self.sigma0(alpha + 1)
        key = (l, alpha, beta)
        if key in self._sigma_l_X:
            return self._sigma_l_X[key]
        acc = IntegerMatrix.zero(self.v, self.v)
        for i in range(l):
            term = (
                self.sigma0(alpha + l + 1)
                @ self.dl(l - i, alpha + i + 1, beta - i)
                @ self.sigma_l_X(i, alpha, beta)
            )
            acc = acc + term
        out = -acc
        self._sigma_l_X[key] = out
        return out

    def sigma_l_Y(self, l, beta):
        """sigma^l: Y_beta -> X_{l,beta-l} (the alpha = -1 case)."""
        if l == 0:
            return self.sigma0(0)
        key = (l, beta)
        if key in self._sigma_l_Y:
            return self._sigma_l_Y[key]
        acc = IntegerMatrix.zero(self.v, self.t)
        for i in range(l):
            term = (
                self.sigma0(l)
                @ self.dl(l - i, i, beta - i)
                @ self.sigma_l_Y(i, beta)
            )
            acc = acc + term
        out = -acc
        self._sigma_l_Y[key] = out
        return out

    # -- totalization -----------------------------------------------------

    def cells(self, n):
        return [(alpha, n - alpha) for alpha in range(n + 1)]

    def total_d(self, n):
        """d_n: X_n -> X_{n-1} with X_n = direct sum of the degree-n cells."""
        srcs = self.cells(n)
        tgts = self.cells(n - 1)
        tgt_index = {pos: k for k, pos in enumerate(tgts)}
        blocks = {}
        for bj, (alpha, beta) in enumerate(srcs):
            lmin = 1 if alpha == 0 else 0
            for l in range(lmin, beta + 1):
                pos = (alpha + l - 1, beta - l)
                if pos not in tgt_index:
                    continue
                m = self.d0(alpha, beta) if l == 0 else self.dl(l, alpha, beta)
                bi = tgt_index[pos]
                blocks[(bi, bj)] = blocks.get((bi, bj), IntegerMatrix.zero(self.v, self.v)) + m
        return block_matrix(blocks, [self.v] * len(tgts), [self.v] * len(srcs))

    def sigma_bar(self, n):
        """The contracting homotopy X_{n-1} -> X_n of the total resolution
        (n >= 1); sigma_bar(0) is the degree -1 piece Z -> X_0."""
        if n == 0:
            return self.sigma0(0) @ self.sigma_minus1(0)
        srcs = self.cells(n - 1)
        tgts = self.cells(n)
        tgt_index = {pos: k for k, pos in enumerate(tgts)}
        blocks = {}
        for bj, (alpha, beta) in enumerate(srcs):
            if alpha == 0:
                acc = {}
                for l in range(0, n + 1):
                    pos = (l, n - l)
                    m = -(self.sigma_l_Y(l, n) @ self.sigma_minus1(n) @ self.upsilon())
                    bi = tgt_index[pos]
                    acc[bi] = acc.get(bi, IntegerMatrix.zero(self.v, self.v)) + m
                for l in range(0, beta + 1):
                    pos = (l + 1, beta - l)
                    if pos not in tgt_index:
                        continue
                    m = self.sigma_l_X(l, 0, beta)
                    bi = tgt_index[pos]
                    acc[bi] = acc.get(bi, IntegerMatrix.zero(self.v, self.v)) + m
                for bi, m in acc.items():
                    blocks[(bi, bj)] = m
            else:
                for l in range(0, beta + 1):
                    pos = (alpha + l + 1, beta - l)
                    if pos not in tgt_index:
                        continue
                    blocks[(tgt_index[pos], bj)] = self.sigma_l_X(l, alpha, beta)
        return block_matrix(blocks, [self.v] * len(tgts), [self.v] * len(srcs))

    def resolution(self, nmax):
        if nmax in self._resolution:
            return self._resolution[nmax]
        modules = {}
        for n in range(nmax + 1):
            labels = tuple(
                (pos, e) for pos in self.cells(n) for e in self.G.elems
            )
            modules[n] = PresentedModule.free((n + 1) * self.v, labels)
        diff = {n: self.total_d(n) for n in range(1, nmax + 1)}
        chain = ChainComplex(modules, diff)
        sigma = {n: self.sigma_bar(n) for n in range(0, nmax + 1)}
        self._resolution[nmax] = (chain, sigma)
        return chain, sigma

    def verify_resolution(self, nmax):
        chain, sigma = self.resolution(nmax)
        rep = chain.validate()
        if not rep:
            return rep
        pi = self.pi_E()
        if (pi @ sigma[0]) != IntegerMatrix.identity(1):
            return CheckReport(False, "pi o sigma = id", 0)
        lhs = chain.diff[1] @ sigma[1] + sigma[0] @ pi
        if lhs != IntegerMatrix.identity(self.v):
            return CheckReport(False, "d sigma + sigma pi = id", 0)
        if not (pi @ chain.diff[1]).is_zero():
            return CheckReport(False, "pi o d = 0", 1)
        for n in range(1, nmax):
            lhs = chain.diff[n + 1] @ sigma[n + 1] + sigma[n] @ chain.diff[n]
            if lhs != IntegerMatrix.identity(chain.rank(n)):
                return CheckReport(False, "d sigma + sigma d = id", n)
        return CheckReport(True)

    # -- normalized bar resolution over E ---------------------------------

    def bar_basis(self, n):
        if n not in self._bar_bases:
            nontriv = [k for k, e in enumerate(self.G.elems) if e != self.G.identity]
            basis = [
                t + (b,)
                for t in itertools.product(nontriv, repeat=n)
                for b in range(self.v)
            ]
            self._bar_bases[n] = basis
            self._bar_index[n] = {t: i for i, t in enumerate(basis)}
        return self._bar_bases[n]

    def bar_rank(self, n):
        return len(self.bar_basis(n))

    def bprime(self, n):
        """bar_n -> bar_{n-1}; first face drops e_1 (trivial coefficients)."""
        if n in self._bprime:
            return self._bprime[n]
        G = self.G
        ident = G.index[G.identity]
        src = self.bar_basis(n)
        tgt_index = self._bar_index_for(n - 1)
        data = {}
        for col, tup in enumerate(src):
            def add(key, c):
                k = (tgt_index[key], col)
                data[k] = data.get(k, 0) + c

            add(tup[1:], 1)
            for i in range(n - 1):
                merged = G.index[G.mul(G.elems[tup[i]], G.elems[tup[i + 1]])]
                if merged != ident:
                    add(tup[:i] + (merged,) + tup[i + 2 :], (-1) ** (i + 1))
            last = G.index[G.mul(G.elems[tup[n - 1]], G.elems[tup[n]])]
            add(tup[: n - 1] + (last,), (-1) ** n)
        out = IntegerMatrix(self.bar_rank(n - 1), self.bar_rank(n), data)
        self._bprime[n] = out
        return out

    def _bar_index_for(self, n):
        self.bar_basis(n)
        return self._bar_index[n]

    def bar_xi(self, n):
        """Contracting homotopy bar_{n-1} -> bar_n, x -> (-1)^n (x tensor 1)."""
        G = self.G
        ident = G.index[G.identity]
        src = self.bar_basis(n - 1)
        tgt_index = self._bar_index_for(n)
        data = {}
        for col, tup in enumerate(src):
            b = tup[-1]
            if b != ident:
                data[(tgt_index[tup[:-1] + (b, ident)], col)] = (-1) ** n
        return IntegerMatrix(self.bar_rank(n), self.bar_rank(n - 1), data)

    # -- comparison maps ---------------------------------------------------

    @staticmethod
    def _apply_cols(cols, svec):
        """Matrix times sparse vector, with the matrix given per column."""
        out = {}
        for j, c in svec.items():
            for i, v in cols[j].items():
                w = out.get(i, 0) + v * c
                if w:
                    out[i] = w
                elif i in out:
                    del out[i]
        return out

    def phi(self, n):
        """phi_n: X_n -> bar_n (right E-linear chain map, phi_0 = id)."""
        if n in self._phi:
            return self._phi[n]
        G = self.G
        ident = G.index[G.identity]
        if n == 0:
            out = IntegerMatrix.identity(self.v)
            # bar_0 basis is (b,): identify with E basis order
            self._phi[0] = out
            return out
        prev_cols = self.phi(n - 1).columns()
        chain, _ = self.resolution(n)
        d_cols = chain.diff[n].columns()
        xi_cols = self.bar_xi(n).columns()
        cells = self.cells(n)
        cols = []
        for bj, pos in enumerate(cells):
            w1col = bj * self.v + ident
            val = self._apply_cols(
                xi_cols, self._apply_cols(prev_cols, d_cols[w1col])
            )
            cols.append(val)
        # extend right-E-linearly cellwise
        data = {}
        tgt_index = self._bar_index_for(n)
        basis_n = self.bar_basis(n)
        for bj, pos in enumerate(cells):
            support = list(cols[bj].items())
            for eidx, e in enumerate(G.elems):
                col = bj * self.v + eidx
                if e == G.identity:
                    for row, c in support:
                        data[(row, col)] = c
                else:
                    for row, c in support:
                        rt = basis_n[row]
                        moved = rt[:-1] + (G.index[G.mul(G.elems[rt[-1]], e)],)
                        k = (tgt_index[moved], col)
                        data[k] = data.get(k, 0) + c
        out = IntegerMatrix(self.bar_rank(n), (n + 1) * self.v, data)
        self._phi[n] = out
        return out

    def varphi(self, n):
        """varphi_n: bar_n -> X_n with varphi o phi = id (varphi_0 = id)."""
        if n in self._varphi:
            return self._varphi[n]
        G = self.G
        ident = G.index[G.identity]
        if n == 0:
            out = IntegerMatrix.identity(self.v)
            self._varphi[0] = out
            return out
        prev_cols = self.varphi(n - 1).columns()
        chain, sigma = self.resolution(n)
        sb_cols = sigma[n].columns()
        bp_cols = self.bprime(n).columns()
        src = self.bar_basis(n)
        src_index = self._bar_index[n]
        data = {}
        xrank = (n + 1) * self.v
        vals = {}
        for tup in src:
            if tup[-1] != ident:
                continue
            col = src_index[tup]
            vals[tup] = self._apply_cols(
                sb_cols, self._apply_cols(prev_cols, bp_cols[col])
            )
        perms = [G.right_perm(e) for e in G.elems]
        for col, tup in enumerate(src):
            e = tup[-1]
            base = vals[tup[:-1] + (ident,)]
            if e == ident:
                for row, c in base.items():
                    data[(row, col)] = c
            else:
                perm = perms[e]
                for row, c in base.items():
                    cell, inner = divmod(row, self.v)
                    k = (cell * self.v + perm[inner], col)
                    data[k] = data.get(k, 0) + c
        out = IntegerMatrix(xrank, self.bar_rank(n), data)
        self._varphi[n] = out
        return out

    def omega(self, n):
        """omega_n: bar_{n-1} -> bar_n, the homotopy from phi o varphi to id."""
        if n in self._omega:
            return self._omega[n]
        if n == 1:
            out = IntegerMatrix.zero(self.bar_rank(1), self.bar_rank(0))
            self._omega[1] = out
            return out
        G = self.G
        ident = G.index[G.identity]
        m = n - 1
        phi_cols = self.phi(m).columns()
        varphi_cols = self.varphi(m).columns()
        omega_cols = self.omega(m).columns()
        bp_cols = self.bprime(m).columns()
        xi_cols = self.bar_xi(n).columns()
        src = self.bar_basis(m)
        src_index = self._bar_index[m]
        vals = {}
        for tup in src:
            if tup[-1] != ident:
                continue
            col = src_index[tup]
            t1 = self._apply_cols(phi_cols, varphi_cols[col])
            t1[col] = t1.get(col, 0) - 1
            down = self._apply_cols(omega_cols, bp_cols[col])
            combined = dict(t1)
            for row, c in down.items():
                w = combined.get(row, 0) - c
                if w:
                    combined[row] = w
                elif row in combined:
                    del combined[row]
            vals[tup] = self._apply_cols(xi_cols, combined)
        out = self.bar_extend_right_from(m, n, vals)
        self._omega[n] = out
        return out

    def bar_extend_right_from(self, m, n, vals):
        """Extend values on w_1 columns of bar_m to a full matrix bar_m -> bar_n."""
        G = self.G
        ident = G.index[G.identity]
        src = self.bar_basis(m)
        tgt_basis = self.bar_basis(n)
        tgt_index = self._bar_index_for(n)
        data = {}
        for col, tup in enumerate(src):
            e = tup[-1]
            base = vals[tup[:-1] + (ident,)]
            if e == ident:
                for row, c in base.items():
                    data[(row, col)] = c
            else:
                for row, c in base.items():
                    rt = tgt_basis[row]
                    moved = rt[:-1] + (G.index[G.mul(G.elems[rt[-1]], G.elems[e])],)
                    k = (tgt_index[moved], col)
                    data[k] = data.get(k, 0) + c
        return IntegerMatrix(self.bar_rank(n), self.bar_rank(m), data)

    # -- induced maps on trivial coefficients ------------------------------

    def _to_exp_tuple(self, elem_tuple):
        return tuple(self.G.f_exp(self.G.elems[k]) for k in elem_tuple)

    def breve_phi(self, alpha, beta):
        """The vector x in Dbar^{x n} with induced phi(m) = x tensor m."""
        n = alpha + beta
        phi_n = self.phi(n)
        bj = self.cells(n).index((alpha, beta))
        col = bj * self.v + self.G.index[self.G.identity]
        out = {}
        basis = self.bar_basis(n)
        for row, val in phi_n.column(col).items():
            tup = basis[row]
            key = self._to_exp_tuple(tup[:-1])
            out[key] = out.get(key, 0) + val
        return {k: v for k, v in out.items() if v}

    def breve_varphi(self, alpha, beta):
        """Integer-valued function on exponent tuples inducing the
        (alpha, beta)-component of varphi on trivial coefficients."""
        n = alpha + beta
        if n not in self._breve_varphi:
            # every cell of degree n at once: varphi_n's rows are the cells'
            # E bases, v rows per cell
            cols = self.varphi(n).columns()
            ident = self.G.index[self.G.identity]
            index = self._bar_index_for(n)
            per_cell = [{} for _ in range(n + 1)]
            for tupE in itertools.product(
                [k for k in range(self.v) if k != ident], repeat=n
            ):
                sums = [0] * (n + 1)
                for r, val in cols[index[tupE + (ident,)]].items():
                    sums[r // self.v] += val
                key = self._to_exp_tuple(tupE)
                for out, s in zip(per_cell, sums):
                    if s:
                        out[key] = s
            self._breve_varphi[n] = per_cell
        return self._breve_varphi[n][self.cells(n).index((alpha, beta))]

    def breve_omega(self, n):
        """Tuple-level homotopy: exponent tuples of length n-1 to length n."""
        omega_n = self.omega(n)
        cols = omega_n.columns()
        ident = self.G.index[self.G.identity]
        tgt_basis = self.bar_basis(n)
        out = {}
        index = self._bar_index_for(n - 1)
        for tupE in itertools.product(
            [k for k in range(self.v) if k != ident], repeat=n - 1
        ):
            col = index[tupE + (ident,)]
            terms = {}
            for row, val in cols[col].items():
                key = self._to_exp_tuple(tgt_basis[row][:-1])
                terms[key] = terms.get(key, 0) + val
            terms = {k: v for k, v in terms.items() if v}
            if terms:
                out[self._to_exp_tuple(tupE)] = terms
        return out


def pepito_scalar(l, alpha, beta, u, t):
    """The integer by which the (l, alpha, beta) differential acts on a
    trivial coefficient module: u / 0 for l = 0, 0 / +-t for l = 1,
    -1 / 0 for l = 2, and 0 beyond."""
    if l == 0:
        return u if alpha % 2 == 0 else 0
    if l == 1:
        return 0 if beta % 2 == 1 else (-1) ** (alpha + 1) * t
    if l == 2:
        return -1 if alpha % 2 == 0 else 0
    return 0


@dataclass
class ComparisonData:
    """phi: X -> bar, varphi: bar -> X, omega: degree +1 on bar."""

    context: ResolutionContext
    nmax: int
    phi: dict
    varphi: dict
    omega: dict

    def verify(self):
        """The comparison identities.

        For t >= 2 this includes varphi o phi = id, making the data an
        SDR.  At t = 1 that identity degenerates (w_y = w_1 kills the
        (0, 1) cells) and only a homotopy equivalence survives: we then
        certify varphi o phi - id as null-homotopic via the contracting
        homotopy instead, which is all the t = 1 computations need
        (their perturbation vanishes).
        """
        ctx = self.context
        chain, sigma = ctx.resolution(self.nmax)
        if ctx.t >= 2:
            for n in range(self.nmax + 1):
                if self.varphi[n] @ self.phi[n] != IntegerMatrix.identity(chain.rank(n)):
                    return CheckReport(False, "varphi o phi = id", n)
        else:
            H_prev = None
            for n in range(self.nmax):
                f_n = self.varphi[n] @ self.phi[n] - IntegerMatrix.identity(chain.rank(n))
                g = f_n
                if H_prev is not None:
                    g = g - H_prev @ chain.diff[n]
                H_n = sigma[n + 1] @ g
                lhs = chain.diff[n + 1] @ H_n
                if H_prev is not None:
                    lhs = lhs + H_prev @ chain.diff[n]
                if lhs != f_n:
                    return CheckReport(False, "varphi o phi ~ id", n)
                H_prev = H_n
        for n in range(1, self.nmax + 1):
            if ctx.bprime(n) @ self.phi[n] != self.phi[n - 1] @ chain.diff[n]:
                return CheckReport(False, "phi chain map", n)
            if chain.diff[n] @ self.varphi[n] != self.varphi[n - 1] @ ctx.bprime(n):
                return CheckReport(False, "varphi chain map", n)
        for n in range(self.nmax):
            lhs = ctx.bprime(n + 1) @ self.omega[n + 1]
            if n >= 1:
                lhs = lhs + self.omega[n] @ ctx.bprime(n)
            rhs = self.phi[n] @ self.varphi[n] - IntegerMatrix.identity(ctx.bar_rank(n))
            if lhs != rhs:
                return CheckReport(False, "omega homotopy identity", n)
        for n in range(1, self.nmax + 1):
            if not (self.varphi[n] @ self.omega[n]).is_zero():
                return CheckReport(False, "varphi o omega = 0", n)
            if not (self.omega[n] @ self.phi[n - 1]).is_zero():
                return CheckReport(False, "omega o phi = 0", n)
            if n + 1 <= self.nmax and not (self.omega[n + 1] @ self.omega[n]).is_zero():
                return CheckReport(False, "omega o omega = 0", n)
        return CheckReport(True)


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


@functools.cache
def get_context(params):
    """The resolution matrices of one family member, shared by every caller."""
    return ResolutionContext(params.u, params.t)


def crossed_product(params):
    """The group model with its isomorphism onto Z/v, fully verified."""
    G = CrossedProduct(params.u, params.t)
    v = G.v
    for a in G.elems:
        for b in G.elems:
            if (G.f_exp(G.mul(a, b)) - G.f_exp(a) - G.f_exp(b)) % v:
                raise AssertionError(f"f is not a homomorphism at {a}, {b}")
    if sorted(G.f_exp(e) for e in G.elems) != list(range(v)):
        raise AssertionError("f is not bijective")
    return G


def structural_differentials(params):
    """upsilon, the column differentials and the row differentials, with
    the complex property of every row and the column checked."""
    ctx = get_context(params)
    ups = ctx.upsilon()
    out = {
        "upsilon": ups,
        "partial_odd": ctx.partial_col(1),
        "partial_even": ctx.partial_col(2),
        "d0_odd": ctx.d0(1, 0),
        "d0_even": ctx.d0(2, 0),
    }
    if not (out["partial_odd"] @ out["partial_even"]).is_zero():
        raise AssertionError("column is not a complex (odd o even)")
    if not (out["partial_even"] @ out["partial_odd"]).is_zero():
        raise AssertionError("column is not a complex (even o odd)")
    if not (out["d0_odd"] @ out["d0_even"]).is_zero():
        raise AssertionError("row is not a complex (odd o even)")
    if not (out["d0_even"] @ out["d0_odd"]).is_zero():
        raise AssertionError("row is not a complex (even o odd)")
    if not (ups @ out["d0_odd"]).is_zero():
        raise AssertionError("upsilon o d0 != 0")
    return out


def contracting_homotopies(params):
    """The row homotopies sigma^0 and the column homotopy sigma^{-1},
    with all contraction identities checked."""
    ctx = get_context(params)
    v, t, u = ctx.v, ctx.t, ctx.u
    ups = ctx.upsilon()
    id_X = IntegerMatrix.identity(v)
    id_Y = IntegerMatrix.identity(t)
    # row identities: v o s0 = id; s0 v + d0 s1 = id; s d + d s = id
    if ups @ ctx.sigma0(0) != id_Y:
        raise AssertionError("upsilon o sigma0 != id")
    if ctx.sigma0(0) @ ups + ctx.d0(1, 0) @ ctx.sigma0(1) != id_X:
        raise AssertionError("row contraction fails at position 0")
    for alpha in (1, 2, 3, 4):
        lhs = ctx.sigma0(alpha) @ ctx.d0(alpha, 0) + ctx.d0(alpha + 1, 0) @ ctx.sigma0(alpha + 1)
        if lhs != id_X:
            raise AssertionError(f"row contraction fails at position {alpha}")
    # column identities
    pi = IntegerMatrix(1, t, {(0, c): 1 for c in range(t)})
    if pi @ ctx.sigma_minus1(0) != IntegerMatrix.identity(1):
        raise AssertionError("pi o sigma-1 != id")
    if ctx.sigma_minus1(0) @ pi + ctx.partial_col(1) @ ctx.sigma_minus1(1) != id_Y:
        raise AssertionError("column contraction fails at position 0")
    for beta in (1, 2, 3, 4):
        lhs = ctx.sigma_minus1(beta) @ ctx.partial_col(beta) + ctx.partial_col(
            beta + 1
        ) @ ctx.sigma_minus1(beta + 1)
        if lhs != id_Y:
            raise AssertionError(f"column contraction fails at position {beta}")
    return {
        "sigma0_into_0": ctx.sigma0(0),
        "sigma0_into_odd": ctx.sigma0(1),
        "sigma0_into_even": ctx.sigma0(2),
        "sigma_minus1_0": ctx.sigma_minus1(0),
        "sigma_minus1_odd": ctx.sigma_minus1(1),
        "sigma_minus1_even": ctx.sigma_minus1(2),
    }


def dl_agreement_suite(params, degree_cap=4):
    """Recursion-versus-closed-form agreement for every higher
    differential with total degree within the cap (t >= 2 members)."""
    for n in range(1, degree_cap + 1):
        for alpha in range(n):
            beta = n - alpha
            for l in range(1, beta + 1):
                dl_maps(params, alpha, beta, l)


def dl_maps(params, alpha, beta, l):
    """The (alpha, beta, l) differential by its recursion, checked against
    the closed form; returns the matrix."""
    ctx = get_context(params)
    rec = ctx.dl(l, alpha, beta)
    closed = ctx.dl_closed(l, alpha, beta)
    if rec != closed:
        raise AssertionError(
            f"recursive d^{l} at ({alpha},{beta}) disagrees with the closed form"
        )
    return rec


def resolution(params, n_max):
    """The total complex with its contracting homotopy, fully verified."""
    if n_max > 5:
        raise ValueError("resolution capped at degree 5")
    ctx = get_context(params)
    chain, sigma = ctx.resolution(n_max)
    report = ctx.verify_resolution(n_max)
    if not report:
        raise AssertionError(f"resolution verification failed: {report}")
    return chain, sigma


def comparison_maps(params, n_max):
    """Comparison with the normalized bar resolution, fully verified."""
    if n_max > 3:
        raise ValueError("comparison maps capped at degree 3")
    ctx = get_context(params)
    data = ComparisonData(
        ctx,
        n_max,
        {n: ctx.phi(n) for n in range(n_max + 1)},
        {n: ctx.varphi(n) for n in range(n_max + 1)},
        {n: ctx.omega(n) for n in range(1, n_max + 1)},
    )
    report = data.verify()
    if not report:
        raise AssertionError(f"comparison maps failed verification: {report}")
    return data


@dataclass
class CoefficientComplex:
    """The complex of copies of a trivial module M indexed by (alpha, beta),
    with its comparison maps to the normalized complex Dbar^{x n} (x) M."""

    v: int
    u: int
    t: int
    M: PresentedModule
    nmax: int
    chain: ChainComplex           # degree n module: one copy of M per cell
    bar_modules: dict             # n -> PresentedModule on (exp tuple, gen) basis
    bar_diff: dict                # n -> bar_n -> bar_{n-1}
    phibar: dict                  # n -> X_n(M) -> bar_n(M)
    varphibar: dict               # n -> bar_n(M) -> X_n(M)
    omegabar: dict                # n -> bar_{n-1}(M) -> bar_n(M)


def _kron_with_identity(tuple_map, src_tuples, tgt_tuples, g):
    """Kronecker of a tuple-level map (dict src -> {tgt: coeff}) with id_g."""
    tgt_index = {t: i for i, t in enumerate(tgt_tuples)}
    src_index = {t: i for i, t in enumerate(src_tuples)}
    data = {}
    for src, terms in tuple_map.items():
        sj = src_index[src]
        for tgt, c in terms.items():
            ti = tgt_index[tgt]
            for k in range(g):
                data[(ti * g + k, sj * g + k)] = c
    return IntegerMatrix(len(tgt_tuples) * g, len(src_tuples) * g, data)


def coefficient_complex(params, M, n_max):
    """The resolution tensored with a trivial module M, plus the induced
    comparison maps and homotopy on the normalized complexes.

    Block differentials are produced twice: from the closed-form scalar
    table and by collapsing the group-ring matrices along the
    augmentation; both must agree.
    """
    ctx = get_context(params)
    u, t, v = ctx.u, ctx.t, ctx.v
    g = M.ngens

    modules = {}
    diff = {}
    for n in range(n_max + 1):
        cells = [(alpha, n - alpha) for alpha in range(n + 1)]
        labels = tuple((pos, lab) for pos in cells for lab in (M.labels or range(g)))
        rel_blocks = {(bi, bi): M.relations for bi in range(len(cells))}
        relations = block_matrix(
            {k: v_ for k, v_ in rel_blocks.items() if v_.rows},
            [M.relations.rows] * len(cells),
            [g] * len(cells),
        ) if M.relations.rows else IntegerMatrix.zero(0, len(cells) * g)
        modules[n] = PresentedModule(len(cells) * g, relations, labels)
    for n in range(1, n_max + 1):
        srcs = [(alpha, n - alpha) for alpha in range(n + 1)]
        tgts = [(alpha, n - 1 - alpha) for alpha in range(n)]
        tgt_index = {pos: k for k, pos in enumerate(tgts)}
        blocks = {}
        for bj, (alpha, beta) in enumerate(srcs):
            lmin = 1 if alpha == 0 else 0
            for l in range(lmin, beta + 1):
                pos = (alpha + l - 1, beta - l)
                if pos not in tgt_index:
                    continue
                # authoritative scalar: collapse the group-ring matrix along
                # the augmentation; the closed-form table must agree except
                # in the known t = 1 degeneracy, where the second-order maps
                # vanish (their closed form -1 presumes t >= 2)
                mat = ctx.d0(alpha, beta) if l == 0 else ctx.dl(l, alpha, beta)
                w1 = _vec(v)
                w1[ctx.G.index[(0, 0)]] = 1
                eps = sum(mat.apply(w1))
                table = pepito_scalar(l, alpha, beta, u, t)
                if eps != table and not (
                    t == 1 and l == 2 and alpha % 2 == 0 and eps == 0 and table == -1
                ):
                    raise AssertionError(
                        f"coefficient collapse mismatch at l={l}, ({alpha},{beta})"
                    )
                if eps:
                    bi = tgt_index[pos]
                    blk = IntegerMatrix.identity(g).scale(eps)
                    if (bi, bj) in blocks:
                        blocks[(bi, bj)] = blocks[(bi, bj)] + blk
                    else:
                        blocks[(bi, bj)] = blk
        diff[n] = block_matrix(blocks, [g] * len(tgts), [g] * len(srcs))
    chain = ChainComplex(modules, diff)

    bar_modules = {}
    bar_diff = {}
    phibar = {}
    varphibar = {}
    omegabar = {}
    for n in range(n_max + 1):
        tuples = exp_tuples(n, v)
        labels = tuple((tup, lab) for tup in tuples for lab in (M.labels or range(g)))
        if M.relations.rows:
            relations = block_matrix(
                {(i, i): M.relations for i in range(len(tuples))},
                [M.relations.rows] * len(tuples),
                [g] * len(tuples),
            )
        else:
            relations = IntegerMatrix.zero(0, len(tuples) * g)
        bar_modules[n] = PresentedModule(len(tuples) * g, relations, labels)
    for n in range(1, n_max + 1):
        tb = tuple_bar_differential(n, v)
        src_tuples = exp_tuples(n, v)
        tgt_tuples = exp_tuples(n - 1, v)
        tuple_map = {
            src_tuples[c]: {tgt_tuples[r]: val for r, val in col.items()}
            for c, col in enumerate(tb.columns())
            if col
        }
        bar_diff[n] = _kron_with_identity(tuple_map, src_tuples, tgt_tuples, g)
        om = ctx.breve_omega(n)
        omegabar[n] = _kron_with_identity(om, tgt_tuples, src_tuples, g)
    for n in range(n_max + 1):
        cells = [(alpha, n - alpha) for alpha in range(n + 1)]
        tuples = exp_tuples(n, v)
        tindex = {tup: i for i, tup in enumerate(tuples)}
        data = {}
        for bj, (alpha, beta) in enumerate(cells):
            for tup, c in ctx.breve_phi(alpha, beta).items():
                ti = tindex[tup]
                for k in range(g):
                    data[(ti * g + k, bj * g + k)] = c
        phibar[n] = IntegerMatrix(len(tuples) * g, len(cells) * g, data)
        data = {}
        for bj, (alpha, beta) in enumerate(cells):
            for tup, c in ctx.breve_varphi(alpha, beta).items():
                ti = tindex[tup]
                for k in range(g):
                    data[(bj * g + k, ti * g + k)] = c
        varphibar[n] = IntegerMatrix(len(cells) * g, len(tuples) * g, data)

    return CoefficientComplex(
        v, u, t, M, n_max, chain, bar_modules, bar_diff, phibar, varphibar, omegabar
    )
