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
  * X_{alpha,beta} = E with basis the v group elements (i, j), x^i w_{y^j}
    at index t*i + j, its exponent, so that right multiplication adds
    indices modulo v;
  * Y_beta = Z[C_t] with basis y^0..y^{t-1};
  * bar_n = Ebar^{x n} (x) E with basis tuples (e_1..e_n, e), e_i != 1, at
    index code * v + e, where code is the mixed-radix code of (e_1..e_n)
    in base v-1 (tuple_codes; exp_tuples lists the tuples in code order).
Right-E-linear maps are determined by their value on the basis element
w_1 = (0, 0) and extended by the right regular action, which permutes
bases.  The comparison maps are held by these values only, their
normalised columns, one per cell or exponent tuple; right_translate
gives the full matrix when one is needed, so the reduced route never
builds a matrix with a column per element of bar_3.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .abelian import IntegerMatrix, PresentedModule, block_matrix
from .cycleset import Verdict
from .homology_engine import CellRank, ChainComplex, _sum


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


def exp_tuples(n, v):
    """Basis of Dbar^{x n} for D = Z[C_v]: exponent tuples with entries 1..v-1."""
    return list(itertools.product(range(1, v), repeat=n))


def tuple_letters(n, v, codes=None):
    """The rows of exp_tuples(n, v) with the given codes (default: all
    (v-1)^n of them, in order) as an (len(codes), n) int64 array."""
    if codes is None:
        codes = np.arange((v - 1) ** n, dtype=np.int64)
    powers = (v - 1) ** np.arange(n - 1, -1, -1, dtype=np.int64)
    return np.asarray(codes, dtype=np.int64)[:, None] // powers % (v - 1) + 1


def tuple_codes(letters, v):
    """The positions in exp_tuples order of the rows of `letters` (entries
    1..v-1): their mixed-radix codes in base v-1, first letter highest."""
    n = letters.shape[-1]
    return (letters - 1) @ ((v - 1) ** np.arange(n - 1, -1, -1, dtype=np.int64))


def bar_faces(x, v):
    """The faces of the normalized bar differential on the exponent tuples
    that are the rows of the letters x (entries 1..v-1, n >= 1 columns),
    as arrays (col, tgt, last, sign): the tuple in row col has the
    (n-1)-tuple with code tgt as a face with the given sign.  The last
    face moves the dropped letter, `last`, into the E slot (trivial
    coefficients forget it); the other faces leave 0 there."""
    n = x.shape[1]
    cols = np.arange(len(x))
    # (col, tgt, last, sign) of the first face, the merges, the last face
    parts = [(cols, tuple_codes(x[:, 1:], v), 0 * cols, 1)]
    for i in range(n - 1):
        merged = (x[:, i] + x[:, i + 1]) % v
        keep = merged != 0
        y = np.concatenate((x[keep, :i], merged[keep, None], x[keep, i + 2 :]), axis=1)
        parts.append((cols[keep], tuple_codes(y, v), 0 * cols[keep], (-1) ** (i + 1)))
    parts.append((cols, tuple_codes(x[:, :-1], v), x[:, -1], (-1) ** n))
    col, tgt, last = (np.concatenate(a) for a in zip(*[p[:3] for p in parts]))
    sign = np.concatenate([np.full(len(p[0]), p[3], dtype=np.int64) for p in parts])
    return col, tgt, last, sign


def tuple_bar_differential(n, v):
    """Tuple-level normalized bar differential Dbar^{x n} -> Dbar^{x (n-1)}
    with trivial coefficients (the map Mbar(n) -> Mbar(n-1) before any
    position sign)."""
    col, tgt, _, sign = bar_faces(tuple_letters(n, v), v)
    return IntegerMatrix._from_coo((v - 1) ** (n - 1), (v - 1) ** n, tgt, col, sign)


def _memoized(method):
    """Keep a ResolutionContext method's results, per context and arguments."""

    @functools.wraps(method)
    def cached(self, *args):
        key = (method.__name__, args)
        if key not in self._memo:
            self._memo[key] = method(self, *args)
        return self._memo[key]

    return cached


class ResolutionContext:
    """All matrices of the resolution for one (u, t), built lazily.

    Cells are indexed by (alpha, beta); sigma^0 homotopies are indexed
    by the position they map INTO (alpha = 0 means from Y_beta).
    """

    def __init__(self, u, t):
        self.G = CrossedProduct(u, t)
        self.u, self.t, self.v = u, t, u * t
        self._memo = {}

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

    # -- the higher differentials d^l -------------------------------------

    @_memoized
    def dl(self, l, alpha, beta):
        """d^l_{alpha,beta}: X_{alpha,beta} -> X_{alpha+l-1,beta-l}, recursive:
        -sigma^0 applied to the terms that d^l must cancel, read on w_1 (the
        element of index 0) and extended right E-linearly."""
        if not (1 <= l <= beta and alpha >= 0):
            raise ValueError(f"d^{l} undefined at ({alpha},{beta})")
        if l == 1 and alpha == 0:
            total = self.sigma0(0) @ self.partial_col(beta) @ self.upsilon()
        else:
            s0 = self.sigma0(alpha + l - 1)
            terms = [s0 @ self.dl(l, alpha - 1, beta) @ self.d0(alpha, beta)] if alpha else []
            terms += [
                s0 @ self.dl(l - j, alpha + j - 1, beta - j) @ self.dl(j, alpha, beta)
                for j in range(1, l)
            ]
            total = _sum(terms)
        return right_translate(-total.submatrix(0, self.v, 0, 1), self.v)

    def dl_closed(self, l, alpha, beta):
        """Closed form: d^1 alternates w_1 - w_y / the y-norm, d^2 is -w_1
        on even columns and 0 on odd ones, d^l = 0 for l > 2.  At t = 1,
        where the odd-column d^1 vanish, d^2 is 0 as well (as in
        `pepito_scalar`)."""
        # the normalised column as (j, c): c times the element (0, j)
        if l == 1:
            if beta % 2 == 1:
                sign = (-1) ** alpha
                terms = [(0, sign), (1 % self.t, -sign)]
            else:
                sign = (-1) ** (alpha + 1)
                terms = [(h, sign) for h in range(self.t)]
        elif l <= 0:
            raise ValueError("l must be >= 1")
        else:
            terms = [(0, -1)] if l == 2 and alpha % 2 == 0 and self.t >= 2 else []
        col = {}
        for j, c in terms:
            key = (self.G.index[(0, j)], 0)
            col[key] = col.get(key, 0) + c
        return right_translate(IntegerMatrix(self.v, 1, col), self.v)

    # -- the Z-linear homotopies sigma^l ----------------------------------

    @_memoized
    def sigma_l_X(self, l, alpha, beta):
        """sigma^l: X_{alpha,beta} -> X_{alpha+l+1,beta-l} (alpha >= 0)."""
        if l == 0:
            return self.sigma0(alpha + 1)
        acc = IntegerMatrix.zero(self.v, self.v)
        for i in range(l):
            term = (
                self.sigma0(alpha + l + 1)
                @ self.dl(l - i, alpha + i + 1, beta - i)
                @ self.sigma_l_X(i, alpha, beta)
            )
            acc = acc + term
        return -acc

    @_memoized
    def sigma_l_Y(self, l, beta):
        """sigma^l: Y_beta -> X_{l,beta-l} (the alpha = -1 case)."""
        if l == 0:
            return self.sigma0(0)
        acc = IntegerMatrix.zero(self.v, self.t)
        for i in range(l):
            term = (
                self.sigma0(l)
                @ self.dl(l - i, i, beta - i)
                @ self.sigma_l_Y(i, beta)
            )
            acc = acc + term
        return -acc

    # -- totalization -----------------------------------------------------

    def cells(self, n):
        return [(alpha, n - alpha) for alpha in range(n + 1)]

    def array_map(self, l, alpha, beta):
        """The array's map X_{alpha,beta} -> X_{alpha+l-1,beta-l}: d0 for
        l = 0, else d^l."""
        return self.d0(alpha, beta) if l == 0 else self.dl(l, alpha, beta)

    @_memoized
    def total_d(self, n):
        """d_n: X_n -> X_{n-1} with X_n = direct sum of the degree-n cells."""
        return array_differential(n, self.v, self.array_map)

    @_memoized
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

    @_memoized
    def resolution(self, nmax):
        """The chain complex X_0..X_nmax and its homotopies sigma_bar(0..nmax),
        assembled from the memoized pieces."""
        modules = {}
        for n in range(nmax + 1):
            modules[n] = PresentedModule.free((n + 1) * self.v)
        diff = {n: self.total_d(n) for n in range(1, nmax + 1)}
        chain = ChainComplex(modules, diff)
        sigma = {n: self.sigma_bar(n) for n in range(0, nmax + 1)}
        return chain, sigma

    def verify_resolution(self, nmax):
        chain, sigma = self.resolution(nmax)
        rep = chain.validate()
        if not rep:
            return rep
        pi = self.pi_E()
        if (pi @ sigma[0]) != IntegerMatrix.identity(1):
            return Verdict(False, "pi o sigma = id", 0)
        lhs = chain.diff[1] @ sigma[1] + sigma[0] @ pi
        if lhs != IntegerMatrix.identity(self.v):
            return Verdict(False, "d sigma + sigma pi = id", 0)
        if not (pi @ chain.diff[1]).is_zero():
            return Verdict(False, "pi o d = 0", 1)
        for n in range(1, nmax):
            lhs = chain.diff[n + 1] @ sigma[n + 1] + sigma[n] @ chain.diff[n]
            if lhs != IntegerMatrix.identity(chain.rank(n)):
                return Verdict(False, "d sigma + sigma d = id", n)
        return Verdict(True)

    # -- normalized bar resolution over E ---------------------------------
    #
    # bar_n has the basis (e_1..e_n, b), e_k != 1, at index
    # tuple_codes(e_1..e_n) * v + b: an element's index is its exponent.
    # A right E-linear map out of bar_n (or X_n) is held by its normalised
    # columns, those of the basis elements whose E slot is the identity,
    # index 0 (one per exponent tuple, or per cell); right_translate gives
    # the others.

    def bar_rank(self, n):
        return (self.v - 1) ** n * self.v

    @_memoized
    def bprime(self, n):
        """bar_n -> bar_{n-1}, normalised columns; the first face drops e_1
        (trivial coefficients)."""
        col, tgt, last, sign = bar_faces(tuple_letters(n, self.v), self.v)
        return IntegerMatrix._from_coo(
            self.bar_rank(n - 1), (self.v - 1) ** n, tgt * self.v + last, col, sign
        )

    def bar_xi(self, n):
        """Contracting homotopy bar_{n-1} -> bar_n, x -> (-1)^n (x tensor 1)."""
        v = self.v
        c = np.arange(self.bar_rank(n - 1))
        c = c[c % v != 0]
        return IntegerMatrix._from_coo(
            self.bar_rank(n),
            self.bar_rank(n - 1),
            ((c // v) * (v - 1) + c % v - 1) * v,
            c,
            np.full(len(c), (-1) ** n, dtype=np.int64),
            canonical=True,
        )

    # -- comparison maps, on normalised columns -----------------------------

    @_memoized
    def phi(self, n):
        """phi_n: X_n -> bar_n (right E-linear chain map, phi_0 = id), one
        normalised column per cell of X_n."""
        v = self.v
        if n == 0:
            return self.unit()
        d = self.total_d(n)
        w1_cols = d.col_idx % v == 0
        d_normalised = IntegerMatrix._from_coo(
            d.rows, n + 1, d.row_idx[w1_cols], d.col_idx[w1_cols] // v, d.values[w1_cols],
            canonical=True,
        )
        return self.bar_xi(n) @ (right_translate(self.phi(n - 1), v) @ d_normalised)

    @_memoized
    def varphi(self, n):
        """varphi_n: bar_n -> X_n with varphi o phi = id (varphi_0 = id),
        normalised columns."""
        if n == 0:
            return self.unit()
        return self.sigma_bar(n) @ (right_translate(self.varphi(n - 1), self.v) @ self.bprime(n))

    @_memoized
    def omega(self, n):
        """omega_n: bar_{n-1} -> bar_n, the homotopy from phi o varphi to id,
        normalised columns."""
        if n == 1:
            return IntegerMatrix.zero(self.bar_rank(1), 1)
        v, m = self.v, n - 1
        # xi_n (phi varphi - id - omega_m b'); the identity's normalised
        # columns have the identity in the E slot, which xi_n kills
        t1 = right_translate(self.phi(m), v) @ self.varphi(m)
        down = right_translate(self.omega(m), v) @ self.bprime(m)
        return self.bar_xi(n) @ (t1 - down)

    # -- induced maps on trivial coefficients ------------------------------

    @_memoized
    def breve_phi(self, n):
        """phi_n on trivial coefficients: exponent tuples of length n by
        cells of X_n."""
        return _augment(self.phi(n), self.v)

    @_memoized
    def breve_varphi(self, n):
        """varphi_n on trivial coefficients: cells of X_n by exponent tuples
        of length n."""
        return _augment(self.varphi(n), self.v)

    @_memoized
    def breve_omega(self, n):
        """Tuple-level homotopy: exponent tuples of length n by those of
        length n-1."""
        return _augment(self.omega(n), self.v)


def right_translate(N, v):
    """The full matrix of the right E-linear map with normalised columns N.

    Row q * v + a of N is the element of index a in the q-th E summand of
    the target (a cell of X, or the E slot of a bar tuple).  Column
    j * v + b of the result is column j of N translated by the element b:
    each row q * v + a moves to q * v + (a + b) mod v.
    """
    b = np.arange(v)
    q, a = np.divmod(N.row_idx, v)
    return IntegerMatrix._from_coo(
        N.rows,
        N.cols * v,
        (q[:, None] * v + (a[:, None] + b) % v).ravel(),
        (N.col_idx[:, None] * v + b).ravel(),
        np.repeat(N.values, v),
    )


def _augment(N, v):
    """Normalised columns tensored down to trivial coefficients: rows
    q * v + a summed over a into row q."""
    return IntegerMatrix._from_coo(N.rows // v, N.cols, N.row_idx // v, N.col_idx, N.values)


def pepito_scalar(l, alpha, beta, u, t):
    """The integer by which the (l, alpha, beta) differential acts on a
    trivial coefficient module: u / 0 for l = 0, 0 / +-t for l = 1,
    -1 / 0 for l = 2 (0 at t = 1, where the resolution's d^2 is zero),
    and 0 beyond."""
    if l == 0:
        return u if alpha % 2 == 0 else 0
    if l == 1:
        return 0 if beta % 2 == 1 else (-1) ** (alpha + 1) * t
    if l == 2:
        return -1 if alpha % 2 == 0 and t >= 2 else 0
    return 0


def array_differential(n, size, block):
    """The degree-n differential of the total complex of an (alpha, beta)
    array whose cells all have `size` generators, in the cell order of
    `ResolutionContext.cells`.  block(l, alpha, beta) is the map
    X_{alpha,beta} -> X_{alpha+l-1,beta-l}, for l = 0 (alpha >= 1) and
    1 <= l <= beta, or None where it is zero; each (alpha, l) has its own
    block."""
    blocks = {}
    for alpha in range(n + 1):
        beta = n - alpha
        for l in range(0 if alpha else 1, beta + 1):
            m = block(l, alpha, beta)
            if m is not None:
                # the target (alpha + l - 1, beta - l) is cell alpha + l - 1 of degree n - 1
                blocks[(alpha + l - 1, alpha)] = m
    return block_matrix(blocks, [size] * n, [size] * (n + 1))


@dataclass
class ComparisonData:
    """phi: X -> bar, varphi: bar -> X, omega: degree +1 on bar, as full
    matrices (right_translate of the context's normalised columns)."""

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
        bprime = {n: right_translate(ctx.bprime(n), ctx.v) for n in range(1, self.nmax + 1)}
        if ctx.t >= 2:
            for n in range(self.nmax + 1):
                if self.varphi[n] @ self.phi[n] != IntegerMatrix.identity(chain.rank(n)):
                    return Verdict(False, "varphi o phi = id", n)
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
                    return Verdict(False, "varphi o phi ~ id", n)
                H_prev = H_n
        for n in range(1, self.nmax + 1):
            if bprime[n] @ self.phi[n] != self.phi[n - 1] @ chain.diff[n]:
                return Verdict(False, "phi chain map", n)
            if chain.diff[n] @ self.varphi[n] != self.varphi[n - 1] @ bprime[n]:
                return Verdict(False, "varphi chain map", n)
        for n in range(self.nmax):
            lhs = bprime[n + 1] @ self.omega[n + 1]
            if n >= 1:
                lhs = lhs + self.omega[n] @ bprime[n]
            rhs = self.phi[n] @ self.varphi[n] - IntegerMatrix.identity(ctx.bar_rank(n))
            if lhs != rhs:
                return Verdict(False, "omega homotopy identity", n)
        for n in range(1, self.nmax + 1):
            if not (self.varphi[n] @ self.omega[n]).is_zero():
                return Verdict(False, "varphi o omega = 0", n)
            if not (self.omega[n] @ self.phi[n - 1]).is_zero():
                return Verdict(False, "omega o phi = 0", n)
            if n + 1 <= self.nmax and not (self.omega[n + 1] @ self.omega[n]).is_zero():
                return Verdict(False, "omega o omega = 0", n)
        return Verdict(True)


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=1)
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


def dl_agreement_suite(params):
    """Recursion-versus-closed-form agreement for every higher
    differential with total degree at most 4."""
    for n in range(1, 5):
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
        {n: right_translate(ctx.phi(n), ctx.v) for n in range(n_max + 1)},
        {n: right_translate(ctx.varphi(n), ctx.v) for n in range(n_max + 1)},
        {n: right_translate(ctx.omega(n), ctx.v) for n in range(1, n_max + 1)},
    )
    report = data.verify()
    if not report:
        raise AssertionError(f"comparison maps failed verification: {report}")
    return data


@dataclass
class CoefficientComplex:
    """The complex of copies of a trivial module M indexed by (alpha, beta),
    with its comparison maps to the normalized complex Dbar^{x n} (x) M.

    The normalized complex is not held: its differential is
    `tuple_bar_differential(n, v)` (x) id_M, which the perturbation
    transfer holds factored as an `IdentityKron`, and `bar_rank` gives
    the size of its degree-n module, as the transfer reads only ranks."""

    v: int
    u: int
    t: int
    M: PresentedModule
    nmax: int
    chain: ChainComplex           # degree n module: one copy of M per cell, by rank
    phibar: dict                  # n -> X_n(M) -> bar_n(M)
    varphibar: dict               # n < nmax -> bar_n(M) -> X_n(M)
    omegabar: dict                # n -> bar_{n-1}(M) -> bar_n(M)

    def bar_rank(self, n):
        """Generators of bar_n(M) = Dbar^{x n} (x) M: (v-1)^n copies of M's."""
        return (self.v - 1) ** n * self.M.ngens


def coefficient_complex(params, M, n_max):
    """The resolution tensored with a trivial module M, plus the induced
    comparison maps and homotopy on the normalized complexes.

    Block differentials are produced twice: from the closed-form scalar
    table and by collapsing the group-ring matrices along the
    augmentation; both must agree.  The comparison maps are the
    context's tuple-level maps tensored with the identity of M.
    """
    ctx = get_context(params)
    u, t, v = ctx.u, ctx.t, ctx.v
    g = M.ngens
    ident = ctx.G.index[ctx.G.identity]
    id_g = IntegerMatrix.identity(g)

    # the cells enter by rank: the package reads only the ranks and the
    # differentials, and `reduced_complex` presents the cells it keeps
    modules = {n: CellRank(len(ctx.cells(n)) * g) for n in range(n_max + 1)}

    def collapsed_block(l, alpha, beta):
        # authoritative scalar: collapse the group-ring matrix along the
        # augmentation; the closed-form table must agree
        eps = sum(ctx.array_map(l, alpha, beta).column(ident).values())
        if eps != pepito_scalar(l, alpha, beta, u, t):
            raise AssertionError(f"coefficient collapse mismatch at l={l}, ({alpha},{beta})")
        return id_g.scale(eps) if eps else None

    diff = {n: array_differential(n, g, collapsed_block) for n in range(1, n_max + 1)}
    chain = ChainComplex(modules, diff)

    phibar = {n: ctx.breve_phi(n).kron(id_g) for n in range(n_max + 1)}
    # not at n_max: the transfer reads p only below each row's top cell
    varphibar = {n: ctx.breve_varphi(n).kron(id_g) for n in range(n_max)}
    omegabar = {n: ctx.breve_omega(n).kron(id_g) for n in range(1, n_max + 1)}

    return CoefficientComplex(v, u, t, M, n_max, chain, phibar, varphibar, omegabar)
