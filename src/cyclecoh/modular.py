"""Exact linear algebra over Z/p^k: one Smith elimination engine.

The cochain computations with finite cyclic coefficients reduce to
kernels and subquotients of integer matrices mod a prime power.  Over
the chain ring Z/p^k every matrix A has a Smith form

    U @ A @ V = diag(p^e_0, p^e_1, ...)  (mod p^k),   e ascending,

and only its column side is ever needed: the exponents, V and V^{-1}
give the kernel of A and the change of basis into it.  `local_smith`
reaches it in two phases.

1. Sparse unit pivots.  The nonzero entries are read into Python-int
   row dicts.  While an active column holds a unit (an entry prime to
   p), take the sparsest such column and, in it, the sparsest unit row
   (ties by index).  Clear the column with row operations on the dicts;
   clear the pivot row with column operations, which after the column
   clear only V and V^{-1} see.  A unit has valuation 0, the minimum,
   so these pivots head the Smith order.  The condition matrices of the
   cochain complexes are very sparse and nearly all of their pivots are
   units.
2. Dense residual.  Every entry left is divisible by p.  The remaining
   rows and columns are densified into int64 and eliminated by pivoting
   on an entry of minimal valuation; the block's V is composed into the
   outer one.

Smith exponents truncate: reduced mod p^k (k <= K), the form over
Z/p^K is the form over Z/p^k with exponents min(e, k) and the same V.
So one elimination at the largest power of a prime serves every Z/p^k
(`KernelData.truncate`).  The dense int64 arithmetic is exact because
the modulus stays below 2^15: products stay below 2^30 and sums of up
to 2^33 of them fit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_MAX_MODULUS = 1 << 15  # keeps int64 products exact


class ResourceLimitError(ValueError):
    """A valid request beyond a capability or size limit of the program."""


def _check_modulus(m):
    if m >= _MAX_MODULUS:
        raise ResourceLimitError(f"modulus {m} too large for the int64 fast path")


def local_smith(A, p, k):
    """Column side of the Smith form of A over Z/p^k: (exps, V, Vinv).

    A is a 2-D integer array; it is read, never written or copied whole,
    and need not be reduced mod p^k.  exps has min(rows, cols) entries,
    ascending: exps[i] is the valuation of the i-th diagonal entry, k
    for a zero one.  V is invertible mod p^k with inverse Vinv; column i
    of A @ V is divisible by p^exps[i] and the columns past
    min(rows, cols) are 0 mod p^k.  Unit pivots are taken sparsely, the
    rest densely (see the module docstring).
    """
    m = p**k
    _check_modulus(m)
    nrows, ncols = A.shape
    V = np.eye(ncols, dtype=np.int64)
    Vinv = np.eye(ncols, dtype=np.int64)

    rows = {}                                # row -> {col: entry in [1, m)}
    col_rows = [set() for _ in range(ncols)]   # rows with an entry
    col_units = [set() for _ in range(ncols)]  # rows with a unit entry
    r_idx, c_idx = np.nonzero(A)
    for r, c, a in zip(r_idx.tolist(), c_idx.tolist(), (A[r_idx, c_idx] % m).tolist()):
        if a:
            rows.setdefault(r, {})[c] = a
            col_rows[c].add(r)
            if a % p:
                col_units[c].add(r)

    active = set(range(ncols))
    order = []  # pivot columns in Smith order
    while True:
        best = min(((len(col_rows[j]), j) for j in active if col_units[j]), default=None)
        if best is None:
            break
        c = best[1]
        r = min(col_units[c], key=lambda s: (len(rows[s]), s))
        prow = rows.pop(r)
        for j in prow:
            col_rows[j].discard(r)
            col_units[j].discard(r)
        uinv = pow(prow.pop(c), -1, m)
        # clear column c with row operations
        for s in col_rows[c]:
            row = rows[s]
            f = row.pop(c) * uinv % m
            for j, a in prow.items():
                x = (row.get(j, 0) - f * a) % m
                if x:
                    row[j] = x
                    col_rows[j].add(s)
                    if x % p:
                        col_units[j].add(s)
                    else:
                        col_units[j].discard(s)
                elif j in row:
                    del row[j]
                    col_rows[j].discard(s)
                    col_units[j].discard(s)
        col_rows[c] = col_units[c] = None  # inactive
        active.discard(c)
        order.append(c)
        # clear row r with column operations: column c now holds only
        # (r, c), so of the matrix only row r changes
        if prow:
            others = list(prow)
            g = np.array([a * uinv % m for a in prow.values()], dtype=np.int64)
            V[:, others] = (V[:, others] - np.outer(V[:, c], g)) % m
            Vinv[c] = (Vinv[c] + g @ Vinv[others]) % m

    exps = [0] * len(order)
    res_cols = sorted(active)
    res_rows = [row for _, row in sorted(rows.items()) if row]
    if res_rows and res_cols:
        pos = {j: i for i, j in enumerate(res_cols)}
        D = np.zeros((len(res_rows), len(res_cols)), dtype=np.int64)
        for i, row in enumerate(res_rows):
            for j, a in row.items():
                D[i, pos[j]] = a
        res_exps, Vr, Vr_inv = _dense_smith(D, p, k)
        V[:, res_cols] = (V[:, res_cols] @ Vr) % m
        Vinv[res_cols] = (Vr_inv @ Vinv[res_cols]) % m
        exps += res_exps
    order += res_cols
    exps += [k] * (min(nrows, ncols) - len(exps))
    return exps, V[:, order], Vinv[order]


def _dense_smith(D, p, k):
    """Smith form of the dense block D (reduced mod p^k, overwritten) by
    minimal-valuation pivots: (exps, V, Vinv) as in `local_smith`."""
    m = p**k
    rows, cols = D.shape
    V = np.eye(cols, dtype=np.int64)
    Vinv = np.eye(cols, dtype=np.int64)

    pe_table = [p**e for e in range(k + 1)]

    def find_pivot(t):
        sub = D[t:, t:]
        if sub.size == 0 or not sub.any():
            return None
        for e in range(k):
            mask = sub % pe_table[e + 1] != 0
            if mask.any():
                i, j = np.argwhere(mask)[0]
                return t + int(i), t + int(j), e
        return None

    t = 0
    exps = []
    while t < min(rows, cols):
        piv = find_pivot(t)
        if piv is None:
            break
        i, j, e = piv
        if i != t:
            D[[t, i]] = D[[i, t]]
        if j != t:
            D[:, [t, j]] = D[:, [j, t]]
            V[:, [t, j]] = V[:, [j, t]]
            Vinv[[t, j]] = Vinv[[j, t]]
        pe = pe_table[e]
        winv = pow(int(D[t, t]) // pe, -1, m)
        D[t] = (D[t] * winv) % m
        # clear the pivot column with row operations (valuations are >= e),
        # touching only the rows that actually carry an entry
        f = D[:, t] // pe
        f[t] = 0
        nz = np.nonzero(f)[0]
        if nz.size:
            D[nz] = (D[nz] - np.outer(f[nz], D[t])) % m
        # clear the pivot row with column operations: column t now holds
        # only (t, t) = p^e, so of D only row t changes, and it becomes p^e e_t
        g = D[t] // pe
        g[t] = 0
        nzc = np.nonzero(g)[0]
        if nzc.size:
            D[t, nzc] = 0
            V[:, nzc] = (V[:, nzc] - np.outer(V[:, t], g[nzc])) % m
            Vinv[t] = (Vinv[t] + g[nzc] @ Vinv[nzc]) % m
        exps.append(e)
        t += 1

    exps += [k] * (min(rows, cols) - len(exps))
    return exps, V, Vinv


@dataclass
class KernelData:
    """Solution module of A x = 0 over Z/p^k.

    gens[i] has additive order p^orders[i]; together they generate the
    kernel.  col_exps / V / Vinv retain the change of basis needed to
    rewrite kernel vectors in terms of the generators.
    """

    gens: np.ndarray       # shape (s, ncols)
    orders: list           # exponent of p per generator
    col_exps: list         # constraint exponent per V-column
    V: np.ndarray
    Vinv: np.ndarray
    p: int
    k: int

    def truncate(self, k):
        """The kernel of the same matrix over Z/p^k, for k <= self.k."""
        if k == self.k:
            return self
        m = self.p**k
        return _kernel_data([min(e, k) for e in self.col_exps], self.V % m, self.Vinv % m, self.p, k)


def _kernel_data(col_exps, V, Vinv, p, k):
    # column i of V spans the constraint p^col_exps[i]; p^(k - e) times it
    # is a kernel generator of order p^e
    live = [i for i, e in enumerate(col_exps) if e]
    scale = np.array([p ** (k - col_exps[i]) for i in live], dtype=np.int64)
    gens = np.ascontiguousarray((V[:, live] * scale).T % p**k)
    return KernelData(gens, [col_exps[i] for i in live], col_exps, V, Vinv, p, k)


def kernel_mod_pk(A, p, k):
    """Kernel of the integer matrix A over Z/p^k (A need not be reduced)."""
    A = np.atleast_2d(np.asarray(A, dtype=np.int64))
    cols = A.shape[1]
    exps, V, Vinv = local_smith(A, p, k)
    return _kernel_data(exps + [k] * (cols - len(exps)), V, Vinv, p, k)


def kernel_coordinates(kd, vec):
    """Write a kernel vector as sum c_i * gens[i]; c_i taken mod p^orders[i]."""
    p, k = kd.p, kd.k
    m = p**k
    y = (kd.Vinv @ (np.array(vec, dtype=np.int64) % m)) % m
    coeffs = []
    for i, e in enumerate(kd.col_exps):
        step = p ** (k - e)
        if int(y[i]) % step != 0:
            raise ValueError("vector is not in the kernel")
        if e == 0:
            continue
        coeffs.append((int(y[i]) // step) % (p**e))
    return coeffs


def quotient_mod_pk(kd, b_rows, p, k):
    """Invariant factors and representatives of kernel / <b_rows>.

    b_rows must be kernel vectors.  Returns (orders, reps) where orders
    are the nontrivial cyclic orders p^f and reps[i] is a vector in the
    ambient (Z/p^k)^n generating that summand modulo the b-span.
    """
    m = p**k
    s = len(kd.orders)
    if s == 0:
        return [], []
    rel = []
    for i, e in enumerate(kd.orders):
        if e < k:
            row = [0] * s
            row[i] = p**e
            rel.append(row)
    for b in b_rows:
        rel.append(kernel_coordinates(kd, b))
    rel = np.array(rel, dtype=np.int64) % m if rel else np.zeros((0, s), dtype=np.int64)
    exps, V, Vinv = local_smith(rel, p, k)
    orders = []
    reps = []
    for j in range(s):
        f = exps[j] if j < len(exps) else k
        if f == 0:
            continue
        coeffs = V[:, j]
        vec = (coeffs @ kd.gens) % m
        orders.append(p**f)
        reps.append(vec)
    return orders, reps


def solve_mod_pk(A, b, p, k):
    """One solution of A x = b over Z/p^k, or None.

    (x, 1) spans the kernel of [A | -b] together with the generators, so
    a solution exists iff some kernel generator y has a unit last
    coordinate c; then x = y[:-1] / c.
    """
    m = p**k
    A = np.atleast_2d(np.array(A, dtype=np.int64)) % m
    b = np.array(b, dtype=np.int64) % m
    kd = kernel_mod_pk(np.column_stack([A, -b % m]), p, k)
    for y in kd.gens:
        c = int(y[-1])
        if c % p:
            x = (y[:-1] * pow(c, -1, m)) % m
            assert not ((A @ x) % m != b).any()
            return x
    return None


def factorize(m):
    """Prime-power factorisation [(p, k), ...] of m >= 2."""
    parts = []
    n = m
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            parts.append((d, e))
        d += 1
    if n > 1:
        parts.append((n, 1))
    return parts


def solve_mod_m(A, b, m):
    """One solution of A x = b over Z/m (m >= 1) by prime-power CRT."""
    A = np.atleast_2d(np.array(A, dtype=np.int64))
    if m == 1:
        return [0] * A.shape[1]
    sols = []
    for p, kk in factorize(m):
        x = solve_mod_pk(A, b, p, kk)
        if x is None:
            return None
        sols.append((p**kk, x))
    cols = A.shape[1]
    out = []
    for j in range(cols):
        x, mod = 0, 1
        for q, vec in sols:
            t = ((int(vec[j]) - x) * pow(mod, -1, q)) % q
            x += mod * t
            mod *= q
        out.append(x % m)
    return out
