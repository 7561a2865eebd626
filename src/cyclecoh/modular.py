"""Vectorised exact linear algebra over Z/p^k.

The cochain computations with finite cyclic coefficients reduce to
kernels and subquotients of integer matrices mod a prime power.  Over
the chain ring Z/p^k every matrix has a diagonal Smith form diag(p^e_i)
reachable by picking a minimal-valuation pivot, so the whole pipeline
runs on int64 numpy arrays (entries stay below m^2 + m, far from
overflow for the moduli we use).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_MAX_MODULUS = 1 << 15  # keeps int64 products exact


def _check_modulus(m):
    if m >= _MAX_MODULUS:
        raise ValueError(f"modulus {m} too large for the int64 fast path")


def local_smith(A, p, k, track_u=True):
    """Diagonalise A over Z/p^k: U @ A @ V = diag(p^exps) mod p^k.

    Returns (exps, U, V, Vinv) where exps[i] is the valuation of the
    i-th diagonal entry (k for a zero entry), ordered ascending, and
    U, V are invertible mod p^k with Vinv = V^{-1}.  Kernel-style
    computations only need the column side; track_u=False skips the
    (rows x rows) bookkeeping and returns U = None.
    """
    m = p**k
    _check_modulus(m)
    D = np.array(A, dtype=np.int64) % m
    rows, cols = D.shape
    U = np.eye(rows, dtype=np.int64) if track_u else None
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
            if track_u:
                U[[t, i]] = U[[i, t]]
        if j != t:
            D[:, [t, j]] = D[:, [j, t]]
            V[:, [t, j]] = V[:, [j, t]]
            Vinv[[t, j]] = Vinv[[j, t]]
        pe = pe_table[e]
        unit = int(D[t, t]) // pe
        winv = pow(unit, -1, m)
        D[t] = (D[t] * winv) % m
        if track_u:
            U[t] = (U[t] * winv) % m
        # clear the pivot column with row operations (valuations are >= e),
        # touching only the rows that actually carry an entry
        f = D[:, t] // pe
        f[t] = 0
        nz = np.nonzero(f)[0]
        if nz.size:
            D[nz] = (D[nz] - np.outer(f[nz], D[t])) % m
            if track_u:
                U[nz] = (U[nz] - np.outer(f[nz], U[t])) % m
        # clear the pivot row with column operations
        g = D[t, :] // pe
        g[t] = 0
        nzc = np.nonzero(g)[0]
        if nzc.size:
            D[:, nzc] = (D[:, nzc] - np.outer(D[:, t], g[nzc])) % m
            V[:, nzc] = (V[:, nzc] - np.outer(V[:, t], g[nzc])) % m
            Vinv[t, :] = (Vinv[t, :] + g @ Vinv) % m
        exps.append(e)
        t += 1

    # remaining diagonal is zero
    while len(exps) < min(rows, cols):
        exps.append(k)
    return exps, U, V, Vinv


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


def kernel_mod_pk(A, p, k):
    m = p**k
    A = np.atleast_2d(np.array(A, dtype=np.int64)) % m
    rows, cols = A.shape
    if cols == 0:
        return KernelData(np.zeros((0, 0), dtype=np.int64), [], [], np.zeros((0, 0), dtype=np.int64), np.zeros((0, 0), dtype=np.int64), p, k)
    exps, U, V, Vinv = local_smith(A, p, k, track_u=False)
    col_exps = []
    for i in range(cols):
        col_exps.append(exps[i] if i < len(exps) else k)
    gens = []
    orders = []
    for i in range(cols):
        e = col_exps[i]
        if e == 0:
            continue
        gens.append((p ** (k - e) * V[:, i]) % m)
        orders.append(e)
    gens = np.array(gens, dtype=np.int64) if gens else np.zeros((0, cols), dtype=np.int64)
    return KernelData(gens, orders, col_exps, V, Vinv, p, k)


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
    exps, U, V, Vinv = local_smith(rel, p, k, track_u=False)
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
    """One solution of A x = b over Z/p^k, or None."""
    m = p**k
    A = np.atleast_2d(np.array(A, dtype=np.int64)) % m
    rows, cols = A.shape
    b = np.array(b, dtype=np.int64) % m
    exps, U, V, Vinv = local_smith(A, p, k)
    c = (U @ b) % m
    y = np.zeros(cols, dtype=np.int64)
    for i in range(rows):
        ci = int(c[i])
        e = exps[i] if i < min(rows, cols) else k
        if e >= k:
            if ci != 0:
                return None
        else:
            pe = p**e
            if ci % pe != 0:
                return None
            y[i] = ci // pe
    x = (V @ y) % m
    assert not ((A @ x) % m != b).any()
    return x


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
