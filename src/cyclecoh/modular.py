"""Exact linear algebra over Z/p^k: one Smith elimination engine.

The cochain computations with finite cyclic coefficients reduce to
kernels and subquotients of integer matrices mod a prime power.  Over
the chain ring Z/p^k every matrix A has a Smith form

    U @ A @ V = diag(p^e_0, p^e_1, ...)  (mod p^k),   e ascending,

and only its column side is ever needed: the exponents, V and V^{-1}
give the kernel of A and the change of basis into it.  `local_smith`
reaches it by sparse rounds of pivots at the least valuation left
(Dumas, Saunders and Villard, "On efficient sparse integer matrix Smith
normal forms", J. Symb. Comput. 32, 2001).

The nonzero entries are kept as numpy arrays: row-major keys
row * cols + col and values in [1, p^k).  A round first finds e, the
least valuation among them, so that every entry is divisible by p^e;
the entries of valuation exactly e are its units.  It counts the
entries of every row and column (`np.bincount`).  Every active column
that holds a unit offers its unit row with the fewest entries; the
offers are visited by column count and accepted while the block D of
the accepted pivots stays diagonal (ties go to the lower index
throughout).  With P the pivot columns, N the other active columns,
A12 the pivot rows on N and G = (D / p^e)^{-1} (A12 / p^e), the column
operations V[:, N] -= V[:, P] G and V^{-1}[P] += G V^{-1}[N] clear the
pivot rows, and row operations, which V does not see, turn the other
rows into the Schur complement A22 - A21 G: A22 and the terms of A21 G
(`_product_terms`, as for `IntegerMatrix` products) are sorted, summed
and reduced mod p^k once per round.  G is defined mod p^(k - e) only,
but A21 is divisible by p^e, so the Schur complement is exact mod p^k
for any lift of G.  It stays divisible by p^e, so e never decreases and
the pivots come in Smith order; the rounds stop when no entry is left.
The condition matrices are very sparse and nearly all of their pivots
are units: at v = 16 the 434 unit pivots of the largest, 10350 x 450,
take 8 rounds.

Smith exponents truncate: reduced mod p^k (k <= K), the form over
Z/p^K is the form over Z/p^k with exponents min(e, k) and the same V.
So one elimination at the largest power of a prime serves every Z/p^k
(`KernelData.truncate`).  The int64 arithmetic is exact because the
modulus stays below 2^15 (`_MAX_MODULUS`): every value is below 2^15,
every product of two below 2^30, and each sum has at most cols + 1
terms (an entry of a Schur complement sums one term per pivot of the
round and one more; an entry of V or V^{-1} at most one per column), so
it stays below 2^62 while cols < 2^32.  V and V^{-1} hold only values
below 2^15, so the rounds keep them in int32 and widen each product to
int64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# values below 2^15 have products below 2^30, and a sum of at most
# cols + 1 <= 2^32 of them (pivots per round + 1, or one per column)
# stays below 2^62 in int64
_MAX_MODULUS = 1 << 15

# int64 arrays of an `IntegerMatrix` hold entries of absolute value below
# this; any larger entry makes the whole matrix hold Python ints
_INT64_BOUND = 2**62


def _abs_max(values):
    return int(np.abs(values).max()) if len(values) else 0


class ResourceLimitError(ValueError):
    """A valid request beyond a capability or size limit of the program."""


def _check_modulus(m):
    if m >= _MAX_MODULUS:
        raise ResourceLimitError(f"modulus {m} too large for the int64 fast path")


def local_smith(A, p, k):
    """Column side of the Smith form of A over Z/p^k: (exps, V, Vinv).

    A is an `IntegerMatrix` or a 2-D integer array; it is read, never
    written, and need not be reduced mod p^k.  Only its nonzero entries
    are read: the canonical COO arrays of an `IntegerMatrix`, or those
    one `np.nonzero` finds in an array.  exps has min(rows, cols)
    entries, ascending: exps[i] is the valuation of the i-th diagonal
    entry, k for a zero one.  V is invertible mod p^k with inverse Vinv;
    column i of A @ V is divisible by p^exps[i] and the columns past
    min(rows, cols) are 0 mod p^k.  The pivots are taken in sparse
    rounds, each at the least valuation left (see the module docstring).
    """
    m = p**k
    _check_modulus(m)
    nrows, ncols = A.shape
    if isinstance(A, np.ndarray):
        r, c = np.nonzero(A)
        a = A[r, c]
    else:
        r, c, a = A.row_idx, A.col_idx, A.values
    # the entries are kept as row-major keys r * ncols + c and values in [1, m)
    a = (a % m).astype(np.int64)
    live = a != 0
    key, a = r[live] * ncols + c[live], a[live]
    del r, c, live
    # W is V transposed, so that V's column operations are row operations;
    # W and Vinv hold values below m < 2^15 in int32, widened for each update
    W = np.eye(ncols, dtype=np.int32)
    Vinv = np.eye(ncols, dtype=np.int32)
    active = np.ones(ncols, dtype=bool)
    order = []  # pivot columns in Smith order
    exps = []
    e = 0
    while len(a):
        # every entry left is divisible by p^e; some entry is not by p^(e + 1)
        while not (a % p ** (e + 1)).any():
            e += 1
        pr, pc = _unit_pivots(key, a, p ** (e + 1), nrows, ncols)
        key, a, (gt, gj, gv) = _pivot_round(key, a, pr, pc, p**e, m, nrows, ncols)
        _add_rows(W, gj, pc[gt], m - gv, m)  # V[:, N] -= V[:, P] G
        _add_rows(Vinv, pc[gt], gj, gv, m)   # Vinv[P] += G Vinv[N]
        active[pc] = False
        order += pc.tolist()
        exps += [e] * len(pc)
    order += np.flatnonzero(active).tolist()
    exps += [k] * (min(nrows, ncols) - len(exps))
    # one permuted copy at a time
    W = W[order].astype(np.int64)
    Vinv = Vinv[order].astype(np.int64)
    return exps, W.T, Vinv


def _unit_pivots(key, a, q, nrows, ncols):
    """One round's pivots (pr, pc): entries not divisible by q whose block
    A[pr][:, pc] is diagonal.

    q is p^(e + 1), where every entry is divisible by p^e, so the entries
    q does not divide are those of least valuation, the "units" of the
    round.  Every column holding a unit offers its unit row with the
    fewest entries (ties by index); the offers are visited by column
    count (ties by index), and one is accepted when its row meets no
    accepted column (so it is not an accepted row either) and its column
    meets no accepted row."""
    r, c = np.divmod(key, ncols)
    unit = a % q != 0
    ur = r[unit]
    row_n = np.bincount(r, minlength=nrows)
    col_n = np.bincount(c, minlength=ncols)
    # per column the least (row count, row) of a unit, as one number
    best = np.full(ncols, (ncols + 1) * nrows, dtype=np.int64)
    np.minimum.at(best, c[unit], row_n[ur] * nrows + ur)
    uc = np.flatnonzero(best < (ncols + 1) * nrows)
    ur = best[uc] % nrows
    row_ptr = np.searchsorted(r, np.arange(nrows + 1))  # r is row-major
    pivot = np.zeros(ncols, dtype=bool)  # accepted columns
    met = np.zeros(ncols, dtype=bool)    # columns meeting an accepted row
    visit = np.lexsort((uc, col_n[uc]))
    pr, pc = [], []
    for s, j in zip(ur[visit].tolist(), uc[visit].tolist()):
        row = c[row_ptr[s] : row_ptr[s + 1]]
        if met[j] or pivot[row].any():
            continue
        pr.append(s)
        pc.append(j)
        pivot[j] = True
        met[row] = True
    return np.array(pr, dtype=np.int64), np.array(pc, dtype=np.int64)


def _pivot_round(key, a, pr, pc, pe, m, nrows, ncols):
    """Eliminate the pivots (pr[t], pc[t]), whose block D is diagonal,
    where every entry is divisible by pe = p^e and D / pe is a unit.

    With A12 the pivot rows off the pivot columns, A21 the pivot columns
    off the pivot rows and A22 the rest, returns the Schur complement
    A22 - A21 G as sorted keys and values reduced mod m, and
    G = (D / pe)^-1 (A12 / pe) as entries (pivot t, column j, value g)
    sorted by t.  G is defined mod m / pe only, but A21 is divisible by
    pe, so A21 G is exact mod m for the lift taken, and D G = A12."""
    q = len(pr)
    t_row = np.full(nrows, -1)
    t_row[pr] = np.arange(q)
    t_col = np.full(ncols, -1)
    t_col[pc] = np.arange(q)
    r, c = np.divmod(key, ncols)
    in_row, in_col = t_row[r] >= 0, t_col[c] >= 0
    diag = in_row & in_col
    uinv = np.empty(q, dtype=np.int64)
    uinv[t_row[r[diag]]] = [pow(u // pe, -1, m) for u in a[diag].tolist()]
    in12 = in_row & ~in_col
    gt = t_row[r[in12]]
    by_t = np.argsort(gt, kind="stable")
    gt, gj = gt[by_t], c[in12][by_t]
    gv = a[in12][by_t] // pe * uinv[gt] % m
    in21 = in_col & ~in_row
    left = (r[in21], t_col[c[in21]], a[in21])
    rest = ~(in_row | in_col)
    # each temporary goes before the next is built: the round's peak is
    # a few arrays the length of its entries
    del r, c, in_row, in_col
    # the terms of A21 G (A21's column is the pivot t), negated, with A22
    terms_key, terms = _product_terms(left, (gt, gj, gv), q, ncols)
    key = np.concatenate((key[rest], terms_key))
    a = np.concatenate((a[rest], -terms))
    del left, rest, terms_key, terms
    by_key = np.argsort(key, kind="stable")
    key = key[by_key]
    a = a[by_key]
    del by_key
    firsts = _run_starts(key)
    if len(a):
        a = np.add.reduceat(a, firsts) % m
    live = a != 0
    return key[firsts][live], a[live], (gt, gj, gv)


def _add_rows(M, targets, sources, coeffs, m):
    """M[t] = (M[t] + g M[s]) mod m for every (t, s, g), the terms of a
    target summed; no target is a source."""
    if not len(targets):
        return
    by_t = np.argsort(targets, kind="stable")
    t = targets[by_t]
    firsts = _run_starts(t)
    sums = np.add.reduceat(M[sources[by_t]] * coeffs[by_t, None], firsts, axis=0)
    M[t[firsts]] = (M[t[firsts]] + sums) % m


def _run_starts(x):
    """The positions in x where a run of equal entries starts."""
    new = np.ones(len(x), dtype=bool)
    new[1:] = x[1:] != x[:-1]
    return np.flatnonzero(new)


def _product_fits_int64(rows, values, other_values):
    """max_i sum_k |A_ik| * max |B| < 2^62, evaluated exactly, for the
    left entries (rows, values), row-major, and the right entries
    other_values: it holds every entry of the product, and every partial
    sum of the terms of an entry, below 2^62."""
    if values.dtype == object or other_values.dtype == object:
        return False
    if not len(values):
        return True
    absv = np.abs(values)
    if int(absv.max()) * len(absv) >= 2**63:
        absv = absv.astype(object)  # the int64 row sums could wrap
    row_sum = int(np.add.reduceat(absv, _run_starts(rows)).max())
    return row_sum * _abs_max(other_values) < _INT64_BOUND


def _product_terms(left, right, right_rows, cols, inner=1):
    """The terms of left @ (right (x) I_inner), unsorted, as keys row *
    cols + col and values, int64 if `_product_fits_int64`, else Python
    ints.  left and right are row-major (row, col, value) arrays.

    There is one term per pair (left entry (i, j), entry of row j of
    right (x) I_inner); that row is row k = j // inner of right, whose
    entries are ptr[k]:ptr[k + 1], each column moved to col * inner +
    j % inner."""
    (i, j, a), (right_row_idx, right_col_idx, b) = left, right
    ptr = np.searchsorted(right_row_idx, np.arange(right_rows + 1))
    k = j if inner == 1 else j // inner
    c = ptr[k + 1] - ptr[k]
    # the entries of left that meet an empty row of right are dropped
    meet = c > 0
    i, k, a, c = i[meet], k[meet], a[meet], c[meet]
    first_term = np.cumsum(c) - c
    idx = np.arange(int(c.sum())) + np.repeat(ptr[k] - first_term, c)
    dtype = np.int64 if _product_fits_int64(i, a, b) else object
    terms = np.repeat(a.astype(dtype, copy=False), c)
    terms *= b[idx].astype(dtype, copy=False)
    # each term's key, built without a row array
    key = right_col_idx[idx]
    del idx
    if inner > 1:
        key *= inner
        key += np.repeat(j[meet] % inner, c)
    key += np.repeat(i * cols, c)
    return key, terms


@dataclass
class KernelData:
    """Solution module of A x = 0 over Z/p^k.

    gens[i] has additive order p^orders[i]; together they generate the
    kernel.  col_exps / V / Vinv retain the change of basis needed to
    rewrite kernel vectors in terms of the generators.  A truncation
    shares V and Vinv with the kernel it came from: reduced mod p^K they
    are inverse mod every p^k with k <= K.
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
        return _kernel_data([min(e, k) for e in self.col_exps], self.V, self.Vinv, self.p, k)


def _kernel_data(col_exps, V, Vinv, p, k):
    # column i of V spans the constraint p^col_exps[i]; p^(k - e) times it
    # is a kernel generator of order p^e
    live = [i for i, e in enumerate(col_exps) if e]
    scale = np.array([p ** (k - col_exps[i]) for i in live], dtype=np.int64)
    gens = np.ascontiguousarray((V[:, live] * scale).T % p**k)
    return KernelData(gens, [col_exps[i] for i in live], col_exps, V, Vinv, p, k)


def kernel_mod_pk(A, p, k):
    """Kernel over Z/p^k of A, an `IntegerMatrix` or a 2-D integer array
    (need not be reduced)."""
    cols = A.shape[1]
    exps, V, Vinv = local_smith(A, p, k)
    return _kernel_data(exps + [k] * (cols - len(exps)), V, Vinv, p, k)


def kernel_coordinates(kd, vecs):
    """Write kernel vectors, the rows of `vecs`, as sums c_i * gens[i] with
    c_i taken mod p^orders[i]; row j of the result holds those of row j.

    One product Vinv @ vecs^T gives every row's coordinates in the basis
    V; coordinate i is divisible by p^(k - col_exps[i]) exactly for
    kernel vectors, and the quotient is c_i.

    The product runs in float64 and is exact: Vinv's entries lie below
    the modulus it was eliminated at, so below `_MAX_MODULUS` = 2^15,
    as do the reduced vectors' entries, and each of the n = len(col_exps)
    terms of an entry is below 2^30; the sum stays below 2^53 while
    n < 2^23, which any n x n Vinv that fits in memory satisfies."""
    p, k = kd.p, kd.k
    m = p**k
    vecs = np.asarray(vecs, dtype=np.int64).reshape(len(vecs), len(kd.col_exps)) % m
    y = (kd.Vinv.astype(np.float64) @ vecs.T.astype(np.float64)).astype(np.int64) % m
    exps = np.array(kd.col_exps, dtype=np.int64).reshape(-1, 1)
    step = p ** (k - exps)
    if (y % step).any():
        raise ValueError("vector is not in the kernel")
    live = exps[:, 0] > 0
    return ((y[live] // step[live]) % p ** exps[live]).T


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
    # p^e gens[i] = 0 for the generators of order p^e < p^k, then the b_rows
    e = np.array(kd.orders, dtype=np.int64)
    rel = np.vstack((np.diag(p**e)[e < k], kernel_coordinates(kd, b_rows)))
    # U rel V = D: the coordinates y = c V carry rowspan(rel) onto
    # rowspan(D), so the quotient splits into the Z/p^f_j, and summand j
    # is generated by c = e_j V^{-1}, row j of Vinv
    exps, _, Vinv = local_smith(rel, p, k)
    orders = []
    reps = []
    for j in range(s):
        f = exps[j] if j < len(exps) else k
        if f == 0:
            continue
        vec = (Vinv[j] @ kd.gens) % m
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


# the largest trial divisor of `factorize`: every m below 2^40 is
# factored completely by the divisors up to it
_TRIAL_BOUND = 1 << 20


def factorize(m):
    """Prime-power factorisation [(p, k), ...] of m >= 2 by trial division,
    which stops at _TRIAL_BOUND: a cofactor with no divisor up to it that
    is still above its square, so not known to be prime, is a resource
    limit."""
    parts = []
    n = m
    d = 2
    while d * d <= n:
        if d > _TRIAL_BOUND:
            raise ResourceLimitError(f"factoring {m} needs trial divisors above {_TRIAL_BOUND}")
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

