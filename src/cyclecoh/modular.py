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
entries of every row and column.  Every active column
that holds a unit offers its unit row with the fewest entries; the
offers are visited by column count and accepted while the block D of
the accepted pivots stays diagonal (ties go to the lower index
throughout).  With P the pivot columns, N the other active columns,
A12 the pivot rows on N and G = (D / p^e)^{-1} (A12 / p^e), the column
operations V[:, N] -= V[:, P] G and V^{-1}[P] += G V^{-1}[N] clear the
pivot rows, and row operations, which V does not see, turn the other
rows into the Schur complement A22 - A21 G: A22 and the terms of A21 G
(`_product_terms`, as for `IntegerMatrix` products), each packed into
one int64 as key * p^k + value mod p^k, are sorted in place, summed and
reduced mod p^k once per round.  G is defined mod p^(k - e) only,
but A21 is divisible by p^e, so the Schur complement is exact mod p^k
for any lift of G.  It stays divisible by p^e, so e never decreases and
the pivots come in Smith order; the rounds stop when no entry of A is
left.  The condition matrices are very sparse and nearly all of their
pivots are units: at v = 16 the 434 unit pivots of the whole degree-2
condition matrix of the full route, 10350 x 450, take 8 rounds.

V and V^{-1} are as sparse as A, and neither needs arithmetic of its
own.  A row x of V, starting as a row of I, takes V[x, N] -= V[x, P] G,
the update of a Schur complement row that is never a pivot: so V's rows
ride below A's in the rounds' entries, through the same sort, but out
of the counts, the offers and the valuation scan, and the entries they
hold in a round's pivot columns are finished columns of V, read off
there.  The rows V^{-1}[N] that a round adds to V^{-1}[P] belong to
columns never pivoted, so they are still rows of I: V^{-1} is I plus
the G of every round.  At v = 16 the V of that matrix mod 8 holds 3533
entries and V^{-1} 1141, of 202500.

Smith exponents truncate: reduced mod p^k (k <= K), the form over
Z/p^K is the form over Z/p^k with exponents min(e, k) and the same V.
So one elimination at the largest power of a prime serves every Z/p^k
(`KernelData.truncate`).  The int64 arithmetic is exact because the
modulus stays below 2^15 (`_MAX_MODULUS`): every value is below 2^15,
every product of two below 2^30, and each sum has at most cols + 1
terms, so it stays below 2^62 while cols < 2^32: in a round an entry of
a Schur complement, one of V's included, sums one term per pivot of the
round and one more, and an entry of V^{-1} sums none, as it is written
once; an entry of V^{-1} @ x in `kernel_coordinates` sums one term per
column.  A packed entry is below (rows + cols) * cols * p^k, which
`local_smith` requires to be below 2^63.
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
    min(rows, cols) are 0 mod p^k.  V and Vinv are cols x cols and
    sparse, each a pair (keys, values) of int64 arrays: ascending
    row-major keys row * cols + col and values in [1, p^k).  The pivots
    are taken in sparse rounds, each at the least valuation left (see
    the module docstring).
    """
    m = p**k
    _check_modulus(m)
    nrows, ncols = A.shape
    # the rounds pack an entry of A or V as key * m + value (`_packed`)
    if (nrows + ncols) * ncols * m >= 2**63:
        raise ResourceLimitError(f"a {nrows} x {ncols} matrix mod {m} is too large for int64 keys")
    if isinstance(A, np.ndarray):
        r, c = np.nonzero(A)
        a = A[r, c]
    else:
        r, c, a = A.row_idx, A.col_idx, A.values
    # the rounds run on A stacked over V = I: row nrows + x is row x of V,
    # which takes the Schur updates of a row that is never a pivot; the
    # keys are row-major, so A's entries are the first n_a
    a = (a % m).astype(np.int64, copy=False)
    live = a != 0
    diag = np.arange(ncols)
    key = np.concatenate((r[live] * ncols + c[live], (nrows + diag) * ncols + diag))
    a = np.concatenate((a[live], np.ones(ncols, dtype=np.int64)))
    del r, c, live
    n_a = len(a) - ncols
    active = np.ones(ncols, dtype=bool)
    done = []   # V's columns as they are finished, as (row, column, value)
    G = []      # every round's G, as (row, column, value)
    order = []  # pivot columns in Smith order
    exps = []
    e = 0
    while n_a:
        # every entry of A is divisible by p^e; some entry is not by p^(e + 1)
        while not (a[:n_a] % p ** (e + 1)).any():
            e += 1
        pr, pc = _unit_pivots(key[:n_a], a[:n_a], p ** (e + 1), nrows, ncols)
        # V's entries in the pivot columns are final: the round only reads them
        active[pc] = False
        x, j = np.divmod(key[n_a:] - nrows * ncols, ncols)
        final = ~active[j]
        done.append((x[final], j[final], a[n_a:][final]))
        packed, (gt, gj, gv) = _pivot_round(key, a, pr, pc, p**e, m, nrows + ncols, ncols)
        # the round's input goes before its entries are summed
        del key, a
        key, a = _summed_mod(packed, m)
        del packed
        n_a = int(np.searchsorted(key, nrows * ncols))
        G.append((pc[gt], gj, gv))
        order += pc.tolist()
        exps += [e] * len(pc)
    # the columns that took no pivot follow, in order; V's entries left
    # are theirs, and Vinv is I plus every G
    order += np.flatnonzero(active).tolist()
    exps += [k] * (min(nrows, ncols) - len(exps))
    done.append((*np.divmod(key - nrows * ncols, ncols), a))
    G.append((diag, diag, np.ones(ncols, dtype=np.int64)))
    # V's columns and Vinv's rows go to their places in the Smith order;
    # no position comes twice, and no value is 0
    place = np.empty(ncols, dtype=np.int64)
    place[order] = diag
    x, j, v = (np.concatenate(part) for part in zip(*done))
    V = _unpacked(_packed(x * ncols + place[j], v, m), m)
    x, j, v = (np.concatenate(part) for part in zip(*G))
    Vinv = _unpacked(_packed(place[x] * ncols + j, v, m), m)
    return exps, V, Vinv


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
    c = key % ncols
    unit = a % q != 0
    row_ptr = np.searchsorted(key, np.arange(nrows + 1) * ncols)  # key is row-major
    col_n = np.bincount(c, minlength=ncols)
    # per column the least (row count, row) of a unit, as one number
    rank = np.diff(row_ptr) * nrows + np.arange(nrows)
    best = np.full(ncols, (ncols + 1) * nrows, dtype=np.int64)
    np.minimum.at(best, c[unit], rank[key[unit] // ncols])
    del unit, rank
    uc = np.flatnonzero(best < (ncols + 1) * nrows)
    ur = best[uc] % nrows
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
    off the pivot rows and A22 the rest, returns the entries of the Schur
    complement A22 - A21 G, those of A22 and the terms of A21 G negated,
    in `_packed` form for `_summed_mod`, and G = (D / pe)^-1 (A12 / pe)
    as entries (pivot t, column j, value g) sorted by t.  G is defined
    mod m / pe only, but A21 is divisible by pe, so A21 G is exact mod m
    for the lift taken, and D G = A12."""
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
    # the terms of A21 G (A21's column is the pivot t), negated, and A22,
    # in `_packed` form
    key21, terms = _product_terms(left, (gt, gj, gv), q, ncols)
    del left
    terms = _packed(key21, np.negative(terms, out=terms), m)
    del key21
    return np.concatenate((_packed(key[rest], a[rest], m), terms)), (gt, gj, gv)


def _packed(key, values, m):
    """The entries as one int64 array, key * m + (value mod m), written over
    key; values are reduced in place."""
    key *= m
    key += np.remainder(values, m, out=values)
    return key


def _unpacked(packed, m):
    """The entries of `_packed` form as ascending keys and their values:
    packed is sorted in place and then overwritten by the keys, so that
    neither a permutation nor a sorted copy is held beside it."""
    packed.sort()
    values = packed % m
    packed //= m
    return packed, values


def _summed_mod(packed, m):
    """The entries of `_packed` form summed at each key, as ascending keys
    and values reduced into [1, m): zeros mod m are dropped (see
    `_unpacked`)."""
    packed, values = _unpacked(packed, m)
    firsts = _run_starts(packed)
    if len(values):
        values = np.add.reduceat(values, firsts)
        values %= m
    live = values != 0
    firsts = firsts[live]
    values = values[live]
    return packed[firsts], values


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
    rewrite kernel vectors in terms of the generators: V and Vinv are
    sparse, (keys, values) pairs as `local_smith` returns them.  A
    truncation shares V and Vinv with the kernel it came from: reduced
    mod p^K they are inverse mod every p^k with k <= K.
    """

    gens: np.ndarray       # shape (s, ncols)
    orders: list           # exponent of p per generator
    col_exps: list         # constraint exponent per V-column
    V: tuple               # (keys, values), row-major
    Vinv: tuple
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
    n = len(col_exps)
    exps = np.array(col_exps, dtype=np.int64)
    live = exps > 0
    r, c = np.divmod(V[0], n)
    hit = live[c]
    r, c = r[hit], c[hit]
    gens = np.zeros((np.count_nonzero(live), n), dtype=np.int64)
    gens[(np.cumsum(live) - 1)[c], r] = V[1][hit] * p ** (k - exps[c]) % p**k
    return KernelData(gens, exps[live].tolist(), col_exps, V, Vinv, p, k)


def kernel_mod_pk(A, p, k):
    """Kernel over Z/p^k of A, an `IntegerMatrix` or a 2-D integer array
    (need not be reduced)."""
    cols = A.shape[1]
    exps, V, Vinv = local_smith(A, p, k)
    return _kernel_data(exps + [k] * (cols - len(exps)), V, Vinv, p, k)


# the most terms `rows_off_kernel` forms at once
_CERTIFY_TERMS = 1 << 20


def rows_off_kernel(r, c, a, gens, m):
    """The rows, ascending, of the sparse matrix with the row-major
    entries (r, c, a) that do not vanish mod m on every row of `gens`: x
    with sum_c a[x, c] gens[i, c] != 0 mod m for some i.

    With the entries and gens reduced into [0, m), a row's sum for one
    generator is at most its entries times (m - 1)^2, below 2^b; so the
    generators are packed b bits apart, as many as fit in 63 bits, into
    int64 words, and one sum per word gives each generator's sum, exact,
    in its own b bits.  The sums are formed a chunk of whole rows at a
    time, at most about _CERTIFY_TERMS terms each: a term is an entry
    times a word at its column."""
    a = np.remainder(a, m).astype(np.int64, copy=False)
    starts = _run_starts(r)
    widest = int(np.diff(np.append(starts, len(r))).max()) if len(r) else 0
    b = (widest * (m - 1) ** 2).bit_length() or 1
    per_word = max(1, 63 // b)
    gens = np.asarray(gens, dtype=np.int64) % m
    words = np.zeros((-(-len(gens) // per_word), gens.shape[1]), dtype=np.int64)
    for i, g in enumerate(gens):
        words[i // per_word] |= g << (b * (i % per_word))
    shifts = b * np.arange(per_word, dtype=np.int64)
    step = max(1, _CERTIFY_TERMS // len(words)) if len(words) else len(r)
    off, lo = [np.zeros(0, dtype=np.int64)], 0
    while lo < len(r):
        # the chunk ends at the first row start past lo + step
        at = np.searchsorted(starts, lo + step)
        hi = int(starts[at]) if at < len(starts) else len(r)
        firsts = _run_starts(r[lo:hi])
        sums = np.add.reduceat(words[:, c[lo:hi]] * a[lo:hi], firsts, axis=1)
        # each generator's sum, from its b bits of its word
        each = sums[:, None, :] >> shifts[:, None]
        each &= (1 << b) - 1
        each %= m
        off.append(r[lo:hi][firsts[each.reshape(-1, len(firsts)).any(axis=0)]])
        lo = hi
    return np.concatenate(off)


def kernel_coordinates(kd, vecs):
    """Write kernel vectors, the rows of `vecs`, as sums c_i * gens[i] with
    c_i taken mod p^orders[i]; row j of the result holds those of row j.

    One product vecs @ Vinv^T gives every row's coordinates in the basis
    V; coordinate i is divisible by p^(k - col_exps[i]) exactly for
    kernel vectors, and the quotient is c_i.  Vinv stays sparse: column
    i of the product sums vecs[:, c] * Vinv[i, c] over the entries (i, c)
    of row i, every row holding one, so the product's terms take the
    size of vecs times Vinv's mean row fill.  They are int64 and exact:
    Vinv's entries lie below the modulus it was eliminated at, so below
    `_MAX_MODULUS` = 2^15, as do the reduced vectors' entries, and an
    entry sums at most len(col_exps) terms."""
    p, k = kd.p, kd.k
    m = p**k
    n = len(kd.col_exps)
    vecs = np.asarray(vecs, dtype=np.int64).reshape(len(vecs), n) % m
    i, c = np.divmod(kd.Vinv[0], n)
    y = np.add.reduceat(vecs[:, c] * kd.Vinv[1], _run_starts(i), axis=1) % m if n else vecs
    exps = np.array(kd.col_exps, dtype=np.int64)
    step = p ** (k - exps)
    if (y % step).any():
        raise ValueError("vector is not in the kernel")
    live = exps > 0
    return (y[:, live] // step[live]) % p ** exps[live]


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
    exps, _, (vkey, vval) = local_smith(rel, p, k)
    f = exps + [k] * (s - len(exps))
    # f ascends: the summands, f_j > 0, are the rows of Vinv from
    # j0 = f.count(0) on, and every row of Vinv holds an entry
    j0 = f.count(0)
    if j0 == s:
        return [], []
    lo = np.searchsorted(vkey, j0 * s)
    j, c = np.divmod(vkey[lo:], s)
    reps = np.add.reduceat(kd.gens[c] * vval[lo:, None], _run_starts(j), axis=0) % m
    return [p**x for x in f[j0:]], list(reps)


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

