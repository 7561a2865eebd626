import itertools
import random
import tracemalloc
import weakref

import numpy as np
import pytest

from cyclecoh import lcs_cohomology, modular
from cyclecoh.abelian import (
    FinAbGroup,
    IntegerMatrix,
    hom_cohomology_at,
)
from cyclecoh.cycleset import CyclicFamilyParams
from cyclecoh.lcs_cohomology import cohomology, reduced_complex


def ref_local_smith(A, p, k):
    """The sequential elimination: one sparse pivot at a time on Python-int
    row dicts, at the least valuation e left, units (e = 0) first: the
    sparsest column with an entry of valuation e, then its sparsest row
    with one.  A is a 2-D integer array."""
    m = p**k
    nrows, ncols = A.shape
    V = np.eye(ncols, dtype=np.int64)
    Vinv = np.eye(ncols, dtype=np.int64)

    rows = {}                                  # row -> {col: entry in [1, m)}
    col_rows = [set() for _ in range(ncols)]   # rows with an entry
    r_idx, c_idx = np.nonzero(A)
    for r, c, a in zip(r_idx.tolist(), c_idx.tolist(), (A[r_idx, c_idx] % m).tolist()):
        if a:
            rows.setdefault(r, {})[c] = a
            col_rows[c].add(r)

    active = set(range(ncols))
    order, exps = [], []
    # an entry left below p^k has valuation at most k - 1, so the last e
    # leaves none; no pivot lowers the valuations left below e
    for e in range(k):
        pe, q = p**e, p ** (e + 1)
        col_units = [  # rows with an entry of valuation e
            {s for s in col_rows[j] if rows[s][j] % q} if j in active else None
            for j in range(ncols)
        ]
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
            uinv = pow(prow.pop(c) // pe, -1, m)
            for s in col_rows[c]:
                row = rows[s]
                f = row.pop(c) // pe * uinv % m
                for j, a in prow.items():
                    x = (row.get(j, 0) - f * a) % m
                    if x:
                        row[j] = x
                        col_rows[j].add(s)
                        if x % q:
                            col_units[j].add(s)
                        else:
                            col_units[j].discard(s)
                    elif j in row:
                        del row[j]
                        col_rows[j].discard(s)
                        col_units[j].discard(s)
            col_rows[c] = col_units[c] = None
            active.discard(c)
            order.append(c)
            exps.append(e)
            if prow:
                others = list(prow)
                g = np.array([a // pe * uinv % m for a in prow.values()], dtype=np.int64)
                V[:, others] = (V[:, others] - np.outer(V[:, c], g)) % m
                Vinv[c] = (Vinv[c] + g @ Vinv[others]) % m
    assert not any(rows.values())
    order += sorted(active)
    exps += [k] * (min(nrows, ncols) - len(exps))
    return exps, V[:, order], Vinv[order]


def _product_mod(X, Y, m):
    """X @ Y mod m for arrays with entries in [0, m), exactly: every sum
    stays below 2^53, so float64 holds it."""
    assert X.shape[1] * m * m < 2**53
    return np.rint(X.astype(np.float64) @ Y.astype(np.float64)).astype(np.int64) % m


def _dense(M, n):
    """An n x n matrix, a (keys, values) pair as `local_smith` returns V
    and Vinv, as an array."""
    out = np.zeros(n * n, dtype=np.int64)
    out[M[0]] = M[1]
    return out.reshape(n, n)


def _assert_smith(Amod, result, p, k):
    """The contract of `local_smith` for A, given reduced mod p^k: V and
    Vinv in their sparse layout, ascending distinct keys and values in
    [1, p^k), and the Smith identities."""
    exps, V, Vinv = result
    m = p**k
    rows, cols = Amod.shape
    assert exps == sorted(exps) and len(exps) == min(rows, cols)
    for key, values in (V, Vinv):
        assert key.dtype == values.dtype == np.int64
        assert (np.diff(key) > 0).all() and ((key >= 0) & (key < cols * cols)).all()
        assert ((values > 0) & (values < m)).all()
    V, Vinv = _dense(V, cols), _dense(Vinv, cols)
    assert (_product_mod(V, Vinv, m) == np.eye(cols, dtype=np.int64)).all()
    AV = _product_mod(Amod, V, m)
    for i in range(cols):
        e = exps[i] if i < len(exps) else k
        assert not (AV[:, i] % p**e).any(), i


def _kernel_by_enumeration(A, m):
    """The vectors x of (Z/m)^cols with A @ x = 0 mod m, one per row."""
    ambient = np.array(list(itertools.product(range(m), repeat=A.shape[1])), dtype=np.int64)
    return ambient[~((ambient @ A.T) % m).any(axis=1)] if len(A) else ambient


def _span(vectors, orders, p, m):
    """The subgroup of (Z/m)^n generated by vectors of orders p^orders."""
    n = len(vectors[0]) if len(vectors) else 0
    span = {(0,) * n}
    for vec, e in zip(vectors, orders):
        span = {
            tuple((x + i * int(y)) % m for x, y in zip(base, vec))
            for base in span
            for i in range(p**e)
        }
    return span


def _random_matrix(rng, p, k, rows, cols, unit_free):
    m = p**k
    density = rng.uniform(0.2, 1.0)
    A = np.zeros((rows, cols), dtype=np.int64)
    for i in range(rows):
        for j in range(cols):
            if rng.random() < density:
                A[i, j] = rng.randrange(-m, m) * (p if unit_free else 1)
    return A


def _cases():
    """Seeded small matrices over Z/p^k with p in {2, 3}, k <= 3, up to 7x4,
    kept to ambient groups (Z/p^k)^cols small enough to enumerate."""
    rng = random.Random(20210205)
    for p, k in itertools.product((2, 3), (1, 2, 3)):
        for rows, cols in itertools.product(range(8), range(5)):
            if (p**k) ** cols > 20000:
                continue
            yield p, k, np.zeros((rows, cols), dtype=np.int64)
            if rows and cols:
                for unit_free in (False, False, False, True, True):
                    yield p, k, _random_matrix(rng, p, k, rows, cols, unit_free)


def test_kernel_against_enumeration_oracle():
    seen = {"cases": 0, "unit_free_nonzero": 0}
    for p, k, A in _cases():
        m = p**k
        rows, cols = A.shape
        kd = modular.kernel_mod_pk(A, p, k)
        assert kd.gens.shape == (len(kd.orders), cols)
        assert not ((A @ kd.gens.T) % m).any()
        ambient = _kernel_by_enumeration(A, m)
        assert int(np.prod([p**e for e in kd.orders])) == len(ambient)
        assert len(_span(kd.gens, kd.orders, p, m)) == len(ambient)
        # the exponents are the local Smith invariants of A: for every
        # j <= k, |ker(A mod p^j)| = p^(sum_i min(e_i, j)) over the column
        # exponents, and these k counts fix the multiset of exponents
        exps = modular.local_smith(A, p, k)[0]
        assert len(exps) == min(rows, cols) and exps == sorted(exps)
        col_exps = exps + [k] * (cols - len(exps))
        for j in range(1, k + 1):
            size = len(ambient) if j == k else len(_kernel_by_enumeration(A, p**j))
            assert size == p ** sum(min(e, j) for e in col_exps), (A, j)
        seen["cases"] += 1
        if A.any() and not (A % p).any():
            seen["unit_free_nonzero"] += 1
    assert seen["cases"] > 1000
    assert seen["unit_free_nonzero"] > 300


def test_kernel_of_empty_and_zero_shapes():
    for shape in ((0, 0), (3, 0), (0, 3), (4, 3)):
        kd = modular.kernel_mod_pk(np.zeros(shape, dtype=np.int64), 2, 3)
        assert kd.gens.shape == (shape[1], shape[1])
        assert kd.orders == [3] * shape[1]


def test_truncated_kernel_matches_direct_elimination():
    rng = random.Random(7)
    for p, K in ((2, 3), (3, 3), (2, 2)):
        for _ in range(60):
            rows, cols = rng.randint(0, 7), rng.randint(1, 3)
            A = _random_matrix(rng, p, K, rows, cols, rng.random() < 0.3)
            top = modular.kernel_mod_pk(A, p, K)
            for k in range(1, K + 1):
                m = p**k
                cut = top.truncate(k)
                direct = modular.kernel_mod_pk(A, p, k)
                assert cut.k == k and cut.col_exps == direct.col_exps
                assert cut.orders == direct.orders
                assert _span(cut.gens, cut.orders, p, m) == _span(direct.gens, direct.orders, p, m)
                V, Vinv = _dense(cut.V, cols), _dense(cut.Vinv, cols)
                assert ((V @ Vinv) % m == np.eye(cols, dtype=np.int64)).all()


def ref_kernel_coordinates(kd, vec):
    """The per-row coordinate rule: one Vinv @ vec for a single vector, in
    Python ints."""
    p, k = kd.p, kd.k
    m = p**k
    Vinv = _dense(kd.Vinv, len(kd.col_exps)).astype(object)
    y = (Vinv @ (np.array(vec, dtype=np.int64) % m).astype(object)) % m
    coeffs = []
    for i, e in enumerate(kd.col_exps):
        step = p ** (k - e)
        if int(y[i]) % step != 0:
            raise ValueError("vector is not in the kernel")
        if e == 0:
            continue
        coeffs.append((int(y[i]) // step) % (p**e))
    return coeffs


def test_batched_kernel_coordinates_match_per_row_reference():
    # the product runs in int64, also at 181^2 = 32761, the largest modulus
    # below 2^15, where its terms come near 2^30; the reference runs in
    # Python ints
    rng = random.Random(11)
    seen = {"rows": 0, "rejected": 0, "largest term": 0}
    for p, k in ((2, 3), (3, 2), (2, 1), (181, 2)):
        m = p**k
        for _ in range(40):
            rows, cols = rng.randint(0, 6), rng.randint(1, 5)
            A = _random_matrix(rng, p, k, rows, cols, rng.random() < 0.3)
            kd = modular.kernel_mod_pk(A, p, k)
            nvecs = rng.randint(0, 4)
            coeffs = np.array(
                [rng.randrange(m) for _ in range(nvecs * len(kd.orders))], dtype=np.int64
            ).reshape(nvecs, len(kd.orders))
            vecs = (coeffs @ kd.gens) % m
            got = modular.kernel_coordinates(kd, vecs)
            assert got.dtype == np.int64 and got.shape == (len(vecs), len(kd.orders))
            assert got.tolist() == [ref_kernel_coordinates(kd, vec) for vec in vecs]
            assert ((got @ kd.gens - vecs) % m == 0).all()
            seen["rows"] += len(vecs)
            if len(vecs):
                # the largest term Vinv[i, c] * vecs[b, c] of the product
                top = int((kd.Vinv[1] * vecs.max(axis=0)[kd.Vinv[0] % cols]).max())
                seen["largest term"] = max(seen["largest term"], top)
            # a vector outside the kernel is rejected, also among kernel rows
            outside = np.array(rng.choices(range(m), k=cols * 8), dtype=np.int64).reshape(8, cols)
            outside = outside[((outside @ A.T) % m).any(axis=1)] if rows else outside[:0]
            if len(outside):
                with pytest.raises(ValueError, match="not in the kernel"):
                    ref_kernel_coordinates(kd, outside[0])
                with pytest.raises(ValueError, match="not in the kernel"):
                    modular.kernel_coordinates(kd, np.vstack((vecs, outside[:1])))
                seen["rejected"] += 1
    assert seen["largest term"] > 2**29
    assert seen["rows"] > 100 and seen["rejected"] > 30


@pytest.mark.parametrize("params, p, k", [
    (CyclicFamilyParams(2, 1, 2), 2, 3),
    (CyclicFamilyParams(3, 1, 2), 3, 2),
])
def test_smith_identities_on_full_condition_matrix(params, p, k):
    chain = lcs_cohomology._full_slice(params)
    A = chain.cocycle_rows(2).matrix()
    m = p**k
    Amod = A.to_numpy_mod(m)
    exps, V, Vinv = modular.local_smith(Amod, p, k)
    V, Vinv = _dense(V, A.cols), _dense(Vinv, A.cols)
    assert (Amod == A.to_numpy_mod(m)).all()  # the input is only read
    assert exps == sorted(exps) and len(exps) == min(Amod.shape)
    assert ((V @ Vinv) % m == np.eye(A.cols, dtype=np.int64)).all()
    AV = (Amod @ V) % m
    for i in range(A.cols):
        e = exps[i] if i < len(exps) else k
        assert not (AV[:, i] % p**e).any(), i


# the prime powers of the coefficient groups the routes are run with
ROUTE_PRIME_POWERS = ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2))


def _condition_matrices(triple, route):
    """The matrices a route eliminates for H^1 and H^2: the cocycle
    conditions of each degree."""
    params = CyclicFamilyParams(*triple)
    chain = lcs_cohomology._full_slice(params) if route == "full" else reduced_complex(params).total
    return [chain.cocycle_rows(n).matrix() for n in (1, 2)]


@pytest.mark.parametrize("route", ["full", "reduced"])
@pytest.mark.parametrize("triple", [(2, 1, 2), (3, 1, 2), (2, 2, 3), (2, 2, 4)], ids=lambda m: "%d-%d-%d" % m)
def test_rounds_match_sequential_elimination_on_condition_matrices(triple, route):
    for A in _condition_matrices(triple, route):
        for p, k in ROUTE_PRIME_POWERS:
            Amod = A.to_numpy_mod(p**k)
            result = modular.local_smith(A, p, k)
            assert result[0] == ref_local_smith(Amod, p, k)[0], (A, p, k)
            _assert_smith(Amod, result, p, k)


def _sparse_cases():
    """Seeded sparse matrices over Z/p^k: entries negative and at or above
    p^k, some rows unit multiples of others, some divisible by p, and a
    short first row with units in up to three columns, often the row
    that several columns offer in the same round."""
    rng = random.Random(20260218)
    for p, k in ((2, 1), (2, 3), (3, 2), (5, 1)):
        m = p**k
        units = [u for u in range(1, m) if u % p]
        for _ in range(40):
            rows, cols = rng.randint(1, 24), rng.randint(1, 16)
            density = rng.uniform(0.05, 0.4)
            A = np.zeros((rows, cols), dtype=np.int64)
            for i, j in itertools.product(range(rows), range(cols)):
                if rng.random() < density:
                    A[i, j] = rng.randrange(-3 * m, 3 * m)
            for _ in range(rng.randint(0, 3)):
                i, j = rng.randrange(rows), rng.randrange(rows)
                A[j] = A[i] * rng.choice(units) + m * rng.randrange(-2, 3)
            for i in rng.sample(range(rows), rng.randint(0, rows // 3)):
                A[i] *= p
            if rows > 1 and cols > 1:
                A[0] = 0
                for j in rng.sample(range(cols), min(cols, 3)):
                    A[0, j] = rng.choice(units) - m
            yield p, k, A


def test_rounds_match_sequential_elimination_on_sparse_inputs():
    seen = {"cases": 0, "valuation": 0}
    for p, k, A in _sparse_cases():
        m = p**k
        result = modular.local_smith(A, p, k)
        assert result[0] == ref_local_smith(A, p, k)[0]
        _assert_smith(A % m, result, p, k)
        seen["cases"] += 1
        seen["valuation"] += any(0 < e < k for e in result[0])
    for shape in ((0, 0), (3, 0), (0, 3), (4, 3)):
        A = np.zeros(shape, dtype=np.int64)
        assert modular.local_smith(A, 2, 3)[0] == ref_local_smith(A, 2, 3)[0] == [3] * min(shape)
        _assert_smith(A, modular.local_smith(A, 2, 3), 2, 3)
    assert seen["cases"] == 160 and seen["valuation"] > 20


def test_a_round_rejects_colliding_candidates():
    # column 0 offers row 1 and column 1 row 0; the sparser column 1 goes
    # first, and its row 0 meets column 0, which waits for the next round
    key = np.array([0, 1, 2])  # entries (0, 0), (0, 1), (1, 0)
    pr, pc = modular._unit_pivots(key, np.array([1, 1, 1]), 2, 2, 2)
    assert pr.tolist() == [0] and pc.tolist() == [1]
    # two columns whose only unit is in the same row: one pivot
    pr, pc = modular._unit_pivots(key, np.array([1, 1, 2]), 2, 2, 2)
    assert len(pr) == 1


def _first_round_against_dense(A, p, k):
    """The first round of A (reduced mod p^k, not 0) against the dense
    A22 - A21 G and G = (D / p^e)^-1 (A12 / p^e) mod p^(k - e), for e the
    least valuation of A; an entry that cancels to 0 must leave no key.
    Returns (e, entries of A22 or A21 G that cancelled)."""
    m = p**k
    nrows, ncols = A.shape
    r, c = np.nonzero(A)
    key, a = r * ncols + c, A[r, c]
    e = min(next(e for e in range(k) if x % p ** (e + 1)) for x in a.tolist())
    pe = p**e
    pr, pc = modular._unit_pivots(key, a, p * pe, nrows, ncols)
    assert len(pc) and not (A[pr, pc] % (p * pe) == 0).any()
    packed, (gt, gj, gv) = modular._pivot_round(key, a, pr, pc, pe, m, nrows, ncols)
    schur_key, schur = modular._summed_mod(packed, m)
    rows, cols = np.setdiff1d(np.arange(nrows), pr), np.setdiff1d(np.arange(ncols), pc)
    dinv = np.array([pow(int(u) // pe, -1, m) for u in A[pr, pc]])
    A12 = A[np.ix_(pr, cols)]
    assert not (A12 % pe).any()
    G = dinv[:, None] * (A12 // pe) % m
    A21, A22 = A[np.ix_(rows, pc)], A[np.ix_(rows, cols)]
    want = np.zeros_like(A)
    want[np.ix_(rows, cols)] = (A22 - A21 @ G) % m
    wr, wc = np.nonzero(want)
    assert schur_key.tolist() == (wr * ncols + wc).tolist()
    assert schur.tolist() == want[wr, wc].tolist()
    assert (np.diff(gt) >= 0).all()
    got_G = np.zeros((len(pc), ncols), dtype=np.int64)
    got_G[gt, gj] = gv
    want_G = np.zeros_like(got_G)
    want_G[:, cols] = G
    # G is defined mod p^(k - e), and D G = A12 mod p^k for the lift taken
    assert (got_G % (m // pe) == want_G % (m // pe)).all()
    assert (gv % (m // pe) != 0).all()
    assert (A[pr, pc][:, None] * got_G[:, cols] % m == A12).all()
    touched = (A22 != 0) | ((A21 != 0).astype(int) @ (G != 0).astype(int) > 0)
    return e, int((touched & (want[np.ix_(rows, cols)] == 0)).sum())


def test_one_pivot_round_is_the_dense_schur_complement():
    # the first round of each sparse case, at valuation 0, and of p times
    # it, for k >= 2, at a valuation e >= 1
    seen = {"rounds": 0, "cancelled": 0, "valuation_rounds": 0, "valuation_cancelled": 0}
    for p, k, A in _sparse_cases():
        m = p**k
        if (A % p).any():
            e, cancelled = _first_round_against_dense(A % m, p, k)
            assert e == 0
            seen["rounds"] += 1
            seen["cancelled"] += cancelled
        if k >= 2 and (p * A % m).any():
            e, cancelled = _first_round_against_dense(p * A % m, p, k)
            assert e >= 1
            seen["valuation_rounds"] += 1
            seen["valuation_cancelled"] += cancelled
    assert seen["rounds"] > 100 and seen["cancelled"] > 0, seen
    assert seen["valuation_rounds"] > 50 and seen["valuation_cancelled"] > 0, seen


def test_integer_matrix_and_array_give_the_same_elimination():
    for p, k, A in itertools.islice(_sparse_cases(), 0, None, 7):
        M = IntegerMatrix.from_rows(A.tolist(), A.shape[1])
        sparse, dense = modular.local_smith(M, p, k), modular.local_smith(A, p, k)
        assert sparse[0] == dense[0]
        for x, y in zip(sparse[1:], dense[1:]):
            assert (x[0] == y[0]).all() and (x[1] == y[1]).all()
    A = _condition_matrices((2, 2, 3), "full")[1]
    sparse, dense = modular.local_smith(A, 2, 3), modular.local_smith(A.to_numpy_mod(8), 2, 3)
    assert sparse[0] == dense[0]
    for x, y in zip(sparse[1:], dense[1:]):
        assert (x[0] == y[0]).all() and (x[1] == y[1]).all()


def test_full_route_builds_no_dense_condition_matrix():
    params = CyclicFamilyParams(2, 2, 4)
    chain = lcs_cohomology._full_slice(params)
    A = chain.cocycle_rows(2).matrix()
    tracemalloc.start()
    try:
        hom_cohomology_at(chain, 2, FinAbGroup((2, 8)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a sixth of the dense int64 array of the 9269 distinct condition
    # rows up to sign; the 10350 rows eliminated as built do not raise it,
    # and neither do V and V^{-1}, which are held sparse (dense, they took
    # the peak above this bound)
    assert A.shape == (10350, 450)
    assert peak < 8 * 9269 * 450 / 6, (peak, A)


def test_column_side_is_held_sparse():
    # of the 450^2 = 202500 entries of V and of V^{-1} for the full (2,2,4)
    # degree-2 cocycle conditions at 2^3, 3533 and 1141 are nonzero
    A = _condition_matrices((2, 2, 4), "full")[1]
    assert A.shape == (10350, 450)
    result = modular.local_smith(A, 2, 3)
    exps, (vkey, vval), (ikey, ival) = result
    assert (len(vkey), len(vval), len(ikey), len(ival)) == (3533, 3533, 1141, 1141)
    _assert_smith(A.to_numpy_mod(8), result, 2, 3)


def test_one_kernel_elimination_per_prime(monkeypatch):
    calls = {"kernel": 0, "smith": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(modular, "kernel_mod_pk", counted("kernel", modular.kernel_mod_pk))
    monkeypatch.setattr(modular, "local_smith", counted("smith", modular.local_smith))
    lcs_cohomology._full_slice.cache_clear()
    params = CyclicFamilyParams(2, 1, 2)
    gamma = FinAbGroup((2, 8))
    group = cohomology(params, gamma, 2, "full").group
    # Z/2 and Z/8 share one elimination at 2^3 for the cocycle conditions;
    # one quotient per factor
    assert calls == {"kernel": 1, "smith": 3}
    assert group == cohomology(params, gamma, 2, "closed").group


def test_cocycle_enumeration_eliminates_once_per_prime(monkeypatch):
    calls = []
    kernel_mod_pk = modular.kernel_mod_pk

    def counted(A, p, k):
        calls.append((p, k))
        return kernel_mod_pk(A, p, k)

    monkeypatch.setattr(modular, "kernel_mod_pk", counted)
    pairs = lcs_cohomology.all_cocycle_pairs(CyclicFamilyParams(2, 1, 1), FinAbGroup((2, 8)))
    # Z/2 and Z/8 are truncations of one elimination at 2^3
    assert calls == [(2, 3)]
    assert len(pairs) == 64


def test_hom_cohomology_holds_one_prime_at_a_time(monkeypatch):
    """When a prime is eliminated, no other prime's V is alive: each
    prime's kernels are dropped before the next prime's elimination."""
    held = []  # (prime, weak reference to the returned V)
    kernel_mod_pk = modular.kernel_mod_pk

    def spy(A, p, k):
        alive = [q for q, ref in held if q != p and ref() is not None]
        assert not alive, (p, alive)
        kd = kernel_mod_pk(A, p, k)
        held.append((p, weakref.ref(kd.V[0])))
        return kd

    monkeypatch.setattr(modular, "kernel_mod_pk", spy)
    params = CyclicFamilyParams(2, 1, 2)
    gamma = FinAbGroup((60,))
    group = cohomology(params, gamma, 2, "full").group
    assert [q for q, _ in held] == [2, 3, 5]
    assert group == cohomology(params, gamma, 2, "closed").group


def test_modulus_cap_is_a_resource_limit():
    with pytest.raises(modular.ResourceLimitError):
        modular.local_smith(np.ones((1, 1), dtype=np.int64), 2, 15)
    assert issubclass(modular.ResourceLimitError, ValueError)


def test_packed_key_bound_is_a_resource_limit():
    # an entry of the rounds is packed as key * m + value in int64
    huge = IntegerMatrix.zero(2**40, 2**20)
    with pytest.raises(modular.ResourceLimitError, match="too large for int64 keys"):
        modular.local_smith(huge, 2, 3)


def test_factorize_stops_at_its_trial_bound():
    # every m below 2^40 is factored completely; beyond, a cofactor with
    # no divisor up to the bound is a resource limit, not an endless loop
    big = 2**40 - 87
    assert modular.factorize(big) == [(big, 1)]
    assert modular.factorize(12 * big) == [(2, 2), (3, 1), (big, 1)]
    with pytest.raises(modular.ResourceLimitError, match="trial divisors above 1048576"):
        modular.factorize(1000000000000000003)
