"""Tests for exact integer linear algebra and f.g. abelian groups.

The oracles here are deliberately independent of the implementation:
matrix arithmetic against Python-int dict-of-keys references, Smith
invariants via gcds of k x k minors, groups by their order statistics,
Hom-cohomology via exhaustive enumeration of coefficient-valued
cochains.
"""

import itertools
import random
from math import gcd
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclecoh import modular
from cyclecoh.abelian import (
    FaceDifference,
    FinAbGroup,
    GroupElement,
    IdentityKron,
    IntegerMatrix,
    PresentedModule,
    block_matrix,
    hom_cohomology_at,
    torsion_and_quotient,
)
from cyclecoh.cycleset import CyclicFamilyParams, make_cyclic_lcs
from cyclecoh.lcs_cohomology import CocyclePair, cohomologous
from cyclecoh.modular import ResourceLimitError, local_smith

from reference import columns, spot


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def minor_gcd_invariants(dense):
    """Elementary divisors d_k/d_{k-1} from gcds of k x k minors."""
    rows = len(dense)
    cols = len(dense[0]) if rows else 0
    n = min(rows, cols)

    def det(sub):
        # Laplace expansion; sizes here are tiny
        k = len(sub)
        if k == 0:
            return 1
        if k == 1:
            return sub[0][0]
        total = 0
        for j in range(k):
            if sub[0][j] == 0:
                continue
            minor = [row[:j] + row[j + 1 :] for row in sub[1:]]
            total += (-1) ** j * sub[0][j] * det(minor)
        return total

    d_prev = 1
    out = []
    for k in range(1, n + 1):
        g = 0
        for ris in itertools.combinations(range(rows), k):
            for cis in itertools.combinations(range(cols), k):
                sub = [[dense[r][c] for c in cis] for r in ris]
                g = gcd(g, det(sub))
        if g == 0:
            break
        out.append(g // d_prev)
        d_prev = g
    return out


def group_order_statistics(group):
    order = group.order()
    stats = {}
    for d in range(1, order + 1):
        stats[d] = sum(1 for g in group.elements() if (d * g).is_zero)
    return stats


# ---------------------------------------------------------------------------
# IntegerMatrix
# ---------------------------------------------------------------------------


def test_matrix_algebra_basics():
    A = IntegerMatrix.from_rows([[1, 2], [3, 4]])
    B = IntegerMatrix.from_rows([[0, 1], [1, 0]])
    assert (A @ B).dense() == [[2, 1], [4, 3]]
    assert (A + B).dense() == [[1, 3], [4, 4]]
    assert (-A).dense() == [[-1, -2], [-3, -4]]
    assert A.transpose().dense() == [[1, 3], [2, 4]]
    assert IntegerMatrix.identity(2) @ A == A


# plain Python-int dict-of-keys reference for IntegerMatrix


def _entries(M):
    return {
        (r, c): v
        for r, c, v in zip(M.row_idx.tolist(), M.col_idx.tolist(), M.values.tolist())
    }


def _nonzero(data):
    return {key: v for key, v in data.items() if v}


def _ref_add(a, b, sign=1):
    return _nonzero({key: a.get(key, 0) + sign * b.get(key, 0) for key in a.keys() | b.keys()})


def _ref_matmul(a, b):
    out = {}
    for (i, k), x in a.items():
        for (k2, j), y in b.items():
            if k == k2:
                out[(i, j)] = out.get((i, j), 0) + x * y
    return _nonzero(out)


def _random_entries(rng, rows, cols, bound):
    return {
        (r, c): rng.randint(-bound, bound)
        for r in range(rows)
        for c in range(cols)
        if rng.random() < 0.4
    }


@pytest.mark.parametrize("bound", [3, 2**40])
def test_integer_matrix_against_python_int_reference(bound):
    rng = random.Random(bound)
    dtypes = set()
    for _ in range(60):
        n, k, m = (rng.randint(0, 6) for _ in range(3))
        da, dc = _random_entries(rng, n, k, bound), _random_entries(rng, n, k, bound)
        db, dd = _random_entries(rng, k, m, bound), _random_entries(rng, 2, k, bound)
        A, B, C, D = (
            IntegerMatrix(n, k, da), IntegerMatrix(k, m, db),
            IntegerMatrix(n, k, dc), IntegerMatrix(2, k, dd),
        )
        a, b, c, d = (_nonzero(x) for x in (da, db, dc, dd))
        assert _entries(A) == a
        product = A @ B
        dtypes.add(product.values.dtype)
        assert _entries(product) == _ref_matmul(a, b)
        assert _entries(A + C) == _ref_add(a, c)
        assert _entries(A - C) == _ref_add(a, c, -1)
        assert _entries(-A) == {key: -v for key, v in a.items()}
        for s in (0, -3, 2**30, -(2**45)):
            assert _entries(A.scale(s)) == _nonzero({key: s * v for key, v in a.items()})
        assert _entries(A.transpose()) == {(j, i): v for (i, j), v in a.items()}
        r0, c0 = rng.randint(0, n), rng.randint(0, k)
        assert _entries(A.submatrix(r0, n, c0, k)) == {
            (i - r0, j - c0): v for (i, j), v in a.items() if i >= r0 and j >= c0
        }
        assert [[A.entry(i, j) for j in range(k)] for i in range(n)] == A.dense() == [
            [a.get((i, j), 0) for j in range(k)] for i in range(n)
        ]
        assert _entries(A.vstack(D)) == {**a, **{(i + n, j): v for (i, j), v in d.items()}}
        kron = {(i * k + r, j * m + c): x * y for (i, j), x in a.items() for (r, c), y in b.items()}
        assert _entries(A.kron(B)) == kron
        assert A.kron(B) == IntegerMatrix(n * k, k * m, kron)  # canonical arrays
        de = _random_entries(rng, k, k, bound)
        blocks = block_matrix({(0, 0): A, (1, 1): B, (1, 0): IntegerMatrix(k, k, de)}, [n, k], [k, m])
        assert _entries(blocks) == {
            **a,
            **{(i + n, j + k): v for (i, j), v in b.items()},
            **{(i + n, j): v for (i, j), v in _nonzero(de).items()},
        }
        # equality and hashing do not depend on how a matrix was built
        same = IntegerMatrix(n, k, dict(reversed(list(da.items()))))
        assert same == A and hash(same) == hash(A)
        assert A + C == C + A and hash(A + C) == hash(C + A)
        assert (A == A.scale(2)) == (not a)
        assert A != IntegerMatrix(n + 1, k, da)
        assert columns(A) == [{i: v for (i, j), v in sorted(a.items()) if j == col} for col in range(k)]
        for mod in (2, 9, 2**61 - 1):
            expected = [[a.get((i, j), 0) % mod for j in range(k)] for i in range(n)]
            assert A.to_numpy_mod(mod).tolist() == expected
    # small entries stay on the int64 path; products of entries near 2^40
    # cross 2^62 and run on Python ints
    assert np.dtype(object) in dtypes if bound > 2**31 else dtypes <= {np.dtype(np.int64)}


def test_integer_matrix_never_wraps():
    # every term 2^62 fits in int64, but their sum 2^63 would wrap to -2^63
    A = IntegerMatrix.from_rows([[2**31, 2**31]])
    B = IntegerMatrix.from_rows([[2**31], [2**31]])
    assert (A @ B).dense() == [[2**63]]
    assert (A @ B - IntegerMatrix.from_rows([[1]])).dense() == [[2**63 - 1]]
    assert IntegerMatrix.from_rows([[2**31]]).kron(IntegerMatrix.from_rows([[-(2**32)]])).dense() == [[-(2**63)]]
    # constructor input at or beyond 2^62 is held as Python ints, and a
    # result that falls back below the bound returns to int64
    big = IntegerMatrix.from_rows([[2**62, -(2**70)], [1, 0]])
    assert big.values.dtype == object and big.dense() == [[2**62, -(2**70)], [1, 0]]
    small = big - IntegerMatrix.from_rows([[2**62, -(2**70)], [0, 0]])
    assert small.values.dtype == np.int64 and small == IntegerMatrix.from_rows([[0, 0], [1, 0]])
    assert IntegerMatrix.from_rows([[3]]).scale(2**61).dense() == [[3 * 2**61]]


# entries on both sides of the int64 bound 2^62
ENTRIES = st.sampled_from([0, 0, 0, 1, -1, 2, -3, 2**40, 2**62 - 1, -(2**62), 2**62, 2**70])


def _matrices(draw, rows, cols):
    return IntegerMatrix.from_rows([[draw(ENTRIES) for _ in range(cols)] for _ in range(rows)], cols)


def _dense_sum(A, B, sign=1):
    """A + sign B from the dense Python-int entries."""
    return IntegerMatrix.from_rows(
        [[a + sign * b for a, b in zip(ra, rb)] for ra, rb in zip(A.dense(), B.dense())], A.cols
    )


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_merged_sum_equals_the_dense_sum(data):
    """The merge of two canonical operands, on int64 and Python-int
    entries, empty operands, sums that cancel and sums that cross 2^62."""
    rows, cols = data.draw(st.integers(0, 5)), data.draw(st.integers(0, 5))
    A, B = _matrices(data.draw, rows, cols), _matrices(data.draw, rows, cols)
    # some of A's entries negated, so that those positions cancel
    keep = data.draw(st.lists(st.booleans(), min_size=A.nnz, max_size=A.nnz))
    mask = np.array(keep, dtype=bool)
    cancel = IntegerMatrix._from_coo(
        rows, cols, A.row_idx[mask], A.col_idx[mask], -A.values[mask], canonical=True
    )
    for left, right in ((A, B), (B, A), (A, cancel), (cancel, B), (A, -A), (A, IntegerMatrix.zero(rows, cols))):
        total = left + right
        assert total == _dense_sum(left, right)
        assert total.values.dtype == (object if _abs_max_entry(total) >= 2**62 else np.int64)
        assert left - right == _dense_sum(left, right, -1)
    assert (A + -A).is_zero()


def _abs_max_entry(M):
    return max((abs(v) for v in M.values.tolist()), default=0)


def test_merged_sum_crosses_the_int64_bound():
    # int64 operands whose sums reach 2^62 and 2^63 - 2 go to Python ints;
    # positions of only one operand keep their place in the merge
    half = IntegerMatrix.from_rows([[2**61, 0, 2**62 - 1], [0, 5, 0]])
    other = IntegerMatrix.from_rows([[2**61, 7, 2**62 - 1], [1, 0, 0]])
    assert half.values.dtype == other.values.dtype == np.int64
    total = half + other
    assert total.values.dtype == object
    assert total.dense() == [[2**62, 7, 2**63 - 2], [1, 5, 0]]
    # and back below the bound, to int64
    assert (total - other) == half and (total - other).values.dtype == np.int64


def test_sum_without_new_positions_shares_the_index_arrays():
    A = IntegerMatrix.from_rows([[1, 0, 2], [0, 3, 0]])
    B = IntegerMatrix.from_rows([[4, 0, 0], [0, 1, 0]])
    total = A + B
    assert total.row_idx is A.row_idx and total.col_idx is A.col_idx
    assert total.dense() == [[5, 0, 2], [0, 4, 0]]
    assert not total.values.flags.writeable


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_column_slices_equal_the_submatrix(data):
    rows, cols = data.draw(st.integers(0, 5)), data.draw(st.integers(0, 8))
    A = _matrices(data.draw, rows, cols)
    column_slice = A.column_slices()
    for _ in range(4):
        a = data.draw(st.integers(0, cols))
        b = data.draw(st.integers(a, cols))
        assert column_slice(a, b) == A.submatrix(0, rows, a, b)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_identity_kron_products_equal_the_explicit_kron(data):
    outer, inner = (data.draw(st.integers(1, 3)) for _ in range(2))
    rows, cols, m = (data.draw(st.integers(0, 4)) for _ in range(3))
    K = IdentityKron(outer, _matrices(data.draw, rows, cols), inner)
    explicit = IntegerMatrix.identity(outer).kron(K.factor).kron(IntegerMatrix.identity(inner))
    assert (K.rows, K.cols, K.nnz) == (explicit.rows, explicit.cols, explicit.nnz)
    right = _matrices(data.draw, K.cols, m)
    left = _matrices(data.draw, m, K.rows)
    assert K @ right == explicit @ right
    assert left @ K == left @ explicit
    with pytest.raises(ValueError):
        K @ IntegerMatrix.zero(K.cols + 1, 1)
    with pytest.raises(ValueError):
        IntegerMatrix.zero(1, K.rows + 1) @ K
    # with outer 1, a slice of whole copies of I_inner from a drawn offset
    if outer == 1:
        copies = K.factor.cols
        a = data.draw(st.integers(0, copies))
        b = data.draw(st.integers(a, copies))
        S = K.column_slices()(a * inner, b * inner)
        assert left @ S == left @ explicit.submatrix(0, explicit.rows, a * inner, b * inner)
        if inner > 1 and copies:
            with pytest.raises(ValueError):
                K.column_slices()(1, K.cols)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_identity_kron_slices_equal_the_explicit_slices(data):
    """Row slices at any offset, and with outer > 1 column slices at any
    offset, equal the slices of the explicit Kronecker product."""
    outer, inner = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    rows, cols = data.draw(st.integers(0, 4)), data.draw(st.integers(0, 4))
    K = IdentityKron(outer, _matrices(data.draw, rows, cols), inner)
    explicit = IntegerMatrix.identity(outer).kron(K.factor).kron(IntegerMatrix.identity(inner))
    for _ in range(3):
        a = data.draw(st.integers(0, K.rows))
        b = data.draw(st.integers(a, K.rows))
        assert K.row_slice(a, b) == explicit.submatrix(a, b, 0, K.cols)
    if outer > 1:
        assert K.column_unit == 1
        column_slice = K.column_slices()
        for _ in range(3):
            a = data.draw(st.integers(0, K.cols))
            b = data.draw(st.integers(a, K.cols))
            S = column_slice(a, b)
            if (a, b) == (0, K.cols):
                assert S is K
            else:
                assert S == explicit.submatrix(0, K.rows, a, b)


def _explicit_face_difference(F):
    """Column c of F as e_twisted[c] - e_(c mod rows), entry by entry."""
    data = {}
    for c, t in enumerate(F.twisted.tolist()):
        for row, sign in ((t, 1), (c % F.rows, -1)):
            data[(row, c)] = data.get((row, c), 0) + sign
    return IntegerMatrix(F.rows, F.cols, data)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_face_difference_products_equal_the_explicit_matrix(data):
    rows, copies = data.draw(st.integers(1, 4)), data.draw(st.integers(0, 3))
    twisted = [data.draw(st.integers(0, rows - 1)) for _ in range(rows * copies)]
    F = FaceDifference(rows, np.array(twisted, dtype=np.int64))
    explicit = _explicit_face_difference(F)
    assert (F.rows, F.cols, F.nnz) == (explicit.rows, explicit.cols, explicit.nnz)
    m = data.draw(st.integers(0, 4))
    right = _matrices(data.draw, F.cols, m)
    left = _matrices(data.draw, m, F.rows)
    # a slice of whole copies of the plain face, from a nonzero offset
    # whenever there is more than one copy
    a = data.draw(st.integers(min(1, copies), copies))
    b = data.draw(st.integers(a, copies))
    S = F.column_slices()(a * rows, b * rows)
    explicit_S = explicit.submatrix(0, explicit.rows, a * rows, b * rows)
    assert F @ right == explicit @ right
    assert left @ F == left @ explicit
    assert S @ right.row_slice(a * rows, b * rows) == explicit_S @ right.row_slice(a * rows, b * rows)
    assert left @ S == left @ explicit_S
    # the same face map held as int32 codes gives the same products
    F32 = FaceDifference(rows, F.twisted.astype(np.int32))
    S32 = F32.column_slices()(a * rows, b * rows)
    assert F32.nnz == F.nnz
    assert F32 @ right == F @ right and left @ F32 == left @ F
    assert S32 @ right.row_slice(a * rows, b * rows) == S @ right.row_slice(a * rows, b * rows)
    assert left @ S32 == left @ S
    with pytest.raises(ValueError):
        F @ IntegerMatrix.zero(F.cols + 1, 1)
    with pytest.raises(ValueError):
        IntegerMatrix.zero(1, F.rows + 1) @ F
    if rows > 1 and copies:
        with pytest.raises(ValueError):
            F.column_slices()(1, F.cols)
        with pytest.raises(ValueError):
            FaceDifference(rows, F.twisted[1:])


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_product_equals_the_python_int_reference(data):
    n, k, m = (data.draw(st.integers(0, 6)) for _ in range(3))
    A, B = _matrices(data.draw, n, k), _matrices(data.draw, k, m)
    assert _entries(A @ B) == _ref_matmul(_entries(A), _entries(B))


def test_face_difference_sums_beyond_int64():
    # row 0 of F @ M sums three int64 entries 2^62 - 1 (columns 1, 3, 5
    # of F are e_0 - e_1), beyond 2^63
    x = 2**62 - 1
    F = FaceDifference(2, np.zeros(6, dtype=np.int64))
    M = IntegerMatrix.from_rows([[x]] * 6)
    assert M.values.dtype == np.int64
    assert (F @ M).dense() == [[3 * x], [-3 * x]]


def test_face_difference_keys_with_int32_codes_are_int64():
    # the row-major keys of the products pass 2^32, beyond int32, although
    # the face codes are int32
    F = FaceDifference(2, np.array([1, 0, 1, 1], dtype=np.int32))
    explicit = _explicit_face_difference(F)
    wide = 2**32
    right = IntegerMatrix(4, wide, {(0, wide - 1): 1, (2, wide - 2): 3, (3, 5): 2})
    left = IntegerMatrix(wide, 2, {(wide - 1, 1): 1, (7, 0): 2, (wide - 2, 0): -1})
    assert F @ right == explicit @ right
    assert left @ F == left @ explicit
    assert (F @ right).entry(1, wide - 2) == 3


def test_product_with_one_large_row_runs_on_python_ints():
    # the second row of A fails the int64 bound (2 x 2^40 x 2^30 > 2^62),
    # so the one decision for the whole product is the Python-int fallback
    A = IntegerMatrix.from_rows([[1, 1], [2**40, 2**40], [3, 0]])
    B = IntegerMatrix.from_rows([[2**30, 1], [2**30, 0]])
    assert A.values.dtype == B.values.dtype == np.int64
    expected = [[2**31, 1], [2**71, 2**40], [3 * 2**30, 3]]
    fits = []
    original = modular._product_fits_int64

    def recording_fits(*args):
        fits.append(original(*args))
        return fits[-1]

    with mock.patch.object(modular, "_product_fits_int64", recording_fits):
        assert (A @ B).dense() == expected
    assert fits == [False]
    assert (A @ B).dense() == expected


# ---------------------------------------------------------------------------
# Smith invariants of the elimination engine
# ---------------------------------------------------------------------------


def assert_local_smith_matches_minors(dense, p, k):
    """`local_smith`'s exponents at p^k are the p-valuations, capped at k,
    of the invariant factors that the minors give; k for a zero one."""
    factors = minor_gcd_invariants(dense)
    n = min(len(dense), len(dense[0]))
    want = []
    for d in factors + [0] * (n - len(factors)):
        e = 0
        while d and d % p == 0 and e < k:
            d //= p
            e += 1
        want.append(e if d else k)
    assert local_smith(np.array(dense), p, k)[0] == sorted(want), (dense, p, k)


def test_snf_examples():
    assert minor_gcd_invariants([[2, 0], [0, 3]]) == [1, 6]
    assert minor_gcd_invariants([[2, 4], [6, 8]]) == [2, 4]
    assert local_smith(np.array([[2, 0], [0, 3]]), 2, 3)[0] == [0, 1]
    assert local_smith(np.array([[2, 0], [0, 3]]), 3, 2)[0] == [0, 1]
    assert local_smith(np.array([[2, 4], [6, 8]]), 2, 3)[0] == [1, 2]
    assert local_smith(np.zeros((2, 2), dtype=np.int64), 2, 3)[0] == [3, 3]
    for dense in ([[2, 0], [0, 3]], [[2, 4], [6, 8]], [[0, 0], [0, 0]], [[4, 8, 12]]):
        for p, k in ((2, 1), (2, 4), (3, 2), (5, 1)):
            assert_local_smith_matches_minors(dense, p, k)


def test_snf_random_matches_minor_oracle():
    rng = random.Random(7)
    for _ in range(120):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        dense = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        for p, k in ((2, 4), (3, 3), (5, 2), (7, 1)):
            assert_local_smith_matches_minors(dense, p, k)


# ---------------------------------------------------------------------------
# FinAbGroup
# ---------------------------------------------------------------------------


def test_finabgroup_validation():
    with pytest.raises(ValueError):
        FinAbGroup((2, 3))
    with pytest.raises(ValueError):
        FinAbGroup((1, 2))
    with pytest.raises(ValueError):
        FinAbGroup((0, 2))
    g = FinAbGroup.from_cyclic_orders([2, 3, 4, 0])
    assert g.factors == (2, 12, 0)
    assert not g.is_finite
    assert FinAbGroup.from_cyclic_orders([]).is_trivial


def test_group_elements():
    g = FinAbGroup((2, 4))
    assert g.order() == 8
    assert len(list(g.elements())) == 8
    a = g.element((1, 3))
    b = g.element((1, 2))
    assert (a + b).coords == (0, 1)
    assert (-a).coords == (1, 1)
    assert (2 * a).coords == (0, 2)
    assert (a - a).is_zero


def test_group_elements_of_the_wrong_length_are_refused():
    # one coordinate per invariant factor: a shorter or longer tuple is
    # refused before it is reduced, by the constructor and by element()
    g = FinAbGroup((2, 4))
    for coords in ((1,), (1, 2, 3), ()):
        with pytest.raises(ValueError, match="^coordinate length mismatch$"):
            GroupElement(g, coords)
        with pytest.raises(ValueError, match="^coordinate length mismatch$"):
            g.element(coords)
    assert GroupElement(g, (3, 5)).coords == g.element((3, 5)).coords == (1, 1)


def test_torsion_and_quotient_examples():
    t, q = torsion_and_quotient(FinAbGroup((4,)), 2)
    assert t.factors == (2,) and q.factors == (2,)
    t, q = torsion_and_quotient(FinAbGroup((5,)), 1)
    assert t.is_trivial and q.is_trivial
    t, q = torsion_and_quotient(FinAbGroup((0,)), 3)
    assert t.is_trivial and q.factors == (3,)
    with pytest.raises(ValueError):
        torsion_and_quotient(FinAbGroup((4,)), 0)


def test_torsion_and_quotient_against_enumeration():
    rng = random.Random(5)
    cases = []
    for factors in [(2,), (4,), (8,), (2, 4), (3, 3), (2, 2, 4), (6,), (12,)]:
        g = FinAbGroup(factors)
        if g.order() <= 64:
            cases.append(g)
    for g in cases:
        for r in range(1, 13):
            tors, quot = torsion_and_quotient(g, r)
            elems = list(g.elements())
            tors_elems = [x for x in elems if (r * x).is_zero]
            assert len(tors_elems) == tors.order()
            # torsion subgroup iso type via order statistics
            for d in range(1, len(tors_elems) + 1):
                ours = sum(1 for x in tors.elements() if (d * x).is_zero)
                theirs = sum(1 for x in tors_elems if (d * x).is_zero)
                assert ours == theirs
            # quotient by rG: compare order statistics on cosets
            rG = {(r * x).coords for x in elems}
            assert len(elems) // len(rG) == quot.order()
            for d in range(1, quot.order() + 1):
                ours = sum(1 for x in quot.elements() if (d * x).is_zero)
                theirs = sum(1 for x in elems if (d * x).coords in rG) // len(rG)
                assert ours == theirs


# ---------------------------------------------------------------------------
# Hom(-, G) cohomology
# ---------------------------------------------------------------------------


def enumerate_hom_cohomology(d_in, d_out, domain_relations, gamma, out_relations=None):
    """Exhaustive oracle: enumerate cochains, filter cocycles, mod out coboundaries."""
    ngen = d_in.rows
    elems = list(gamma.elements())

    def annihilates(f, rel):
        for row in range(rel.rows):
            s = gamma.zero()
            for c in range(rel.cols):
                v = rel.entry(row, c)
                if v:
                    s = s + v * f[c]
            if not s.is_zero:
                return False
        return True

    cocycles = []
    for combo in itertools.product(elems, repeat=ngen):
        f = list(combo)
        if domain_relations is not None and not annihilates(f, domain_relations):
            continue
        ok = True
        for col in range(d_in.cols):
            s = gamma.zero()
            for r in range(ngen):
                v = d_in.entry(r, col)
                if v:
                    s = s + v * f[r]
            if not s.is_zero:
                ok = False
                break
        if ok:
            cocycles.append(tuple(x.coords for x in f))

    boundaries = set()
    n_out = d_out.rows if d_out is not None else 0
    if n_out:
        for combo in itertools.product(elems, repeat=n_out):
            g = list(combo)
            if out_relations is not None and not annihilates(g, out_relations):
                continue
            f = []
            for c in range(ngen):
                s = gamma.zero()
                for r in range(n_out):
                    v = d_out.entry(r, c)
                    if v:
                        s = s + v * g[r]
                f.append(s)
            boundaries.add(tuple(x.coords for x in f))
    else:
        boundaries.add(tuple(gamma.zero().coords for _ in range(ngen)))

    def sub(a, b):
        return tuple(
            tuple(
                (x - y) % f if f else x - y
                for x, y, f in zip(ca, cb, gamma.factors)
            )
            for ca, cb in zip(a, b)
        )

    # canonical representative of each class = min over its boundary coset
    bset = boundaries
    canon = {}
    for z in cocycles:
        key = min(sub(z, b) for b in bset) if bset else z
        canon.setdefault(key, []).append(z)
    classes = sorted(canon.keys())

    # order statistics of the quotient group
    order = len(classes)
    stats = {}
    for d in range(1, order + 1):
        cnt = 0
        for z in classes:
            dz = tuple(
                tuple((d * x) % f if f else d * x for x, f in zip(cz, gamma.factors))
                for cz in z
            )
            if dz in bset:
                cnt += 1
        stats[d] = cnt
    return order, stats


def test_hom_cohomology_examples():
    v = 4
    d_in = IntegerMatrix.from_rows([[v]])
    d_out = IntegerMatrix.zero(0, 1)
    res = hom_cohomology_at(spot(d_in, d_out), 1, FinAbGroup((v,)))
    assert res.group.factors == (v,)

    # all differentials zero, one generator, coefficients Z/6
    res = hom_cohomology_at(
        spot(IntegerMatrix.zero(1, 0), IntegerMatrix.zero(0, 1)), 1, FinAbGroup((6,))
    )
    assert res.group.factors == (6,)

    # d_in the identity: everything is a coboundary of nothing and no cocycles
    res = hom_cohomology_at(
        spot(IntegerMatrix.identity(3), IntegerMatrix.zero(0, 3)), 1, FinAbGroup((6,))
    )
    assert res.group.is_trivial

    # the condition rows are the columns of d_in, eliminated as given: a
    # repeated, a negated and a zero column change no group
    c0, c1 = [2, 0, 4], [0, 3, 3]
    clean = IntegerMatrix.from_rows([c0, c1]).transpose()
    messy = IntegerMatrix.from_rows([c0, c1, c0, [-x for x in c1], [0, 0, 0]]).transpose()
    for orders in ((12,), (2, 8)):
        gamma = FinAbGroup.from_cyclic_orders(orders)
        want = hom_cohomology_at(spot(clean, IntegerMatrix.zero(0, 3)), 1, gamma).group
        assert not want.is_trivial
        assert hom_cohomology_at(spot(messy, IntegerMatrix.zero(0, 3)), 1, gamma).group == want


def test_hom_cohomology_refuses_relations_below_the_spot():
    # the coboundaries are the rows of d_out only when X_{n-1} is free
    chain = spot(IntegerMatrix.zero(1, 0), IntegerMatrix.from_rows([[1]]))
    chain.modules[0] = PresentedModule(1, IntegerMatrix.from_rows([[2]]))
    with pytest.raises(ValueError, match="X_0 has relations"):
        hom_cohomology_at(chain, 1, FinAbGroup((2,)))
    # a zero relation is none: every cochain on Z is the coboundary of one on Z
    chain.modules[0] = PresentedModule(1, IntegerMatrix.zero(1, 1))
    assert hom_cohomology_at(chain, 1, FinAbGroup((2,))).group.is_trivial


def test_hom_cohomology_representatives_are_cocycles():
    # middle of Z --2--> Z --0--> Z with coefficients Z/8
    d_in = IntegerMatrix.from_rows([[2]])
    d_out = IntegerMatrix.zero(1, 1)
    gamma = FinAbGroup((8,))
    res = hom_cohomology_at(spot(d_in, d_out), 1, gamma)
    assert res.group.factors == (2,)
    for order, cochain in res.summands:
        assert cochain.shape == (1, 1)
        val = cochain[0, 0]
        assert (2 * val) % 8 == 0 and val % 8 != 0


def _random_complex(rng, ngen, n_in, n_out):
    """(d_in, d_out) with d_out @ d_in = 0 by construction: d_in = U [C ; 0]
    and d_out = [0 | B] U^-1, U a product of elementary integer matrices."""
    def draw(rows, cols):
        return np.array([rng.randint(-2, 2) for _ in range(rows * cols)]).reshape(rows, cols)

    a = rng.randint(0, ngen)
    C = np.vstack([draw(a, n_in), np.zeros((ngen - a, n_in), dtype=np.int64)])
    B = np.hstack([np.zeros((n_out, a), dtype=np.int64), draw(n_out, ngen - a)])
    U = np.eye(ngen, dtype=np.int64)
    Uinv = np.eye(ngen, dtype=np.int64)
    for _ in range(2 * ngen if ngen > 1 else 0):
        # U <- U (I + c e_i e_j^T), U^-1 <- (I - c e_i e_j^T) U^-1
        i, j = rng.sample(range(ngen), 2)
        c = rng.choice((-2, -1, 1, 2))
        U[:, j] += c * U[:, i]
        Uinv[i] -= c * Uinv[j]

    def matrix(X):
        return IntegerMatrix(*X.shape, {pos: int(x) for pos, x in np.ndenumerate(X) if x})

    return matrix(U @ C), matrix(B @ Uinv)


def test_hom_cohomology_against_enumeration():
    rng = random.Random(13)
    gammas = [FinAbGroup((2,)), FinAbGroup((3,)), FinAbGroup((4,)), FinAbGroup((2, 2)), FinAbGroup((9,))]
    for trial in range(40):
        gamma = gammas[trial % len(gammas)]
        ngen = rng.randint(1, 3 if gamma.order() > 4 else 4)
        n_in = rng.randint(0, 3)
        n_out = rng.randint(0, 2)
        d_in, d_out = _random_complex(rng, ngen, n_in, n_out)
        res = hom_cohomology_at(spot(d_in, d_out), 1, gamma)
        order, stats = enumerate_hom_cohomology(d_in, d_out, None, gamma, None)
        assert res.group.order() == order, (d_in.dense(), d_out.dense(), gamma)
        assert group_order_statistics(res.group) == stats


def test_hom_cohomology_with_relations():
    # domain Z^2 / (e1 + e2): functionals must satisfy f1 + f2 = 0
    rel = IntegerMatrix.from_rows([[1, 1]])
    d_in = IntegerMatrix.zero(2, 0)
    d_out = IntegerMatrix.zero(0, 2)
    gamma = FinAbGroup((4,))
    res = hom_cohomology_at(spot(d_in, d_out, rel), 1, gamma)
    assert res.group.factors == (4,)
    order, stats = enumerate_hom_cohomology(d_in, d_out, rel, gamma)
    assert order == 4


def test_free_coefficients_are_refused():
    """Hom cohomology and the coboundary solve run modulo prime powers
    only: a free factor is a resource limit, not a wrong answer."""
    params = CyclicFamilyParams(2, 1, 2)
    lcs = make_cyclic_lcs(params)
    for orders in ((0,), (9, 0)):
        gamma = FinAbGroup.from_cyclic_orders(orders)
        with pytest.raises(ResourceLimitError, match="needs finite coefficients"):
            hom_cohomology_at(spot(IntegerMatrix.zero(1, 0), IntegerMatrix.zero(0, 1)), 1, gamma)
        zero = np.zeros((params.v, params.v, len(gamma.factors)), dtype=np.int64)
        pair = CocyclePair(gamma, params.v, zero, zero)
        with pytest.raises(ResourceLimitError, match="needs finite coefficients"):
            cohomologous(pair, pair, lcs)


def test_presented_module():
    mod = PresentedModule(2, IntegerMatrix.from_rows([[2, 0], [0, 2]]))
    assert mod.ngens == 2
    free = PresentedModule.free(3)
    assert free.relations.shape == (0, 3)
    with pytest.raises(ValueError):
        PresentedModule(3, mod.relations)
