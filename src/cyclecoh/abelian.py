"""Exact integer linear algebra and finitely generated abelian groups.

Everything downstream reduces to integer matrices: presentations of
finitely generated abelian groups and cohomology of Hom(-, G)
complexes.  The chain-level differentials are very sparse, so
`IntegerMatrix` keeps canonical numpy COO arrays (row-major, no repeated
position, no zero) and does its arithmetic vectorised.  All arithmetic
is exact: entries are int64 only while an exact bound keeps every result
and partial sum below 2^62, and Python ints (numpy dtype object)
otherwise.  Nothing here eliminates: the kernels and quotients of
Hom(-, G) cohomology, G finite, come from the one mod-p^k elimination
engine in `modular`, one prime at a time.

Conventions:
  * a matrix M with shape (rows, cols) represents a map sending the
    j-th generator of the source to the column vector M[:, j];
    composition is matrix multiplication.
  * a relation matrix has one relation per ROW, one column per
    generator, matching PresentedModule.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field

import numpy as np

from . import modular
from .modular import _INT64_BOUND, _abs_max, _product_terms, _run_starts


def _normalized(values):
    """`values` as int64 when every entry is below 2^62 in absolute value,
    else as Python ints (dtype object)."""
    big = len(values) and (values.max() >= _INT64_BOUND or values.min() <= -_INT64_BOUND)
    return values.astype(object if big else np.int64, copy=False)


class IntegerMatrix:
    """Immutable sparse matrix over the integers.

    Stored in canonical COO form: `row_idx`, `col_idx` and `values` are
    read-only numpy arrays in row-major order, with no position twice and
    no zero value, so equal matrices have equal arrays.  `values` is int64
    when every entry is below 2^62 in absolute value and dtype object
    (Python ints) otherwise.  Arithmetic is vectorised and exact: a
    product runs in int64 only after an exact bound on its entries and
    partial sums is below 2^62, and otherwise the same code runs on
    Python ints; the sum of two int64 entries is below 2^63 and so never
    wraps.
    """

    __slots__ = ("rows", "cols", "row_idx", "col_idx", "values")

    def __init__(self, rows, cols, data=None):
        """`data` maps (row, col) to an integer; zero values are dropped."""
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimensions")
        data = data or {}
        n = len(data)
        pos = np.fromiter(itertools.chain.from_iterable(data), dtype=np.int64, count=2 * n)
        r, c = pos[0::2], pos[1::2]
        try:
            values = np.fromiter(data.values(), dtype=np.int64, count=n)
        except OverflowError:
            values = np.fromiter((int(v) for v in data.values()), dtype=object, count=n)
        bad = (r < 0) | (r >= rows) | (c < 0) | (c >= cols)
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(f"entry ({r[i]},{c[i]}) outside {rows}x{cols}")
        self._set(rows, cols, *_canonical_coo(rows, cols, r, c, values))

    def _set(self, rows, cols, r, c, values):
        self.rows = rows
        self.cols = cols
        self.row_idx, self.col_idx, self.values = r, c, _normalized(values)
        for arr in (self.row_idx, self.col_idx, self.values):
            arr.flags.writeable = False

    @classmethod
    def _from_coo(cls, rows, cols, r, c, values, canonical=False):
        """A matrix from COO arrays; unless `canonical`, in any order and with
        repeated positions summed."""
        out = cls.__new__(cls)
        if not canonical:
            r, c, values = _canonical_coo(rows, cols, r, c, values)
        out._set(rows, cols, r, c, values)
        return out

    @classmethod
    def zero(cls, rows, cols):
        return cls(rows, cols)

    @classmethod
    def identity(cls, n):
        diag = np.arange(n)
        return cls._from_coo(n, n, diag, diag, np.ones(n, dtype=np.int64), canonical=True)

    @classmethod
    def from_rows(cls, rows_list, cols=None):
        rows = len(rows_list)
        if cols is None:
            cols = len(rows_list[0]) if rows else 0
        data = {}
        for i, row in enumerate(rows_list):
            if len(row) != cols:
                raise ValueError("ragged rows")
            for j, v in enumerate(row):
                if v:
                    data[(i, j)] = int(v)
        return cls(rows, cols, data)

    def entry(self, r, c):
        lo, hi = np.searchsorted(self.row_idx, (r, r + 1))
        j = lo + np.searchsorted(self.col_idx[lo:hi], c)
        return int(self.values[j]) if j < hi and self.col_idx[j] == c else 0

    def dense(self):
        out = np.zeros((self.rows, self.cols), dtype=self.values.dtype)
        out[self.row_idx, self.col_idx] = self.values
        return out.tolist()

    def column(self, c):
        hit = self.col_idx == c
        return dict(zip(self.row_idx[hit].tolist(), self.values[hit].tolist()))

    def submatrix(self, r0, r1, c0, c1):
        """The block of rows r0..r1-1 and columns c0..c1-1."""
        r, c = self.row_idx, self.col_idx
        hit = (r >= r0) & (r < r1) & (c >= c0) & (c < c1)
        return IntegerMatrix._from_coo(
            r1 - r0, c1 - c0, r[hit] - r0, c[hit] - c0, self.values[hit], canonical=True
        )

    # a column slice may start and end anywhere, unlike one of the
    # `IdentityKron` and `FaceDifference` records
    column_unit = 1

    def column_slices(self):
        """A function (c0, c1) -> columns c0..c1-1, for many slices: each
        slice's entries are found by a binary search in one column order,
        made at the first slice that is not the whole matrix, not by a
        pass over every entry, and are put back in row-major order by
        sorting their positions."""
        order = None

        def column_slice(c0, c1):
            nonlocal order
            if (c0, c1) == (0, self.cols):
                return self
            if order is None:
                order = np.argsort(self.col_idx, kind="stable")
            lo, hi = np.searchsorted(self.col_idx, (c0, c1), sorter=order)
            picked = np.sort(order[lo:hi])
            return IntegerMatrix._from_coo(
                self.rows, c1 - c0, self.row_idx[picked], self.col_idx[picked] - c0,
                self.values[picked], canonical=True,
            )

        return column_slice

    def row_slice(self, r0, r1):
        """Rows r0..r1-1, a contiguous range of the entries."""
        lo, hi = np.searchsorted(self.row_idx, (r0, r1))
        return IntegerMatrix._from_coo(
            r1 - r0, self.cols, self.row_idx[lo:hi] - r0, self.col_idx[lo:hi], self.values[lo:hi],
            canonical=True,
        )

    def rows_at(self, rows):
        """The matrix of the given rows, ascending and distinct, in that
        order: each row's entries are a contiguous range of the entries."""
        ptr = np.searchsorted(self.row_idx, np.arange(self.rows + 1))
        lo, n = ptr[rows], ptr[rows + 1] - ptr[rows]
        idx = np.repeat(lo - np.cumsum(n) + n, n) + np.arange(n.sum())
        return IntegerMatrix._from_coo(
            len(rows), self.cols, np.repeat(np.arange(len(rows)), n), self.col_idx[idx],
            self.values[idx], canonical=True,
        )

    @property
    def shape(self):
        return (self.rows, self.cols)

    @property
    def nnz(self):
        return len(self.values)

    def is_zero(self):
        return not len(self.values)

    def transpose(self):
        return IntegerMatrix._from_coo(self.cols, self.rows, self.col_idx, self.row_idx, self.values)

    def __eq__(self, other):
        return (
            isinstance(other, IntegerMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and np.array_equal(self.row_idx, other.row_idx)
            and np.array_equal(self.col_idx, other.col_idx)
            and np.array_equal(self.values, other.values)
        )

    def __hash__(self):
        return hash(
            (self.rows, self.cols, self.row_idx.tobytes(), self.col_idx.tobytes(), tuple(self.values.tolist()))
        )

    def __add__(self, other):
        """The exact sum, by a merge of the two canonical operands: each
        entry of other is placed among self's by a binary search of its
        row-major key, equal positions are summed and zeros dropped, and
        nothing is sorted.  Where other adds no position and no sum
        cancels, the sum shares self's index arrays."""
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in matrix addition")
        if not other.nnz:
            return self
        if not self.nnz:
            return other
        cols = self.cols
        key = self.row_idx * cols + self.col_idx
        other_key = other.row_idx * cols + other.col_idx
        at = np.searchsorted(key, other_key)
        # past the end, clipping reads self's last key, which is smaller
        same = key.take(at, mode="clip") == other_key
        del key, other_key
        # two int64 entries sum below 2^63, so int64 stays exact
        values = self.values.astype(np.result_type(self.values, other.values))
        values[at[same]] += other.values[same]
        new = ~same
        at = at[new]
        kept = values != 0
        dropped = np.flatnonzero(~kept)
        if not len(at) and not len(dropped):
            return IntegerMatrix._from_coo(
                self.rows, cols, self.row_idx, self.col_idx, values, canonical=True
            )
        # other's new entry j goes after the kept entries of self before at[j]
        # and after other's new entries before j
        if len(dropped):
            at -= np.searchsorted(dropped, at)
        at += np.arange(len(at))
        from_self = np.ones(len(at) + len(values) - len(dropped), dtype=bool)
        from_self[at] = False

        def merged(mine, theirs):
            out = np.empty(len(from_self), dtype=np.result_type(mine, theirs))
            out[from_self] = mine[kept] if len(dropped) else mine
            out[at] = theirs[new]
            return out

        return IntegerMatrix._from_coo(
            self.rows, cols,
            merged(self.row_idx, other.row_idx),
            merged(self.col_idx, other.col_idx),
            merged(values, other.values),
            canonical=True,
        )

    def __neg__(self):
        return IntegerMatrix._from_coo(
            self.rows, self.cols, self.row_idx, self.col_idx, -self.values, canonical=True
        )

    def __sub__(self, other):
        return self + (-other)

    def scale(self, k):
        if k == 0:
            return IntegerMatrix.zero(self.rows, self.cols)
        dtype = np.int64 if abs(k) * _abs_max(self.values) < _INT64_BOUND else object
        return IntegerMatrix._from_coo(
            self.rows, self.cols, self.row_idx, self.col_idx,
            self.values.astype(dtype, copy=False) * k, canonical=True,
        )

    def __matmul__(self, other):
        """The exact product with an `IntegerMatrix`, an `IdentityKron` or a
        `FaceDifference`.

        The terms, one per pair of a left entry (i, k) and an entry of
        row k of the right factor, are expanded at once, then sorted and
        summed (see `_product`)."""
        if isinstance(other, (IntegerMatrix, IdentityKron, FaceDifference)):
            if self.cols != other.rows:
                raise ValueError(
                    f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}"
                )
            if not isinstance(other, IntegerMatrix):
                # applied here rather than through Python's reflected @,
                # so that each product is one call of this method
                return other.__rmatmul__(self)
            return _product(self, other)
        return NotImplemented

    def kron(self, other):
        """The Kronecker product: entry (i * other.rows + k, j * other.cols + l)
        is self[i, j] * other[k, l]; int64 only when max|self| x max|other|
        < 2^62."""
        big = self.values.dtype == object or other.values.dtype == object
        dtype = object if big or _abs_max(self.values) * _abs_max(other.values) >= _INT64_BOUND else np.int64
        # the product of entry i of self (row a) and entry j of other (row b)
        # goes to its row-major place, no sort needed: after the entries of
        # self's rows before a times all of other, then row a of self times
        # other's rows before b, then the earlier pairs of (row a, row b)
        a_ptr = np.searchsorted(self.row_idx, np.arange(self.rows + 1))
        b_ptr = np.searchsorted(other.row_idx, np.arange(other.rows + 1))
        a_start, b_start = a_ptr[self.row_idx], b_ptr[other.row_idx]
        a_len = a_ptr[self.row_idx + 1] - a_start
        b_len = b_ptr[other.row_idx + 1] - b_start
        i, j = np.arange(len(self.values)), np.arange(len(other.values))
        place = (
            (a_start * len(j))[:, None]
            + a_len[:, None] * b_start
            + (i - a_start)[:, None] * b_len
            + (j - b_start)
        ).ravel()
        out = []
        for term in (
            self.row_idx[:, None] * other.rows + other.row_idx,
            self.col_idx[:, None] * other.cols + other.col_idx,
            self.values.astype(dtype)[:, None] * other.values.astype(dtype),
        ):
            arr = np.empty(place.size, dtype=term.dtype)
            arr[place] = term.ravel()
            out.append(arr)
        return IntegerMatrix._from_coo(
            self.rows * other.rows, self.cols * other.cols, *out, canonical=True
        )

    def vstack(self, other):
        return IntegerMatrix.stacked([self, other], self.cols)

    @classmethod
    def stacked(cls, blocks, cols):
        """The matrices of `blocks`, each `cols` wide, one below the other."""
        blocks = list(blocks)
        if any(m.cols != cols for m in blocks):
            raise ValueError("column mismatch in vstack")
        offsets = np.cumsum([0] + [m.rows for m in blocks])
        empty = np.zeros(0, dtype=np.int64)
        return cls._from_coo(
            int(offsets[-1]),
            cols,
            np.concatenate([empty] + [m.row_idx + off for m, off in zip(blocks, offsets.tolist())]),
            np.concatenate([empty] + [m.col_idx for m in blocks]),
            np.concatenate([empty] + [m.values for m in blocks]),
            canonical=True,
        )

    def to_numpy_mod(self, m):
        """Dense int64 array of the entries reduced into [0, m)."""
        out = np.zeros((self.rows, self.cols), dtype=np.int64)
        out[self.row_idx, self.col_idx] = self.values % m
        return out

    def __repr__(self):
        return f"IntegerMatrix({self.rows}x{self.cols}, nnz={self.nnz})"


def _identity_columns(n, c0, c1):
    """Columns c0..c1-1 of the n x n identity."""
    return IntegerMatrix._from_coo(
        n, c1 - c0, np.arange(c0, c1), np.arange(c1 - c0), np.ones(c1 - c0, dtype=np.int64),
        canonical=True,
    )


def _product(left, right, inner=1):
    """left @ (right (x) I_inner), exact: `_product_terms`, sorted and summed."""
    cols = right.cols * inner
    key, terms = _product_terms(
        (left.row_idx, left.col_idx, left.values), (right.row_idx, right.col_idx, right.values),
        right.rows, cols, inner,
    )
    return IntegerMatrix._from_coo(left.rows, cols, *_canonical_keys(cols, key, terms), canonical=True)


@dataclass(frozen=True, eq=False)
class IdentityKron:
    """The Kronecker product I_outer (x) factor (x) I_inner, held by its
    factor alone.

    Its products with an `IntegerMatrix` on either side relabel the COO
    indices around one product with `factor`, and are exactly equal to
    the products with the explicit Kronecker product, which is never
    formed.  It has no arithmetic of its own beyond these products and
    its row and column slices."""

    outer: int
    factor: IntegerMatrix
    inner: int

    @property
    def rows(self):
        return self.outer * self.factor.rows * self.inner

    @property
    def cols(self):
        return self.outer * self.factor.cols * self.inner

    @property
    def nnz(self):
        return self.outer * self.factor.nnz * self.inner

    @property
    def column_unit(self):
        """Column slices start and end at multiples of this: whole copies
        of the identity I_inner when outer is 1, else anywhere."""
        return self.inner if self.outer == 1 else 1

    def column_slices(self):
        """A function (c0, c1) -> columns c0..c1-1, for many slices.

        When outer is 1, c0 and c1 are multiples of `column_unit` and the
        slice is a record: the factor's columns c0 / inner..c1 / inner,
        from the factor's own `column_slices`, (x) I_inner.  Otherwise they
        may be anywhere and the slice is explicit, as only a block of
        columns wide ever is: column (a, j, k), a outer and k inner, holds
        column j of the factor at rows (a, i, k), found by the factor's
        column pointers, made once here."""
        B, n = self.factor, self.inner
        if self.outer == 1:
            factor_slice = B.column_slices()

            def column_slice(c0, c1):
                if (c0, c1) == (0, self.cols):
                    return self
                if c0 % n or c1 % n:
                    raise ValueError(f"columns {c0}..{c1} of I (x) B (x) I_{n} split a copy")
                return IdentityKron(1, factor_slice(c0 // n, c1 // n), n)

            return column_slice
        order = np.argsort(B.col_idx, kind="stable")
        ptr = np.searchsorted(B.col_idx, np.arange(B.cols + 1), sorter=order)

        def column_slice(c0, c1):
            if (c0, c1) == (0, self.cols):
                return self
            a, rest = np.divmod(np.arange(c0, c1), B.cols * n)
            j, k = np.divmod(rest, n)
            count = ptr[j + 1] - ptr[j]
            idx = order[np.repeat(ptr[j] - np.cumsum(count) + count, count) + np.arange(count.sum())]
            return IntegerMatrix._from_coo(
                self.rows, c1 - c0,
                (np.repeat(a * B.rows, count) + B.row_idx[idx]) * n + np.repeat(k, count),
                np.repeat(np.arange(c1 - c0), count), B.values[idx],
            )

        return column_slice

    def row_slice(self, r0, r1):
        """Rows r0..r1-1, at any offset, as the explicit matrix
        I[r0:r1, :] @ self."""
        return _identity_columns(self.rows, r0, r1).transpose() @ self

    def __matmul__(self, other):
        """self @ other: row (a, j, c) of other, a outer and c inner, is
        entry (j, (a, c, col)) of a matrix with factor.cols rows; the factor
        times it holds entry ((a, i, c), col) of the product at (i, (a, c,
        col)).  Both relabellings keep the row-major order when outer is 1,
        and otherwise cost a sort."""
        if not isinstance(other, IntegerMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        B, n, m = self.factor, self.inner, other.cols
        in_order = self.outer == 1
        a, rest = np.divmod(other.row_idx, B.cols * n)
        j, c = np.divmod(rest, n)
        moved = IntegerMatrix._from_coo(
            B.cols, self.outer * n * m, j, (a * n + c) * m + other.col_idx, other.values,
            canonical=in_order,
        )
        out = B @ moved
        q, col = np.divmod(out.col_idx, m)
        a, c = np.divmod(q, n)
        return IntegerMatrix._from_coo(
            self.rows, m, (a * B.rows + out.row_idx) * n + c, col, out.values, canonical=in_order
        )

    def __rmatmul__(self, other):
        """other @ self: column (a, rest) of other, a outer, is column rest
        of row (row, a) of a matrix with other.rows * outer rows, which
        times factor (x) I_inner gives row (row, a) of the product; both
        relabellings keep the row-major order, so nothing is sorted."""
        if not isinstance(other, IntegerMatrix):
            return NotImplemented
        B, o = self.factor, self.outer
        a, rest = np.divmod(other.col_idx, B.rows * self.inner)
        moved = IntegerMatrix._from_coo(
            other.rows * o, B.rows * self.inner, other.row_idx * o + a, rest, other.values,
            canonical=True,
        )
        out = _product(moved, B, self.inner)
        row, a = np.divmod(out.row_idx, o)
        return IntegerMatrix._from_coo(
            other.rows, self.cols, row, a * out.cols + out.col_idx, out.values, canonical=True
        )


@dataclass(frozen=True, eq=False)
class FaceDifference:
    """The matrix with `rows` rows whose column c is e_twisted[c] -
    e_(c mod rows), held by its twisted index map alone: the plain face c
    mod rows is computed, not stored.  The number of columns is
    len(twisted), a multiple of rows.

    Its products with an `IntegerMatrix` on either side relabel indices,
    around at most one product with the one-entry-per-column matrix of
    the twisted map, and are exactly equal to the products with the
    explicit matrix, which is never formed.  It has no arithmetic of its
    own beyond these products."""

    rows: int
    twisted: np.ndarray

    def __post_init__(self):
        if self.rows < 1 or self.cols % self.rows:
            raise ValueError(f"{self.cols} columns are not whole copies of {self.rows} rows")

    @property
    def cols(self):
        return len(self.twisted)

    @property
    def nnz(self):
        return 2 * int(np.count_nonzero(self.twisted != np.arange(self.cols) % self.rows))

    @property
    def column_unit(self):
        """Column slices start and end at multiples of this, so that the
        plain face of a slice's column c is still c mod rows."""
        return self.rows

    def column_slices(self):
        """A function (c0, c1) -> columns c0..c1-1, both multiples of
        `rows`."""

        def column_slice(c0, c1):
            if c0 % self.rows or c1 % self.rows:
                raise ValueError(f"columns {c0}..{c1} split a copy of the plain face")
            return FaceDifference(self.rows, self.twisted[c0:c1])

        return column_slice

    def __matmul__(self, other):
        """self @ other: row c of other goes to row twisted[c] and, negated,
        to row c mod rows; one sort sums them.  An entry of the result sums
        at most 2 cols entries of other, which bounds it for int64."""
        if not isinstance(other, IntegerMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        values = other.values
        if 2 * self.cols * _abs_max(values) >= _INT64_BOUND:
            values = values.astype(object)
        # the keys row * cols + col of both terms, built in int64 in one
        # array, whatever the dtype of the codes
        n = other.nnz
        key = np.empty(2 * n, dtype=np.int64)
        key[:n] = self.twisted[other.row_idx]
        np.remainder(other.row_idx, self.rows, out=key[n:])
        key *= other.cols
        key[:n] += other.col_idx
        key[n:] += other.col_idx
        return IntegerMatrix._from_coo(
            self.rows, other.cols,
            *_canonical_keys(other.cols, key, np.concatenate((values, -values))), canonical=True,
        )

    def __rmatmul__(self, other):
        """other @ self: column c is other's column twisted[c] minus its
        column c mod rows, that is the terms of the product with the map
        c -> twisted[c] and of -other tiled cols / rows times, summed by one
        sort; a position gets at most one term of each: no int64 sum wraps."""
        if not isinstance(other, IntegerMatrix):
            return NotImplemented
        cols = self.cols
        by_row = np.argsort(self.twisted, kind="stable")
        key, picked = _product_terms(
            (other.row_idx, other.col_idx, other.values),
            (self.twisted[by_row], by_row, np.ones(cols, dtype=np.int64)), self.rows, cols,
        )
        tiles = np.arange(0, cols, self.rows)
        tiled = (other.row_idx * cols + other.col_idx)[:, None] + tiles
        r, c, values = _canonical_keys(
            cols,
            np.concatenate((key, tiled.ravel())),
            np.concatenate((picked, np.repeat(-other.values, len(tiles)))),
        )
        return IntegerMatrix._from_coo(other.rows, cols, r, c, values, canonical=True)


def _canonical_coo(rows, cols, r, c, values):
    """Row-major order, repeated positions summed, zeros dropped."""
    if not len(values):
        return r, c, values
    return _canonical_keys(cols, r * cols + c, values)


def _canonical_keys(cols, key, values):
    """`_canonical_coo` of the entries at the positions key = row * cols +
    col, returned as (row_idx, col_idx, values)."""
    if not (key[1:] > key[:-1]).all():
        order = np.argsort(key, kind="stable")
        key, values = key[order], values[order]
        del order
        firsts = _run_starts(key)
        if len(firsts) < len(key):
            key, values = key[firsts], np.add.reduceat(values, firsts)
    nonzero = values != 0
    r, c = np.divmod(key[nonzero], cols)
    return r, c, values[nonzero]


def block_matrix(blocks, row_sizes, col_sizes):
    """Assemble a matrix from a dict (block_row, block_col) -> IntegerMatrix."""
    row_off = np.concatenate(([0], np.cumsum(row_sizes, dtype=np.int64)))
    col_off = np.concatenate(([0], np.cumsum(col_sizes, dtype=np.int64)))
    parts = [(np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0, np.int64))]
    for (bi, bj), M in blocks.items():
        if M is None:
            continue
        if M.rows != row_sizes[bi] or M.cols != col_sizes[bj]:
            raise ValueError(f"block ({bi},{bj}) has wrong shape")
        parts.append((M.row_idx + row_off[bi], M.col_idx + col_off[bj], M.values))
    r, c, values = (np.concatenate(arrs) for arrs in zip(*parts))
    return IntegerMatrix._from_coo(int(row_off[-1]), int(col_off[-1]), r, c, values)


# ---------------------------------------------------------------------------
# Finitely generated abelian groups
# ---------------------------------------------------------------------------


def _normalize_cyclic_orders(orders):
    """Invariant factors of a direct sum of cyclic groups Z/o (o = 0 means Z)."""
    free = sum(1 for o in orders if o == 0)
    primes = {}
    for o in orders:
        if o in (0, 1):
            continue
        if o < 0:
            raise ValueError("negative cyclic order")
        for p, e in modular.factorize(o):
            primes.setdefault(p, []).append(p**e)
    for p in primes:
        primes[p].sort(reverse=True)
    depth = max((len(v) for v in primes.values()), default=0)
    factors = []
    for i in range(depth):
        f = 1
        for p in primes:
            if i < len(primes[p]):
                f *= primes[p][i]
        factors.append(f)
    factors.reverse()
    return tuple(factors) + (0,) * free


@dataclass(frozen=True)
class FinAbGroup:
    """F.g. abelian group as an invariant-factor list.

    `factors` is ordered, each positive factor divides the next positive
    one, factors equal to 1 are dropped, and 0 denotes an infinite
    cyclic summand (trailing by convention).
    """

    factors: tuple

    def __post_init__(self):
        fs = tuple(int(f) for f in self.factors)
        object.__setattr__(self, "factors", fs)
        pos = [f for f in fs if f > 0]
        for f in fs:
            if f < 0:
                raise ValueError("negative invariant factor")
            if f == 1:
                raise ValueError("trivial factor 1 must be dropped")
        for a, b in zip(pos, pos[1:]):
            if b % a != 0:
                raise ValueError(f"divisibility chain violated: {a} does not divide {b}")
        seen_zero = False
        for f in fs:
            if f == 0:
                seen_zero = True
            elif seen_zero:
                raise ValueError("free factors must come last")

    @classmethod
    def from_cyclic_orders(cls, orders):
        return cls(_normalize_cyclic_orders(list(orders)))

    @property
    def is_trivial(self):
        return not self.factors

    @property
    def is_finite(self):
        return all(f > 0 for f in self.factors)

    def order(self):
        if not self.is_finite:
            return None
        n = 1
        for f in self.factors:
            n *= f
        return n

    def zero(self):
        return GroupElement(self, (0,) * len(self.factors))

    def element(self, coords):
        return GroupElement(self, tuple(coords))

    def elements(self):
        if not self.is_finite:
            raise ValueError("cannot enumerate an infinite group")
        for coords in itertools.product(*(range(f) for f in self.factors)):
            yield GroupElement(self, coords)

    def direct_sum(self, other):
        return FinAbGroup.from_cyclic_orders(self.factors + other.factors)

    def prime_power_coordinates(self):
        """Split a finite group into cyclic summands of prime-power order.

        Returns a list of (p, k, factor_index, embed) where embed is the
        multiplier realising Z/p^k inside Z/factor by CRT.  The mod-p^k
        engine that reads them has nothing for a free factor, so one is a
        resource limit.
        """
        if not self.is_finite:
            raise modular.ResourceLimitError(
                f"{self} is not finite: the mod-p^k engine needs finite coefficients"
            )
        return [
            (p, e, idx, _crt_embed(f, p**e))
            for idx, f in enumerate(self.factors)
            for p, e in modular.factorize(f)
        ]

    def __str__(self):
        if not self.factors:
            return "0"
        parts = [f"Z/{f}" if f else "Z" for f in self.factors]
        return " + ".join(parts)


def _crt_embed(m, q):
    """Multiplier e with e = 1 mod q, e = 0 mod m/q (q a prime power, q || m)."""
    rest = m // q
    return (rest * pow(rest, -1, q)) % m


@dataclass(frozen=True)
class GroupElement:
    group: FinAbGroup
    coords: tuple

    def __post_init__(self):
        if len(self.coords) != len(self.group.factors):
            raise ValueError("coordinate length mismatch")
        coords = tuple(
            c % f if f else int(c) for c, f in zip(self.coords, self.group.factors)
        )
        object.__setattr__(self, "coords", coords)

    def __add__(self, other):
        if other.group != self.group:
            raise ValueError("elements of different groups")
        return GroupElement(
            self.group, tuple(a + b for a, b in zip(self.coords, other.coords))
        )

    def __neg__(self):
        return GroupElement(self.group, tuple(-a for a in self.coords))

    def __sub__(self, other):
        return self + (-other)

    def __rmul__(self, n):
        return GroupElement(self.group, tuple(n * a for a in self.coords))

    @property
    def is_zero(self):
        return all(c == 0 for c in self.coords)

    def __str__(self):
        return "(" + ",".join(str(c) for c in self.coords) + ")"


def torsion_and_quotient(gamma, r):
    """(G_r, G/rG) for G = gamma: the r-torsion subgroup and the mod-r quotient.

    For a cyclic factor Z/m both contribute Z/gcd(m, r); a Z factor
    contributes nothing to the torsion part and Z/r to the quotient.
    """
    if r < 1:
        raise ValueError("r must be a positive integer")
    torsion = []
    quotient = []
    for f in gamma.factors:
        if f == 0:
            quotient.append(r)
        else:
            g = math.gcd(f, r)
            torsion.append(g)
            quotient.append(g)
    return (
        FinAbGroup.from_cyclic_orders(torsion),
        FinAbGroup.from_cyclic_orders(quotient),
    )


# ---------------------------------------------------------------------------
# Presented modules and Hom(-, G) cohomology
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PresentedModule:
    """Abelian group given by generators and integer relations.

    Each row of `relations` is one relation among the `ngens`
    generators.
    """

    ngens: int
    relations: IntegerMatrix

    def __post_init__(self):
        if self.relations.cols != self.ngens:
            raise ValueError("relation matrix must have one column per generator")

    @classmethod
    def free(cls, ngens):
        return cls(ngens, IntegerMatrix.zero(0, ngens))


@dataclass(frozen=True)
class RowBlocks:
    """A matrix held as the row blocks it is made of, which `make()`
    makes again on every call: an iterator of `IntegerMatrix` blocks,
    each `cols` wide, whose rows in order are the matrix's `rows` rows.
    A pass over them holds one block at a time, so a matrix too large to
    hold is still read in full."""

    rows: int
    cols: int
    make: object  # () -> iterator of IntegerMatrix

    @classmethod
    def of(cls, matrix):
        """A matrix that is held, as its one block."""
        return cls(matrix.rows, matrix.cols, lambda: iter((matrix,)))

    def matrix(self):
        """Every row, in one matrix."""
        return IntegerMatrix.stacked(self.make(), self.cols)


@dataclass
class HomCohomologyResult:
    group: FinAbGroup
    # one (order, cochain) per cyclic summand, of prime-power order; cochain
    # is an (ngen, r) array of Python ints (dtype object): one row of
    # coordinates in gamma's r invariant factors per generator of the domain
    summands: list = field(default_factory=list)


def hom_cohomology_at(chain, n, gamma):
    """H^n of Hom(chain, gamma), gamma finite, with a representative
    cochain per cyclic summand.

    Reads X_n with its relations, d_{n+1} and d_n (if any): the cocycles
    come from `cocycle_kernels` on the condition rows that
    `chain.cocycle_rows(n)` makes, X_n's relations over d_{n+1}^T; the
    coboundaries are the rows of d_n, which needs X_{n-1} free: a chain
    whose X_{n-1} has relations is refused (no complex the program builds
    has any).  d o d = 0 is checked where each complex is built, not
    here.  A free factor of gamma is a resource limit (see
    `FinAbGroup.prime_power_coordinates`).
    """
    below = chain.modules.get(n - 1)
    if below is not None and not below.relations.is_zero():
        raise ValueError(f"X_{n - 1} has relations: its functionals are not the rows of d_{n}")
    d_n = chain.diff.get(n)
    ngen, r = chain.rank(n), len(gamma.factors)

    def quotient(coord, kd):
        p, k, fidx, embed = coord
        b_rows = [] if d_n is None else d_n.to_numpy_mod(p**k)
        parts = []
        for order, vec in zip(*modular.quotient_mod_pk(kd, b_rows, p, k)):
            cochain = np.zeros((ngen, r), dtype=object)
            cochain[:, fidx] = np.asarray(vec, dtype=object) * embed % gamma.factors[fidx]
            parts.append((order, cochain))
        return parts

    summands = [s for parts in cocycle_kernels(chain.cocycle_rows(n), gamma, quotient) for s in parts]
    group = FinAbGroup.from_cyclic_orders([order for order, _ in summands])
    return HomCohomologyResult(group, summands)


# `cocycle_kernels` eliminates a sample of this many rows per column
# first, drawn by random.Random(SAMPLE_SEED)
SAMPLE_PER_COLUMN = 3
SAMPLE_SEED = 0


def cocycle_kernels(rows, gamma, visit):
    """[visit(coord, kernel) for each prime-power coordinate coord = (p,
    k, factor index, embed) of gamma], kernel the `modular.KernelData` of
    the kernel over Z/p^k of the condition matrix given by its
    `RowBlocks` `rows`.

    Each prime is eliminated once, at its largest power p^K in gamma,
    and each Z/p^k takes a truncation.  The elimination reads a sample
    of the rows (`_row_sample`, the same for every prime) and certifies
    the rest against it: with K1 the sample's kernel, ker A = K1 as soon
    as every row of A vanishes on K1's generators mod p^K (over Z/p^K a
    submodule is the annihilator of its annihilator, so such a row is
    in the sample's row span).  The rows that do not are added to the
    sample, which is eliminated once more; its kernel lies in K1, so
    every row that passed still vanishes on it, and it is ker A.  A
    prime's kernel is dropped before the next prime is eliminated, so
    visit's results must not hold it.
    """
    coords = gamma.prime_power_coordinates()
    results = [None] * len(coords)
    sample = None
    for p in dict.fromkeys(coord[0] for coord in coords):
        if sample is None:
            sample, complete = _row_sample(rows, SAMPLE_PER_COLUMN * rows.cols)
        at_p = [i for i, coord in enumerate(coords) if coord[0] == p]
        kd = _certified_kernel(rows, sample, complete, p, max(coords[i][1] for i in at_p))
        for i in at_p:
            results[i] = visit(coords[i], kd.truncate(coords[i][1]))
        del kd
    return results


def _row_sample(rows, size):
    """(sample, complete): `size` of the rows, drawn without repeats by
    `random.Random(SAMPLE_SEED)` so that they spread over all the rows,
    and kept in their order; every row, and complete true, when there
    are no more.  A stretch of consecutive rows would not do: they share
    their structure, and the first 6000 of 90334 condition rows at
    v = 32 have rank 930 of 1890."""
    if rows.rows <= size:
        return rows.matrix(), True
    picked = np.array(sorted(random.Random(SAMPLE_SEED).sample(range(rows.rows), size)), dtype=np.int64)
    parts, start = [], 0
    for block in rows.make():
        lo, hi = np.searchsorted(picked, (start, start + block.rows))
        parts.append(block.rows_at(picked[lo:hi] - start))
        start += block.rows
    return IntegerMatrix.stacked(parts, rows.cols), False


def _certified_kernel(rows, sample, complete, p, k):
    """The `KernelData` over Z/p^k of the whole matrix of `rows`: that of
    the sample when it is complete, has no kernel or every row vanishes
    on its kernel's generators; else that of the sample and the rows
    that do not, eliminated once more (see `cocycle_kernels`)."""
    kd = modular.kernel_mod_pk(sample, p, k)
    if complete or not len(kd.orders):
        return kd
    failed = []
    for block in rows.make():
        off = modular.rows_off_kernel(block.row_idx, block.col_idx, block.values, kd.gens, p**k)
        if len(off):
            failed.append(block.rows_at(off))
    if not failed:
        return kd
    del kd
    return modular.kernel_mod_pk(IntegerMatrix.stacked([sample, *failed], rows.cols), p, k)
