"""Exact integer linear algebra and finitely generated abelian groups.

Everything downstream reduces to integer matrices: presentations of
finitely generated abelian groups, Smith normal form, and cohomology of
Hom(-, G) complexes.  Matrices are stored sparsely (dict keyed by
(row, col)) because the chain-level differentials are very sparse, but
all arithmetic is exact Python-int arithmetic.  Heavy kernel/quotient
computations with finite cyclic coefficients are delegated to the
vectorised mod-p^k engine in `modular`.

Conventions:
  * a matrix M with shape (rows, cols) represents a map sending the
    j-th generator of the source to the column vector M[:, j];
    composition is matrix multiplication.
  * a relation matrix has one relation per ROW, one column per
    generator, matching PresentedModule.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import modular


class InconsistentComplexError(ValueError):
    """Raised when maps handed to a (co)homology computation do not compose to zero."""


def xgcd(a, b):
    """Return (g, x, y) with g = gcd(a, b) >= 0 and x*a + y*b = g."""
    x, next_x = 1, 0
    y, next_y = 0, 1
    g, next_g = a, b
    while next_g:
        q = g // next_g
        x, next_x = next_x, x - q * next_x
        y, next_y = next_y, y - q * next_y
        g, next_g = next_g, g - q * next_g
    if g < 0:
        x, y, g = -x, -y, -g
    return g, x, y


class IntegerMatrix:
    """Immutable-by-convention sparse matrix over the integers."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows, cols, data=None):
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimensions")
        self.rows = rows
        self.cols = cols
        self.data = {}
        if data:
            for (r, c), v in data.items():
                if v:
                    if not (0 <= r < rows and 0 <= c < cols):
                        raise ValueError(f"entry ({r},{c}) outside {rows}x{cols}")
                    self.data[(r, c)] = v

    @classmethod
    def zero(cls, rows, cols):
        return cls(rows, cols)

    @classmethod
    def identity(cls, n):
        return cls(n, n, {(i, i): 1 for i in range(n)})

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

    @classmethod
    def from_columns(cls, cols_list, rows=None):
        cols = len(cols_list)
        if rows is None:
            rows = len(cols_list[0]) if cols else 0
        data = {}
        for j, col in enumerate(cols_list):
            if len(col) != rows:
                raise ValueError("ragged columns")
            for i, v in enumerate(col):
                if v:
                    data[(i, j)] = int(v)
        return cls(rows, cols, data)

    def entry(self, r, c):
        return self.data.get((r, c), 0)

    def dense(self):
        out = [[0] * self.cols for _ in range(self.rows)]
        for (r, c), v in self.data.items():
            out[r][c] = v
        return out

    def column(self, c):
        return {r: v for (r, cc), v in self.data.items() if cc == c}

    def columns(self):
        """Entries grouped by column: list of dicts row -> value."""
        cols = [dict() for _ in range(self.cols)]
        for (r, c), v in self.data.items():
            cols[c][r] = v
        return cols

    @property
    def nnz(self):
        return len(self.data)

    def is_zero(self):
        return not self.data

    def transpose(self):
        return IntegerMatrix(
            self.cols, self.rows, {(c, r): v for (r, c), v in self.data.items()}
        )

    def __eq__(self, other):
        return (
            isinstance(other, IntegerMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.rows, self.cols, frozenset(self.data.items())))

    def __add__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in matrix addition")
        data = dict(self.data)
        for k, v in other.data.items():
            w = data.get(k, 0) + v
            if w:
                data[k] = w
            elif k in data:
                del data[k]
        return IntegerMatrix(self.rows, self.cols, data)

    def __neg__(self):
        return IntegerMatrix(
            self.rows, self.cols, {k: -v for k, v in self.data.items()}
        )

    def __sub__(self, other):
        return self + (-other)

    def scale(self, k):
        if k == 0:
            return IntegerMatrix.zero(self.rows, self.cols)
        return IntegerMatrix(
            self.rows, self.cols, {key: k * v for key, v in self.data.items()}
        )

    def __matmul__(self, other):
        if isinstance(other, IntegerMatrix):
            if self.cols != other.rows:
                raise ValueError(
                    f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}"
                )
            by_col = {}
            for (r, c), v in self.data.items():
                by_col.setdefault(c, []).append((r, v))
            data = {}
            for (r, c), v in other.data.items():
                for i, w in by_col.get(r, ()):
                    k = (i, c)
                    s = data.get(k, 0) + w * v
                    if s:
                        data[k] = s
                    elif k in data:
                        del data[k]
            return IntegerMatrix(self.rows, other.cols, data)
        return NotImplemented

    def apply(self, vec):
        """Matrix times a dense integer vector (length = cols)."""
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        out = [0] * self.rows
        for (r, c), v in self.data.items():
            x = vec[c]
            if x:
                out[r] += v * x
        return out

    def vstack(self, other):
        if self.cols != other.cols:
            raise ValueError("column mismatch in vstack")
        data = dict(self.data)
        for (r, c), v in other.data.items():
            data[(r + self.rows, c)] = v
        return IntegerMatrix(self.rows + other.rows, self.cols, data)

    def to_numpy_mod(self, m):
        """Dense int64 array of the entries reduced into [0, m)."""
        out = np.zeros((self.rows, self.cols), dtype=np.int64)
        for (r, c), v in self.data.items():
            out[r, c] = v % m
        return out

    def power(self, n):
        if self.rows != self.cols:
            raise ValueError("power of a non-square matrix")
        result = IntegerMatrix.identity(self.rows)
        for _ in range(n):
            result = result @ self
        return result

    def __repr__(self):
        return f"IntegerMatrix({self.rows}x{self.cols}, nnz={self.nnz})"


def block_matrix(blocks, row_sizes, col_sizes):
    """Assemble a matrix from a dict (block_row, block_col) -> IntegerMatrix."""
    row_off = [0]
    for s in row_sizes:
        row_off.append(row_off[-1] + s)
    col_off = [0]
    for s in col_sizes:
        col_off.append(col_off[-1] + s)
    data = {}
    for (bi, bj), M in blocks.items():
        if M is None:
            continue
        if M.rows != row_sizes[bi] or M.cols != col_sizes[bj]:
            raise ValueError(f"block ({bi},{bj}) has wrong shape")
        ro, co = row_off[bi], col_off[bj]
        for (r, c), v in M.data.items():
            data[(ro + r, co + c)] = v
    return IntegerMatrix(row_off[-1], col_off[-1], data)


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SmithDecomposition:
    """U @ M @ V = S with S diagonal, nonnegative, divisibility chain."""

    S: IntegerMatrix
    U: IntegerMatrix
    V: IntegerMatrix
    det_u: int
    det_v: int

    def diagonal(self):
        n = min(self.S.rows, self.S.cols)
        return [self.S.entry(i, i) for i in range(n)]


def smith_normal_form(M, check=True):
    """Smith normal form with unimodular transforms.

    Pivoting picks the minimal-absolute-value nonzero entry of the
    remaining submatrix, which keeps coefficient growth tame at the
    sizes we care about.  All arithmetic is arbitrary precision.
    """
    rows, cols = M.rows, M.cols
    D = M.dense()
    U = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    V = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]
    det_u = 1
    det_v = 1

    def swap_rows(i, j):
        nonlocal det_u
        if i != j:
            D[i], D[j] = D[j], D[i]
            U[i], U[j] = U[j], U[i]
            det_u = -det_u

    def swap_cols(i, j):
        nonlocal det_v
        if i != j:
            for row in D:
                row[i], row[j] = row[j], row[i]
            for row in V:
                row[i], row[j] = row[j], row[i]
            det_v = -det_v

    def add_row(src, dst, q):
        # row_dst += q * row_src
        Ds, Dd = D[src], D[dst]
        for c in range(cols):
            if Ds[c]:
                Dd[c] += q * Ds[c]
        Us, Ud = U[src], U[dst]
        for c in range(rows):
            if Us[c]:
                Ud[c] += q * Us[c]

    def add_col(src, dst, q):
        for row in D:
            if row[src]:
                row[dst] += q * row[src]
        for row in V:
            if row[src]:
                row[dst] += q * row[src]

    def negate_row(i):
        nonlocal det_u
        D[i] = [-x for x in D[i]]
        U[i] = [-x for x in U[i]]
        det_u = -det_u

    n = min(rows, cols)
    for k in range(n):
        # locate minimal |entry| pivot in the trailing submatrix
        pivot = None
        best = None
        for i in range(k, rows):
            Di = D[i]
            for j in range(k, cols):
                v = Di[j]
                if v:
                    a = abs(v)
                    if best is None or a < best:
                        best = a
                        pivot = (i, j)
                        if a == 1:
                            break
            if best == 1:
                break
        if pivot is None:
            break
        swap_rows(k, pivot[0])
        swap_cols(k, pivot[1])
        while True:
            # clear column k with row operations
            for i in range(k + 1, rows):
                if D[i][k]:
                    q = D[i][k] // D[k][k]
                    if q:
                        add_row(k, i, -q)
                    if D[i][k]:
                        # remainder became the smaller pivot
                        swap_rows(k, i)
            if any(D[i][k] for i in range(k + 1, rows)):
                continue
            # clear row k with column operations
            for j in range(k + 1, cols):
                if D[k][j]:
                    q = D[k][j] // D[k][k]
                    if q:
                        add_col(k, j, -q)
                    if D[k][j]:
                        swap_cols(k, j)
            if not any(D[k][j] for j in range(k + 1, cols)) and not any(
                D[i][k] for i in range(k + 1, rows)
            ):
                break

    # signs, then divisibility chain
    for k in range(n):
        if D[k][k] < 0:
            negate_row(k)
    changed = True
    while changed:
        changed = False
        for k in range(n - 1):
            a, b = D[k][k], D[k + 1][k + 1]
            if a and b % a != 0:
                changed = True
                # fold gcd(a, b) into position k:  diag(a, b) -> diag(g, a*b/g)
                add_col(k + 1, k, 1)
                while True:
                    for i in (k + 1,):
                        if D[i][k]:
                            q = D[i][k] // D[k][k]
                            if q:
                                add_row(k, i, -q)
                            if D[i][k]:
                                swap_rows(k, i)
                    if not D[k + 1][k]:
                        break
                if D[k][k + 1]:
                    q = D[k][k + 1] // D[k][k]
                    add_col(k, k + 1, -q)
                if D[k][k] < 0:
                    negate_row(k)
                if D[k + 1][k + 1] < 0:
                    negate_row(k + 1)
            elif a == 0 and b != 0:
                changed = True
                swap_rows(k, k + 1)
                swap_cols(k, k + 1)

    S = IntegerMatrix.from_rows(D, cols)
    Um = IntegerMatrix.from_rows(U, rows)
    Vm = IntegerMatrix.from_rows(V, cols)
    dec = SmithDecomposition(S, Um, Vm, det_u, det_v)
    if check:
        assert dec.det_u in (1, -1) and dec.det_v in (1, -1)
        if Um @ M @ Vm != S:
            raise AssertionError("Smith normal form verification failed")
        diag = dec.diagonal()
        for i in range(len(diag) - 1):
            if diag[i] and diag[i + 1] % diag[i] != 0:
                raise AssertionError("divisibility chain violated")
            if diag[i] == 0 and diag[i + 1] != 0:
                raise AssertionError("zero before nonzero on diagonal")
    return dec


def kernel_basis(M):
    """Columns (as lists) spanning the integer kernel {x : M @ x = 0}."""
    dec = smith_normal_form(M, check=False)
    diag = dec.diagonal()
    rank = sum(1 for d in diag if d)
    basis = []
    for j in range(M.cols):
        if j >= len(diag) or diag[j] == 0:
            if j >= rank:
                basis.append([dec.V.entry(i, j) for i in range(M.cols)])
    return basis


def solve(M, b):
    """One integer solution x of M @ x = b, or None.

    b is a dense list of length M.rows.
    """
    dec = smith_normal_form(M, check=False)
    c = dec.U.apply(b)
    diag = dec.diagonal()
    y = [0] * M.cols
    for i in range(M.rows):
        ci = c[i]
        if i < len(diag) and diag[i]:
            if ci % diag[i]:
                return None
            y[i] = ci // diag[i]
        elif ci:
            return None
    return dec.V.apply(y)


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

    @classmethod
    def trivial(cls):
        return cls(())

    @property
    def is_trivial(self):
        return not self.factors

    @property
    def is_finite(self):
        return all(f > 0 for f in self.factors)

    @property
    def rank(self):
        return sum(1 for f in self.factors if f == 0)

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
        coords = tuple(
            c % f if f else int(c) for c, f in zip(coords, self.factors)
        )
        if len(coords) != len(self.factors):
            raise ValueError("coordinate length mismatch")
        return GroupElement(self, coords)

    def elements(self):
        if not self.is_finite:
            raise ValueError("cannot enumerate an infinite group")
        for coords in itertools.product(*(range(f) for f in self.factors)):
            yield GroupElement(self, coords)

    def direct_sum(self, other):
        return FinAbGroup.from_cyclic_orders(self.factors + other.factors)

    def prime_power_coordinates(self):
        """Split into cyclic summands of prime-power order.

        Returns a list of (p, k, factor_index, embed) where embed is the
        multiplier realising Z/p^k inside Z/factor by CRT, plus the
        number of free (Z) factors as a second value.
        """
        coords = []
        nfree = 0
        for idx, f in enumerate(self.factors):
            if f == 0:
                nfree += 1
                continue
            for p, e in modular.factorize(f):
                coords.append((p, e, idx, _crt_embed(f, p**e)))
        return coords, nfree

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
            g = xgcd(f, r)[0]
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
    generators.  `labels`, when present, names the generators (we use
    exponent tuples so cochains can be addressed symbolically).
    """

    ngens: int
    relations: IntegerMatrix
    labels: tuple = None

    def __post_init__(self):
        if self.relations.cols != self.ngens:
            raise ValueError("relation matrix must have one column per generator")
        if self.labels is not None and len(self.labels) != self.ngens:
            raise ValueError("label count mismatch")

    @classmethod
    def free(cls, ngens, labels=None):
        return cls(ngens, IntegerMatrix.zero(0, ngens), labels)

    def invariants(self):
        return cokernel_invariants(self.relations)


def cokernel_invariants(relations):
    """Invariant factors of Z^cols / (integer row span of `relations`)."""
    dec = smith_normal_form(relations, check=False)
    diag = dec.diagonal()
    orders = [d for d in diag if d != 1]
    orders += [0] * (relations.cols - len(diag))
    # zero diagonal entries are free directions too
    orders = [o if o else 0 for o in orders]
    return FinAbGroup.from_cyclic_orders(orders)


def _cokernel_with_generators(relations):
    """Like cokernel_invariants but also returns a generator column per factor.

    Returns a list of (order, column) with order 0 for free summands;
    columns are vectors in the ambient Z^cols.
    """
    dec = smith_normal_form(relations, check=False)
    diag = dec.diagonal()
    out = []
    for j in range(relations.cols):
        d = diag[j] if j < len(diag) else 0
        if d == 1:
            continue
        col = [dec.V.entry(i, j) for i in range(relations.cols)]
        out.append((d, col))
    return out


@dataclass
class HomCohomologyResult:
    group: FinAbGroup
    # one (order, cochain) per cyclic summand, order 0 meaning a free summand;
    # cochain is a list of GroupElement, one per generator of the domain
    summands: list = field(default_factory=list)


def _dedupe_rows(M):
    """Drop duplicate (up to sign) and empty rows of a condition matrix."""
    by_row = {}
    for (r, c), v in M.data.items():
        by_row.setdefault(r, []).append((c, v))
    seen = set()
    kept = []
    for r, entries in by_row.items():
        entries.sort()
        key = tuple(entries)
        neg = tuple((c, -v) for c, v in entries)
        if key in seen or neg in seen:
            continue
        seen.add(key)
        kept.append(entries)
    data = {}
    for i, entries in enumerate(kept):
        for c, v in entries:
            data[(i, c)] = v
    return IntegerMatrix(len(kept), M.cols, data)


def _check_composite_zero(d_in, d_out, out_relations):
    comp = d_out @ d_in
    if comp.is_zero():
        return
    if out_relations is not None and out_relations.rows:
        relT = out_relations.transpose()
        for col in comp.columns():
            vec = [0] * comp.rows
            for r, v in col.items():
                vec[r] = v
            if solve(relT, vec) is None:
                raise InconsistentComplexError(
                    "d_out o d_in does not vanish modulo relations"
                )
        return
    raise InconsistentComplexError("d_out o d_in is nonzero")


def hom_cohomology_at(d_in, d_out, domain_relations, gamma, out_relations=None):
    """Cohomology of Hom(-, gamma) at a single spot of a complex.

    d_in  : X_{n+1} -> X_n   (matrix, columns = generators of X_{n+1})
    d_out : X_n -> X_{n-1}
    domain_relations : relations of X_n (rows)
    out_relations    : relations of X_{n-1}, needed so that coboundaries
                       range over honest functionals on X_{n-1}

    Returns ker(Hom(d_in, gamma)) / im(Hom(d_out, gamma)) together with
    a representative cochain per cyclic summand.
    """
    ngen = d_in.rows
    if domain_relations is None:
        domain_relations = IntegerMatrix.zero(0, ngen)
    if d_out is None:
        d_out = IntegerMatrix.zero(0, ngen)
    if domain_relations.cols != ngen or d_out.cols != ngen:
        raise ValueError("domain size mismatch between d_in, d_out and relations")
    _check_composite_zero(d_in, d_out, out_relations)

    # A cochain f in gamma^ngen is a cocycle iff A @ f = 0 where the rows of
    # A are the domain relations followed by the columns of d_in; duplicate
    # and empty condition rows are pruned (they are plentiful).
    A = _dedupe_rows(domain_relations.vstack(d_in.transpose()))
    n_out = d_out.rows
    if out_relations is None:
        out_relations = IntegerMatrix.zero(0, n_out)

    pp_coords, nfree = gamma.prime_power_coordinates()
    orders = []
    summands = []

    # one elimination per prime, at its largest power: the Z/p^k kernels
    # for smaller k are truncations of it
    top = {}
    for p, k, _, _ in pp_coords:
        top[p] = max(top.get(p, 0), k)
    kernels = {}
    for p, k in top.items():
        m = p**k
        kd = modular.kernel_mod_pk(A.to_numpy_mod(m), p, k)
        okd = None
        if n_out and not d_out.is_zero():
            okd = modular.kernel_mod_pk(out_relations.to_numpy_mod(m), p, k)
        kernels[p] = kd, okd

    for p, k, fidx, embed in pp_coords:
        m = p**k
        kd, okd = kernels[p]
        kd = kd.truncate(k)
        b_rows = []
        if okd is not None:
            ogens = okd.truncate(k).gens
            if len(ogens):
                b_rows = list((ogens @ d_out.to_numpy_mod(m)) % m)
        facs, reps = modular.quotient_mod_pk(kd, b_rows, p, k)
        for order, vec in zip(facs, reps):
            orders.append(order)
            cochain = []
            for g in range(ngen):
                coords = [0] * len(gamma.factors)
                coords[fidx] = (int(vec[g]) * embed) % gamma.factors[fidx]
                cochain.append(gamma.element(coords))
            summands.append((order, cochain))

    if nfree:
        # integral coordinate: same computation for every Z factor of gamma
        zfacs = _hom_cohomology_over_Z(A, d_out, out_relations)
        free_idxs = [i for i, f in enumerate(gamma.factors) if f == 0]
        for fidx in free_idxs:
            for order, vec in zfacs:
                orders.append(order)
                cochain = []
                for g in range(ngen):
                    coords = [0] * len(gamma.factors)
                    coords[fidx] = vec[g]
                    cochain.append(gamma.element(coords))
                summands.append((order, cochain))

    group = FinAbGroup.from_cyclic_orders(orders)
    return HomCohomologyResult(group, summands)


def _hom_cohomology_over_Z(A, d_out, out_relations):
    """The integer-coefficient slice: ker/im inside Z^ngen."""
    zbasis = kernel_basis(A)
    if not zbasis:
        return []
    Zmat = IntegerMatrix.from_columns(zbasis)
    b_rows = []
    if d_out.rows and not d_out.is_zero():
        gk = kernel_basis(out_relations) if out_relations.rows else [
            [1 if i == j else 0 for i in range(d_out.rows)] for j in range(d_out.rows)
        ]
        dT = d_out.transpose()
        for g in gk:
            b = dT.apply(g)
            c = solve(Zmat, b)
            if c is None:
                raise InconsistentComplexError("coboundary not a cocycle over Z")
            b_rows.append(c)
    rel = IntegerMatrix.from_rows(b_rows, cols=len(zbasis))
    out = []
    for order, col in _cokernel_with_generators(rel):
        vec = Zmat.apply(col)
        out.append((order, vec))
    return out
