"""Cohomology of cyclic linear cycle sets in degrees 1 and 2, by three
independent routes, plus the classification theorem's three cases
(`family_case`, `family_condition`, `coboundary_orbit`) and their
explicit degree-2 cocycle families.

The chain-level objects: for a linear cycle set on Z/vZ write D-bar for
the reduced group ring slots (exponents 1..v-1) and Mbar(s) for the
quotient of D-bar tensors by signed shuffles.  The full complex has
cells C_{r,s} = Dbar^{x r} (x) Mbar(s) (r >= 0, s >= 1) with the
cycle-set dot twisting the horizontal differential; its Hom-dual
computes the cohomology classifying central extensions.

The reduced route replaces each row by the small complex of copies of
Mbar(s) coming from the crossed-product resolution, transfers the
dot-perturbation through the row retractions, and takes the total
complex of the transfer's output on its cells of total degree <= 3, a
small partial total complex spanning degrees 1..3:

        Mbar(3)_00
            |
        Mbar(2)_00 <- Mbar(2)_01 + Mbar(2)_10
            |                |
        Mbar(1)_00 <- Mbar(1)_01 + Mbar(1)_10 <- Mbar(1)_02 + _11 + _20

Its horizontal arrows also have closed forms, which check the transfer:
each block of the transferred horizontal differentials must equal its
closed-form arrow, or be zero where the diagram has none.  Its degree-2
cochains pull back to the full complex along the comparison phi2, the
identity on Mbar(2) and the transferred projection phi-hat on
Dbar (x) Mbar(1).

The closed route evaluates the final formulas directly:
H^1 = G_u and H^2 = G_v + G/vG (u = v), G/uG + G_u (2 < u < v), or
G/2G + G_2 + G_2 (u = 2, v = 4).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from math import comb

import numpy as np

from .abelian import (
    FaceDifference,
    FinAbGroup,
    IdentityKron,
    IntegerMatrix,
    PresentedModule,
    RowBlocks,
    block_matrix,
    cocycle_kernels,
    hom_cohomology_at,
    torsion_and_quotient,
)
from . import modular
from .cycleset import (
    Verdict,
    first_failure,
    make_cyclic_lcs,
)
from .cyclic_resolution import (
    bar_faces,
    coefficient_complex,
    exp_tuples,
    tuple_bar_differential,
    tuple_codes,
    tuple_letters,
)
from .homology_engine import (
    CellRank,
    ChainComplex,
    DoubleComplex,
    RowSDRSystem,
    perturb_double_complex,
    total_complex,
)


def _shuffle_arrangements(l, s):
    """All (l, s-l) shuffles as (sign, placement) pairs.

    placement[q] tells which original index sits at result position q.
    """
    out = []
    for positions in itertools.combinations(range(s), l):
        comp = [q for q in range(s) if q not in positions]
        placement = [None] * s
        for bi, q in enumerate(positions):
            placement[q] = bi
        for bj, q in enumerate(comp):
            placement[q] = l + bj
        # sign = parity of the permutation sending original i to its slot
        perm = [None] * s
        for q, orig in enumerate(placement):
            perm[orig] = q
        inv = sum(
            1
            for a in range(s)
            for b in range(a + 1, s)
            if perm[a] > perm[b]
        )
        out.append(((-1) ** inv, tuple(placement)))
    return out


def shuffle_quotient(s, v):
    """Mbar(s): tuples modulo the signed shuffle sums."""
    if not (1 <= s <= 3):
        raise ValueError("shuffle quotients supported for 1 <= s <= 3 only")
    if v < 2:
        raise ValueError("carrier must have at least 2 elements")
    # relation (l - 1) * T + k belongs to the k-th tuple and the
    # (l, s-l) shuffles; an arrangement permutes the columns of letters
    letters = tuple_letters(s, v)
    T = len(letters)
    parts = [(np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0, np.int64))]
    for l in range(1, s):
        for sign, placement in _shuffle_arrangements(l, s):
            parts.append(
                ((l - 1) * T + np.arange(T), tuple_codes(letters[:, placement], v), np.full(T, sign))
            )
    r, c, values = (np.concatenate(a) for a in zip(*parts))
    relations = IntegerMatrix._from_coo((s - 1) * T, T, r, c, values)
    return PresentedModule(T, relations)


# the identities that d_2 o d_3 = 0 checks on each cell (r, s) of degree
# 3 of the full double complex, whose total differential is d_h + d_v
DD_IDENTITIES = {
    (0, 3): "d_v o d_v = 0",
    (1, 2): "d_h d_v + d_v d_h = 0",
    (2, 1): "d_h o d_h = 0",
}

# the most rows of d_3^T that the full complex makes at once
FULL_BLOCK_ROWS = 1 << 13


@dataclass(eq=False)
class FullComplex(ChainComplex):
    """The full total complex in the degrees that H^1 and H^2 read: X_1
    and X_2 presented, d_2, and X_3 by rank alone (a `CellRank`); X_3's
    relations are never read.  Degree n holds the cells (r, s), r + s = n,
    s >= 1, in sorted order, each on the (v-1)^n tuples (gt, mt) of
    Dbar^{x r} (x) Dbar^{x s} in code order; cell (r, s) is presented as
    (v-1)^r copies of Mbar(s).

    d_3 is not held: `d3_rows` makes the rows of d_3^T a block of at
    most FULL_BLOCK_ROWS rows of one X_3 cell at a time, from the cycle
    set's `dot` table, on every call.  `validate` checks d_2 o d_3 = 0 block by
    block, the identities of DD_IDENTITIES."""

    dot: np.ndarray

    def d3_rows(self):
        """The rows of d_3^T in order, as (cell, block) pairs."""
        size = (len(self.dot) - 1) ** 3
        for cell in _full_cells(3):
            for c0 in range(0, size, FULL_BLOCK_ROWS):
                yield cell, _full_d_rows(self.dot, cell, c0, min(size, c0 + FULL_BLOCK_ROWS))

    def validate(self):
        """d_2 o d_3 = 0, as d_3^T @ d_2^T = 0 a block of rows at a time;
        a failure names the identity and the X_3 cell."""
        d2_t = self.diff[2].transpose()
        for (r, s), block in self.d3_rows():
            if not (block @ d2_t).is_zero():
                return Verdict(False, DD_IDENTITIES[(r, s)], (r, s))
        return Verdict(True)

    def cocycle_rows(self, n):
        """The n-cocycle conditions as `RowBlocks`; in degree 2, X_2's
        relations and then d_3^T's blocks, made as they are read."""
        if n != 2:
            return super().cocycle_rows(n)
        relations = self.modules[2].relations

        def make():
            yield relations
            for _, block in self.d3_rows():
                yield block

        return RowBlocks(relations.rows + self.rank(3), relations.cols, make)


def _full_cells(n):
    """The cells (r, s) of total degree n of the full double complex, in
    sorted order."""
    return [(r, n - r) for r in range(n)]


def _full_d_rows(dot, cell, c0, c1):
    """The rows c0..c1-1 of d_n^T on cell (r, s), n = r + s, of the full
    total complex: the images of the cell's generators c0..c1-1 in X_{n-1}.

    The horizontal differential into cell (r - 1, s) is the tuple bar
    differential on gt, (x) the identity, plus the perturbation delta:
    the twisted face x_1.(x_2..x_n) minus the plain one x_2..x_n.  The
    vertical one into cell (r, s - 1), s >= 2, is (-1)^(r+1) the identity
    on gt (x) the tuple bar differential on mt."""
    v = len(dot)
    r, s = cell
    n = r + s
    size = (v - 1) ** (n - 1)
    x = tuple_letters(n, v, np.arange(c0, c1))
    gens = np.arange(c1 - c0)
    parts = []
    if r >= 1:
        col, tgt, _, sign = bar_faces(x[:, :r], v)
        target = (r - 1) * size
        parts.append((col, target + tgt * (v - 1) ** s + tuple_codes(x[col, r:], v), sign))
        parts.append((gens, target + tuple_codes(dot[x[:, :1], x[:, 1:]], v), np.ones_like(gens)))
        parts.append((gens, target + tuple_codes(x[:, 1:], v), -np.ones_like(gens)))
    if s >= 2:
        col, tgt, _, sign = bar_faces(x[:, r:], v)
        target = r * size + tuple_codes(x[col, :r], v) * (v - 1) ** (s - 1)
        parts.append((col, target + tgt, sign * (-1) ** (r + 1)))
    rows, cols, values = (np.concatenate(a) for a in zip(*parts))
    return IntegerMatrix._from_coo(c1 - c0, (n - 1) * size, rows, cols, values)


def _full_module(v, n):
    """X_n of the full total complex, presented: cell (r, s) is (v-1)^r
    copies of Mbar(s), the cells block diagonal in order."""
    rels = [
        IntegerMatrix.identity((v - 1) ** r).kron(shuffle_quotient(s, v).relations)
        for r, s in _full_cells(n)
    ]
    relations = block_matrix(
        {(i, i): m for i, m in enumerate(rels) if m.rows}, [m.rows for m in rels], [m.cols for m in rels]
    )
    return PresentedModule(relations.cols, relations)


@functools.lru_cache(maxsize=1)
def _full_d2_transpose(lcs):
    """d_2^T of the full total complex, the rows of its cells (0, 2) and
    (1, 1): the coboundary of a degree-1 cochain lam, lam(a + b) - lam(a)
    - lam(b) on (a, b) and lam(g.m) - lam(m) on (g, m).  Built once per
    cycle set."""
    v = lcs.v
    dot = np.array(lcs.dot, dtype=np.int64)
    return IntegerMatrix.stacked(
        [_full_d_rows(dot, cell, 0, (v - 1) ** 2) for cell in _full_cells(2)], v - 1
    )


def full_double_complex(lcs):
    """The full total complex of the cycle-set double complex as H^1 and
    H^2 read it (see `FullComplex`), validated: every column of d_3 is
    checked for d o d = 0, a block at a time."""
    v = lcs.v
    chain = FullComplex(
        {1: _full_module(v, 1), 2: _full_module(v, 2), 3: CellRank(3 * (v - 1) ** 3)},
        {2: _full_d2_transpose(lcs).transpose()},
        np.array(lcs.dot, dtype=np.int64),
    )
    report = chain.validate()
    if not report:
        raise AssertionError(f"full complex is inconsistent: {report}")
    return chain


def perturbation_delta(lcs, cells):
    """The dot-twist of the horizontal differential at every cell (r, s),
    r >= 1, whose (r - 1, s) is a cell: the square-zero perturbation
    on the given cells, a row of the grid or the whole grid.

    Cell (r, s) must have the basis Dbar^{x r} (x) Dbar^{x s} in
    exp_tuples order of the joined tuples (gt, mt), as both the full
    complex and the shuffle-quotient bar cells do; so the generator with
    code c, tuple (x_1..x_n), has the plain face x_2..x_n at c mod
    (v-1)^(n-1) and the twisted face x_1.x_2..x_1.x_n.  Each delta(r, s)
    is the `FaceDifference` of these two faces, held by the twisted codes
    alone, int32 while they fit (see `_face_code_dtype`).  They are built
    one first letter x_1 at a time, from the letters of the (v-1)^(n-1)
    tuples x_2..x_n, so the letters of all (v-1)^n tuples are never
    held."""
    v = lcs.v
    dot = np.array(lcs.dot, dtype=np.int64)
    delta = {}
    for (r, s) in cells:
        if r < 1 or (r - 1, s) not in cells:
            continue
        n = r + s
        faces = (v - 1) ** (n - 1)
        if (cells[(r, s)].ngens, cells[(r - 1, s)].ngens) != ((v - 1) * faces, faces):
            raise ValueError(f"cells at {(r, s)} are not on the exponent-tuple basis")
        rest = tuple_letters(n - 1, v)
        twisted = np.empty((v - 1) * faces, dtype=_face_code_dtype(v, n))
        for x1 in range(1, v):
            twisted[(x1 - 1) * faces : x1 * faces] = tuple_codes(dot[x1][rest], v)
        delta[(r, s)] = FaceDifference(faces, twisted)
    return delta


def _face_code_dtype(v, n):
    """The dtype that holds the codes 0..(v-1)^n - 1 of the tuples of
    length n: int32 while (v-1)^n < 2^31, else int64.  A product with a
    `FaceDifference` computes its keys in int64 whatever the dtype of
    its codes."""
    return np.int32 if (v - 1) ** n < 2**31 else np.int64


# ---------------------------------------------------------------------------
# the reduced complex
# ---------------------------------------------------------------------------

def _one_slot_map(v, images):
    """Matrix on Mbar(1) generators from a map exponent -> list of (exp, coeff)."""
    data = {}
    for col, a in enumerate(range(1, v)):
        for b, c in images(a):
            if b % v and c:
                k = (b % v - 1, col)
                data[k] = data.get(k, 0) + c
    return IntegerMatrix(v - 1, v - 1, data)


@dataclass
class ReducedComplexT:
    """The small partial total complex as a chain complex in degrees 1..3,
    with diff {2: d2, 3: d3} and phi2.
    Degree n holds the transfer's cells (r, s), r + s = n, in sorted
    order, each cell its copies of Mbar(s) by alpha: Mbar(1)_00; then
    Mbar(2)_00, Mbar(1)_01, Mbar(1)_10; then Mbar(3)_00, Mbar(2)_01,
    Mbar(2)_10, Mbar(1)_02, Mbar(1)_11, Mbar(1)_20.

    phi2 is the degree-2 comparison from the full complex's cochain
    positions (Mbar(2), then Dbar (x) Mbar(1)) to the three reduced
    blocks of degree 2: the identity on Mbar(2) and the transferred
    projection phi-hat on Dbar (x) Mbar(1).  A reduced degree-2 cochain c
    pulls back to the full cochain phi2^T c."""

    total: ChainComplex
    phi2: IntegerMatrix


def _arrow_matrices(params):
    v, u, t, u2 = params.v, params.u, params.t, params.u2

    def p(e):
        return e % v

    arrows = {}
    arrows["dh0_201"] = _one_slot_map(v, lambda a: [(a, u)])
    arrows["dh1_011"] = _one_slot_map(v, lambda a: [(p((1 - u) * a), 1), (a, -1)])
    arrows["dh1_111"] = _one_slot_map(v, lambda a: [(a, 1), (p((1 - u) * a), -1)])
    arrows["dh1_021"] = _one_slot_map(
        v, lambda a: [(p((1 - s * u) * a), -1) for s in range(t)]
    )
    # the -1 is the resolution's d^2, which is zero at t = 1
    arrows["dh2_021"] = _one_slot_map(
        v,
        lambda a: [(a, -1)] * (t >= 2) + [(p((1 - s * u) * a), u2 * s) for s in range(1, t)],
    )
    # dh1_012 on Mbar(2) generators
    m2 = exp_tuples(2, v)
    idx2 = {tup: i for i, tup in enumerate(m2)}
    data = {}
    for col, (a, b) in enumerate(m2):
        for key, c in ((((1 - u) * a % v, (1 - u) * b % v), 1), ((a, b), -1)):
            if key[0] and key[1]:
                k = (idx2[key], col)
                data[k] = data.get(k, 0) + c
    arrows["dh1_012"] = IntegerMatrix(len(m2), len(m2), data)
    return arrows


# the closed-form arrow that each block of the transfer's horizontal
# differentials must equal, by the cell (r, s) and the target and source
# copies of Mbar(s) in it, indexed (alpha, beta); the other blocks are 0
ARROW_BLOCKS = {
    ((1, 1), (0, 0), (0, 1)): "dh1_011",
    ((2, 1), (1, 0), (1, 1)): "dh1_111",
    ((2, 1), (1, 0), (2, 0)): "dh0_201",
    ((2, 1), (0, 1), (0, 2)): "dh1_021",
    ((2, 1), (1, 0), (0, 2)): "dh2_021",
    ((1, 2), (0, 0), (0, 1)): "dh1_012",
}


@functools.lru_cache(maxsize=1)
def reduced_complex(params):
    """The reduced partial total complex: the total complex of the
    perturbation-lemma transfer's output on its cells of total degree
    <= 3, cross-checked against the closed-form arrows.  The transfer
    reads X's cells by rank; they are presented here, after it: cell
    (r, s) is r + 1 copies of Mbar(s), and its vertical map, held as a
    record by the transfer, is made explicit, r + 1 copies of its
    factor.  The transfer returns only X and the projection p1 at (1, 1);
    it is released before the cross-checks."""
    quotients = {s: shuffle_quotient(s, params.v) for s in (1, 2, 3)}
    transfer = _transfer_reduced(params, quotients)
    X, phi_hat = transfer.X, transfer.p1[(1, 1)]
    del transfer
    cells, dv = {}, {}
    for r, s in X.cells:
        if r + s <= 3:
            relations = IntegerMatrix.identity(r + 1).kron(quotients[s].relations)
            cells[(r, s)] = PresentedModule(relations.cols, relations)
            if (r, s) in X.dv:
                dv[(r, s)] = IntegerMatrix.identity(r + 1).kron(X.dv[(r, s)].factor)
    arrows = _arrow_matrices(params)
    for r, s in cells:
        g = (params.v - 1) ** s
        for bi, bj in itertools.product(range(r), range(r + 1)):
            tgt, src = (bi, r - 1 - bi), (bj, r - bj)
            got = X.dh[(r, s)].submatrix(bi * g, (bi + 1) * g, bj * g, (bj + 1) * g)
            name = ARROW_BLOCKS.get(((r, s), tgt, src))
            if name is None and not got.is_zero():
                raise AssertionError(f"expected zero arrow at {(r, s)} {src}->{tgt}")
            if name is not None and got != arrows[name]:
                raise AssertionError(f"transfer output disagrees with the closed-form arrow {name}")
    # total_complex reads the differentials of the given cells only
    total = total_complex(DoubleComplex(cells, X.dh, dv))
    if not total.validate():
        raise AssertionError("reduced complex fails d o d = 0")

    # phi-hat: the projection on X_{1,1} = Mbar(1)_01 + Mbar(1)_10
    closed01, closed10 = phi_hat_closed(params)
    if phi_hat != closed01.vstack(closed10):
        raise AssertionError("transferred degree-2 projection disagrees with closed form")
    n2 = (params.v - 1) ** 2
    phi2 = block_matrix(
        {(0, 0): IntegerMatrix.identity(n2), (1, 1): phi_hat}, [n2, phi_hat.rows], [n2, n2]
    )
    return ReducedComplexT(total, phi2)


# the top cell r of each row s of the transfer's grid: the cells used in
# degrees <= 3, and those of degree 4 whose corrections they read
REDUCED_ROW_TOP = {1: 3, 2: 2, 3: 1}


def _transfer_reduced(params, quotients):
    """Row-wise perturbation transfer on the grid {(r, s)} used in degrees
    <= 3, over the shuffle quotients Mbar(s), s = 1, 2, 3, one row at a
    time: `perturb_double_complex` draws row s from `_reduced_row` only
    after row s - 1 is corrected and verified, and releases each row but
    X's corrected differentials and the projection p1 at (1, 1)
    (phi-hat), which is all the transfer returns."""
    t = params.t
    lcs = make_cyclic_lcs(params)
    bar = {n: tuple_bar_differential(n, params.v) for n in (1, 2, 3)}
    rows = (_reduced_row(params, lcs, quotients[s], bar, s) for s in (1, 2, 3))
    return perturb_double_complex(rows, t, verify=(t >= 2), keep={"p1": [(1, 1)]})


def _reduced_row(params, lcs, quotient, bar, s):
    """Row s of the transfer's system, with its delta: the coefficient
    complex of Mbar(s) up to r = REDUCED_ROW_TOP[s], and the vertical maps
    from the row's cells into row s - 1.

    The bar cells Dbar^{x r} (x) Mbar(s) enter by their ranks alone, and
    so do X's cells: the transfer and its verification read only their
    ranks, and `reduced_complex` presents those of degree <= 3 after the
    transfer.  The coefficient complex is dropped once its maps are in
    the system, before delta is built.
    The bar side's differentials are held factored: d_h is the tuple bar
    differential (x) id of Mbar(s), d_v is id of the (v-1)^r tuples (x)
    the signed inner bar differential.  X's vertical maps are records
    too, id of its r + 1 cells (x) the same signed factor: one factor per
    sign serves both sides."""
    v, top = params.v, REDUCED_ROW_TOP[s]
    xcells, xdh, xdv = {}, {}, {}
    ccells, cdh, cdv = {}, {}, {}
    i_maps, p_maps, h_maps = {}, {}, {}
    cc = coefficient_complex(params, quotient, top)
    g = quotient.ngens
    for r in range(top + 1):
        xcells[(r, s)] = CellRank(cc.chain.rank(r))
        ccells[(r, s)] = CellRank(cc.bar_rank(r))
        i_maps[(r, s)] = cc.phibar[r]
        if r + 1 <= top:
            # no p or h at a row's top cell: their corrections there
            # would need delta and h above the cap, which the transfer
            # does not have, so it emits no p1 or h1 there
            p_maps[(r, s)] = cc.varphibar[r]
            h_maps[(r, s)] = cc.omegabar[r + 1]
        if r >= 1:
            cdh[(r, s)] = IdentityKron(1, bar[r], g)
            xdh[(r, s)] = cc.chain.diff[r]
    del cc
    if s >= 2:
        # one signed inner bar differential per sign, shared by both sides
        signed = {sign: bar[s].scale(sign) for sign in (1, -1)}
        for r in range(min(top, REDUCED_ROW_TOP[s - 1]) + 1):
            sign = (-1) ** (r + 1)
            # X side: block diagonal over the r + 1 cells of degree r; bar
            # side: id on the group slots tensor the inner map
            xdv[(r, s)] = IdentityKron(r + 1, signed[sign], 1)
            cdv[(r, s)] = IdentityKron((v - 1) ** r, signed[sign], 1)
    system = RowSDRSystem(
        DoubleComplex(xcells, xdh, xdv), DoubleComplex(ccells, cdh, cdv), i_maps, p_maps, h_maps
    )
    return system, perturbation_delta(lcs, ccells)


def phi_hat_closed(params):
    """Closed forms of the degree-2 projection components on Dbar (x) Mbar(1):
      into (0,1):  g^{t i + j} (x) g^{i1} -> sum_{l<j} g^{(1-u l) i1}
      into (1,0):  -> -i g^{i1} + u2 sum_{1<=l<j} (j - l - t) g^{(1-u l) i1}
    cross-checked against the binomial forms."""
    v, u, t, u2 = params.v, params.u, params.t, params.u2
    n1 = v - 1
    top = {}
    bottom = {}
    for a in range(1, v):
        i, j = divmod(a, t)
        for i1 in range(1, v):
            col = (a - 1) * n1 + (i1 - 1)
            for l in range(j):
                b = (1 - u * l) * i1 % v
                if b:
                    k = (b - 1, col)
                    top[k] = top.get(k, 0) + 1
            acc = {}
            acc[i1] = acc.get(i1, 0) - i
            for l in range(1, j):
                b = (1 - u * l) * i1 % v
                acc[b] = acc.get(b, 0) + u2 * (j - l - t)
            for b, c in acc.items():
                if b % v and c:
                    k = (b % v - 1, col)
                    bottom[k] = bottom.get(k, 0) + c
    top_m = IntegerMatrix(n1, n1 * n1, top)
    bottom_m = IntegerMatrix(n1, n1 * n1, bottom)
    bin_top, bin_bottom = _phi_hat_binomial(params)
    if top_m != bin_top or bottom_m != bin_bottom:
        raise AssertionError("degree-2 projection closed form disagrees with binomial form")
    return top_m, bottom_m


def _phi_hat_binomial(params):
    """Binomial forms: sum_s C(j, s+1) g^{i1}(g^{-u i1} - 1)^s and
    -i g^{i1} + sum_s u2 (C(j, s+1) - C(j-1, s) t) g^{i1} g^{-u i1}(g^{-u i1}-1)^{s-1}."""
    v, u, t, u2 = params.v, params.u, params.t, params.u2
    n1 = v - 1

    def poly_mul(p, q):
        out = {}
        for e1, c1 in p.items():
            for e2, c2 in q.items():
                e = (e1 + e2) % v
                out[e] = out.get(e, 0) + c1 * c2
        return {e: c for e, c in out.items() if c}

    def poly_pow(p, n):
        out = {0: 1}
        for _ in range(n):
            out = poly_mul(out, p)
        return out

    top = {}
    bottom = {}
    for a in range(1, v):
        i, j = divmod(a, t)
        for i1 in range(1, v):
            col = (a - 1) * n1 + (i1 - 1)
            base = {(-u * i1) % v: 1}  # g^{-u i1} - 1
            base[0] = base.get(0, 0) - 1
            base = {e: c for e, c in base.items() if c}
            acc = {}
            for s_ in range(0, j):
                coeff = comb(j, s_ + 1)
                term = poly_mul({i1 % v: coeff}, poly_pow(base, s_))
                for e, c in term.items():
                    acc[e] = acc.get(e, 0) + c
            for e, c in acc.items():
                if e % v and c:
                    top[(e - 1, col)] = top.get((e - 1, col), 0) + c
            acc = {i1 % v: -i}
            for s_ in range(1, j):
                coeff = u2 * (comb(j, s_ + 1) - comb(j - 1, s_) * t)
                term = poly_mul(
                    {(i1 - u * i1) % v: coeff}, poly_pow(base, s_ - 1)
                )
                for e, c in term.items():
                    acc[e] = acc.get(e, 0) + c
            for e, c in acc.items():
                if e % v and c:
                    bottom[(e - 1, col)] = bottom.get((e - 1, col), 0) + c
    return IntegerMatrix(n1, n1 * n1, top), IntegerMatrix(n1, n1 * n1, bottom)


# ---------------------------------------------------------------------------
# cohomology by three routes
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=1)
def _full_slice(params):
    """The full complex of the member, as H^1 and H^2 read it: X_2's
    presentation and d_2 are kept, d_3 is made again when read."""
    return full_double_complex(make_cyclic_lcs(params))


@dataclass
class CohomologyResult:
    group: FinAbGroup
    method: str
    representatives: list = field(default_factory=list)


ROUTES = ("full", "reduced", "closed")


def admitted_routes(gamma):
    """The routes that compute H^n with coefficients in gamma, in report
    order: all three for a finite group; with a free factor only the
    closed formulas, as the full and reduced routes eliminate modulo
    prime powers only."""
    return ROUTES if gamma.is_finite else ("closed",)


def cohomology(params, gamma, n, method):
    """H^n of the cycle set with coefficients in gamma, n in {1, 2}, by
    one of the routes that `admitted_routes(gamma)` lists.

    "closed" evaluates the final formulas.  "full" and "reduced" take
    H^n of Hom(-, gamma) at degree n of a chain complex, the full total
    complex or the reduced one, and return a representative cochain per
    cyclic summand; in degree 2 as a `CocyclePair` on the full complex,
    a reduced cochain pulled back along the comparison phi2 first.
    """
    if n not in (1, 2):
        raise ValueError("only degrees 1 and 2 are in scope")
    if method not in ROUTES:
        raise ValueError(f"unknown method {method!r}")
    if method not in admitted_routes(gamma):
        raise modular.ResourceLimitError("full/reduced routes require finite coefficients")
    if method == "closed":
        return CohomologyResult(_closed_form(params, gamma, n), "closed")
    # refuse a modulus that `local_smith` refuses before the complex is
    # built: each prime at its largest power, in `cocycle_kernels`' order
    coords = gamma.prime_power_coordinates()
    for p in dict.fromkeys(coord[0] for coord in coords):
        modular._check_modulus(p ** max(k for q, k, *_ in coords if q == p))
    if method == "full":
        chain, phi2 = _full_slice(params), None
    else:
        rc = reduced_complex(params)
        chain, phi2 = rc.total, rc.phi2
    res = hom_cohomology_at(chain, n, gamma)
    reps = list(res.summands)
    if n == 2:
        if phi2 is not None:
            # a reduced cochain c pulls back to the full cochain phi2^T c
            phiT = phi2.transpose()
            reps = [
                (order, (phiT @ IntegerMatrix.from_rows(c.tolist(), c.shape[1])).dense())
                for order, c in reps
            ]
        reps = [(order, _full_cochain_to_pair(params, gamma, c)) for order, c in reps]
    return CohomologyResult(res.group, method, reps)


def _closed_form(params, gamma, n):
    u, v = params.u, params.v
    if n == 1:
        return torsion_and_quotient(gamma, u)[0]
    case = family_case(params)
    if case == "A":
        tors, quot = torsion_and_quotient(gamma, v)
        return tors.direct_sum(quot)
    tors, quot = torsion_and_quotient(gamma, u)
    if case == "B":
        return quot.direct_sum(tors)
    return quot.direct_sum(tors).direct_sum(tors)


def _full_cochain_to_pair(params, gamma, cochain):
    """Scatter a full degree-2 cochain, (ngen, r) coordinates, onto a pair;
    the reduced route's cochains arrive pulled back along phi2.

    Degree 2 of the total complex is the (0,2) block, Mbar(2) on the
    exponent tuples (a, b), then the (1,1) block, Dbar (x) Mbar(1) on the
    pairs (g, m), each in code order: (a, b) carries xi1(a, b) and (g, m)
    carries xi2(g, m).
    """
    v, r = params.v, len(gamma.factors)
    n1 = v - 1
    cochain = np.asarray(cochain, dtype=object)
    xi = np.zeros((2, v, v, r), dtype=object)
    xi[:, 1:, 1:] = cochain.reshape(2, n1, n1, r)
    return CocyclePair(gamma, v, xi[0], xi[1])


def _pair_to_full_cochain(pair):
    """The inverse of `_full_cochain_to_pair`: the pair's coordinates as a
    full degree-2 cochain, (ngen, r)."""
    xi = np.stack([pair.xi1, pair.xi2])[:, 1:, 1:]
    return xi.reshape(2 * (pair.v - 1) ** 2, len(pair.gamma.factors))


# ---------------------------------------------------------------------------
# kernel generators in the top corner
# ---------------------------------------------------------------------------


def lambda_table(b, v):
    """Integer coefficient table of the basic vertical kernel element:
    +1 when i <= b and b-i < j <= b, -1 when i > b and b < j <= v-i+b."""
    if not (1 <= b < v):
        raise ValueError("b out of range")
    lam = [[0] * v for _ in range(v)]
    for i in range(1, v):
        for j in range(1, v):
            if i <= b and b - i < j <= b:
                lam[i][j] = 1
            elif i > b and b < j <= v - i + b:
                lam[i][j] = -1
    return lam


# ---------------------------------------------------------------------------
# cocycle pairs and the explicit families
# ---------------------------------------------------------------------------


def _mod_factors(a, factors):
    """a reduced modulo the finite entries of `factors` along its last axis."""
    finite = factors > 0
    return np.where(finite, a % np.where(finite, factors, 1), a)


@dataclass(frozen=True, eq=False)
class CocyclePair:
    """A degree-2 cochain as two (v, v, r) coordinate arrays, r the number
    of invariant factors of gamma: xi1 on Mbar(2) (symmetric, zero when an
    index is 0) and xi2 on Dbar (x) Mbar(1) (zero when either index is 0).

    The constructor reduces the coordinates modulo the finite invariant
    factors and stores read-only arrays, int64 only while
    5 * max(|coordinate|, factor) < 2^62: a cocycle condition sums at most
    five entries, so the sum and its remainder modulo a factor stay exact;
    otherwise Python ints (dtype object), the rule of IntegerMatrix.
    Compare pairs with `cohomologous` or `flat_key`; `==` is identity.
    """

    gamma: FinAbGroup
    v: int
    xi1: np.ndarray
    xi2: np.ndarray

    def __post_init__(self):
        shape = (self.v, self.v, len(self.gamma.factors))
        factors = np.array(self.gamma.factors, dtype=object)
        arrays = []
        for name in ("xi1", "xi2"):
            a = np.array(getattr(self, name), dtype=object)
            if a.shape != shape:
                raise ValueError(f"{name} must have shape {shape}, not {a.shape}")
            arrays.append(_mod_factors(a, factors))
        top = max(
            [int(np.abs(a).max()) for a in arrays if a.size] + list(self.gamma.factors), default=0
        )
        dtype = np.int64 if 5 * top < modular._INT64_BOUND else object
        for name, a in zip(("xi1", "xi2"), arrays):
            a = a.astype(dtype)
            if a[0].any() or a[:, 0].any():
                raise ValueError(f"{name} must vanish when an index is 0")
            a.flags.writeable = False
            object.__setattr__(self, name, a)
        if (self.xi1 != self.xi1.transpose(1, 0, 2)).any():
            raise ValueError("xi1 must be symmetric")

    def flat_key(self):
        """The coordinates of xi1, then of xi2, in (i, j, coordinate) order."""
        return tuple(np.concatenate([self.xi1.ravel(), self.xi2.ravel()]).tolist())

    @classmethod
    def zero(cls, gamma, v):
        z = np.zeros((v, v, len(gamma.factors)), dtype=np.int64)
        return cls(gamma, v, z, z)


def xi1_standard(v):
    """Coefficient table of g in the common first component: +1 at (1,1),
    -1 when both indices are >= 2 and their sum is <= v+1, else 0."""
    i, j = np.indices((v, v))
    table = np.where((i >= 2) & (j >= 2) & (i + j <= v + 1), -1, 0)
    table[1, 1] = 1
    return table


def base_coefficient(r, params):
    """The degree-1 coefficient chain gamma_r = a*g1 - c*g as the pair
    (a, c): r reduced mod v, a = r and the canonical piecewise c = c(k, l),
    r = k*t + l (gamma_0 = 0, gamma_1 = g1)."""
    v, t, u2 = params.v, params.t, params.u2
    r %= v
    if r <= 1:
        return r, 0
    k, l = divmod(r, t)
    if k == 0:
        c = 1
    elif k <= u2:
        c = k if l == 0 else k + 1
    elif k < 2 * u2:
        c = k if l <= 1 else k + 1
    else:
        h = k // u2
        c = k if l <= h else k + 1
    return r, c


@functools.lru_cache(maxsize=1)
def _family_xi2_tables(params):
    """Coefficient tables of g, g1 and g1' in the second component of the
    family of the case of params, a read-only (3, v, v) integer array
    built once per member: with
    (i, j) = divmod(a, t), xi2(a, i1) is
    (a i1) g1 (u = v);
    i1 (i - u2 C(j, 2)) (t g1 - g) + sum_{l<j} gamma_{(1-ul) i1} (2 < u < v);
    -i i1 g1' + sum_{l<j} gamma_{(1-2l) i1} (u = 2, v = 4)."""
    v, u, t, u2 = params.v, params.u, params.t, params.u2
    case = family_case(params)
    tables = np.zeros((3, v, v), dtype=np.int64)
    for a in range(1, v):
        i, j = divmod(a, t)
        for i1 in range(1, v):
            if case == "A":
                tables[1, a, i1] = a * i1
            elif case == "B":
                n = i1 * (i - u2 * comb(j, 2))
                tables[0, a, i1] = -n
                tables[1, a, i1] = t * n
            else:
                tables[2, a, i1] = -i * i1
            for l in range(j):
                r, c = base_coefficient((1 - u * l) * i1, params)
                tables[0, a, i1] -= c
                tables[1, a, i1] += r
    tables.flags.writeable = False
    return tables


def family_case(params):
    """The case of the classification theorem the member falls in: "A"
    when u = v, "B" when 2 < u < v, "C" when u = 2 and v = 4."""
    if params.t == 1:
        return "A"
    return "B" if params.u > 2 else "C"


# the number of family parameters of each case: (g, g1), or (g, g1, g1')
FAMILY_ARITY = {"A": 2, "B": 2, "C": 3}


def family_condition(params, tup):
    """Whether the family parameters tup, (g, g1) or (g, g1, g1') in case
    C, satisfy the theorem's condition: v g1 = 0 in case A, v g1 = u g in
    cases B and C, and 2 g1' = 0 in case C."""
    case = family_case(params)
    if len(tup) != FAMILY_ARITY[case]:
        raise ValueError(f"case {case} takes {FAMILY_ARITY[case]} family parameters, not {len(tup)}")
    g, g1 = tup[:2]
    if case == "A":
        return (params.v * g1).is_zero
    return params.v * g1 == params.u * g and (case == "B" or (2 * tup[2]).is_zero)


def coboundary_orbit(params, tup, gamma):
    """The family parameter tuples whose pairs differ from tup's by a
    coboundary: (g + v d, g1 + u d, g1') for each d in gamma, with g1
    fixed in case A."""
    g, g1, *rest = tup
    shift = 0 if family_case(params) == "A" else params.u
    return [(g + params.v * d, g1 + shift * d, *rest) for d in gamma.elements()]


def cocycle_family(params, gamma, g, g1, g1p=None):
    """The explicit degree-2 cocycle pair of the family parameters (g, g1),
    with g1p in case C, which must satisfy `family_condition`.  The pair
    is the integer coefficient tables of the case times the coordinates
    of the parameters.
    """
    tup = (g, g1) if g1p is None else (g, g1, g1p)
    if not family_condition(params, tup):
        raise ValueError(
            f"family parameters {', '.join(map(str, tup))} violate the condition of "
            f"case {family_case(params)}"
        )
    v = params.v
    g1p = gamma.zero() if g1p is None else g1p
    coords = np.array([g.coords, g1.coords, g1p.coords], dtype=object)
    xi1 = xi1_standard(v).astype(object)[:, :, None] * coords[0]
    tables = _family_xi2_tables(params).astype(object)
    xi2 = (tables[..., None] * coords[:, None, None]).sum(axis=0)
    return CocyclePair(gamma, v, xi1, xi2)


@functools.lru_cache(maxsize=1)
def _cocycle_grid(lcs):
    """The (v-1)^3 grid of (i1, i2, i3) in loop order, flattened, and by
    name the flat positions i * v + j of the entries (i, j) the cocycle
    conditions read there.  Read-only, built once per cycle set."""
    v = lcs.v
    dot = np.array(lcs.dot, dtype=np.int64)
    i1, i2, i3 = (g.ravel() for g in np.meshgrid(*[np.arange(1, v)] * 3, indexing="ij"))
    at = {
        "i2,i3": i2 * v + i3,
        "i1+i2,i3": (i1 + i2) % v * v + i3,
        "i1,i2+i3": i1 * v + (i2 + i3) % v,
        "i1,i2": i1 * v + i2,
        "i1.i2,i1.i3": dot[i1, i2] * v + dot[i1, i3],
        "i1,i3": i1 * v + i3,
    }
    for a in (i1, i2, i3, *at.values()):
        a.flags.writeable = False
    return (i1, i2, i3), at


def verify_cocycle(pair, lcs):
    """The three degree-2 cocycle conditions of the total complex.

    Each condition is one array expression over the (v-1)^3 grid of
    (i1, i2, i3), per coordinate of the coefficients; the verdict names
    the first failing triple in loop order (i1 outermost) and, at that
    triple, the first failing condition.
    """
    (i1, i2, i3), at = _cocycle_grid(lcs)
    names = ("vertical (0,3)", "mixed (1,2)", "horizontal (2,1)")
    nonzero = np.zeros((len(i1), len(names)), dtype=bool)
    for col, m in enumerate(pair.gamma.factors):
        # one coordinate of xi1 and xi2 as flat tables; reduced mod m its
        # entries lie in [0, m), and a condition sums at most five, so
        # int32 is exact while 5 m < 2^31
        dtype = np.int32 if 0 < m < (1 << 31) // 5 else pair.xi1.dtype
        f1, f2 = (x[..., col].ravel().astype(dtype) for x in (pair.xi1, pair.xi2))

        def x1(key):
            return f1.take(at[key])

        def x2(key):
            return f2.take(at[key])

        conditions = (
            -x1("i2,i3") + x1("i1+i2,i3") - x1("i1,i2+i3") + x1("i1,i2"),
            x1("i1.i2,i1.i3") - x1("i2,i3") + x2("i1,i3") - x2("i1,i2+i3") + x2("i1,i2"),
            x2("i1.i2,i1.i3") - x2("i1+i2,i3") + x2("i1,i3"),
        )
        for which, c in enumerate(conditions):
            nonzero[:, which] |= (c % m if m else c) != 0
    hit = first_failure(nonzero)
    if hit is None:
        return Verdict(True)
    t, which = hit
    return Verdict(False, names[which], (int(i1[t]), int(i2[t]), int(i3[t])))


def cohomologous(pair1, pair2, lcs):
    """Solve pair2 - pair1 = d(lam) for a degree-1 cochain lam, lam(0) = 0.

    d is the full complex's d_2, whose transpose has one column per
    lam(1), ..., lam(v-1) (`_full_d2_transpose`).  The system is solved
    modulo each prime power of gamma's invariant factors: (lam, 1) spans
    the kernel of [d_2^T | -b] with the kernel of d_2^T, so a solution
    exists iff a kernel generator has a unit last coordinate c, and then
    lam is its other coordinates over c.  The solutions are joined into
    each factor by CRT, and d(lam) = pair2 - pair1 is checked modulo
    every factor.  On success the witness is the (v-1, r) coordinate
    array of lam.  A free factor of gamma is a resource limit.
    """
    if pair1.gamma != pair2.gamma or pair1.v != pair2.v:
        raise ValueError("pairs live on different data")
    if lcs.v != pair1.v:
        raise ValueError(f"pairs on Z/{pair1.v} compared over a cycle set on Z/{lcs.v}")
    gamma = pair1.gamma
    pp_coords = gamma.prime_power_coordinates()
    d2_t = _full_d2_transpose(lcs)
    n, r = d2_t.cols, len(gamma.factors)
    rhs = _pair_to_full_cochain(pair2) - _pair_to_full_cochain(pair1)
    witness = np.zeros((n, r), dtype=object)
    for p, k, fidx, embed in pp_coords:
        m = p**k
        b = rhs[:, fidx] % m
        hit = np.flatnonzero(b)
        system = IntegerMatrix._from_coo(
            d2_t.rows, n + 1,
            np.concatenate((d2_t.row_idx, hit)),
            np.concatenate((d2_t.col_idx, np.full(len(hit), n))),
            np.concatenate((d2_t.values, -b[hit].astype(np.int64))),
        )
        for y in modular.kernel_mod_pk(system, p, k).gens:
            c = int(y[-1])
            if c % p:
                break
        else:
            return Verdict(False, "no degree-1 witness", None)
        lam = y[:-1].astype(object) * pow(c, -1, m) % m
        witness[:, fidx] = (witness[:, fidx] + lam * embed) % gamma.factors[fidx]
    # the CRT-joined witness, checked against every factor at once
    d_lam = np.array((d2_t @ IntegerMatrix.from_rows(witness.tolist(), r)).dense(), dtype=object)
    if _mod_factors(d_lam - rhs, np.array(gamma.factors, dtype=object)).any():
        raise AssertionError("the coboundary solve's witness fails d(lam) = pair2 - pair1")
    return Verdict(True, None, witness)


# the largest raw cochain space, |gamma|^(number of cochain values), that
# `all_cocycle_pairs` enumerates
ENUMERATION_CAP = 2**20


def all_cocycle_pairs(params, gamma):
    """Every normalized degree-2 cocycle pair with the given coefficients:
    the sums over gamma's prime-power coordinates of every element of the
    full complex's cocycle kernel that `cocycle_kernels` hands each.  The
    raw cochain space must stay within ENUMERATION_CAP."""
    if not gamma.is_finite:
        raise modular.ResourceLimitError("enumeration requires finite coefficients")
    v = params.v
    n_sym = (v - 1) * v // 2
    raw = gamma.order() ** ((v - 1) ** 2 + n_sym)
    if raw > ENUMERATION_CAP:
        raise modular.ResourceLimitError(f"cochain space of size {raw} exceeds the cap {ENUMERATION_CAP}")
    chain = _full_slice(params)
    ngen, r = chain.rank(2), len(gamma.factors)

    def combinations(coord, kd):
        # (ngen, r) coordinates, the first generator varying slowest
        p, k, fidx, embed = coord
        combos = itertools.product(*[range(p**e) for e in kd.orders])
        combos = np.array(list(combos), dtype=np.int64)
        part = np.zeros((len(combos), ngen, r), dtype=np.int64)
        part[:, :, fidx] = (combos @ np.reshape(kd.gens, (len(kd.orders), ngen))) % p**k * embed
        return part

    # the first coordinate varies slowest
    cochains = np.zeros((1, ngen, r), dtype=np.int64)
    for part in cocycle_kernels(chain.cocycle_rows(2), gamma, combinations):
        cochains = (cochains[:, None] + part[None]).reshape(len(cochains) * len(part), ngen, r)
    return [_full_cochain_to_pair(params, gamma, c) for c in cochains]
