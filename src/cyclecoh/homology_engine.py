"""Chain complexes, double complexes and the row-wise homological
perturbation lemma.

There is one perturbation lemma, `perturb_double_complex`: it transfers
a small perturbation of the horizontal differential through special
deformation retracts (SDRs) of the rows of a double complex, taking
the rows from a source one at a time, or a whole grid at once.  A chain
complex is a one-row double complex with cells (n, 0), so the same
function perturbs an SDR of chain complexes.

Sign conventions used throughout (and enforced by the checks):

  * a homotopy h in an SDR satisfies  i o p - id = d o h + h o d;
  * a double complex has d_h o d_h = 0, d_v o d_v = 0 and
    d_h o d_v + d_v o d_h = 0, so its total differential is simply
    d_h + d_v (the vertical maps carry their signs internally);
  * perturbations are certified small by an explicit nilpotency degree
    n0 with (delta o h)^{n0} = 0, which truncates the geometric series
    of the perturbation lemma; the certificate is the series' own term
    of degree n0.

Everything is a finite collection of integer matrices with explicit
degree caps; identities are checked degreewise wherever all the maps
involved exist.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import operator
from dataclasses import dataclass, field

from .abelian import PresentedModule, RowBlocks, _identity_columns, block_matrix
from .cycleset import Verdict


@dataclass
class ChainComplex:
    """Non-negatively graded complex with differential d[n]: X_n -> X_{n-1}."""

    modules: dict
    diff: dict

    def rank(self, n):
        mod = self.modules.get(n)
        return 0 if mod is None else mod.ngens

    @property
    def top(self):
        return max(self.modules) if self.modules else -1

    def cocycle_rows(self, n):
        """The n-cocycle conditions of Hom(self, -), X_n's relations over
        d_{n+1}^T, as the one block of a `RowBlocks`."""
        return RowBlocks.of(self.modules[n].relations.vstack(self.diff[n + 1].transpose()))

    def validate(self):
        """d o d = 0, d_{n-1} @ d_n composed a block of d_n's columns at a
        time (`_holds`); a failure names the degree n."""
        for n in range(2, self.top + 1):
            if n in self.diff and (n - 1) in self.diff:
                d, below = self.diff[n], self.diff[n - 1]
                if not _holds(d.cols, (d,), lambda a, b, db: (below @ db).is_zero()):
                    return Verdict(False, "d o d = 0", n)
        return Verdict(True)


@dataclass(frozen=True)
class CellRank:
    """A cell known only by its number of generators.  The perturbation
    lemma reads no more of the large complex C, so its cells need not
    carry their relations; a `PresentedModule` holds the presentation
    where one is needed."""

    ngens: int


@dataclass
class DoubleComplex:
    """Bigraded cells with d_h[(r, s)]: (r,s) -> (r-1,s) and d_v: -> (r,s-1).

    The cells are `PresentedModule`s; `rank` and the perturbation lemma
    read only their `ngens`, so a `CellRank` serves where the
    presentation is never read.

    A differential may be an `IdentityKron` record I (x) B (x) I held by
    its factor B, as the perturbation transfer's large complex holds its
    differentials and its small complex X its vertical maps.  Such a
    record is read only through products with an `IntegerMatrix`, d @ M
    and M @ d, and its row and column slices, and has no product with
    another record, so `validate`, which composes differentials with each
    other, and `total_complex`, which assembles them, do not apply to a
    complex that holds them."""

    cells: dict
    dh: dict = field(default_factory=dict)
    dv: dict = field(default_factory=dict)

    def rank(self, pos):
        mod = self.cells.get(pos)
        return 0 if mod is None else mod.ngens

    def validate(self):
        for (r, s), m in self.dh.items():
            tgt = (r - 1, s)
            if (r, s) in self.dh and tgt in self.dh:
                if not (self.dh[tgt] @ m).is_zero():
                    return Verdict(False, "d_h o d_h = 0", (r, s))
        for (r, s), m in self.dv.items():
            tgt = (r, s - 1)
            if tgt in self.dv:
                if not (self.dv[tgt] @ m).is_zero():
                    return Verdict(False, "d_v o d_v = 0", (r, s))
        for (r, s) in self.cells:
            h = self.dh.get((r, s))
            v = self.dv.get((r, s))
            hv = self.dv.get((r - 1, s))
            vh = self.dh.get((r, s - 1))
            if h is not None and v is not None and hv is not None and vh is not None:
                if not (hv @ h + vh @ v).is_zero():
                    return Verdict(False, "d_h d_v + d_v d_h = 0", (r, s))
        return Verdict(True)


def total_complex(dc):
    """Total complex X_n = direct sum over r+s = n, differential d_h + d_v."""
    degrees = {}
    for (r, s), mod in dc.cells.items():
        degrees.setdefault(r + s, []).append((r, s))
    for n in degrees:
        degrees[n].sort()
    modules = {}
    for n, poss in sorted(degrees.items()):
        # stack relations blockwise
        rels = [dc.cells[pos].relations for pos in poss]
        relations = block_matrix(
            {(bi, bi): rel for bi, rel in enumerate(rels) if rel.rows},
            [rel.rows for rel in rels],
            [rel.cols for rel in rels],
        )
        modules[n] = PresentedModule(relations.cols, relations)
    diff = {}
    for n in sorted(degrees):
        if n - 1 not in degrees:
            continue
        srcs = degrees[n]
        tgts = degrees[n - 1]
        tgt_index = {pos: bi for bi, pos in enumerate(tgts)}
        blocks = {}
        for bj, (r, s) in enumerate(srcs):
            m = dc.dh.get((r, s))
            if m is not None and (r - 1, s) in tgt_index:
                blocks[(tgt_index[(r - 1, s)], bj)] = m
            m = dc.dv.get((r, s))
            if m is not None and (r, s - 1) in tgt_index:
                blocks[(tgt_index[(r, s - 1)], bj)] = m
        diff[n] = block_matrix(
            blocks,
            [dc.cells[pos].ngens for pos in tgts],
            [dc.cells[pos].ngens for pos in srcs],
        )
    return ChainComplex(modules, diff)


# ---------------------------------------------------------------------------
# row-wise perturbation of a double complex
# ---------------------------------------------------------------------------


@dataclass
class RowSDRSystem:
    """Double-complex morphisms i: X -> C, p: C -> X with p o i = id whose
    rows (fixed s, varying r) are SDRs via h[(r, s)]: C_{r,s} -> C_{r+1,s}."""

    X: DoubleComplex
    C: DoubleComplex
    i: dict
    p: dict
    h: dict


@dataclass
class PerturbedRows:
    """The transfer's output: X over every row, with its perturbed
    horizontal differential, and the corrected maps i1, p1 and h1 that
    the call keeps."""

    X: DoubleComplex
    i1: dict
    p1: dict
    h1: dict


def perturb_double_complex(rows, n0, verify=True, keep=None):
    """Row-wise perturbation-lemma transfer across a double complex, one
    row (or band of rows) at a time.

    `rows` yields (system, delta) pairs in increasing s.  Each system is a
    `RowSDRSystem` on one row of the double complex, or on several
    consecutive rows (a whole grid is one pair), and delta maps its cells
    (r, s) -> matrix C_{r,s} -> C_{r-1,s}.  A system's X.dv and C.dv are
    the vertical maps out of its cells, into the row below.  n0 is the
    nilpotency witness for every delta o h.  Returns X over every row with
    its perturbed horizontal differential, and the corrected i1, p1, h1
    named by `keep`, {"i1" | "p1" | "h1": cells}, or all of them when
    `keep` is None.

    The perturbation is horizontal, so the corrections at (r, s) read row
    s alone.  Each pair is corrected (`_corrected_rows`) and verified
    before the next is drawn from `rows`: `_verify_perturbed_rows` checks
    that i1/p1 are morphisms of double complexes with p1 o i1 = id, and
    that each row homotopy identity holds, where the vertical chain-map
    identities at (r, s) read the corrected i1 and p1 of the pair below.
    Of a pair only X's corrected horizontal differentials, the kept maps
    and, for the next pair's vertical identities, its i1 and p1 outlive
    it: its system, delta, h1 and delta h are released before the next
    pair is drawn, so a source that builds each row as it is drawn holds
    one row of the large complex at a time.

    The perturbed differential d_C + delta of C is never formed: the
    verification applies it as d_C @ M + delta @ M and M @ d_C + M @ delta,
    so C's differential is held once, beside delta, and C's differentials
    and delta are read only through such products (an `IdentityKron` or
    a `FaceDifference` serves).  The verification compares each identity
    a block of columns (or rows) at a time, so it reads column slices of
    the right factors too, which these records give.  X's vertical maps
    may be such records as well: the verification reads their column
    slices and row slices, each a block wide.  Of C's cells only the
    ranks are read.
    """
    X = DoubleComplex({}, {}, {})
    kept = {"i1": {}, "p1": {}, "h1": {}}
    below = ({}, {})
    for system, delta in rows:
        dhX, i1, p1, h1 = _corrected_rows(system, delta, n0)
        Xp = DoubleComplex(system.X.cells, dhX, system.X.dv)
        if verify:
            report = _verify_perturbed_rows(
                Xp, system.C, delta, collections.ChainMap(i1, below[0]),
                collections.ChainMap(p1, below[1]), h1,
            )
            if not report:
                raise AssertionError(f"perturbed double complex failed: {report}")
            below = (i1, p1)
        X.cells.update(Xp.cells)
        X.dh.update(dhX)
        X.dv.update(Xp.dv)
        for name, maps in (("i1", i1), ("p1", p1), ("h1", h1)):
            cells = maps if keep is None else keep.get(name, ())
            kept[name].update((pos, maps[pos]) for pos in cells if pos in maps)
        # nothing of this pair but X, the kept maps and `below` is held
        # while the source makes the next
        del system, delta, dhX, i1, p1, h1, maps, cells, Xp
    return PerturbedRows(X, kept["i1"], kept["p1"], kept["h1"])


def _corrected_rows(system, delta, n0):
    """The perturbation lemma's corrections on the rows of one system:
    X's perturbed horizontal differentials and the corrected i1, p1, h1.

    Smallness is read off the series the corrections form anyway.  At
    each cell (r, s) with h and delta at (r + 1, s), delta h is formed
    once, and the h-series T_1 = delta h, T_{j+1} = delta h T_j gives
    Ah = T_1 + ... + T_n0.  (delta h)^n0 = 0 exactly when T_n0, or an
    earlier term, is 0; otherwise this raises
    ValueError("perturbation not small at (r, s)").  The cells are
    visited in the order of (s, r): Ah at (r, s) and Ai at (r + 1, s)
    read that delta h, which is then dropped.

    The system's maps are consumed: each i, p or h that a correction
    replaces is deleted from `system.i`, `system.p` or `system.h`, so that
    the uncorrected map is not held through the verification.
    """

    def series(term, delta_h):
        """The sum of term, delta_h @ term, ..., delta_h^(n0-1) @ term, and
        the last of these formed: the series stops after its first zero
        term, and is term alone where delta_h is None."""
        total = term
        for _ in range(n0 - 1 if delta_h is not None else 0):
            if term.is_zero():
                break
            term = delta_h @ term
            total = total + term
        return total, term

    new_dhX = dict(system.X.dh)
    i1 = dict(system.i)
    p1 = dict(system.p)
    h1 = dict(system.h)
    # delta h at the last cell visited, read by Ai at the next one in its
    # row; Ai, Ah and delta h are dropped at the end of each cell, so that
    # neither the next cell's products nor the verification hold them
    dh = {}
    for r, s in sorted(system.C.cells, key=lambda pos: (pos[1], pos[0])):
        delta_h = dh.pop((r - 1, s), None)
        d = delta.get((r, s))
        if (r, s) in system.i and d is not None:
            Ai = series(d @ system.i[(r, s)], delta_h)[0]
            if (r - 1, s) in system.p:
                corr = system.p[(r - 1, s)] @ Ai
                base = system.X.dh.get((r, s))
                new_dhX[(r, s)] = corr if base is None else base + corr
            if (r - 1, s) in system.h:
                i1[(r, s)] = system.i[(r, s)] + system.h[(r - 1, s)] @ Ai
            Ai = None
        d = delta.get((r + 1, s))
        if (r, s) in system.h and d is not None:
            # the h-series T_1 = delta h, T_(j+1) = delta h T_j: Ah is
            # T_1 + ... + T_n0, and (delta h)^n0 = 0 exactly when the
            # series reaches a zero term by T_n0
            delta_h = d @ system.h[(r, s)]
            Ah, last = series(delta_h, delta_h)
            if not last.is_zero():
                raise ValueError(f"perturbation not small at {(r, s)}")
            dh[(r, s)] = delta_h
            if (r, s) in system.p:
                p1[(r, s)] = system.p[(r, s)] + system.p[(r, s)] @ Ah
            h1[(r, s)] = system.h[(r, s)] + system.h[(r, s)] @ Ah
            Ah = last = None
        delta_h = None
    # the verification reads neither delta h nor the maps the corrections
    # replaced, so they are released before it
    dh.clear()
    for old, new in ((system.i, i1), (system.p, p1), (system.h, h1)):
        for pos in [pos for pos, m in old.items() if new[pos] is not m]:
            del old[pos]
    return new_dhX, i1, p1, h1


def _perturbed_summands(C, delta, pos):
    """The summands at pos of C's perturbed differential d_C + delta,
    which is applied term by term and never formed; [] where it is 0."""
    return [m for m in (C.dh.get(pos), delta.get(pos)) if m is not None]


def _sum(terms):
    return functools.reduce(operator.add, terms)


# the most columns (or rows) of an identity that the verification
# compares at once, rounded to the alignment its factors need
_VERIFY_BLOCK = 2**10


def _blocks(lines, factors):
    """[start, stop) ranges covering range(lines) in blocks of about
    _VERIFY_BLOCK lines, each a multiple of every factor's column unit
    wide (the last may be shorter); none when there are no lines."""
    if not lines:
        return []
    unit = math.lcm(*(m.column_unit for m in factors))
    width = max(unit, _VERIFY_BLOCK // unit * unit)
    return [(a, min(a + width, lines)) for a in range(0, lines, width)]


def _holds(lines, factors, check):
    """check(a, b, *cols) on every block [a, b) of `_blocks`, cols the
    columns a..b-1 of each factor: a property checked a block of columns
    (or rows) at a time, so that no more than one block of its products
    is held.  The factors' `column_slices`, with their column orders, are
    made once here and released with the check."""
    slicers = [m.column_slices() for m in factors]
    for a, b in _blocks(lines, factors):
        if not check(a, b, *(column_slice(a, b) for column_slice in slicers)):
            return False
    return True


def _agree(lines, factors, lhs, rhs):
    """lhs(a, b, *cols) == rhs(a, b, *cols) on every block, by `_holds`."""
    return _holds(lines, factors, lambda a, b, *cols: lhs(a, b, *cols) == rhs(a, b, *cols))


def _verify_perturbed_rows(Xp, C, delta, i1, p1, h1):
    """The identities of the perturbed SDR on the cells of Xp and C, with
    C's differential d_C + delta read from C.dh and delta.  i1 and p1 may
    hold the maps of the row below too (a `collections.ChainMap`), which
    the vertical chain-map identities at (r, s) read at (r, s - 1); the
    identities are checked at Xp's and C's cells only.

    Each identity at each cell is compared a block of columns at a time,
    (L @ R)[:, J] = L @ R[:, J] for the right factors R, and a block of
    rows at a time, (L @ R)[I, :] = L[I, :] @ R, where a right factor is
    C.dv, which has no column slices.  Every column of every identity is
    compared, and a failure names the identity and the cell."""
    # item (1): morphisms of double complexes with p1 o i1 = id
    for pos in Xp.cells:
        if pos in i1 and pos in p1:
            n = Xp.rank(pos)
            if not _agree(
                n, (i1[pos],),
                lambda a, b, ib: p1[pos] @ ib,
                lambda a, b, ib: _identity_columns(n, a, b),
            ):
                return Verdict(False, "p1 o i1 = id", pos)
    for (r, s) in Xp.cells:
        tgt = (r - 1, s)
        dC = _perturbed_summands(C, delta, (r, s))
        i, p = i1.get((r, s)), p1.get((r, s))
        xh, xv, cv = Xp.dh.get((r, s)), Xp.dv.get((r, s)), C.dv.get((r, s))
        if i is not None and tgt in i1 and xh is not None and dC:
            if not _agree(
                xh.cols, (i, xh),
                lambda a, b, ib, xhb: _sum(d @ ib for d in dC),
                lambda a, b, ib, xhb: i1[tgt] @ xhb,
            ):
                return Verdict(False, "i1 horizontal chain map", (r, s))
        if p is not None and tgt in p1 and xh is not None and dC:
            if not _agree(
                p.cols, (p, *dC),
                lambda a, b, pb, *dCb: xh @ pb,
                lambda a, b, pb, *dCb: _sum(p1[tgt] @ db for db in dCb),
            ):
                return Verdict(False, "p1 horizontal chain map", (r, s))
        vt = (r, s - 1)
        if i is not None and vt in i1 and xv is not None and cv is not None:
            if not _agree(
                xv.cols, (i, xv),
                lambda a, b, ib, xvb: cv @ ib,
                lambda a, b, ib, xvb: i1[vt] @ xvb,
            ):
                return Verdict(False, "i1 vertical chain map", (r, s))
        if p is not None and vt in p1 and xv is not None and cv is not None:
            if not _agree(
                xv.rows, (),
                lambda a, b: xv.row_slice(a, b) @ p,
                lambda a, b: p1[vt].row_slice(a, b) @ cv,
            ):
                return Verdict(False, "p1 vertical chain map", (r, s))
    # item (2): row homotopy identity
    for (r, s) in C.cells:
        if (r, s) not in h1 or (r, s) not in i1 or (r, s) not in p1:
            continue
        up = _perturbed_summands(C, delta, (r + 1, s))
        if not up:
            continue
        h, i, p = h1[(r, s)], i1[(r, s)], p1[(r, s)]
        prev = h1.get((r - 1, s))
        here = _perturbed_summands(C, delta, (r, s)) if prev is not None else []
        n = C.rank((r, s))

        def lhs(a, b, hb, pb, *hereb):
            # each product joins the sum as soon as it is formed
            return _sum(itertools.chain((d @ hb for d in up), (prev @ db for db in hereb)))

        if not _agree(
            n, (h, p, *here), lhs,
            lambda a, b, hb, pb, *hereb: i @ pb - _identity_columns(n, a, b),
        ):
            return Verdict(False, "row homotopy identity", (r, s))
    return Verdict(True)
