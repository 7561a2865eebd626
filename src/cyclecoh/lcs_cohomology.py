"""Cohomology of cyclic linear cycle sets in degrees 1 and 2, by three
independent routes, plus the explicit degree-2 cocycle families.

The chain-level objects: for a linear cycle set on Z/vZ write D-bar for
the reduced group ring slots (exponents 1..v-1) and Mbar(s) for the
quotient of D-bar tensors by signed shuffles.  The full complex has
cells C_{r,s} = Dbar^{x r} (x) Mbar(s) (r >= 0, s >= 1) with the
cycle-set dot twisting the horizontal differential; its Hom-dual
computes the cohomology classifying central extensions.

The reduced route replaces each row by the small complex of copies of
Mbar(s) coming from the crossed-product resolution, transfers the
dot-perturbation through the row retractions, and lands on the small
partial total complex spanning degrees 1..3:

        Mbar(3)_00
            |
        Mbar(2)_00 <- Mbar(2)_01 + Mbar(2)_10
            |                |
        Mbar(1)_00 <- Mbar(1)_01 + Mbar(1)_10 <- Mbar(1)_02 + _11 + _20

whose arrows also have closed forms; the construction asserts closed
forms and transfer output agree entrywise.

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
    _INT64_BOUND,
    FinAbGroup,
    IntegerMatrix,
    PresentedModule,
    block_matrix,
    hom_cohomology_at,
)
from . import modular
from .cycleset import (
    CyclicFamilyParams,
    LinearCycleSet,
    Verdict,
    first_failure,
    make_cyclic_lcs,
)
from .cyclic_resolution import (
    coefficient_complex,
    exp_tuples,
    pepito_scalar,
    tuple_bar_differential,
)
from .homology_engine import (
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
    labels = exp_tuples(s, v)
    index = {t: i for i, t in enumerate(labels)}
    rows = []
    for l in range(1, s):
        arrangements = _shuffle_arrangements(l, s)
        for tup in labels:
            row = {}
            for sign, placement in arrangements:
                key = tuple(tup[placement[q]] for q in range(s))
                row[index[key]] = row.get(index[key], 0) + sign
            rows.append(row)
    data = {(i, j): val for i, row in enumerate(rows) for j, val in row.items()}
    relations = IntegerMatrix(len(rows), len(labels), data)
    return PresentedModule(len(labels), relations, tuple(labels))


def _tensor_labels(r, s, v):
    return [
        (gt, mt)
        for gt in exp_tuples(r, v)
        for mt in exp_tuples(s, v)
    ]


@dataclass
class FullComplexSlice:
    """The full double complex of a linear cycle set through total degree cap."""

    lcs: LinearCycleSet
    cap: int
    dc: DoubleComplex
    total: ChainComplex


def full_double_complex(lcs, cap=3):
    """Cells, horizontal and vertical differentials, and the verified total
    complex of the cycle-set double complex through total degree cap."""
    v = lcs.v
    cells = {}
    relcache = {s: shuffle_quotient(s, v).relations for s in range(1, cap + 1)}
    for n in range(1, cap + 1):
        for s in range(1, n + 1):
            r = n - s
            labels = tuple(_tensor_labels(r, s, v))
            base_rel = relcache[s]
            if base_rel.rows:
                ngts = len(exp_tuples(r, v))
                relations = block_matrix(
                    {(gi, gi): base_rel for gi in range(ngts)},
                    [base_rel.rows] * ngts,
                    [base_rel.cols] * ngts,
                )
            else:
                relations = IntegerMatrix.zero(0, len(labels))
            cells[(r, s)] = PresentedModule(len(labels), relations, labels)
    dh = {}
    dv = {}
    for (r, s), mod in cells.items():
        if r >= 1 and (r - 1, s) in cells:
            dh[(r, s)] = _full_dh(lcs, r, s, cells)
        if s >= 2 and (r, s - 1) in cells:
            dv[(r, s)] = _full_dv(v, r, s, cells)
    dc = DoubleComplex(cells, dh, dv)
    report = dc.validate()
    if not report:
        raise AssertionError(f"full double complex is inconsistent: {report}")
    return FullComplexSlice(lcs, cap, dc, total_complex(dc))


def _full_dh(lcs, r, s, cells):
    v = lcs.v
    dot = lcs.dot
    src = cells[(r, s)].labels
    tgt_index = {lab: i for i, lab in enumerate(cells[(r - 1, s)].labels)}
    data = {}
    for col, (gt, mt) in enumerate(src):
        def add(key, c):
            gt2, mt2 = key
            if all(x % v for x in gt2) and all(x % v for x in mt2):
                k = (tgt_index[(gt2, mt2)], col)
                data[k] = data.get(k, 0) + c

        g1 = gt[0]
        add(
            (
                tuple(dot[g1][x] for x in gt[1:]),
                tuple(dot[g1][x] for x in mt),
            ),
            1,
        )
        for j in range(1, r):
            merged = gt[: j - 1] + ((gt[j - 1] + gt[j]) % v,) + gt[j + 1 :]
            add((merged, mt), (-1) ** j)
        add((gt[:-1], mt), (-1) ** r)
    return IntegerMatrix(len(tgt_index), len(src), data)


def _full_dv(v, r, s, cells):
    src = cells[(r, s)].labels
    tgt_index = {lab: i for i, lab in enumerate(cells[(r, s - 1)].labels)}
    inner_cols = tuple_bar_differential(s, v).columns()
    m_index = {t: i for i, t in enumerate(exp_tuples(s, v))}
    tgt_mts = exp_tuples(s - 1, v)
    sign = (-1) ** (r + 1)
    data = {}
    for col, (gt, mt) in enumerate(src):
        for row, val in inner_cols[m_index[mt]].items():
            k = (tgt_index[(gt, tgt_mts[row])], col)
            data[k] = data.get(k, 0) + sign * val
    return IntegerMatrix(len(tgt_index), len(src), data)


def perturbation_delta(lcs, cells, positions=((1, 1), (2, 1), (1, 2))):
    """The dot-twist of the horizontal differential.

    By default only the three positions feeding the degree <= 3 arrows;
    positions=None takes the twist everywhere on the grid, which is the
    honest square-zero perturbation (the truncated version fails
    (d + delta)^2 = 0 above total degree 3, without affecting the
    transferred arrows)."""
    dot = lcs.dot
    delta = {}
    if positions is None:
        positions = [(r, s) for (r, s) in cells if r >= 1]
    for (r, s) in positions:
        if (r, s) not in cells or (r - 1, s) not in cells:
            continue
        src = cells[(r, s)].labels
        tgt_index = {lab: i for i, lab in enumerate(cells[(r - 1, s)].labels)}
        data = {}
        for col, (gt, mt) in enumerate(src):
            g1 = gt[0]
            twisted = (
                tuple(dot[g1][x] for x in gt[1:]),
                tuple(dot[g1][x] for x in mt),
            )
            plain = (gt[1:], mt)
            for key, c in ((twisted, 1), (plain, -1)):
                k = (tgt_index[key], col)
                data[k] = data.get(k, 0) + c
        delta[(r, s)] = IntegerMatrix(len(tgt_index), len(src), data)
    return delta


# ---------------------------------------------------------------------------
# the reduced complex
# ---------------------------------------------------------------------------

DEG1 = ((1, (0, 0)),)
DEG2 = ((2, (0, 0)), (1, (0, 1)), (1, (1, 0)))
DEG3 = ((3, (0, 0)), (2, (0, 1)), (2, (1, 0)), (1, (0, 2)), (1, (1, 1)), (1, (2, 0)))


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
    """The small partial total complex with its named arrows."""

    params: CyclicFamilyParams
    modules: dict          # degree -> PresentedModule (labels ((s, cell), tuple))
    d2: IntegerMatrix
    d3: IntegerMatrix
    arrows: dict           # name -> IntegerMatrix
    phi01: IntegerMatrix   # Dbar (x) Mbar(1) -> Mbar(1), component into cell (0,1)
    phi10: IntegerMatrix   # component into cell (1,0)

    def phi2_matrix(self):
        """Degree-2 comparison: full cochain positions (Mbar(2), Dbar x Mbar(1))
        to the three reduced blocks (Mbar(2)_00, Mbar(1)_01, Mbar(1)_10)."""
        v = self.params.v
        n2 = (v - 1) ** 2
        n1 = v - 1
        return block_matrix(
            {
                (0, 0): IntegerMatrix.identity(n2),
                (1, 1): self.phi01,
                (2, 1): self.phi10,
            },
            [n2, n1, n1],
            [n2, (v - 1) * (v - 1)],
        )


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
    arrows["dh2_021"] = _one_slot_map(
        v,
        lambda a: [(a, -1)] + [(p((1 - s * u) * a), u2 * s) for s in range(1, t)],
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
    inner2 = tuple_bar_differential(2, v)
    inner3 = tuple_bar_differential(3, v)
    arrows["dv_002"] = inner2.scale(-1)   # position sign (-1)^(0+1)
    arrows["dv_003"] = inner3.scale(-1)
    arrows["dv_012"] = inner2             # position sign (-1)^(1+1)
    arrows["dv_102"] = inner2
    return arrows


def _reduced_modules(params):
    v = params.v
    mods = {}
    quotients = {s: shuffle_quotient(s, v) for s in (1, 2, 3)}
    for degree, blocks in ((1, DEG1), (2, DEG2), (3, DEG3)):
        labels = []
        rel_blocks = {}
        sizes = []
        rel_rows = []
        for bi, (s, cell) in enumerate(blocks):
            q = quotients[s]
            labels.extend(((s, cell), lab) for lab in q.labels)
            sizes.append(q.ngens)
            rel_rows.append(q.relations.rows)
            if q.relations.rows:
                rel_blocks[(bi, bi)] = q.relations
        relations = block_matrix(rel_blocks, rel_rows, sizes)
        mods[degree] = PresentedModule(sum(sizes), relations, tuple(labels))
    return mods


def _assemble(blocks, tgt_blocks, src_blocks, params):
    v = params.v
    size = {1: v - 1, 2: (v - 1) ** 2, 3: (v - 1) ** 3}
    tgt_sizes = [size[s] for s, _ in tgt_blocks]
    src_sizes = [size[s] for s, _ in src_blocks]
    placed = {}
    for (tgt, src), m in blocks.items():
        placed[(tgt_blocks.index(tgt), src_blocks.index(src))] = m
    return block_matrix(placed, tgt_sizes, src_sizes)


@functools.cache
def reduced_complex(params):
    """The reduced partial total complex, built from the closed-form arrows
    and cross-checked against the perturbation-lemma transfer."""
    arrows = _arrow_matrices(params)
    mods = _reduced_modules(params)
    d2 = _assemble(
        {
            ((1, (0, 0)), (2, (0, 0))): arrows["dv_002"],
            ((1, (0, 0)), (1, (0, 1))): arrows["dh1_011"],
        },
        list(DEG1),
        list(DEG2),
        params,
    )
    d3 = _assemble(
        {
            ((2, (0, 0)), (3, (0, 0))): arrows["dv_003"],
            ((2, (0, 0)), (2, (0, 1))): arrows["dh1_012"],
            ((1, (0, 1)), (2, (0, 1))): arrows["dv_012"],
            ((1, (1, 0)), (2, (1, 0))): arrows["dv_102"],
            ((1, (0, 1)), (1, (0, 2))): arrows["dh1_021"],
            ((1, (1, 0)), (1, (0, 2))): arrows["dh2_021"],
            ((1, (1, 0)), (1, (1, 1))): arrows["dh1_111"],
            ((1, (1, 0)), (1, (2, 0))): arrows["dh0_201"],
        },
        list(DEG2),
        list(DEG3),
        params,
    )
    if not (d2 @ d3).is_zero():
        raise AssertionError("reduced complex fails d o d = 0")

    transfer = _transfer_reduced(params)
    for name, (pos, tgt_cell, src_cell) in {
        "dh1_011": ((1, 1), (0, 0), (0, 1)),
        "dh1_111": ((2, 1), (1, 0), (1, 1)),
        "dh0_201": ((2, 1), (1, 0), (2, 0)),
        "dh1_021": ((2, 1), (0, 1), (0, 2)),
        "dh2_021": ((2, 1), (1, 0), (0, 2)),
        "dh1_012": ((1, 2), (0, 0), (0, 1)),
    }.items():
        got = _extract_block(transfer.X.dh[pos], pos, tgt_cell, src_cell, params)
        if got != arrows[name]:
            raise AssertionError(
                f"transfer output disagrees with the closed-form arrow {name}"
            )
    # the zero arrows of the diagram
    for pos, tgt_cell, src_cell in (
        ((2, 1), (0, 1), (1, 1)),
        ((1, 2), (0, 0), (1, 0)),
        ((1, 1), (0, 0), (1, 0)),
    ):
        got = _extract_block(transfer.X.dh[pos], pos, tgt_cell, src_cell, params)
        if not got.is_zero():
            raise AssertionError(f"expected zero arrow at {pos} {src_cell}->{tgt_cell}")

    phi01, phi10 = _phi_hat_from_transfer(transfer, params)
    closed01, closed10 = phi_hat_closed(params)
    if phi01 != closed01 or phi10 != closed10:
        raise AssertionError("transferred degree-2 projection disagrees with closed form")

    return ReducedComplexT(params, mods, d2, d3, arrows, phi01, phi10)


def _extract_block(m, pos, tgt_cell, src_cell, params):
    v = params.v
    s = pos[1]
    gsize = (v - 1) ** s
    src_cells = [(alpha, pos[0] - alpha) for alpha in range(pos[0] + 1)]
    tgt_cells = [(alpha, pos[0] - 1 - alpha) for alpha in range(pos[0])]
    bi = tgt_cells.index(tgt_cell)
    bj = src_cells.index(src_cell)
    return m.submatrix(bi * gsize, (bi + 1) * gsize, bj * gsize, (bj + 1) * gsize)


def _transfer_reduced(params):
    """Row-wise perturbation transfer on the grid {(r, s)} used in degrees <= 3."""
    v, t = params.v, params.t
    lcs = make_cyclic_lcs(params)
    rmax = {1: 3, 2: 2, 3: 1}
    quotients = {s: shuffle_quotient(s, v) for s in (1, 2, 3)}
    ccs = {s: coefficient_complex(params, quotients[s], rmax[s]) for s in (1, 2, 3)}

    xcells, xdh, xdv = {}, {}, {}
    ccells, cdh, cdv = {}, {}, {}
    i_maps, p_maps, h_maps = {}, {}, {}
    inner = {s: tuple_bar_differential(s, v) for s in (2, 3)}
    for s in (1, 2, 3):
        cc = ccs[s]
        g = quotients[s].ngens
        for r in range(rmax[s] + 1):
            xcells[(r, s)] = cc.chain.modules[r]
            ccells[(r, s)] = cc.bar_modules[r]
            i_maps[(r, s)] = cc.phibar[r]
            p_maps[(r, s)] = cc.varphibar[r]
            if r + 1 <= rmax[s]:
                h_maps[(r, s)] = cc.omegabar[r + 1]
            if r >= 1:
                cdh[(r, s)] = cc.bar_diff[r]
                xdh[(r, s)] = _pepito_row_d(params, r, s, g)
    for s in (2, 3):
        g_src = quotients[s].ngens
        g_tgt = quotients[s - 1].ngens
        for r in range(min(rmax[s], rmax[s - 1]) + 1):
            sign = (-1) ** (r + 1)
            # X side: block diagonal over the cells of degree r
            cells_r = [(alpha, r - alpha) for alpha in range(r + 1)]
            xdv[(r, s)] = block_matrix(
                {(bi, bi): inner[s].scale(sign) for bi in range(len(cells_r))},
                [g_tgt] * len(cells_r),
                [g_src] * len(cells_r),
            )
            # bar side: id on the group slots tensor the inner map
            ngt = (v - 1) ** r
            cdv[(r, s)] = block_matrix(
                {(k, k): inner[s].scale(sign) for k in range(ngt)},
                [g_tgt] * ngt,
                [g_src] * ngt,
            )
    delta = perturbation_delta(lcs, ccells, positions=None)
    system = RowSDRSystem(
        DoubleComplex(xcells, xdh, xdv), DoubleComplex(ccells, cdh, cdv), i_maps, p_maps, h_maps
    )
    return perturb_double_complex(
        system, delta, t, verify=(t >= 2), vanishes_beyond=False
    )


def _pepito_row_d(params, r, s, g):
    """Horizontal differential of the small row complex at (r, s), assembled
    from the closed-form scalar table."""
    u, t = params.u, params.t
    srcs = [(alpha, r - alpha) for alpha in range(r + 1)]
    tgts = [(alpha, r - 1 - alpha) for alpha in range(r)]
    tgt_index = {pos: k for k, pos in enumerate(tgts)}
    blocks = {}
    for bj, (alpha, beta) in enumerate(srcs):
        lmin = 1 if alpha == 0 else 0
        for l in range(lmin, min(beta, 2) + 1):
            pos = (alpha + l - 1, beta - l)
            if pos not in tgt_index:
                continue
            scalar = pepito_scalar(l, alpha, beta, u, t)
            if scalar:
                bi = tgt_index[pos]
                blk = IntegerMatrix.identity(g).scale(scalar)
                blocks[(bi, bj)] = blocks.get((bi, bj), IntegerMatrix.zero(g, g)) + blk
    return block_matrix(blocks, [g] * len(tgts), [g] * len(srcs))


def _phi_hat_from_transfer(transfer, params):
    v = params.v
    n1 = v - 1
    p1 = transfer.p1[(1, 1)]
    # blocks of X_{1,1} = Mbar(1)_{01} + Mbar(1)_{10}
    return p1.submatrix(0, n1, 0, p1.cols), p1.submatrix(n1, 2 * n1, 0, p1.cols)


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

@functools.cache
def _full_slice(params):
    return full_double_complex(make_cyclic_lcs(params), 3)


@dataclass
class CohomologyResult:
    group: FinAbGroup
    method: str
    representatives: list = field(default_factory=list)


def cohomology(params, gamma, n, method):
    """H^n of the cycle set with coefficients in gamma, n in {1, 2}.

    method "full" computes on the total cycle-set complex, "reduced" on
    the small transferred complex, "closed" evaluates the final
    formulas; full/reduced also return representative cocycles.
    """
    if n not in (1, 2):
        raise ValueError("only degrees 1 and 2 are in scope")
    if method == "closed":
        return CohomologyResult(_closed_form(params, gamma, n), "closed")
    if method not in ("full", "reduced"):
        raise ValueError(f"unknown method {method!r}")
    if not gamma.is_finite:
        raise ValueError("full/reduced routes require finite coefficients")
    if method == "full":
        return _full_route(params, gamma, n)
    return _reduced_route(params, gamma, n)


def _closed_form(params, gamma, n):
    from .abelian import torsion_and_quotient

    u, v = params.u, params.v
    if n == 1:
        return torsion_and_quotient(gamma, u)[0]
    if params.t == 1:
        tors, quot = torsion_and_quotient(gamma, v)
        return tors.direct_sum(quot)
    if params.u > 2:
        tors, quot = torsion_and_quotient(gamma, u)
        return quot.direct_sum(tors)
    # u = 2 with t > 1 forces v = 4
    tors, quot = torsion_and_quotient(gamma, 2)
    return quot.direct_sum(tors).direct_sum(tors)


def _full_route(params, gamma, n):
    fc = _full_slice(params)
    chain = fc.total
    d_in = chain.diff[n + 1]
    if n >= 2:
        d_out = chain.diff[n]
        out_rel = chain.modules[n - 1].relations
    else:
        d_out = IntegerMatrix.zero(0, chain.rank(n))
        out_rel = None
    res = hom_cohomology_at(
        d_in, d_out, chain.modules[n].relations, gamma, out_rel
    )
    reps = []
    if n == 2:
        for order, cochain in res.summands:
            reps.append((order, _full_vector_to_pair(params, gamma, chain, cochain)))
    else:
        reps = list(res.summands)
    return CohomologyResult(res.group, "full", reps)


def _full_vector_to_pair(params, gamma, chain, cochain):
    v = params.v
    labels = chain.modules[2].labels
    xi1 = [[gamma.zero()] * v for _ in range(v)]
    xi2 = [[gamma.zero()] * v for _ in range(v)]
    for val, (pos, lab) in zip(cochain, labels):
        gt, mt = lab
        if pos == (0, 2):
            xi1[mt[0]][mt[1]] = val
        else:
            xi2[gt[0]][mt[0]] = val
    return CocyclePair(gamma, v, tuple(map(tuple, xi1)), tuple(map(tuple, xi2)))


def _reduced_route(params, gamma, n):
    rc = reduced_complex(params)
    if n == 1:
        d_in = rc.d2
        d_out = IntegerMatrix.zero(0, rc.modules[1].ngens)
        res = hom_cohomology_at(d_in, d_out, rc.modules[1].relations, gamma, None)
        return CohomologyResult(res.group, "reduced", list(res.summands))
    res = hom_cohomology_at(
        rc.d3, rc.d2, rc.modules[2].relations, gamma, rc.modules[1].relations
    )
    reps = []
    for order, cochain in res.summands:
        reps.append((order, reduced_vector_to_pair(params, gamma, cochain)))
    return CohomologyResult(res.group, "reduced", reps)


def reduced_vector_to_pair(params, gamma, cochain):
    """Push a reduced degree-2 cochain through the degree-2 comparison to a
    cocycle pair on the full complex."""
    rc = reduced_complex(params)
    v = params.v
    n1 = v - 1
    n2 = n1 * n1
    c2 = cochain[:n2]
    c01 = cochain[n2 : n2 + n1]
    c10 = cochain[n2 + n1 :]
    xi1 = [[gamma.zero()] * v for _ in range(v)]
    for idx, tup in enumerate(exp_tuples(2, v)):
        xi1[tup[0]][tup[1]] = c2[idx]
    xi2 = [[gamma.zero()] * v for _ in range(v)]
    cols01 = rc.phi01.columns()
    cols10 = rc.phi10.columns()
    for a in range(1, v):
        for i1 in range(1, v):
            col = (a - 1) * n1 + (i1 - 1)
            val = gamma.zero()
            for rowi, c in cols01[col].items():
                val = val + c * c01[rowi]
            for rowi, c in cols10[col].items():
                val = val + c * c10[rowi]
            xi2[a][i1] = val
    return CocyclePair(gamma, v, tuple(map(tuple, xi1)), tuple(map(tuple, xi2)))


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


def kernel_basis_f(b, gamma_value, v):
    """The cochain f_b with coefficient table lambda_table(b, v) * gamma_value,
    verified to kill the degree-3 vertical differential."""
    lam = lambda_table(b, v)

    def entry(i, j):
        return lam[i % v][j % v]

    for i1 in range(1, v):
        for i2 in range(1, v):
            for i3 in range(1, v):
                s = (
                    -entry(i2, i3)
                    + entry(i1 + i2, i3)
                    - entry(i1, i2 + i3)
                    + entry(i1, i2)
                )
                if s:
                    raise AssertionError(f"f_{b} is not a vertical cocycle at {(i1, i2, i3)}")
    for i in range(v):
        for j in range(v):
            if lam[i][j] != lam[j][i]:
                raise AssertionError("kernel element is not symmetric")
    table = [[lam[i][j] * gamma_value for j in range(v)] for i in range(v)]
    return table


# ---------------------------------------------------------------------------
# cocycle pairs and the explicit families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CocyclePair:
    """A degree-2 cochain: xi1 on Mbar(2) (symmetric, zero on index 0) and
    xi2 on Dbar (x) Mbar(1) (zero when either index is 0)."""

    gamma: FinAbGroup
    v: int
    xi1: tuple
    xi2: tuple

    def __post_init__(self):
        v = self.v
        for i in range(v):
            if not (self.xi1[0][i].is_zero and self.xi1[i][0].is_zero):
                raise ValueError("xi1 must vanish when an index is 0")
            if not (self.xi2[0][i].is_zero and self.xi2[i][0].is_zero):
                raise ValueError("xi2 must vanish when an index is 0")
            for j in range(v):
                if self.xi1[i][j] != self.xi1[j][i]:
                    raise ValueError("xi1 must be symmetric")

    @functools.cached_property
    def coordinate_arrays(self):
        """(xi1, xi2) as (v, v, r) coordinate arrays, r the number of
        invariant factors of gamma, built once per pair.

        int64 only while 5 * max(|coordinate|, factor) < 2^62: a cocycle
        condition sums at most five entries, so the sum and its remainder
        modulo a factor stay exact; otherwise Python ints (dtype object),
        the rule of IntegerMatrix.
        """
        shape = (self.v, self.v, len(self.gamma.factors))
        arrays = [
            np.array([[e.coords for e in row] for row in xi], dtype=object).reshape(shape)
            for xi in (self.xi1, self.xi2)
        ]
        top = max(
            [int(np.abs(a).max()) for a in arrays if a.size] + list(self.gamma.factors), default=0
        )
        dtype = np.int64 if 5 * top < _INT64_BOUND else object
        return tuple(a.astype(dtype) for a in arrays)

    def xi1_at(self, i, j):
        return self.xi1[i % self.v][j % self.v]

    def xi2_at(self, i, j):
        return self.xi2[i % self.v][j % self.v]

    def __sub__(self, other):
        v = self.v
        xi1 = tuple(
            tuple(self.xi1[i][j] - other.xi1[i][j] for j in range(v)) for i in range(v)
        )
        xi2 = tuple(
            tuple(self.xi2[i][j] - other.xi2[i][j] for j in range(v)) for i in range(v)
        )
        return CocyclePair(self.gamma, v, xi1, xi2)

    def flat_key(self):
        out = []
        for i in range(self.v):
            for j in range(self.v):
                out.extend(self.xi1[i][j].coords)
        for i in range(self.v):
            for j in range(self.v):
                out.extend(self.xi2[i][j].coords)
        return tuple(out)

    @classmethod
    def from_functions(cls, gamma, v, f1, f2):
        z = gamma.zero()
        xi1 = tuple(
            tuple(z if i == 0 or j == 0 else f1(i, j) for j in range(v))
            for i in range(v)
        )
        xi2 = tuple(
            tuple(z if i == 0 or j == 0 else f2(i, j) for j in range(v))
            for i in range(v)
        )
        return cls(gamma, v, xi1, xi2)

    @classmethod
    def zero(cls, gamma, v):
        z = gamma.zero()
        return cls.from_functions(gamma, v, lambda i, j: z, lambda i, j: z)


def xi1_standard(gamma, v, g):
    """The common first component: +g at (1,1), -g when both indices are
    >= 2 and their sum is <= v+1, else 0."""
    z = gamma.zero()

    def f(i, j):
        if i == 1 and j == 1:
            return g
        if i >= 2 and j >= 2 and i + j <= v + 1:
            return -1 * g
        return z

    return f


def base_coefficient(r, params, gamma1, gamma_el):
    """The degree-1 coefficient chain gamma_r = r*gamma1 - c*gamma with the
    canonical piecewise c = c(k, l), r = k*t + l reduced mod v."""
    v, t, u2 = params.v, params.t, params.u2
    r %= v
    if r == 0:
        return gamma1.group.zero()
    if r == 1:
        return gamma1
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
    return r * gamma1 - c * gamma_el


def cocycle_family(params, gamma, g, g1, g1p=None):
    """The explicit degree-2 cocycle pair for the case of the parameters.

    u = v: needs v*g1 = 0; 2 < u < v: needs v*g1 = u*g; u = 2, v = 4:
    needs 4*g1 = 2*g and 2*g1p = 0 (third parameter required).
    """
    v, u, t, u2 = params.v, params.u, params.t, params.u2
    if params.t == 1:
        if g1p is not None:
            raise ValueError("third parameter only applies when u = 2, v = 4")
        if not (v * g1).is_zero:
            raise ValueError("parameter constraint v*g1 = 0 violated")
        f2 = lambda i, j: (i * j) * g1
    elif u > 2:
        if g1p is not None:
            raise ValueError("third parameter only applies when u = 2, v = 4")
        if (v * g1) != (u * g):
            raise ValueError("parameter constraint v*g1 = u*g violated")
        core = t * g1 - g

        def f2(a, i1):
            i, j = divmod(a, t)
            val = (i1 * (i - u2 * comb(j, 2))) * core
            for l in range(j):
                val = val + base_coefficient((1 - u * l) * i1, params, g1, g)
            return val

    else:
        if v != 4 or u != 2:
            raise ValueError("unreachable parameter case")
        if g1p is None:
            raise ValueError("the u = 2, v = 4 case needs a third parameter")
        if (4 * g1) != (2 * g):
            raise ValueError("parameter constraint 4*g1 = 2*g violated")
        if not (2 * g1p).is_zero:
            raise ValueError("parameter constraint 2*g1p = 0 violated")

        def f2(a, i1):
            i, j = divmod(a, 2)
            val = (-i * i1) * g1p
            for l in range(j):
                val = val + base_coefficient((1 - 2 * l) * i1, params, g1, g)
            return val

    return CocyclePair.from_functions(gamma, v, xi1_standard(gamma, v, g), f2)


def verify_cocycle(pair, lcs):
    """The three degree-2 cocycle conditions of the total complex.

    Each condition is one array expression over the (v-1)^3 grid of
    (i1, i2, i3); the verdict names the first failing triple in loop
    order (i1 outermost) and, at that triple, the first failing
    condition.
    """
    v = lcs.v
    x1, x2 = pair.coordinate_arrays
    dot = np.array(lcs.dot, dtype=np.int64)
    i1, i2, i3 = (g.ravel() for g in np.meshgrid(*[np.arange(1, v)] * 3, indexing="ij"))
    d12, d13 = dot[i1, i2], dot[i1, i3]
    s12, s23 = (i1 + i2) % v, (i2 + i3) % v
    conditions = {
        "vertical (0,3)": -x1[i2, i3] + x1[s12, i3] - x1[i1, s23] + x1[i1, i2],
        "mixed (1,2)": x1[d12, d13] - x1[i2, i3] + x2[i1, i3] - x2[i1, s23] + x2[i1, i2],
        "horizontal (2,1)": x2[d12, d13] - x2[s12, i3] + x2[i1, i3],
    }
    factors = np.array(pair.gamma.factors, dtype=x1.dtype)
    finite = factors > 0
    nonzero = [
        (np.where(finite, s % np.where(finite, factors, 1), s) != 0).any(axis=-1)
        for s in conditions.values()
    ]
    hit = first_failure(np.stack(nonzero, axis=-1))
    if hit is None:
        return Verdict(True)
    t, which = hit
    return Verdict(False, list(conditions)[which], (int(i1[t]), int(i2[t]), int(i3[t])))


def cohomologous(pair1, pair2, lcs):
    """Search for a degree-1 cochain lam with pair2 - pair1 = d(lam).

    Returns a Verdict whose witness is the cochain (lam_1..lam_{v-1}) on
    success; the linear system is solved exactly per coefficient
    coordinate.
    """
    if pair1.gamma != pair2.gamma or pair1.v != pair2.v:
        raise ValueError("pairs live on different data")
    gamma = pair1.gamma
    v = lcs.v
    dot = lcs.dot
    diff = pair2 - pair1
    nvar = v - 1
    rows = []
    rhs = []
    for i in range(1, v):
        for j in range(1, v):
            row = [0] * nvar
            k = (i + j) % v
            if k:
                row[k - 1] += 1
            row[i - 1] -= 1
            row[j - 1] -= 1
            rows.append(row)
            rhs.append(diff.xi1_at(i, j))
            row = [0] * nvar
            k = dot[i][j]
            if k:
                row[k - 1] += 1
            row[j - 1] -= 1
            rows.append(row)
            rhs.append(diff.xi2_at(i, j))
    sol_coords = []
    A = np.array(rows, dtype=np.int64)
    for fidx, m in enumerate(gamma.factors):
        b = [el.coords[fidx] for el in rhs]
        if m == 0:
            from .abelian import solve

            x = solve(
                IntegerMatrix.from_rows(rows, nvar),
                b,
            )
        else:
            x = modular.solve_mod_m(A, b, m)
        if x is None:
            return Verdict(False, "no degree-1 witness", None)
        sol_coords.append([int(c) for c in x])
    witness = tuple(
        gamma.element(tuple(sol_coords[f][i] for f in range(len(gamma.factors))))
        for i in range(nvar)
    )
    return Verdict(True, None, witness)


def all_cocycle_pairs(params, gamma, cap=2**20):
    """Every normalized degree-2 cocycle pair with the given coefficients.

    Enumerates the kernel of the cocycle conditions; the raw cochain
    space must stay under the cap."""
    v = params.v
    n_sym = (v - 1) * v // 2
    raw = gamma.order() ** ((v - 1) ** 2 + n_sym)
    if raw > cap:
        raise modular.ResourceLimitError(f"cochain space of size {raw} exceeds the cap {cap}")
    fc = _full_slice(params)
    chain = fc.total
    A = chain.modules[2].relations.vstack(chain.diff[3].transpose())
    pp, nfree = gamma.prime_power_coordinates()
    assert nfree == 0
    per_coord = []
    for p, k, fidx, embed in pp:
        kd = modular.kernel_mod_pk(A.to_numpy_mod(p**k), p, k)
        elems = []
        ranges = [range(p**e) for e in kd.orders]
        for combo in itertools.product(*ranges):
            vec = None
            m = p**k
            acc = [0] * chain.rank(2)
            for c, gen in zip(combo, kd.gens):
                if c:
                    acc = [(x + c * int(y)) % m for x, y in zip(acc, gen)]
            elems.append(tuple(acc))
        per_coord.append((fidx, embed, elems))
    pairs = []
    for combo in itertools.product(*[elems for _, _, elems in per_coord]):
        cochain = []
        for gidx in range(chain.rank(2)):
            coords = [0] * len(gamma.factors)
            for (fidx, embed, _), vec in zip(per_coord, combo):
                coords[fidx] = (coords[fidx] + vec[gidx] * embed) % gamma.factors[fidx]
            cochain.append(gamma.element(tuple(coords)))
        pairs.append(_full_vector_to_pair(params, gamma, chain, cochain))
    return pairs
