"""The array builders of the reduced and full routes against plain-loop
references.

The references below are the per-entry loops over bar basis tuples and
group elements that the routes used before their builders became index
arithmetic on mixed-radix tuple codes: the comparison maps phi, varphi,
omega and the bar differential on the full bar basis, their tuple-level
collapses, the Kronecker products with id_g, the dot-twist, the shuffle
relations and the horizontal and vertical differentials of the full
double complex.  The array code must give equal `IntegerMatrix` objects,
matrix for matrix.
"""

import itertools
import tracemalloc
import weakref
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

from cyclecoh import cyclic_resolution, homology_engine, lcs_cohomology
from cyclecoh.abelian import FaceDifference, IdentityKron, IntegerMatrix, PresentedModule, block_matrix
from cyclecoh.cycleset import CyclicFamilyParams, family_members, make_cyclic_lcs
from cyclecoh.cyclic_resolution import (
    ResolutionContext,
    coefficient_complex,
    exp_tuples,
    right_translate,
    tuple_bar_differential,
)
from cyclecoh.homology_engine import CellRank, _verify_perturbed_rows
from cyclecoh.lcs_cohomology import (
    _face_code_dtype,
    _shuffle_arrangements,
    full_double_complex,
    perturbation_delta,
    shuffle_quotient,
)

from basis import cell_basis
from reference import columns

# t = 1: (2,1,1), (3,2,2); t >= 2: the rest
MEMBERS = [(2, 1, 1), (3, 2, 2), (2, 1, 2), (3, 1, 2), (2, 2, 3), (2, 2, 4)]


# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------


def _apply_cols(cols, svec):
    """Matrix times sparse vector, with the matrix given per column."""
    out = {}
    for j, c in svec.items():
        for i, v in cols[j].items():
            w = out.get(i, 0) + v * c
            if w:
                out[i] = w
            elif i in out:
                del out[i]
    return out


class RefBar:
    """The comparison maps on the full bar basis, by per-tuple loops over
    the group model; the resolution (X_n, d, sigma) comes from `ctx`."""

    def __init__(self, ctx):
        self.ctx = ctx
        self.G = ctx.G
        self.v = ctx.v
        self.ident = self.G.index[self.G.identity]
        self._basis = {}
        self._index = {}
        self._cache = {}

    def basis(self, n):
        if n not in self._basis:
            nontriv = [k for k, e in enumerate(self.G.elems) if e != self.G.identity]
            self._basis[n] = [
                t + (b,) for t in itertools.product(nontriv, repeat=n) for b in range(self.v)
            ]
            self._index[n] = {t: i for i, t in enumerate(self._basis[n])}
        return self._basis[n]

    def index(self, n):
        self.basis(n)
        return self._index[n]

    def rank(self, n):
        return len(self.basis(n))

    def _memo(self, key, build):
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def bprime(self, n):
        return self._memo(("bprime", n), lambda: self._bprime(n))

    def _bprime(self, n):
        G, ident = self.G, self.ident
        tgt_index = self.index(n - 1)
        data = {}
        for col, tup in enumerate(self.basis(n)):
            def add(key, c):
                k = (tgt_index[key], col)
                data[k] = data.get(k, 0) + c

            add(tup[1:], 1)
            for i in range(n - 1):
                merged = G.index[G.mul(G.elems[tup[i]], G.elems[tup[i + 1]])]
                if merged != ident:
                    add(tup[:i] + (merged,) + tup[i + 2 :], (-1) ** (i + 1))
            last = G.index[G.mul(G.elems[tup[n - 1]], G.elems[tup[n]])]
            add(tup[: n - 1] + (last,), (-1) ** n)
        return IntegerMatrix(self.rank(n - 1), self.rank(n), data)

    def xi(self, n):
        tgt_index = self.index(n)
        data = {}
        for col, tup in enumerate(self.basis(n - 1)):
            b = tup[-1]
            if b != self.ident:
                data[(tgt_index[tup[:-1] + (b, self.ident)], col)] = (-1) ** n
        return IntegerMatrix(self.rank(n), self.rank(n - 1), data)

    def phi(self, n):
        return self._memo(("phi", n), lambda: self._phi(n))

    def _phi(self, n):
        G, v = self.G, self.v
        if n == 0:
            return IntegerMatrix.identity(v)
        prev_cols = columns(self.phi(n - 1))
        chain, _ = self.ctx.resolution(n)
        d_cols = columns(chain.diff[n])
        xi_cols = columns(self.xi(n))
        cells = self.ctx.cells(n)
        cols = [
            _apply_cols(xi_cols, _apply_cols(prev_cols, d_cols[bj * v + self.ident]))
            for bj in range(len(cells))
        ]
        data = {}
        tgt_index = self.index(n)
        basis_n = self.basis(n)
        for bj in range(len(cells)):
            for eidx, e in enumerate(G.elems):
                col = bj * v + eidx
                for row, c in cols[bj].items():
                    rt = basis_n[row]
                    moved = rt[:-1] + (G.index[G.mul(G.elems[rt[-1]], e)],)
                    k = (tgt_index[moved], col)
                    data[k] = data.get(k, 0) + c
        return IntegerMatrix(self.rank(n), (n + 1) * v, data)

    def varphi(self, n):
        return self._memo(("varphi", n), lambda: self._varphi(n))

    def _varphi(self, n):
        G, v, ident = self.G, self.v, self.ident
        if n == 0:
            return IntegerMatrix.identity(v)
        prev_cols = columns(self.varphi(n - 1))
        _, sigma = self.ctx.resolution(n)
        sb_cols = columns(sigma[n])
        bp_cols = columns(self.bprime(n))
        src_index = self.index(n)
        vals = {
            tup: _apply_cols(sb_cols, _apply_cols(prev_cols, bp_cols[src_index[tup]]))
            for tup in self.basis(n)
            if tup[-1] == ident
        }
        perms = [[G.index[G.mul(m, e)] for m in G.elems] for e in G.elems]
        data = {}
        for col, tup in enumerate(self.basis(n)):
            perm = perms[tup[-1]]
            for row, c in vals[tup[:-1] + (ident,)].items():
                cell, inner = divmod(row, v)
                k = (cell * v + perm[inner], col)
                data[k] = data.get(k, 0) + c
        return IntegerMatrix((n + 1) * v, self.rank(n), data)

    def omega(self, n):
        return self._memo(("omega", n), lambda: self._omega(n))

    def _omega(self, n):
        G, ident = self.G, self.ident
        if n == 1:
            return IntegerMatrix.zero(self.rank(1), self.rank(0))
        m = n - 1
        phi_cols = columns(self.phi(m))
        varphi_cols = columns(self.varphi(m))
        omega_cols = columns(self.omega(m))
        bp_cols = columns(self.bprime(m))
        xi_cols = columns(self.xi(n))
        src_index = self.index(m)
        vals = {}
        for tup in self.basis(m):
            if tup[-1] != ident:
                continue
            col = src_index[tup]
            t1 = _apply_cols(phi_cols, varphi_cols[col])
            t1[col] = t1.get(col, 0) - 1
            down = _apply_cols(omega_cols, bp_cols[col])
            combined = dict(t1)
            for row, c in down.items():
                combined[row] = combined.get(row, 0) - c
            combined = {r: c for r, c in combined.items() if c}
            vals[tup] = _apply_cols(xi_cols, combined)
        # extend right E-linearly from the w_1 columns
        tgt_basis = self.basis(n)
        tgt_index = self.index(n)
        data = {}
        for col, tup in enumerate(self.basis(m)):
            e = tup[-1]
            for row, c in vals[tup[:-1] + (ident,)].items():
                rt = tgt_basis[row]
                moved = rt[:-1] + (G.index[G.mul(G.elems[rt[-1]], G.elems[e])],)
                k = (tgt_index[moved], col)
                data[k] = data.get(k, 0) + c
        return IntegerMatrix(self.rank(n), self.rank(m), data)

    # tuple-level maps: dicts keyed by exponent tuples

    def _exp(self, elem_tuple):
        return tuple(self.G.f_exp(self.G.elems[k]) for k in elem_tuple)

    def breve_phi(self, alpha, beta):
        n = alpha + beta
        col = self.ctx.cells(n).index((alpha, beta)) * self.v + self.ident
        out = {}
        for row, val in self.phi(n).column(col).items():
            key = self._exp(self.basis(n)[row][:-1])
            out[key] = out.get(key, 0) + val
        return {k: c for k, c in out.items() if c}

    def breve_varphi(self, alpha, beta):
        n = alpha + beta
        bj = self.ctx.cells(n).index((alpha, beta))
        cols = columns(self.varphi(n))
        index = self.index(n)
        nontriv = [k for k in range(self.v) if k != self.ident]
        out = {}
        for tupE in itertools.product(nontriv, repeat=n):
            s = sum(val for r, val in cols[index[tupE + (self.ident,)]].items() if r // self.v == bj)
            if s:
                out[self._exp(tupE)] = s
        return out

    def breve_varphi_map(self, n):
        """breve_varphi of every cell of degree n, as tuple -> {cell: coeff}."""
        out = {}
        for cell in self.ctx.cells(n):
            for tup, c in self.breve_varphi(*cell).items():
                out.setdefault(tup, {})[cell] = c
        return out

    def breve_omega(self, n):
        cols = columns(self.omega(n))
        index = self.index(n - 1)
        nontriv = [k for k in range(self.v) if k != self.ident]
        out = {}
        for tupE in itertools.product(nontriv, repeat=n - 1):
            terms = {}
            for row, val in cols[index[tupE + (self.ident,)]].items():
                key = self._exp(self.basis(n)[row][:-1])
                terms[key] = terms.get(key, 0) + val
            terms = {k: c for k, c in terms.items() if c}
            if terms:
                out[self._exp(tupE)] = terms
        return out


def ref_extend_right(ctx, val):
    """The right E-linear v x v matrix with value `val` on w_1."""
    G = ctx.G
    data = {}
    for col, e in enumerate(G.elems):
        perm = [G.index[G.mul(m, e)] for m in G.elems]
        for src, x in enumerate(val):
            if x:
                data[(perm[src], col)] = data.get((perm[src], col), 0) + x
    return IntegerMatrix(ctx.v, ctx.v, data)


def ref_tuple_bar_differential(n, v):
    src = exp_tuples(n, v)
    tgt_index = {t: i for i, t in enumerate(exp_tuples(n - 1, v))}
    data = {}
    for col, tup in enumerate(src):
        def add(key, c):
            if all(x % v for x in key):
                k = (tgt_index[key], col)
                data[k] = data.get(k, 0) + c

        add(tup[1:], 1)
        for i in range(n - 1):
            add(tup[:i] + ((tup[i] + tup[i + 1]) % v,) + tup[i + 2 :], (-1) ** (i + 1))
        add(tup[:-1], (-1) ** n)
    return IntegerMatrix(len(tgt_index), len(src), data)


def ref_kron_with_identity(tuple_map, src_tuples, tgt_tuples, g):
    """Kronecker of a tuple-level map (dict src -> {tgt: coeff}) with id_g."""
    tgt_index = {t: i for i, t in enumerate(tgt_tuples)}
    src_index = {t: i for i, t in enumerate(src_tuples)}
    data = {}
    for src, terms in tuple_map.items():
        sj = src_index[src]
        for tgt, c in terms.items():
            ti = tgt_index[tgt]
            for k in range(g):
                data[(ti * g + k, sj * g + k)] = c
    return IntegerMatrix(len(tgt_tuples) * g, len(src_tuples) * g, data)


def ref_block_diagonal(block, count):
    return block_matrix(
        {(i, i): block for i in range(count)}, [block.rows] * count, [block.cols] * count
    )


def ref_perturbation_delta(lcs, cells):
    dot = lcs.dot
    delta = {}
    for (r, s) in cells:
        if r < 1 or (r - 1, s) not in cells:
            continue
        src = cell_basis(r, s, lcs.v)
        tgt_index = {lab: i for i, lab in enumerate(cell_basis(r - 1, s, lcs.v))}
        data = {}
        for col, (gt, mt) in enumerate(src):
            g1 = gt[0]
            twisted = (tuple(dot[g1][x] for x in gt[1:]), tuple(dot[g1][x] for x in mt))
            for key, c in ((twisted, 1), ((gt[1:], mt), -1)):
                k = (tgt_index[key], col)
                data[k] = data.get(k, 0) + c
        delta[(r, s)] = IntegerMatrix(len(tgt_index), len(src), data)
    return delta


def ref_shuffle_relations(s, v):
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
    return IntegerMatrix(len(rows), len(labels), data)


def as_matrix(tuple_map, src_tuples, tgt_tuples):
    return ref_kron_with_identity(tuple_map, src_tuples, tgt_tuples, 1)


# ---------------------------------------------------------------------------
# comparisons
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module", params=MEMBERS, ids=lambda m: "%d-%d-%d" % m)
def member(request):
    params = CyclicFamilyParams(*request.param)
    ctx = ResolutionContext(params.u, params.t)
    return params, ctx, RefBar(ctx)


def test_comparison_maps_match_reference(member):
    _, ctx, ref = member
    v = ctx.v
    for n in range(4):
        if n >= 1:
            assert ctx.bar_xi(n) == ref.xi(n), n
            assert right_translate(ctx.bprime(n), v) == ref.bprime(n), n
            assert right_translate(ctx.omega(n), v) == ref.omega(n), n
        assert right_translate(ctx.phi(n), v) == ref.phi(n), n
        assert right_translate(ctx.varphi(n), v) == ref.varphi(n), n
    rng = np.random.default_rng(v)
    for _ in range(5):
        val = rng.integers(-3, 4, size=v).tolist()
        col = IntegerMatrix.from_rows([[x] for x in val], 1)
        assert right_translate(col, v) == ref_extend_right(ctx, val)


def test_tuple_maps_match_reference(member):
    _, ctx, ref = member
    v = ctx.v
    for n in range(4):
        tuples = exp_tuples(n, v)
        cells = ctx.cells(n)
        phi = {cell: ref.breve_phi(*cell) for cell in cells}
        assert ctx.breve_phi(n) == as_matrix(phi, cells, tuples), n
        assert ctx.breve_varphi(n) == as_matrix(ref.breve_varphi_map(n), tuples, cells), n
        if n >= 1:
            om = ref.breve_omega(n)
            assert ctx.breve_omega(n) == as_matrix(om, exp_tuples(n - 1, v), tuples), n
            assert tuple_bar_differential(n, v) == ref_tuple_bar_differential(n, v), n


def test_coefficient_complexes_match_reference(member):
    params, ctx, ref = member
    v = params.v
    for s, n_max in ((1, 3), (2, 2), (3, 1)):
        M = shuffle_quotient(s, v)
        g = M.ngens
        cc = coefficient_complex(params, M, n_max)
        for n in range(n_max + 1):
            tuples = exp_tuples(n, v)
            cells = ctx.cells(n)
            assert cc.bar_rank(n) == len(tuples) * g
            # the cells enter by rank; `reduced_complex` presents them
            assert cc.chain.modules[n] == CellRank(len(cells) * g)
            phi = {cell: ref.breve_phi(*cell) for cell in cells}
            assert cc.phibar[n] == ref_kron_with_identity(phi, cells, tuples, g), (s, n)
            if n < n_max:
                varphi = ref.breve_varphi_map(n)
                assert cc.varphibar[n] == ref_kron_with_identity(varphi, tuples, cells, g), (s, n)
            else:
                # the transfer reads no p at a row's top cell
                assert n not in cc.varphibar
            if n >= 1:
                prev = exp_tuples(n - 1, v)
                tb = ref_tuple_bar_differential(n, v)
                tuple_map = {
                    tuples[c]: {prev[r]: val for r, val in col.items()}
                    for c, col in enumerate(columns(tb))
                    if col
                }
                d = IdentityKron(1, tuple_bar_differential(n, v), g)
                assert d @ IntegerMatrix.identity(d.cols) == ref_kron_with_identity(tuple_map, tuples, prev, g)
                om = ref.breve_omega(n)
                assert cc.omegabar[n] == ref_kron_with_identity(om, prev, tuples, g), (s, n)


def expanded(delta):
    """Each `FaceDifference` of delta as its explicit matrix, by a product
    with the identity."""
    return {pos: d @ IntegerMatrix.identity(d.cols) for pos, d in delta.items()}


def test_perturbation_delta_matches_reference(member):
    params, _, _ = member
    v = params.v
    lcs = make_cyclic_lcs(params)
    # the bar cells of the reduced transfer, Dbar^{x r} (x) Mbar(s) with
    # tuples outer and generators inner, as in the full complex
    cells = {}
    for s, n_max in ((1, 3), (2, 2), (3, 1)):
        cc = coefficient_complex(params, shuffle_quotient(s, v), n_max)
        for r in range(n_max + 1):
            cells[(r, s)] = CellRank(cc.bar_rank(r))
    assert expanded(perturbation_delta(lcs, cells)) == ref_perturbation_delta(lcs, cells)
    # the cells of the full double complex, in total degrees 1..3
    full = {(r, n - r): CellRank((v - 1) ** n) for n in (1, 2, 3) for r in range(n)}
    assert expanded(perturbation_delta(lcs, full)) == ref_perturbation_delta(lcs, full)


def test_face_codes_are_int32_below_2_to_31():
    """The face codes of the (v-1)^n tuples are int32 exactly while
    (v-1)^n < 2^31: at (v-1)^n = 2^31 they are int64."""
    assert _face_code_dtype(3, 30) == np.int32  # 2^30
    assert _face_code_dtype(3, 31) == np.int64  # 2^31
    assert _face_code_dtype(2**31, 1) == np.int32  # 2^31 - 1
    assert _face_code_dtype(2**31 + 1, 1) == np.int64
    assert _face_code_dtype(32, 6) == np.int32 and _face_code_dtype(32, 7) == np.int64
    lcs = make_cyclic_lcs(CyclicFamilyParams(3, 1, 2))
    cells = {(r, s): CellRank((lcs.v - 1) ** (r + s)) for r in range(4) for s in range(1, 5 - r)}
    delta = perturbation_delta(lcs, cells)
    assert {d.twisted.dtype for d in delta.values()} == {np.dtype(np.int32)}


@pytest.mark.parametrize("member", family_members(16), ids=lambda m: f"{m.p}-{m.nu}-{m.eta}")
def test_x_cells_enter_the_transfer_by_rank(member, monkeypatch):
    """X's cells enter the transfer as `CellRank`s, the cells of total
    degree 4 included; the reduced total complex presents the cells of
    degree <= 3 as the coefficient complexes do, and is the total complex
    of the transfer's output on them, with its vertical maps explicit:
    r + 1 copies of the signed inner bar differential at (r, s).  phi2
    comes from the transfer's projection."""
    v = member.v
    original_row = lcs_cohomology._reduced_row
    original = lcs_cohomology.perturb_double_complex
    x_cells, transfers = {}, []

    def recording_row(*args):
        system, delta = original_row(*args)
        x_cells.update(system.X.cells)
        return system, delta

    def recording_transfer(*args, **kwargs):
        out = original(*args, **kwargs)
        transfers.append(out)
        return out

    monkeypatch.setattr(lcs_cohomology, "_reduced_row", recording_row)
    monkeypatch.setattr(lcs_cohomology, "perturb_double_complex", recording_transfer)
    reduced = lcs_cohomology.reduced_complex.__wrapped__(member)
    (out,) = transfers
    assert set(out.X.cells) == set(x_cells)
    assert {pos for pos in x_cells if sum(pos) == 4} == {(3, 1), (2, 2), (1, 3)}
    for (r, s), cell in x_cells.items():
        assert isinstance(cell, CellRank) and cell.ngens == (r + 1) * (v - 1) ** s, (r, s)
    presented, dv = {}, {}
    for r, s in out.X.cells:
        if r + s <= 3:
            relations = ref_block_diagonal(shuffle_quotient(s, v).relations, r + 1)
            presented[(r, s)] = PresentedModule(relations.cols, relations)
            if s >= 2:
                signed = ref_tuple_bar_differential(s, v).scale((-1) ** (r + 1))
                dv[(r, s)] = ref_block_diagonal(signed, r + 1)
    assert set(dv) == {(0, 2), (1, 2), (0, 3)}
    X = homology_engine.DoubleComplex(presented, out.X.dh, dv)
    assert reduced.total == homology_engine.total_complex(X)
    n2 = (v - 1) ** 2
    phi_hat = out.p1[(1, 1)]
    assert reduced.phi2 == block_matrix(
        {(0, 0): IntegerMatrix.identity(n2), (1, 1): phi_hat}, [n2, phi_hat.rows], [n2, n2]
    )


def ref_full_dh(lcs, r, s):
    v = lcs.v
    dot = lcs.dot
    src = cell_basis(r, s, v)
    tgt_index = {lab: i for i, lab in enumerate(cell_basis(r - 1, s, v))}
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


def ref_full_dv(v, r, s):
    src = cell_basis(r, s, v)
    tgt_index = {lab: i for i, lab in enumerate(cell_basis(r, s - 1, v))}
    inner_cols = columns(tuple_bar_differential(s, v))
    m_index = {t: i for i, t in enumerate(exp_tuples(s, v))}
    tgt_mts = exp_tuples(s - 1, v)
    sign = (-1) ** (r + 1)
    data = {}
    for col, (gt, mt) in enumerate(src):
        for row, val in inner_cols[m_index[mt]].items():
            k = (tgt_index[(gt, tgt_mts[row])], col)
            data[k] = data.get(k, 0) + sign * val
    return IntegerMatrix(len(tgt_index), len(src), data)


def ref_full_total_d(lcs, n):
    """d_n of the full total complex from the reference differentials:
    cell (r, s) of degree n, in sorted order, maps by d_h to (r - 1, s)
    and by d_v to (r, s - 1)."""
    size = (lcs.v - 1) ** n
    blocks = {}
    for j in range(n):
        r, s = j, n - j
        if r >= 1:
            blocks[(r - 1, j)] = ref_full_dh(lcs, r, s)
        if s >= 2:
            blocks[(r, j)] = ref_full_dv(lcs.v, r, s)
    return block_matrix(blocks, [size // (lcs.v - 1)] * (n - 1), [size] * n)


@pytest.mark.parametrize("triple", MEMBERS, ids=lambda m: "%d-%d-%d" % m)
def test_full_differentials_match_reference(triple):
    lcs = make_cyclic_lcs(CyclicFamilyParams(*triple))
    chain = full_double_complex(lcs)
    assert set(chain.diff) == {2}
    assert chain.diff[2] == ref_full_total_d(lcs, 2)
    # d_3 as the blocks of rows of d_3^T the full complex makes, cell by cell
    blocks = list(chain.d3_rows())
    assert list(dict.fromkeys(cell for cell, _ in blocks)) == [(0, 3), (1, 2), (2, 1)]
    d3_t = IntegerMatrix.stacked([block for _, block in blocks], chain.rank(2))
    assert d3_t.transpose() == ref_full_total_d(lcs, 3)


@pytest.mark.parametrize("block_rows", [7, lcs_cohomology.FULL_BLOCK_ROWS])
def test_d3_blocks_stay_within_the_block_rows(block_rows, monkeypatch):
    # 7 rows splits the (v-1)^2 = 9 rows of a first letter at v = 4;
    # every block holds at most FULL_BLOCK_ROWS rows and the blocks are
    # d_3^T in order
    lcs = make_cyclic_lcs(CyclicFamilyParams(2, 1, 2))
    monkeypatch.setattr(lcs_cohomology, "FULL_BLOCK_ROWS", block_rows)
    chain = full_double_complex(lcs)
    blocks = [block for _, block in chain.d3_rows()]
    assert all(1 <= block.rows <= block_rows for block in blocks)
    assert len(blocks) == 3 * -(-27 // block_rows)
    d3_t = IntegerMatrix.stacked(blocks, chain.rank(2))
    assert d3_t.transpose() == ref_full_total_d(lcs, 3)


@pytest.mark.parametrize("v", [2, 3, 4, 5, 8, 9, 16])
def test_shuffle_quotient_matches_reference(v):
    for s in (1, 2, 3):
        q = shuffle_quotient(s, v)
        assert q.relations == ref_shuffle_relations(s, v), s
        assert q.ngens == len(exp_tuples(s, v))


@pytest.mark.parametrize("triple", [(3, 1, 2), (2, 2, 4)], ids=lambda m: "%d-%d-%d" % m)
def test_reduced_build_holds_no_bar3_matrix(triple, monkeypatch):
    """A reduced build on a fresh context never forms a matrix with a
    column per element of bar_3, (v-1)^3 v columns, and keeps none."""
    params = CyclicFamilyParams(*triple)
    bar3 = (params.v - 1) ** 3 * params.v
    ctx = ResolutionContext(params.u, params.t)
    monkeypatch.setattr(cyclic_resolution, "get_context", lambda p: ctx)
    widths = set()
    original = IntegerMatrix._set

    def recording_set(self, rows, cols, *arrays):
        widths.add(cols)
        original(self, rows, cols, *arrays)

    monkeypatch.setattr(IntegerMatrix, "_set", recording_set)
    lcs_cohomology.reduced_complex.__wrapped__(params)
    assert ctx._memo, "the fresh context was not used"
    assert bar3 not in widths
    held = [m for m in ctx._memo.values() if isinstance(m, IntegerMatrix)]
    assert held and all(m.cols != bar3 for m in held)


def _whole_grid(params, quotients):
    """The transfer's three rows, as `_transfer_reduced` makes them, merged
    into one system and one delta on the whole grid."""
    lcs = make_cyclic_lcs(params)
    bar = {n: tuple_bar_differential(n, params.v) for n in (1, 2, 3)}
    X, C = (homology_engine.DoubleComplex({}, {}, {}) for _ in range(2))
    i, p, h, delta = {}, {}, {}, {}
    for s in (1, 2, 3):
        row, row_delta = lcs_cohomology._reduced_row(params, lcs, quotients[s], bar, s)
        for whole, part in ((X, row.X), (C, row.C)):
            whole.cells.update(part.cells)
            whole.dh.update(part.dh)
            whole.dv.update(part.dv)
        i.update(row.i)
        p.update(row.p)
        h.update(row.h)
        delta.update(row_delta)
    return homology_engine.RowSDRSystem(X, C, i, p, h), delta


def test_transfer_holds_only_factors_and_read_maps(monkeypatch):
    """The large complex's differentials are held as I (x) B (x) I by their
    small factors: d_h is the tuple bar differential (x) id of Mbar(s),
    d_v is id of the (v-1)^r tuples (x) the signed inner bar differential.
    delta is held by its twisted face map alone.  And p is passed only
    where it is read, below each row's top cell.  Each row holds its own
    cells and the vertical maps out of them; the transfer returns X and
    p1 at (1, 1) alone."""
    params = CyclicFamilyParams(3, 1, 2)
    v = params.v
    quotients = {s: shuffle_quotient(s, v) for s in (1, 2, 3)}
    rows = []
    original = lcs_cohomology._reduced_row

    def recording_row(*args):
        # the transfer consumes the maps it corrects: their cells are
        # recorded before it
        system, delta = original(*args)
        rows.append((system, set(system.p), set(system.h), delta))
        return system, delta

    monkeypatch.setattr(lcs_cohomology, "_reduced_row", recording_row)
    out = lcs_cohomology._transfer_reduced(params, quotients)
    assert len(rows) == 3
    below_top = {(0, 1), (1, 1), (2, 1), (0, 2), (1, 2), (0, 3)}
    with_dh = {(1, 1), (2, 1), (3, 1), (1, 2), (2, 2), (1, 3)}
    for row_s, (system, p_cells, h_cells, delta) in zip((1, 2, 3), rows):
        assert {s for _, s in system.C.cells} == {s for _, s in system.X.cells} == {row_s}
        assert p_cells == h_cells == {(r, s) for r, s in below_top if s == row_s}
        C = system.C
        assert set(C.dh) == set(delta) == {(r, s) for r, s in with_dh if s == row_s}
        for (r, s), d in C.dh.items():
            assert isinstance(d, IdentityKron), (r, s)
            assert (d.outer, d.factor, d.inner) == (1, tuple_bar_differential(r, v), quotients[s].ngens)
        for (r, s), d in C.dv.items():
            assert isinstance(d, IdentityKron), (r, s)
            signed = tuple_bar_differential(s, v).scale((-1) ** (r + 1))
            assert (d.outer, d.factor, d.inner) == ((v - 1) ** r, signed, 1)
        for (r, s), d in delta.items():
            assert isinstance(d, FaceDifference), (r, s)
            assert (d.rows, d.cols) == ((v - 1) ** (r + s - 1), (v - 1) ** (r + s))
    assert set().union(*(system.C.dv for system, *_ in rows)) == {(0, 2), (1, 2), (2, 2), (0, 3), (1, 3)}
    assert (out.i1, set(out.p1), out.h1) == ({}, {(1, 1)}, {})


def test_vertical_maps_are_shared_records_and_delta_h_is_formed_once(monkeypatch):
    """In a fresh (2,2,4) transfer no vertical map is an explicit matrix:
    X's and C's are `IdentityKron` records that share one signed factor
    per s and sign.  And delta @ h is formed once per cell: the
    smallness certificate and both corrections read that one product (the
    verification, which may form it again, is not counted)."""
    params = CyclicFamilyParams(2, 2, 4)
    quotients = {s: shuffle_quotient(s, params.v) for s in (1, 2, 3)}
    rows, products, verifying, verified = [], [], [], []
    original = lcs_cohomology._reduced_row
    original_matmul = FaceDifference.__matmul__
    original_verify = homology_engine._verify_perturbed_rows

    def recording_row(*args):
        # the transfer consumes the maps it corrects: they are kept here
        system, delta = original(*args)
        rows.append((system, dict(system.h), delta))
        return system, delta

    def recording_matmul(self, other):
        if not verifying:
            products.append((id(self), id(other)))
        return original_matmul(self, other)

    def marked_verify(Xp, *args):
        # each row is verified once, after its corrections and before
        # the next row's
        verifying.append(True)
        verified.append({s for _, s in Xp.cells})
        try:
            return original_verify(Xp, *args)
        finally:
            verifying.pop()

    monkeypatch.setattr(lcs_cohomology, "_reduced_row", recording_row)
    monkeypatch.setattr(FaceDifference, "__matmul__", recording_matmul)
    monkeypatch.setattr(homology_engine, "_verify_perturbed_rows", marked_verify)
    lcs_cohomology._transfer_reduced(params, quotients)
    assert len(rows) == 3
    factors = {}
    for system, _, _ in rows:
        assert set(system.X.dv) == set(system.C.dv)
        for (r, s), xv in system.X.dv.items():
            cv = system.C.dv[(r, s)]
            assert isinstance(xv, IdentityKron) and isinstance(cv, IdentityKron), (r, s)
            assert (xv.outer, xv.inner, cv.outer, cv.inner) == (r + 1, 1, (params.v - 1) ** r, 1)
            assert xv.factor is cv.factor, (r, s)
            assert factors.setdefault((s, (-1) ** (r + 1)), xv.factor) is xv.factor, (r, s)
    assert set().union(*(system.X.dv for system, _, _ in rows)) == {(0, 2), (1, 2), (2, 2), (0, 3), (1, 3)}
    assert len(factors) == 4
    assert verified == [{1}, {2}, {3}]
    for _, h, delta in rows:
        for (r, s), m in h.items():
            count = products.count((id(delta[(r + 1, s)]), id(m)))
            assert count == 1, ((r, s), count)


@pytest.mark.parametrize("member", family_members(16), ids=lambda m: f"{m.p}-{m.nu}-{m.eta}")
def test_streamed_transfer_equals_one_whole_grid_call(member):
    """The transfer, drawn a row at a time, gives the X (d_h and d_v on
    every cell) and the phi-hat of one `perturb_double_complex` call on
    the whole grid, verified as the transfer is: at t >= 2, not at t = 1."""
    quotients = {s: shuffle_quotient(s, member.v) for s in (1, 2, 3)}
    streamed = lcs_cohomology._transfer_reduced(member, quotients)
    system, delta = _whole_grid(member, quotients)
    whole = homology_engine.perturb_double_complex([(system, delta)], member.t, verify=member.t >= 2)
    assert set(streamed.X.cells) == set(whole.X.cells)
    assert streamed.X.dh == whole.X.dh
    assert streamed.X.dv.keys() == whole.X.dv.keys()
    for pos, xv in whole.X.dv.items():
        got = streamed.X.dv[pos]
        assert (got.outer, got.factor, got.inner) == (xv.outer, xv.factor, xv.inner), pos
    assert streamed.p1 == {(1, 1): whole.p1[(1, 1)]}


def test_a_corrupted_vertical_map_in_row_2_names_its_cell(monkeypatch):
    """A sign flipped in X's vertical map at (1, 2), which only the
    vertical chain-map identities read, fails the i1 vertical chain map
    there, against row 1's corrected i1, once row 2 is corrected."""
    params = CyclicFamilyParams(3, 1, 2)
    quotients = {s: shuffle_quotient(s, params.v) for s in (1, 2, 3)}
    original = lcs_cohomology._reduced_row
    drawn = []

    def corrupted_row(params, lcs, quotient, bar, s):
        system, delta = original(params, lcs, quotient, bar, s)
        drawn.append(s)
        if s == 2:
            xv = system.X.dv[(1, 2)]
            system.X.dv[(1, 2)] = IdentityKron(xv.outer, xv.factor.scale(-1), xv.inner)
        return system, delta

    monkeypatch.setattr(lcs_cohomology, "_reduced_row", corrupted_row)
    with pytest.raises(AssertionError, match=r"failed: fail \[i1 vertical chain map\] at \(1, 2\)$"):
        lcs_cohomology._transfer_reduced(params, quotients)
    # row 3 is never built: row 2 failed before it was drawn
    assert drawn == [1, 2]


def test_each_row_is_released_before_the_next_is_built(monkeypatch):
    """Row s's corrected h1 and its delta are gone before row s + 1's
    coefficient complex is built; the i1 and p1 of row s are held only
    until row s + 1's vertical identities are checked."""
    params = CyclicFamilyParams(2, 2, 4)
    quotients = {s: shuffle_quotient(s, params.v) for s in (1, 2, 3)}
    rows, alive = [], []
    original_verify = homology_engine._verify_perturbed_rows
    original_complex = lcs_cohomology.coefficient_complex

    def recording_verify(Xp, C, delta, i1, p1, h1):
        # the values arrays of the row's own maps (an IntegerMatrix has no
        # weak reference slot), but not phi-hat, which the transfer keeps
        own = {
            "i1": [m.values for m in i1.maps[0].values()],
            "p1": [m.values for pos, m in p1.maps[0].items() if pos != (1, 1)],
            "h1": [m.values for m in h1.values()],
            "delta": list(delta.values()),
        }
        rows.append({name: [weakref.ref(x) for x in held] for name, held in own.items()})
        return original_verify(Xp, C, delta, i1, p1, h1)

    def checking_complex(*args):
        alive.append([{name: any(ref() is not None for ref in refs) for name, refs in row.items()} for row in rows])
        return original_complex(*args)

    monkeypatch.setattr(homology_engine, "_verify_perturbed_rows", recording_verify)
    monkeypatch.setattr(lcs_cohomology, "coefficient_complex", checking_complex)
    lcs_cohomology._transfer_reduced(params, quotients)
    assert len(rows) == 3 and all(row["h1"] and row["delta"] for row in rows)
    below = {"i1": True, "p1": True, "h1": False, "delta": False}
    released = dict.fromkeys(below, False)
    assert alive == [[], [below], [released, below]]


def test_reduced_complex_releases_the_transfer_before_its_checks(monkeypatch):
    """`reduced_complex` keeps X and phi-hat of the transfer: the transfer
    with its corrected maps is gone before the closed-form arrows are
    built."""
    refs, alive = [], []
    original = lcs_cohomology._transfer_reduced
    original_arrows = lcs_cohomology._arrow_matrices

    def recording_transfer(*args):
        out = original(*args)
        refs.append(weakref.ref(out))
        return out

    def checking_arrows(params):
        alive.append(refs[0]() is not None)
        return original_arrows(params)

    monkeypatch.setattr(lcs_cohomology, "_transfer_reduced", recording_transfer)
    monkeypatch.setattr(lcs_cohomology, "_arrow_matrices", checking_arrows)
    lcs_cohomology.reduced_complex.__wrapped__(CyclicFamilyParams(2, 2, 3))
    assert alive == [False]


@pytest.mark.parametrize(
    "member",
    family_members(16),
    ids=lambda m: f"{m.p}-{m.nu}-{m.eta}",
)
def test_transfer_rows_equal_the_collapsed_differentials(member):
    """X's row differentials are those of the coefficient complexes whose
    comparison maps the transfer reads, collapsed from the group-ring
    matrices, on every row it builds, t = 1 included."""
    quotients = {s: shuffle_quotient(s, member.v) for s in (1, 2, 3)}
    X = _whole_grid(member, quotients)[0].X
    assert set(X.dh) == {(1, 1), (2, 1), (3, 1), (1, 2), (2, 2), (1, 3)}
    for s, quotient in quotients.items():
        top = max(r for r, cell_s in X.cells if cell_s == s)
        collapsed = coefficient_complex(member, quotient, top).chain.diff
        for r in range(1, top + 1):
            assert X.dh[(r, s)] == collapsed[r], (r, s)


@pytest.mark.parametrize("triple", [(3, 1, 2), (2, 2, 4)], ids=lambda m: "%d-%d-%d" % m)
def test_reduced_build_forms_no_bar_cell_relations(triple, monkeypatch):
    """A reduced build on a fresh context forms none of the relation
    matrices of the bar cells Dbar^{x r} (x) Mbar(s), r >= 1 ((v-1)^r
    copies of the shuffle relations): the transfer reads only the cells'
    ranks."""
    params = CyclicFamilyParams(*triple)
    v = params.v
    forbidden = {}
    for s, rmax in ((1, 3), (2, 2), (3, 1)):
        rel = shuffle_quotient(s, v).relations
        for r in range(1, rmax + 1):
            m = IntegerMatrix.identity((v - 1) ** r).kron(rel)
            forbidden.setdefault(m.shape, []).append((r, s, m))
    ctx = ResolutionContext(params.u, params.t)
    monkeypatch.setattr(cyclic_resolution, "get_context", lambda p: ctx)
    built = []
    original = IntegerMatrix._set

    def recording_set(self, rows, cols, *arrays):
        original(self, rows, cols, *arrays)
        built.extend((r, s) for r, s, m in forbidden.get((rows, cols), ()) if self == m)

    monkeypatch.setattr(IntegerMatrix, "_set", recording_set)
    lcs_cohomology.reduced_complex.__wrapped__(params)
    assert ctx._memo, "the fresh context was not used"
    assert not built, f"bar-cell relations built at (r, s) = {built}"


# traced peak of the transfer at (2, 2, 4) on a fresh context: 5.0 MB
# with one row held at a time, 6.9 MB with all three (Python 3.11,
# numpy 2.4); the bound leaves about 25 % above it
TRANSFER_PEAK_BOUND = 6.2e6


def test_transfer_peak_at_v16(monkeypatch):
    params = CyclicFamilyParams(2, 2, 4)
    ctx = ResolutionContext(params.u, params.t)
    monkeypatch.setattr(cyclic_resolution, "get_context", lambda p: ctx)
    quotients = {s: shuffle_quotient(s, params.v) for s in (1, 2, 3)}
    tracemalloc.start()
    try:
        lcs_cohomology._transfer_reduced(params, quotients)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < TRANSFER_PEAK_BOUND, peak


def _flip_entry(m, j):
    """m with the sign of its j-th stored entry flipped."""
    values = m.values.copy()
    values[j] = -values[j]
    return IntegerMatrix._from_coo(m.rows, m.cols, m.row_idx, m.col_idx, values, canonical=True)


def _transfer_312():
    """The transfer at (3,1,2) as one whole-grid call, with C and delta
    beside its output."""
    params = CyclicFamilyParams(3, 1, 2)
    quotients = {s: shuffle_quotient(s, params.v) for s in (1, 2, 3)}
    system, delta = _whole_grid(params, quotients)
    out = homology_engine.perturb_double_complex([(system, delta)], params.t)
    return SimpleNamespace(X=out.X, unperturbed=system.C, delta=delta, i1=out.i1, p1=out.p1, h1=out.h1)


@pytest.mark.parametrize("pos", [(1, 1), (2, 1), (1, 2)])
def test_transfer_verification_reads_delta(pos):
    """The verification applies d_C + delta from its two summands: with
    one entry of delta flipped, in a column that i1 reaches, it names the
    i1 horizontal chain map at that cell."""
    out = _transfer_312()
    maps = (out.i1, out.p1, out.h1)
    assert _verify_perturbed_rows(out.X, out.unperturbed, out.delta, *maps)
    d = expanded(out.delta)[pos]
    j = int(np.flatnonzero(np.isin(d.col_idx, out.i1[pos].row_idx))[0])
    flipped = {**out.delta, pos: _flip_entry(d, j)}
    report = _verify_perturbed_rows(out.X, out.unperturbed, flipped, *maps)
    assert (report.ok, report.axiom, report.witness) == (False, "i1 horizontal chain map", pos)


@pytest.mark.parametrize("block", [5, 192])
@pytest.mark.parametrize("target", ["h1", "delta"])
def test_blocked_verification_skips_no_block(block, target):
    """A corrupted entry in the first or the last block of columns is
    reported as it is when the identity is compared in one block: h1 at
    (2, 1), and a twisted face of delta at (2, 1), once in a column that
    i1 reaches."""
    out = _transfer_312()
    C, pos = out.unperturbed, (2, 1)
    with mock.patch.object(homology_engine, "_VERIFY_BLOCK", block):
        blocks = homology_engine._blocks(C.rank(pos), (C.dh[pos], out.delta[pos]))
    # at 192 columns the last of the 512 columns' blocks is partial
    assert len(blocks) >= 3 and (block != 192 or blocks[-1][1] - blocks[-1][0] < blocks[0][1])
    reached = np.unique(out.i1[pos].row_idx)
    corrupted = []
    if target == "h1":
        h = out.h1[pos]
        for a, b in (blocks[0], blocks[-1]):
            j = int(np.flatnonzero((h.col_idx >= a) & (h.col_idx < b))[0])
            corrupted.append((out.delta, {**out.h1, pos: _flip_entry(h, j)}))
    else:
        d = out.delta[pos]
        first, last = blocks[0], blocks[-1]
        for c in (int(reached[reached < first[1]][0]), last[1] - 1):
            twisted = d.twisted.copy()
            twisted[c] = (twisted[c] + 1) % d.rows
            corrupted.append(({**out.delta, pos: FaceDifference(d.rows, twisted)}, out.h1))
    for k, (delta, h1) in enumerate(corrupted):
        maps = (out.i1, out.p1, h1)
        with mock.patch.object(homology_engine, "_VERIFY_BLOCK", 10**9):
            whole = _verify_perturbed_rows(out.X, C, delta, *maps)
        with mock.patch.object(homology_engine, "_VERIFY_BLOCK", block):
            blocked = _verify_perturbed_rows(out.X, C, delta, *maps)
        assert not whole.ok
        assert blocked == whole
        if target == "h1":
            assert (whole.axiom, whole.witness) == ("row homotopy identity", pos)
        else:
            # a column beyond i1's reach shows in p1's chain map instead
            identity = "p1 horizontal chain map" if k else "i1 horizontal chain map"
            assert (whole.axiom, whole.witness) == (identity, pos)
