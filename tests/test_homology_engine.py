import itertools

import pytest

from cyclecoh.abelian import IntegerMatrix, PresentedModule
from cyclecoh.homology_engine import (
    ChainComplex,
    DoubleComplex,
    RowSDRSystem,
    _verify_perturbed_rows,
    perturb_double_complex,
    total_complex,
)

from reference import p_local_homology

M = IntegerMatrix.from_rows
free = PresentedModule.free


def test_chain_complex_validation_and_homology():
    chain = ChainComplex(
        {0: free(1), 1: free(1), 2: free(1)},
        {1: M([[0]]), 2: M([[4]])},
    )
    assert chain.validate()
    # Z <-4- Z <-0- Z: H_0 = Z, H_1 = Z/4, H_2 = 0
    assert p_local_homology(chain, 0, 2, 4) == (1, [])
    assert p_local_homology(chain, 1, 2, 4) == (0, [4])
    assert p_local_homology(chain, 2, 2, 4) == (0, [])

    bad = ChainComplex({0: free(1), 1: free(1), 2: free(1)}, {1: M([[1]]), 2: M([[1]])})
    assert not bad.validate()


def test_total_complex_degenerate_grids():
    dc = DoubleComplex({(0, 1): free(3)})
    tot = total_complex(dc)
    assert tot.rank(1) == 3
    assert not tot.diff

    dc = DoubleComplex(
        {(r, s) for r in (0, 1) for s in (1, 2)} and
        {(r, s): free(2) for r in (0, 1) for s in (1, 2)},
        {(1, 1): IntegerMatrix.zero(2, 2), (1, 2): IntegerMatrix.zero(2, 2)},
        {(0, 2): IntegerMatrix.zero(2, 2), (1, 2): IntegerMatrix.zero(2, 2)},
    )
    tot = total_complex(dc)
    for n, d in tot.diff.items():
        assert d.is_zero()


def test_total_complex_anticommuting_grid():
    a, b = 3, 5
    dc = DoubleComplex(
        {(0, 0): free(1), (1, 0): free(1), (0, 1): free(1), (1, 1): free(1)},
        {(1, 0): M([[a]]), (1, 1): M([[a]])},
        {(0, 1): M([[b]]), (1, 1): M([[-b]])},
    )
    assert dc.validate()
    tot = total_complex(dc)
    assert tot.validate()
    assert not tot.diff[1].is_zero()

    bad = DoubleComplex(
        dc.cells,
        dc.dh,
        {(0, 1): M([[b]]), (1, 1): M([[b]])},
    )
    assert not bad.validate()


def row(maps):
    """Re-key degree-indexed maps onto the cells (n, 0) of a one-row grid."""
    return {(n, 0): m for n, m in maps.items()}


def one_row(chain):
    """A chain complex as a one-row double complex with cells (n, 0)."""
    return DoubleComplex(row(chain.modules), row(chain.diff))


def cyclic_bar_complex(v, nmax):
    """Normalized bar resolution of Z over Z[C_v]: degree n has basis
    (a_1, ..., a_n, b) with a_i in 1..v-1 and b in 0..v-1."""
    def basis(n):
        return [
            t + (b,)
            for t in itertools.product(range(1, v), repeat=n)
            for b in range(v)
        ]

    bases = {n: basis(n) for n in range(nmax + 1)}
    index = {n: {t: i for i, t in enumerate(bases[n])} for n in bases}
    modules = {n: free(len(bases[n])) for n in bases}
    diff = {}
    for n in range(1, nmax + 1):
        data = {}
        for col, t in enumerate(bases[n]):
            terms = {}

            def add(tup, c):
                if all(x % v for x in tup[:-1]):
                    key = index[n - 1][tup]
                    terms[key] = terms.get(key, 0) + c

            add(t[1:], 1)
            for i in range(n - 1):
                merged = t[:i] + ((t[i] + t[i + 1]) % v,) + t[i + 2 :]
                add(merged, (-1) ** (i + 1))
            last = t[: n - 1] + ((t[n - 1] + t[n]) % v,)
            add(last, (-1) ** n)
            for key, c in terms.items():
                if c:
                    data[(key, col)] = c
        diff[n] = IntegerMatrix(len(bases[n - 1]), len(bases[n]), data)
    return ChainComplex(modules, diff), bases, index


def bar_sdr(v, nmax):
    """SDR of the augmented bar resolution onto Z, homotopy -xi with
    xi(x) = (-1)^(n+1) x tensor 1, as a one-row system."""
    C, bases, index = cyclic_bar_complex(v, nmax)
    X = ChainComplex(
        {n: free(1 if n == 0 else 0) for n in range(nmax + 1)},
        {n: IntegerMatrix.zero(0 if n > 1 else 1, 0) for n in range(1, nmax + 1)},
    )
    i = {0: IntegerMatrix(v, 1, {(index[0][(0,)], 0): 1})}
    p = {0: IntegerMatrix(1, v, {(0, b): 1 for b in range(v)})}
    for n in range(1, nmax + 1):
        i[n] = IntegerMatrix.zero(len(bases[n]), 0)
        p[n] = IntegerMatrix.zero(0, len(bases[n]))
    h = {}
    for n in range(nmax):
        data = {}
        for col, t in enumerate(bases[n]):
            b = t[-1]
            if b % v:
                tgt = t[:-1] + (b, 0)
                data[(index[n + 1][tgt], col)] = -((-1) ** (n + 1))
        h[n] = IntegerMatrix(len(bases[n + 1]), len(bases[n]), data)
    return RowSDRSystem(one_row(X), one_row(C), row(i), row(p), row(h))


def test_bar_resolution_sdr():
    for v in (2, 3):
        system = bar_sdr(v, 3)
        assert system.C.validate()
        out = perturb_double_complex([(system, {})], 1)


def test_sdr_failure_reports_identity():
    # i = p = id on Z --1--> Z, so the homotopy must vanish; h = 1 breaks
    # d o h + h o d = i o p - id in degree 0
    chain = one_row(ChainComplex({0: free(1), 1: free(1)}, {1: M([[1]])}))
    ident = row({0: M([[1]]), 1: M([[1]])})
    system = RowSDRSystem(chain, chain, ident, dict(ident), {(0, 0): M([[1]])})
    with pytest.raises(AssertionError, match=r"fail \[row homotopy identity\] at \(0, 0\)"):
        perturb_double_complex([(system, {})], 1)


def disc_sdr(k=2):
    """C = k discs (Z --id--> Z) in degrees (1, 0); X = 0."""
    C = ChainComplex({0: free(k), 1: free(k)}, {1: IntegerMatrix.identity(k)})
    X = ChainComplex({0: free(0), 1: free(0)}, {1: IntegerMatrix.zero(0, 0)})
    i = {0: IntegerMatrix.zero(k, 0), 1: IntegerMatrix.zero(k, 0)}
    p = {0: IntegerMatrix.zero(0, k), 1: IntegerMatrix.zero(0, k)}
    h = {0: IntegerMatrix.identity(k).scale(-1)}
    return RowSDRSystem(one_row(X), one_row(C), row(i), row(p), row(h))


def test_perturb_sdr_zero_delta_is_identity():
    system = disc_sdr()
    h = dict(system.h)
    out = perturb_double_complex([(system, {})], 1)
    assert system.C.dh == {(1, 0): IntegerMatrix.identity(2)}
    assert out.h1 == h


def test_perturb_sdr_nilpotent_delta():
    system = disc_sdr()
    delta = {(1, 0): M([[0, 2], [0, 0]])}
    out = perturb_double_complex([(system, delta)], 2)
    # C's differential is left as it was: d_C + delta is never formed
    assert system.C.dh[(1, 0)] + delta[(1, 0)] == M([[1, 2], [0, 1]])
    assert system.C.dh == {(1, 0): IntegerMatrix.identity(2)}


def test_verification_applies_delta_beside_d():
    # C's perturbed differential is read as d_C and delta, never summed:
    # a flipped delta entry breaks the row homotopy identity in degree 0
    system = disc_sdr()
    delta = {(1, 0): M([[0, 2], [0, 0]])}
    out = perturb_double_complex([(system, delta)], 2)
    assert system.C.dh == {(1, 0): IntegerMatrix.identity(2)}
    maps = (out.i1, out.p1, out.h1)
    assert _verify_perturbed_rows(out.X, system.C, delta, *maps)
    report = _verify_perturbed_rows(out.X, system.C, {(1, 0): M([[0, -2], [0, 0]])}, *maps)
    assert str(report) == "fail [row homotopy identity] at (0, 0)"


def test_perturb_sdr_randomized_nilpotent():
    import random

    rng = random.Random(21)
    for _ in range(25):
        k = rng.randint(1, 4)
        system = disc_sdr(k)
        # strictly upper triangular = engineered nilpotent delta o h
        data = {
            (i, j): rng.randint(-3, 3)
            for i in range(k)
            for j in range(i + 1, k)
        }
        delta = {(1, 0): IntegerMatrix(k, k, data)}
        out = perturb_double_complex([(system, delta)], k)


def test_perturb_sdr_rejects_non_small():
    system = disc_sdr()
    delta = {(1, 0): IntegerMatrix.identity(2)}
    with pytest.raises(ValueError, match="not small"):
        perturb_double_complex([(system, delta)], 3)


def shift(k):
    """The k x k matrix with ones above the diagonal: nilpotent of degree
    exactly k."""
    return IntegerMatrix(k, k, {(i, i + 1): 1 for i in range(k - 1)})


def test_smallness_at_the_nilpotency_degree():
    """delta h = -shift(k) has (delta h)^k = 0 and (delta h)^(k-1) != 0:
    k certifies it, k - 1 does not, at the disc's only h cell."""
    for k in range(1, 6):
        out = perturb_double_complex([(disc_sdr(k), {(1, 0): shift(k)})], k)
        if k > 1:
            with pytest.raises(ValueError, match=r"perturbation not small at \(0, 0\)"):
                perturb_double_complex([(disc_sdr(k), {(1, 0): shift(k)})], k - 1)


def two_disc_rows(k):
    """Two rows s = 0, 1 of k discs each, with no vertical maps; X = 0."""
    cells = {(r, s): free(k) for r in (0, 1) for s in (0, 1)}
    C = DoubleComplex(cells, {(1, s): IntegerMatrix.identity(k) for s in (0, 1)})
    zero = {(r, s): free(0) for r, s in cells}
    X = DoubleComplex(zero, {(1, s): IntegerMatrix.zero(0, 0) for s in (0, 1)})
    i = {pos: IntegerMatrix.zero(k, 0) for pos in cells}
    p = {pos: IntegerMatrix.zero(0, k) for pos in cells}
    h = {(0, s): IntegerMatrix.identity(k).scale(-1) for s in (0, 1)}
    return RowSDRSystem(X, C, i, p, h)


def test_not_small_names_the_cell():
    """Row 0 is small at n0 = 3 and row 1 is not: the error names (0, 1),
    whichever order the cells are listed in."""
    delta = {(1, 0): shift(3), (1, 1): shift(3) + IntegerMatrix(3, 3, {(2, 0): 1})}
    for order in (lambda pos: pos, lambda pos: (-pos[1], -pos[0])):
        system = two_disc_rows(3)
        system.C.cells = dict(sorted(system.C.cells.items(), key=lambda item: order(item[0])))
        with pytest.raises(ValueError, match=r"perturbation not small at \(0, 1\)"):
            perturb_double_complex([(system, delta)], 3)
    out = perturb_double_complex([(two_disc_rows(3), {(1, 0): shift(3), (1, 1): shift(3)})], 3)


def test_perturb_double_complex_zero_delta():
    cells = {(r, s): free(1) for r in (0, 1) for s in (1, 2)}
    zero = IntegerMatrix.zero(1, 1)
    X = DoubleComplex(cells, {(1, 1): zero, (1, 2): zero}, {(0, 2): zero, (1, 2): zero})
    ident = IntegerMatrix.identity(1)
    i = {pos: ident for pos in cells}
    p = {pos: ident for pos in cells}
    h = {(0, 1): zero, (0, 2): zero}
    system = RowSDRSystem(X, X, i, p, h)
    out = perturb_double_complex([(system, {})], 1)
    assert out.X.dh == X.dh


def two_rows(flip=1):
    """Rows s = 1, 2 of one Z per cell r = 0, 1, X = C, zero d_h and the
    identity as d_v, with i = p = id and h = 0: each row as its own
    (system, delta) pair, row 2 holding the vertical maps out of its
    cells, X's at (1, 2) scaled by `flip`."""
    zero, ident = IntegerMatrix.zero(1, 1), IntegerMatrix.identity(1)
    pairs = []
    for s in (1, 2):
        cells = {(r, s): free(1) for r in (0, 1)}
        dv = {(r, s): ident for r in (0, 1)} if s == 2 else {}
        C = DoubleComplex(cells, {(1, s): zero}, dv)
        X = DoubleComplex(cells, {(1, s): zero}, {**dv, (1, 2): ident.scale(flip)} if dv else {})
        maps = {pos: ident for pos in cells}
        pairs.append((RowSDRSystem(X, C, dict(maps), dict(maps), {(0, s): zero}), {}))
    return pairs


def test_rows_drawn_one_at_a_time_check_the_identities_between_them():
    """A source of rows is corrected and verified row by row: the vertical
    identities of row 2 read row 1's corrected maps, and a vertical map
    broken in row 2 is named at its cell.  The result holds X over both
    rows, and of the corrected maps what `keep` names."""
    out = perturb_double_complex(iter(two_rows()), 1, keep={"p1": [(1, 1)]})
    assert set(out.X.cells) == {(r, s) for r in (0, 1) for s in (1, 2)}
    assert set(out.X.dv) == {(0, 2), (1, 2)}
    assert (out.i1, set(out.p1), out.h1) == ({}, {(1, 1)}, {})
    with pytest.raises(AssertionError, match=r"fail \[i1 vertical chain map\] at \(1, 2\)$"):
        perturb_double_complex(iter(two_rows(-1)), 1)
