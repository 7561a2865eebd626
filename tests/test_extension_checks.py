"""The array code against plain-loop references.

The references below are the straightforward loops over group elements
and table triples; the array code in `lcs_cohomology.verify_cocycle`,
`extensions.build_extension`, `extensions.verify_central_extension` and
`cycleset.check_*_table` must return the same Verdict (axiom and
witness) on intact and on corrupted input.  The family formulas of
`lcs_cohomology.cocycle_family` and the equivalence test of
`extensions.extensions_equivalent` (a coboundary solve) are checked the
same way against the formulas evaluated in the group and against the
search for a fiber translation.
"""

import random
from math import comb

import numpy as np
import pytest

from cyclecoh import extensions
from cyclecoh.abelian import FinAbGroup
from cyclecoh.cycleset import (
    CyclicFamilyParams,
    Verdict,
    check_cycle_set_table,
    check_linearity_table,
    make_cyclic_lcs,
)
from cyclecoh.extensions import (
    build_extension,
    extensions_equivalent,
    family_parameter_grid,
    verify_central_extension,
)
from cyclecoh.lcs_cohomology import (
    CocyclePair,
    all_cocycle_pairs,
    cocycle_family,
    verify_cocycle,
)

PARAMS = [
    CyclicFamilyParams(2, 1, 1),
    CyclicFamilyParams(2, 1, 2),
    CyclicFamilyParams(3, 1, 2),
    CyclicFamilyParams(2, 2, 3),
]
GAMMAS = [(2,), (4,), (9,), (2, 4)]


# ---------------------------------------------------------------------------
# plain-loop references
# ---------------------------------------------------------------------------


def entries(pair, xi):
    """(i, j) -> the group element at xi[i mod v, j mod v]."""
    return lambda i, j: pair.gamma.element(xi[i % pair.v, j % pair.v].tolist())


def ref_verify_cocycle(pair, lcs):
    v = lcs.v
    dot = lcs.dot
    xi1_at, xi2_at = entries(pair, pair.xi1), entries(pair, pair.xi2)
    for i1 in range(1, v):
        for i2 in range(1, v):
            for i3 in range(1, v):
                s = (
                    -1 * xi1_at(i2, i3)
                    + xi1_at(i1 + i2, i3)
                    - xi1_at(i1, i2 + i3)
                    + xi1_at(i1, i2)
                )
                if not s.is_zero:
                    return Verdict(False, "vertical (0,3)", (i1, i2, i3))
                s = (
                    xi1_at(dot[i1][i2], dot[i1][i3])
                    - xi1_at(i2, i3)
                    + xi2_at(i1, i3)
                    - xi2_at(i1, i2 + i3)
                    + xi2_at(i1, i2)
                )
                if not s.is_zero:
                    return Verdict(False, "mixed (1,2)", (i1, i2, i3))
                s = (
                    xi2_at(dot[i1][i2], dot[i1][i3])
                    - xi2_at(i1 + i2, i3)
                    + xi2_at(i1, i3)
                )
                if not s.is_zero:
                    return Verdict(False, "horizontal (2,1)", (i1, i2, i3))
    return Verdict(True)


def ref_tables(gamma, params, pair):
    v = params.v
    lcs = make_cyclic_lcs(params)
    elems = [(c.coords, i) for c in gamma.elements() for i in range(v)]
    index = {e: k for k, e in enumerate(elems)}
    xi1_at, xi2_at = entries(pair, pair.xi1), entries(pair, pair.xi2)
    add, dot = [], []
    for c1, i1 in elems:
        e1 = gamma.element(c1)
        arow, drow = [], []
        for c2, i2 in elems:
            e2 = gamma.element(c2)
            s = e1 + e2 + xi1_at(i1, i2)
            arow.append(index[(s.coords, (i1 + i2) % v)])
            d = e2 + xi2_at(i1, i2)
            drow.append(index[(d.coords, lcs.dot[i1][i2])])
        add.append(arow)
        dot.append(drow)
    return elems, add, dot


def ref_cycle_set(n, add, dot):
    rng = range(n)
    for a in rng:
        if sorted(dot[a]) != list(rng):
            return Verdict(False, "left-translation-bijective", (a,))
    for a in rng:
        for b in rng:
            ab, ba = dot[a][b], dot[b][a]
            for c in rng:
                if dot[ab][dot[a][c]] != dot[ba][dot[b][c]]:
                    return Verdict(False, "cycle-set", (a, b, c))
    return Verdict(True)


def ref_linearity(n, add, dot):
    rng = range(n)
    for a in rng:
        for b in rng:
            for c in rng:
                if dot[a][add[b][c]] != add[dot[a][b]][dot[a][c]]:
                    return Verdict(False, "left-distributive", (a, b, c))
                if dot[add[a][b]][c] != dot[dot[a][b]][dot[a][c]]:
                    return Verdict(False, "twisted-right-distributive", (a, b, c))
    return Verdict(True)


def ref_verify_central_extension(ext, add, dot, cap=64):
    """The checks of `verify_central_extension` with `VERIFY_SIZE_CAP` = cap."""
    n = ext.size
    exhaustive = n <= cap
    zero = ext.index[(ext.gamma.zero().coords, 0)]
    for a in range(n):
        if add[a][zero] != a:
            return Verdict(False, "additive identity", (a,))
        if not any(add[a][b] == zero for b in range(n)):
            return Verdict(False, "additive inverse", (a,))
        for b in range(n):
            if add[a][b] != add[b][a]:
                return Verdict(False, "additive commutativity", (a, b))
            if not exhaustive:
                continue
            for c in range(n):
                if add[add[a][b]][c] != add[a][add[b][c]]:
                    return Verdict(False, "additive associativity", (a, b, c))
    if exhaustive:
        for check in (ref_cycle_set, ref_linearity):
            verdict = check(n, add, dot)
            if not verdict:
                return verdict
    else:
        for a in range(n):
            if sorted(dot[a]) != list(range(n)):
                return Verdict(False, "left-translation-bijective", (a,))
    gamma, v = ext.gamma, ext.params.v
    lcs_dot = make_cyclic_lcs(ext.params).dot
    for c1 in gamma.elements():
        for c2 in gamma.elements():
            if add[ext.iota(c1)][ext.iota(c2)] != ext.iota(c1 + c2):
                return Verdict(False, "iota additive", (c1.coords, c2.coords))
    pi = [i for _, i in ext.elems]
    for a in range(n):
        for b in range(n):
            if pi[add[a][b]] != (pi[a] + pi[b]) % v:
                return Verdict(False, "pi additive", (a, b))
            if pi[dot[a][b]] != lcs_dot[pi[a]][pi[b]]:
                return Verdict(False, "pi multiplicative", (a, b))
    fiber = {k for k, (c, i) in enumerate(ext.elems) if i == 0}
    image = {ext.iota(c) for c in gamma.elements()}
    if fiber != image or len(image) != gamma.order():
        return Verdict(False, "exactness", None)
    for c in gamma.elements():
        k = ext.iota(c)
        for e in range(n):
            if dot[k][e] != e:
                return Verdict(False, "kernel invariance", (c.coords, e))
            if dot[e][k] != k:
                return Verdict(False, "kernel acts trivially", (c.coords, e))
    return Verdict(True)


def ref_cocycle_family(params, gamma, g, g1, g1p=None):
    """xi1 and xi2 of the family as v x v tables of group elements."""
    v, u, t, u2 = params.v, params.u, params.t, params.u2

    def base(r):
        r %= v
        if r == 0:
            return gamma.zero()
        if r == 1:
            return g1
        k, l = divmod(r, t)
        if k == 0:
            c = 1
        elif k <= u2:
            c = k if l == 0 else k + 1
        elif k < 2 * u2:
            c = k if l <= 1 else k + 1
        else:
            c = k if l <= k // u2 else k + 1
        return r * g1 - c * g

    def f1(i, j):
        if i == 1 and j == 1:
            return g
        if i >= 2 and j >= 2 and i + j <= v + 1:
            return -1 * g
        return gamma.zero()

    def f2(a, i1):
        if t == 1:
            return (a * i1) * g1
        i, j = divmod(a, t)
        if u > 2:
            val = (i1 * (i - u2 * comb(j, 2))) * (t * g1 - g)
        else:
            val = (-i * i1) * g1p
        for l in range(j):
            val = val + base((1 - u * l) * i1)
        return val

    return tuple(
        [[gamma.zero() if i == 0 or j == 0 else f(i, j) for j in range(v)] for i in range(v)]
        for f in (f1, f2)
    )


def ref_extensions_equivalent(ext1, ext2):
    """Search for a fiber translation (c, i) -> (c + eta(i), i): the
    additive comparison pins eta once eta(1) is chosen."""
    gamma = ext1.gamma
    v = ext1.params.v
    lcs = make_cyclic_lcs(ext1.params)
    p1, p2 = ext1.pair, ext2.pair
    d1 = {(i, j): entries(p2, p2.xi1)(i, j) - entries(p1, p1.xi1)(i, j) for i in range(v) for j in range(v)}
    d2 = {(i, j): entries(p2, p2.xi2)(i, j) - entries(p1, p1.xi2)(i, j) for i in range(v) for j in range(v)}
    for eta1 in gamma.elements():
        eta = [gamma.zero(), eta1] + [None] * (v - 2)
        for i in range(1, v - 1):
            eta[i + 1] = d1[(i, 1)] + eta[i] + eta1
        if not (d1[(v - 1, 1)] + eta[v - 1] + eta1).is_zero:
            continue
        if all(
            d1[(i, j)] == eta[(i + j) % v] - eta[i] - eta[j]
            and d2[(i, j)] == eta[lcs.dot[i][j]] - eta[j]
            for i in range(v)
            for j in range(v)
        ):
            return True
    return False


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def same(verdict, expected):
    """Equal verdicts, and equal printed forms (witnesses of Python ints)."""
    assert (verdict.ok, verdict.axiom, verdict.witness) == (
        expected.ok,
        expected.axiom,
        expected.witness,
    )
    assert str(verdict) == str(expected)


def family_pairs(params, gamma, count, rng):
    grid = family_parameter_grid(gamma, params)
    return [cocycle_family(params, gamma, *tup) for tup in rng.sample(grid, min(count, len(grid)))]


def corrupt_pair(pair, rng):
    """Change one entry of xi1 (both (i, j) and (j, i)) or of xi2."""
    gamma, v = pair.gamma, pair.v
    xi1, xi2 = pair.xi1.copy(), pair.xi2.copy()
    i, j = rng.randrange(1, v), rng.randrange(1, v)
    delta = rng.choice([e for e in gamma.elements() if not e.is_zero]).coords
    if rng.random() < 0.5:
        xi1[i, j] += delta
        if i != j:
            xi1[j, i] += delta
    else:
        xi2[i, j] += delta
    return CocyclePair(gamma, v, xi1, xi2)


def corrupt_tables(ext, rng):
    """Copies of the tables with one to three changes: an entry set, two
    entries of a row swapped, or a symmetric pair of entries set."""
    n = ext.size
    add = [list(map(int, row)) for row in ext.add]
    dot = [list(map(int, row)) for row in ext.dot]
    for _ in range(rng.randint(1, 3)):
        table = add if rng.random() < 0.5 else dot
        a, b, c = rng.randrange(n), rng.randrange(n), rng.randrange(n)
        kind = rng.randrange(3)
        if kind == 0:
            table[a][b] = c
        elif kind == 1:
            table[a][b], table[a][c] = table[a][c], table[a][b]
        else:  # keeps a commutative addition commutative
            table[a][b] = table[b][a] = c
    return add, dot


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("params", PARAMS, ids=lambda P: f"{P.p}{P.nu}{P.eta}")
def test_cocycle_checks_match_reference(params):
    rng = random.Random(params.v)
    lcs = make_cyclic_lcs(params)
    failing = 0
    for fac in GAMMAS:
        gamma = FinAbGroup(fac)
        for pair in family_pairs(params, gamma, 3, rng):
            same(verify_cocycle(pair, lcs), Verdict(True))
            same(ref_verify_cocycle(pair, lcs), Verdict(True))
            for _ in range(25):
                bad = corrupt_pair(pair, rng)
                expected = ref_verify_cocycle(bad, lcs)
                same(verify_cocycle(bad, lcs), expected)
                failing += not expected
    assert failing > 0


@pytest.mark.parametrize("params", PARAMS, ids=lambda P: f"{P.p}{P.nu}{P.eta}")
def test_extension_checks_match_reference(params, monkeypatch):
    rng = random.Random(100 + params.v)
    failing = 0
    for fac in GAMMAS:
        gamma = FinAbGroup(fac)
        for pair in family_pairs(params, gamma, 2, rng):
            ext = build_extension(gamma, params, pair, verify=False)
            elems, add, dot = ref_tables(gamma, params, pair)
            assert ext.elems == elems
            assert ext.add.tolist() == add and ext.dot.tolist() == dot
            n = ext.size
            # the exhaustive reference costs about n^3 steps per run
            trials = 12 if n <= 16 else 4 if n <= 36 else 1
            # at the cap 0 only the quadratic checks run
            for cap in (64, 0):
                monkeypatch.setattr(extensions, "VERIFY_SIZE_CAP", cap)
                same(verify_central_extension(ext), Verdict(True))
                for _ in range(trials):
                    bad_add, bad_dot = corrupt_tables(ext, rng)
                    expected = ref_verify_central_extension(ext, bad_add, bad_dot, cap)
                    ext.add, ext.dot = bad_add, bad_dot  # list-of-lists input
                    same(verify_central_extension(ext), expected)
                    ext.add, ext.dot = np.array(bad_add), np.array(bad_dot)
                    same(verify_central_extension(ext), expected)
                    ext.add, ext.dot = np.array(add), np.array(dot)
                    failing += not expected
    assert failing > 0


def test_corrupted_dot_beyond_the_cap_is_refused(monkeypatch):
    """Above 64 elements build_extension still verifies, with the quadratic
    checks; corruptions of the dot table of a 128-element extension,
    (2,2,4) with Z/8, that they see are refused with the reference's
    verdict."""
    params, gamma = CyclicFamilyParams(2, 2, 4), FinAbGroup((8,))
    rng = random.Random(128)
    (pair,) = family_pairs(params, gamma, 1, rng)
    verified = []
    check = extensions.verify_central_extension

    def recording(ext):
        verified.append(ext.size)
        return check(ext)

    monkeypatch.setattr(extensions, "verify_central_extension", recording)
    ext = build_extension(gamma, params, pair)
    assert verified == [128]
    n, v = ext.size, params.v
    add, intact = ext.add.tolist(), ext.dot.tolist()
    kernel = [ext.iota(c) for c in gamma.elements()]
    for axiom in ("left-translation-bijective", "pi multiplicative", "kernel invariance"):
        dot = [row.copy() for row in intact]
        b = rng.randrange(n)
        if axiom == "left-translation-bijective":
            a, c = rng.randrange(n), (b + 1) % n
            dot[a][b] = dot[a][c]
        else:
            if axiom == "pi multiplicative":  # c lies over pi(b) + 1
                a, c = rng.randrange(n), b - b % v + (b + 1) % v
            else:  # c lies over pi(b) in another fiber, a in the kernel
                a, c = rng.choice(kernel), (b + v) % n
            dot[a][b], dot[a][c] = dot[a][c], dot[a][b]
        expected = ref_verify_central_extension(ext, add, dot)
        assert expected.axiom == axiom
        ext.dot = np.array(dot)
        same(check(ext), expected)


def test_cycle_set_and_linearity_tables_match_reference():
    """Seeded random tables on small carriers, most of them failing."""
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randint(1, 6)
        add = [[(a + b) % n for b in range(n)] for a in range(n)]
        dot = [rng.sample(range(n), n) if rng.random() < 0.8 else
               [rng.randrange(n) for _ in range(n)] for _ in range(n)]
        if rng.random() < 0.3:
            add[rng.randrange(n)][rng.randrange(n)] = rng.randrange(n)
        same(check_cycle_set_table(n, dot), ref_cycle_set(n, add, dot))
        same(check_linearity_table(n, add, dot), ref_linearity(n, add, dot))


def _integer_pair(v, lcs, lam):
    """The coboundary of the degree-1 cochain i -> lam(i) over Z."""
    xi = np.zeros((2, v, v, 1), dtype=object)
    for i in range(1, v):
        for j in range(1, v):
            xi[0, i, j] = lam((i + j) % v) - lam(i) - lam(j)
            xi[1, i, j] = lam(lcs.dot[i][j]) - lam(j)
    return CocyclePair(FinAbGroup((0,)), v, xi[0], xi[1])


@pytest.mark.parametrize("params", [PARAMS[1], PARAMS[3]], ids=["212", "223"])
def test_cocycle_arrays_fall_back_to_python_ints(params):
    v = params.v
    lcs = make_cyclic_lcs(params)
    pair = _integer_pair(v, lcs, lambda i: 2**70 * i)
    assert all(a.dtype == object for a in (pair.xi1, pair.xi2))
    same(verify_cocycle(pair, lcs), Verdict(True))
    # one entry off by one: a difference far below 2^70 must still show
    xi2 = pair.xi2.copy()
    xi2[2, 1] += 1
    bad = CocyclePair(pair.gamma, v, pair.xi1, xi2)
    expected = ref_verify_cocycle(bad, lcs)
    assert not expected
    same(verify_cocycle(bad, lcs), expected)


def test_cocycle_array_dtype_bound():
    """int64 exactly while 5 * max|coordinate| < 2^62."""
    params = PARAMS[1]
    lcs = make_cyclic_lcs(params)
    top = (2**62 - 1) // 5
    v = params.v
    for scale, dtype in ((top, np.int64), (top + 1, object)):
        xi1 = np.zeros((v, v, 1), dtype=object)
        xi1[1, 1] = -scale
        xi2 = np.zeros((v, v, 1), dtype=object)
        xi2[range(1, v), range(1, v)] = scale
        pair = CocyclePair(FinAbGroup((0,)), v, xi1, xi2)
        assert all(a.dtype == dtype for a in (pair.xi1, pair.xi2))
        same(verify_cocycle(pair, lcs), ref_verify_cocycle(pair, lcs))


@pytest.mark.parametrize("params", PARAMS, ids=lambda P: f"{P.p}{P.nu}{P.eta}")
def test_cocycle_family_matches_reference(params):
    """Entry by entry on the whole parameter grid."""
    for fac in GAMMAS:
        gamma = FinAbGroup(fac)
        for tup in family_parameter_grid(gamma, params):
            pair = cocycle_family(params, gamma, *tup)
            for ref, xi in zip(ref_cocycle_family(params, gamma, *tup), (pair.xi1, pair.xi2)):
                assert [[list(e.coords) for e in row] for row in ref] == xi.tolist(), (fac, tup)


@pytest.mark.parametrize(
    "triple, fac",
    [
        ((2, 1, 1), (2,)),
        ((2, 1, 1), (4,)),
        ((2, 1, 1), (6,)),
        ((2, 1, 1), (12,)),
        ((2, 1, 2), (2,)),
        ((3, 1, 1), (3,)),
    ],
    ids=["211-Z2", "211-Z4", "211-Z6", "211-Z12", "212-Z2", "311-Z3"],
)
def test_equivalence_matches_reference(triple, fac):
    """Every ordered pair of cocycle pairs: the coboundary solve and the
    fiber-translation search give the same verdict, and a true verdict's
    witness lam has d(lam) = pair2 - pair1 modulo the factors.  At v = 2,
    d(lam) sees lam(1) only through 2 lam(1), so a witness summed from
    its prime-power parts without their CRT multipliers passes with Z/6
    and fails with Z/12."""
    params = CyclicFamilyParams(*triple)
    gamma = FinAbGroup(fac)
    v = params.v
    dot = np.array(make_cyclic_lcs(params).dot)
    i, j = np.meshgrid(np.arange(v), np.arange(v), indexing="ij")
    factors = np.array(gamma.factors, dtype=object)
    exts = [
        build_extension(gamma, params, pair, verify=False)
        for pair in all_cocycle_pairs(params, gamma)
    ]
    verdicts = set()
    for a in exts:
        for b in exts:
            verdict = extensions_equivalent(a, b)
            assert bool(verdict) == ref_extensions_equivalent(a, b)
            verdicts.add(bool(verdict))
            if verdict:
                lam = np.vstack((np.zeros((1, len(factors)), dtype=object), verdict.witness))
                for d_lam, xi in (
                    (lam[(i + j) % v] - lam[i] - lam[j], b.pair.xi1 - a.pair.xi1),
                    (lam[dot[i, j]] - lam[j], b.pair.xi2 - a.pair.xi2),
                ):
                    assert not ((d_lam - xi) % factors).any()
    assert verdicts == {True, False}
