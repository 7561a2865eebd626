"""Central extensions of a cyclic linear cycle set by an abelian group.

A normalized degree-2 cocycle pair (xi1, xi2) twists the direct product
G x Z/vZ into a linear cycle set:

    (c, i) + (c', i') = (c + c' + xi1(i, i'), i + i')
    (c, i) . (c', i') = (c' + xi2(i, i'), i . i')

with the coefficient group sitting centrally: its elements are
invariant and act trivially.  Two extensions are equivalent when some
fiber translation (c, i) -> (c + eta(i), i) with eta(0) = 0 is an
isomorphism over both ends, that is when their pairs differ by the
coboundary of eta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .abelian import FinAbGroup
from .cycleset import (
    CyclicFamilyParams,
    Verdict,
    check_cycle_set_table,
    check_left_translations,
    check_linearity_table,
    first_failure,
    make_cyclic_lcs,
)
from .lcs_cohomology import (
    CocyclePair,
    all_cocycle_pairs,
    cocycle_family,
    cohomologous,
    verify_cocycle,
)
from .modular import ResourceLimitError

# the cubic axioms run exhaustively up to this many elements; above it
# only the quadratic checks run, measured at n = 512, (2,3,5) with
# Z/2+Z/8 (one 2-core x86 VM): the quadratic suite takes about 6 ms per
# extension, the cubic ones about 3 s (the cycle-set axiom 2.1 s, 4 ms
# per a; both distributivities 1.0 s), so 13 min for the 256 classes
VERIFY_SIZE_CAP = 64


@dataclass(frozen=True, eq=False)
class ExtensionClass:
    """A class of central extensions by the data that builds its
    representative, `build_extension(gamma, params, pair, family)`:
    `enumerate_extension_classes` built and verified that extension, and
    keeps only this record.  `family` is (case, parameter tuple) for a
    family representative, else None."""

    gamma: FinAbGroup
    params: CyclicFamilyParams
    pair: CocyclePair
    family: tuple = None


@dataclass(eq=False)
class CentralExtension:
    """The twisted product; `add` and `dot` are n x n int64 index tables
    over `elems`, where (c, i) sits at mixed_radix(c) * v + i.  Compare
    extensions with `extensions_equivalent`; `==` is identity."""

    gamma: FinAbGroup
    params: CyclicFamilyParams
    pair: CocyclePair
    elems: list
    index: dict
    add: np.ndarray
    dot: np.ndarray
    family: tuple = None  # (case, parameter tuple) when built from a family

    @property
    def size(self):
        return len(self.elems)

    def iota(self, c):
        return self.index[(c.coords, 0)]


def _element_positions(gamma, coords):
    """Positions in gamma.elements() of coordinate arrays (last axis),
    taken modulo the invariant factors: their mixed-radix values."""
    fs = gamma.factors
    factors = np.array(fs, dtype=np.int64)
    weights = np.array([math.prod(fs[j + 1 :]) for j in range(len(fs))], dtype=np.int64)
    return ((coords % factors) @ weights).astype(np.int64)


def _group_addition(gamma, gamma_elems):
    """The |gamma| x |gamma| addition table on positions in gamma_elems."""
    r = len(gamma.factors)
    C = np.array([c.coords for c in gamma_elems], dtype=np.int64).reshape(len(gamma_elems), r)
    return _element_positions(gamma, C[:, None] + C[None])


def build_extension(gamma, params, pair, family=None, verify=True):
    """The twisted product; refuses pairs that fail the cocycle check.

    The tables are gathered at once over all (c1, i1, c2, i2) from the
    group addition table on element positions and the positions of the
    values of xi1 and xi2: two (|gamma|, v, v) tables, spread over
    n x n.  `verify_central_extension` runs on the result unless
    verify=False: the full axiom suite up to 64 elements (every instance
    the classification sweeps produce), the quadratic checks above.
    """
    if pair.gamma != gamma or pair.v != params.v:
        raise ValueError(
            f"a cocycle pair over {pair.gamma} on Z/{pair.v} cannot twist "
            f"{gamma} x Z/{params.v}"
        )
    lcs = make_cyclic_lcs(params)
    verdict = verify_cocycle(pair, lcs)
    if not verdict:
        raise ValueError(f"not a cocycle pair: fails {verdict.axiom} at {verdict.witness}")
    v = params.v
    gamma_elems = list(gamma.elements())
    elems = [(c.coords, i) for c in gamma_elems for i in range(v)]
    index = {e: k for k, e in enumerate(elems)}
    n = len(elems)
    g = len(gamma_elems)
    plus = _group_addition(gamma, gamma_elems)
    i = np.arange(v)
    # (c, i1, i2) -> the element over i1 + i2 with fiber c + xi1(i1, i2),
    # and the one over i1.i2 with fiber c + xi2(i1, i2)
    over_add = plus[:, _element_positions(gamma, pair.xi1)] * v + (i[:, None] + i) % v
    over_dot = plus[:, _element_positions(gamma, pair.xi2)] * v + np.array(lcs.dot)
    # axes (c1, i1, c2, i2) of the n x n tables: add reads c = c1 + c2,
    # dot reads c = c2 whatever c1
    add = over_add.take(plus, axis=0).transpose(0, 2, 1, 3).reshape(n, n)
    dot = np.broadcast_to(over_dot.transpose(1, 0, 2), (g, v, g, v)).reshape(n, n)
    ext = CentralExtension(gamma, params, pair, elems, index, add, dot, family)
    if verify:
        verdict = verify_central_extension(ext)
        if not verdict:
            raise AssertionError(f"constructed extension fails: {verdict}")
    return ext


def verify_central_extension(ext):
    """Linear cycle set axioms, morphism properties of the two ends,
    exactness, and invariance/triviality of the coefficient fiber.

    The tables may be arrays or nested lists.  The cubic axioms
    (associativity, the cycle-set axiom, both distributivities) run
    exhaustively up to `VERIFY_SIZE_CAP` elements, as one n x n block
    over (b, c) per a; beyond it only the quadratic checks run, at once
    over every a (see `VERIFY_SIZE_CAP` for their costs).  Every failure
    names the first witness in loop order.
    """
    n = ext.size
    exhaustive = n <= VERIFY_SIZE_CAP
    add, dot = np.asarray(ext.add), np.asarray(ext.dot)
    zero = ext.index[(ext.gamma.zero().coords, 0)]
    # abelian group under the twisted addition: per a the identity, the
    # inverse, then over b commutativity and, when exhaustive,
    # associativity over c
    rng = np.arange(n)
    no_identity = add[:, zero] != rng
    no_inverse = ~(add == zero).any(axis=1)
    not_commuting = add != add.T
    quadratic = np.column_stack([no_identity, no_inverse, not_commuting])
    hit = first_failure(quadratic)
    if exhaustive:
        # associativity at (a, b) follows commutativity at (a, b); only the
        # rows up to the first quadratic failure can hold an earlier witness
        for a in range(n if hit is None else hit[0] + 1):
            # (a + b) + c != a + (b + c), rows b, columns c
            associating = add[add[a]] != add[a].take(add)
            if associating.any():
                b, c = first_failure(associating)
                if hit is None or (a, 2 + b) < hit:
                    return Verdict(False, "additive associativity", (a, b, c))
    if hit:
        a, col = hit
        if col == 0:
            return Verdict(False, "additive identity", (a,))
        if col == 1:
            return Verdict(False, "additive inverse", (a,))
        return Verdict(False, "additive commutativity", (a, col - 2))
    if exhaustive:
        verdict = check_cycle_set_table(n, dot)
        if not verdict:
            return verdict
        verdict = check_linearity_table(n, add, dot)
        if not verdict:
            return verdict
    else:
        verdict = check_left_translations(n, dot)
        if not verdict:
            return verdict
    gamma, v = ext.gamma, ext.params.v
    gamma_elems = list(gamma.elements())
    iota = np.array([ext.iota(c) for c in gamma_elems], dtype=np.int64)
    # iota and pi are morphisms
    hit = first_failure(add[iota[:, None], iota] != iota[_group_addition(gamma, gamma_elems)])
    if hit:
        c1, c2 = hit
        return Verdict(False, "iota additive", (gamma_elems[c1].coords, gamma_elems[c2].coords))
    # pi and the tables of Z/v, read at (pi(a), pi(b)), in the smallest
    # type that holds v: the n x n temporaries set the cost of this check
    small = np.min_scalar_type(v)
    pi = np.array([i for _, i in ext.elems], dtype=small)
    i = np.arange(v)
    z_add = ((i[:, None] + i) % v).astype(small)
    z_dot = np.array(make_cyclic_lcs(ext.params).dot, dtype=small)
    pi_add = pi.take(add) != z_add[pi][:, pi]
    pi_dot = pi.take(dot) != z_dot[pi][:, pi]
    if pi_add.any() or pi_dot.any():
        a, b, which = first_failure(np.stack([pi_add, pi_dot], axis=-1))
        return Verdict(False, "pi multiplicative" if which else "pi additive", (a, b))
    # exactness: the fiber over 0 is exactly the image of iota
    fiber = {k for k, (c, i) in enumerate(ext.elems) if i == 0}
    image = set(iota.tolist())
    if fiber != image or len(image) != gamma.order():
        return Verdict(False, "exactness", None)
    # kernel triviality: iota(c) . e = e and e . iota(c) = iota(c)
    invariant = dot[iota] != rng
    trivial = dot[:, iota].T != iota[:, None]
    hit = first_failure(np.stack([invariant, trivial], axis=-1))
    if hit:
        c, e, which = hit
        axiom = "kernel acts trivially" if which else "kernel invariance"
        return Verdict(False, axiom, (gamma_elems[c].coords, e))
    return Verdict(True)


def extensions_equivalent(ext1, ext2):
    """Whether the pairs of the two extensions are cohomologous (see
    `cohomologous`; the witness is the fiber translation eta(1..v-1)).
    Either may be a `CentralExtension` or an `ExtensionClass`: only the
    data they are built from is read.

    For family-built extensions of one case the closed-form criterion is
    evaluated too and must agree with the coboundary solve.
    """
    if ext1.gamma != ext2.gamma or ext1.params != ext2.params:
        raise ValueError("extensions over different data are never compared")
    verdict = cohomologous(ext1.pair, ext2.pair, make_cyclic_lcs(ext1.params))
    if ext1.family and ext2.family and ext1.family[0] == ext2.family[0]:
        closed = _closed_criterion(ext1, ext2)
        if closed != verdict.ok:
            raise AssertionError(
                "closed-form equivalence criterion disagrees with the coboundary solve"
            )
    return verdict


def _multiples(gamma, m):
    return {(m * x).coords for x in gamma.elements()}


def _closed_criterion(ext1, ext2):
    case = ext1.family[0]
    gamma = ext1.gamma
    params = ext1.params
    if case == "A":
        g, g1 = ext1.family[1]
        h, h1 = ext2.family[1]
        return g1 == h1 and (g - h).coords in _multiples(gamma, params.v)
    if case == "B":
        g, g1 = ext1.family[1]
        h, h1 = ext2.family[1]
        t = params.t
        return (g1 - h1).coords in _multiples(gamma, params.u) and t * (g1 - h1) == g - h
    g, g1, g1p = ext1.family[1]
    h, h1, h1p = ext2.family[1]
    return (
        (g1 - h1).coords in _multiples(gamma, 2)
        and g - h == 2 * (g1 - h1)
        and g1p == h1p
    )


def family_case(params):
    if params.t == 1:
        return "A"
    if params.u > 2:
        return "B"
    return "C"


def family_parameter_grid(gamma, params):
    """All admissible family parameter tuples for the case of params."""
    case = family_case(params)
    v, u = params.v, params.u
    out = []
    if case == "A":
        for g in gamma.elements():
            for g1 in gamma.elements():
                if (v * g1).is_zero:
                    out.append((g, g1))
    elif case == "B":
        for g in gamma.elements():
            for g1 in gamma.elements():
                if v * g1 == u * g:
                    out.append((g, g1))
    else:
        for g in gamma.elements():
            for g1 in gamma.elements():
                if 4 * g1 != 2 * g:
                    continue
                for g1p in gamma.elements():
                    if (2 * g1p).is_zero:
                        out.append((g, g1, g1p))
    return out


def _class_key(case, gamma, params, tup):
    """Canonical representative of the equivalence class of a parameter
    tuple: lexicographic minimum over its coboundary orbit."""
    v, u, t = params.v, params.u, params.t
    orbit = []
    for delta in gamma.elements():
        if case == "A":
            g, g1 = tup
            orbit.append((g1.coords, (g + v * delta).coords))
        elif case == "B":
            g, g1 = tup
            orbit.append(((g1 + u * delta).coords, (g + v * delta).coords))
        else:
            g, g1, g1p = tup
            orbit.append(((g1 + 2 * delta).coords, g1p.coords, (g + 4 * delta).coords))
    return min(orbit)


def enumerate_extension_classes(gamma, params, method="theorem"):
    """Representatives of all equivalence classes of central extensions,
    as `ExtensionClass` records.

    method "theorem": sweep the family parameter ranges of the matching
    case and quotient by its closed-form criterion.  method "brute":
    enumerate every normalized cocycle pair and classify by the coboundary
    solve.  Both orders are deterministic.  Each representative's
    extension is built and verified, one at a time: only one extension's
    tables are held at once.
    """
    if not gamma.is_finite:
        raise ResourceLimitError("enumeration requires finite coefficients")
    if method == "theorem":
        case = family_case(params)
        grid = family_parameter_grid(gamma, params)
        classes = {}
        for tup in grid:
            key = _class_key(case, gamma, params, tup)
            cur = classes.get(key)
            flat = tuple(x.coords for x in tup)
            if cur is None or flat < tuple(x.coords for x in cur):
                classes[key] = tup
        out = []
        for key in sorted(classes):
            tup = classes[key]
            pair = cocycle_family(params, gamma, *tup)
            build_extension(gamma, params, pair, family=(case, tup))
            out.append(ExtensionClass(gamma, params, pair, (case, tup)))
        return out
    if method == "brute":
        pairs = all_cocycle_pairs(params, gamma)
        pairs.sort(key=lambda p: p.flat_key())
        reps = []
        for pair in pairs:
            ext = build_extension(gamma, params, pair, verify=False)
            if not any(extensions_equivalent(ext, r) for r in reps):
                verdict = verify_central_extension(ext)
                if not verdict:
                    raise AssertionError(f"brute-force representative fails: {verdict}")
                reps.append(ExtensionClass(gamma, params, pair))
        return reps
    raise ValueError(f"unknown enumeration method {method!r}")
