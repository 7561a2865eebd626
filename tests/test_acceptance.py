"""Acceptance suite: the exit criteria of the build, one test per
criterion, each printing a single pass/fail line.

All arithmetic is exact, so every comparison below is equality of
invariant-factor lists, matrices, or class counts -- tolerance zero.
"""

import time

from cyclecoh.abelian import FinAbGroup, torsion_and_quotient
from cyclecoh.cycleset import (
    CyclicFamilyParams,
    derived_ybe_solution,
    family_members,
    make_cyclic_lcs,
    verify_ybe,
)
from cyclecoh.cyclic_resolution import comparison_maps, dl_agreement_suite
from cyclecoh.extensions import (
    build_extension,
    enumerate_extension_classes,
    extensions_equivalent,
    family_parameter_grid,
    verify_central_extension,
)
from cyclecoh.lcs_cohomology import (
    cocycle_family,
    cohomology,
    family_case,
    reduced_complex,
    verify_cocycle,
)

GAMMAS_H1 = [(2,), (3,), (4,), (9,), (2, 2)]
PARAMS_H1 = [
    (2, 1, 1), (2, 1, 2), (2, 2, 2), (2, 2, 3), (2, 2, 4),
    (3, 1, 1), (3, 1, 2), (3, 2, 2),
]
PARAMS_T1 = [(2, 1, 1), (3, 1, 1), (2, 2, 2), (2, 3, 3), (3, 2, 2)]  # u = v in {2,3,4,8,9}
GAMMAS_H2 = [(2,), (3,), (4,), (8,), (9,), (2, 2)]
PARAMS_MIDDLE = [(3, 1, 2), (2, 2, 3), (2, 2, 4)]
GAMMAS_MIDDLE = [(3,), (9,), (2,), (4,), (8,)]


def announce(criterion, ok, detail=""):
    # visible with `pytest -s`; on failure pytest shows it regardless
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert ok, line


def test_criterion_1_h1_closed_form():
    start = time.monotonic()
    ok = True
    for triple in PARAMS_H1:
        params = CyclicFamilyParams(*triple)
        for fac in GAMMAS_H1:
            gamma = FinAbGroup(fac)
            expected = torsion_and_quotient(gamma, params.u)[0]
            full = cohomology(params, gamma, 1, "full").group
            reduced = cohomology(params, gamma, 1, "reduced").group
            if not (full == reduced == expected):
                ok = False
    announce(1, ok, f"H^1 = u-torsion on 8 params x 5 coefficient groups, {time.monotonic()-start:.1f}s")


def test_criterion_2_h2_u_equals_v():
    start = time.monotonic()
    ok = True
    for triple in PARAMS_T1:
        params = CyclicFamilyParams(*triple)
        for fac in GAMMAS_H2:
            gamma = FinAbGroup(fac)
            groups = {
                m: cohomology(params, gamma, 2, m).group
                for m in ("full", "reduced", "closed")
            }
            tors, quot = torsion_and_quotient(gamma, params.v)
            if len({groups["full"], groups["reduced"], groups["closed"], tors.direct_sum(quot)}) != 1:
                ok = False
    announce(2, ok, f"u = v in {{2,3,4,8,9}} x 6 coefficient groups, {time.monotonic()-start:.1f}s")


def test_criterion_3_h2_middle_case():
    start = time.monotonic()
    ok = True
    for triple in PARAMS_MIDDLE:
        params = CyclicFamilyParams(*triple)
        for fac in GAMMAS_MIDDLE:
            gamma = FinAbGroup(fac)
            groups = {
                m: cohomology(params, gamma, 2, m).group
                for m in ("full", "reduced", "closed")
            }
            tors, quot = torsion_and_quotient(gamma, params.u)
            if len({groups["full"], groups["reduced"], groups["closed"], quot.direct_sum(tors)}) != 1:
                ok = False
    announce(3, ok, f"2 < u < v <= u^2 on 3 params x 5 coefficient groups, {time.monotonic()-start:.1f}s")


def test_criterion_4_h2_v4_u2():
    start = time.monotonic()
    params = CyclicFamilyParams(2, 1, 2)
    ok = True
    for fac in ((2,), (4,), (2, 2)):
        gamma = FinAbGroup(fac)
        groups = {
            m: cohomology(params, gamma, 2, m).group
            for m in ("full", "reduced", "closed")
        }
        tors, quot = torsion_and_quotient(gamma, 2)
        expected = quot.direct_sum(tors).direct_sum(tors)
        if len({groups["full"], groups["reduced"], groups["closed"], expected}) != 1:
            ok = False
    announce(4, ok, f"u = 2, v = 4 on 3 coefficient groups, {time.monotonic()-start:.1f}s")


def test_criterion_5_extension_classification():
    start = time.monotonic()
    ok = True
    for triple, fac in (((2, 1, 1), (2,)), ((2, 1, 1), (4,)), ((2, 1, 2), (2,))):
        params = CyclicFamilyParams(*triple)
        gamma = FinAbGroup(fac)
        h2 = cohomology(params, gamma, 2, "closed").group.order()
        theorem = enumerate_extension_classes(gamma, params, "theorem")
        brute = enumerate_extension_classes(gamma, params, "brute")
        if not (len(theorem) == len(brute) == h2):
            ok = False
        # closed-form equivalence criterion versus coboundary solve, all pairs
        case = family_case(params)
        exts = []
        for tup in family_parameter_grid(gamma, params):
            pair = cocycle_family(params, gamma, *tup)
            exts.append(build_extension(gamma, params, pair, family=(case, tup), verify=False))
        for a in exts:
            for b in exts:
                # extensions_equivalent raises if criterion and solve split
                extensions_equivalent(a, b)
    announce(5, ok, f"brute = theorem = |H^2| and criteria match the solve, {time.monotonic()-start:.1f}s")


def test_criterion_6_machinery_identities():
    start = time.monotonic()
    ok = True
    members = {
        4: [(2, 1, 2), (2, 2, 2)],
        8: [(2, 2, 3), (2, 3, 3)],
        9: [(3, 1, 2), (3, 2, 2)],
    }
    # (a) recursion versus closed form for the higher differentials
    for v, triples in members.items():
        for triple in triples:
            dl_agreement_suite(CyclicFamilyParams(*triple))
    # (b) comparison identities through degree 3
    for triple in ((2, 1, 2), (3, 1, 2), (2, 2, 3)):
        comparison_maps(CyclicFamilyParams(*triple), 3)
    # (c) closed-form arrows = perturbation transfer (asserted on build)
    for v, triples in members.items():
        for triple in triples:
            reduced_complex(CyclicFamilyParams(*triple))
    # (d) degree-2 projection closed forms = binomial forms (asserted inside
    # phi_hat_closed, which reduced_complex invokes on every build)
    # (e) nilpotency of the twist against the degree-2 homotopy
    from cyclecoh.cyclic_resolution import coefficient_complex
    from cyclecoh.homology_engine import CellRank
    from cyclecoh.lcs_cohomology import perturbation_delta, shuffle_quotient

    for v, triples in members.items():
        for triple in triples:
            params = CyclicFamilyParams(*triple)
            lcs = make_cyclic_lcs(params)
            m1 = shuffle_quotient(1, params.v)
            cc = coefficient_complex(params, m1, 2)
            cells = {(r, 1): CellRank(cc.bar_rank(r)) for r in range(3)}
            delta = perturbation_delta(lcs, cells)
            if params.t == 1:
                if not (delta[(2, 1)] @ cc.omegabar[2]).is_zero():
                    ok = False
            else:
                delta_h = delta[(2, 1)] @ cc.omegabar[2]
                power = delta_h
                for _ in range(params.t - 2):
                    power = power @ delta_h
                if not power.is_zero():
                    ok = False
    announce(6, ok, f"machinery identity suites (a)-(e), {time.monotonic()-start:.1f}s")


def test_criterion_7_ybe():
    start = time.monotonic()
    ok = True
    count = 0
    for params in family_members(9):
        sol = derived_ybe_solution(make_cyclic_lcs(params))
        if not verify_ybe(sol):
            ok = False
        count += 1
    announce(7, ok, f"{count} family members with v <= 9, {time.monotonic()-start:.1f}s")


def test_criterion_8_cocycle_families():
    start = time.monotonic()
    ok = True
    sweeps = [
        ((2, 1, 1), GAMMAS_H1),
        ((3, 1, 1), GAMMAS_H1),
        ((2, 2, 2), GAMMAS_H1),
        ((3, 1, 2), GAMMAS_H1),
        ((2, 2, 3), GAMMAS_H1),
        ((2, 1, 2), GAMMAS_H1),
    ]
    checked = 0
    for triple, facs in sweeps:
        params = CyclicFamilyParams(*triple)
        lcs = make_cyclic_lcs(params)
        for fac in facs:
            gamma = FinAbGroup(fac)
            for tup in family_parameter_grid(gamma, params):
                pair = cocycle_family(params, gamma, *tup)
                if not verify_cocycle(pair, lcs):
                    ok = False
                ext = build_extension(gamma, params, pair, verify=False)
                if not verify_central_extension(ext):
                    ok = False
                checked += 1
    announce(8, ok, f"{checked} family cocycles built and verified, {time.monotonic()-start:.1f}s")
