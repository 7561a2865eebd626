import pytest

from cyclecoh.cycleset import (
    CyclicFamilyParams,
    LinearCycleSet,
    ParameterDomainError,
    derived_ybe_solution,
    family_members,
    invariant_elements,
    make_cyclic_lcs,
    verify_cycle_set,
    verify_linear,
    verify_ybe,
)


def test_params_validation():
    p = CyclicFamilyParams(2, 1, 2)
    assert (p.u, p.v, p.t, p.u2) == (2, 4, 2, 1)
    assert p.u * p.t == p.v and p.u2 * p.t == p.u
    with pytest.raises(ParameterDomainError):
        CyclicFamilyParams(4, 1, 1)
    with pytest.raises(ParameterDomainError):
        CyclicFamilyParams(2, 1, 3)
    with pytest.raises(ParameterDomainError):
        CyclicFamilyParams(3, 0, 0)


def test_make_cyclic_lcs_values():
    lcs = make_cyclic_lcs(CyclicFamilyParams(2, 1, 2))
    assert lcs.dot[1][1] == 3  # (1 - 2) * 1 mod 4
    lcs = make_cyclic_lcs(CyclicFamilyParams(3, 1, 2))
    assert lcs.dot[1][1] == 7  # -2 mod 9
    lcs = make_cyclic_lcs(CyclicFamilyParams(2, 1, 1))
    assert lcs == LinearCycleSet.trivial(2)


def test_axioms_for_family_members():
    for params in family_members(27):
        lcs = make_cyclic_lcs(params)
        assert verify_cycle_set(lcs)
        assert verify_linear(lcs)


def test_trivial_cycle_set_passes():
    for v in (2, 3, 4, 5):
        lcs = LinearCycleSet.trivial(v)
        assert verify_cycle_set(lcs)
        assert verify_linear(lcs)
        assert invariant_elements(lcs) == list(range(v))


def test_axiom_failures_report_witnesses():
    bad = LinearCycleSet(2, ((1, 0), (0, 1)))
    verdict = verify_cycle_set(bad)
    assert not verdict
    assert verdict.axiom == "cycle-set"
    assert verdict.witness is not None

    shifted = LinearCycleSet(4, tuple(tuple((j + i) % 4 for j in range(4)) for i in range(4)))
    verdict = verify_linear(shifted)
    assert not verdict
    assert verdict.axiom == "left-distributive"


def test_invariant_elements_are_multiples_of_t():
    for params in family_members(27):
        lcs = make_cyclic_lcs(params)
        t, u = params.t, params.u
        assert invariant_elements(lcs) == [t * k for k in range(u)]
        assert len(invariant_elements(lcs)) == u


def test_invariant_elements_examples():
    assert invariant_elements(make_cyclic_lcs(CyclicFamilyParams(2, 1, 2))) == [0, 2]
    assert invariant_elements(make_cyclic_lcs(CyclicFamilyParams(3, 1, 2))) == [0, 3, 6]


def test_ybe_trivial_is_flip():
    sol = derived_ybe_solution(LinearCycleSet.trivial(3))
    for x in range(3):
        for y in range(3):
            assert sol.r(x, y) == (y, x)


def test_ybe_example_value():
    lcs = make_cyclic_lcs(CyclicFamilyParams(2, 1, 2))
    sol = derived_ybe_solution(lcs)
    # sigma_1(j) = 3j mod 4, so sigma_1^{-1}(2) = 2 and 2.1 = (1-4)*1 = 1 mod 4
    assert sol.r(1, 2) == (2, 1)


def test_ybe_for_family_members():
    for params in family_members(27):
        lcs = make_cyclic_lcs(params)
        sol = derived_ybe_solution(lcs)
        assert verify_ybe(sol)


def test_ybe_degenerate_rejected():
    # squaring map 0 -> 0, 1 -> 0 is not bijective
    lcs = LinearCycleSet(2, ((0, 1), (1, 0)))
    with pytest.raises(ValueError, match="degenerate"):
        derived_ybe_solution(lcs)
