import pytest

from cyclecoh.abelian import IntegerMatrix, PresentedModule
from cyclecoh.cycleset import CyclicFamilyParams
from cyclecoh.cyclic_resolution import (
    comparison_maps,
    coefficient_complex,
    crossed_product,
    contracting_homotopies,
    dl_agreement_suite,
    dl_maps,
    exp_tuples,
    get_context,
    pepito_scalar,
    resolution,
    structural_differentials,
    tuple_bar_differential,
    tuple_codes,
    tuple_letters,
)
from cyclecoh.homology_engine import ChainComplex

from reference import p_local_homology

P212 = CyclicFamilyParams(2, 1, 2)   # v=4, u=2, t=2
P312 = CyclicFamilyParams(3, 1, 2)   # v=9, u=3, t=3
P211 = CyclicFamilyParams(2, 1, 1)   # v=2, u=2, t=1
P223 = CyclicFamilyParams(2, 2, 3)   # v=8, u=4, t=2


def code(v, *letters):
    """Position of an exponent tuple in exp_tuples: the normalised column
    of a bar map at that tuple."""
    return exp_tuples(len(letters), v).index(letters)


def bar_index(v, *tup):
    """Index of the bar basis element (e_1, ..., e_n, b)."""
    return code(v, *tup[:-1]) * v + tup[-1]


def by_tuple(col, n, v):
    """A column over the exponent tuples of length n, keyed by the tuples."""
    tuples = exp_tuples(n, v)
    return {tuples[r]: c for r, c in col.items()}


def test_crossed_product_structure():
    G = crossed_product(P212)
    # f(x^0 w_{y^1}) = g^1 and f(x^1 w_{y^0}) = g^2
    assert G.f_exp((0, 1)) == 1
    assert G.f_exp((1, 0)) == 2
    # the cocycle kicks in exactly when the y-exponents wrap
    assert G.mul((0, G.t - 1), (0, 1)) == (1, 0)
    crossed_product(P312)  # exhaustive homomorphism check at v = 9


def test_crossed_product_rejects_u_1():
    from cyclecoh.cyclic_resolution import CrossedProduct

    with pytest.raises(ValueError):
        CrossedProduct(1, 4)


def test_structural_differentials_values():
    ctx = get_context(P212)
    t = ctx.t
    # odd column differential sends y^j to y^{j+1} - y^j
    podd = ctx.partial_col(1)
    assert podd.column(0) == {1: 1, 0: -1}
    # even column differential is the norm
    peven = ctx.partial_col(2)
    assert peven.column(0) == {l: 1 for l in range(t)}
    structural_differentials(P212)
    structural_differentials(P312)


def test_contracting_homotopy_values():
    ctx = get_context(P312)
    G, t = ctx.G, ctx.t
    s0 = ctx.sigma0(0)
    for j in range(t):
        assert s0.column(j) == {G.index[(0, j)]: 1}
    sm_even = ctx.sigma_minus1(2)
    for j in range(t):
        expected = {0: 1} if j == t - 1 else {}
        assert sm_even.column(j) == expected
    contracting_homotopies(P312)
    contracting_homotopies(P212)
    contracting_homotopies(P211)


def test_rem_2_8_composites():
    for params in (P212, P312):
        ctx = get_context(params)
        G, t, v = ctx.G, ctx.t, ctx.v
        comp_even = ctx.sigma0(0) @ ctx.sigma_minus1(1) @ ctx.upsilon()  # on X_{0,2b}
        comp_odd = ctx.sigma0(0) @ ctx.sigma_minus1(2) @ ctx.upsilon()  # on X_{0,2b+1}
        for col, (i, j) in enumerate(G.elems):
            assert comp_even.column(col) == {G.index[(0, l)]: 1 for l in range(j)}
            expected = {G.index[(0, 0)]: 1} if j == t - 1 else {}
            assert comp_odd.column(col) == expected


def test_dl_closed_forms():
    for params in (P212, P312, P223):
        ctx = get_context(params)
        G = ctx.G
        w1 = G.index[(0, 0)]
        # d^2 on even columns is -w1, on odd columns 0
        d2 = ctx.dl_closed(2, 0, 2)
        assert d2.column(w1) == {w1: -1}
        assert ctx.dl_closed(2, 1, 2).column(w1) == {}
        for alpha in range(3):
            for beta in range(3, 5):
                assert ctx.dl_closed(3, alpha, beta).is_zero()


def test_dl_recursion_matches_closed_form():
    for params in (P212, P312):
        for n in range(1, 5):
            for alpha in range(n):
                beta = n - alpha
                for l in range(1, beta + 1):
                    dl_maps(params, alpha, beta, l)


def test_dl_closed_form_degenerates_at_t_1():
    # with t = 1 the odd-column d^1 vanish, so the recursive d^2 are zero,
    # and so is the closed form's; the contractibility checks certify the
    # recursion as the true value
    for params in (
        P211,
        CyclicFamilyParams(2, 2, 2),
        CyclicFamilyParams(3, 1, 1),
        CyclicFamilyParams(3, 3, 3),
        CyclicFamilyParams(2, 3, 3),
    ):
        ctx = get_context(params)
        assert params.t == 1
        for alpha in range(3):
            for beta in range(2, 5):
                assert ctx.dl(2, alpha, beta).is_zero()
                assert ctx.dl_closed(2, alpha, beta).is_zero()
        dl_agreement_suite(params)


def test_resolution_is_contractible_complex():
    for params, nmax in ((P212, 4), (P223, 4), (P312, 4), (P211, 4)):
        chain, sigma = resolution(params, nmax)
        assert chain.validate()


def test_sigma1_closed_form():
    # sigma^1 into (alpha+2, even): (-1)^(alpha+1) delta_{i,u-1} delta_{j,t-1} w1;
    # into (alpha+2, odd): (-1)^(alpha+1) delta_{i,u-1} sum_{l<j} w_{y^l}
    for params in (P212, P312):
        ctx = get_context(params)
        G, u, t = ctx.G, ctx.u, ctx.t
        for alpha in range(0, 2):
            for beta_src in (2, 3, 4):
                m = ctx.sigma_l_X(1, alpha, beta_src)
                for col, (i, j) in enumerate(G.elems):
                    if beta_src % 2 == 1:
                        # source X_{alpha, 2b+1}: lands in even column position
                        expected = {}
                        if i == u - 1 and j == t - 1:
                            expected = {G.index[(0, 0)]: (-1) ** (alpha + 1)}
                    else:
                        expected = {}
                        if i == u - 1:
                            expected = {
                                G.index[(0, l)]: (-1) ** (alpha + 1) for l in range(j)
                            }
                    assert m.column(col) == expected, (params, alpha, beta_src, i, j)
        for l in (2, 3):
            for alpha in range(0, 2):
                for beta_src in range(l, 5):
                    assert ctx.sigma_l_X(l, alpha, beta_src).is_zero()


def test_sigma_l_Y_vanishing():
    for params in (P212, P312):
        ctx = get_context(params)
        t = ctx.t
        for l in (1, 2, 3):
            for beta in range(l, 5):
                m = ctx.sigma_l_Y(l, beta)
                if beta % 2 == 0:
                    assert m.column(0) == {}
                else:
                    for k in range(t - 1):
                        assert m.column(k) == {}


def test_comparison_maps_identities():
    for params in (P212, P312, P211):
        comparison_maps(params, 3)


def test_sigma_bar_kills_generator_columns():
    # the key vanishing behind the retraction identity; it degenerates at
    # t = 1, where only a homotopy equivalence survives
    for params in (P212, P312, P223):
        ctx = get_context(params)
        chain, sigma = ctx.resolution(4)
        for n in range(1, 4):
            for bj, pos in enumerate(ctx.cells(n)):
                assert sigma[n + 1].column(bj * ctx.v) == {}, (params, n, pos)
    for params in (P211, CyclicFamilyParams(2, 2, 2)):
        ctx = get_context(params)
        chain, sigma = ctx.resolution(4)
        nonzero = sum(
            1
            for n in range(1, 4)
            for bj in range(n + 1)
            if sigma[n + 1].column(bj * ctx.v)
        )
        assert nonzero > 0


def test_phi_closed_forms():
    for params in (P212, P312):
        ctx = get_context(params)
        G, u, t, v = ctx.G, ctx.u, ctx.t, ctx.v
        ident = G.index[G.identity]
        w_y = G.index[(0, 1 % t)]
        xw = G.index[(1, 0)]
        # one normalised column (the value on w_1) per cell
        phi1 = ctx.phi(1)
        # on X_{0,1}: w_y tensor w_1; on X_{1,0}: -x w_1 tensor w_1
        assert phi1.column(0) == {bar_index(v, w_y, ident): 1}
        assert phi1.column(1) == {bar_index(v, xw, ident): -1}
        phi2 = ctx.phi(2)
        col = phi2.column(0)  # X_{0,2}
        expected = {}
        for h in range(1, t):
            expected[bar_index(v, w_y, G.index[(0, h)], ident)] = -1
        assert col == expected
        col = phi2.column(1)  # X_{1,1}
        assert col == {
            bar_index(v, w_y, xw, ident): 1,
            bar_index(v, xw, w_y, ident): -1,
        }
        col = phi2.column(2)  # X_{2,0}
        expected = {bar_index(v, xw, G.index[(h, 0)], ident): -1 for h in range(1, u)}
        assert col == expected


def test_varphi_closed_forms():
    for params in (P212, P312):
        ctx = get_context(params)
        G, v = ctx.G, ctx.v
        varphi1 = ctx.varphi(1)  # normalised columns, one per exponent tuple
        for (i, j) in G.elems:
            if (i, j) == G.identity:
                continue
            col = varphi1.column(code(v, G.index[(i, j)]))
            expected = {}
            for h in range(j):  # component in X_{0,1}: sum_{h<j} w_{y^h}
                expected[0 * v + G.index[(0, h)]] = 1
            for h in range(i):  # component in X_{1,0}: -sum_{h<i} x^h w_{y^j}
                expected[1 * v + G.index[(h, j)]] = -1
            assert col == expected, (params, i, j)


def test_omega2_closed_form():
    for params in (P212, P312):
        ctx = get_context(params)
        G, v, t = ctx.G, ctx.v, ctx.t
        ident = G.index[G.identity]
        w_y = G.index[(0, 1 % t)]
        xw = G.index[(1, 0)]
        omega2 = ctx.omega(2)  # normalised columns, one per exponent tuple
        for (i, j) in G.elems:
            if (i, j) == G.identity:
                continue
            col = omega2.column(code(v, G.index[(i, j)]))
            expected = {}
            for h in range(i):
                if (h, j) == G.identity:
                    continue  # the normalized basis drops identity slots
                key = bar_index(v, xw, G.index[(h, j)], ident)
                expected[key] = expected.get(key, 0) + 1
            for h in range(1, j):
                key = bar_index(v, w_y, G.index[(0, h)], ident)
                expected[key] = expected.get(key, 0) + 1
            assert col == {k: c for k, c in expected.items() if c}, (params, i, j)


def test_comparison_cap():
    with pytest.raises(ValueError):
        comparison_maps(P212, 4)
    with pytest.raises(ValueError):
        resolution(P212, 6)


# ---------------------------------------------------------------------------
# coefficient complexes
# ---------------------------------------------------------------------------


def test_pepito_scalars():
    # u on even rows, +-t on even columns, -1 on even d^2 positions
    assert pepito_scalar(0, 2, 1, 4, 2) == 4
    assert pepito_scalar(0, 1, 1, 4, 2) == 0
    assert pepito_scalar(1, 0, 2, 4, 2) == -2
    assert pepito_scalar(1, 1, 2, 4, 2) == 2
    assert pepito_scalar(1, 0, 1, 4, 2) == 0
    assert pepito_scalar(2, 0, 2, 4, 2) == -1
    assert pepito_scalar(2, 1, 2, 4, 2) == 0
    # at t = 1 the resolution's d^2 is zero
    assert pepito_scalar(2, 0, 2, 2, 1) == 0
    assert pepito_scalar(3, 0, 3, 4, 2) == 0


def trivial_module(rank=1):
    return PresentedModule.free(rank)


def bar_diff(cc, n):
    """The differential bar_n(M) -> bar_{n-1}(M), tuples outer."""
    return tuple_bar_differential(n, cc.v).kron(IntegerMatrix.identity(cc.M.ngens))


def bar_module(cc, n):
    """bar_n(M) presented on the basis (exp tuple, generator of M),
    tuples outer: (v-1)^n copies of M's relations."""
    relations = IntegerMatrix.identity((cc.v - 1) ** n).kron(cc.M.relations)
    return PresentedModule(cc.bar_rank(n), relations)


def test_coefficient_complex_matches_bar_homology():
    # group homology of Z/v with trivial integer coefficients in low
    # degrees, for every family member with v <= 9
    for params in (
        P212, P312, P223, P211,
        CyclicFamilyParams(3, 1, 1),
        CyclicFamilyParams(2, 2, 2),
        CyclicFamilyParams(2, 3, 3),
        CyclicFamilyParams(3, 2, 2),
    ):
        cc = coefficient_complex(params, trivial_module(), 3)
        assert cc.chain.validate()
        bar_chain = ChainComplex(
            {n: bar_module(cc, n) for n in range(4)},
            {n: bar_diff(cc, n) for n in range(1, 4)},
        )
        assert bar_chain.validate()
        # H_0 = Z, H_1 = Z/v, H_2 = 0, read at a power of p above v
        p, K = params.p, params.eta + 1
        for chain in (cc.chain, bar_chain):
            assert p_local_homology(chain, 0, p, K) == (1, [])
            assert p_local_homology(chain, 1, p, K) == (0, [params.v])
            assert p_local_homology(chain, 2, p, K) == (0, [])


def test_induced_maps_form_an_sdr():
    # t >= 2: a genuine SDR; at t = 1 the retraction identity degenerates
    # (see the t = 1 branch below) but everything else survives.  Built
    # one degree higher, as varphibar stops below n_max.
    for params in (P212, P312, P211):
        cc = coefficient_complex(params, trivial_module(), 4)
        if params.t >= 2:
            for n in range(4):
                pi = cc.varphibar[n] @ cc.phibar[n]
                assert pi == IntegerMatrix.identity(cc.chain.rank(n)), (params, n)
        for n in range(1, 4):
            assert bar_diff(cc, n) @ cc.phibar[n] == cc.phibar[n - 1] @ cc.chain.diff[n]
            assert cc.chain.diff[n] @ cc.varphibar[n] == cc.varphibar[n - 1] @ bar_diff(cc, n)
        for n in range(0, 3):
            lhs = bar_diff(cc, n + 1) @ cc.omegabar[n + 1]
            if n >= 1:
                lhs = lhs + cc.omegabar[n] @ bar_diff(cc, n)
            rhs = cc.phibar[n] @ cc.varphibar[n] - IntegerMatrix.identity(cc.bar_rank(n))
            assert lhs == rhs, (params, n)
        assert cc.omegabar[1].is_zero()
        for n in range(1, 4):
            assert (cc.varphibar[n] @ cc.omegabar[n]).is_zero()
            assert (cc.omegabar[n] @ cc.phibar[n - 1]).is_zero()
            if n + 1 <= 3:
                assert (cc.omegabar[n + 1] @ cc.omegabar[n]).is_zero()


def test_induced_closed_forms():
    # varphi-bar on degree 1: g^{t i + j} -> j on the (0,1) block, -i on (1,0)
    for params in (P212, P312):
        ctx = get_context(params)
        t, v = params.t, params.v
        # rows: the cells (0,1), (1,0); columns: the exponent tuples
        bv = ctx.breve_varphi(1)
        for a in range(1, v):
            i, j = divmod(a, t)
            assert bv.entry(0, code(v, a)) == j
            assert bv.entry(1, code(v, a)) == -i
        # phi-bar vectors: g on (0,1); -g^t on (1,0); and degree 2 forms on
        # the cells (0,2), (1,1), (2,0)
        bp1, bp2 = ctx.breve_phi(1), ctx.breve_phi(2)
        assert by_tuple(bp1.column(0), 1, v) == {(1 % v,): 1}
        assert by_tuple(bp1.column(1), 1, v) == {(t % v,): -1}
        assert by_tuple(bp2.column(0), 2, v) == {(1, l): -1 for l in range(1, t)}
        assert by_tuple(bp2.column(1), 2, v) == {(1, t): 1, (t, 1): -1}
        assert by_tuple(bp2.column(2), 2, v) == {(t, (t * l) % v): -1 for l in range(1, params.u)}


def test_induced_omega2_closed_form():
    # omega-bar_2 sends g^{ti+j} to sum_{l<i} g^t x g^{tl+j} + sum_{1<=l<j} g x g^l
    for params in (P212, P312, P223):
        ctx = get_context(params)
        t, v = params.t, params.v
        om = ctx.breve_omega(2)
        for a in range(1, v):
            i, j = divmod(a, t)
            expected = {}
            for l in range(i):
                key = (t, (t * l + j) % v)
                if all(x % v for x in key):
                    expected[key] = expected.get(key, 0) + 1
            for l in range(1, j):
                expected[(1, l)] = expected.get((1, l), 0) + 1
            expected = {k: c for k, c in expected.items() if c}
            assert by_tuple(om.column(code(v, a)), 2, v) == expected, (params, a)


def test_tuple_letters_are_exp_tuples_by_code():
    for v in (2, 3, 5):
        for n in range(4):
            letters = tuple_letters(n, v)
            assert letters.tolist() == [list(t) for t in exp_tuples(n, v)]
            assert tuple_codes(letters, v).tolist() == list(range((v - 1) ** n))
            picked = [(v - 1) ** n - 1, 0]
            assert tuple_letters(n, v, picked).tolist() == letters[picked].tolist()
