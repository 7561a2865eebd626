"""Reference computations that the tests compare the package against.

They use the package's matrix type and its one elimination engine,
`modular.local_smith`, but none of the code under test's shortcuts.
"""

from cyclecoh.abelian import IntegerMatrix, PresentedModule
from cyclecoh.homology_engine import ChainComplex
from cyclecoh.modular import local_smith


def columns(M):
    """The entries of M grouped by column: a list of dicts row -> value."""
    cols = [dict() for _ in range(M.cols)]
    for r, c, v in zip(M.row_idx.tolist(), M.col_idx.tolist(), M.values.tolist()):
        cols[c][r] = v
    return cols


def p_local_homology(chain, n, p, K):
    """H_n of a complex of free modules, read p-locally: (free rank,
    ascending orders of its cyclic p-primary summands).

    The rational ranks of d_n and d_{n+1} count the exponents of
    `local_smith` at p^K below K, so K must exceed the p-valuation of
    every nonzero invariant factor of both.  H_n's torsion is that of
    the cokernel of d_{n+1}, whose p-part the same exponents give.
    Asserts that H_n has no q-torsion for each prime q <= 13 other than
    p: d_{n+1} keeps its rational rank modulo q."""

    def diff(k):
        return chain.diff.get(k, IntegerMatrix.zero(chain.rank(k - 1), chain.rank(k)))

    exps_n, exps_up = (local_smith(diff(k), p, K)[0] for k in (n, n + 1))
    rank_n = sum(e < K for e in exps_n)
    rank_up = sum(e < K for e in exps_up)
    for q in (2, 3, 5, 7, 11, 13):
        if q != p:
            assert local_smith(diff(n + 1), q, 1)[0].count(0) == rank_up, f"{q}-torsion in H_{n}"
    torsion = [p**e for e in exps_up if 0 < e < K]
    return chain.rank(n) - rank_n - rank_up, torsion


def spot(d_in, d_out=None, relations=None):
    """d_in: X_2 -> X_1 and d_out: X_1 -> X_0 (no X_0 when None) as a chain
    complex, X_1 presented by `relations` (free when None) and X_0, X_2
    free, so that H^1 of Hom(-, G) is taken at the spot between them."""
    modules = {
        1: PresentedModule.free(d_in.rows) if relations is None else PresentedModule(d_in.rows, relations),
        2: PresentedModule.free(d_in.cols),
    }
    diff = {2: d_in}
    if d_out is not None:
        modules[0] = PresentedModule.free(d_out.rows)
        diff[1] = d_out
    return ChainComplex(modules, diff)
