"""The sampled elimination of `abelian.cocycle_kernels` against the
one-shot `modular.kernel_mod_pk` of the whole condition matrix.

A sample's kernel, certified against every row and eliminated once more
with the rows that fail, must be the kernel of the whole matrix: the
same orders, and each set of generators inside the other's kernel."""

import numpy as np
import pytest

from cyclecoh import abelian, lcs_cohomology, modular
from cyclecoh.abelian import FinAbGroup, IntegerMatrix, RowBlocks
from cyclecoh.cycleset import CyclicFamilyParams, family_members


def assert_same_kernel(A, kd, p, k):
    """kd is the kernel of A over Z/p^k, as the one-shot elimination has it."""
    m = p**k
    one = modular.kernel_mod_pk(A, p, k)
    assert sorted(kd.orders) == sorted(one.orders)
    # kd's generators vanish under A, by an exact product
    if len(kd.gens):
        gens = IntegerMatrix.from_rows(kd.gens.T.tolist(), len(kd.gens))
        assert not ((A @ gens).values % m).any()
    # and the one-shot generators lie in kd's kernel (kernel_coordinates
    # refuses a vector outside it)
    modular.kernel_coordinates(kd, one.gens)
    modular.kernel_coordinates(one, kd.gens)


def sampled_kernel(rows, size, p, k, monkeypatch):
    """The certified kernel from a sample of `size` rows, with the kernel
    order (its log_p) of each elimination and the rows the certification
    read."""
    seen = {"eliminations": [], "certified": 0}
    kernel, off = modular.kernel_mod_pk, modular.rows_off_kernel

    def counted_kernel(*args):
        kd = kernel(*args)
        seen["eliminations"].append(sum(kd.orders))
        return kd

    def counted_off(r, *args):
        seen["certified"] += len(np.unique(r))
        return off(r, *args)

    monkeypatch.setattr(modular, "kernel_mod_pk", counted_kernel)
    monkeypatch.setattr(modular, "rows_off_kernel", counted_off)
    sample, complete = abelian._row_sample(rows, size)
    kd = abelian._certified_kernel(rows, sample, complete, p, k)
    monkeypatch.undo()
    return kd, seen, complete


# every row; a single row; half the columns, short of the rank
SAMPLES = ("all", "one", "deficient")


def sample_size(rows, which):
    return {"all": rows.rows, "one": 1, "deficient": rows.cols // 2}[which]


@pytest.mark.parametrize("member", family_members(16), ids=lambda m: f"{m.p}-{m.nu}-{m.eta}")
def test_sampled_kernels_of_the_full_conditions_match_one_shot(member, monkeypatch):
    chain = lcs_cohomology._full_slice(member)
    reeliminated = 0
    for n in (1, 2):
        rows = chain.cocycle_rows(n)
        A = rows.matrix()
        for p, k in ((2, 3), (member.p, 2)):
            for which in SAMPLES:
                kd, seen, complete = sampled_kernel(rows, sample_size(rows, which), p, k, monkeypatch)
                assert_same_kernel(A, kd, p, k)
                assert_one_reelimination_when_short(A, seen, complete)
                reeliminated += len(seen["eliminations"]) == 2
    assert reeliminated >= (2 if member.v > 2 else 0)


def assert_one_reelimination_when_short(A, seen, complete):
    """One elimination when the sample's kernel is A's; else a second one,
    after a certification that read every row with an entry."""
    first, *rest = seen["eliminations"]
    if complete:
        assert not rest and not seen["certified"]
    elif rest:
        assert len(rest) == 1 and rest[0] < first
        assert seen["certified"] == len(np.unique(A.row_idx))


def random_rows(rng, m):
    """A seeded sparse matrix over Z/m given as random row blocks, its rows
    drawn from a few basic rows so that a sample can miss the rank."""
    cols = int(rng.integers(1, 25))
    basis = rng.integers(-m, m, size=(int(rng.integers(1, cols + 3)), cols))
    basis[rng.random(basis.shape) < 0.6] = 0
    mix = rng.integers(-2, 3, size=(int(rng.integers(3 * cols + 1, 6 * cols + 20)), len(basis)))
    mix[rng.random(mix.shape) < 0.7] = 0
    A = IntegerMatrix.from_rows((mix @ basis).tolist(), cols)
    cuts = np.sort(rng.choice(np.arange(1, A.rows), size=min(3, A.rows - 1), replace=False))
    bounds = [0, *cuts.tolist(), A.rows]
    blocks = [A.row_slice(a, b) for a, b in zip(bounds, bounds[1:])]
    return A, RowBlocks(A.rows, cols, lambda: iter(blocks))


@pytest.mark.parametrize("p, k", [(2, 1), (2, 3), (3, 2), (5, 1), (7, 2)])
def test_sampled_kernels_of_random_matrices_match_one_shot(p, k, monkeypatch):
    rng = np.random.default_rng(1000 * p + k)
    reeliminated = 0
    for _ in range(12):
        A, rows = random_rows(rng, p**k)
        assert rows.matrix() == A
        for which in SAMPLES:
            kd, seen, complete = sampled_kernel(rows, sample_size(rows, which), p, k, monkeypatch)
            assert_same_kernel(A, kd, p, k)
            assert_one_reelimination_when_short(A, seen, complete)
            reeliminated += len(seen["eliminations"]) == 2
    assert reeliminated > 10


def test_cocycle_kernels_eliminate_a_sample_of_three_rows_per_column(monkeypatch):
    # full (2,2,4): 10350 condition rows over 450 columns; the sample is
    # 1350 rows, which reach the rank, so one elimination serves Z/2 and Z/8
    shapes = []
    kernel = modular.kernel_mod_pk

    def recorded(A, p, k):
        shapes.append(A.shape)
        return kernel(A, p, k)

    monkeypatch.setattr(modular, "kernel_mod_pk", recorded)
    params = CyclicFamilyParams(2, 2, 4)
    rows = lcs_cohomology._full_slice(params).cocycle_rows(2)
    assert (rows.rows, rows.cols) == (10350, 450)
    orders = abelian.cocycle_kernels(rows, FinAbGroup((2, 8)), lambda coord, kd: sorted(kd.orders))
    assert shapes == [(3 * 450, 450)]
    assert orders == [sorted(kernel(rows.matrix(), 2, k).orders) for k in (1, 3)]


def test_the_sample_is_the_same_on_every_call():
    # drawn by a seeded random.Random, and every row when there are no more
    A = IntegerMatrix.from_rows([[i % 7 + 1, i % 5] for i in range(1000)], 2)
    rows = RowBlocks.of(A)
    first, complete = abelian._row_sample(rows, 30)
    assert not complete and first.rows == 30
    assert abelian._row_sample(rows, 30)[0] == first
    assert abelian._row_sample(rows, 1000) == (A, True)


def test_rows_off_kernel_matches_a_dense_product():
    rng = np.random.default_rng(7)
    for m in (2, 8, 9, 31, 32749):
        for _ in range(10):
            rows, cols, s = (int(x) for x in rng.integers(1, 40, size=3))
            D = rng.integers(-3 * m, 3 * m, size=(rows, cols))
            D[rng.random(D.shape) < 0.5] = 0
            if rng.random() < 0.3:
                D[0] = rng.integers(1, m, size=cols)  # one wide row
            gens = rng.integers(0, m, size=(s, cols))
            gens[:, rng.random(cols) < 0.5] = 0
            A = IntegerMatrix.from_rows(D.tolist(), cols)
            expected = np.flatnonzero((D.astype(object) @ gens.T.astype(object) % m != 0).any(axis=1))
            got = modular.rows_off_kernel(A.row_idx, A.col_idx, A.values, gens, m)
            assert got.tolist() == expected.tolist(), (m, rows, cols, s)
        # sums at the packing's bound: a row of w entries m - 1 against
        # generators of entries m - 1 sums to w (m - 1)^2, = w mod m, which
        # needs every bit of its slot
        for w in (m - 1, m, m + 1):
            A = IntegerMatrix.from_rows([[m - 1] * w, [1] + [0] * (w - 1)], w)
            gens = np.full((70, w), m - 1)
            got = modular.rows_off_kernel(A.row_idx, A.col_idx, A.values, gens, m)
            assert got.tolist() == ([0, 1] if w % m else [1]), (m, w)


def test_rows_at_and_stacked_rebuild_the_matrix():
    rng = np.random.default_rng(3)
    D = rng.integers(-2, 3, size=(30, 6))
    D[rng.random(D.shape) < 0.5] = 0
    A = IntegerMatrix.from_rows(D.tolist(), 6)
    picked = np.array([0, 3, 4, 17, 29])
    assert A.rows_at(picked) == IntegerMatrix.from_rows(D[picked].tolist(), 6)
    assert A.rows_at(np.zeros(0, dtype=np.int64)) == IntegerMatrix.zero(0, 6)
    parts = [A.row_slice(0, 7), A.row_slice(7, 7), A.row_slice(7, 30)]
    assert IntegerMatrix.stacked(parts, 6) == A
    assert IntegerMatrix.stacked([], 6) == IntegerMatrix.zero(0, 6)
    with pytest.raises(ValueError, match="column mismatch"):
        IntegerMatrix.stacked([A, IntegerMatrix.zero(1, 5)], 6)


def test_the_full_route_forms_no_x3_relations_and_no_whole_condition_matrix(monkeypatch):
    # full (2,2,4): X_3 has 10125 generators and its relations as many
    # rows; the condition matrix has 10350 rows.  A fresh H^2 job forms
    # no matrix with as many rows or columns as X_3 has generators.
    params = CyclicFamilyParams(2, 2, 4)
    shapes = set()
    original = IntegerMatrix._set

    def recording_set(self, rows, cols, *arrays):
        shapes.add((rows, cols))
        original(self, rows, cols, *arrays)

    lcs_cohomology._full_slice.cache_clear()
    monkeypatch.setattr(IntegerMatrix, "_set", recording_set)
    group = lcs_cohomology.cohomology(params, FinAbGroup((2, 8)), 2, "full").group
    monkeypatch.undo()
    lcs_cohomology._full_slice.cache_clear()
    assert group == lcs_cohomology.cohomology(params, FinAbGroup((2, 8)), 2, "closed").group
    x3 = 3 * 15**3
    assert shapes and max(max(shape) for shape in shapes) < x3, sorted(shapes)[-3:]
