import itertools
import random

import numpy as np
import pytest

from cyclecoh import lcs_cohomology, modular
from cyclecoh.abelian import FinAbGroup, IntegerMatrix, _dedupe_rows, smith_normal_form
from cyclecoh.cycleset import CyclicFamilyParams
from cyclecoh.lcs_cohomology import cohomology


def _valuation(n, p):
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def _span(vectors, orders, p, m):
    """The subgroup of (Z/m)^n generated by vectors of orders p^orders."""
    n = len(vectors[0]) if len(vectors) else 0
    span = {(0,) * n}
    for vec, e in zip(vectors, orders):
        span = {
            tuple((x + i * int(y)) % m for x, y in zip(base, vec))
            for base in span
            for i in range(p**e)
        }
    return span


def _random_matrix(rng, p, k, rows, cols, unit_free):
    m = p**k
    density = rng.uniform(0.2, 1.0)
    A = np.zeros((rows, cols), dtype=np.int64)
    for i in range(rows):
        for j in range(cols):
            if rng.random() < density:
                A[i, j] = rng.randrange(-m, m) * (p if unit_free else 1)
    return A


def _cases():
    """Seeded small matrices over Z/p^k with p in {2, 3}, k <= 3, up to 7x4,
    kept to ambient groups (Z/p^k)^cols small enough to enumerate."""
    rng = random.Random(20210205)
    for p, k in itertools.product((2, 3), (1, 2, 3)):
        for rows, cols in itertools.product(range(8), range(5)):
            if (p**k) ** cols > 20000:
                continue
            yield p, k, np.zeros((rows, cols), dtype=np.int64)
            if rows and cols:
                for unit_free in (False, False, False, True, True):
                    yield p, k, _random_matrix(rng, p, k, rows, cols, unit_free)


def test_kernel_against_enumeration_oracle():
    seen = {"cases": 0, "unit_free_nonzero": 0}
    for p, k, A in _cases():
        m = p**k
        rows, cols = A.shape
        kd = modular.kernel_mod_pk(A, p, k)
        assert kd.gens.shape == (len(kd.orders), cols)
        assert not ((A @ kd.gens.T) % m).any()
        ambient = np.array(list(itertools.product(range(m), repeat=cols)), dtype=np.int64)
        if rows:
            ambient = ambient[~((ambient @ A.T) % m).any(axis=1)]
        assert int(np.prod([p**e for e in kd.orders])) == len(ambient)
        assert len(_span(kd.gens, kd.orders, p, m)) == len(ambient)
        # the exponents are the local Smith invariants of A over Z
        if rows and cols:
            diag = smith_normal_form(IntegerMatrix.from_rows(A.tolist(), cols)).diagonal()
            exps = sorted(min(_valuation(d, p), k) if d else k for d in diag)
            assert modular.local_smith(A, p, k)[0] == exps
        seen["cases"] += 1
        if A.any() and not (A % p).any():
            seen["unit_free_nonzero"] += 1
    assert seen["cases"] > 1000
    assert seen["unit_free_nonzero"] > 300


def test_kernel_of_empty_and_zero_shapes():
    for shape in ((0, 0), (3, 0), (0, 3), (4, 3)):
        kd = modular.kernel_mod_pk(np.zeros(shape, dtype=np.int64), 2, 3)
        assert kd.gens.shape == (shape[1], shape[1])
        assert kd.orders == [3] * shape[1]


def test_truncated_kernel_matches_direct_elimination():
    rng = random.Random(7)
    for p, K in ((2, 3), (3, 3), (2, 2)):
        for _ in range(60):
            rows, cols = rng.randint(0, 7), rng.randint(1, 3)
            A = _random_matrix(rng, p, K, rows, cols, rng.random() < 0.3)
            top = modular.kernel_mod_pk(A, p, K)
            for k in range(1, K + 1):
                m = p**k
                cut = top.truncate(k)
                direct = modular.kernel_mod_pk(A, p, k)
                assert cut.k == k and cut.col_exps == direct.col_exps
                assert cut.orders == direct.orders
                assert _span(cut.gens, cut.orders, p, m) == _span(direct.gens, direct.orders, p, m)
                assert ((cut.V @ cut.Vinv) % m == np.eye(cols, dtype=np.int64)).all()


@pytest.mark.parametrize("params, p, k", [
    (CyclicFamilyParams(2, 1, 2), 2, 3),
    (CyclicFamilyParams(3, 1, 2), 3, 2),
])
def test_smith_identities_on_full_condition_matrix(params, p, k):
    chain = lcs_cohomology._full_slice(params).total
    A = _dedupe_rows(chain.modules[2].relations.vstack(chain.diff[3].transpose()))
    m = p**k
    Amod = A.to_numpy_mod(m)
    exps, V, Vinv = modular.local_smith(Amod, p, k)
    assert (Amod == A.to_numpy_mod(m)).all()  # the input is only read
    assert exps == sorted(exps) and len(exps) == min(Amod.shape)
    assert ((V @ Vinv) % m == np.eye(A.cols, dtype=np.int64)).all()
    AV = (Amod @ V) % m
    for i in range(A.cols):
        e = exps[i] if i < len(exps) else k
        assert not (AV[:, i] % p**e).any(), i


def test_one_kernel_elimination_per_prime(monkeypatch):
    calls = {"kernel": 0, "smith": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(modular, "kernel_mod_pk", counted("kernel", modular.kernel_mod_pk))
    monkeypatch.setattr(modular, "local_smith", counted("smith", modular.local_smith))
    lcs_cohomology._full_slice.cache_clear()
    params = CyclicFamilyParams(2, 1, 2)
    gamma = FinAbGroup((2, 8))
    group = cohomology(params, gamma, 2, "full").group
    # Z/2 and Z/8 share one elimination at 2^3 for the cocycle conditions
    # and one for the relations of the next module; one quotient per factor
    assert calls == {"kernel": 2, "smith": 4}
    assert group == cohomology(params, gamma, 2, "closed").group


def test_solve_against_enumeration():
    rng = random.Random(11)
    solvable = 0
    for _ in range(300):
        p, k = rng.choice((2, 3)), rng.randint(1, 2)
        m = p**k
        rows, cols = rng.randint(1, 4), rng.randint(1, 3)
        A = _random_matrix(rng, p, k, rows, cols, rng.random() < 0.3)
        b = np.array([rng.randrange(m) for _ in range(rows)], dtype=np.int64)
        x = modular.solve_mod_pk(A, b, p, k)
        exists = any(
            not ((A @ np.array(y) - b) % m).any()
            for y in itertools.product(range(m), repeat=cols)
        )
        assert (x is not None) == exists
        if exists:
            solvable += 1
            assert not ((A @ x - b) % m).any()
    assert 0 < solvable < 300


def test_modulus_cap_is_a_resource_limit():
    with pytest.raises(modular.ResourceLimitError):
        modular.local_smith(np.ones((1, 1), dtype=np.int64), 2, 15)
    assert issubclass(modular.ResourceLimitError, ValueError)
