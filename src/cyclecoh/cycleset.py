"""Finite linear cycle sets on Z/vZ, the cyclic family, and derived
set-theoretic Yang-Baxter solutions.

A cycle set is a binary operation with bijective left translations
satisfying (a.b).(a.c) = (b.a).(b.c); a linear cycle set additionally
lives on an abelian group and distributes as
a.(b+c) = a.b + a.c  and  (a+b).c = (a.b).(a.c).

The family of interest is Z/vZ with i.j = (1 - u*i)*j for v = p^eta,
u = p^nu.  Everything here is tables plus exhaustive checks; carriers
stay small.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .modular import factorize


class ParameterDomainError(ValueError):
    """A (p, nu, eta) triple outside the admissible parameter domain."""


@dataclass(frozen=True)
class CyclicFamilyParams:
    """Parameters p prime, 0 < nu <= eta <= 2*nu.

    Derived quantities: u = p^nu, v = p^eta (the carrier size),
    t = p^(eta-nu) and u2 = p^(2*nu-eta), so that u * t = v and
    u2 * t = u.
    """

    p: int
    nu: int
    eta: int

    def __post_init__(self):
        if factorize(self.p) != [(self.p, 1)]:
            raise ParameterDomainError(f"p = {self.p} is not prime")
        if not (0 < self.nu <= self.eta <= 2 * self.nu):
            raise ParameterDomainError(
                f"require 0 < nu <= eta <= 2*nu, got nu={self.nu}, eta={self.eta}"
            )

    @property
    def u(self):
        return self.p**self.nu

    @property
    def v(self):
        return self.p**self.eta

    @property
    def t(self):
        return self.p ** (self.eta - self.nu)

    @property
    def u2(self):
        return self.p ** (2 * self.nu - self.eta)

    def __str__(self):
        return f"(p={self.p}, nu={self.nu}, eta={self.eta}; v={self.v}, u={self.u}, t={self.t})"


@dataclass(frozen=True)
class Verdict:
    ok: bool
    axiom: str = None
    witness: tuple = None

    def __bool__(self):
        return self.ok

    def __str__(self):
        if self.ok:
            return "pass"
        return f"fail [{self.axiom}] at {self.witness}"


@dataclass(frozen=True)
class LinearCycleSet:
    """Carrier Z/vZ with addition mod v and the dot table dot[i][j] = i.j."""

    v: int
    dot: tuple

    def __post_init__(self):
        if len(self.dot) != self.v or any(len(row) != self.v for row in self.dot):
            raise ValueError("dot table must be v x v")
        object.__setattr__(self, "dot", tuple(tuple(row) for row in self.dot))

    @classmethod
    def trivial(cls, v):
        return cls(v, tuple(tuple(range(v)) for _ in range(v)))


def make_cyclic_lcs(params):
    """The linear cycle set (Z/vZ, i.j = (1 - u*i)*j mod v)."""
    v, u = params.v, params.u
    dot = tuple(
        tuple(((1 - u * i) * j) % v for j in range(v)) for i in range(v)
    )
    return LinearCycleSet(v, dot)


def first_failure(mask):
    """Index of the first true entry of a boolean array in C order, as a
    tuple of Python ints, or None when every entry is false."""
    if not mask.size:
        return None
    k = int(np.argmax(mask))
    if not mask.flat[k]:
        return None
    return tuple(int(i) for i in np.unravel_index(k, mask.shape))


def check_left_translations(n, dot):
    """Every left translation b -> a.b is a bijection: each row of the
    n x n dot table is a permutation of range(n); names the first row
    that is not."""
    # an int32 copy holds every entry of a table on range(n), and sorting
    # it in place makes no second n x n array: 0.5 ms at n = 512, against
    # 1.3 ms for np.sort of the int64 table
    rows = np.array(dot, dtype=np.int32)
    rows.sort(axis=1)
    hit = first_failure((rows != np.arange(n, dtype=np.int32)).any(axis=1))
    return Verdict(False, "left-translation-bijective", hit) if hit else Verdict(True)


def check_cycle_set_table(n, dot):
    """Cycle-set axioms for a dot table on range(n).

    dot is an n x n table (nested sequences or an array); returns a
    Verdict naming the first failed axiom with a witness, the first in
    (a, b, c) loop order.  The cubic axiom runs as one n x n block over
    (b, c) per a.  Used both for carriers Z/vZ and for extension
    carriers Gamma x Z/vZ.
    """
    dot = np.asarray(dot)
    verdict = check_left_translations(n, dot)
    if not verdict:
        return verdict
    # entry (i, j) of a table sits at i * n + j of the flat one
    flat, scaled = dot.ravel(), dot * n
    for a in range(n):
        da = dot[a]
        # dot[a.b][a.c] against dot[b.a][b.c], rows b, columns c
        failing = flat.take(da[:, None] * n + da) != flat.take(scaled[:, a][:, None] + dot)
        if failing.any():
            return Verdict(False, "cycle-set", (a, *first_failure(failing)))
    return Verdict(True)


def check_linearity_table(n, add, dot):
    """The two distributivity axioms of a linear cycle set, one n x n
    block over (b, c) per a; the first failure in (a, b, c) order, and
    at that triple left distributivity before the twisted one."""
    add, dot = np.asarray(add), np.asarray(dot)
    # entry (i, j) of a table sits at i * n + j of the flat one
    flat_add, flat_dot = add.ravel(), dot.ravel()
    for a in range(n):
        da = dot[a]
        at = da[:, None] * n + da  # (a.b, a.c)
        left = da.take(add) != flat_add.take(at)
        twisted = dot[add[a]] != flat_dot.take(at)
        if left.any() or twisted.any():
            b, c, which = first_failure(np.stack([left, twisted], axis=-1))
            axiom = "twisted-right-distributive" if which else "left-distributive"
            return Verdict(False, axiom, (a, b, c))
    return Verdict(True)


def _mod_add_table(v):
    return tuple(tuple((i + j) % v for j in range(v)) for i in range(v))


def verify_cycle_set(cs):
    return check_cycle_set_table(cs.v, cs.dot)


def verify_linear(lcs):
    return check_linearity_table(lcs.v, _mod_add_table(lcs.v), lcs.dot)


def invariant_elements(lcs):
    """{j : i.j = j for all i}; multiples of t for the cyclic family."""
    v = lcs.v
    return sorted(j for j in range(v) if all(lcs.dot[i][j] == j for i in range(v)))


@dataclass(frozen=True)
class YbeMap:
    """A map r on pairs, r(x, y) = table[x][y]."""

    v: int
    table: tuple

    def r(self, x, y):
        return self.table[x][y]


def derived_ybe_solution(lcs):
    """The Yang-Baxter solution r(x, y) = (s, s.x) with s = sigma_x^{-1}(y).

    Here sigma_x(y) = x.y.  Requires the squaring map a -> a.a to be
    bijective (non-degeneracy of the cycle set); the output is verified
    to be involutive, non-degenerate and braid-satisfying.
    """
    v = lcs.v
    squares = [lcs.dot[a][a] for a in range(v)]
    if sorted(squares) != list(range(v)):
        raise ValueError("degenerate cycle set: squaring map is not bijective")
    inv = []
    for x in range(v):
        row = lcs.dot[x]
        iv = [0] * v
        for y in range(v):
            iv[row[y]] = y
        inv.append(iv)
    table = tuple(
        tuple((inv[x][y], lcs.dot[inv[x][y]][x]) for y in range(v)) for x in range(v)
    )
    sol = YbeMap(v, table)
    verdict = verify_ybe(sol)
    if not verdict:
        raise AssertionError(f"derived map fails YBE checks: {verdict}")
    return sol


def verify_ybe(sol):
    """Involutivity, non-degeneracy and the braid relation, exhaustively."""
    v = sol.v
    rng = range(v)
    for x in rng:
        for y in rng:
            a, b = sol.r(x, y)
            if sol.r(a, b) != (x, y):
                return Verdict(False, "involutive", (x, y))
    for x in rng:
        if sorted(sol.r(x, y)[0] for y in rng) != list(rng):
            return Verdict(False, "non-degenerate-left", (x,))
    for y in rng:
        if sorted(sol.r(x, y)[1] for x in rng) != list(rng):
            return Verdict(False, "non-degenerate-right", (y,))

    def r12(t):
        a, b = sol.r(t[0], t[1])
        return (a, b, t[2])

    def r23(t):
        a, b = sol.r(t[1], t[2])
        return (t[0], a, b)

    for x in rng:
        for y in rng:
            for z in rng:
                t = (x, y, z)
                lhs = r12(r23(r12(t)))
                rhs = r23(r12(r23(t)))
                if lhs != rhs:
                    return Verdict(False, "braid", t)
    return Verdict(True)


def family_members(max_v):
    """All admissible (p, nu, eta) with v = p^eta <= max_v."""
    out = []
    for p in range(2, max_v + 1):
        if factorize(p) != [(p, 1)]:
            continue
        eta = 1
        while p**eta <= max_v:
            for nu in range(1, eta + 1):
                if eta <= 2 * nu:
                    out.append(CyclicFamilyParams(p, nu, eta))
            eta += 1
    return out
