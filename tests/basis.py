"""The generator order of the full complex's cells, spelled out for tests.

The builders number generators by the mixed-radix codes of their exponent
tuples and carry no names for them.  Cell (r, s), Dbar^{x r} (x) Mbar(s),
has the pairs (gt, mt) of exponent tuples, gt outer, in that order; the
shuffle quotient Mbar(s) alone is `exp_tuples(s, v)`.
"""

from cyclecoh.cyclic_resolution import exp_tuples


def cell_basis(r, s, v):
    """The generators of cell (r, s) in code order, as pairs (gt, mt)."""
    return [(gt, mt) for gt in exp_tuples(r, v) for mt in exp_tuples(s, v)]
