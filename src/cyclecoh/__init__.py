"""Exact cohomology and central extensions of cyclic linear cycle sets.

The carrier is Z/vZ with the operation i . j = (1 - u*i)*j for
v = p^eta, u = p^nu, 0 < nu <= eta <= 2*nu.  The package computes the
degree-1 and degree-2 cohomology classifying central extensions by a
finitely generated abelian coefficient group, by three independent
routes (the full cochain complex, a perturbation-reduced complex, and
closed formulas), and constructs and classifies the extensions
themselves.
"""

import os

# numpy's OpenBLAS starts one thread per core when numpy is imported,
# and the idle pool spins a second core at start-up, although cyclecoh's
# arithmetic is all integer and calls no BLAS routine.  Set before the
# first submodule imports numpy; a value already in the environment is
# kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

from .abelian import FinAbGroup, GroupElement, IntegerMatrix
from .cycleset import CyclicFamilyParams, LinearCycleSet, make_cyclic_lcs
from .extensions import build_extension, enumerate_extension_classes, extensions_equivalent
from .lcs_cohomology import CocyclePair, cocycle_family, cohomology

__all__ = [
    "__version__",
    "CocyclePair",
    "CyclicFamilyParams",
    "FinAbGroup",
    "GroupElement",
    "IntegerMatrix",
    "LinearCycleSet",
    "build_extension",
    "cocycle_family",
    "cohomology",
    "enumerate_extension_classes",
    "extensions_equivalent",
    "make_cyclic_lcs",
]
