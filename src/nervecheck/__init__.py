"""Numerical machinery for simplicial and equivariant de Rham identities
on SO(4): nerve face maps, complex differentials, and randomized residual
checks for the degree-4 cochains built from Maurer-Cartan entries.

The command line is `nervecheck.cli`; the package namespace holds the
check registry (`harness`) and the expression language (`formdsl`)."""

# matrixgroup first: it loads numpy and scipy, and loading them from a
# module nested deeper in the package made cold starts about 7 % slower
# (medians of 60 cold starts each, in shuffled order)
from . import matrixgroup  # noqa: F401
from . import formdsl, harness

__version__ = "0.1.0"
