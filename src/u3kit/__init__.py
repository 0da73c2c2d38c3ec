"""u3kit: Gowers U^3 uniformity norms and quadratic Fourier analysis at desk
scale -- uniformity norms and bias oracles, Bohr-set machinery, the inverse
pipeline on F_5^n, bracket quadratics, and elementary 2-step nilsequences on
finite abelian groups, with exact rational arithmetic wherever identities
are asserted exactly.  Group elements and characters are int64 row-major
indices throughout (see `u3kit.groups`)."""

__version__ = "0.1.0"

from .groups import GroupFunction, GroupSpec, parse_group

__all__ = [
    "GroupFunction",
    "GroupSpec",
    "parse_group",
    "__version__",
]
