"""Exception taxonomy shared by all modules.

Every domain error raised by the library derives from U3KitError so the CLI
can map them to a single exit code.  The class names double as the machine
readable ``error`` field in CLI output.
"""


class U3KitError(Exception):
    """Base class for all domain errors."""

    @property
    def name(self) -> str:
        return type(self).__name__


class SpecMismatch(U3KitError):
    """Operands belong to different groups."""


class BudgetExceeded(U3KitError):
    """An exhaustive scan would exceed the configured budget."""


class DegreeUnsupported(U3KitError):
    """Uniformity norm degree outside the supported range 1..4."""


class NotBounded(U3KitError):
    """A function flagged as bounded has modulus above 1."""


class BadGroupOrder(U3KitError):
    """The group order fails a coprimality hypothesis."""


class EvenOrder(U3KitError):
    """Operation requires a group of odd order."""


class EvenN(U3KitError):
    """Operation requires odd N so the index range -N/2 < n < N/2 is unambiguous."""


class NotPrime(U3KitError):
    """Operation requires prime N."""


class TooSmall(U3KitError):
    """Parameter below the minimum for a nontrivial result."""


class TooSmallN(U3KitError):
    """Group too small for the requested bound to be meaningful."""


class HasProperAp(U3KitError):
    """The input set contains a proper arithmetic progression."""


class Has4Ap(HasProperAp):
    """The input set contains a proper 4-term arithmetic progression."""


class DensityTooLow(U3KitError):
    """Set density below the required floor."""


class NotRegular(U3KitError):
    """The Bohr set is not regular."""


class RhoTooLarge(U3KitError):
    """Bohr radius too large for the requested construction."""


class NoZero(U3KitError):
    """The input set must contain zero."""


class NotFound(U3KitError):
    """Search completed without finding a witness."""


class NotQuadratic(U3KitError):
    """Phase function is not locally quadratic on the stated domain."""


class ExtensionObstructed(NotQuadratic):
    """A locally quadratic phase admits no global quadratic extension.

    Can occur for subgroups of non-squarefree cyclic factors, where the
    restriction map on self-adjoint homomorphisms is not surjective.
    """


class NotProper(U3KitError):
    """Coset progression is not proper."""


class DependentGenerators(U3KitError):
    """Progression generator images are linearly dependent."""


class EmptyGraph(U3KitError):
    """No shift passed the phase-derivative threshold."""


class SliceFailed(U3KitError):
    """Random slicing failed to produce a Freiman-regular subgraph."""


class EmptyV(U3KitError):
    """The extracted linear component lives on the zero subspace."""


class TooManyFrequencies(U3KitError):
    """Bracket quadratic has more frequencies than supported."""


class NotInSigma(U3KitError):
    """Input points violate the parallelepiped membership constraint."""


class BadArity(U3KitError):
    """Wrong number of points for the requested constraint arity."""


class PipelineEmpty(U3KitError):
    """The obstruction pipeline produced no usable witness."""


class ParseError(U3KitError):
    """Expression or grammar parse failure."""

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message if position is None else f"{message} (at position {position})")
        self.position = position
