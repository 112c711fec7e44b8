"""Exception hierarchy shared by all engine modules."""


class EngineError(Exception):
    """Base class for every error raised by this package."""


# -- scalar algebra ----------------------------------------------------------

class UnknownSymbol(EngineError):
    """An identifier does not name a coordinate of the patch at hand."""


class ExprSyntaxError(EngineError):
    """A scalar expression string does not parse, or does not evaluate to a polynomial."""


class PatchMismatch(EngineError):
    """Operands live on different patches."""


class Inconsistent(EngineError):
    """A linear system has no solution over the fraction field."""


# -- Cartan calculus ---------------------------------------------------------

class DegreeTooHigh(EngineError):
    """A form degree outside the supported range was requested."""


class DegreeZero(EngineError):
    """The operation needs a form of degree at least one."""


# -- Courant / Dirac ---------------------------------------------------------

class RankDeficient(EngineError):
    """A span has lower generic rank than required."""


class NotLagrangian(EngineError):
    """The frame does not span a Lagrangian subbundle."""


class WrongShape(EngineError):
    """Coordinate data does not have the expected block structure."""


# -- algebroids --------------------------------------------------------------

class NotAlgebroid(EngineError):
    """The anchor/structure data fails the Lie algebroid axioms."""


class RankTooLarge(EngineError):
    """The operation is only supported up to a fixed small rank."""


class NotLie(EngineError):
    """Constant structure data fails the Jacobi identity."""


class RankJump(EngineError):
    """A kernel or span fails to have constant rank along the patch."""


class AnchorNotTangent(EngineError):
    """An anchor image does not lie in the prescribed distribution."""


# -- groupoids ---------------------------------------------------------------

class ChartMismatch(EngineError):
    """Groupoid chart maps do not satisfy the composability identities."""


class TranslationNotDerivable(EngineError):
    """Left/right translation cannot be recovered from the composition chart."""


class NotComposable(EngineError):
    """The two elements do not satisfy the source/target matching condition."""


class UnderdeterminedSpan(EngineError):
    """A linear solve has more than one solution where a unique one is needed."""


class NotAGroup(EngineError):
    """The operation requires a groupoid whose base is a single point."""


class NotMultiplicative(EngineError):
    """The structure fails its multiplicativity identity."""


class HypothesisFails(EngineError):
    """Supplied sample data does not satisfy the hypothesis it claims."""


# -- check files -------------------------------------------------------------

class ParseError(EngineError):
    """A check file is syntactically malformed."""


class UnknownReference(EngineError):
    """A check file refers to a name that was never declared."""


class CheckError(EngineError):
    """A check raised an engine error while running."""
