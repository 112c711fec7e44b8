"""Exception hierarchy shared by all engine modules.

One class per condition, raised where the condition is found: a caller does
not pass a class or a message down to the helper that finds a failure, and
two classes never name the same condition.  Every class below has a raise
site in the package (``tests/test_hygiene.py::test_every_error_class_is_raised``).
"""


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


# -- Courant / Dirac ---------------------------------------------------------

class RankDeficient(EngineError):
    """A span has lower generic rank than required, or a solve has more than one solution."""


class NotLagrangian(EngineError):
    """The frame does not span a Lagrangian subbundle."""


class WrongShape(EngineError):
    """Data has the wrong block structure, or a size or degree outside the supported range."""


# -- algebroids --------------------------------------------------------------

class NotAlgebroid(EngineError):
    """The anchor/structure data fails the Lie algebroid axioms."""


class RankJump(EngineError):
    """A kernel or span fails to have constant rank along the patch."""


# -- groupoids ---------------------------------------------------------------

class ChartMismatch(EngineError):
    """Groupoid chart maps do not give a solvable chart of composable pairs or triples."""


class NotComposable(EngineError):
    """The two elements do not satisfy the source/target matching condition."""


class NotAGroup(EngineError):
    """The operation requires a groupoid whose base is a single point."""


class NotMultiplicative(EngineError):
    """The structure fails its multiplicativity identity."""


class HypothesisFails(EngineError):
    """Supplied data does not satisfy the hypothesis it claims."""


# -- check files -------------------------------------------------------------

class ParseError(EngineError):
    """A check file is syntactically malformed."""


class UnknownReference(EngineError):
    """A check file refers to a name that was never declared."""


class CheckError(EngineError):
    """A check raised an engine error while running."""
