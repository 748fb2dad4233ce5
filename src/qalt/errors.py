"""Exception hierarchy shared by the language frontend and the semantic backend.

Two families matter for callers: :class:`LanguageError` (anything the parser,
typechecker or elaborator can reject about a program text) and
:class:`SemanticError` (dimension, signature and positivity violations raised
by the operator-level machinery).  The CLI maps the former to exit code 1 and
the latter to exit code 2.
"""


class QaltError(Exception):
    """Base class for all errors raised by this package."""


class LanguageError(QaltError):
    """A program was rejected by the frontend."""


class ParseError(LanguageError):
    """Malformed source text; carries the first offending position."""

    def __init__(self, message, line=None, col=None):
        if line is not None:
            message = f"{line}:{col}: {message}"
        super().__init__(message)
        self.line = line
        self.col = col


class TypecheckError(LanguageError):
    """A well-formed program violated a typing rule."""


class UnknownName(TypecheckError):
    pass


class DuplicateName(TypecheckError):
    pass


class KindError(TypecheckError):
    """A bit was used where a qubit is required, or vice versa."""


class InvalidGate(TypecheckError):
    """Gate expression rejected (wrong arity, non-unitary matrix literal)."""


class ControlCapture(TypecheckError):
    """A quantum-conditional branch mentioned its own control qubit."""


class BranchContextMismatch(TypecheckError):
    """Branches of a conditional produce different typing contexts."""


class NonConstantBound(LanguageError):
    """A meta-level loop bound or index did not reduce to an integer.

    Also raised when a meta expression divides by zero, overflows or yields
    a value that is not finite.
    """


class UnsupportedArity(LanguageError):
    """A corpus generator was asked for an instance above its size cap."""


class SemanticError(QaltError):
    """Operator-level contract violation."""


class DimensionMismatch(SemanticError):
    pass


class SignatureMismatch(SemanticError):
    pass


class TraceConditionViolated(SemanticError):
    """The completeness sum of a Kraus set exceeds the identity."""


class BranchCountMismatch(SemanticError):
    pass


class NonBlockDiagonalResult(SemanticError):
    """A superoperator leaked coherence across classical branches."""


class EmptySetError(SemanticError):
    """The zero map has no canonical dilation; construction refused."""
