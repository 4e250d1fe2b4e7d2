"""Exception hierarchy for the language implementation."""


class CkadError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(CkadError):
    """Malformed source text.

    Carries the 1-based line and column of the offending token.
    """

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


class EvalError(CkadError):
    """Runtime error signalled during evaluation."""


class UnboundVariableError(EvalError):
    """A variable reference has no binding in scope."""


class NotAFunctionError(EvalError):
    """A non-closure value appeared in operator position."""


class ArithmeticEvalError(EvalError):
    """Domain error in a numeric primitive (division by zero, log of a
    non-positive number, sqrt of a negative number, ...)."""


class RanToCompletionError(EvalError):
    """An interrupted run finished before exhausting its step budget.

    Raised by the host-level ``interrupt`` entry point when the function
    delivers a value in fewer steps than the supplied budget.
    """


class CotangentShapeError(EvalError):
    """A cotangent (or tangent) does not match the shape of the value it
    is paired with."""


class ConfigError(CkadError, ValueError):
    """An unknown run option (mode, algorithm or split strategy) or a
    criterion budget below 1."""
