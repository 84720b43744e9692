"""Exception hierarchy for the jetsym package."""


class JetsymError(Exception):
    """Base class for all jetsym errors."""


class ExprError(JetsymError):
    """Errors raised by the expression kernel."""


class ParseError(ExprError):
    """Syntax error in expression or problem-file text."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class UnknownFunctionError(ParseError):
    """A function name outside the supported set (exp, log, sin, cos)."""


class NonIntegerExponentError(ParseError):
    """An exponent that does not read as an integer constant."""


class SymbolicDivisionError(ExprError):
    """Division by an expression that normalizes to zero."""


class SubstitutionError(ExprError):
    """A bound variable occurs in a replacement expression."""


class EvalError(ExprError):
    """Errors raised during numeric evaluation."""


class UnboundVariableError(EvalError):
    """A variable of the expression is missing from the evaluation point."""


class DomainError(EvalError):
    """Evaluation left the domain of a kernel function (or overflowed)."""


class BudgetError(JetsymError):
    """A value too large to handle, such as an integer past Python's
    digit limit on string conversion when it is printed."""


class JetError(JetsymError):
    """Invalid jet-space structure: bad names, orders, or multiindices."""


class ProlongationError(JetsymError):
    """Errors raised while constructing prolonged vector fields."""


class MuNotClosedError(ProlongationError):
    """The deforming form is not flat (not closed when q = 1)."""


class InconsistentMuError(ProlongationError):
    """Two multiindex recursion paths disagree for a non-compatible form."""


class EquationError(JetsymError):
    """A differential equation violates its solved-form invariants."""


class RestrictionError(JetsymError):
    """Substitution closure failed while restricting to the solution manifold."""


class GaugeError(JetsymError):
    """Errors in gauge functions and compatibility structure."""


class PotentialNotClosedError(GaugeError):
    """A potential was requested for a non-closed form."""


class NonPolynomialError(GaugeError):
    """The operation requires polynomial data."""


class NoPotentialError(GaugeError):
    """No polynomial potential exists (or none was found within bounds)."""


class ProblemFileError(JetsymError):
    """Invalid problem file: syntax, undeclared names, or bad task arguments.

    ``line`` is the line number in the file, or the command-line flag
    that gave the value."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            where = line if isinstance(line, str) else f"line {line}"
            message = f"{where}: {message}"
        super().__init__(message)
