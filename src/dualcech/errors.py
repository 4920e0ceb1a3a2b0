"""Exception hierarchy shared by all modules.

Two families matter for the command line: ``InputError`` means the input
data was unusable (exit code 1), ``CheckFailed`` means the computation ran
but a verified identity did not hold (exit code 2).
"""


class DualCechError(Exception):
    pass


class InputError(DualCechError):
    pass


class CheckFailed(DualCechError):
    pass


class ShapeMismatch(InputError):
    pass


class BadTuple(InputError):
    pass


class FunctorialityViolation(InputError):
    pass


class BaseMismatch(InputError):
    pass


class IncompatibleSection(InputError):
    pass


class ZeroSection(InputError):
    pass


class NonSplitExtension(CheckFailed):
    """The constant subpresheaf admits no complement with additive cohomology."""


class NotSimplicial(InputError):
    pass


class NotClosed(InputError):
    pass


class MissingTable(InputError):
    pass


class UnderdeterminedRestrictions(InputError):
    pass


class HodgeMismatch(CheckFailed):
    """Antidiagonal sums of the form-cohomology table disagree with the deRham totals."""

    def __init__(self, message, table=None, diagnostics=None):
        super().__init__(message)
        self.table = table
        self.diagnostics = diagnostics or {}


class HypothesisViolated(InputError):
    pass


class NotSmooth(InputError):
    pass


class NecessaryConditionFailed(InputError):
    pass


class InvalidBicomplex(InputError):
    pass


class InvalidInput(InputError):
    pass


class SchemaError(InputError):
    """Input document failed validation. ``pointer`` is a JSON pointer to the bad field."""

    def __init__(self, pointer, message):
        super().__init__(f"{pointer or '/'}: {message}")
        self.pointer = pointer
        self.message = message
