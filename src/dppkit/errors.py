"""The library's error classes.

Bad input is a ``ValueError``: a malformed symbol spec, a failed theorem
hypothesis, or an enumeration past its size cap.  A computation that went
wrong numerically is an ``ArithmeticError``.  The CLI maps each class to an
exit code.
"""


class SymbolSpecError(ValueError):
    """Malformed symbol specification (bad family, params, or coefficients)."""


class HypothesisError(ValueError):
    """A theorem hypothesis (range, contraction margin, one-sidedness) fails."""


class SizeCapError(ValueError):
    """An enumeration exceeded its configured size cap."""


class ConditioningError(ArithmeticError):
    """A conditional probability could not be formed (vanishing prefix mass)."""


class NumericsError(ArithmeticError):
    """A quantity that must be a probability came out structurally wrong."""
