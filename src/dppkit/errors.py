"""The library's error classes and its input gate.

Bad input is a ``ValueError``: a malformed symbol spec, a failed theorem
hypothesis, an enumeration past its size cap, or a count or 0/1 word that
``require_int`` or ``require_bits`` refuses; every entry point reads its
input through them.  A computation that went wrong numerically is an
``ArithmeticError``.  The CLI maps each class to an exit code.
"""
import operator

import numpy as np


class SymbolSpecError(ValueError):
    """Malformed symbol specification (bad family, params, or coefficients)."""


class HypothesisError(ValueError):
    """A theorem hypothesis (range, contraction margin, one-sidedness) fails."""


class SizeCapError(ValueError):
    """An enumeration exceeded its configured size cap."""


class ConditioningError(ArithmeticError):
    """A conditional probability could not be formed (vanishing prefix or window mass)."""


class NumericsError(ArithmeticError):
    """A quantity that must be a probability came out structurally wrong."""


def require_int(value, lo: int, cap: int | None, need: str) -> int:
    """``value`` as an int in [lo, cap] (no cap when None).  A bool or a non-integer, 4.0
    or a numpy array other than a 0-d integer too, is a ValueError naming it; below lo,
    ValueError(need); above cap, SizeCapError(need)."""
    try:
        if isinstance(value, bool):
            raise TypeError
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{need}; got {value!r}, not an integer") from None
    if value < lo:
        raise ValueError(need)
    if cap is not None and value > cap:
        raise SizeCapError(need)
    return value


def require_bits(word, what: str) -> np.ndarray:
    """A non-empty 0/1 string or 1-d sequence as a uint8 array (a uint8 array
    itself, not a copy), its values checked before any cast: 0.5 is refused."""
    if isinstance(word, str):
        if not word or word.strip("01"):
            raise ValueError(f"{what} must be a non-empty 0/1 string, got {word!r}")
        return np.frombuffer(word.encode(), dtype=np.uint8) - np.uint8(ord("0"))
    bits = np.asarray(word)
    if bits.ndim == 1 and bits.size and bits.dtype.kind in "biuf":
        if bits.max() <= 1 if bits.dtype.kind in "bu" else np.all((bits == 0) | (bits == 1)):
            return bits.astype(np.uint8, copy=False)
    raise ValueError(f"{what} must be a non-empty 0/1 sequence")
