"""Exception types shared across the package, and the two rules every
count and every real-valued parameter is checked by where it enters."""

from __future__ import annotations

import math
from numbers import Integral, Real


def check_count(name: str, value, low: int = 1) -> None:
    """Refuse anything but an integer (a numpy one too, a bool not) of at least ``low``."""
    if not isinstance(value, Integral) or isinstance(value, bool) or value < low:
        raise ValueError(f"{name} must be an integer of at least {low}, got {value!r}")


def check_real(name: str, value, low: float, high: float = math.inf, low_open: bool = False) -> None:
    """Refuse anything but a finite number (not a bool) in [low, high], or (low, high] when ``low_open``."""
    if (not isinstance(value, Real) or isinstance(value, bool) or not math.isfinite(value)
            or not (low < value if low_open else low <= value) or value > high):
        raise ValueError(f"{name} must be a finite number in {'(' if low_open else '['}{low:g}, "
                         f"{high:g}{')' if high == math.inf else ']'}, got {value!r}")


class EngineError(Exception):
    """Base class for errors raised by this package."""


class FormatError(EngineError):
    """A file could not be parsed or failed validation.

    Carries the offending path and, when meaningful, the 1-based line
    number so callers can point at the exact spot.
    """

    def __init__(self, message: str, path: str | None = None, line: int | None = None):
        self.path = path
        self.line = line
        parts = []
        if path is not None:
            parts.append(str(path))
        if line is not None:
            parts.append(f"line {line}")
        prefix = ": ".join(parts)
        super().__init__(f"{prefix}: {message}" if prefix else message)


class DimensionMismatch(EngineError, ValueError):
    """Vector lengths disagree where they must match."""
