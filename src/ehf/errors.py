"""Exception hierarchy shared across the package.

The CLI maps these onto distinct exit codes: usage/configuration problems,
missing or corrupt inputs, and numeric failures each get their own class.
Each number a caller gives a config type or a function passes one of the three
rules at the end (a count, a seed, a bounded real), which raise the caller's class.
"""

import math
import numbers


class EHFError(Exception):
    """Base class for all package errors."""


class ConfigurationError(EHFError):
    """Invalid parameters, invalid config files, or inconsistent run setup."""


class DomainError(EHFError):
    """A scalar argument is outside the mathematical domain of an operation."""


class ShapeError(EHFError):
    """Array arguments have inconsistent shapes."""


class StateError(EHFError):
    """An operation was invoked before its prerequisite (e.g. backward without a recorded forward)."""


class ResolutionError(EHFError):
    """A referenced input file or artifact does not exist."""


class IntegrityError(EHFError):
    """A persisted artifact is corrupt or fails its checksum."""


class NumericError(EHFError):
    """A numeric failure such as a NaN loss or a gradient-check breach."""


def check_count(value, name: str, error: type, low: int = 1):
    """Raise error unless value is an int (not a bool or a float) >= low."""
    if type(value) is not int or value < low:
        raise error(f"{name} must be an integer >= {low}, got {value!r}")


def check_seed(value, name: str, error: type):
    """Raise error unless value is an int in [0, 2**64), which every RNG takes."""
    if type(value) is not int or not 0 <= value < 2 ** 64:
        raise error(f"{name} must be in [0, 2**64) and an integer, got {value!r}")


def check_real(value, name: str, error: type, low=-math.inf, high=math.inf, ends="[]"):
    """Raise error unless value is a number (not a bool) from low to high, each end
    closed or open as ends says ("[]", "[)", "(]" or "()"); NaN fails, an infinite end is open."""
    lo, hi = ends[0] == "(" or low == -math.inf, ends[1] == ")" or high == math.inf
    if not (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and (low < value if lo else low <= value) and (value < high if hi else value <= high)):
        bounds = (f"in {ends[0]}{low:g}, {high:g}{ends[1]}" if high < math.inf else
                  "finite" if low == -math.inf else f"{'>' if lo else '>='} {low:g}")
        raise error(f"{name} must be {bounds}, got {value!r}")
