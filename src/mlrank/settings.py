"""The one rule for each kind of setting: an integer (a count, seed or
width), a finite number (a rate, a noise level, a range end) and a pair
of either.  A bool is neither, a float such as 1.0 is no integer, and
NumPy's integers and floats count.  A refusal is a ValueError that names
the key as a config file spells it, such as ``'canvas.glyph_size'``."""

import math
import numbers


def integer(value, key: str, minimum: int = 0) -> int:
    """``value`` as an int when it is an integer of at least ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"'{key}' must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"'{key}' must be at least {minimum}, got {value}")
    return int(value)


def number(value, key: str):
    """``value`` as given when it is a finite real number."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise ValueError(f"'{key}' must be a finite number, got {value!r}")
    return value


def pair(value, key: str, rule) -> tuple:
    """A two-element list or tuple as a tuple, each element checked by
    ``rule`` (``integer`` or ``number``)."""
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ValueError(f"'{key}' must be a list of two values, got {value!r}")
    return tuple(rule(v, key) for v in value)
