"""The one rule for each kind of field, in a command's settings as in the
files the program reads back (a dataset header, a checkpoint): an
integer (a count, seed, width or version), a finite number (a rate, a
noise level, a range end), a pair of either, a choice among fixed
values (a method, a mode, a setup), a boolean (a flag), a JSON object (a
settings section, a checkpoint's ``meta``) and an image shape.  A bool
is no integer, a float such as 1.0 is no integer, and NumPy's integers
and floats count.  A refusal is a ValueError that names the key as a
config file spells it, such as ``'canvas.glyph_size'``, or as the file
does, such as ``'num_classes'``."""

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


def choice(value, key: str, choices: tuple):
    """``value`` when it equals one of ``choices``.  Equality alone
    decides, and ``True == 1``: a numeric choice takes its value through
    ``integer`` first."""
    if value not in choices:
        raise ValueError(f"'{key}' must be one of {choices}, got {value!r}")
    return value


def flag(value, key: str) -> bool:
    """``value`` when it is a boolean; a string such as "false" is not."""
    if not isinstance(value, bool):
        raise ValueError(f"'{key}' must be true or false, got {value!r}")
    return value


def json_object(value, key: str) -> dict:
    """``value`` when it is a JSON object (a dict).  A refusal names the
    type only, since the value may be a whole document."""
    if not isinstance(value, dict):
        raise ValueError(f"'{key}' must be a JSON object, got {type(value).__name__}")
    return value


def image_shape(value, key: str) -> tuple[int, int, int]:
    """A list or tuple of three integers of at least 1, (height, width,
    channels), as a tuple."""
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise ValueError(f"'{key}' must be (height, width, channels), got {value!r}")
    return tuple(integer(v, key, 1) for v in value)
