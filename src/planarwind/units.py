"""Unit conversions and field checks used at file and CLI boundaries.

The library works in meters and henries throughout.  Files and the command
line speak millimeters and microhenries, which is how winding dimensions
and inductances of this size are normally quoted.
"""

import numbers
from typing import Mapping


def mm_to_m(value_mm: float) -> float:
    return value_mm * 1e-3


def m_to_mm(value_m: float) -> float:
    return value_m * 1e3


def h_to_uh(value_h: float) -> float:
    return value_h * 1e6


def uh_to_h(value_uh: float) -> float:
    return value_uh * 1e-6


def json_field(name: str, value, kind: str):
    """A field read from a JSON document, checked to be of a kind.

    kind "number" returns the value as a float, "list" as a tuple, and
    "object" and "string" as given.  Any other value raises ValueError
    naming the field: null, strings and booleans (which Python counts as
    ints) are no numbers, and only arrays are lists.
    """
    if kind == "number" and isinstance(value, numbers.Real) and not isinstance(value, bool):
        return float(value)
    if kind == "list" and isinstance(value, (list, tuple)):
        return tuple(value)
    if kind == "object" and isinstance(value, Mapping):
        return value
    if kind == "string" and isinstance(value, str):
        return value
    raise ValueError(f"{name} must be a JSON {kind}, got {value!r}")
