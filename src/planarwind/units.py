"""Unit conversions and field checks used at file and CLI boundaries.

The library works in meters and henries throughout.  Files and the command
line speak millimeters and microhenries, which is how winding dimensions
and inductances of this size are normally quoted.
"""

import numbers
from typing import Mapping, Sequence


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


def json_keys(document: str, mapping: Mapping, required: Sequence, optional: Sequence = ()) -> None:
    """Check the keys of a document, such as a JSON object: all required, none unknown.

    Raises ValueError naming the missing keys, in the order of required,
    or else the keys that are neither required nor optional, in document
    order, so a misspelt optional key is no silent default.
    """
    missing = [key for key in required if key not in mapping]
    if missing:
        raise ValueError(f"{document} is missing {', '.join(missing)}")
    unknown = [repr(key) for key in mapping if key not in required and key not in optional]
    if unknown:
        noun = "keys" if len(unknown) > 1 else "key"
        raise ValueError(f"{document} has unknown {noun} {', '.join(unknown)}")
