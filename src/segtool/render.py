"""Presentation layer: the one place where values become text.

Everything upstream keeps exact Fractions, ints and None. TSV rounds each
cell by a named rule and writes an undefined value as NA; JSON keeps full
float precision and writes an undefined value as null. A JSON payload holds
plain values and Fractions only: a caller sorts a set into a list and turns
a record into a dict itself, and any other value is refused.
"""

from __future__ import annotations

import json
from fractions import Fraction

RATIO = ".2f"
VARIANCE = ".4f"
PVALUE = ".2e"
MEAN_COUNT = ".1f"


def num(x, spec: str = RATIO) -> str:
    """One TSV number cell: NA when undefined, else rounded by spec."""
    return "NA" if x is None else format(float(x), spec)


def sites_text(values) -> str:
    """Values as a comma list in their given order, or - when empty."""
    return ",".join(str(v) for v in values) or "-"


def tsv(*blocks) -> str:
    """Cells joined by tabs, rows by newlines, blocks by one blank line."""
    return "\n\n".join(
        "\n".join("\t".join(str(cell) for cell in row) for row in block)
        for block in blocks
    ) + "\n"


def _plain(value):
    if isinstance(value, Fraction):
        return float(value)
    raise TypeError(f"cannot render {type(value).__name__} as JSON")


def to_json(payload) -> str:
    """Indented JSON; Fractions as floats."""
    return json.dumps(payload, indent=2, default=_plain) + "\n"
