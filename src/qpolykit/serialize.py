"""Exact JSON rendering.

Rationals travel as "p/q" strings, algebraic numbers as a defining
polynomial plus isolating interval.  Decimal approximations are attached as
annotation only; nothing downstream may decide anything from them.  All
dictionaries are emitted with sorted keys so that identical configurations
produce byte-identical reports.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .algebraics import REPORT_WIDTH, AlgebraicReal, ProductValue
from .numberfield import FieldElement


def rat_str(r: Fraction | int) -> str:
    """r as "p/q", or "p" when it is an integer.

    An int (a bool too) or a Fraction is formatted as it is; anything else
    is read through Fraction first.
    """
    if isinstance(r, int):
        return f"{r:d}"
    if not isinstance(r, Fraction):
        r = Fraction(r)
    return f"{r.numerator}/{r.denominator}" if r.denominator != 1 else str(r.numerator)


def parse_rat(s: str) -> Fraction:
    if not isinstance(s, str):
        raise ValueError(f"expected rational string, got {type(s).__name__}")
    try:
        return Fraction(s.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed rational {s!r}") from exc


def value_json(v):
    """Render an exact scalar for a report."""
    if isinstance(v, int):
        v = Fraction(v)
    if isinstance(v, Fraction):
        return {"rational": rat_str(v)}
    if isinstance(v, ProductValue):
        return {
            "product": [value_json(f) for f in v.factors],
            "interval": [rat_str(v.lo), rat_str(v.hi)],
            "approx": v.approx_float(),
        }
    if isinstance(v, FieldElement):
        v = v.to_algebraic()
    if isinstance(v, AlgebraicReal):
        r = v.as_rational()
        if r is not None:
            return {"rational": rat_str(r)}
        a = v.refined_to(REPORT_WIDTH)
        return {
            "poly": [rat_str(c) for c in a.poly.coeffs],
            "interval": [rat_str(a.lo), rat_str(a.hi)],
            "approx": float((a.lo + a.hi) / 2),
        }
    raise TypeError(f"cannot render {type(v).__name__}")


def dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def dump_json_pretty(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)
