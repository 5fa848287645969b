"""Weights as exact coordinate vectors.

A weight is a plain ``tuple`` in the fundamental-weight basis
(omega_1, ..., omega_r).  With this convention the pairing of a weight with the
i-th simple coroot is just its i-th coordinate, so dominance and admissibility
tests are coordinate-local.  Lattice data (roots, rho, character weights,
infinitesimal characters, fixed-point data) are ``int`` tuples, which compare
and hash equal to their ``Fraction`` form and print the same; ``lattice_point``
alone decides whether coordinates are a lattice point.  ``Fraction`` tuples
remain for points of Lambda / 2 (mu, rho_sigma, moments) and declared rationals.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

Weight = tuple[Fraction | int, ...]


def weight(coords: Iterable[Fraction | int | str]) -> Weight:
    """Normalize an iterable of rational-like values into a Weight."""
    return tuple(Fraction(c) for c in coords)


def parse_weight(text: str) -> Weight:
    """Parse a comma-separated rational vector such as ``"3/2,0,-1"``."""
    parts = [p.strip() for p in text.split(",")]
    if not parts or any(p == "" for p in parts):
        raise ValueError(f"malformed weight string: {text!r}")
    return tuple(Fraction(p) for p in parts)


def format_weight(w: Sequence[Fraction]) -> str:
    """Inverse of :func:`parse_weight`; exact, no floats."""
    return ",".join(str(c) for c in w)


def wadd(a: Weight, b: Weight) -> Weight:
    return tuple(x + y for x, y in zip(a, b, strict=True))


def wsub(a: Weight, b: Weight) -> Weight:
    return tuple(x - y for x, y in zip(a, b, strict=True))


def wneg(a: Weight) -> Weight:
    return tuple(-x for x in a)


def wscale(c: Fraction | int, a: Weight) -> Weight:
    c = Fraction(c)
    return tuple(c * x for x in a)


def is_dominant(w: Weight) -> bool:
    return all(c >= 0 for c in w)


def is_strictly_dominant(w: Weight) -> bool:
    return all(c > 0 for c in w)


def lattice_point(coords: Iterable[Fraction | int | str]) -> tuple[int, ...] | None:
    """The coordinates as an int tuple, or None when one is not an integer."""
    w = tuple(coords)
    if all(type(c) is int for c in w):
        return w
    w = weight(w)
    return tuple(c.numerator for c in w) if all(c.denominator == 1 for c in w) else None


def zero_weight(rank: int) -> Weight:
    return (Fraction(0),) * rank


def weight_to_json(w: Weight) -> list[str]:
    """Rationals as strings, bit-exact round trip."""
    return [str(c) for c in w]


def weight_from_json(obj: Sequence[str]) -> Weight:
    """Rationals from a JSON list; ValueError names a coordinate that is not a rational."""
    if not isinstance(obj, list):
        raise ValueError(f"a weight must be a list of rationals, got {obj!r}")
    out = []
    for k, c in enumerate(obj, 1):
        try:
            out.append(Fraction(c))
        except ZeroDivisionError:
            raise ValueError(
                f"coordinate {k} of the weight {obj} has a zero denominator: {c!r}") from None
        except (ValueError, TypeError, OverflowError):  # "x", null, a list, Infinity or NaN
            raise ValueError(
                f"coordinate {k} of the weight {obj} is not a rational: {c!r}") from None
    return tuple(out)
