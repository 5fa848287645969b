"""Admissible coadjoint orbits and their equivariant spin-c indices.

An orbit through a dominant weight ``mu`` lying on the chamber face ``sigma``
is admissible when ``mu - rho + rho_sigma`` is a lattice weight.  Its spin-c
index is either zero (when ``mu + rho_sigma`` is singular) or the irreducible
representation with infinitesimal character ``mu + rho_sigma``; reports always
show both that character and the highest weight obtained by subtracting rho.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    EmptyFaceRegion,
    NotAdmissible,
    NotDominant,
    NotOnFace,
    OrbitRegionTooLarge,
)
from .roots import _ORBIT_BOUND, Face, RootSystem, _zero_set, face_of, is_regular
from .weights import (
    Weight,
    format_weight,
    is_dominant,
    weight,
    wsub,
)

Interval = tuple[Fraction, Fraction]


@dataclass(frozen=True)
class CoadjointOrbit:
    """Orbit through its dominant representative, tagged with the containing face.

    Raises NotDominant for a representative with a negative coordinate and
    NotOnFace for one outside the relative interior of the face.
    """

    mu: Weight
    face: Face

    def __post_init__(self):
        if not is_dominant(self.mu):
            raise NotDominant(
                f"orbit representative must be dominant, got ({format_weight(self.mu)})")
        if len(self.mu) != len(self.face.rho_sigma) or _zero_set(self.mu) != self.face.vanishing_set:
            raise NotOnFace(f"orbit representative ({format_weight(self.mu)}) does not lie "
                            f"on the face {self.face.label()}")

    def label(self) -> str:
        return f"K.({format_weight(self.mu)})"


@dataclass(frozen=True)
class OrbitIndex:
    """Spin-c index of an admissible orbit: zero or one irreducible.

    ``lam`` is the infinitesimal character of the irreducible (strictly
    dominant, integral); the highest weight is ``lam - rho``.
    """

    lam: Weight | None

    @classmethod
    def zero(cls) -> "OrbitIndex":
        return cls(None)

    @classmethod
    def irreducible(cls, lam: Weight) -> "OrbitIndex":
        return cls(lam)

    @property
    def is_zero(self) -> bool:
        return self.lam is None

    def label(self) -> str:
        if self.lam is None:
            return "0"
        return f"pi({format_weight(self.lam)})"


def coadjoint_orbit(mu: Weight, rs: RootSystem) -> CoadjointOrbit:
    """Wrap a dominant weight as the orbit through it."""
    mu = weight(mu)
    if not is_dominant(mu):
        raise NotDominant(f"orbit representative must be dominant, got ({format_weight(mu)})")
    return CoadjointOrbit(mu, face_of(mu, rs))


def is_admissible(mu: Weight, rs: RootSystem) -> bool:
    """Lattice test mu - rho + rho_sigma integral, with sigma the face of mu."""
    mu = weight(mu)
    rs.check_rank(mu, "is_admissible")
    if not is_dominant(mu):
        raise NotDominant(
            f"admissibility test requires a dominant weight, got ({format_weight(mu)})")
    return _admissible_on(mu, face_of(mu, rs))


def _admissible_on(mu: Weight, face: Face) -> bool:
    """The lattice test for a mu on the face, read off the denominators of mu."""
    return all(c.denominator == d for c, d in zip(mu, face.admissible_denominators))


def orbit_spin_index(orbit: CoadjointOrbit, rs: RootSystem) -> OrbitIndex:
    """Index of an admissible orbit: zero on a wall, else one irreducible."""
    if not _admissible_on(orbit.mu, orbit.face):
        raise NotAdmissible(f"orbit {orbit.label()} is not admissible")
    # admissible: mu_i and rho_sigma_i share a denominator, and their sum is an integer
    shifted = tuple((c.numerator + s.numerator) // c.denominator
                    for c, s in zip(orbit.mu, orbit.face.rho_sigma))
    # a dominant weight is regular exactly when every simple coordinate is > 0
    low = min(shifted)
    if not (low > 0 if low >= 0 else is_regular(shifted, rs)):
        return OrbitIndex.zero()
    # a regular shift of an admissible point is dominant; // made it integral
    if not is_dominant(shifted):
        raise NotAdmissible(f"orbit {orbit.label()} shifts to ({format_weight(shifted)}), "
                            f"which is not a dominant lattice weight")
    return OrbitIndex.irreducible(shifted)


def _admissible_run(base_residue: Fraction, lo: Fraction, hi: Fraction) -> tuple[Fraction, int]:
    """The least c > 0 in [lo, hi] congruent to base_residue mod 1, and how many
    values c, c + 1, ... stay at most hi."""
    start = max(lo, Fraction(0))
    c = start + (base_residue - start) % 1
    if c == 0:
        c += 1
    return c, max(0, math.floor(hi - c) + 1)


def admissible_orbits_on_face(
    face: Face,
    bounds,
    rs: RootSystem,
) -> list[CoadjointOrbit]:
    """Admissible orbits in a bounded region of a face's relative interior.

    ``bounds`` is a single ``(lo, hi)`` interval applied to every free
    coordinate, or a mapping from 1-based free coordinate index to such an
    interval.  The region is always intersected with the open face, so a lower
    bound of 0 means "arbitrarily small positive".  The vertex face needs no
    bounds.  Results are sorted by their free-parameter tuple.  A region of
    more than 2^16 admissible orbits raises OrbitRegionTooLarge before any is
    built.
    """
    rank = rs.rank
    free = face.free_coordinates
    if not free:
        mu = tuple(Fraction(0) for _ in range(rank))
        return [CoadjointOrbit(mu, face)] if _admissible_on(mu, face) else []
    if bounds is None:
        raise EmptyFaceRegion(f"face {face.label()} has free coordinates; bounds required")
    if isinstance(bounds, dict):
        per_coord = {}
        for i in free:
            if (i + 1) not in bounds:
                raise EmptyFaceRegion(f"no bounds for free coordinate {i + 1}")
            lo, hi = bounds[i + 1]
            per_coord[i] = (Fraction(lo), Fraction(hi))
    else:
        lo, hi = bounds
        per_coord = {i: (Fraction(lo), Fraction(hi)) for i in free}
    for lo, hi in per_coord.values():
        if hi < lo:
            raise EmptyFaceRegion(f"empty interval [{lo}, {hi}]")
    # fixed coordinates must themselves satisfy the integrality condition
    shift = wsub(rs.rho, face.rho_sigma)
    if any(shift[i - 1].denominator != 1 for i in face.vanishing_set):
        return []
    # each run starts at the admissible residue mod 1, so every value is admissible
    runs = [_admissible_run(shift[i] % 1, *per_coord[i]) for i in free]
    total = math.prod(n for _, n in runs)
    if total > _ORBIT_BOUND:
        raise OrbitRegionTooLarge(f"face {face.label()} has {total} admissible orbits in "
                                  f"the region, more than {_ORBIT_BOUND}")
    orbits = []
    # the product of ascending value lists is already in lexicographic order
    for combo in itertools.product(*([c + k for k in range(n)] for c, n in runs)):
        mu = [Fraction(0)] * rank
        for i, c in zip(free, combo):
            mu[i] = c
        orbits.append(CoadjointOrbit(tuple(mu), face))
    return orbits
