"""Admissible coadjoint orbits and their equivariant spin-c indices.

An orbit through a dominant weight ``mu`` lying on the chamber face ``sigma``
is admissible when ``mu - rho + rho_sigma`` is a lattice weight.  Its spin-c
index is either zero (when ``mu + rho_sigma`` is singular) or the irreducible
representation with infinitesimal character ``mu + rho_sigma``; reports always
show both that character and the highest weight obtained by subtracting rho.
Admissible weights lie in Lambda / 2, so orbits are listed on ``2 mu`` as ints.
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
from .weights import Weight, format_weight, is_dominant, weight


@dataclass(frozen=True)
class CoadjointOrbit:
    """Orbit through its dominant representative, tagged with the containing face.

    Raises NotDominant for a representative with a negative coordinate and
    NotOnFace for one outside the relative interior of the face.  ``mu2`` is
    2 mu; an orbit that the enumeration made (``_doubled``) holds only that,
    as ints, and makes ``mu`` when it is first read.
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
        object.__setattr__(self, "mu2", tuple(2 * c for c in self.mu))

    @classmethod
    def _doubled(cls, mu2: tuple[int, ...], face: Face) -> "CoadjointOrbit":
        """The orbit through mu2 / 2, which its caller has checked; __post_init__ does not run."""
        orbit = object.__new__(cls)
        vars(orbit).update(mu2=mu2, face=face)
        return orbit

    def __getattr__(self, name):  # reached only for the mu of a _doubled orbit, once
        if name != "mu":
            raise AttributeError(name)
        mu = vars(self)["mu"] = tuple(Fraction(c, 2) for c in self.mu2)
        return mu

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
    return not any((2 * c + s) % 2 for c, s in zip(mu, face_of(mu, rs).doubled_rho_sigma))


def orbit_spin_index(orbit: CoadjointOrbit, rs: RootSystem) -> OrbitIndex:
    """Index of an admissible orbit: zero on a wall, else one irreducible."""
    # admissible: mu + rho_sigma = (2 mu + 2 rho_sigma) / 2 is integral
    twice = tuple(c + s for c, s in zip(orbit.mu2, orbit.face.doubled_rho_sigma))
    if any(c % 2 for c in twice):  # for a Fraction mu too: c % 2 is 0 only at even integers
        raise NotAdmissible(f"orbit {orbit.label()} is not admissible")
    shifted = tuple(c // 2 for c in twice)
    # a dominant weight is regular exactly when every simple coordinate is > 0
    low = min(shifted)
    if not (low > 0 if low >= 0 else is_regular(shifted, rs)):
        return OrbitIndex.zero()
    # a regular shift of an admissible point is dominant; // made it integral
    if not is_dominant(shifted):
        raise NotAdmissible(f"orbit {orbit.label()} shifts to ({format_weight(shifted)}), "
                            f"which is not a dominant lattice weight")
    return OrbitIndex.irreducible(shifted)


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
    built.  Each free 2 mu_i runs over the ints >= 1 in [2 lo, 2 hi] of the
    parity of 2 rho_sigma_i, the parity a fixed coordinate must have.
    """
    rank = rs.rank
    free = face.free_coordinates
    parity = [c % 2 for c in face.doubled_rho_sigma]
    if not free:
        return [] if any(parity) else [CoadjointOrbit._doubled((0,) * rank, face)]
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
    if any(parity[i - 1] for i in face.vanishing_set):
        return []
    runs = []
    for i in free:
        lo, hi = per_coord[i]
        first = max(math.ceil(2 * lo), 1)
        runs.append(range(first + (first - parity[i]) % 2, math.floor(2 * hi) + 1, 2))
    total = math.prod(map(len, runs))
    if total > _ORBIT_BOUND:
        raise OrbitRegionTooLarge(f"face {face.label()} has {total} admissible orbits in "
                                  f"the region, more than {_ORBIT_BOUND}")
    orbits = []
    mu2 = [0] * rank
    # the product of ascending ranges is already in lexicographic order
    for combo in itertools.product(*runs):
        for i, c in zip(free, combo):
            mu2[i] = c
        orbits.append(CoadjointOrbit._doubled(tuple(mu2), face))
    return orbits
