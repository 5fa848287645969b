"""Orbit enumeration oracle for the tests.

``spindex.orbits`` walks each free coordinate of ``2 mu`` as a range of ints
and builds each orbit unchecked.  Here are the same two steps as the package
ran them on ``Fraction`` coordinates: each free coordinate of ``mu`` starts at
the least admissible value above the lower bound, found from the residue of
``rho - rho_sigma`` mod 1, and steps by 1; every orbit goes through the
checked ``CoadjointOrbit`` constructor, and its index is read off the
denominators of ``mu``.
"""

import itertools
import math
from fractions import Fraction

from spindex.errors import EmptyFaceRegion, NotAdmissible, OrbitRegionTooLarge
from spindex.orbits import CoadjointOrbit, OrbitIndex
from spindex.roots import _ORBIT_BOUND, is_regular
from spindex.weights import is_dominant, wsub


def _admissible_run(base_residue, lo, hi):
    """The least c > 0 in [lo, hi] congruent to base_residue mod 1, and how many
    values c, c + 1, ... stay at most hi."""
    start = max(lo, Fraction(0))
    c = start + (base_residue - start) % 1
    if c == 0:
        c += 1
    return c, max(0, math.floor(hi - c) + 1)


def admissible_orbits_on_face(face, bounds, rs):
    """The admissible orbits in the region, sorted, each built by the checked constructor."""
    free = face.free_coordinates
    shift = wsub(rs.rho, face.rho_sigma)
    if not free:
        mu = tuple(Fraction(0) for _ in range(rs.rank))
        return [CoadjointOrbit(mu, face)] if all(c.denominator == 1 for c in shift) else []
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
    if any(shift[i - 1].denominator != 1 for i in face.vanishing_set):
        return []
    runs = [_admissible_run(shift[i] % 1, *per_coord[i]) for i in free]
    total = math.prod(n for _, n in runs)
    if total > _ORBIT_BOUND:
        raise OrbitRegionTooLarge(f"face {face.label()} has {total} admissible orbits in "
                                  f"the region, more than {_ORBIT_BOUND}")
    orbits = []
    for combo in itertools.product(*([c + k for k in range(n)] for c, n in runs)):
        mu = [Fraction(0)] * rs.rank
        for i, c in zip(free, combo):
            mu[i] = c
        orbits.append(CoadjointOrbit(tuple(mu), face))
    return orbits


def orbit_spin_index(orbit, rs):
    """Zero on a wall, else pi(mu + rho_sigma), from the Fraction coordinates of mu."""
    denominators = [(1 - c).denominator for c in orbit.face.rho_sigma]
    mu = [Fraction(c) for c in orbit.mu]
    if any(c.denominator != d for c, d in zip(mu, denominators)):
        raise NotAdmissible(f"orbit {orbit.label()} is not admissible")
    shifted = tuple((c.numerator + s.numerator) // c.denominator
                    for c, s in zip(mu, orbit.face.rho_sigma))
    if not is_regular(shifted, rs):
        return OrbitIndex.zero()
    if not is_dominant(shifted):
        raise NotAdmissible(f"orbit {orbit.label()} shifts to a non-dominant weight")
    return OrbitIndex.irreducible(shifted)
