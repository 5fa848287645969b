"""Exception types shared across the package.

Everything raised on bad mathematical input derives from ``SpindexError`` so
the CLI can map computation failures to a single exit code.
"""

from __future__ import annotations


class SpindexError(Exception):
    """Base class for all domain errors raised by this package."""


class UnknownType(SpindexError):
    """Unrecognized group type label or malformed Cartan matrix."""


class WeylGroupTooLarge(SpindexError):
    """A Weyl orbit walk passed its fixed bound of 2^16 points."""


class FaceListTooLarge(SpindexError):
    """A group has more than 2^16 chamber faces to list."""


class NotDominant(SpindexError):
    """A weight required to be dominant has a negative coordinate."""


class NotAdmissible(SpindexError):
    """A coadjoint orbit fails the admissibility lattice condition."""


class NotOnFace(SpindexError):
    """An orbit representative does not lie in the relative interior of its face."""


class EmptyFaceRegion(SpindexError):
    """An enumeration region for a face is empty or missing bounds."""


class OrbitRegionTooLarge(SpindexError):
    """A bounded face region holds more than 2^16 admissible orbits to list."""


class NotRegularDominant(SpindexError):
    """A weight required to be strictly dominant lies on a wall."""


class NotInShiftedLattice(SpindexError):
    """A weight has non-integer coordinates where integral ones are required."""


class NotWeylInvariant(SpindexError):
    """A character fed to the decomposer is not Weyl-invariant."""


class MethodMismatch(SpindexError):
    """Independent methods disagree, or an exact division leaves a remainder."""


class ParityViolation(SpindexError):
    """Fixed-point data admits no spin-c structure with the given determinant."""


class ExpansionTooLarge(SpindexError):
    """An expansion series or fixed-point sum passed 2^24 terms, 62-bit words or int64 sums."""


class UnstableCutoff(SpindexError):
    """The fixed-point sum is not finite: a term survives below the opposite cone's support bound."""


class ProviderMissingOrbit(SpindexError):
    """A table provider has no entry for a required orbit."""


class ProviderInvalid(SpindexError):
    """A reduced-index provider is used outside its validity domain."""
