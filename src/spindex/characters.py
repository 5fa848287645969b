"""Exact virtual-character arithmetic.

A virtual character is a finite integer combination of torus weights, stored
as a sparse map keyed by exact coordinates.  Irreducible characters are built
by exact division of alternating sums by the Weyl denominator, one binomial
(1 - t^{-beta}) per positive root at a time, and decomposition into
irreducibles runs two independent algorithms - antisymmetrization and peeling
- whose agreement is enforced on every call.  Both run on the dominant
chamber after the invariance check: a Weyl-invariant character is determined
by its dominant weights, and the multiplicities are the strictly dominant
coefficients of chi * A_rho.

Characters are indexed by infinitesimal character: ``pi(lam)`` has highest
weight ``lam - rho``.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from operator import add, gt
from typing import Iterable, Mapping

from .errors import (
    MethodMismatch,
    NotInShiftedLattice,
    NotRegularDominant,
    NotWeylInvariant,
    NonDominantLeadingTerm,
)
from .roots import RootSystem, _orbit
from .weights import (
    Weight,
    format_weight,
    is_integral,
    is_strictly_dominant,
    weight_from_json,
    weight_to_json,
    wsub,
)


def _as_int(x) -> int:
    if isinstance(x, int):
        return x
    f = Fraction(x)
    if f.denominator != 1:
        raise ValueError(f"{x} is not an integer")
    return f.numerator


class VirtualCharacter:
    """Finite integer-coefficient formal sum of lattice weights."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Weight, int] | Iterable[tuple[Weight, int]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[tuple[int, ...], int] = {}
        for w, c in items:
            # store integer tuples: they hash and compare equal to the
            # Fraction form, and keep the hot loops on machine integers
            try:
                w = tuple(_as_int(x) for x in w)
            except ValueError:
                raise NotInShiftedLattice(
                    f"character weight {tuple(w)} is not a lattice weight") from None
            c = int(c)
            if c:
                acc[w] = acc.get(w, 0) + c
                if acc[w] == 0:
                    del acc[w]
        self._terms = acc

    @classmethod
    def zero(cls) -> "VirtualCharacter":
        return cls()

    @classmethod
    def _of(cls, terms: dict[tuple[int, ...], int]) -> "VirtualCharacter":
        """Wrap int-tuple keys with nonzero coefficients without normalizing them."""
        out = cls()
        out._terms = terms
        return out

    @classmethod
    def monomial(cls, w: Weight, coeff: int = 1) -> "VirtualCharacter":
        return cls([(w, coeff)])

    def terms(self) -> dict[Weight, int]:
        return dict(self._terms)

    def coefficient(self, w: Weight) -> int:
        return self._terms.get(tuple(Fraction(x) for x in w), 0)

    def support(self) -> list[Weight]:
        return sorted(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, VirtualCharacter) and self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __add__(self, other: "VirtualCharacter") -> "VirtualCharacter":
        acc = dict(self._terms)
        for w, c in other._terms.items():
            acc[w] = acc.get(w, 0) + c
            if acc[w] == 0:
                del acc[w]
        return VirtualCharacter._of(acc)

    def __neg__(self) -> "VirtualCharacter":
        return VirtualCharacter._of({w: -c for w, c in self._terms.items()})

    def __sub__(self, other: "VirtualCharacter") -> "VirtualCharacter":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return VirtualCharacter.zero()
            return VirtualCharacter._of({w: c * other for w, c in self._terms.items()})
        if isinstance(other, VirtualCharacter):
            acc: dict[tuple[int, ...], int] = {}
            for w1, c1 in self._terms.items():
                for w2, c2 in other._terms.items():
                    key = tuple(a + b for a, b in zip(w1, w2))
                    acc[key] = acc.get(key, 0) + c1 * c2
            return VirtualCharacter._of({w: c for w, c in acc.items() if c})
        return NotImplemented

    __rmul__ = __mul__

    def is_weyl_invariant(self, rs: RootSystem) -> bool:
        """Whether every simple reflection s_i keeps each coefficient: c(s_i w) = c(w).

        s_i swaps the weights with w_i > 0 and those with w_i < 0, so it is
        enough that both sides hold as many terms and that c(s_i w) = c(w) on
        the first.
        """
        terms = self._terms
        for i in range(rs.rank):
            up = [(w, c) for w, c in terms.items() if w[i] > 0]
            if len(up) != sum(1 for w in terms if w[i] < 0):
                return False
            for w, c in up:
                if terms.get(rs.reflect(i, w)) != c:
                    return False
        return True

    def to_json_obj(self) -> list[dict]:
        return [
            {"weight": weight_to_json(w), "coeff": c}
            for w, c in sorted(self._terms.items())
        ]

    @classmethod
    def from_json_obj(cls, obj) -> "VirtualCharacter":
        return cls([(weight_from_json(e["weight"]), int(e["coeff"])) for e in obj])

    def __repr__(self) -> str:
        if not self._terms:
            return "VirtualCharacter(0)"
        parts = [f"{c}*t^({format_weight(w)})" for w, c in sorted(self._terms.items())]
        return "VirtualCharacter(" + " + ".join(parts) + ")"


class Decomposition:
    """Multiplicities of irreducibles, keyed by infinitesimal character."""

    __slots__ = ("_mult",)

    def __init__(self, mult: Mapping[Weight, int] | Iterable[tuple[Weight, int]] = ()):
        items = mult.items() if isinstance(mult, Mapping) else mult
        acc: dict[tuple[int, ...], int] = {}
        for lam, m in items:
            # integer tuples, as in VirtualCharacter
            try:
                lam = tuple(_as_int(x) for x in lam)
            except ValueError:
                raise NotInShiftedLattice(
                    f"infinitesimal character {tuple(lam)} is not a lattice weight") from None
            m = int(m)
            if m:
                acc[lam] = acc.get(lam, 0) + m
                if acc[lam] == 0:
                    del acc[lam]
        self._mult = acc

    def multiplicities(self) -> dict[Weight, int]:
        return dict(self._mult)

    def multiplicity(self, lam: Weight) -> int:
        return self._mult.get(tuple(Fraction(x) for x in lam), 0)

    def items_sorted(self) -> list[tuple[Weight, int]]:
        return sorted(self._mult.items())

    def __bool__(self) -> bool:
        return bool(self._mult)

    def __len__(self) -> int:
        return len(self._mult)

    def __eq__(self, other) -> bool:
        return isinstance(other, Decomposition) and self._mult == other._mult

    def __hash__(self):
        return hash(frozenset(self._mult.items()))

    def reconstruct(self, rs: RootSystem) -> VirtualCharacter:
        """Sum of m_lam * chi_lam; exact inverse of decompose."""
        total = VirtualCharacter.zero()
        for lam, m in self._mult.items():
            total = total + m * weyl_character(lam, rs)
        return total

    def to_json_obj(self, rs: RootSystem) -> list[dict]:
        return [
            {
                "infinitesimal_character": weight_to_json(lam),
                "highest_weight": weight_to_json(wsub(lam, rs.rho)),
                "multiplicity": m,
                "dimension": dimension(lam, rs),
            }
            for lam, m in self.items_sorted()
        ]

    def __repr__(self) -> str:
        if not self._mult:
            return "Decomposition(0)"
        parts = [f"pi({format_weight(l)})^{m}" for l, m in self.items_sorted()]
        return "Decomposition(" + " + ".join(parts) + ")"


def _require_infinitesimal_character(lam: Weight, rs: RootSystem) -> Weight:
    lam = tuple(Fraction(x) for x in lam)
    if not is_integral(lam):
        raise NotInShiftedLattice(f"{lam} has non-integer coordinates")
    if not is_strictly_dominant(lam):
        raise NotRegularDominant(f"{lam} is not strictly dominant")
    return lam


def weyl_denominator(rs: RootSystem) -> VirtualCharacter:
    """Alternating sum over the rho orbit; cached per root system."""
    cached = rs.char_cache.get("denominator")
    if cached is None:
        cached = _alternating_sum(rs.rho, rs)
        rs.char_cache["denominator"] = cached
    return cached


def _alternating_sum(lam: Weight, rs: RootSystem) -> VirtualCharacter:
    """sum_w sign(w) t^{w lam} for a regular lam: its orbit is free, and sign(w)
    is the parity of the depth of w(lam) in the walk."""
    sign: dict[Weight, int] = {}
    for x, (parent, _) in _orbit(rs, tuple(_as_int(c) for c in lam)).items():
        sign[x] = 1 if parent is None else -sign[parent]
    return VirtualCharacter(sign)


def divide_by_binomial(terms: Mapping[tuple[int, ...], int], a: tuple[int, ...]) -> dict:
    """Exact quotient P / (1 - t^{-a}) of a Laurent polynomial by one binomial.

    The quotient is the running sum Q(x) = sum_{j>=0} P(x + j a) along each
    a-string; it is a Laurent polynomial exactly when every a-string of P sums
    to zero, and a nonzero tail raises MethodMismatch.
    """
    # x = base + k a with base[i] the residue of x[i] modulo a[i]
    i = next(n for n, c in enumerate(a) if c)
    strings: dict[tuple[int, ...], dict[int, int]] = {}
    for x, c in terms.items():
        k = x[i] // a[i]
        strings.setdefault(tuple(u - k * v for u, v in zip(x, a)), {})[k] = c
    quot: dict[tuple[int, ...], int] = {}
    for base, coeffs in strings.items():
        run = 0
        for k in range(max(coeffs), min(coeffs) - 1, -1):
            run += coeffs.get(k, 0)
            if run:
                quot[tuple(u + k * v for u, v in zip(base, a))] = run
        if run:
            raise MethodMismatch(f"not divisible by (1 - t^-({format_weight(a)})): the "
                                 f"string through ({format_weight(base)}) leaves {run}")
    return quot


def weyl_character(lam: Weight, rs: RootSystem) -> VirtualCharacter:
    """Character of the irreducible with infinitesimal character lam.

    Satisfies chi * D = sum_w sign(w) e^{w lam} with D the Weyl denominator
    t^rho prod_{beta>0} (1 - t^{-beta}), so chi is t^{-rho} times the
    alternating sum divided by one binomial per positive root; cached per
    root system.
    """
    lam = _require_infinitesimal_character(lam, rs)
    cached = rs.char_cache.get(("chi", lam))
    if cached is None:
        terms = _alternating_sum(lam, rs)._terms
        for beta in rs.positive_roots:
            terms = divide_by_binomial(terms, tuple(_as_int(c) for c in beta))
        cached = VirtualCharacter((wsub(w, rs.rho), c) for w, c in terms.items())
        rs.char_cache[("chi", lam)] = cached
    return cached


def dimension(lam: Weight, rs: RootSystem) -> int:
    """Dimension of pi(lam) by the quotient-of-pairings product formula."""
    lam = _require_infinitesimal_character(lam, rs)
    num = Fraction(1)
    for beta in rs.positive_roots:
        num *= rs.coroot_pairing(lam, beta) / rs.coroot_pairing(rs.rho, beta)
    if num.denominator != 1 or num <= 0:
        raise MethodMismatch(f"the dimension formula gives {num} at ({format_weight(lam)})")
    return int(num)


def _heap_entry(w: tuple[int, ...], rs: RootSystem) -> tuple:
    # heapq pops its least entry, so negate height_key's (height, lex) order
    ht, _ = rs.height_key(w)
    return -ht, tuple(-x for x in w), w


def _dominant_part(lam: tuple[int, ...], rs: RootSystem) -> dict[tuple[int, ...], int]:
    """Dominant weights of chi_lam with their multiplicities; cached per root system."""
    cached = rs.char_cache.get(("dominant", lam))
    if cached is None:
        cached = {w: c for w, c in weyl_character(lam, rs)._terms.items() if min(w) >= 0}
        rs.char_cache[("dominant", lam)] = cached
    return cached


def _peel(chi: VirtualCharacter, rs: RootSystem) -> dict[Weight, int]:
    """Decompose by repeatedly subtracting the top irreducible.

    The leading weight is the maximal support weight under the (coroot
    height, lex) order; height makes the dominant member of each Weyl orbit
    maximal, which literal lex alone does not.  The top of the full support is
    tested once.  After that only dominant weights are kept and subtracted,
    which is exact for a Weyl-invariant chi because every chi_lam is
    Weyl-invariant too: a heap holds the remaining dominant weights, and a
    weight that a subtraction brings back is pushed again.
    """
    if chi:
        top = max(chi._terms, key=rs.height_key)
        if min(top) < 0:
            raise NonDominantLeadingTerm(
                f"leading weight {top} is not dominant; not a character of the group")
    rem = {w: c for w, c in chi._terms.items() if min(w) >= 0}
    heap = [_heap_entry(w, rs) for w in rem]
    heapq.heapify(heap)
    out: dict[Weight, int] = {}
    while heap:
        nu = heapq.heappop(heap)[-1]
        c = rem.get(nu)
        if c is None:
            continue  # cancelled after it was pushed
        lam = tuple(x + 1 for x in nu)  # nu + rho; rho = (1, ..., 1)
        out[lam] = c
        for w, m in _dominant_part(lam, rs).items():
            left = rem.get(w, 0) - c * m
            if not left:
                del rem[w]
                continue
            if w not in rem:
                heapq.heappush(heap, _heap_entry(w, rs))
            rem[w] = left
    return out


def _antisymmetrize(chi: VirtualCharacter, rs: RootSystem) -> dict[Weight, int]:
    """Multiplicities read off the strictly dominant part of chi * A_rho.

    Only the products t^{v + d} that land strictly dominant are added up,
    with d running over the rho orbit; so a weight v of chi can contribute
    only when v_i > -max_d d_i on every axis.
    """
    denominator = weyl_denominator(rs)._terms
    floor = [-max(d[i] for d in denominator) for i in range(rs.rank)]
    near = [(v, c) for v, c in chi._terms.items() if all(map(gt, v, floor))]
    acc: dict[Weight, int] = {}
    for d, s in denominator.items():
        for v, c in near:
            x = tuple(map(add, v, d))
            if min(x) > 0:
                acc[x] = acc.get(x, 0) + s * c
    return {x: m for x, m in acc.items() if m}


def decompose(chi: VirtualCharacter, rs: RootSystem) -> Decomposition:
    """Decompose a Weyl-invariant virtual character into irreducibles.

    Checks invariance under the simple reflections, then runs
    antisymmetrization and peeling on the dominant chamber independently and
    insists they agree; a disagreement is a bug signal, never silently
    resolved.
    """
    if not chi.is_weyl_invariant(rs):
        raise NotWeylInvariant("input character is not Weyl-invariant")
    by_peeling = _peel(chi, rs)
    by_antisym = _antisymmetrize(chi, rs)
    if by_peeling != by_antisym:
        raise MethodMismatch(
            f"peeling gave {by_peeling} but antisymmetrization gave {by_antisym}")
    return Decomposition(by_peeling)
