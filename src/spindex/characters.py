"""Exact virtual-character arithmetic.

A virtual character is a finite integer combination of torus weights, stored
as a sparse map keyed by exact coordinates.  Irreducible characters are built
by exact division of alternating sums by the Weyl denominator, one binomial
(1 - t^{-beta}) per positive root at a time, and decomposition into
irreducibles runs two independent algorithms - antisymmetrization and peeling
- whose agreement is enforced on every call.  Both run on the dominant
chamber after the invariance check: a Weyl-invariant character is determined
by its dominant weights, and the multiplicities are the strictly dominant
coefficients of chi * A_rho.  The three steps run as builtin passes over one
coordinate column per axis, not term by term; antisymmetrization gathers each
multiplicity by lookups instead of scattering the products.

Characters are indexed by infinitesimal character: ``pi(lam)`` has highest
weight ``lam - rho``.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from itertools import compress, repeat
from math import prod
from operator import add, and_, gt, itemgetter, mul, neg, sub
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
    is_strictly_dominant,
    lattice_point,
    weight,
    weight_from_json,
    weight_to_json,
    wsub,
)


def _lattice_terms(terms, what: str) -> dict[tuple[int, ...], int]:
    """Coefficients summed per weight, zeros dropped, keys as integer tuples."""
    acc: dict[tuple[int, ...], int] = {}
    for w, c in terms.items() if isinstance(terms, Mapping) else terms:
        # integer tuples hash like the Fraction form and keep hot loops on machine integers
        try:
            p = lattice_point(w)
        except ValueError:  # a coordinate that is not a number
            p = None
        if p is None:
            raise NotInShiftedLattice(f"{what} {tuple(w)} is not a lattice weight")
        c = int(c)
        if c:
            acc[p] = acc.get(p, 0) + c
            if acc[p] == 0:
                del acc[p]
    return acc


class VirtualCharacter:
    """Finite integer-coefficient formal sum of lattice weights."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Weight, int] | Iterable[tuple[Weight, int]] = ()):
        self._terms = _lattice_terms(terms, "character weight")

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
        return self._terms.get(lattice_point(w), 0)

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
        """Whether every simple reflection s_i keeps each coefficient: c(s_i w) = c(w)."""
        return _is_invariant(self._terms, rs, _columns(self._terms, rs.rank))

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
        self._mult = _lattice_terms(mult, "infinitesimal character")

    def multiplicities(self) -> dict[Weight, int]:
        return dict(self._mult)

    def multiplicity(self, lam: Weight) -> int:
        return self._mult.get(lattice_point(lam), 0)

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
        acc: dict[tuple[int, ...], int] = {}
        for lam, m in self._mult.items():
            for w, c in weyl_character(lam, rs)._terms.items():
                acc[w] = acc.get(w, 0) + m * c
        return VirtualCharacter._of({w: c for w, c in acc.items() if c})

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


def _require_infinitesimal_character(lam: Weight, rs: RootSystem) -> tuple[int, ...]:
    point = lattice_point(lam)
    if point is None:
        raise NotInShiftedLattice(f"({format_weight(weight(lam))}) has non-integer coordinates")
    if not is_strictly_dominant(point):
        raise NotRegularDominant(f"({format_weight(point)}) is not strictly dominant")
    return point


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
    for x, (parent, _) in _orbit(rs, lam).items():
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
            terms = divide_by_binomial(terms, beta)
        # w - rho with rho = (1, ..., 1): a shift, so the keys stay distinct
        cached = VirtualCharacter._of({tuple(x - 1 for x in w): c for w, c in terms.items()})
        rs.char_cache[("chi", lam)] = cached
    return cached


def dimension(lam: Weight, rs: RootSystem) -> int:
    """Dimension of pi(lam) by the quotient-of-pairings product formula."""
    lam = _require_infinitesimal_character(lam, rs)
    num = prod(rs.coroot_pairing(lam, beta) for beta in rs.positive_roots)
    den = prod(rs.coroot_pairing(rs.rho, beta) for beta in rs.positive_roots)
    dim, rest = divmod(num, den)
    if rest or dim <= 0:
        raise MethodMismatch(
            f"the dimension formula gives {Fraction(num, den)} at ({format_weight(lam)})")
    return dim


def _dominant_part(lam: tuple[int, ...], rs: RootSystem) -> dict[tuple[int, ...], int]:
    """Dominant weights of chi_lam with their multiplicities; cached per root system."""
    cached = rs.char_cache.get(("dominant", lam))
    if cached is None:
        cached = {w: c for w, c in weyl_character(lam, rs)._terms.items() if min(w) >= 0}
        rs.char_cache[("dominant", lam)] = cached
    return cached


def _columns(terms: Iterable[tuple[int, ...]], rank: int) -> list[list[int]]:
    """Coordinate i of every key, in key order, for each axis i."""
    return [list(map(itemgetter(i), terms)) for i in range(rank)]


def _above(cols: list[list[int]], floor: Iterable[int]) -> list[bool]:
    """Per row, whether every coordinate lies strictly above its axis's floor."""
    keep = repeat(True)
    for col, f in zip(cols, floor):
        keep = map(and_, keep, map(gt, col, repeat(f)))
    return list(keep)


def _is_invariant(terms: dict, rs: RootSystem, cols: list[list[int]]) -> bool:
    """c(s_i w) = c(w) on the whole support, for every simple reflection s_i.

    s_i(w) = w - w_i alpha_i moves only the axes in the support of alpha_i;
    the image columns share the others with ``cols``."""
    values = list(terms.values())
    for i, support in enumerate(rs._alpha_support):
        image = cols[:]
        for r, a in support:
            # column r less a times column i; a = 2 on the diagonal, often -1 off it
            image[r] = (map(neg, cols[i]) if r == i else map(add, cols[r], cols[i]) if a == -1
                        else map(sub, cols[r], map(mul, cols[i], repeat(a))))
        if list(map(terms.get, zip(*image))) != values:
            return False
    return True


def _peel(chi: VirtualCharacter, rs: RootSystem, cols: list | None = None) -> dict[Weight, int]:
    """Decompose by repeatedly subtracting the top irreducible.

    The leading weight is the maximal support weight in ``height_key``'s
    (coroot height, lex) order, which makes the dominant member of each Weyl
    orbit maximal.  Then only dominant weights are kept and subtracted, which
    is exact for a Weyl-invariant chi since every chi_lam is invariant too: a
    heap holds them, and a weight that a subtraction brings back is pushed again.
    """
    terms = chi._terms
    if not terms:
        return {}
    cols = cols or _columns(terms, rs.rank)
    heights = repeat(0)
    for f, col in zip(rs._height_fun, cols):
        heights = map(add, heights, map(mul, col, repeat(f)))
    heights = list(heights)
    top = max(zip(heights, terms))[1]
    # Only a direct call can fail here: after the invariance check, top_i < 0 would put
    # s_i(top) = top - top_i alpha_i, of height ht(top) - 2 top_i, in the support.
    if min(top) < 0:
        raise NonDominantLeadingTerm(
            f"leading weight {top} is not dominant; not a character of the group")
    dominant = _above(cols, repeat(-1))
    rem = dict(compress(terms.items(), dominant))
    # heapq pops its least entry, so negate height_key's (height, lex) order
    heap = list(zip(map(neg, compress(heights, dominant)),
                    zip(*[map(neg, compress(col, dominant)) for col in cols]), rem))
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
                heapq.heappush(heap, (-rs.height_key(w)[0], tuple(map(neg, w)), w))
            rem[w] = left
    return out


def _antisymmetrize(chi: VirtualCharacter, rs: RootSystem, cols: list | None = None) -> dict:
    """Multiplicities read off the strictly dominant part of chi * A_rho.

    Gathered rather than scattered: the candidates lam are the strictly dominant
    v + d reached from a weight v of chi and a d in the rho orbit, and each
    m_lam = sum_d sign(d) c(lam - d) adds up one ``terms.get`` pass per d.
    """
    terms = chi._terms
    cols = cols or _columns(terms, rs.rank)
    denominator = weyl_denominator(rs)._terms
    # v + d is strictly dominant when v_i > -d_i on every axis
    near = _above(cols, [-max(d[i] for d in denominator) for i in range(rs.rank)])
    cols = [list(compress(col, near)) for col in cols]
    reached: set[tuple[int, ...]] = set()
    for d in denominator:
        hit = _above(cols, map(neg, d))
        reached.update(zip(*[map(add, compress(col, hit), repeat(x)) for col, x in zip(cols, d)]))
    lams = list(reached)
    lcols = _columns(lams, rs.rank)
    mult = [0] * len(lams)
    for d, s in denominator.items():
        found = zip(*[map(sub, col, repeat(x)) for col, x in zip(lcols, d)])
        mult = list(map(add if s > 0 else sub, mult, map(terms.get, found, repeat(0))))
    return dict(compress(zip(lams, mult), mult))


def decompose(chi: VirtualCharacter, rs: RootSystem) -> Decomposition:
    """Decompose a Weyl-invariant virtual character into irreducibles.

    Splits the weights into coordinate columns once, checks invariance under
    the simple reflections on them, then runs peeling and the gathered
    antisymmetrization on the dominant chamber independently and insists they
    agree; a disagreement is a bug signal, never silently resolved.
    """
    cols = _columns(chi._terms, rs.rank)
    if not _is_invariant(chi._terms, rs, cols):
        raise NotWeylInvariant("input character is not Weyl-invariant")
    by_peeling = _peel(chi, rs, cols)
    by_antisym = _antisymmetrize(chi, rs, cols)
    if by_peeling != by_antisym:
        raise MethodMismatch(f"peeling gave {by_peeling} but antisymmetrization gave {by_antisym}")
    return Decomposition(by_peeling)
