"""Exact virtual-character arithmetic.

A virtual character is a finite integer combination of torus weights, stored
as a sparse map keyed by exact coordinates.  Irreducible characters are built
by exact division of alternating sums by the Weyl denominator, one binomial
(1 - t^{-beta}) per positive root at a time.  Decomposition builds none: after
the invariance check, the multiplicities are the strictly dominant
coefficients of chi * A_rho (Weyl's character formula; J. E. Humphreys,
*Introduction to Lie Algebras and Representation Theory*, section 24),
scattered over only the pairs (weight of chi, element of the rho orbit) whose
sum lands in the open chamber, and an exact evaluation of the Weyl character
formula at a point of the torus over F_p confirms them on every call.

Characters are indexed by infinitesimal character: ``pi(lam)`` has highest
weight ``lam - rho``.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import compress, repeat
from math import prod
from operator import add, and_, gt, itemgetter, mul, neg, not_, sub
from typing import Iterable, Mapping

from .errors import (
    MethodMismatch,
    NotInShiftedLattice,
    NotRegularDominant,
    NotWeylInvariant,
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

_PRIME = 2 ** 61 - 1  # the field of every exact evaluation at a point of the torus


def _lattice_terms(terms, what: str) -> dict[tuple[int, ...], int]:
    """Coefficients summed per weight, zeros dropped, keys as integer tuples."""
    acc: dict[tuple[int, ...], int] = {}
    for w, c in terms.items() if isinstance(terms, Mapping) else terms:
        # integer tuples hash like the Fraction form and keep hot loops on machine integers
        try:
            p = lattice_point(w)
        except (ValueError, TypeError, OverflowError):  # a coordinate that is not a finite number
            raise NotInShiftedLattice(f"{what} {tuple(w)} is not a lattice weight") from None
        if p is None:
            raise NotInShiftedLattice(
                f"{what} ({format_weight(weight(w))}) is not a lattice weight")
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


def _columns(terms: Iterable[tuple[int, ...]], rank: int) -> list[list[int]]:
    """Coordinate i of every key, in key order, for each axis i."""
    return [list(map(itemgetter(i), terms)) for i in range(rank)]


def _above(cols: list[list[int]], floor: Iterable[int]) -> list[bool]:
    """Per row, whether every coordinate lies strictly above its axis's floor."""
    first, *rest = [map(gt, col, repeat(f)) for col, f in zip(cols, floor)]
    for keep in rest:
        first = map(and_, first, keep)
    return list(first)


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


def _chamber_masks(rs: RootSystem) -> tuple[list, list]:
    """The terms (d, sign(d)) of A_rho, and per axis i the d that lift each
    coordinate v_i into the open chamber; kept on the root system.

    v + d is strictly dominant exactly when v_i + d_i > 0 on every axis.  On
    axis i, no d does that while v_i < low = 1 - max_d d_i, and every d does
    once v_i >= top = 1 - min_d d_i.  Each axis is kept as (low, top, masks):
    masks maps each v_i in [low, top] to the bit set (bit j for the j-th d)
    of the d with v_i + d_i > 0, and top stands for every larger v_i.  That is
    sum_i (max_d d_i - min_d d_i + 1) sets of |W| bits, a size fixed by the
    root system.
    """
    cached = rs.char_cache.get("chamber")
    if cached is None:
        ds = list(weyl_denominator(rs)._terms.items())
        axes = []
        for i in range(rs.rank):
            at: dict[int, int] = {}  # d_i -> the bits of the d with that coordinate
            for j, (d, _) in enumerate(ds):
                at[d[i]] = at.get(d[i], 0) | 1 << j
            low, top = 1 - max(at), 1 - min(at)
            masks, bits = {}, 0
            for x in range(low, top + 1):
                bits = masks[x] = bits | at.get(1 - x, 0)
            axes.append((low, top, masks))
        cached = rs.char_cache["chamber"] = (ds, axes)
    return cached


def _antisymmetrize(chi: VirtualCharacter, rs: RootSystem, cols: list | None = None) -> dict:
    """Multiplicities read off the strictly dominant part of chi * A_rho.

    Scattered over exactly the pairs (v, d), v a weight of chi and d in the
    rho orbit, with v + d strictly dominant (``_chamber_masks``).  A weight
    deep in the chamber, where every d lands, takes one column pass per d;
    every other weight near the chamber takes, one at a time, the d that the
    masks of its coordinates allow.  A landing lam has 1 <= lam_i <=
    max_v v_i + max_d d_i, so the sums run on one packed int per weight, and
    only the nonzero multiplicities are unpacked.
    """
    ds, axes = _chamber_masks(rs)
    cols = cols or _columns(chi._terms, rs.rank)
    near = _above(cols, [low - 1 for low, _, _ in axes])
    cols = [list(compress(col, near)) for col in cols]
    if not cols[0]:
        return {}
    values = list(compress(chi._terms.values(), near))
    strides, radix = [], 1
    for col, (low, _, _) in zip(cols, axes):
        strides.append(radix)
        radix *= max(col) + 2 - low
    packed = repeat(0)
    for col, stride in zip(cols, strides):
        packed = map(add, packed, map(mul, col, repeat(stride)))
    packed = list(packed)
    shifts = [(sum(map(mul, d, strides)), s) for d, s in ds]
    deep = _above(cols, [top - 1 for _, top, _ in axes])
    acc: dict[int, int] = {}
    dpacked, dvalues = list(compress(packed, deep)), list(compress(values, deep))
    signed = {1: dvalues, -1: list(map(neg, dvalues))}
    for shift, s in shifts:
        keys = list(map(add, dpacked, repeat(shift)))
        # the keys of one shift are distinct, so one read and one write per key suffice
        acc.update(zip(keys, map(add, map(acc.get, keys, repeat(0)), signed[s])))
    shallow = list(map(not_, deep))
    allowed = repeat(-1)
    for col, (_, top, masks) in zip(cols, axes):
        clipped = map(min, compress(col, shallow), repeat(top))
        allowed = map(and_, allowed, map(masks.__getitem__, clipped))
    landing: dict[int, list] = {}  # a mask -> its (shift, sign) pairs
    for key, c, mask in zip(compress(packed, shallow), compress(values, shallow), allowed):
        if mask not in landing:
            # bit j of the mask is character j of its binary digits, read backwards
            landing[mask] = list(compress(shifts, map("1".__eq__, reversed(bin(mask)))))
        for shift, s in landing[mask]:
            acc[key + shift] = acc.get(key + shift, 0) + s * c
    mult = {}
    for key, m in compress(acc.items(), acc.values()):
        lam = []
        for stride in reversed(strides):
            x, key = divmod(key, stride)
            lam.append(x)
        mult[tuple(reversed(lam))] = m
    return mult


def _at(y, x) -> int:
    """The monomial t^x at the point y of the torus over F_p: prod_i y_i^{x_i} mod p."""
    return prod(pow(yi, xi, _PRIME) for yi, xi in zip(y, x)) % _PRIME


def _torus_point(rs: RootSystem) -> tuple:
    """A seeded point y over F_p (redrawn while A_rho(y) = 0), the frames (sign(w),
    [y^{w omega_j}]_j) of W from one walk of the rho orbit, and A_rho(y); cached."""
    cached = rs.char_cache.get("point")
    if cached is None:
        images = {rs.rho: (1, [tuple(int(j == k) for k in range(rs.rank)) for j in range(rs.rank)])}
        for x, (parent, i) in list(_orbit(rs, rs.rho).items())[1:]:
            sign, omegas = images[parent]
            images[x] = (-sign, [rs.reflect(i, w) for w in omegas])  # w omega_j = s_i(w' omega_j)
        rng, a_rho = random.Random(0), 0
        while not a_rho:
            y = [rng.randrange(1, _PRIME) for _ in range(rs.rank)]
            frames = [(sign, [_at(y, w) for w in omegas]) for sign, omegas in images.values()]
            a_rho = _alternating_at({rs.rho: 1}, frames)
        cached = rs.char_cache["point"] = (y, frames, a_rho)
    return cached


def _alternating_at(mult: dict, frames) -> int:
    """sum_lam m_lam A_lam(y) mod p, with A_lam(y) = sum_w sign(w) prod_j z_{w,j}^{lam_j}."""
    return sum(m * sign * prod(map(pow, z, lam, repeat(_PRIME)))
               for lam, m in mult.items() for sign, z in frames) % _PRIME


def _value_at(terms: dict, cols: list[list[int]], y: list[int]) -> int:
    """sum_w c_w prod_i y_i^{w_i} mod p: one table per axis holds y_i^k for each
    distinct k of column i, walked in order with one pow per gap, so a term
    costs one lookup per axis whatever the span of its column."""
    acc = terms.values()
    for col, yi in zip(cols, y):
        table, x, last = {}, 1, 0
        for k in sorted(set(col)):
            table[k] = x = x * pow(yi, k - last, _PRIME) % _PRIME
            last = k
        acc = map(mul, acc, map(table.__getitem__, col))
    return sum(acc) % _PRIME


def decompose(chi: VirtualCharacter, rs: RootSystem) -> Decomposition:
    """Decompose a Weyl-invariant virtual character into irreducibles.

    Splits the weights into coordinate columns once, checks invariance under
    the simple reflections on them and antisymmetrizes on the dominant chamber.
    The Weyl character formula, chi(y) A_rho(y) = sum_lam m_lam A_lam(y) at a
    seeded point y over F_p, confirms the answer on its own: a wrong
    multiplicity passes with probability about (degree)/p, else MethodMismatch.
    """
    terms = chi._terms
    cols = _columns(terms, rs.rank)
    if not _is_invariant(terms, rs, cols):
        raise NotWeylInvariant("input character is not Weyl-invariant")
    mult = _antisymmetrize(chi, rs, cols)
    y, frames, a_rho = _torus_point(rs)
    if _value_at(terms, cols, y) * a_rho % _PRIME != _alternating_at(mult, frames):
        raise MethodMismatch("antisymmetrization fails the Weyl character formula over F_p")
    return Decomposition(mult)
