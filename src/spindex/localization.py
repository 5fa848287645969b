"""Fixed-point localization for equivariant spin-c indices.

A manifold enters as a finite list of isolated torus-fixed points, each
carrying the determinant-line weight eta_p and the list of tangent weights,
stored as int tuples.  The index is the finite Laurent polynomial

    sum_p  t^{eta_p/2} prod_j (t^{alpha_pj/2} - t^{-alpha_pj/2})^{-1},

computed by orienting every tangent weight against a generic integral
direction xi (each flip contributes a sign), expanding each inverted factor as
a geometric series t^{-alpha/2} sum_k t^{-k alpha}, truncating at a pairing
depth along xi, and summing over fixed points.  The depth follows from the
model, and so does the direction: the first generic point
h + (k, k^2, ..., k^r), k = 0, 1, 2, ..., of the moment curve through
h = 2 rho-check.  k = 0 gives h, which is generic for every orbit model, as
their tangent weights are roots.  Every generic direction expands to the
same character.
Expanded so, a point's terms pair at most base_p = <nu_p, xi>; expanded in
the opposite cone, 1/(1 - t^{-a}) = -sum_{k>=1} t^{k a}, at least base_p +
total_p, with total_p the sum of its oriented pairings.  A finite sum lies
in [min_p (base_p + total_p), max_p base_p] along xi; the depth reaches
below, and a term surviving there proves the sum not finite (UnstableCutoff).
A series that would pass _SERIES_BOUND terms raises ExpansionTooLarge before
it is laid out, as does a sum over fixed points before its buffer is made.

Fixed points that share a multiset of oriented tangent weights (in an orbit
model, many Weyl translates do) share one series prod_a 1/(1 - t^{-a}): it is
expanded once, to the depth of the deepest of them, and each point takes the
part within its own depth, shifted to its base point and signed.  The series
is built one factor at a time, each factor a running sum along the strings
of its weight, so every step costs what it outputs.  It depends only on the
oriented weights and their pairings with xi, so it is kept on the root system
as coordinates, in order of pairing, and later models of the group take a
prefix of it; a deeper request expands it again in place of the old one.

The per-fixed-point parity condition eta_p - sum_j alpha_pj in 2*Lambda is
checked at construction: it is exactly what makes every exponent above land in
the weight lattice.

All exponent bookkeeping runs on packed int64 lattice keys under numpy, with
explicit bound checks so the arithmetic stays exact.  Each term of the sum over
fixed points is one word, key above coefficient (_word_bits), so one in-place
sort merges them, and pairings with xi are computed only for survivors.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat
from operator import and_, mul, sub

import numpy as np

from .characters import _PRIME, VirtualCharacter, _at, _columns, _value_at
from .errors import (
    ExpansionTooLarge,
    NotAdmissible,
    ParityViolation,
    SpindexError,
    UnstableCutoff,
)
from .orbits import CoadjointOrbit, admissible_orbits_on_face, is_admissible
from .roots import (
    Face,
    RootSystem,
    StabilizerClass,
    _face_point,
    _orbit,
    _zero_set,
    build_root_system,
    dominant_representative,
    face_from_vanishing_set,
    face_of,
    stabilizer_class_of_face,
)
from .weights import (
    Weight,
    format_weight,
    is_dominant,
    lattice_point,
    wadd,
    weight,
    weight_from_json,
    weight_to_json,
    wneg,
    wscale,
    wsub,
)

_SERIES_BOUND = 2 ** 24  # terms of one series, and of the sum over fixed points before it merges

_SHARED_ROOT_SYSTEMS: dict[str, RootSystem] = {}


def _shared_root_system(spec) -> RootSystem:
    """One root system per group label or Cartan matrix, shared by the models built on it."""
    key = spec if isinstance(spec, str) else repr(spec)  # a key even for a malformed matrix
    if key not in _SHARED_ROOT_SYSTEMS:
        _SHARED_ROOT_SYSTEMS[key] = build_root_system(spec)
    return _SHARED_ROOT_SYSTEMS[key]


@dataclass(frozen=True)
class FixedPointDatum:
    """Local data at one isolated fixed point: determinant weight and tangent weights.

    Both are stored as int tuples, which compare and hash equal to the
    Fraction tuples they may be given as.  Construction checks that both are
    integral and of one length, that no tangent weight is zero, and the parity
    of eta - sum(tangent weights).
    """

    label: str
    det_weight: tuple[int, ...]
    tangent_weights: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        det = lattice_point(self.det_weight)
        if det is None:
            raise ParityViolation(
                f"fixed point {self.label!r}: determinant weight must be integral")
        tangents = _checked_tangents(self.label, self.tangent_weights, len(det))
        gap = _less_sum(det, tangents)
        if any(c % 2 for c in gap):
            raise _parity_violation(self.label, gap)
        object.__setattr__(self, "det_weight", det)
        object.__setattr__(self, "tangent_weights", tangents)

    @classmethod
    def _checked(cls, label: str, det_weight, tangent_weights) -> "FixedPointDatum":
        """A datum whose checks its caller has made; __post_init__ does not run."""
        fp = object.__new__(cls)
        vars(fp).update(label=label, det_weight=det_weight, tangent_weights=tangent_weights)
        return fp


def _checked_tangents(label: str, weights, rank: int) -> tuple[tuple[int, ...], ...]:
    """The tangent weights as int tuples, each integral, nonzero and of ``rank`` coordinates."""
    out = []
    for a in weights:
        t = lattice_point(a)
        if t is None:
            raise ParityViolation(f"fixed point {label!r}: tangent weight "
                                  f"({format_weight(weight(a))}) must be integral")
        if len(t) != rank:
            raise SpindexError(
                f"fixed point {label!r}: tangent weight ({format_weight(t)}) has "
                f"{len(t)} coordinates but the determinant weight has {rank}")
        if not any(t):
            raise ParityViolation(
                f"fixed point {label!r}: zero tangent weight (fixed points must be isolated)")
        out.append(t)
    return tuple(out)


def _parity_violation(label: str, gap) -> ParityViolation:
    return ParityViolation(
        f"fixed point {label!r}: eta - sum(tangent weights) = ({format_weight(gap)}) is "
        f"not in 2*Lambda; no spin-c structure has this determinant")


def _less_sum(w: tuple[int, ...], ws) -> tuple[int, ...]:
    """w - sum(ws), in one pass over the coordinates; all lengths must agree."""
    return tuple(c - sum(cs) for c, *cs in zip(w, *ws, strict=True))


@dataclass(frozen=True)
class KirwanPiece:
    """Declared portion of the Kirwan set lying in the closure of one face.

    Ray faces may carry closed segments along the ray; any face may carry a
    finite point list, read as the convex hull of the points.  Membership in
    that hull is one exact linear feasibility problem (``_in_hull``), so a
    piece may hold any number of points.
    """

    face: Face
    segments: tuple[tuple[Fraction, Fraction], ...] = ()
    points: tuple[Weight, ...] = ()

    def __post_init__(self):
        object.__setattr__(
            self, "segments",
            tuple((Fraction(lo), Fraction(hi)) for lo, hi in self.segments))
        object.__setattr__(self, "points", tuple(weight(p) for p in self.points))


@dataclass(frozen=True)
class KirwanSet:
    pieces: tuple[KirwanPiece, ...]

    def __post_init__(self):
        object.__setattr__(self, "pieces", tuple(self.pieces))


@dataclass(frozen=True, eq=False)
class ManifoldModel:
    """A spin-c K-manifold at localization resolution.

    Fixed-point data drives the index; the generic stabilizer class and the
    declared Kirwan set are metadata consumed by the reduction bookkeeping.
    """

    root_system: RootSystem
    fixed_points: tuple[FixedPointDatum, ...]
    generic_stabilizer: StabilizerClass
    kirwan: KirwanSet
    name: str
    info: tuple[tuple[str, str], ...] = field(default=())

    def __post_init__(self):
        object.__setattr__(self, "fixed_points", tuple(self.fixed_points))
        object.__setattr__(self, "info", tuple(self.info))
        rs = self.root_system
        for fp in self.fixed_points:
            # FixedPointDatum checks parity when it is built, so every model's data passes it
            if not isinstance(fp, FixedPointDatum):
                raise SpindexError(
                    f"fixed point {fp!r} is a {type(fp).__name__}, not a FixedPointDatum")
            if len(fp.det_weight) != rs.rank:
                raise SpindexError(
                    f"fixed point {fp.label!r} has rank-{len(fp.det_weight)} data "
                    f"but the group has rank {rs.rank}")
        for piece in self.kirwan.pieces:
            honest = face_from_vanishing_set(piece.face.vanishing_set, rs)
            if piece.face != honest:
                raise SpindexError(
                    f"Kirwan piece face {piece.face.label()} is not a chamber face")
            if piece.segments:
                _free_coordinate(piece.face)  # raises unless a ray face
            for lo, hi in piece.segments:
                if lo < 0 or hi < lo:
                    raise SpindexError(f"malformed Kirwan segment [{lo}, {hi}]")
            for p in piece.points:
                if len(p) != rs.rank or not is_dominant(p):
                    raise SpindexError(
                        f"Kirwan point ({format_weight(p)}) is not in the dominant chamber")
                if any(p[i - 1] != 0 for i in piece.face.vanishing_set):
                    raise SpindexError(
                        f"Kirwan point ({format_weight(p)}) is not in the closure of "
                        f"{piece.face.label()}")


# -- expansion direction ------------------------------------------------------


def _tangent_set(model: ManifoldModel) -> set[tuple[int, ...]]:
    return {a for fp in model.fixed_points for a in fp.tangent_weights}


def _pair(a, xi) -> int:
    return sum(map(mul, a, xi))


def _is_generic(xi: tuple[int, ...], tangents) -> bool:
    return all(_pair(a, xi) for a in tangents)


def _direction(model: ManifoldModel) -> tuple[int, ...]:
    """The first generic point h + (k, k^2, ..., k^r), k = 0, 1, 2, ..., of the moment curve.

    k = 0 is h = 2 rho-check, generic for every orbit model.  A nonzero
    tangent weight a pairs with the point to <a, h> + sum_i a_i k^i, a nonzero
    polynomial in k of degree at most r, so a rules out at most r values of k
    and a generic point turns up by k = r * (number of tangent weights).
    """
    h = model.root_system._height_fun
    tangents = _tangent_set(model)
    for k in itertools.count():
        xi = tuple(c + k ** i for i, c in enumerate(h, 1))
        if _is_generic(xi, tangents):
            return xi


# -- the engine ----------------------------------------------------------------


class _PointData:
    __slots__ = ("nu", "oriented", "sign", "base", "total")

    def __init__(self, fp: FixedPointDatum, xi, orient: dict):
        # orient maps each tangent weight to its orientation along xi, its
        # pairing |<a, xi>| and the sign of the flip (see _points)
        oriented, total, sign = [], 0, 1
        for a in fp.tangent_weights:
            b, n, flip = orient[a]
            oriented.append(b)
            total += n
            sign *= flip
        self.total = total  # the sum of the oriented pairings
        self.sign = sign
        # eta - sum(oriented) differs from eta - sum(tangents), which
        # FixedPointDatum checked is in 2*Lambda, by twice the flipped weights
        self.nu = tuple(c // 2 for c in _less_sum(fp.det_weight, oriented))
        self.oriented = tuple(sorted(oriented))
        self.base = _pair(self.nu, xi)


def _points(model: ManifoldModel, xi) -> list[_PointData]:
    """Each fixed point's data along xi, from one pairing per distinct tangent weight."""
    orient = {}
    for a in _tangent_set(model):
        n = _pair(a, xi)
        orient[a] = (a, n, 1) if n >= 0 else (wneg(a), -n, -1)
    return [_PointData(fp, xi, orient) for fp in model.fixed_points]


def _window(points: list[_PointData]) -> tuple[int, int, int]:
    """The expansion window [floor, top] and the support bound L, as pairings with xi.

    A finite sum has its support in [L, top], from the two cones (see the
    module docstring).  The floor lies below L, so the window holds a finite
    sum term for term, and a term that survives below L proves that the sum
    is not finite.
    """
    top = max(pd.base for pd in points)
    low = min(pd.base - pd.total for pd in points)
    return top - max(1, top - low) - 2, top, min(pd.base + pd.total for pd in points)


def _packing(nus, series, slab: int) -> tuple[list[int], list[int]]:
    """Per-axis offsets and strides covering every exponent reachable in the slab.

    ``series`` holds (oriented weights, their pairings with xi) pairs.
    """
    bounds = []
    for i in range(len(nus[0])):
        reach = max((-(-abs(a[i]) * slab // n) for oriented, pairs in series
                     for a, n in zip(oriented, pairs) if a[i]), default=0)
        bounds.append(max(abs(nu[i]) for nu in nus) + reach + 1)
    strides = []
    acc = 1
    for b in bounds:
        strides.append(acc)
        acc *= 2 * b + 1
    if acc >= 2 ** 62:
        raise SpindexError("expansion window too large to pack into 64-bit keys")
    return bounds, strides


def _expand_series(oriented, pairs, depth: int, strides) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The terms t^{-v} of prod_a 1/(1 - t^{-a}) with <v, xi> <= depth, in order of <v, xi>.

    Each factor 1/(1 - t^{-a}) is the running sum Q(v) = sum_{j>=0} P(v - j a)
    along the a-strings, as in ``characters.divide_by_binomial``: a term at
    pairing d lies j = (depth - d) // n steps below the top of its string
    within the depth, and each string is laid out densely from its deepest
    term up to that top and summed, so a step costs what it outputs.  Returns
    the packed keys of v, the pairings <v, xi> and the coefficients.
    """
    keys = np.zeros(1, dtype=np.int64)
    drop = np.zeros(1, dtype=np.int64)
    coef = np.ones(1, dtype=np.int64)
    for a, n in zip(oriented, pairs):
        step = sum(c * s for c, s in zip(a, strides))
        j = (depth - drop) // n
        # the top of a string is a term of the truncated product, so it lies
        # in the window and its key names the string
        top = keys + j * step
        order = np.argsort(top)
        top, j, peak, coef = top[order], j[order], (drop + j * n)[order], coef[order]
        fresh = np.empty(len(top), dtype=bool)
        fresh[0] = True
        fresh[1:] = top[1:] != top[:-1]
        starts = np.flatnonzero(fresh)
        length = np.maximum.reduceat(j, starts) + 1
        end = length.cumsum() - 1
        if end[-1] >= _SERIES_BOUND:
            raise ExpansionTooLarge(
                f"a series of the expansion passes its fixed bound of {_SERIES_BOUND} terms")
        run = np.zeros(int(end[-1]) + 1, dtype=np.int64)
        run[end[fresh.cumsum() - 1] - j] = coef
        # the first entry of each string also cancels the total of the one
        # before, so the running sum restarts on every string; series lengths
        # are < 2^13 at desk scale, so no string's sum of values below 2^48
        # wraps int64
        run[end[:-1] + 1] -= np.add.reduceat(coef, starts)[:-1]
        coef = run.cumsum()
        j = np.repeat(end, length) - np.arange(len(run))
        keys = np.repeat(top[starts], length) - j * step
        drop = np.repeat(peak[starts], length) - j * n
        if int(coef.max()) >= 2 ** 48:
            raise SpindexError("coefficient growth exceeded the exact int64 budget")
    order = np.argsort(drop, kind="stable")
    return keys[order], drop[order], coef[order]


def _unpack(keys, bounds, strides) -> np.ndarray:
    """The coordinates, one row per key, of keys packed by ``_packing``.

    Balanced mixed-radix decode: shift into nonnegative digits, then split
    off one axis per divmod.
    """
    k = keys + sum(b * s for b, s in zip(bounds, strides))
    coords = np.empty((len(keys), len(bounds)), dtype=np.int64)
    for i, b in enumerate(bounds):
        k, digit = np.divmod(k, 2 * b + 1)
        coords[:, i] = digit - b
    if np.any(k):
        raise SpindexError("a packed key lies outside the expansion window")
    return coords


def _dot(coords: np.ndarray, v) -> np.ndarray:
    """coords @ v by one multiply-add per axis: numpy has no BLAS kernel for int64 products."""
    out = coords[:, 0] * v[0]
    for i in range(1, len(v)):
        out += coords[:, i] * v[i]
    return out


def _series(rs: RootSystem, oriented, pairs, depth: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_expand_series`` to the depth, as coordinates of v, kept on the root system.

    The series depends only on the oriented weights and their pairings with
    xi, so every model of the group shares it.  It is kept at the deepest
    depth asked for, read-only, and a shallower request takes a prefix.
    """
    key = ("series", oriented, pairs)
    cached = rs.char_cache.get(key)
    if cached is None or cached[0] < depth:
        rs.char_cache.pop(key, None)  # never hold two versions of a series
        bounds, strides = _packing([(0,) * rs.rank], [(oriented, pairs)], depth)
        keys, drop, coef = _expand_series(oriented, pairs, depth, strides)
        cached = (depth, _unpack(keys, bounds, strides), drop, coef)
        for arr in cached[1:]:
            arr.flags.writeable = False
        rs.char_cache[key] = cached
    _, coords, drop, coef = cached
    m = int(np.searchsorted(drop, depth, side="right"))
    return coords[:m], drop[:m], coef[:m]


def _word_bits(half: int, cmax: int, size: int) -> int:
    """b for the merge words ((key + half) << b) + (coefficient + cmax) of size terms."""
    b = (2 * cmax).bit_length()
    if (bits := (2 * half).bit_length() + b) > 62 or cmax * size >= 2 ** 63:
        raise ExpansionTooLarge(f"the fixed-point sum of {size} terms needs {bits}-bit words and "
                                f"sums up to {cmax * size}, past 62 bits or int64")
    return b


def _merge(words, half: int, cmax: int, b: int) -> tuple[np.ndarray, np.ndarray]:
    """Unique keys in ascending order with summed coefficients; sorts the words in place."""
    words.sort()
    coef = (words & ((1 << b) - 1)) - cmax
    words >>= b
    fresh = np.ones(len(words), dtype=bool)
    np.not_equal(words[1:], words[:-1], out=fresh[1:])
    starts = np.flatnonzero(fresh)
    return words[starts] - half, np.add.reduceat(coef, starts)


def localized_index(model: ManifoldModel) -> VirtualCharacter:
    """Equivariant index of the model as a finite virtual character.

    Raises ExpansionTooLarge when a series passes its fixed bound, and
    UnstableCutoff when a term survives below the lower support bound of a
    finite sum (see _window), which proves the sum is not finite.  Passing
    that necessary bound does not prove a finite sum; exact_cross_check tests it.
    """
    if not model.fixed_points:
        return VirtualCharacter.zero()
    return _localize(model, _direction(model))


def _localize(model: ManifoldModel, xi: tuple[int, ...]) -> VirtualCharacter:
    """The series expansion along the generic integral direction xi, summed over fixed points."""
    points = _points(model, xi)
    groups: dict[tuple, list[_PointData]] = {}
    for pd in points:
        groups.setdefault(pd.oriented, []).append(pd)
    pairs = {oriented: tuple(_pair(a, xi) for a in oriented) for oriented in groups}
    floor, top, bound = _window(points)
    bounds, strides = _packing([pd.nu for pd in points], pairs.items(), top - floor)
    half = sum(map(mul, bounds, strides))
    series, size, cmax = [], 0, 0
    for oriented, members in groups.items():
        # floor < low, so every point has base > floor and at least one term
        deepest = max(pd.base for pd in members) - floor
        coords, drop, vcoef = _series(model.root_system, oriented, pairs[oriented], deepest)
        # the terms of a point with pairing >= floor are a prefix of the shared series
        ms = np.searchsorted(drop, [pd.base - floor for pd in members], side="right").tolist()
        if (size := size + sum(ms)) > _SERIES_BOUND:
            raise ExpansionTooLarge(f"the fixed-point sum of the expansion passes its fixed "
                                    f"bound of {_SERIES_BOUND} terms")
        cmax = max(cmax, int(np.abs(vcoef).max()))
        series.append((_dot(coords, strides), vcoef, members, ms))
    b = _word_bits(half, cmax, size)
    words, pos = np.empty(size, dtype=np.int64), 0
    for vkeys, vcoef, members, ms in series:
        # |vkey| <= half and 2 half < 2^(62 - b): every prefix and word lies inside int64
        prefix = {sign: sign * vcoef - (vkeys << b) for sign in {pd.sign for pd in members}}
        for pd, m in zip(members, ms):
            key0 = sum(map(mul, pd.nu, strides))
            np.add(prefix[pd.sign][:m], ((key0 + half) << b) + cmax, out=words[pos:pos + m])
            pos += m
    keys, coef = _merge(words, half, cmax, b)
    live = coef != 0
    # a key fixes its weight, so pairings are needed only for the terms that survive
    coords, coef = _unpack(keys[live], bounds, strides), coef[live]
    unstable = _dot(coords, xi) < bound
    if np.any(unstable):
        raise UnstableCutoff(
            f"the fixed points of model {model.name!r} do not sum to a finite character: "
            f"{int(unstable.sum())} terms below its support bound do not cancel")
    # the keys are unique and the coefficients nonzero; one list per axis, not
    # per term, as per-term lists would double the allocations that trigger
    # the cyclic garbage collector
    return VirtualCharacter._of(dict(zip(zip(*coords.T.tolist()), coef.tolist())))


def exact_cross_check(model: ManifoldModel, chi: VirtualCharacter,
                      trials: int = 20, seed: int = 0) -> bool:
    """Whether chi equals the fixed-point sum, tested exactly in F_p with p = 2^61 - 1.

    Each trial evaluates both sides at a seeded point where t^{x/2} =
    prod_i y_i^{x_i}, defined for every integral x, and redraws the point if a
    tangent denominator is 0 mod p.  A wrong chi passes one trial with
    probability about (degree of the difference) / p.  The character side takes
    one power table per coordinate column, at the distinct values of the
    column only, so a sparse chi costs its terms, not its span.
    """
    if trials < 1:
        raise SpindexError(f"the cross-check needs at least one trial, got {trials}")
    for n in dict.fromkeys(map(len, chi._terms)):  # each length once, in order of the terms
        model.root_system.check_rank((0,) * n, "exact_cross_check")
    cols, tangents = _columns(chi._terms, model.root_system.rank), _tangent_set(model)
    rng = random.Random(seed)
    for _ in range(trials):
        while True:
            y = [rng.randrange(1, _PRIME) for _ in range(model.root_system.rank)]
            sines = {a: (_at(y, a) - _at(y, wneg(a))) % _PRIME for a in tangents}
            if all(sines.values()):
                break
        lhs = 0
        for fp in model.fixed_points:
            den = math.prod(sines[a] for a in fp.tangent_weights) % _PRIME
            lhs += _at(y, fp.det_weight) * pow(den, -1, _PRIME)
        rhs = _value_at(chi._terms, cols, [yi * yi % _PRIME for yi in y])
        if (lhs - rhs) % _PRIME:
            return False
    return True


# -- model builders -------------------------------------------------------------


def _frame(rs: RootSystem, sigma: Face) -> tuple[list, list, list]:
    """The fixed-point frame of a chamber face, kept on the root system.

    For every mu in the open face sigma, the walk of the orbit of 2 mu skips
    s_i where a point's i-th coordinate vanishes and meets a point again
    where two Weyl elements differ by W_sigma, both of which depend on sigma
    alone: so it has the same parent links (k-th point = s_i(parent point))
    as the walk of the integral point mu_sigma of the face.  The tangent
    weights at the k-th point, w_k(Phi+ minus Phi_sigma+), and their sum
    w_k(2 rho - 2 rho_sigma), are the same for every mu as well.  Returns the
    links, the tangent tuples and the tangent sums, point by point.

    The tangents are carried as indices into the roots, moved by one
    permutation of the roots per simple reflection, and every root is checked
    once here as FixedPointDatum would check a tangent weight.
    """
    key = ("frame", sigma.vanishing_set)
    cached = rs.char_cache.get(key)
    if cached is None:
        roots = (*rs.positive_roots, *map(wneg, rs.positive_roots))
        _checked_tangents(f"frame of {sigma.label()}", roots, rs.rank)
        at = {r: k for k, r in enumerate(roots)}
        perms = [[at[rs.reflect(i, r)] for r in roots] for i in range(rs.rank)]
        walk = _orbit(rs, _face_point(sigma, rs))
        pos = {x: k for k, x in enumerate(walk)}
        links = [(pos.get(parent, -1), i) for parent, i in walk.values()]
        levi = set(sigma.levi_positive_roots)
        moving = tuple(k for k, beta in enumerate(rs.positive_roots) if beta not in levi)
        indices = [moving]
        sums = [tuple(sum(roots[k][r] for k in moving) for r in range(rs.rank))]
        for parent, i in links[1:]:
            indices.append(tuple(map(perms[i].__getitem__, indices[parent])))
            sums.append(rs.reflect(i, sums[parent]))
        tangents = [tuple(map(roots.__getitem__, ks)) for ks in indices]
        cached = rs.char_cache[key] = (links, tangents, sums)
    return cached


def _half(c: int) -> str:
    """c / 2 as format_weight prints Fraction(c, 2)."""
    return f"{c}/2" if c % 2 else str(c // 2)


def orbit_model(rs: RootSystem, mu: Weight) -> ManifoldModel:
    """Localization model of the coadjoint orbit through an admissible dominant weight.

    Fixed points sit at the Weyl images of mu (one per coset of the face
    stabilizer); the determinant weight at the image w(mu) is 2 w(mu) and the
    tangent weights are the w-images of the positive roots outside the Levi.
    An admissible mu lies in Lambda / 2, so each image is taken on machine
    integers as its own determinant weight.  The walk, the tangent tuples and
    their sums come from the frame of mu's face (``_frame``), built once per
    face and shared by every model on it: a model reflects 2 mu once per
    point and checks the parity 2 w(mu) - sum(tangents) in 2 Lambda there, in
    O(rank), while the frame has checked the tangent weights.
    """
    mu = weight(mu)
    rs.check_rank(mu, "orbit_model")
    if not is_admissible(mu, rs):
        raise NotAdmissible(f"orbit through ({format_weight(mu)}) is not admissible")
    sigma = face_of(mu, rs)
    links, tangents, sums = _frame(rs, sigma)
    images = [tuple(int(2 * c) for c in mu)]
    for parent, i in links[1:]:
        images.append(rs.reflect(i, images[parent]))
    fixed = []
    for image, ts, total in zip(images, tangents, sums):
        label = "w(" + ",".join(map(_half, image)) + ")"
        if any(map(and_, map(sub, image, total), repeat(1))):  # an odd coordinate
            raise _parity_violation(label, tuple(map(sub, image, total)))
        fixed.append(FixedPointDatum._checked(label, image, ts))
    return ManifoldModel(
        root_system=rs,
        fixed_points=tuple(fixed),
        generic_stabilizer=stabilizer_class_of_face(sigma, rs),
        kirwan=KirwanSet((KirwanPiece(face=sigma, points=(mu,)),)),
        name=f"orbit:{rs.label}:{format_weight(mu)}",
        info=(("builder", "orbit"), ("group", rs.label), ("mu", format_weight(mu))),
    )


LITERAL_CONVENTION = "literal"
CALIBRATED_CONVENTION = "calibrated"


def su3_flag_bundle(a: int, b: int, convention: str = CALIBRATED_CONVENTION) -> ManifoldModel:
    """The SU(3) family: the partial flag bundle fibered in projective lines.

    Six fixed points, indexed by an unordered pair {i,j} in {1,2,3} (the plane
    spanned by e_i, e_j) and a line choice (the remaining basis vector e_k, or
    the external direction e_4).  Line-bundle weights at a fixed point are
    x_i + x_j for the plane determinant and x_k (or 0 for the external line)
    for the quotient line, with x_1, x_2, x_3 the weights of the defining
    representation.

    The naive determinant labeling (2a+1, 2b+1) on the two line bundles is not
    a spin-c determinant: it fails the parity check at the external-line fixed
    points.  Passing convention="literal" keeps that labeling and raises
    ParityViolation, documenting the gap.  The calibrated convention is the
    unique parity-respecting affine relabeling matching the known index
    decompositions of the family:

        det = 2(a-b+2) * (plane weight) + 2(-b) * (line weight) + anticanonical,

    equivalently the twisted-Dolbeault determinant of the (a-b+2, -b) line
    bundle.  Under it the fixed-point moment values land exactly on the
    declared Kirwan endpoints: (a+1) omega_2 at internal-line points and
    (b-a) omega_1 at external-line points.

    For b > a the declared Kirwan set is the non-convex union
    [0, b-a] omega_1 + [0, a+1] omega_2; for a >= b (the symplectic regime) it
    is the single segment [max(0, a-b), a+1] omega_2, the convex hull of the
    moment values in the chamber.
    """
    if a < 0 or b < 0:
        raise SpindexError("flag bundle parameters must be nonnegative integers")
    if convention not in (CALIBRATED_CONVENTION, LITERAL_CONVENTION):
        raise SpindexError(f"unknown determinant convention {convention!r}")
    rs = _shared_root_system("A2")
    x = {1: (1, 0), 2: (-1, 1), 3: (0, -1)}
    fixed = []
    for i, j in ((1, 2), (1, 3), (2, 3)):
        k = ({1, 2, 3} - {i, j}).pop()
        plane = wadd(x[i], x[j])
        for line_label, line_weight, last_tangent in (
            (f"e{k}", x[k], wneg(x[k])),
            ("e4", (0, 0), x[k]),
        ):
            tangents = (wsub(x[k], x[i]), wsub(x[k], x[j]), last_tangent)
            if convention == CALIBRATED_CONVENTION:
                det = tuple(2 * (a - b + 2) * p - 2 * b * q + sum(ts)
                            for p, q, *ts in zip(plane, line_weight, *tangents))
            else:
                det = tuple((2 * a + 1) * p + (2 * b + 1) * q
                            for p, q in zip(plane, line_weight))
            fixed.append(FixedPointDatum(
                label=f"plane=e{i}e{j},line={line_label}",
                det_weight=det,
                tangent_weights=tangents,
            ))
    ray_omega1 = face_from_vanishing_set(frozenset({2}), rs)
    ray_omega2 = face_from_vanishing_set(frozenset({1}), rs)
    if b > a:
        pieces = (
            KirwanPiece(face=ray_omega1, segments=((Fraction(0), Fraction(b - a)),)),
            KirwanPiece(face=ray_omega2, segments=((Fraction(0), Fraction(a + 1)),)),
        )
    else:
        pieces = (
            KirwanPiece(face=ray_omega2,
                        segments=((Fraction(max(0, a - b)), Fraction(a + 1)),)),
        )
    return ManifoldModel(
        root_system=rs,
        fixed_points=tuple(fixed),
        generic_stabilizer=stabilizer_class_of_face(ray_omega2, rs),
        kirwan=KirwanSet(pieces),
        name=f"su3-flag-bundle(a={a},b={b})",
        info=(
            ("builder", "su3-flag-bundle"),
            ("a", str(a)),
            ("b", str(b)),
            ("determinant_convention", convention),
            ("determinant_rule",
             "2(a-b+2)*plane - 2b*line + anticanonical" if convention == CALIBRATED_CONVENTION
             else "(2a+1)*plane + (2b+1)*line"),
        ),
    )


# -- Kirwan-set queries ---------------------------------------------------------


def _free_coordinate(face: Face) -> int:
    """The one free coordinate of a ray face, along which its segments run."""
    if len(face.free_coordinates) != 1:
        raise SpindexError("segment pieces are only defined on ray faces")
    return face.free_coordinates[0]


def _in_hull(points: tuple[Weight, ...], x: Weight) -> bool:
    """Whether x is a convex combination of the points, by a phase-1 simplex.

    The l_j >= 0 with sum_j l_j p_j = x and sum_j l_j = 1 exist exactly when
    the phase-1 problem reaches 0: each row, flipped so that its right-hand
    side is >= 0, starts with an artificial variable of its own in the basis,
    and the pivots minimize their sum.  Bland's rule (the least improving
    column enters; ties in the ratio test go to the least basic index) cannot
    cycle, so the loop ends, and Fractions keep every step exact.  There is no
    size bound: each pivot costs O(rank * len(points)).
    """
    n, m = len(points), len(x) + 1
    rows = []
    for i, b in enumerate((*x, Fraction(1))):
        sign = -1 if b < 0 else 1
        coeffs = [p[i] for p in points] if i < m - 1 else [Fraction(1)] * n
        rows.append([sign * c for c in coeffs] + [Fraction(int(k == i)) for k in range(m)]
                    + [sign * b])
    basis = list(range(n, n + m))
    # reduced costs of the sum of the artificial variables, and minus that sum
    cost = [-sum(col) for col in zip(*rows)]
    cost[n:n + m] = [Fraction(0)] * m
    while True:
        enter = next((j for j, c in enumerate(cost[:-1]) if c < 0), None)
        if enter is None:
            return cost[-1] == 0
        # the objective is bounded below by 0, so some row limits the step
        _, _, leave = min((r[-1] / r[enter], basis[k], k)
                          for k, r in enumerate(rows) if r[enter] > 0)
        pivot = rows[leave]
        scale = pivot[enter]
        pivot[:] = [v / scale for v in pivot]
        for r in (*rows, cost):
            f = r[enter]
            if r is not pivot and f:
                r[:] = [v - f * u for v, u in zip(r, pivot)]
        basis[leave] = enter


def kirwan_contains(kirwan: KirwanSet, x: Weight, rs: RootSystem) -> bool:
    """Whether the declared Kirwan set covers the dominant point x."""
    x = weight(x)
    rs.check_rank(x, "kirwan_contains")
    for piece in kirwan.pieces:
        if piece.segments:
            j = _free_coordinate(piece.face)
            if all(c == 0 for i, c in enumerate(x) if i != j):
                c = x[j]
                if any(lo <= c <= hi for lo, hi in piece.segments):
                    return True
        if piece.points and _in_hull(piece.points, x):
            return True
    return False


def kirwan_faces_met(kirwan: KirwanSet, rs: RootSystem) -> set[Face]:
    """Faces whose relative interior meets the declared Kirwan set."""
    met: set[Face] = set()
    vertex = face_from_vanishing_set(frozenset(range(1, rs.rank + 1)), rs)
    for piece in kirwan.pieces:
        for lo, hi in piece.segments:
            if hi > 0:
                met.add(piece.face)
            if lo == 0:
                met.add(vertex)
        # a positive combination of a subset of the points vanishes exactly where
        # all of them do, so the faces met are the intersections of their zero sets
        zero_sets: set[frozenset[int]] = set()
        for p in piece.points:
            zeros = _zero_set(p)
            zero_sets |= {zeros} | {zeros & z for z in zero_sets}
        met.update(face_from_vanishing_set(z, rs) for z in zero_sets)
    return met


def kirwan_admissible_orbits(kirwan: KirwanSet, face: Face, rs: RootSystem) -> list[CoadjointOrbit]:
    """Admissible orbits whose representative lies in rel-int(face) and in the Kirwan set.

    Sorted by representative; point pieces filter their bounding box by hull membership.
    A segment from 0 also meets the vertex face, at the origin.
    """
    found: dict[Weight, CoadjointOrbit] = {}
    for piece in kirwan.pieces:
        if piece.face == face or (not face.free_coordinates
                                  and any(lo == 0 for lo, _ in piece.segments)):
            for lo, hi in piece.segments:
                for orbit in admissible_orbits_on_face(face, (lo, hi), rs):
                    found[orbit.mu] = orbit
        if piece.points:
            box = {i + 1: (min(p[i] for p in piece.points), max(p[i] for p in piece.points))
                   for i in face.free_coordinates}
            for orbit in admissible_orbits_on_face(face, box, rs):
                if _in_hull(piece.points, orbit.mu):
                    found[orbit.mu] = orbit
    return [found[mu] for mu in sorted(found)]


# -- moment sanity report --------------------------------------------------------


def moment_report(model: ManifoldModel) -> list[dict]:
    """Compare fixed-point moment values (eta_p / 2) against the declared Kirwan set.

    Purely informational: declared Kirwan data is connection-dependent
    metadata, so mismatches are surfaced, never fatal.
    """
    rs = model.root_system
    rows = []
    for fp in model.fixed_points:
        moment = wscale(Fraction(1, 2), fp.det_weight)
        dom = dominant_representative(moment, rs)
        rows.append({
            "label": fp.label,
            "moment": moment,
            "dominant_representative": dom,
            "in_declared_kirwan": kirwan_contains(model.kirwan, dom, rs),
        })
    return rows


# -- JSON model files -------------------------------------------------------------


def model_to_json_obj(model: ManifoldModel) -> dict:
    rs = model.root_system
    obj: dict = {"name": model.name}
    if rs.label != "custom":
        obj["group"] = rs.label
    else:
        obj["cartan_matrix"] = [list(row) for row in rs.cartan_matrix]
    obj["info"] = {k: v for k, v in model.info}
    obj["fixed_points"] = [
        {
            "label": fp.label,
            "det_weight": weight_to_json(fp.det_weight),
            "tangent_weights": [weight_to_json(a) for a in fp.tangent_weights],
        }
        for fp in model.fixed_points
    ]
    obj["generic_stabilizer"] = [
        sorted(f.vanishing_set) for f in model.generic_stabilizer.representative_faces
    ]
    obj["kirwan"] = [
        {
            "face": sorted(piece.face.vanishing_set),
            "segments": [[str(lo), str(hi)] for lo, hi in piece.segments],
            "points": [weight_to_json(p) for p in piece.points],
        }
        for piece in model.kirwan.pieces
    ]
    return obj


def model_from_json_obj(obj: dict) -> ManifoldModel:
    rs = _shared_root_system(obj["group"] if "group" in obj else obj["cartan_matrix"])
    fixed = tuple(
        FixedPointDatum(
            label=e["label"],
            det_weight=weight_from_json(e["det_weight"]),
            tangent_weights=tuple(weight_from_json(t) for t in e["tangent_weights"]),
        )
        for e in obj["fixed_points"]
    )
    faces = tuple(
        face_from_vanishing_set(frozenset(s), rs) for s in obj["generic_stabilizer"]
    )
    if not faces:
        raise SpindexError("generic_stabilizer must list at least one face")
    if not set(faces) <= set(stabilizer_class_of_face(faces[0], rs).representative_faces):
        raise SpindexError("generic_stabilizer faces are not mutually Levi-conjugate")
    info = obj.get("info", {})
    if not isinstance(info, dict):
        raise TypeError(f"model info must be a JSON object, got {type(info).__name__}")
    pieces = tuple(
        KirwanPiece(
            face=face_from_vanishing_set(frozenset(e["face"]), rs),
            segments=tuple((lo, hi) for lo, hi in map(weight_from_json, e.get("segments", []))),
            points=tuple(weight_from_json(p) for p in e.get("points", [])),
        )
        for e in obj["kirwan"]
    )
    return ManifoldModel(
        root_system=rs,
        fixed_points=fixed,
        generic_stabilizer=StabilizerClass(faces),
        kirwan=KirwanSet(pieces),
        name=obj.get("name", "model"),
        info=tuple(sorted(info.items())),
    )
