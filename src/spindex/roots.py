"""Root systems, Weyl groups, chamber faces, and Levi combinatorics.

Everything is driven by a finite-type Cartan matrix.  The convention
throughout: ``cartan[i][j]`` is the pairing of the j-th simple root against the
i-th simple coroot, so column j of the Cartan matrix holds the
fundamental-weight coordinates of alpha_j.  A weight is dominant iff its
coordinates are nonnegative, and the pairing with the i-th simple coroot is
coordinate i.  Simple roots, positive roots and rho = (1, ..., 1) are int
tuples walked on machine integers; ``Fraction`` is left to the Cartan
validation, to ``Face.rho_sigma``, which lies in Lambda / 2, and to the
rational points a caller passes in.

The Weyl group acts only by simple reflections on coordinates
(``RootSystem.reflect``); no group element is ever formed, as a matrix or
otherwise, and the group is never listed.  ``_orbit`` walks one Weyl orbit
breadth-first over the simple reflections.  Roots and coroots come from the
orbits of the simple roots, alternating sums from the free orbit of a regular
weight, orbit models from the orbit of their base point, and each
Levi-conjugacy class from one orbit, whose zero sets name every member;
dominant representatives descend by reflecting negative coordinates away.  A
walk raises ``WeylGroupTooLarge`` past a fixed bound of 2^16 points: |W(E6)| =
51,840 fits, the Levi orbits of E7 do not.  ``all_faces`` lists the 2^rank
chamber faces only for listings (``stabilizer_classes``, the ``faces``
command), and raises ``FaceListTooLarge`` past the same bound; no model path
enumerates faces.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul

from .errors import FaceListTooLarge, NotDominant, SpindexError, UnknownType, WeylGroupTooLarge
from .weights import Weight, format_weight, is_dominant, weight

IntMatrix = tuple[tuple[int, ...], ...]

_ORBIT_BOUND = 2 ** 16


@dataclass(frozen=True)
class Face:
    """Relative interior of a dominant-chamber face.

    Encoded by the set of simple-root indices (1-based) whose coroot pairing
    vanishes on the face; carries the half-sum of the Levi positive roots.
    """

    vanishing_set: frozenset[int]
    rho_sigma: Weight
    levi_positive_roots: tuple[Weight, ...]

    @cached_property
    def doubled_rho_sigma(self) -> tuple[int, ...]:
        """2 rho_sigma, a sum of roots, as ints.

        mu - rho + rho_sigma is integral exactly when every 2 mu_i + 2 rho_sigma_i
        is even, as rho = (1, ..., 1): admissible weights lie in Lambda / 2.
        """
        return tuple(int(2 * c) for c in self.rho_sigma)

    @cached_property
    def free_coordinates(self) -> tuple[int, ...]:
        """The 0-based coordinates that do not vanish on this face."""
        return tuple(i for i in range(len(self.rho_sigma)) if i + 1 not in self.vanishing_set)

    def label(self) -> str:
        if not self.vanishing_set:
            return "S={}"
        return "S={" + ",".join(str(i) for i in sorted(self.vanishing_set)) + "}"


@dataclass(frozen=True)
class StabilizerClass:
    """A Levi-conjugacy class of faces; any member presents the stabilizer type."""

    representative_faces: tuple[Face, ...]

    def semisimple_positive_roots(self) -> tuple[Weight, ...]:
        return self.representative_faces[0].levi_positive_roots

    def label(self) -> str:
        return " ~ ".join(f.label() for f in self.representative_faces)


# Cartan matrices, finite types, Bourbaki numbering.

def _chain(n: int) -> list[list[int]]:
    c = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n - 1):
        c[i][i + 1] = -1
        c[i + 1][i] = -1
    return c


def _cartan_of_type(letter: str, n: int) -> list[list[int]]:
    if letter == "A" and n >= 1:
        return _chain(n)
    if letter == "B" and n >= 2:
        c = _chain(n)
        c[n - 1][n - 2] = -2  # last simple root short
        return c
    if letter == "C" and n >= 2:
        c = _chain(n)
        c[n - 2][n - 1] = -2  # last simple root long
        return c
    if letter == "D" and n >= 3:
        c = _chain(n - 1)
        for row in c:
            row.append(0)
        c.append([0] * n)
        c[n - 1][n - 1] = 2
        c[n - 3][n - 1] = -1
        c[n - 1][n - 3] = -1
        c[n - 2][n - 1] = 0
        c[n - 1][n - 2] = 0
        return c
    if letter == "E" and n in (6, 7, 8):
        # node 2 hangs off node 4 of the chain 1-3-4-5-...-n
        c = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
        chain = [1, 3, 4, 5, 6, 7, 8][: n - 1]
        for a, b in zip(chain, chain[1:]):
            c[a - 1][b - 1] = -1
            c[b - 1][a - 1] = -1
        c[1][3] = -1
        c[3][1] = -1
        return c
    if letter == "F" and n == 4:
        c = _chain(4)
        c[2][1] = -2  # alpha_3, alpha_4 short
        c[1][2] = -1
        return c
    if letter == "G" and n == 2:
        return [[2, -3], [-1, 2]]
    raise UnknownType(f"unsupported simple type {letter}{n}")


def _parse_type_label(label: str) -> list[list[int]]:
    blocks = []
    for part in label.replace(" ", "").split("x"):
        if len(part) < 2 or part[0].upper() not in "ABCDEFG":
            raise UnknownType(f"cannot parse type label {part!r}")
        try:
            n = int(part[1:])
        except ValueError as exc:
            raise UnknownType(f"cannot parse rank in {part!r}") from exc
        blocks.append(_cartan_of_type(part[0].upper(), n))
    size = sum(len(b) for b in blocks)
    cartan = [[0] * size for _ in range(size)]
    off = 0
    for b in blocks:
        for i, row in enumerate(b):
            cartan[off + i][off: off + len(b)] = row
        off += len(b)
    return cartan


def _leading_minors_positive(c: list[list[int]]) -> bool:
    n = len(c)
    a = [[Fraction(x) for x in row] for row in c]
    det = Fraction(1)
    for col in range(n):
        piv = None
        for r in range(col, n):
            if a[r][col] != 0:
                piv = r
                break
        if piv is None:
            return False
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        # running leading minor after eliminating this column
        for r in range(col + 1, n):
            if a[r][col] != 0:
                f = a[r][col] / a[col][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
        if det <= 0:
            return False
    return True


def _symmetrizer(c: list[list[int]]) -> list[Fraction] | None:
    """Positive d_i with d_i c_ij = d_j c_ji, or None if none exist."""
    n = len(c)
    d: list[Fraction | None] = [None] * n
    for start in range(n):
        if d[start] is not None:
            continue
        d[start] = Fraction(1)
        queue = [start]
        while queue:
            i = queue.pop()
            for j in range(n):
                if i == j or c[i][j] == 0:
                    continue
                want = d[i] * Fraction(c[i][j], c[j][i])
                if d[j] is None:
                    d[j] = want
                    queue.append(j)
                elif d[j] != want:
                    return None
    return [x for x in d]  # type: ignore[misc]


def _validate_cartan(c: list[list[int]]) -> None:
    n = len(c)
    if n == 0 or any(len(row) != n for row in c):
        raise UnknownType("Cartan matrix must be square and nonempty")
    for i in range(n):
        for j in range(n):
            if not isinstance(c[i][j], int):
                raise UnknownType("Cartan matrix entries must be integers")
            if i == j and c[i][j] != 2:
                raise UnknownType("Cartan matrix diagonal must be 2")
            if i != j and c[i][j] > 0:
                raise UnknownType("Cartan matrix off-diagonal entries must be <= 0")
            if i != j and (c[i][j] == 0) != (c[j][i] == 0):
                raise UnknownType("Cartan matrix zero pattern must be symmetric")
    if _symmetrizer(c) is None or not _leading_minors_positive(c):
        raise UnknownType("Cartan matrix is not of finite type")


class RootSystem:
    """Cartan-matrix-driven combinatorics of a compact semisimple group.

    Fields follow the build contract: ``rank``, ``cartan_matrix``,
    ``simple_roots`` (omega-coordinates), ``positive_roots`` and ``rho``.
    Building walks only the orbits of the simple roots, so every finite type
    builds.  W acts only through ``reflect``.  Instances are immutable after
    construction (apart from their caches) and safe to share.
    """

    def __init__(self, cartan: list[list[int]], label: str | None = None):
        _validate_cartan(cartan)
        self.label = label or "custom"
        self.rank = len(cartan)
        self.cartan_matrix: IntMatrix = tuple(tuple(row) for row in cartan)
        self.simple_roots: tuple[Weight, ...] = tuple(
            tuple(map(int, col)) for col in zip(*self.cartan_matrix))
        # the nonzero coordinates (r, alpha_i[r]) of each simple root, for reflect
        self._alpha_support = tuple(
            tuple((r, row[i]) for r, row in enumerate(self.cartan_matrix) if row[i])
            for i in range(self.rank))
        data = self._root_data()
        self.positive_roots: tuple[Weight, ...] = tuple(
            sorted(data, key=lambda beta: (sum(data[beta][0]), beta)))
        self._coroot_funs = {beta: f for beta, (_, f) in data.items()}
        # simple roots (1-based) with a nonzero coefficient in each positive root
        self._root_support = {
            beta: frozenset(i + 1 for i, c in enumerate(k) if c) for beta, (k, _) in data.items()}
        if any(sum(col) != 2 for col in zip(*self.positive_roots)):
            raise UnknownType("the positive roots do not sum to 2 rho = (2, ..., 2)")
        self.rho: Weight = (1,) * self.rank
        # 2 rho-check functional: positive on the open chamber, Weyl-orbit maxima dominant
        self._height_fun = tuple(
            sum(f[i] for f in self._coroot_funs.values()) for i in range(self.rank)
        )
        self._face_cache: dict[frozenset[int], Face] = {}
        self._class_of: dict[Face, StabilizerClass] = {}
        self.char_cache: dict = {}  # used by the character and localization modules

    # -- construction helpers -------------------------------------------------

    def _root_data(self) -> dict[Weight, tuple[tuple[int, ...], tuple[int, ...]]]:
        """Simple-root coordinates of each positive root beta, and simple-coroot
        coordinates of its coroot (the functional lam -> <lam, beta^vee>).

        Both are carried along the orbits of the simple roots: alpha_i starts at
        unit vectors, and s_j lowers the j-th coordinates by <beta, alpha_j^vee>
        and <alpha_j, beta^vee>.
        """
        data: dict[Weight, tuple[tuple[int, ...], tuple[int, ...]]] = {}
        for i, alpha in enumerate(self.simple_roots):
            if alpha in data:
                continue  # already reached from the orbit of an earlier simple root
            unit = tuple(int(k == i) for k in range(self.rank))
            carried = {}
            for beta, (parent, j) in _orbit(self, alpha).items():
                if parent is None:
                    carried[beta] = (unit, unit)
                    continue
                k, f = carried[parent]
                drop = sum(f[r] * self.cartan_matrix[r][j] for r in range(self.rank))
                carried[beta] = (k[:j] + (k[j] - parent[j],) + k[j + 1:],
                                 f[:j] + (f[j] - drop,) + f[j + 1:])
            data.update((beta, kf) for beta, kf in carried.items() if min(kf[0]) >= 0)
        return data

    # -- queries ---------------------------------------------------------------

    def check_rank(self, w: Weight, caller: str) -> None:
        """Raise SpindexError naming both ranks unless w has this system's rank."""
        if len(w) != self.rank:
            raise SpindexError(
                f"{caller} needs a rank-{self.rank} weight for {self.label}, got rank {len(w)}")

    def reflect(self, i: int, x: Weight) -> Weight:
        """s_i(x) = x - x_i alpha_i; coordinates keep their type."""
        y = list(x)
        for r, a in self._alpha_support[i]:
            y[r] -= x[i] * a
        return tuple(y)

    def coroot_pairing(self, lam: Weight, beta: Weight) -> Fraction | int:
        """Pairing of a weight with the coroot of a positive root, in lam's coordinate type."""
        return sum(map(mul, self._coroot_funs[beta], lam))

    def weyl_order(self) -> int:
        """|W|, the size of the free orbit of rho."""
        return len(_orbit(self, (1,) * self.rank))


def _orbit(rs: RootSystem, x: Weight) -> dict[Weight, tuple[Weight | None, int]]:
    """Breadth-first walk of the Weyl orbit of x over the simple reflections.

    Maps each point, in the order reached, to its parent and the index i with
    point = s_i(parent); x itself maps to (None, -1), so the depth of a point
    is the length of the shortest w carrying x to it.  Raises
    WeylGroupTooLarge once the orbit passes 2^16 points.
    """
    reached: dict[Weight, tuple[Weight | None, int]] = {x: (None, -1)}
    frontier = [x]
    while frontier:
        nxt = []
        for p in frontier:
            for i in range(rs.rank):
                if not p[i]:
                    continue  # s_i fixes p
                q = rs.reflect(i, p)
                if q not in reached:
                    reached[q] = (p, i)
                    nxt.append(q)
            if len(reached) > _ORBIT_BOUND:
                raise WeylGroupTooLarge(
                    f"a Weyl orbit of {rs.label} has more than {_ORBIT_BOUND} points")
        frontier = nxt
    return reached


def build_root_system(type_or_cartan) -> RootSystem:
    """Build a root system from a type label ("A2", "B2", "A1xA1") or Cartan matrix."""
    if isinstance(type_or_cartan, str):
        cartan = _parse_type_label(type_or_cartan)
        return RootSystem(cartan, label=type_or_cartan.replace(" ", ""))
    cartan = [list(row) for row in type_or_cartan]
    return RootSystem(cartan)


def dominant_representative(w: Weight, rs: RootSystem) -> Weight:
    """Dominant member of the Weyl orbit of ``w``, reached by simple reflections."""
    cur = weight(w)
    while (i := next((k for k, c in enumerate(cur) if c < 0), None)) is not None:
        cur = rs.reflect(i, cur)
    return cur


def face_of(w: Weight, rs: RootSystem) -> Face:
    """Face of the dominant chamber whose relative interior contains ``w``."""
    if not is_dominant(w):
        raise NotDominant(f"face_of requires a dominant weight, got ({format_weight(w)})")
    return face_from_vanishing_set(_zero_set(w), rs)


def face_from_vanishing_set(vanishing: frozenset[int], rs: RootSystem) -> Face:
    vanishing = frozenset(vanishing)
    if not vanishing <= set(range(1, rs.rank + 1)):
        raise UnknownType(f"vanishing set {set(vanishing)} out of range for rank {rs.rank}")
    cached = rs._face_cache.get(vanishing)
    if cached is not None:
        return cached
    levi = tuple(beta for beta in rs.positive_roots if rs._root_support[beta] <= vanishing)
    rho_sigma = tuple(Fraction(sum(beta[i] for beta in levi), 2) for i in range(rs.rank))
    f = Face(vanishing, rho_sigma, levi)
    rs._face_cache[vanishing] = f
    return f


def all_faces(rs: RootSystem) -> list[Face]:
    """All 2^rank chamber faces, smallest vanishing sets first; for listing only.

    Past 2^16 faces, FaceListTooLarge is raised before any is listed: |W| >= 2^rank
    (a product of invariant degrees, each >= 2), so the orbit of rho would not fit either.
    """
    if 2 ** rs.rank > _ORBIT_BOUND:
        raise FaceListTooLarge(
            f"{rs.label} has 2^{rs.rank} chamber faces, more than the {_ORBIT_BOUND} to list")
    out = []
    for r in range(rs.rank + 1):
        for combo in itertools.combinations(range(1, rs.rank + 1), r):
            out.append(face_from_vanishing_set(frozenset(combo), rs))
    return out


def is_regular(w: Weight, rs: RootSystem) -> bool:
    """True iff the weight pairs nonzero against every positive coroot."""
    return all(rs.coroot_pairing(w, beta) != 0 for beta in rs.positive_roots)


def _face_point(f: Face, rs: RootSystem) -> Weight:
    """mu_f = sum of omega_i over i not in f: a point whose stabilizer roots are Phi_f."""
    return tuple(int(i + 1 not in f.vanishing_set) for i in range(rs.rank))


def _zero_set(x: Weight) -> frozenset[int]:
    """The 1-based coordinates at which x vanishes: the face of x when x is dominant."""
    return frozenset(i + 1 for i, c in enumerate(x) if c == 0)


def levi_conjugate(f1: Face, f2: Face, rs: RootSystem) -> bool:
    """Whether some w in W carries Phi_f1 onto Phi_f2, for two chamber faces.

    w(mu_f1) has stabilizer roots w(Phi_f1), which contain Phi_f2 exactly when
    w(mu_f1) vanishes at f2; equal sizes make them equal.
    """
    return len(f1.levi_positive_roots) == len(f2.levi_positive_roots) and any(
        _zero_set(x) == f2.vanishing_set for x in _orbit(rs, _face_point(f1, rs)))


def stabilizer_class_of_face(f: Face, rs: RootSystem, walk=None) -> StabilizerClass:
    """Levi-conjugacy class of a chamber face, members in ``all_faces`` order.

    Face K is in it exactly when some point of the orbit of mu_f vanishes
    exactly at K and |Phi_K| = |Phi_f| (see ``levi_conjugate``), so the class
    is read off the zero sets of one orbit walk: ``walk``, when the caller has
    already walked the orbit of mu_f.
    """
    cls = rs._class_of.get(f)
    if cls is None:
        if f != face_from_vanishing_set(f.vanishing_set, rs):
            raise UnknownType(f"face {f.label()} is not a chamber face of {rs.label}")
        zero_sets = sorted({_zero_set(x) for x in walk or _orbit(rs, _face_point(f, rs))},
                           key=lambda z: (len(z), sorted(z)))
        size = len(f.levi_positive_roots)
        cls = StabilizerClass(tuple(
            k for k in (face_from_vanishing_set(z, rs) for z in zero_sets)
            if len(k.levi_positive_roots) == size))
        rs._class_of.update(dict.fromkeys(cls.representative_faces, cls))
    return cls


def stabilizer_classes(rs: RootSystem) -> list[StabilizerClass]:
    """Partition of all chamber faces into Levi-conjugacy classes, in ``all_faces`` order.

    The open face's class, the walk of rho, the largest orbit, comes before
    the listing, so a group past the orbit bound fails at once."""
    if 2 ** rs.rank <= _ORBIT_BOUND:
        stabilizer_class_of_face(face_from_vanishing_set(frozenset(), rs), rs)
    return list(dict.fromkeys(stabilizer_class_of_face(f, rs) for f in all_faces(rs)))
