"""The Weyl group as signed integer matrices: an oracle for the tests.

The package acts by W only through simple reflections on coordinates
(``RootSystem.reflect`` and ``roots._orbit``).  Here each group element is
instead a matrix on fundamental-weight coordinates with its sign.  Simple
reflections are read off the Cartan matrix, and an element is composed from
them along the parent links of an orbit walk; the rho orbit is free, so its
points list the whole group.
"""

from typing import NamedTuple

from spindex.characters import VirtualCharacter
from spindex.roots import _orbit

Matrix = tuple[tuple[int, ...], ...]


class Element(NamedTuple):
    """w as a matrix acting on fundamental-weight coordinates, and sign(w)."""

    matrix: Matrix
    sign: int

    def __call__(self, x):
        # keeps the coordinate type: integer tuples stay integer tuples
        return tuple(sum(a * c for a, c in zip(row, x)) for row in self.matrix)

    def compose(self, other: "Element") -> "Element":
        """self after other."""
        cols = list(zip(*other.matrix))
        return Element(tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in cols)
                             for row in self.matrix), self.sign * other.sign)


def identity(rs) -> Element:
    return Element(tuple(tuple(int(r == c) for c in range(rs.rank)) for r in range(rs.rank)), 1)


def simple_reflection(rs, i: int) -> Element:
    """s_i(x) = x - x_i alpha_i, with alpha_i column i of the Cartan matrix."""
    return Element(tuple(tuple(int(r == c) - (c == i) * rs.cartan_matrix[r][i]
                               for c in range(rs.rank)) for r in range(rs.rank)), -1)


def simple_reflections(rs) -> list[Element]:
    return [simple_reflection(rs, i) for i in range(rs.rank)]


def _witness(rs, orbit: dict, y) -> Element:
    """The w carrying the start of the walk to y, read off the parent links."""
    w = identity(rs)
    while orbit[y][0] is not None:
        y, i = orbit[y]
        w = w.compose(simple_reflection(rs, i))
    return w


def witness(rs, x, y) -> Element:
    """Some w with w(x) = y; the unique one when x is regular."""
    return _witness(rs, _orbit(rs, tuple(x)), tuple(y))


def weyl_group(rs) -> list[Element]:
    """Every element of W, the identity first."""
    orbit = _orbit(rs, (1,) * rs.rank)
    return [_witness(rs, orbit, y) for y in orbit]


def act(w: Element, chi: VirtualCharacter) -> VirtualCharacter:
    """w applied to every weight of a character."""
    return VirtualCharacter({w(x): c for x, c in chi.terms().items()})
