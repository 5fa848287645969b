"""Tuple-at-a-time decomposition: an oracle for the tests.

``spindex.characters`` runs its invariance check, peel and antisymmetrization
as builtin passes over per-axis coordinate columns.  Here the same three
steps loop over the weight tuples one term at a time, the way the package did
before the column passes; ``decompose`` below combines them with the same
checks, in the same order, and raises the same error classes.
"""

import heapq
from operator import add, gt

from spindex.characters import Decomposition, _dominant_part, weyl_denominator
from spindex.errors import MethodMismatch, NonDominantLeadingTerm, NotWeylInvariant


def _heap_entry(w, rs) -> tuple:
    # heapq pops its least entry, so negate height_key's (height, lex) order
    ht, _ = rs.height_key(w)
    return -ht, tuple(-x for x in w), w


def is_weyl_invariant(chi, rs) -> bool:
    """c(s_i w) = c(w) for every simple reflection: both sides of each wall hold
    as many terms, and the terms with w_i > 0 find their partners."""
    terms = chi._terms
    for i in range(rs.rank):
        up = [(w, c) for w, c in terms.items() if w[i] > 0]
        if len(up) != sum(1 for w in terms if w[i] < 0):
            return False
        for w, c in up:
            if terms.get(rs.reflect(i, w)) != c:
                return False
    return True


def peel(chi, rs) -> dict:
    """Subtract the top irreducible on the dominant chamber, one heap entry per weight."""
    if chi:
        top = max(chi._terms, key=rs.height_key)
        if min(top) < 0:
            raise NonDominantLeadingTerm(
                f"leading weight {top} is not dominant; not a character of the group")
    rem = {w: c for w, c in chi._terms.items() if min(w) >= 0}
    heap = [_heap_entry(w, rs) for w in rem]
    heapq.heapify(heap)
    out = {}
    while heap:
        nu = heapq.heappop(heap)[-1]
        c = rem.get(nu)
        if c is None:
            continue
        lam = tuple(x + 1 for x in nu)
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


def antisymmetrize(chi, rs) -> dict:
    """Scatter each product t^{v + d} (d in the rho orbit) that lands strictly dominant."""
    denominator = weyl_denominator(rs)._terms
    floor = [-max(d[i] for d in denominator) for i in range(rs.rank)]
    near = [(v, c) for v, c in chi._terms.items() if all(map(gt, v, floor))]
    acc = {}
    for d, s in denominator.items():
        for v, c in near:
            x = tuple(map(add, v, d))
            if min(x) > 0:
                acc[x] = acc.get(x, 0) + s * c
    return {x: m for x, m in acc.items() if m}


def decompose(chi, rs) -> Decomposition:
    if not is_weyl_invariant(chi, rs):
        raise NotWeylInvariant("input character is not Weyl-invariant")
    by_peeling = peel(chi, rs)
    by_antisym = antisymmetrize(chi, rs)
    if by_peeling != by_antisym:
        raise MethodMismatch(
            f"peeling gave {by_peeling} but antisymmetrization gave {by_antisym}")
    return Decomposition(by_peeling)
