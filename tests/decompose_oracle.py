"""Decomposition oracles for the tests.

``spindex.characters`` checks invariance and antisymmetrizes as builtin
passes over per-axis coordinate columns, then confirms the multiplicities by
an exact evaluation of the Weyl character formula.  Here the same first two
steps loop over the weight tuples one term at a time, the way the package did
before the column passes, and peeling is the second, independent method the
package used before the evaluation: subtract the top irreducible, whose
dominant weights come from ``weyl_character``.  ``column_peel`` is that peel
as the package last ran it, over the columns; ``peel`` is the same steps one
tuple at a time.  ``decompose`` below runs the tuple-at-a-time steps with the
old checks, in the old order, and raises the same error classes.
"""

import heapq
from itertools import compress, repeat
from operator import add, gt, mul, neg, sub

from spindex.characters import Decomposition, _above, _columns, weyl_character, weyl_denominator
from spindex.errors import MethodMismatch, NotWeylInvariant, SpindexError


class NonDominantLeadingTerm(SpindexError):
    """Peeling found a leading weight that is not dominant."""


def height_key(w, rs) -> tuple:
    """Order key making the dominant member of each Weyl orbit maximal; lex tie-break."""
    return sum(map(mul, rs._height_fun, w)), w


def dominant_part(lam, rs) -> dict:
    """Dominant weights of chi_lam with their multiplicities; cached per root system."""
    cached = rs.char_cache.get(("dominant", lam))
    if cached is None:
        cached = {w: c for w, c in weyl_character(lam, rs)._terms.items() if min(w) >= 0}
        rs.char_cache[("dominant", lam)] = cached
    return cached


def _heap_entry(w, rs) -> tuple:
    # heapq pops its least entry, so negate height_key's (height, lex) order
    ht, _ = height_key(w, rs)
    return -ht, tuple(-x for x in w), w


def column_peel(chi, rs, cols=None) -> dict:
    """Decompose by repeatedly subtracting the top irreducible, in passes over the columns.

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
    # after the invariance check, top_i < 0 would put s_i(top) = top - top_i
    # alpha_i, of height ht(top) - 2 top_i, in the support
    if min(top) < 0:
        raise NonDominantLeadingTerm(
            f"leading weight {top} is not dominant; not a character of the group")
    dominant = _above(cols, repeat(-1))
    rem = dict(compress(terms.items(), dominant))
    heap = list(zip(map(neg, compress(heights, dominant)),
                    zip(*[map(neg, compress(col, dominant)) for col in cols]), rem))
    heapq.heapify(heap)
    out = {}
    while heap:
        nu = heapq.heappop(heap)[-1]
        c = rem.get(nu)
        if c is None:
            continue  # cancelled after it was pushed
        lam = tuple(x + 1 for x in nu)  # nu + rho; rho = (1, ..., 1)
        out[lam] = c
        for w, m in dominant_part(lam, rs).items():
            left = rem.get(w, 0) - c * m
            if not left:
                del rem[w]
                continue
            if w not in rem:
                heapq.heappush(heap, _heap_entry(w, rs))
            rem[w] = left
    return out


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
        top = max(chi._terms, key=lambda w: height_key(w, rs))
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
        for w, m in dominant_part(lam, rs).items():
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


def gather_antisymmetrize(chi, rs) -> dict:
    """Gather m_lam = sum_d sign(d) c(lam - d) over every candidate lam, one pass per d.

    The candidates are the strictly dominant v + d reached from a weight v of
    chi near the chamber and a d in the rho orbit; each m_lam adds up one
    ``terms.get`` pass per d.  This is the column form the package ran before
    it scattered over the pairs that land in the chamber.
    """
    terms = chi._terms
    cols = _columns(terms, rs.rank)
    denominator = weyl_denominator(rs)._terms
    # v + d is strictly dominant when v_i > -d_i on every axis
    near = _above(cols, [-max(d[i] for d in denominator) for i in range(rs.rank)])
    cols = [list(compress(col, near)) for col in cols]
    reached = set()
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
