"""The column-pass decomposition against the tuple-at-a-time oracle.

``decompose`` checks invariance and antisymmetrizes as builtin passes over
one coordinate column per axis, then confirms the answer by an evaluation
over F_p; ``decompose_oracle`` checks invariance, peels and antisymmetrizes
one weight tuple at a time, and keeps the column-pass peel.  Both must give
the same answer, or raise the same error class, on every input.
"""

import random
from fractions import Fraction as Q

import pytest

import decompose_oracle as oracle
from spindex import (
    Decomposition,
    VirtualCharacter,
    admissible_orbits_on_face,
    all_faces,
    build_root_system,
    decompose,
    localized_index,
    orbit_model,
    su3_flag_bundle,
    weyl_character,
)
from spindex.characters import _antisymmetrize, _chamber_masks, _columns
from spindex.errors import NotWeylInvariant, SpindexError

# coordinates of the infinitesimal characters drawn per rank, kept small
# enough that G2 and A3 characters stay at a few hundred terms
TOPS = {1: 6, 2: 3, 3: 2}
LABELS = ["A1", "A2", "B2", "G2", "A3", "A2xA1"]


def _outcome(f, *args):
    try:
        return f(*args)
    except SpindexError as e:
        return type(e)


def _random_combination(rs, rng):
    top = TOPS[rs.rank]
    lams = {tuple(rng.randint(1, top) for _ in range(rs.rank)) for _ in range(rng.randint(1, 4))}
    terms = {}
    for lam in lams:
        m = rng.choice([-3, -2, -1, 1, 2, 3])
        for w, c in weyl_character(lam, rs).terms().items():
            terms[w] = terms.get(w, 0) + m * c
    return terms


def _perturbed(terms, rs, rng, kind):
    """The combination as it is, or with a term dropped, a coefficient changed,
    or a monomial added on the far side of a wall (some coordinate negative)."""
    terms = dict(terms)
    support = sorted(terms)
    if kind == "dropped" and support:
        del terms[rng.choice(support)]
    elif kind == "changed" and support:
        w = rng.choice(support)
        terms[w] += rng.choice([-2, -1, 1, 2])
    elif kind == "across a wall":
        w = [rng.randint(-3, 3) for _ in range(rs.rank)]
        w[rng.randrange(rs.rank)] = -rng.randint(1, 3)
        w = tuple(w)
        terms[w] = terms.get(w, 0) + rng.choice([-2, -1, 1, 2])
    return VirtualCharacter(terms)


@pytest.mark.parametrize("label", LABELS)
def test_columns_match_the_oracle_on_perturbed_combinations(label):
    rs = build_root_system(label)
    rng = random.Random(label)
    seen = set()
    for n in range(96):
        kind = ["as it is", "dropped", "changed", "across a wall"][n % 4]
        chi = _perturbed(_random_combination(rs, rng), rs, rng, kind)
        expected = _outcome(oracle.decompose, chi, rs)
        assert _outcome(decompose, chi, rs) == expected, (label, kind, chi)
        assert chi.is_weyl_invariant(rs) == oracle.is_weyl_invariant(chi, rs)
        # the two methods also agree with their oracles off the invariant characters
        assert _outcome(oracle.column_peel, chi, rs) == _outcome(oracle.peel, chi, rs)
        assert _antisymmetrize(chi, rs) == oracle.antisymmetrize(chi, rs)
        seen.add(expected if isinstance(expected, type) else Decomposition)
    # the draw reaches both a decomposition and the invariance error
    assert {Decomposition, NotWeylInvariant} <= seen


def test_a_dropped_zero_weight_keeps_invariance():
    # 0 is fixed by every reflection, so dropping it leaves an invariant character
    rs = build_root_system("A2")
    chi = weyl_character((2, 2), rs) - VirtualCharacter.monomial((0, 0), 2)
    assert chi.is_weyl_invariant(rs)
    assert decompose(chi, rs) == oracle.decompose(chi, rs) \
        == Decomposition({(2, 2): 1, (1, 1): -2})


@pytest.mark.parametrize("label", LABELS)
def test_the_zero_character_has_empty_columns(label):
    rs = build_root_system(label)
    zero = VirtualCharacter.zero()
    assert _columns(zero._terms, rs.rank) == [[]] * rs.rank
    assert zero.is_weyl_invariant(rs)
    assert oracle.column_peel(zero, rs) == _antisymmetrize(zero, rs) == {}
    assert decompose(zero, rs) == Decomposition() == oracle.decompose(zero, rs)


def test_rank_one_has_a_single_column(a1):
    chi = weyl_character((3,), a1) - 2 * weyl_character((1,), a1)
    assert _columns(chi._terms, 1) == [[2, 0, -2]]
    assert decompose(chi, a1) == Decomposition({(3,): 1, (1,): -2}) == oracle.decompose(chi, a1)
    lopsided = chi + VirtualCharacter.monomial((-4,))
    assert not lopsided.is_weyl_invariant(a1)
    with pytest.raises(NotWeylInvariant):
        decompose(lopsided, a1)
    with pytest.raises(oracle.NonDominantLeadingTerm):
        oracle.column_peel(VirtualCharacter.monomial((-1,)), a1)


def test_a_reducible_system_decomposes_factor_by_factor():
    rs = build_root_system("A2xA1")
    chi = weyl_character((2, 1, 2), rs) + 3 * weyl_character((1, 1, 3), rs)
    assert decompose(chi, rs) == Decomposition({(2, 1, 2): 1, (1, 1, 3): 3})
    # s_3 acts on the A1 axis alone: an unpartnered weight there breaks invariance
    broken = chi + VirtualCharacter.monomial((0, 0, -1))
    assert not broken.is_weyl_invariant(rs) and not oracle.is_weyl_invariant(broken, rs)


@pytest.mark.parametrize("label", ["B2", "G2"])
def test_cartan_entries_below_minus_one_reflect_through_the_general_column(label):
    rs = build_root_system(label)
    assert min(min(row) for row in rs.cartan_matrix) == {"B2": -2, "G2": -3}[label]
    chi = weyl_character((2, 1), rs) * weyl_character((1, 2), rs)
    dec = decompose(chi, rs)
    assert dec == oracle.decompose(chi, rs)
    assert dec.reconstruct(rs) == chi
    # a partner with another coefficient is caught through each reflection's columns
    for i in range(2):
        w = (1, 1)
        image = rs.reflect(i, w)
        skew = chi + VirtualCharacter.monomial(w) + VirtualCharacter.monomial(image, 2)
        assert skew.is_weyl_invariant(rs) == oracle.is_weyl_invariant(skew, rs) is False


def test_both_benchmark_pools_match_the_oracle():
    # every fifth su3 parameter pair and every third orbit of the orbit-grid pool
    checked = 0
    for a in range(0, 41, 5):
        for b in range(0, 41, 5):
            model = su3_flag_bundle(a, b)
            chi = localized_index(model)
            assert decompose(chi, model.root_system) == oracle.decompose(chi, model.root_system)
            checked += 1
    for label in ("A1", "A2", "A3", "B2", "G2"):
        rs = build_root_system(label)
        mus = [orbit.mu for face in all_faces(rs)
               for orbit in admissible_orbits_on_face(face, (Q(0), Q(4)), rs)]
        for mu in mus[::3]:
            chi = localized_index(orbit_model(rs, mu))
            assert decompose(chi, rs) == oracle.decompose(chi, rs), (label, mu)
            checked += 1
    assert checked == 81 + 71


def _random_character(rs, rng):
    """Random coefficients on random weights around the chamber: mostly near its
    walls, some deep inside it and some far outside, with no invariance."""
    terms = {}
    for _ in range(rng.randint(0, 60)):
        w = tuple(rng.randint(-4, 6) if rng.random() < 0.8 else rng.randint(-15, 15)
                  for _ in range(rs.rank))
        terms[w] = terms.get(w, 0) + rng.choice([-3, -2, -1, 1, 2, 3])
    return VirtualCharacter(terms)


@pytest.mark.parametrize("label", ["A1", "A2", "B2", "G2", "A3"])
def test_the_chamber_scatter_matches_the_gather_on_random_characters(label):
    rs = build_root_system(label)
    rng = random.Random(f"scatter-{label}")
    for _ in range(200):
        chi = _random_character(rs, rng)
        got = _antisymmetrize(chi, rs)
        assert got == oracle.gather_antisymmetrize(chi, rs) == oracle.antisymmetrize(chi, rs), chi
        assert all(min(lam) > 0 and m for lam, m in got.items())


def test_the_roots_of_a2_antisymmetrize_from_their_non_dominant_members():
    # sum over the roots is the adjoint character less its two zero weights,
    # pi(2,2) - 2 pi(1,1); pi(1,1) = t^0 is reached only as (2,-1) + (-1,2) and
    # (-1,2) + (2,-1), from the two roots that are not dominant
    rs = build_root_system("A2")
    roots = [*rs.positive_roots, *(tuple(-c for c in r) for r in rs.positive_roots)]
    chi = VirtualCharacter(dict.fromkeys(roots, 1))
    want = {(2, 2): 1, (1, 1): -2}
    assert _antisymmetrize(chi, rs) == oracle.gather_antisymmetrize(chi, rs) == want
    assert decompose(chi, rs) == Decomposition(want)
    dominant = VirtualCharacter({w: c for w, c in chi.terms().items() if min(w) >= 0})
    assert oracle.antisymmetrize(dominant, rs) != want


@pytest.mark.parametrize("label", ["A2", "B2", "G2", "A3", "D4"])
def test_the_chamber_masks_are_sized_by_the_root_system(label):
    # per axis, one |W|-bit set for each value between the extreme coordinates of
    # the rho orbit, and the widest value admits every element of it
    rs = build_root_system(label)
    ds, axes = _chamber_masks(rs)
    assert len(ds) == rs.weyl_order() and len(axes) == rs.rank
    for i, (low, top, masks) in enumerate(axes):
        assert low == 1 - max(d[i] for d, _ in ds) and top == 1 - min(d[i] for d, _ in ds)
        assert sorted(masks) == list(range(low, top + 1))
        assert masks[top] == (1 << len(ds)) - 1
        for x, bits in masks.items():
            assert bits == sum(1 << j for j, (d, _) in enumerate(ds) if x + d[i] > 0)


def test_the_e6_chamber_masks_are_23_per_axis():
    # the rho orbit of E6 spans [-11, 11] on every axis: 6 * 23 sets of 51,840
    # bits, where a table keyed by the clipped coordinates could reach 23^6 entries
    ds, axes = _chamber_masks(build_root_system("E6"))
    assert len(ds) == 51840
    assert [(low, top, len(masks)) for low, top, masks in axes] == [(-10, 12, 23)] * 6
