"""Admissible orbits and their spin-c indices."""

import random
import re
from fractions import Fraction as Q

import orbit_oracle
import pytest

import spindex.orbits
from spindex import (
    admissible_orbits_on_face,
    all_faces,
    build_root_system,
    coadjoint_orbit,
    face_of,
    is_admissible,
    orbit_spin_index,
)
from spindex.errors import (
    EmptyFaceRegion,
    NotAdmissible,
    NotDominant,
    NotOnFace,
    OrbitRegionTooLarge,
    SpindexError,
)
from spindex.orbits import CoadjointOrbit, OrbitIndex
from spindex.roots import face_from_vanishing_set, is_regular
from spindex.weights import wadd, weight


def test_admissibility_examples(a2):
    assert is_admissible(weight([Q(3, 2), 0]), a2)         # mu - rho + rho_sigma = 0
    assert not is_admissible(weight([1, 0]), a2)           # shift is (-1/2, 0)
    assert is_admissible(weight([1, 1]), a2)               # regular lattice point
    assert not is_admissible(weight([Q(1, 2), Q(1, 2)]), a2)  # shift is (-1/2, -1/2)
    assert not is_admissible(weight([Q(1, 3), 0]), a2)     # shift is (-1/6, 0)


def test_admissibility_checks_the_rank(a2):
    with pytest.raises(SpindexError, match="is_admissible needs a rank-2 weight for A2, got rank 1"):
        is_admissible(weight([1]), a2)


def test_admissibility_requires_dominant(a2):
    with pytest.raises(NotDominant):
        is_admissible(weight([-1, 0]), a2)


def test_admissibility_accepts_what_weight_accepts(a2):
    # orbit_model, kirwan_contains and multiplicity read strings through weight(), as this does
    assert is_admissible(("1/2", "0"), a2) and is_admissible(("3/2", "0"), a2)
    assert not is_admissible(("1", "0"), a2)
    assert is_admissible((1, 1), a2)


def test_dominance_errors_print_coordinates(a2):
    cases = [
        (lambda: is_admissible(("-1", "2"), a2),
         "admissibility test requires a dominant weight, got (-1,2)"),
        (lambda: coadjoint_orbit(weight([Q(-1, 2), 2]), a2),
         "orbit representative must be dominant, got (-1/2,2)"),
        (lambda: CoadjointOrbit(weight([-1, 1]), face_from_vanishing_set(frozenset(), a2)),
         "orbit representative must be dominant, got (-1,1)"),
        (lambda: face_of(weight([0, -1]), a2), "face_of requires a dominant weight, got (0,-1)"),
    ]
    for call, text in cases:
        with pytest.raises(NotDominant) as err:
            call()
        assert str(err.value) == text


def test_orbit_index_family(a2):
    zero = orbit_spin_index(coadjoint_orbit(weight([Q(1, 2), 0]), a2), a2)
    assert zero.is_zero and zero == OrbitIndex.zero()
    trivial = orbit_spin_index(coadjoint_orbit(weight([Q(3, 2), 0]), a2), a2)
    assert trivial == OrbitIndex.irreducible(weight([1, 1]))
    nxt = orbit_spin_index(coadjoint_orbit(weight([Q(5, 2), 0]), a2), a2)
    assert nxt == OrbitIndex.irreducible(weight([2, 1]))


def test_orbit_index_requires_admissible(a2):
    with pytest.raises(NotAdmissible):
        orbit_spin_index(coadjoint_orbit(weight([1, 0]), a2), a2)


def test_orbit_representative_must_lie_on_its_face(a2):
    # orbit_spin_index takes rho_sigma from the face it is given: on S={}
    # (3/2, 0) would get index 0 instead of pi(1,1), and (1,1) on S={1,2}
    # would get pi(2,2) instead of pi(1,1)
    for mu, vanishing in [((Q(3, 2), 0), set()), ((1, 1), {1, 2}), ((1, 1, 0), set())]:
        face = face_from_vanishing_set(frozenset(vanishing), a2)
        with pytest.raises(NotOnFace, match="does not lie on the face"):
            CoadjointOrbit(weight(mu), face)
    with pytest.raises(NotDominant):
        CoadjointOrbit(weight([-1, 1]), face_from_vanishing_set(frozenset(), a2))
    assert orbit_spin_index(coadjoint_orbit(weight([Q(3, 2), 0]), a2), a2) == \
        OrbitIndex.irreducible(weight([1, 1]))
    assert orbit_spin_index(coadjoint_orbit(weight([1, 1]), a2), a2) == \
        OrbitIndex.irreducible(weight([1, 1]))


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "B2", "C3", "G2"])
def test_orbit_index_reads_regularity_off_dominant_coordinates(label, monkeypatch):
    # a dominant mu + rho_sigma is regular exactly when its simple coordinates
    # are all > 0, so the pairing with every positive coroot is left to the
    # shifts with a negative coordinate
    rs = build_root_system(label)
    calls = []
    monkeypatch.setattr(spindex.orbits, "is_regular",
                        lambda w, rs: calls.append(w) or is_regular(w, rs))
    off_chamber = []
    for face in all_faces(rs):
        for orbit in admissible_orbits_on_face(face, (Q(0), Q(4)), rs):
            shifted = wadd(orbit.mu, face.rho_sigma)
            index = orbit_spin_index(orbit, rs)
            if is_regular(shifted, rs):
                assert index == OrbitIndex.irreducible(shifted), orbit.mu
            else:
                assert index.is_zero, orbit.mu
            if min(shifted) < 0:
                off_chamber.append(shifted)
    assert calls == off_chamber
    assert len(off_chamber) == {"C3": 2, "G2": 1}.get(label, 0)


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "B2", "C3", "G2"])
def test_every_listed_orbit_is_admissible(label):
    # the enumeration no longer re-checks its orbits: each run of values starts
    # at the admissible residue, also from a lower bound that is not 0
    rs = build_root_system(label)
    for bounds in ((Q(0), Q(4)), (Q(1, 3), Q(7, 2))):
        for face in all_faces(rs):
            for orbit in admissible_orbits_on_face(face, bounds, rs):
                assert is_admissible(orbit.mu, rs), orbit.mu


def test_ray_family_is_half_odd_integers(a2):
    # the admissible points on the omega_1 ray are exactly (1+2n)/2
    ray = face_from_vanishing_set(frozenset({2}), a2)
    orbits = admissible_orbits_on_face(ray, (Q(0), Q(8)), a2)
    values = [o.mu[0] for o in orbits]
    assert values == [Q(1 + 2 * n, 2) for n in range(8)]
    # with the indices 0, pi(rho), pi(rho + (n-1) omega_1), ...
    indices = [orbit_spin_index(o, a2) for o in orbits]
    assert indices[0].is_zero
    for n, idx in enumerate(indices[1:], start=1):
        assert idx == OrbitIndex.irreducible(weight([n, 1]))


def test_ray_segment_example(a2):
    ray = face_from_vanishing_set(frozenset({2}), a2)
    orbits = admissible_orbits_on_face(ray, (Q(0), Q(2)), a2)
    assert [o.mu for o in orbits] == [weight([Q(1, 2), 0]), weight([Q(3, 2), 0])]


def test_open_face_box(a2):
    open_face = face_from_vanishing_set(frozenset(), a2)
    orbits = admissible_orbits_on_face(open_face, (Q(0), Q(2)), a2)
    assert [o.mu for o in orbits] == [
        weight([1, 1]), weight([1, 2]), weight([2, 1]), weight([2, 2])
    ]


def test_vertex_face_origin(a1):
    vertex = face_from_vanishing_set(frozenset({1}), a1)
    orbits = admissible_orbits_on_face(vertex, None, a1)
    assert [o.mu for o in orbits] == [weight([0])]
    assert orbit_spin_index(orbits[0], a1) == OrbitIndex.irreducible(weight([1]))


def test_per_coordinate_bounds(a2):
    open_face = face_from_vanishing_set(frozenset(), a2)
    orbits = admissible_orbits_on_face(open_face, {1: (Q(0), Q(1)), 2: (Q(0), Q(3))}, a2)
    assert [o.mu for o in orbits] == [weight([1, 1]), weight([1, 2]), weight([1, 3])]


def test_region_errors(a2):
    open_face = face_from_vanishing_set(frozenset(), a2)
    with pytest.raises(EmptyFaceRegion):
        admissible_orbits_on_face(open_face, None, a2)
    with pytest.raises(EmptyFaceRegion):
        admissible_orbits_on_face(open_face, (Q(3), Q(1)), a2)
    with pytest.raises(EmptyFaceRegion):
        admissible_orbits_on_face(open_face, {1: (Q(0), Q(2))}, a2)


def test_region_size_is_bounded(a2):
    # counted before any orbit is built: 257 * 256 = 65,792 > 2^16
    open_face = face_from_vanishing_set(frozenset(), a2)
    with pytest.raises(OrbitRegionTooLarge, match="65792"):
        admissible_orbits_on_face(open_face, {1: (Q(0), Q(257)), 2: (Q(0), Q(256))}, a2)
    ray = face_from_vanishing_set(frozenset({2}), a2)  # 1/2, 3/2, ..., 2^16 + 1/2
    with pytest.raises(OrbitRegionTooLarge, match="65537"):
        admissible_orbits_on_face(ray, (Q(0), Q(2) ** 16 + 1), a2)


def test_regular_lattice_points_are_admissible_with_own_index(a2, a3):
    for rs in (a2, a3):
        for coords in _grid(rs.rank, 2):
            lam = weight([c + 1 for c in coords])  # strictly dominant lattice point
            assert is_admissible(lam, rs)
            assert orbit_spin_index(coadjoint_orbit(lam, rs), rs) \
                == OrbitIndex.irreducible(lam)


def _grid(rank, top):
    if rank == 1:
        return [(c,) for c in range(top + 1)]
    return [(c,) + rest for c in range(top + 1) for rest in _grid(rank - 1, top)]


def test_index_not_injective_specific_collision(a2):
    # both subregular orbits at parameter 3/2 map to the trivial representation
    left = orbit_spin_index(coadjoint_orbit(weight([Q(3, 2), 0]), a2), a2)
    right = orbit_spin_index(coadjoint_orbit(weight([0, Q(3, 2)]), a2), a2)
    assert left == right == OrbitIndex.irreducible(weight([1, 1]))


def test_admissible_set_is_lattice_coset_on_face(a2, a3):
    for rs, mu, step in [
        (a2, weight([Q(3, 2), 0]), weight([1, 0])),
        (a2, weight([1, 1]), weight([2, 3])),
        (a3, weight([1, Q(1, 2), 0]), weight([1, 2, 0])),
    ]:
        assert is_admissible(mu, rs)
        bumped = tuple(a + b for a, b in zip(mu, step))
        assert face_of(bumped, rs) == face_of(mu, rs)  # step keeps the face
        assert is_admissible(bumped, rs)


def test_zero_index_iff_shift_singular(a2):
    ray = face_from_vanishing_set(frozenset({2}), a2)
    for o in admissible_orbits_on_face(ray, (Q(0), Q(6)), a2):
        from spindex import is_regular
        from spindex.weights import wadd

        shifted = wadd(o.mu, o.face.rho_sigma)
        assert orbit_spin_index(o, a2).is_zero == (not is_regular(shifted, a2))


_ENDPOINTS = [Q(0), Q(1, 2), Q(1), Q(3, 2), Q(2), Q(7, 3), Q(5, 2), Q(3), Q(-1, 2)]


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "B2", "C3", "G2"])
def test_the_doubled_enumeration_matches_the_fraction_oracle(label):
    # seeded faces and bounds, 0, half-integers, 7/3 and empty intervals
    # included, as one interval or per coordinate: the same orbits in the same
    # order, the same errors, and the same index at every orbit
    rs = build_root_system(label)
    rng = random.Random(label)
    faces = all_faces(rs)
    compared = raised = 0
    for _ in range(60):
        face = rng.choice(faces)
        if rng.random() < 0.5:
            bounds = (rng.choice(_ENDPOINTS), rng.choice(_ENDPOINTS))
        else:
            bounds = {i + 1: (rng.choice(_ENDPOINTS), rng.choice(_ENDPOINTS))
                      for i in face.free_coordinates}
        try:
            want = orbit_oracle.admissible_orbits_on_face(face, bounds, rs)
        except EmptyFaceRegion as exc:
            with pytest.raises(EmptyFaceRegion, match=re.escape(str(exc))):
                admissible_orbits_on_face(face, bounds, rs)
            raised += 1
            continue
        got = admissible_orbits_on_face(face, bounds, rs)
        assert got == want, (face.label(), bounds)
        for orbit, old in zip(got, want):
            assert orbit.mu2 == tuple(int(2 * c) for c in old.mu)
            assert all(type(c) is int for c in orbit.mu2)
            assert hash(orbit) == hash(old) and orbit.label() == old.label()
            assert orbit_spin_index(orbit, rs) == orbit_oracle.orbit_spin_index(old, rs)
            assert orbit_spin_index(old, rs) == orbit_spin_index(orbit, rs)
        compared += len(got)
    assert compared > 0 and raised > 0, (compared, raised)


def test_an_enumerated_orbit_makes_its_fractions_when_read(a2):
    ray = face_from_vanishing_set(frozenset({2}), a2)
    orbit = admissible_orbits_on_face(ray, (Q(0), Q(2)), a2)[0]
    assert "mu" not in vars(orbit) and orbit.mu2 == (1, 0)
    assert orbit.mu == (Q(1, 2), 0) and all(type(c) is Q for c in orbit.mu)
    assert orbit == CoadjointOrbit((Q(1, 2), Q(0)), ray)
    with pytest.raises(AttributeError):
        orbit.lam


def test_a_checked_orbit_off_half_the_lattice_is_not_admissible(a2):
    orbit = coadjoint_orbit(weight([Q(1, 3), 0]), a2)
    assert orbit.mu2 == (Q(2, 3), 0)
    with pytest.raises(NotAdmissible):
        orbit_spin_index(orbit, a2)
