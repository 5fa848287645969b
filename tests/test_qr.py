"""Vanishing predicates, the multiplicity formula, and full verification."""

import dataclasses
import itertools
import random
import time
from fractions import Fraction as Q

import pytest

from spindex import (
    ConstantProvider,
    Decomposition,
    FromMultiplicitiesProvider,
    TableEntry,
    TableProvider,
    admissible_orbits_on_face,
    all_faces,
    coadjoint_orbit,
    contributing_faces,
    decompose,
    decomposed_index,
    localized_index,
    multiplicity,
    orbit_model,
    su3_flag_bundle,
    validate_provider,
    vanishes_by_moment_image,
    vanishes_by_stabilizer,
    verify_qr,
)
from spindex.errors import (
    OrbitRegionTooLarge,
    ProviderInvalid,
    ProviderMissingOrbit,
    SpindexError,
)
from spindex.localization import (
    KirwanPiece,
    KirwanSet,
    ManifoldModel,
    _in_hull,
    kirwan_admissible_orbits,
    kirwan_contains,
    kirwan_faces_met,
)
from spindex.roots import (
    Face,
    StabilizerClass,
    build_root_system,
    face_from_vanishing_set,
    stabilizer_class_of_face,
)
from spindex.weights import weight


def _fake_rank2_stabilizer(a2):
    # two simple roots presented as the positive system of a rank-2 subalgebra;
    # no chamber face of A2 has a two-root Levi, so this class is unrealizable
    fake = Face(
        vanishing_set=frozenset({1, 2}),
        rho_sigma=weight([Q(1, 2), Q(1, 2)]),
        levi_positive_roots=(weight([2, -1]), weight([-1, 2])),
    )
    return StabilizerClass((fake,))


def test_vanishes_by_stabilizer(a2):
    assert not vanishes_by_stabilizer(su3_flag_bundle(1, 3))
    assert not vanishes_by_stabilizer(orbit_model(a2, weight([1, 1])))

    base = orbit_model(a2, weight([Q(1, 2), 0]))  # zero-index orbit data
    synthetic = dataclasses.replace(base, generic_stabilizer=_fake_rank2_stabilizer(a2),
                                    name="synthetic-unrealizable")
    assert vanishes_by_stabilizer(synthetic)
    # and the localization index really is zero, as the predicate promises
    assert not decompose(localized_index(synthetic), a2)

    # declaring the full-group class is always realizable (the vertex face)
    from spindex import stabilizer_class_of_face

    vertex = face_from_vanishing_set(frozenset({1, 2}), a2)
    full_group = dataclasses.replace(
        base, generic_stabilizer=stabilizer_class_of_face(vertex, a2),
        name="full-group-stabilizer")
    assert not vanishes_by_stabilizer(full_group)


def test_vanishes_by_moment_image(a2):
    assert not vanishes_by_moment_image(su3_flag_bundle(1, 3))

    vertex = face_from_vanishing_set(frozenset({1, 2}), a2)
    at_origin = dataclasses.replace(
        su3_flag_bundle(0, 1),
        kirwan=KirwanSet((KirwanPiece(face=vertex, points=(weight([0, 0]),)),)),
        name="kirwan-at-origin")
    assert vanishes_by_moment_image(at_origin)

    ray1 = face_from_vanishing_set(frozenset({2}), a2)
    degenerate = dataclasses.replace(
        su3_flag_bundle(0, 1),
        kirwan=KirwanSet((KirwanPiece(face=ray1, segments=((Q(0), Q(0)),)),)),
        name="kirwan-degenerate-segment")
    assert vanishes_by_moment_image(degenerate)  # [0,0] touches only the vertex


def test_moment_image_predicate_needs_a_realizable_class(a2):
    # an explicit error, so that python -O cannot turn it into a silent True
    synthetic = dataclasses.replace(su3_flag_bundle(1, 3),
                                    generic_stabilizer=_fake_rank2_stabilizer(a2))
    with pytest.raises(SpindexError, match="realizable"):
        vanishes_by_moment_image(synthetic)


def test_contributing_faces(a2):
    faces = contributing_faces(su3_flag_bundle(1, 3))
    assert {f.vanishing_set for f in faces} == {frozenset({1}), frozenset({2})}

    faces = contributing_faces(su3_flag_bundle(3, 1))  # symplectic regime
    assert [f.vanishing_set for f in faces] == [frozenset({1})]

    faces = contributing_faces(orbit_model(a2, weight([1, 1])))
    assert [f.vanishing_set for f in faces] == [frozenset()]


def test_multiplicity_formula(a2):
    model = su3_flag_bundle(1, 3)
    one = ConstantProvider(1)
    assert multiplicity(model, weight([1, 1]), one) == 2
    # lam - rho_sigma lands outside the declared Kirwan segment on one ray and
    # off the other ray entirely
    assert multiplicity(model, weight([3, 1]), one) == 0
    assert multiplicity(model, weight([5, 5]), one) == 0


def test_multiplicity_checks_the_rank():
    with pytest.raises(SpindexError, match="multiplicity needs a rank-2 weight for A2, got rank 1"):
        multiplicity(su3_flag_bundle(1, 3), weight([1]), ConstantProvider(1))


def test_verify_qr_su3_13(a2):
    report = verify_qr(su3_flag_bundle(1, 3), ConstantProvider(1))
    assert report.match
    assert report.rhs == Decomposition({weight([1, 1]): 2})
    terms = {(t.orbit.mu, t.reduced_index,
              None if t.orbit_index.is_zero else t.orbit_index.lam)
             for t in report.orbit_terms}
    assert terms == {
        (weight([Q(1, 2), 0]), 1, None),
        (weight([Q(3, 2), 0]), 1, weight([1, 1])),
        (weight([0, Q(1, 2)]), 1, None),
        (weight([0, Q(3, 2)]), 1, weight([1, 1])),
    }


def test_verify_qr_su3_25(a2):
    report = verify_qr(su3_flag_bundle(2, 5), ConstantProvider(1))
    assert report.match
    assert report.rhs == Decomposition({
        weight([1, 1]): 2, weight([2, 1]): 1, weight([1, 2]): 1,
    })


def test_verify_qr_orbit_with_table(a2):
    model = orbit_model(a2, weight([Q(3, 2), 0]))
    provider = TableProvider([TableEntry(weight([Q(3, 2), 0]), 1)])
    report = verify_qr(model, provider)
    assert report.match
    assert report.lhs == report.rhs == Decomposition({weight([1, 1]): 1})


def test_verify_qr_mismatch_reported(a2):
    report = verify_qr(su3_flag_bundle(1, 3), ConstantProvider(2))
    assert not report.match
    assert report.differences == {weight([1, 1]): (2, 4)}


def test_rhs_adds_over_colliding_orbits(a2):
    # both parameter-3/2 orbits feed the trivial representation; their reduced
    # indices must add in the right-hand side
    report = verify_qr(su3_flag_bundle(1, 3), ConstantProvider(1))
    contributing = [t for t in report.orbit_terms
                    if not t.orbit_index.is_zero
                    and t.orbit_index.lam == weight([1, 1])]
    assert len(contributing) == 2
    assert report.rhs.multiplicity(weight([1, 1])) == 2


def test_multiplicity_matches_verify_qr_term_by_term(a2, a3):
    models = [
        (su3_flag_bundle(1, 3), ConstantProvider(1)),
        (su3_flag_bundle(2, 5), ConstantProvider(1)),
        (su3_flag_bundle(0, 4), ConstantProvider(1)),
        (su3_flag_bundle(3, 2), ConstantProvider(1)),
        (orbit_model(a2, weight([Q(3, 2), 0])), ConstantProvider(1)),
        (orbit_model(a3, weight([1, 1, 1])), ConstantProvider(1)),
    ]
    for model, provider in models:
        report = verify_qr(model, provider)
        lams = set(report.lhs.multiplicities()) | set(report.rhs.multiplicities())
        for lam in lams:
            assert multiplicity(model, lam, provider) == report.rhs.multiplicity(lam)


def _vertex_segment_model(a1):
    """No fixed points, stabilizer the whole group, and a Kirwan segment [0, 1] from the vertex."""
    vertex = face_from_vanishing_set(frozenset({1}), a1)
    return ManifoldModel(
        root_system=a1, fixed_points=(), generic_stabilizer=stabilizer_class_of_face(vertex, a1),
        kirwan=KirwanSet((KirwanPiece(face=face_from_vanishing_set(frozenset(), a1),
                                      segments=((0, 1),)),)),
        name="vertex-segment")


def test_a_segment_from_0_lists_the_vertex_orbit(a1):
    model = _vertex_segment_model(a1)
    vertex = face_from_vanishing_set(frozenset({1}), a1)
    assert [o.mu for o in kirwan_admissible_orbits(model.kirwan, vertex, a1)] == [weight([0])]
    report = verify_qr(model, ConstantProvider(1))
    assert report.rhs == Decomposition({weight([1]): 1})
    assert multiplicity(model, weight([1]), ConstantProvider(1)) == 1


def test_both_right_sides_agree_on_every_weight_of_either_side(a1):
    # verify_qr lists orbits per face (kirwan_admissible_orbits), multiplicity
    # tests one point (kirwan_contains); the two must give the same right side
    models = [su3_flag_bundle(a, b) for a in range(0, 41, 5) for b in range(0, 41, 5)]
    for rs in map(build_root_system, ("A1", "A2", "A3", "B2", "G2")):
        for face in all_faces(rs):
            orbits = admissible_orbits_on_face(face, (0, 4), rs)
            if orbits:
                models.append(orbit_model(rs, orbits[-1].mu))
    models.append(_vertex_segment_model(a1))
    provider = ConstantProvider(1)
    checked = 0
    for model in models:
        report = verify_qr(model, provider)
        for lam in report.lhs.multiplicities().keys() | report.rhs.multiplicities().keys():
            assert multiplicity(model, lam, provider) == report.rhs.multiplicity(lam), (
                model.name, lam)
            checked += 1
    assert (len(models), checked) == (104, 1615)


def test_abelian_from_multiplicities_tautology(a1, a2):
    for model in [orbit_model(a1, weight([2])), orbit_model(a2, weight([2, 1]))]:
        provider = FromMultiplicitiesProvider(decomposed_index(model))
        report = verify_qr(model, provider)
        assert report.match
        assert report.lhs == report.rhs


def test_from_multiplicities_requires_abelian_stabilizer():
    model = su3_flag_bundle(1, 3)
    provider = FromMultiplicitiesProvider(decomposed_index(model))
    with pytest.raises(ProviderInvalid):
        verify_qr(model, provider)


def test_table_provider_missing_orbit(a2):
    model = orbit_model(a2, weight([Q(3, 2), 0]))
    with pytest.raises(ProviderMissingOrbit):
        verify_qr(model, TableProvider([]))


def test_validate_provider(a2):
    model = su3_flag_bundle(1, 3)
    assert validate_provider(ConstantProvider(1), model) == []

    bad_key = TableProvider([TableEntry(weight([1, 0]), 1)])
    warnings = validate_provider(bad_key, model)
    assert any(w.startswith("NonAdmissibleKey") for w in warnings)

    wrong_rank = TableProvider([TableEntry(weight([1]), 1)])
    assert validate_provider(wrong_rank, model) == [
        "NonAdmissibleKey: table entry at (1) is not an admissible orbit"]

    wall = TableProvider([
        TableEntry(weight([Q(3, 2), 0]), 1, chamber="left"),
        TableEntry(weight([Q(3, 2), 0]), 2, chamber="right"),
    ])
    warnings = validate_provider(wall, model)
    assert any(w.startswith("WallInconsistency") for w in warnings)

    consistent = TableProvider([
        TableEntry(weight([Q(3, 2), 0]), 1, chamber="left"),
        TableEntry(weight([Q(3, 2), 0]), 1, chamber="right"),
    ])
    assert validate_provider(consistent, model) == []


def test_table_provider_lookup_takes_the_first_entry(a2):
    model = su3_flag_bundle(1, 3)
    table = TableProvider([
        TableEntry(weight([Q(1, 2), 0]), 5),
        TableEntry(weight([Q(3, 2), 0]), 1, chamber="left"),
        TableEntry(weight([Q(3, 2), 0]), 2, chamber="right"),
    ])
    assert table.reduced_index(coadjoint_orbit(weight([Q(3, 2), 0]), a2), model) == 1
    assert table.reduced_index(coadjoint_orbit(weight([Q(1, 2), 0]), a2), model) == 5
    with pytest.raises(ProviderMissingOrbit):
        table.reduced_index(coadjoint_orbit(weight([0, Q(1, 2)]), a2), model)


def _faces_met_by_subsets(points, rs):
    """Every nonempty subset's common zero set: the exhaustive oracle."""
    return {
        face_from_vanishing_set(frozenset(
            i + 1 for i in range(rs.rank) if all(p[i] == 0 for p in subset)), rs)
        for size in range(1, len(points) + 1)
        for subset in itertools.combinations(points, size)
    }


def test_kirwan_faces_met_is_closed_under_intersection(a3):
    rng = random.Random(0)
    open_face = face_from_vanishing_set(frozenset(), a3)
    for n in [1, 2, 3, 5, 8] * 6:
        points = tuple(weight([rng.choice([0, 0, 1, 2]) for _ in range(3)]) for _ in range(n))
        kirwan = KirwanSet((KirwanPiece(face=open_face, points=points),))
        assert kirwan_faces_met(kirwan, a3) == _faces_met_by_subsets(points, a3)
    points = tuple(weight([rng.choice([0, 1]) for _ in range(3)]) for _ in range(40))
    start = time.monotonic()
    met = kirwan_faces_met(KirwanSet((KirwanPiece(face=open_face, points=points),)), a3)
    assert time.monotonic() - start < 1  # 2^40 subsets would never finish
    assert met == _faces_met_by_subsets(tuple(set(points)), a3)  # repeats change nothing


def test_kirwan_hull_membership_on_small_pieces(a2, a3):
    # oracle: the simplex with vertices 0 and 2 e_i is {x >= 0, sum x <= 2};
    # the extra points lie inside it and change nothing
    for rs in (a2, a3):
        n = rs.rank
        units = [tuple(2 * int(i == j) for j in range(n)) for i in range(n)]
        inner = [tuple([1] + [0] * (n - 1)), tuple([Q(1, 2)] * n)]
        piece = KirwanPiece(face=face_from_vanishing_set(frozenset(), rs),
                            points=tuple(weight(p) for p in [(0,) * n] + units + inner))
        kirwan = KirwanSet((piece,))
        for x in itertools.product([Q(k, 2) for k in range(6)], repeat=n):
            assert kirwan_contains(kirwan, weight(x), rs) == (sum(x) <= 2), x


def _affine_solve(points, x):
    """Exact test for one affinely independent subset: x = sum l_i p_i, l >= 0, sum l = 1."""
    rank = len(x)
    rows = [[p[i] for p in points] + [x[i]] for i in range(rank)]
    rows.append([Q(1)] * len(points) + [Q(1)])
    pivots = []
    r = 0
    for col in range(len(points)):
        piv = next((k for k in range(r, len(rows)) if rows[k][col] != 0), None)
        if piv is None:
            return False  # affinely dependent subset; skip
        rows[r], rows[piv] = rows[piv], rows[r]
        scale = rows[r][col]
        rows[r] = [v / scale for v in rows[r]]
        for k in range(len(rows)):
            if k != r and rows[k][col] != 0:
                f = rows[k][col]
                rows[k] = [v - f * u for v, u in zip(rows[k], rows[r])]
        pivots.append(r)
        r += 1
    if any(any(v != 0 for v in rows[k][:-1]) or rows[k][-1] != 0 for k in range(r, len(rows))):
        return False  # inconsistent
    return all(rows[k][-1] >= 0 for k in pivots)


def _in_hull_by_subsets(points, x):
    """The exhaustive oracle: by Caratheodory, x lies in the hull exactly when
    some <= rank + 1 of the points hold it as a convex combination."""
    return any(_affine_solve(list(subset), x)
               for size in range(1, min(len(points), len(x) + 1) + 1)
               for subset in itertools.combinations(points, size))


def _oracle_piece(rng, rank):
    """A small point piece, often degenerate: repeated, collinear or coplanar points."""
    def coord():
        return Q(rng.randint(-3, 3), rng.choice([1, 1, 2]))
    shape = rng.choice(["general", "repeats", "collinear", "flat", "one point"])
    if shape == "one point":
        return (weight([coord() for _ in range(rank)]),) * rng.randint(1, 3)
    n = rng.randint(2, 6)
    if shape in ("collinear", "flat"):
        # combinations of one or two directions through a base point
        base = [coord() for _ in range(rank)]
        dirs = [[Q(rng.randint(-2, 2)) for _ in range(rank)]
                for _ in range(1 if shape == "collinear" else 2)]
        points = [weight([b + sum(Q(rng.randint(-2, 2)) * d[i] for d in dirs)
                          for i, b in enumerate(base)]) for _ in range(n)]
    else:
        points = [weight([coord() for _ in range(rank)]) for _ in range(n)]
    if shape == "repeats":
        points += rng.sample(points, rng.randint(1, 2))
    rng.shuffle(points)
    return tuple(points)


def _oracle_queries(rng, points):
    """A vertex, listed points, a point on a segment between two, points just
    outside, and half-integral points."""
    rank = len(points[0])
    p, q = rng.choice(points), rng.choice(points)
    # the points extreme along c: stepping from one along c leaves the hull
    c = [Q(rng.randint(-3, 3)) for _ in range(rank)]
    if not any(c):
        c[0] = Q(1)
    far = max(points, key=lambda v: sum(a * b for a, b in zip(c, v)))
    t = Q(1, 16)
    return [far, p,
            weight([(a + b) / 2 for a, b in zip(p, q)]),
            weight([a + t * b for a, b in zip(far, c)]),
            weight([a + t for a in p]),
            weight([Q(rng.randint(-6, 6), 2) for _ in range(rank)]),
            weight([Q(rng.randint(-6, 6), 2) for _ in range(rank)])]


def test_kirwan_hull_simplex_agrees_with_the_subset_search():
    rng = random.Random(14)
    answers = {True: 0, False: 0}
    for k in range(240):
        points = _oracle_piece(rng, 1 + k % 3)
        for x in _oracle_queries(rng, points):
            expected = _in_hull_by_subsets(points, x)
            assert _in_hull(points, x) == expected, (points, x)
            answers[expected] += 1
    # both answers occur often, so neither side can pass by a constant
    assert min(answers.values()) > 400, answers


def test_kirwan_hull_of_200_points_in_rank_5_answers_in_seconds():
    a5 = build_root_system("A5")
    rng = random.Random(1)
    points = tuple(weight([rng.randint(1, 9) for _ in range(5)]) for _ in range(200))
    kirwan = KirwanSet((KirwanPiece(face=face_from_vanishing_set(frozenset(), a5),
                                    points=points),))
    centroid = weight([sum(c) / len(points) for c in zip(*points)])
    # the points extreme along c: a step from one of them along c leaves the hull
    c = (1, -2, 3, 1, -1)
    far = max(points, key=lambda v: sum(a * b for a, b in zip(c, v)))
    start = time.monotonic()
    assert kirwan_contains(kirwan, centroid, a5)
    assert kirwan_contains(kirwan, weight([(a + b) / 2 for a, b in zip(*points[:2])]), a5)
    assert not kirwan_contains(kirwan, weight([a + Q(b, 16) for a, b in zip(far, c)]), a5)
    assert time.monotonic() - start < 5


def test_kirwan_contains_checks_the_rank(a2):
    kirwan = su3_flag_bundle(1, 3).kirwan
    with pytest.raises(SpindexError,
                       match="kirwan_contains needs a rank-2 weight for A2, got rank 1"):
        kirwan_contains(kirwan, weight([1]), a2)


def test_kirwan_point_piece_boxes_are_bounded(a2):
    # the bounding box of two points holds 400 * 400 admissible orbits > 2^16
    open_face = face_from_vanishing_set(frozenset(), a2)
    kirwan = KirwanSet((KirwanPiece(face=open_face, points=(weight([1, 1]), weight([400, 400]))),))
    start = time.monotonic()
    with pytest.raises(OrbitRegionTooLarge, match="160000"):
        kirwan_admissible_orbits(kirwan, open_face, a2)
    assert time.monotonic() - start < 1


def test_report_json_shape(a2):
    report = verify_qr(su3_flag_bundle(1, 3), ConstantProvider(1))
    obj = report.to_json_obj(a2)
    assert obj["verdict"] == "match"
    assert {tuple(t["mu"]) for t in obj["orbit_terms"]} == {
        ("1/2", "0"), ("3/2", "0"), ("0", "1/2"), ("0", "3/2")
    }
    assert obj["lhs"] == [{
        "infinitesimal_character": ["1", "1"],
        "highest_weight": ["0", "0"],
        "multiplicity": 2,
        "dimension": 1,
    }]
