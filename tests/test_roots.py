"""Root systems, Weyl groups, faces, and stabilizer classes."""

import json
import math
import time
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spindex import (
    ConstantProvider,
    all_faces,
    build_root_system,
    dominant_representative,
    face_from_vanishing_set,
    face_of,
    is_regular,
    levi_conjugate,
    model_from_json_obj,
    model_to_json_obj,
    orbit_model,
    roots,
    stabilizer_classes,
    su3_flag_bundle,
    verify_qr,
)
from spindex.errors import FaceListTooLarge, NotDominant, UnknownType, WeylGroupTooLarge
from spindex.weights import wadd, weight, wscale, zero_weight

from weyl_oracle import simple_reflection, weyl_group


def test_a2_fields():
    rs = build_root_system("A2")
    assert rs.rank == 2
    assert set(rs.positive_roots) == {weight([2, -1]), weight([-1, 2]), weight([1, 1])}
    assert rs.weyl_order() == 6
    assert rs.rho == weight([1, 1])


def test_a1_fields():
    rs = build_root_system("A1")
    assert rs.positive_roots == (weight([2]),)
    assert rs.rho == weight([1])
    assert rs.weyl_order() == 2


def test_a3_counts():
    rs = build_root_system("A3")
    assert len(rs.positive_roots) == 6
    assert rs.weyl_order() == math.factorial(4)


@pytest.mark.parametrize("label,order,npos", [
    ("A1", 2, 1),
    ("A2", 6, 3),
    ("A3", 24, 6),
    ("B2", 8, 4),
    ("C3", 48, 9),
    ("G2", 12, 6),
    ("D4", 192, 12),
    ("A1xA1", 4, 2),
    ("A2xA1", 12, 4),
])
def test_type_zoo(label, order, npos):
    rs = build_root_system(label)
    assert rs.weyl_order() == order
    assert len({w.matrix for w in weyl_group(rs)}) == order
    assert len(rs.positive_roots) == npos
    # rho is half the sum of positive roots and all-ones in omega coordinates
    half = wscale(Q(1, 2), _wsum(rs.positive_roots, rs.rank))
    assert half == rs.rho == weight([1] * rs.rank)


def _wsum(ws, rank):
    total = zero_weight(rank)
    for w in ws:
        total = wadd(total, w)
    return total


def test_orbit_bound():
    assert build_root_system("F4").weyl_order() == 1152
    # building walks only the root orbits, so E7 and E8 build although W does not fit
    assert len(build_root_system("E7").positive_roots) == 63
    e8 = build_root_system("E8")
    assert len(e8.positive_roots) == 120
    with pytest.raises(WeylGroupTooLarge):
        e8.weyl_order()
    start = time.monotonic()
    with pytest.raises(WeylGroupTooLarge):
        stabilizer_classes(build_root_system("E7"))  # the rho orbit has 2,903,040 points
    assert time.monotonic() - start < 20


def test_unknown_and_invalid_types():
    with pytest.raises(UnknownType):
        build_root_system("Z9")
    with pytest.raises(UnknownType):
        build_root_system("A0")
    with pytest.raises(UnknownType):
        build_root_system([[2, -2], [-2, 2]])  # affine, minors not positive
    with pytest.raises(UnknownType):
        build_root_system([[2, 1], [1, 2]])  # positive off-diagonal
    with pytest.raises(UnknownType):
        build_root_system([[2, -1], [0, 2]])  # asymmetric zero pattern


def test_explicit_cartan_matrix():
    rs = build_root_system([[2, -1], [-1, 2]])
    assert rs.weyl_order() == 6
    assert rs.positive_roots == build_root_system("A2").positive_roots


def test_root_set_closed_under_weyl(a2, b2):
    for rs in (a2, b2):
        full = set(rs.positive_roots) | {tuple(-c for c in r) for r in rs.positive_roots}
        for w in weyl_group(rs):
            assert {w(r) for r in full} == full


def test_weyl_sign_is_determinant(a2):
    for w in weyl_group(a2):
        assert w.sign == _det_sign(w.matrix)


def _det_sign(matrix):
    n = len(matrix)
    rows = [[Q(x) for x in row] for row in matrix]
    det = Q(1)
    for col in range(n):
        piv = next(r for r in range(col, n) if rows[r][col] != 0)
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = -det
        det *= rows[col][col]
        for r in range(col + 1, n):
            if rows[r][col] != 0:
                f = rows[r][col] / rows[col][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return 1 if det > 0 else -1


def test_dominant_representative_trivial(a2):
    assert dominant_representative(weight([1, 1]), a2) == weight([1, 1])


def test_dominant_representative_by_orbit_scan(a2):
    # oracle: enumerate the full Weyl orbit and take its unique dominant member
    start = weight([-1, 2])
    orbit = {w(start) for w in weyl_group(a2)}
    dominant = [v for v in orbit if all(c >= 0 for c in v)]
    assert len(dominant) == 1
    assert dominant_representative(start, a2) == dominant[0]


def test_dominant_representative_a1():
    rs = build_root_system("A1")
    assert dominant_representative(weight([-3]), rs) == weight([3])


@settings(max_examples=60, deadline=None)
@given(st.tuples(*(st.fractions(min_value=-5, max_value=5, max_denominator=4),) * 2),
       st.integers(min_value=0, max_value=5))
def test_dominant_representative_orbit_invariance(coords, widx):
    rs = build_root_system("A2")
    lam = weight(coords)
    w = weyl_group(rs)[widx]
    assert dominant_representative(w(lam), rs) == dominant_representative(lam, rs)


def test_face_of_examples(a2):
    f = face_of(weight([Q(3, 2), 0]), a2)
    assert f.vanishing_set == frozenset({2})
    assert f.rho_sigma == weight([Q(-1, 2), 1])  # half of alpha_2
    assert f.levi_positive_roots == (weight([-1, 2]),)

    open_face = face_of(weight([1, 1]), a2)
    assert open_face.vanishing_set == frozenset()
    assert open_face.rho_sigma == weight([0, 0])

    vertex = face_of(weight([0, 0]), a2)
    assert vertex.vanishing_set == frozenset({1, 2})
    assert vertex.rho_sigma == a2.rho


def test_face_of_requires_dominant(a2):
    with pytest.raises(NotDominant):
        face_of(weight([-1, 2]), a2)


def test_is_regular(a2):
    assert is_regular(weight([1, 1]), a2)
    assert not is_regular(weight([0, 1]), a2)
    # oracle: pair (1/2, 1/2) against all three positive coroots explicitly
    lam = weight([Q(1, 2), Q(1, 2)])
    pairings = [a2.coroot_pairing(lam, beta) for beta in a2.positive_roots]
    assert all(p != 0 for p in pairings)
    assert is_regular(lam, a2)


def test_face_vanishing_matches_regularity(a2, a3):
    for rs in (a2, a3):
        for lam in [weight([1] * rs.rank), weight([0] + [1] * (rs.rank - 1)),
                    weight([Q(1, 2)] * rs.rank), weight([0] * rs.rank)]:
            assert (face_of(lam, rs).vanishing_set == frozenset()) == is_regular(lam, rs)


def test_root_reflections_fix_exactly_the_wall(a2, b2):
    # oracle: s_beta = w s_i w^-1 for any w carrying a simple root alpha_i to beta
    samples = [weight([1, 0]), weight([0, 1]), weight([1, 1]), weight([Q(1, 2), Q(-3, 2)]),
               weight([2, -1]), weight([-1, 3])]
    for rs in (a2, b2):
        group = weyl_group(rs)
        for beta in rs.positive_roots:
            w, i = next((w, i) for w in group for i, alpha in enumerate(rs.simple_roots)
                        if w(alpha) == beta)
            w_inv = next(v for v in group if v.compose(w) == group[0])
            refl = w.compose(simple_reflection(rs, i)).compose(w_inv)
            assert refl.sign == -1
            for lam in samples:
                fixed = refl(lam) == lam
                assert fixed == (rs.coroot_pairing(lam, beta) == 0)


def test_levi_conjugate_a2(a2):
    f1 = face_from_vanishing_set(frozenset({1}), a2)
    f2 = face_from_vanishing_set(frozenset({2}), a2)
    assert levi_conjugate(f1, f2, a2) is True
    # oracle: some group element maps the Levi root set onto the other, up to sign
    assert any(_maps_levi_onto(w, f1, f2) for w in weyl_group(a2))


def test_levi_conjugate_self_and_mismatch(a2, a3):
    f = face_from_vanishing_set(frozenset({1}), a2)
    assert levi_conjugate(f, f, a2) is True
    g1 = face_from_vanishing_set(frozenset({1}), a3)
    g2 = face_from_vanishing_set(frozenset({1, 3}), a3)
    assert levi_conjugate(g1, g2, a3) is False  # different Levi sizes


def test_stabilizer_classes_a1():
    rs = build_root_system("A1")
    classes = stabilizer_classes(rs)
    assert [{frozenset(f.vanishing_set) for f in c.representative_faces} for c in classes] \
        == [{frozenset()}, {frozenset({1})}]


def test_stabilizer_classes_a2(a2):
    classes = stabilizer_classes(a2)
    sets = [{f.vanishing_set for f in c.representative_faces} for c in classes]
    assert sets == [{frozenset()}, {frozenset({1}), frozenset({2})}, {frozenset({1, 2})}]


def test_stabilizer_classes_a3(a3):
    # frozen from a brute-force pairwise conjugacy scan
    classes = stabilizer_classes(a3)
    sets = sorted([sorted(sorted(f.vanishing_set) for f in c.representative_faces)
                   for c in classes])
    assert sets == sorted([
        [[]],
        [[1], [2], [3]],
        [[1, 2], [2, 3]],
        [[1, 3]],
        [[1, 2, 3]],
    ])


def test_stabilizer_classes_partition(a2, a3, b2):
    for rs in (a2, a3, b2):
        classes = stabilizer_classes(rs)
        seen = [f for c in classes for f in c.representative_faces]
        assert len(seen) == 2 ** rs.rank
        assert set(seen) == set(all_faces(rs))
        # and every pair inside one class is mutually conjugate
        for c in classes:
            for f in c.representative_faces[1:]:
                assert levi_conjugate(c.representative_faces[0], f, rs)


def _maps_levi_onto(w, f1, f2):
    """Whether w carries the Levi roots of f1 into those of f2, up to sign."""
    allowed = set(f2.levi_positive_roots) | {tuple(-c for c in r)
                                             for r in f2.levi_positive_roots}
    return all(w(beta) in allowed for beta in f1.levi_positive_roots)


def _pairwise_classes(rs):
    """Greedy partition by a pairwise scan over the full Weyl group: the oracle."""
    group = weyl_group(rs)
    classes = []
    for f in all_faces(rs):
        for cls in classes:
            if len(cls[0].levi_positive_roots) == len(f.levi_positive_roots) and any(
                    _maps_levi_onto(w, cls[0], f) for w in group):
                cls.append(f)
                break
        else:
            classes.append([f])
    return [tuple(cls) for cls in classes]


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4",
                                   "D4", "G2", "A2xA1"])
def test_stabilizer_classes_match_pairwise_scan(label):
    rs = build_root_system(label)
    classes = [c.representative_faces for c in stabilizer_classes(rs)]
    assert classes == _pairwise_classes(rs)
    class_of = {f: n for n, members in enumerate(classes) for f in members}
    for f1 in all_faces(rs):
        for f2 in all_faces(rs):
            assert levi_conjugate(f1, f2, rs) == (class_of[f1] == class_of[f2])


@pytest.mark.parametrize("label, sizes", [
    ("F4", [1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 3]),
    # frozen from a brute-force pairwise scan over the 51,840 elements of W(E6)
    ("E6", [1, 1, 1, 1, 1, 1, 2, 2, 4, 4, 5, 5, 5, 5, 6, 10, 10]),
])
def test_exceptional_stabilizer_classes(label, sizes):
    rs = build_root_system(label)
    classes = stabilizer_classes(rs)
    assert sorted(len(c.representative_faces) for c in classes) == sizes
    members = [f for c in classes for f in c.representative_faces]
    assert len(members) == 2 ** rs.rank and set(members) == set(all_faces(rs))


def test_the_face_listing_is_bounded_before_it_starts():
    # |W| >= 2^rank, so a group past 2^16 faces could not walk the orbit of rho either
    rs = build_root_system("A30")
    start = time.monotonic()
    with pytest.raises(FaceListTooLarge, match=r"A30 has 2\^30 chamber faces"):
        stabilizer_classes(rs)
    assert time.monotonic() - start < 1 and not rs._face_cache


def test_no_model_path_lists_the_faces(monkeypatch):
    def refuse(rs):
        raise AssertionError(f"all_faces({rs.label}) called on a model path")

    monkeypatch.setattr(roots, "all_faces", refuse)
    a17 = orbit_model(build_root_system("A17"), (1,) + (0,) * 16)  # 18 points, Levi A16
    assert len(a17.fixed_points) == 18
    assert [sorted(f.vanishing_set) for f in a17.generic_stabilizer.representative_faces] == [
        list(range(1, 17)), list(range(2, 18))]
    e6_ray = orbit_model(build_root_system("E6"), (1, 0, 0, 0, 0, 0))
    assert len(e6_ray.fixed_points) == 27
    su3 = su3_flag_bundle(1, 3)
    for model in (a17, e6_ray, su3):
        again = model_from_json_obj(json.loads(json.dumps(model_to_json_obj(model))))
        assert again.generic_stabilizer == model.generic_stabilizer
    assert verify_qr(su3, ConstantProvider(1)).match


def _string_positive_roots(cartan):
    """Positive roots in Fractions by alpha-strings, with no Weyl reflection.

    Keyed by simple-root coordinates k: beta + alpha_j is a root exactly when
    q = p - <beta, alpha_j^vee> > 0, where p is how far the alpha_j-string of
    beta reaches down, read off the roots of lower height found so far.
    """
    n = len(cartan)
    simple = [weight(row[j] for row in cartan) for j in range(n)]
    found = {tuple(int(i == j) for i in range(n)): simple[j] for j in range(n)}
    level = dict(found)
    while level:
        up = {}
        for k, beta in level.items():
            for j in range(n):
                p = 0
                while k[:j] + (k[j] - p - 1,) + k[j + 1:] in found:
                    p += 1
                if p - beta[j] > 0:
                    up[k[:j] + (k[j] + 1,) + k[j + 1:]] = wadd(beta, simple[j])
        found.update(up)
        level = up
    return found


def _all_int(ws):
    return all(type(c) is int for w in ws for c in w)


@pytest.mark.parametrize("group", ["A1", "A2", "A3", "B2", "C3", "G2", "D4", "A1xA1", "A2xA1",
                                   pytest.param([[2, -1, 0], [-2, 2, -1], [0, -1, 2]], id="custom")])
def test_root_data_are_int_tuples_equal_to_their_fraction_form(group):
    rs = build_root_system(group)
    reference = _string_positive_roots(rs.cartan_matrix)
    assert _all_int(rs.simple_roots) and _all_int(rs.positive_roots) and _all_int([rs.rho])
    assert rs.simple_roots == tuple(weight(col) for col in zip(*rs.cartan_matrix))
    assert set(rs.positive_roots) == set(reference.values())
    assert len(rs.positive_roots) == len(reference)
    assert rs.rho == wscale(Q(1, 2), _wsum(reference.values(), rs.rank))
    for f in all_faces(rs):
        levi = [beta for k, beta in reference.items()
                if all(c == 0 or i + 1 in f.vanishing_set for i, c in enumerate(k))]
        assert _all_int(f.levi_positive_roots)
        assert set(f.levi_positive_roots) == set(levi)
        assert f.rho_sigma == wscale(Q(1, 2), _wsum(levi, rs.rank))
