"""Fixed-point engine, model builders, exact modular oracle, model files."""

import hashlib
import itertools
import json
import math
import random
import time
from collections import Counter
from dataclasses import replace
from fractions import Fraction as Q

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spindex import (
    Decomposition,
    admissible_orbits_on_face,
    all_faces,
    build_root_system,
    FixedPointDatum,
    ManifoldModel,
    VirtualCharacter,
    decompose,
    exact_cross_check,
    localized_index,
    model_from_json_obj,
    model_to_json_obj,
    moment_report,
    orbit_model,
    su3_flag_bundle,
    weyl_character,
)
from spindex import localization
from spindex.characters import _PRIME, _at, _columns, _value_at
from spindex.errors import (
    ExpansionTooLarge,
    NotAdmissible,
    ParityViolation,
    SpindexError,
    UnstableCutoff,
)
from spindex.localization import (
    _direction,
    _expand_series,
    _is_generic,
    _localize,
    _packing,
    _pair,
    _points,
    _series,
    _tangent_set,
    _window,
)
from spindex.weights import weight, wscale

from test_decompose_check import _orbit_grid, _su3_pool
from weyl_oracle import weyl_group


def test_fixed_point_validation():
    with pytest.raises(ParityViolation):
        FixedPointDatum("p", weight([1, 0]), (weight([0, 0]),))  # zero tangent weight
    with pytest.raises(ParityViolation):
        FixedPointDatum("p", weight([1, 0]), (weight([2, -1]),))  # odd parity gap
    FixedPointDatum("p", weight([2, 1]), (weight([2, -1]), weight([-2, 2])))


def test_fixed_point_data_are_machine_integers():
    fp = FixedPointDatum("p", weight([2, 1]), (weight([2, -1]), weight([-2, 2])))
    assert all(type(c) is int for w in (fp.det_weight, *fp.tangent_weights) for c in w)
    assert fp.det_weight == weight([2, 1]) and hash(fp.det_weight) == hash(weight([2, 1]))
    assert fp.tangent_weights == (weight([2, -1]), weight([-2, 2]))
    assert FixedPointDatum("p", ("2", "1"), (("2", "-1"), ("-2", "2"))) == fp

    def violation(det, tangents):
        with pytest.raises(ParityViolation) as err:
            FixedPointDatum("p", det, tangents)
        return str(err.value)

    assert violation(weight([Q(1, 2), 0]), (weight([2, -1]),)) == \
        "fixed point 'p': determinant weight must be integral"
    assert violation(weight([1, 0]), (weight([Q(1, 2), 0]),)) == \
        "fixed point 'p': tangent weight (1/2,0) must be integral"
    assert violation(weight([1, 0]), (weight([2, -1]),)) == (
        "fixed point 'p': eta - sum(tangent weights) = (-1,1) is not in 2*Lambda; "
        "no spin-c structure has this determinant")
    assert violation(weight([1, 0]), (weight([0, 0]),)) == \
        "fixed point 'p': zero tangent weight (fixed points must be isolated)"

    # the same bytes as when the data were stored as Fractions
    model = orbit_model(build_root_system("A2"), weight([Q(3, 2), 0]))
    assert json.dumps(model_to_json_obj(model), sort_keys=True) == (
        '{"fixed_points": [{"det_weight": ["3", "0"], "label": "w(3/2,0)", '
        '"tangent_weights": [["2", "-1"], ["1", "1"]]}, {"det_weight": ["-3", "3"], '
        '"label": "w(-3/2,3/2)", "tangent_weights": [["-2", "1"], ["-1", "2"]]}, '
        '{"det_weight": ["0", "-3"], "label": "w(0,-3/2)", "tangent_weights": '
        '[["-1", "-1"], ["1", "-2"]]}], "generic_stabilizer": [[1], [2]], "group": "A2", '
        '"info": {"builder": "orbit", "group": "A2", "mu": "3/2,0"}, "kirwan": '
        '[{"face": [2], "points": [["3/2", "0"]], "segments": []}], "name": "orbit:A2:3/2,0"}')


def test_a1_sphere(a1):
    model = orbit_model(a1, weight([1]))
    data = {(fp.det_weight, fp.tangent_weights) for fp in model.fixed_points}
    assert data == {(weight([2]), (weight([2]),)), (weight([-2]), (weight([-2]),))}
    chi = localized_index(model)
    assert chi == weyl_character(weight([1]), a1) == VirtualCharacter.monomial(weight([0]))


def test_orbit_models_a2(a2):
    model = orbit_model(a2, weight([Q(3, 2), 0]))
    assert len(model.fixed_points) == 3
    assert localized_index(model) == VirtualCharacter.monomial(weight([0, 0]))

    model = orbit_model(a2, weight([1, 1]))
    assert len(model.fixed_points) == 6
    assert localized_index(model) == VirtualCharacter.monomial(weight([0, 0]))

    model = orbit_model(a2, weight([Q(1, 2), 0]))
    assert localized_index(model) == VirtualCharacter.zero()

    model = orbit_model(a2, weight([Q(5, 2), 0]))
    assert localized_index(model) == weyl_character(weight([2, 1]), a2)


def test_orbit_model_requires_admissible(a2):
    with pytest.raises(NotAdmissible):
        orbit_model(a2, weight([1, 0]))


def test_orbit_model_checks_the_rank_of_mu(a2):
    with pytest.raises(SpindexError, match="rank-2 weight for A2, got rank 1"):
        orbit_model(a2, weight([1]))
    with pytest.raises(SpindexError, match="got rank 3"):
        orbit_model(a2, weight([1, 1, 1]))


def test_orbit_model_data_is_weyl_equivariant(a2):
    model = orbit_model(a2, weight([Q(3, 2), 0]))
    data = {(fp.det_weight, frozenset_multiset(fp.tangent_weights))
            for fp in model.fixed_points}
    for w in weyl_group(a2):
        mapped = {
            (w(d), frozenset_multiset(tuple(w(t) for t in ts_expand(ts))))
            for d, ts in data
        }
        assert mapped == data


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "B2", "G2"])
def test_orbit_models_match_the_full_weyl_group(label):
    # oracle: one fixed point per distinct image w(mu) over the listed group,
    # with tangent weights w(beta) for the positive roots beta outside the Levi
    rs = build_root_system(label)
    for face in all_faces(rs):
        for orbit in admissible_orbits_on_face(face, (Q(0), Q(4)), rs):
            moving = [b for b in rs.positive_roots if b not in face.levi_positive_roots]
            expected = {}
            for w in weyl_group(rs):
                expected.setdefault(w(orbit.mu), frozenset(w(b) for b in moving))
            model = orbit_model(rs, orbit.mu)
            got = {wscale(Q(1, 2), fp.det_weight): frozenset(fp.tangent_weights)
                   for fp in model.fixed_points}
            assert len(model.fixed_points) == len(got) == len(expected)
            assert got == expected
            assert all(len(fp.tangent_weights) == len(moving) for fp in model.fixed_points)


# sha256 of the sorted-key JSON of every orbit model below, as built by walking
# each model's own orbit; the frames must export the same bytes
_ORBIT_MODELS_DIGEST = "f8f6440b0b90208da79c05e1ccc98cf4dd50844e01db00138de4c6919fb292ae"


def test_orbit_models_built_from_frames_export_the_same_bytes():
    digest, count = hashlib.sha256(), 0
    for label, top in (*((g, 4) for g in ("A1", "A2", "A3", "B2", "G2")),
                       *((g, 1) for g in ("A4", "B3", "C3", "D4", "B4", "C4", "A5"))):
        rs = build_root_system(label)
        for face in all_faces(rs):
            for orbit in admissible_orbits_on_face(face, (Q(0), Q(top)), rs):
                model = orbit_model(rs, orbit.mu)
                digest.update(json.dumps(model_to_json_obj(model), sort_keys=True).encode())
                count += 1
    assert (count, digest.hexdigest()) == (317, _ORBIT_MODELS_DIGEST)


def test_two_weights_on_one_face_share_one_frame():
    rs = build_root_system("A3")
    first, second = orbit_model(rs, (1, 1, 1)), orbit_model(rs, (2, 1, 3))
    ray = orbit_model(rs, (1, 0, 0))
    frames = sorted((k for k in rs.char_cache if k[0] == "frame"), key=lambda k: sorted(k[1]))
    assert frames == [("frame", frozenset()), ("frame", frozenset({2, 3}))]
    assert len(first.fixed_points) == len(second.fixed_points) == 24
    assert len(ray.fixed_points) == 4
    for p, q in zip(first.fixed_points, second.fixed_points):
        assert p.tangent_weights is q.tangent_weights
        assert p.det_weight != q.det_weight


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "B2", "G2", "C3"])
def test_frame_built_points_pass_the_full_checks(label):
    # each point, rebuilt through the constructor, passes every check and is equal
    rs = build_root_system(label)
    for face in all_faces(rs):
        for orbit in admissible_orbits_on_face(face, (Q(0), Q(3)), rs):
            for fp in orbit_model(rs, orbit.mu).fixed_points:
                again = FixedPointDatum(fp.label, fp.det_weight, fp.tangent_weights)
                assert again == fp and hash(again) == hash(fp)
                assert all(type(c) is int for w in (fp.det_weight, *fp.tangent_weights)
                           for c in w)


def test_a_parity_gap_in_a_frame_built_model_raises(monkeypatch):
    # the per-point check is what stands in for FixedPointDatum's: a frame whose
    # tangent sums are off by one root fails at the first point
    rs = build_root_system("A2")
    links, tangents, sums = localization._frame(rs, localization.face_of((1, 1), rs))
    odd = [tuple(c + a for c, a in zip(total, rs.positive_roots[0])) for total in sums]
    monkeypatch.setitem(rs.char_cache, ("frame", frozenset()), (links, tangents, odd))
    with pytest.raises(ParityViolation, match=r"fixed point 'w\(1,1\)': eta - sum"):
        orbit_model(rs, (1, 1))


def frozenset_multiset(items):
    out = {}
    for x in items:
        out[x] = out.get(x, 0) + 1
    return frozenset(out.items())


def ts_expand(ms):
    return tuple(x for x, n in ms for _ in range(n))


def test_localized_indices_are_weyl_invariant(a2, a3):
    for model in [
        orbit_model(a2, weight([1, 1])),
        orbit_model(a3, weight([1, Q(1, 2), 0])),
        su3_flag_bundle(1, 3),
        su3_flag_bundle(2, 2),
    ]:
        assert localized_index(model).is_weyl_invariant(model.root_system)


def test_localized_index_keys_are_int_tuples(a3):
    for model in (su3_flag_bundle(3, 1), orbit_model(a3, weight([2, 1, 1]))):
        chi = localized_index(model)
        assert chi
        assert all(type(c) is int for w in chi.terms() for c in w)
        assert all(type(m) is int and m for m in chi.terms().values())


def test_su3_flag_bundle_structure():
    model = su3_flag_bundle(1, 3)
    assert len(model.fixed_points) == 6
    by_label = {fp.label: fp for fp in model.fixed_points}
    fp = by_label["plane=e1e2,line=e3"]
    # tangents: x3-x1, x3-x2, -x3 with x1=(1,0), x2=(-1,1), x3=(0,-1)
    assert fp.tangent_weights == (weight([-1, -1]), weight([1, -2]), weight([0, 1]))
    fp4 = by_label["plane=e1e2,line=e4"]
    assert fp4.tangent_weights == (weight([-1, -1]), weight([1, -2]), weight([0, -1]))
    assert model.generic_stabilizer.label() == "S={1} ~ S={2}"
    assert {tuple(sorted(p.face.vanishing_set)) for p in model.kirwan.pieces} \
        == {(1,), (2,)}


def test_su3_key_values(a2):
    rho = weight([1, 1])
    assert localized_index(su3_flag_bundle(1, 3)) == 2 * weyl_character(rho, a2)
    assert localized_index(su3_flag_bundle(0, 1)) == VirtualCharacter.zero()
    dec = decompose(localized_index(su3_flag_bundle(2, 5)), a2)
    assert dec == Decomposition({
        weight([1, 1]): 2, weight([2, 1]): 1, weight([1, 2]): 1,
    })
    dec = decompose(localized_index(su3_flag_bundle(2, 6)), a2)
    assert dec == Decomposition({
        weight([1, 1]): 2, weight([2, 1]): 1, weight([3, 1]): 1, weight([1, 2]): 1,
    })


def test_su3_parity_conventions():
    for a, b in [(1, 3), (2, 5), (0, 1), (3, 2)]:
        su3_flag_bundle(a, b)  # calibrated passes at construction
        with pytest.raises(ParityViolation) as err:
            su3_flag_bundle(a, b, convention="literal")
        assert "line=e4" in str(err.value)


def one_point_model(group, eta, tangents):
    return model_from_json_obj({
        "name": "one-point", "group": group,
        "fixed_points": [{"label": "p", "det_weight": eta, "tangent_weights": tangents}],
        "generic_stabilizer": [[]], "kirwan": [],
    })


def _curve_point(h, k):
    """h + (k, k^2, ..., k^r), the point of the moment curve at k."""
    return tuple(c + k ** i for i, c in enumerate(h, 1))


def _curve_points(model, count):
    """The first generic points of the moment curve, k = 0, 1, 2, ..."""
    h, tangents = model.root_system._height_fun, _tangent_set(model)
    curve = (_curve_point(h, k) for k in itertools.count())
    return list(itertools.islice((xi for xi in curve if _is_generic(xi, tangents)), count))


def _nudged(model):
    """The generic nudges h + k e_i, k = 1, 2: directions to expand along instead."""
    h, tangents = model.root_system._height_fun, _tangent_set(model)
    nudges = (h[:i] + (h[i] + k,) + h[i + 1:] for k in (1, 2) for i in range(len(h)))
    return [xi for xi in nudges if _is_generic(xi, tangents)]


def test_index_is_independent_of_the_direction(a2, a3):
    # the index is a function of the model alone: every generic nudge of h and
    # the next two generic moment-curve points expand to the same character as
    # the direction localized_index picks
    b2, g2 = build_root_system("B2"), build_root_system("G2")
    for model in [
        su3_flag_bundle(2, 5),
        orbit_model(a2, weight([Q(5, 2), 0])),
        orbit_model(a3, weight([2, 1, 1])),
        orbit_model(b2, weight([3, 2])),
        orbit_model(g2, weight([2, 1])),
    ]:
        chi = localized_index(model)
        chosen = _direction(model)
        assert _curve_points(model, 1) == [chosen], model.name
        others = _nudged(model) + _curve_points(model, 3)[1:]
        assert len(others) >= 3, model.name
        for xi in others:
            assert _localize(model, xi) == chi, (model.name, xi)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["A2", "A3"]), st.data())
def test_direction_is_the_first_generic_curve_point(label, data):
    rs = localization._shared_root_system(label)
    h = rs._height_fun
    small = st.lists(st.integers(-6, 6), min_size=rs.rank, max_size=rs.rank)

    def orthogonal_to_curve_point(k):
        # a weight orthogonal to the curve point at k, so the search passes k
        p = _curve_point(h, k)
        w = [p[1], -p[0]] + [0] * (rs.rank - 2)
        return [c // math.gcd(*w) for c in w]

    # blocking every k below a drawn depth makes the search reach past it
    depth = data.draw(st.integers(0, 6))
    tangents = [orthogonal_to_curve_point(k) for k in range(depth)] + data.draw(st.lists(
        st.one_of(small, st.integers(0, 12).map(orthogonal_to_curve_point))
        .filter(any), min_size=1, max_size=6))
    eta = [str(sum(c)) for c in zip(*tangents)]
    model = one_point_model(label, eta, [[str(c) for c in a] for a in tangents])
    xi = _direction(model)
    k = xi[0] - h[0]
    assert xi == _curve_point(h, k) and all(type(c) is int for c in xi)
    assert _is_generic(xi, _tangent_set(model))
    assert not any(_is_generic(_curve_point(h, j), _tangent_set(model)) for j in range(k))
    assert k <= rs.rank * len(_tangent_set(model))


def test_the_moment_curve_direction_on_a_finite_model(a3):
    # two points p, q with tangents (a1, a2, a3) and (-a1, a2, a3) and the same
    # eta cancel, so the model's index is the orbit's; every a_i is orthogonal
    # to h = (3, 4, 3), the point of the moment curve at k = 0
    orbit = orbit_model(a3, weight([1, 1, 1]))
    a = ((0, 3, -4), (1, 0, -1), (4, -3, 0))
    eta = tuple(map(sum, zip(*a)))
    model = replace(orbit, name="orbit-plus-cancelling-pair", fixed_points=(
        *orbit.fixed_points,
        FixedPointDatum("p", eta, a),
        FixedPointDatum("q", eta, (tuple(-c for c in a[0]), *a[1:]))))
    assert a3._height_fun == (3, 4, 3)
    assert all(_pair(t, a3._height_fun) == 0 for t in a)
    # k = 1 gives (4, 5, 4), orthogonal to a2; k = 2 gives (5, 8, 11), orthogonal to alpha_2
    xi = _direction(model)
    assert xi == (6, 13, 30) and all(type(c) is int for c in xi)
    assert _curve_points(model, 1) == [xi]
    chi = localized_index(orbit)
    assert localized_index(model) == chi
    further = _curve_points(model, 3)[1:]
    assert len(further) == 2 and xi not in further
    for other in further:
        assert _localize(model, other) == chi, other


def test_orbit_models_keep_h_and_su3_models_keep_their_character():
    for label in ("A1", "A2", "A3", "B2", "G2"):
        rs = build_root_system(label)
        for face in all_faces(rs):
            for orbit in admissible_orbits_on_face(face, (Q(0), Q(4)), rs):
                model = orbit_model(rs, orbit.mu)
                assert _direction(model) == rs._height_fun, model.name
                assert all(type(c) is int for c in _direction(model)), model.name
    old = (15, 16)  # 7 (h + (1/7, 2/7)), an earlier direction, made integral
    for a in range(0, 40, 3):
        for b in range(0, 40, 3):
            model = su3_flag_bundle(a, b)
            # h = (2, 2) and (3, 3) are orthogonal to x_2 = (-1, 1), so k = 2
            assert _direction(model) == (4, 6), model.name
            assert localized_index(model) == _localize(model, old), model.name


# a stable three-column merge (key, pairing, coefficient) for the reference
# engines below, apart from the engine's two-column one so they share no code
def _combine(keys, pair, coef):
    if len(keys) == 0:
        return keys, pair, coef
    order = np.argsort(keys, kind="stable")
    keys, pair, coef = keys[order], pair[order], coef[order]
    fresh = np.empty(len(keys), dtype=bool)
    fresh[0] = True
    fresh[1:] = keys[1:] != keys[:-1]
    starts = np.flatnonzero(fresh)
    return keys[starts], pair[starts], np.add.reduceat(coef, starts)


def _per_point_expansion(nu, oriented, pairs, sign, base, floor, strides):
    """All series terms of one fixed point with pairing >= floor."""
    keys = np.array([sum(c * s for c, s in zip(nu, strides))], dtype=np.int64)
    pair = np.array([base], dtype=np.int64)
    coef = np.array([sign], dtype=np.int64)
    if base < floor:
        return keys[:0], pair[:0], coef[:0]
    for a, n in zip(oriented, pairs):
        step = sum(c * s for c, s in zip(a, strides))
        counts = (pair - floor) // n + 1
        reps = np.repeat(np.arange(len(keys)), counts)
        karr = np.arange(int(counts.sum())) - np.repeat(counts.cumsum() - counts, counts)
        keys, pair, coef = _combine(keys[reps] - karr * step, pair[reps] - karr * n, coef[reps])
    return keys, pair, coef


def _per_point_localize(model) -> VirtualCharacter:
    """Reference engine: every fixed point expands its own series to its own depth."""
    xi = _direction(model)
    points = []
    for fp in model.fixed_points:
        sign, oriented, pairs, nu = 1, [], [], list(fp.det_weight)
        for a in fp.tangent_weights:
            p = sum(c * x for c, x in zip(a, xi))
            if p < 0:
                a, p, sign = tuple(-c for c in a), -p, -sign
            oriented.append(a)
            pairs.append(p)
            nu = [e - c for e, c in zip(nu, a)]
        nu = tuple(e // 2 for e in nu)
        points.append((nu, oriented, pairs, sign, sum(n * x for n, x in zip(nu, xi))))
    top = max(p[4] for p in points)
    low = min(p[4] - sum(p[2]) for p in points)
    floor = top - max(1, top - low) - 2
    bounds, strides = _packing([p[0] for p in points], [p[1:3] for p in points], top - floor)
    parts = [_per_point_expansion(*p, floor, strides) for p in points]
    keys, pair, coef = _combine(*(np.concatenate(col) for col in zip(*parts)))
    live = coef != 0
    # the opposite cone puts a finite sum at or above min_p (base_p + total_p)
    assert not np.any(pair[live] < min(p[4] + sum(p[2]) for p in points))
    terms = {}
    for key, c in zip(keys[live].tolist(), coef[live].tolist()):
        key += sum(b * s for b, s in zip(bounds, strides))
        coords = []
        for b in bounds:
            key, digit = divmod(key, 2 * b + 1)
            coords.append(digit - b)
        terms[tuple(coords)] = c
    return VirtualCharacter(terms)


def test_grouped_series_match_the_per_point_expansion():
    models = [
        orbit_model(build_root_system("A3"), weight([4, 4, 4])),
        orbit_model(build_root_system("B2"), weight([3, 2])),
        orbit_model(build_root_system("G2"), weight([2, 1])),
        su3_flag_bundle(2, 5),
        su3_flag_bundle(0, 40),
        su3_flag_bundle(40, 40),
        su3_flag_bundle(40, 0),
    ]
    for model in models:
        want = _per_point_localize(model)
        cold = replace(model, root_system=build_root_system(model.root_system.label))
        assert localized_index(cold) == want, model.name
        assert localized_index(cold) == want, model.name  # now on a warm cache


def _product_series(oriented, pairs, depth, strides):
    """Reference expansion: every shifted copy of the series so far, merged by a sort."""
    keys = np.zeros(1, dtype=np.int64)
    drop = np.zeros(1, dtype=np.int64)
    coef = np.ones(1, dtype=np.int64)
    for a, n in zip(oriented, pairs):
        step = sum(c * s for c, s in zip(a, strides))
        counts = (depth - drop) // n + 1
        reps = np.repeat(np.arange(len(keys)), counts)
        karr = np.arange(int(counts.sum())) - np.repeat(counts.cumsum() - counts, counts)
        keys, drop, coef = _combine(keys[reps] + karr * step, drop[reps] + karr * n, coef[reps])
    return keys, drop, coef


def _oriented_cases():
    """(oriented weights, xi) pairs: seeded random sets in ranks 1-3, then G2's roots."""
    rng = random.Random(12)
    for _ in range(60):
        rank = rng.randint(1, 3)
        xi = tuple(rng.randint(1, 6) for _ in range(rank))
        oriented, size = [], rng.randint(1, 6)
        while len(oriented) < size:
            a = tuple(rng.randint(-3, 3) for _ in range(rank))
            if _pair(a, xi):
                a = a if _pair(a, xi) > 0 else tuple(-c for c in a)
                # repeated weights, as where a point has a root twice
                oriented += [a] * rng.choice((1, 1, 2, 3))
        yield tuple(sorted(oriented)), xi
    g2 = build_root_system("G2")
    roots = tuple(tuple(int(c) for c in beta) for beta in g2.positive_roots)
    xi = g2._height_fun
    yield roots, xi
    yield tuple(sorted(roots * 2)), xi
    long_roots = ((-3, 2), (0, 1), (3, -1))  # alpha_2, 3 alpha_1 + 2 alpha_2, 3 alpha_1 + alpha_2
    assert set(long_roots) < set(roots)
    yield long_roots, xi
    yield tuple(sorted(long_roots * 3)), xi


def test_running_sums_match_the_product_series():
    seen_short = False
    for oriented, xi in _oriented_cases():
        pairs = [_pair(a, xi) for a in oriented]
        # depth 0, depths below the smallest pairing (one-term strings) and deeper ones
        for depth in (0, min(pairs) - 1, max(pairs), 3 * max(pairs) + 1, 40):
            if depth < 0:
                continue
            seen_short |= depth < max(pairs)
            _, strides = _packing([(0,) * len(xi)], [(oriented, pairs)], depth)
            got = _expand_series(oriented, pairs, depth, strides)
            want = _product_series(oriented, pairs, depth, strides)
            assert np.all(np.diff(got[1]) >= 0), (oriented, depth)  # in order of pairing
            got_order, want_order = np.argsort(got[0]), np.argsort(want[0])
            for g, w in zip(got, want):
                assert np.array_equal(g[got_order], w[want_order]), (oriented, xi, depth)
    assert seen_short


def test_series_coefficients_stay_within_the_int64_budget():
    # 1/(1 - t^-1)^5 has coefficient C(d + 4, 4) at depth d, past 2^48 at d = 10^4
    oriented, pairs = ((1,),) * 5, [1] * 5
    _, strides = _packing([(0,)], [(oriented, pairs)], 10 ** 4)
    assert int(_expand_series(oriented, pairs, 3000, strides)[2].max()) == math.comb(3004, 4)
    with pytest.raises(SpindexError, match="int64 budget"):
        _expand_series(oriented, pairs, 10 ** 4, strides)


def _by_key(keys, drop, coef):
    order = np.argsort(keys, kind="stable")
    return keys[order].tolist(), drop[order].tolist(), coef[order].tolist()


def test_kept_series_match_the_expansion_after_and_before_a_deeper_fill():
    for oriented, xi in _oriented_cases():
        pairs = tuple(_pair(a, xi) for a in oriented)
        deep = 3 * max(pairs) + 41
        for depth in (0, max(pairs), 3 * max(pairs) + 1, 40):
            _, strides = _packing([(0,) * len(xi)], [(oriented, pairs)], depth)
            want = _by_key(*_expand_series(oriented, pairs, depth, strides))
            assert want == _by_key(*_product_series(oriented, pairs, depth, strides))
            after, before = (build_root_system(f"A{len(xi)}") for _ in range(2))
            _series(after, oriented, pairs, deep)
            got = [_series(after, oriented, pairs, depth), _series(before, oriented, pairs, depth)]
            _series(before, oriented, pairs, deep)
            got.append(_series(before, oriented, pairs, depth))
            for coords, drop, coef in got:
                assert np.all(np.diff(drop) >= 0), (oriented, depth)
                keys = coords @ np.array(strides, dtype=np.int64)
                assert _by_key(keys, drop, coef) == want, (oriented, xi, depth)


def test_a_deeper_request_replaces_the_kept_series(monkeypatch):
    import spindex.localization as loc

    rs = build_root_system("G2")
    oriented = ((-3, 2), (0, 1), (3, -1))  # G2's long positive roots
    pairs = tuple(_pair(a, rs._height_fun) for a in oriented)
    key = ("series", oriented, pairs)
    expand, calls = loc._expand_series, []

    def counting(oriented, pairs, depth, strides):
        assert key not in rs.char_cache  # the old version is gone before the new one is built
        calls.append(depth)
        return expand(oriented, pairs, depth, strides)

    monkeypatch.setattr(loc, "_expand_series", counting)
    sizes = []
    for depth in (20, 20, 7, 0, 45, 30, 45):
        sizes.append(len(_series(rs, oriented, pairs, depth)[0]))
        assert [k for k in rs.char_cache if k[0] == "series"] == [key]
    assert calls == [20, 45]
    assert rs.char_cache[key][0] == 45
    assert sizes[0] == sizes[1] > sizes[2] > sizes[3] == 1
    assert sizes[4] == sizes[6] > sizes[5] > sizes[0]


def test_kept_series_are_read_only():
    rs = build_root_system("A2")
    oriented, pairs = ((0, 1), (1, 1), (2, -1)), (1, 2, 1)
    kept = _series(rs, oriented, pairs, 9)
    for arrays in (kept, rs.char_cache[("series", oriented, pairs)][1:]):
        for arr in arrays:
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 7


def test_the_vertex_orbit_keeps_an_empty_series():
    rs = build_root_system("A2")
    model = orbit_model(rs, weight([0, 0]))
    assert model.fixed_points[0].tangent_weights == ()
    for _ in range(2):  # cold, then warm
        assert localized_index(model) == VirtualCharacter.monomial(weight([0, 0]))
    depth, coords, drop, coef = rs.char_cache[("series", (), ())]
    assert coords.tolist() == [[0, 0]] and drop.tolist() == [0] and coef.tolist() == [1]


def _orbit_pool(label, top):
    rs = build_root_system(label)
    return rs, [orbit.mu for face in all_faces(rs)
                for orbit in admissible_orbits_on_face(face, (Q(0), Q(top)), rs)]


def test_orbit_grid_pool_is_independent_of_the_direction():
    # one root system per group, so series kept along one direction meet the
    # same oriented sets along another and must not be mistaken for them
    localized = 0
    for label in ("A1", "A2", "A3", "B2", "G2"):
        rs, mus = _orbit_pool(label, 4)
        for mu in mus:
            model = orbit_model(rs, mu)
            chi = localized_index(model)
            for xi in _nudged(model):
                assert _localize(model, xi) == chi, (model.name, xi)
                localized += 1
    assert localized == 568


def test_su3_pool_is_independent_of_the_direction():
    localized = 0
    for a in range(0, 41, 4):
        for b in range(0, 41, 4):
            model = su3_flag_bundle(a, b)
            chi = localized_index(model)
            for xi in _nudged(model):
                assert _localize(model, xi) == chi, (model.name, xi)
                localized += 1
    assert localized == 242


def _depth(model):
    """The deepest series depth the model asks for along its direction."""
    xi = _direction(model)
    floor, top, _ = _window(_points(model, xi))
    return top - floor


@pytest.mark.parametrize("label", ["A3", "A2"])
def test_cold_and_warm_caches_agree_in_either_depth_order(label):
    if label == "A3":
        _, mus = _orbit_pool("A3", 4)
        models = [orbit_model(build_root_system("A3"), mu) for mu in mus]
    else:
        models = [su3_flag_bundle(a, b) for a in range(0, 41, 10) for b in range(0, 41, 10)]
    models.sort(key=_depth)
    assert _depth(models[0]) < _depth(models[-1])
    cold = [localized_index(replace(m, root_system=build_root_system(label))) for m in models]
    for order in (models, models[::-1]):
        warm = build_root_system(label)
        got = {m.name: localized_index(replace(m, root_system=warm)) for m in order}
        assert [got[m.name] for m in models] == cold
    assert len(models) == (125 if label == "A3" else 25)


def test_unstable_cutoff_raises():
    # t / (t - t^-1) = sum_k t^(-2k) has no lowest term; the cone
    # sum_{i,j>=0} t^-(i a1 + j a2) less its edge sum_i t^-(i a1) cancels only
    # in part, as the terms with j >= 1 stay
    cone_minus_edge = model_from_json_obj({
        "name": "cone-minus-edge", "group": "A2",
        "fixed_points": [
            {"label": "p", "det_weight": ["1", "1"],
             "tangent_weights": [["2", "-1"], ["-1", "2"]]},
            {"label": "q", "det_weight": ["2", "-1"], "tangent_weights": [["-2", "1"]]}],
        "generic_stabilizer": [[]], "kirwan": []})
    for model, count in ((one_point_model("A1", ["2"], [["2"]]), 3), (cone_minus_edge, 6)):
        with pytest.raises(UnstableCutoff) as err:
            localized_index(model)
        assert str(err.value) == (
            f"the fixed points of model {model.name!r} do not sum to a finite character: "
            f"{count} terms below its support bound do not cancel")


def test_a_sum_that_cancels_nothing_below_its_bound_raises():
    # 1/(1 - t^-8) = sum_k t^(-8k) is not finite: the opposite cone puts a
    # finite sum at or above t^8 along xi, so both terms in the window, t^0
    # and t^-8, lie below it
    with pytest.raises(UnstableCutoff) as err:
        localized_index(one_point_model("A1", ["8"], [["8"]]))
    assert str(err.value) == ("the fixed points of model 'one-point' do not sum to a finite "
                              "character: 2 terms below its support bound do not cancel")


def test_every_nonzero_pool_character_reaches_its_lower_support_bound():
    # a finite sum lies in [L, top] along xi, L = min_p (base_p + total_p) from
    # the opposite cone; every nonzero character of both pools reaches L exactly
    nonzero = Counter()
    for pool, models in (("orbit-grid", _orbit_grid()), ("su3", _su3_pool())):
        for _, model in models:
            chi = localized_index(model)
            if chi.terms():
                xi = _direction(model)
                _, top, bound = _window(_points(model, xi))
                pairings = [_pair(w, xi) for w in chi.terms()]
                assert min(pairings) == bound and max(pairings) <= top, model.name
                nonzero[pool] += 1
    assert nonzero == {"orbit-grid": 180, "su3": 1679}


def _nonzero_weight(rng, rank):
    while not any(a := [rng.randint(-3, 3) for _ in range(rank)]):
        pass
    return a


def _random_points(rng, rank):
    """1-5 points of 1-3 tangent weights in [-3, 3]^rank, each det of the right parity."""
    points = []
    for _ in range(rng.randint(1, 5)):
        tangents = [_nonzero_weight(rng, rank) for _ in range(rng.randint(1, 3))]
        det = [rng.randint(-4, 4) for _ in range(rank)]
        points.append(([d + (d - sum(cs)) % 2 for d, *cs in zip(det, *tangents)], tangents))
    return points


def _projective_lines(rng, rank):
    """The points of a product of one or two projective lines, whose sum is finite.

    A line with tangent a at one pole and -a at the other, determinants c and
    c - 2 m a, sums to (t^{c/2} - t^{c/2 - m a}) / (t^{a/2} - t^{-a/2}).
    """
    points = [([0] * rank, [])]
    for _ in range(rng.randint(1, 2)):
        a, m = _nonzero_weight(rng, rank), rng.randint(0, 2)
        c = [2 * rng.randint(-2, 2) + x for x in a]
        poles = ((c, a), ([x - 2 * m * y for x, y in zip(c, a)], [-x for x in a]))
        points = [([x + y for x, y in zip(det, pole)], tangents + [t])
                  for det, tangents in points for pole, t in poles]
    return points


def test_random_sums_raise_or_pass_the_cross_check():
    # a random fixed-point sum is rarely finite: the engine must raise or
    # return a character equal to the sum; a product of projective lines is
    # finite and must come out
    rng = random.Random(25)
    groups = [("A1", 1), ("A2", 2), ("B2", 2), ("G2", 2), ("A3", 3)]
    returned = Counter()
    for i in range(1500):
        label, rank = rng.choice(groups)
        finite = i % 5 == 0
        points = (_projective_lines if finite else _random_points)(rng, rank)
        model = model_from_json_obj({
            "name": f"random-{i}", "group": label, "generic_stabilizer": [[]], "kirwan": [],
            "fixed_points": [{"label": f"p{j}", "det_weight": [str(c) for c in det],
                              "tangent_weights": [[str(c) for c in a] for a in tangents]}
                             for j, (det, tangents) in enumerate(points)]})
        try:
            chi = localized_index(model)
        except UnstableCutoff:
            assert not finite, model_to_json_obj(model)
            continue
        assert exact_cross_check(model, chi, trials=3), model_to_json_obj(model)
        returned[finite] += 1
    assert returned == {True: 300, False: 1}


def _combine_by_argsort(keys, coef):
    """The oracle merge: unique keys in ascending order with summed coefficients."""
    if len(keys) == 0:
        return keys, coef
    order = np.argsort(keys)
    keys, coef = keys[order], coef[order]
    fresh = np.empty(len(keys), dtype=bool)
    fresh[0] = True
    np.not_equal(keys[1:], keys[:-1], out=fresh[1:])
    starts = np.flatnonzero(fresh)
    return keys[starts], np.add.reduceat(coef, starts)


def _merged_words(terms):
    """The engine's merge of (key, coefficient) terms, laid out as its words."""
    half = max((abs(k) for k, _ in terms), default=0)
    cmax = max((abs(c) for _, c in terms), default=0)
    b = localization._word_bits(half, cmax, len(terms))
    words = np.array([((k + half) << b) + c + cmax for k, c in terms], dtype=np.int64)
    return localization._merge(words, half, cmax, b)


_wide_coef = st.integers(-2 ** 47, 2 ** 47)  # 49 coefficient bits, as _expand_series allows


@settings(max_examples=200, deadline=None)
@example([])
@example([(-3, 7)])
@example([(-2 ** 18, 2 ** 40), (2 ** 18, -2 ** 40)])  # 20 key bits and 42 coefficient bits
@given(st.one_of(
    st.lists(st.tuples(st.integers(-6, 6), _wide_coef), max_size=60),  # many duplicate keys
    # wide keys, lopsided toward the coefficients like the engine's layouts: at most 62 bits
    st.lists(st.tuples(st.integers(-2 ** 18, 2 ** 18), st.integers(-2 ** 40, 2 ** 40)),
             max_size=3),
    st.lists(st.tuples(st.integers(-6, 6), _wide_coef), max_size=30).map(
        lambda ts: ts + [(k, -c) for k, c in ts]),  # every key cancels
))
def test_combine_sums_the_coefficients_of_each_key(terms):
    out_keys, out_coef = _merged_words(terms)
    assert out_keys.dtype == np.int64 and out_coef.dtype == np.int64
    want_keys, want_coef = _combine_by_argsort(np.array([k for k, _ in terms], dtype=np.int64),
                                               np.array([c for _, c in terms], dtype=np.int64))
    assert out_keys.tolist() == want_keys.tolist()  # sorted and unique
    assert out_coef.tolist() == want_coef.tolist()
    want = Counter()
    for k, c in terms:
        want[k] += c
    assert dict(zip(out_keys.tolist(), out_coef.tolist())) == dict(want)


def test_merge_words_may_take_62_bits_but_not_63():
    # 2 half = 2^31 - 2 takes 31 bits and 2 cmax = 2^31 - 2 another 31
    half = cmax = 2 ** 30 - 1
    terms = [(-half, cmax), (half, -cmax), (-half, -cmax), (half, -cmax), (0, cmax), (-half, 1)]
    keys, coef = _merged_words(terms)
    assert (keys.tolist(), coef.tolist()) == ([-half, 0, half], [1, cmax, -2 * cmax])
    # the budget needs only the sizes, so it is checked before 2^32 words,
    # which would not fit in memory, are allocated; their coefficient sums
    # stay below 2^63, so only the word size fails
    for half, cmax in ((2 ** 30, 2 ** 30 - 1), (2 ** 30 - 1, 2 ** 30)):
        with pytest.raises(ExpansionTooLarge) as err:
            localization._word_bits(half, cmax, 2 ** 32)
        assert str(err.value) == (f"the fixed-point sum of {2 ** 32} terms needs 63-bit words "
                                  f"and sums up to {cmax * 2 ** 32}, past 62 bits or int64")


def test_merge_words_refuse_coefficient_sums_that_could_pass_int64():
    assert localization._word_bits(1, 2 ** 39 - 1, 2 ** 24) == 40
    with pytest.raises(ExpansionTooLarge, match=f"needs 43-bit words and sums up to {2 ** 63},"):
        localization._word_bits(1, 2 ** 39, 2 ** 24)
    with pytest.raises(ExpansionTooLarge, match="past 62 bits or int64"):
        localization._word_bits(0, 2 ** 20, 2 ** 43)


def test_a_series_past_its_bound_raises_expansion_too_large():
    # the moment curve at k = 0, 1, 2 is orthogonal to one of these, and at
    # k = 3 gives (5, 11), along which the nine factors would expand to a depth
    # of over 10^5; the first factor past the bound stops before it is laid out
    tangents = [["1", "-1"], ["2", "-3"], ["3", "-2"], ["1", "-2"], ["2", "-1"],
                ["16", "-15"], ["66", "-65"], ["16391", "-16383"], ["4705", "-4753"]]
    model = one_point_model("A2", ["1", "1"], tangents)
    assert _direction(model) == (5, 11)
    start = time.perf_counter()
    with pytest.raises(ExpansionTooLarge, match=f"fixed bound of {2 ** 24} terms"):
        localized_index(model)
    assert time.perf_counter() - start < 1


def test_a_fixed_point_sum_past_the_bound_raises_before_it_is_concatenated():
    # D4 (1,1,1,1): 192 points take prefixes of one 595,665-term series, 46.0M
    # terms in all, where each series alone is under the bound
    model = orbit_model(build_root_system("D4"), weight([1, 1, 1, 1]))
    start = time.perf_counter()
    with pytest.raises(ExpansionTooLarge, match=f"fixed-point sum .* bound of {2 ** 24} terms"):
        localized_index(model)
    assert time.perf_counter() - start < 5


def test_the_fixed_point_sum_may_reach_the_bound_but_not_pass_it(monkeypatch):
    model = orbit_model(build_root_system("A2"), weight([2, 1]))
    sizes = []
    word_bits = localization._word_bits
    monkeypatch.setattr(localization, "_word_bits",
                        lambda half, cmax, size: sizes.append(size) or word_bits(half, cmax, size))
    chi = localized_index(model)
    # the series is kept on the root system now, so only the sum meets the bound
    monkeypatch.setattr(localization, "_SERIES_BOUND", sizes[0])
    assert localized_index(model) == chi
    monkeypatch.setattr(localization, "_SERIES_BOUND", sizes[0] - 1)
    with pytest.raises(ExpansionTooLarge, match="fixed-point sum"):
        localized_index(model)


def test_model_fixed_points_must_be_fixed_point_data(a1):
    model = orbit_model(a1, weight([1]))
    fake = (model.fixed_points[0].label, model.fixed_points[0].det_weight,
            model.fixed_points[0].tangent_weights)
    with pytest.raises(SpindexError, match="not a FixedPointDatum"):
        ManifoldModel(a1, (fake,), model.generic_stabilizer, model.kirwan, "fake")


def test_exact_cross_check(a1):
    model = orbit_model(a1, weight([2]))
    chi = localized_index(model)
    assert chi == weyl_character(weight([2]), a1)
    assert exact_cross_check(model, chi, trials=20, seed=3) is True

    perturbed = chi + VirtualCharacter.monomial(weight([4]))
    assert exact_cross_check(model, perturbed, trials=1, seed=3) is False
    assert exact_cross_check(model, 2 * chi, trials=1, seed=3) is False

    with pytest.raises(SpindexError):
        exact_cross_check(model, chi, trials=0)
    with pytest.raises(SpindexError, match="needs a rank-1 weight for A1, got rank 2"):
        exact_cross_check(model, chi + VirtualCharacter.monomial((0, 0)))


def test_exact_cross_check_redraws_singular_points(a1, monkeypatch):
    # y = 1 puts every tangent denominator y^a - y^-a at 0 mod p, so the
    # check must redraw; the second draw, y = 3, is regular
    import spindex.localization as loc

    class Scripted:
        def __init__(self, seed):
            self.draws = iter([1, 3])

        def randrange(self, lo, hi):
            return next(self.draws)

    monkeypatch.setattr(loc.random, "Random", Scripted)
    model = orbit_model(a1, weight([2]))
    chi = localized_index(model)
    assert exact_cross_check(model, chi, trials=1)
    assert not exact_cross_check(model, chi + VirtualCharacter.monomial(weight([0])), trials=1)


def test_exact_cross_check_agrees_with_a_per_term_evaluation_on_both_pools():
    # the power tables give what one pow per coordinate of every term gave,
    # every localized character passes and a unit change of one coefficient fails
    rng = random.Random(5)
    su3 = [model for _, model in _su3_pool()][::17]
    for model in [model for _, model in _orbit_grid()] + su3:
        chi = localized_index(model)
        rank = model.root_system.rank
        y = [rng.randrange(1, _PRIME) for _ in range(rank)]
        want = sum(c * _at(y, [2 * x for x in w]) for w, c in chi.terms().items()) % _PRIME
        got = _value_at(chi._terms, _columns(chi._terms, rank), [yi * yi % _PRIME for yi in y])
        assert got == want, model.name
        assert exact_cross_check(model, chi, trials=1, seed=rng.randrange(99)), model.name
        w = rng.choice(sorted(chi.terms())) if chi.terms() else (0,) * rank
        wrong = chi + VirtualCharacter({w: rng.choice((1, -1))})
        assert not exact_cross_check(model, wrong, trials=1, seed=rng.randrange(99)), model.name


def test_power_tables_span_only_the_values_of_each_column():
    # a table holds the distinct values of its column, so a wide span, with or
    # without 0 in it, costs one entry per value
    y = [3, 5]
    for terms in ({(10 ** 8, -10 ** 8): 2}, {(7, -9): 1, (4, -5): -3, (-1, 2): 1},
                  {(-3, 0): 1, (-2, -1): 4}, {(-3, -1): 1, (-1, -4): 2},
                  {(10 ** 6, 0): 1, (-10 ** 6, 3): 2, (0, -10 ** 6): 5, (0, 0): -1}):
        want = sum(c * _at(y, w) for w, c in terms.items()) % _PRIME
        start = time.perf_counter()
        assert _value_at(terms, _columns(terms, 2), y) == want
        assert time.perf_counter() - start < 0.1


def test_exact_cross_check_takes_one_power_table_per_axis():
    model = su3_flag_bundle(200, 400)
    chi = localized_index(model)
    start = time.perf_counter()
    assert exact_cross_check(model, chi, trials=20)
    assert time.perf_counter() - start < 2


def test_model_json_round_trip(tmp_path):
    model = su3_flag_bundle(1, 3)
    obj = model_to_json_obj(model)
    text = json.dumps(obj, indent=2, sort_keys=True)
    again = model_from_json_obj(json.loads(text))
    assert localized_index(again) == localized_index(model)
    assert json.dumps(model_to_json_obj(again), indent=2, sort_keys=True) == text
    assert obj["generic_stabilizer"] == [[1], [2]]
    obj["generic_stabilizer"] = [[1], [1, 2]]
    with pytest.raises(SpindexError, match="Levi-conjugate"):
        model_from_json_obj(obj)


def test_json_round_trip_of_every_grid_and_su3_model():
    # the orbit models of A1-A3, B2 and G2 with coordinates <= 4, and su3(a, b) on a stride of 5
    models = [orbit_model(rs, orbit.mu)
              for rs in map(build_root_system, ("A1", "A2", "A3", "B2", "G2"))
              for face in all_faces(rs)
              for orbit in admissible_orbits_on_face(face, (0, 4), rs)]
    assert len(models) == 205
    models += [su3_flag_bundle(a, b) for a in range(0, 41, 5) for b in range(0, 41, 5)]
    for model in models:
        obj = model_to_json_obj(model)
        again = model_from_json_obj(json.loads(json.dumps(obj)))
        assert model_to_json_obj(again) == obj
        assert localized_index(again) == localized_index(model)


def test_model_files_of_a_group_share_one_root_system():
    a3 = build_root_system("A3")
    built = [orbit_model(a3, weight(mu)) for mu in ([1, 0, 0], [2, 1, 1])]
    loaded = [model_from_json_obj(json.loads(json.dumps(model_to_json_obj(m)))) for m in built]
    assert loaded[0].root_system is loaded[1].root_system
    for model, again in zip(built, loaded):
        assert localized_index(again) == localized_index(model)
    # the su3 builder and su3 model files share theirs too, and so do matrix files
    su3 = su3_flag_bundle(1, 3)
    assert model_from_json_obj(model_to_json_obj(su3)).root_system is su3.root_system
    custom = model_to_json_obj(replace(built[0], root_system=build_root_system(
        [[2, -1, 0], [-1, 2, -1], [0, -1, 2]])))
    assert model_from_json_obj(custom).root_system is model_from_json_obj(custom).root_system


def test_hand_written_model_file(a1, tmp_path):
    # a two-point sphere model written by hand, as a user would
    obj = {
        "name": "hand-sphere",
        "group": "A1",
        "fixed_points": [
            {"label": "north", "det_weight": ["4"], "tangent_weights": [["2"]]},
            {"label": "south", "det_weight": ["-4"], "tangent_weights": [["-2"]]},
        ],
        "generic_stabilizer": [[]],
        "kirwan": [{"face": [], "points": [["2"]]}],
    }
    model = model_from_json_obj(obj)
    assert localized_index(model) == weyl_character(weight([2]), a1)


def test_moment_report_su3():
    model = su3_flag_bundle(2, 5)
    rows = moment_report(model)
    doms = {row["label"]: row["dominant_representative"] for row in rows}
    # internal-line points sit at (a+1) omega_2, external-line at (b-a) omega_1
    for label, dom in doms.items():
        expected = weight([0, 3]) if not label.endswith("e4") else weight([3, 0])
        assert dom == expected
    assert all(row["in_declared_kirwan"] for row in rows)


def test_moment_report_flags_mismatch(a2):
    model = orbit_model(a2, weight([1, 1]))
    rows = moment_report(model)
    assert all(row["dominant_representative"] == weight([1, 1]) for row in rows)
    assert all(row["in_declared_kirwan"] for row in rows)


@pytest.mark.parametrize("label,top", [("B2", 2), ("G2", 2), ("C3", 1)])
def test_orbit_indices_beyond_type_a(label, top):
    # the index prediction is type-agnostic; exercise the non-simply-laced
    # coroot machinery end to end
    from spindex import admissible_orbits_on_face, all_faces, build_root_system, orbit_spin_index

    rs = build_root_system(label)
    for face in all_faces(rs):
        for orbit in admissible_orbits_on_face(face, (Q(0), Q(top)), rs):
            dec = decompose(localized_index(orbit_model(rs, orbit.mu)), rs)
            predicted = orbit_spin_index(orbit, rs)
            if predicted.is_zero:
                assert not dec, (label, orbit.mu)
            else:
                assert dec == Decomposition({predicted.lam: 1}), (label, orbit.mu)
