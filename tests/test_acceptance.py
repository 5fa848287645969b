"""Acceptance gate: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
All comparisons are exact (integer / rational equality, or equality mod the
prime 2^61 - 1 in the cross-check); the only tolerances are the wall-clock
budgets.
"""

import contextlib
import random
import time
from fractions import Fraction as Q

from spindex import (
    ConstantProvider,
    Decomposition,
    VirtualCharacter,
    admissible_orbits_on_face,
    all_faces,
    build_root_system,
    decompose,
    dimension,
    exact_cross_check,
    localized_index,
    multiplicity,
    orbit_model,
    orbit_spin_index,
    su3_flag_bundle,
    verify_qr,
    weyl_character,
)
from spindex.errors import ParityViolation
from spindex.localization import FixedPointDatum
from spindex.orbits import OrbitIndex
from spindex.roots import face_from_vanishing_set
from spindex.weights import weight


@contextlib.contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {description}", flush=True)
        raise
    print(f"[PASS] criterion {number}: {description}", flush=True)


def _expected_family(a, b):
    acc = {}
    for j in range(0, b - a - 1):
        lam = weight([1 + j, 1])
        acc[lam] = acc.get(lam, 0) + 1
    for j in range(0, a):
        lam = weight([1, 1 + j])
        acc[lam] = acc.get(lam, 0) + 1
    return Decomposition(acc)


def test_criterion_1_su3_golden_decomposition():
    with criterion(1, "SU(3) flag-bundle decompositions match the closed family "
                      "for all 0 <= a < b <= 6"):
        start = time.monotonic()
        rs = build_root_system("A2")
        for a in range(0, 7):
            for b in range(a + 1, 7):
                model = su3_flag_bundle(a, b)
                dec = decompose(localized_index(model), rs)
                assert dec == _expected_family(a, b), (a, b)
        elapsed = time.monotonic() - start
        assert elapsed < 10.0, f"took {elapsed:.1f}s, budget 10s"


def test_criterion_2_trivial_multiplicity_both_paths():
    with criterion(2, "multiplicity of the trivial representation in (a,b)=(1,3) "
                      "is 2 by decomposition and by the face-sum formula"):
        model = su3_flag_bundle(1, 3)
        rs = model.root_system
        rho = weight([1, 1])
        by_decomposition = decompose(localized_index(model), rs).multiplicity(rho)
        by_formula = multiplicity(model, rho, ConstantProvider(1))
        assert by_decomposition == 2
        assert by_formula == 2


def test_criterion_3_qr_verification_full_grid():
    with criterion(3, "index equals the reduced-orbit sum (constant reduced index 1) "
                      "for all 0 <= a < b <= 6, zero-index orbits included"):
        for a in range(0, 7):
            for b in range(a + 1, 7):
                report = verify_qr(su3_flag_bundle(a, b), ConstantProvider(1))
                assert report.match, (a, b, report.differences)
                ray1 = {t.orbit.mu for t in report.orbit_terms
                        if t.orbit.face.vanishing_set == frozenset({2})}
                ray2 = {t.orbit.mu for t in report.orbit_terms
                        if t.orbit.face.vanishing_set == frozenset({1})}
                assert ray1 == {weight([Q(1 + 2 * j, 2), 0]) for j in range(b - a)}
                assert ray2 == {weight([0, Q(1 + 2 * j, 2)]) for j in range(a + 1)}
                zero_terms = [t for t in report.orbit_terms if t.orbit_index.is_zero]
                assert {t.orbit.mu for t in zero_terms} \
                    == {weight([Q(1, 2), 0]), weight([0, Q(1, 2)])}


def test_criterion_4_orbit_models_match_predicted_indices():
    with criterion(4, "decomposed localization index of every admissible orbit "
                      "(coordinates <= 4, all faces of A1, A2, A3) equals its "
                      "predicted spin-c index"):
        start = time.monotonic()
        checked = 0
        for label in ("A1", "A2", "A3"):
            rs = build_root_system(label)
            for face in all_faces(rs):
                for orbit in admissible_orbits_on_face(face, (Q(0), Q(4)), rs):
                    dec = decompose(localized_index(orbit_model(rs, orbit.mu)), rs)
                    predicted = orbit_spin_index(orbit, rs)
                    if predicted.is_zero:
                        assert not dec, (label, orbit.mu)
                    else:
                        assert dec == Decomposition({predicted.lam: 1}), (label, orbit.mu)
                    checked += 1
        elapsed = time.monotonic() - start
        assert checked == 155
        assert elapsed < 60.0, f"took {elapsed:.1f}s, budget 60s"


def test_criterion_5_subregular_ray_family():
    with criterion(5, "admissible points on the omega_1 ray of A2 are exactly "
                      "(1+2n)/2 with indices 0, pi(rho), pi(rho+omega_1), ..."):
        rs = build_root_system("A2")
        ray = face_from_vanishing_set(frozenset({2}), rs)
        for hi in (Q(2), Q(13, 2), Q(10)):
            orbits = admissible_orbits_on_face(ray, (Q(0), hi), rs)
            expected = [Q(1 + 2 * n, 2) for n in range(20) if Q(1 + 2 * n, 2) <= hi]
            assert [o.mu[0] for o in orbits] == expected
            for n, orbit in enumerate(orbits):
                idx = orbit_spin_index(orbit, rs)
                if n == 0:
                    assert idx.is_zero
                else:
                    assert idx == OrbitIndex.irreducible(weight([n, 1]))


def _golden_models():
    a1 = build_root_system("A1")
    a2 = build_root_system("A2")
    a3 = build_root_system("A3")
    models = [orbit_model(a1, weight([1])), orbit_model(a1, weight([2])),
              orbit_model(a1, weight([4])),
              orbit_model(a2, weight([1, 1])), orbit_model(a2, weight([Q(3, 2), 0])),
              orbit_model(a2, weight([Q(5, 2), 0])), orbit_model(a2, weight([Q(1, 2), 0])),
              orbit_model(a2, weight([2, 2])),
              orbit_model(a3, weight([1, 1, 1])), orbit_model(a3, weight([2, 1, 1]))]
    for a in range(0, 7):
        for b in range(a + 1, 7):
            models.append(su3_flag_bundle(a, b))
    return models


def test_criterion_6_numeric_oracle_and_perturbation_detection():
    with criterion(6, "exact cross-check mod 2^61 - 1 passes every golden model over "
                      "20 points; any single unit coefficient perturbation is rejected"):
        fresh = {1: weight([6]), 2: weight([6, 6]), 3: weight([6, 6, 6])}
        for model in _golden_models():
            chi = localized_index(model)
            assert exact_cross_check(model, chi, trials=20, seed=42), model.name
            targets = list(chi.terms()) + [fresh[model.root_system.rank]]
            for w in targets:
                perturbed = chi + VirtualCharacter.monomial(w, 1)
                assert not exact_cross_check(model, perturbed, trials=3, seed=7), (model.name, w)


def test_criterion_7_character_ring_property_suites():
    with criterion(7, "Weyl-invariant localized indices; the evaluation over F_p "
                      "confirms antisymmetrization on 100 random virtual characters; "
                      "dimension equals the value at the identity on a grid"):
        for model in _golden_models():
            assert localized_index(model).is_weyl_invariant(model.root_system)

        rs = build_root_system("A2")
        lams = [weight([i, j]) for i in range(1, 4) for j in range(1, 4)]
        rng = random.Random(2024)
        for _ in range(100):
            coeffs = {lam: rng.randint(-3, 3) for lam in rng.sample(lams, 4)}
            chi = VirtualCharacter.zero()
            for lam, c in coeffs.items():
                chi = chi + c * weyl_character(lam, rs)
            # decompose checks its answer over F_p and raises MethodMismatch on a miss
            assert decompose(chi, rs) == Decomposition(coeffs)

        for label, top in (("A1", 6), ("A2", 3), ("A3", 2)):
            grid_rs = build_root_system(label)
            for lam in _grid(grid_rs.rank, top):
                chi = weyl_character(lam, grid_rs)
                assert sum(chi.terms().values()) == dimension(lam, grid_rs)


def _grid(rank, top):
    if rank == 0:
        return [()]
    return [(c,) + rest for c in range(1, top + 1) for rest in _grid(rank - 1, top)]


def test_criterion_8_parity_guard():
    with criterion(8, "calibrated determinant convention passes the parity check "
                      "at all six fixed points; the literal (2a+1, 2b+1) labeling "
                      "raises ParityViolation"):
        pairs = [(a, b) for a in range(0, 7) for b in range(a + 1, 7)]
        pairs += [(2, 2), (3, 1), (5, 0)]
        for a, b in pairs:
            model = su3_flag_bundle(a, b)
            assert len(model.fixed_points) == 6
            for fp in model.fixed_points:
                # re-running the constructor re-runs the parity validation
                FixedPointDatum(fp.label, fp.det_weight, fp.tangent_weights)
            try:
                su3_flag_bundle(a, b, convention="literal")
            except ParityViolation:
                pass
            else:
                raise AssertionError(f"literal convention must fail parity at {(a, b)}")
