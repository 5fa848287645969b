"""decompose confirms antisymmetrization by the Weyl character formula over F_p.

After the invariance check, ``decompose`` reads the multiplicities off
chi * A_rho and then checks chi(y) A_rho(y) = sum_lam m_lam A_lam(y) at a
seeded point y of the torus over F_p.  It builds no irreducible character:
the oracle here is the peel that ``decompose`` ran before, which builds them.
"""

import random
import time
from fractions import Fraction as Q

import pytest

import decompose_oracle as oracle
from spindex import (
    Decomposition,
    VirtualCharacter,
    admissible_orbits_on_face,
    all_faces,
    build_root_system,
    characters,
    decompose,
    localized_index,
    orbit_model,
    su3_flag_bundle,
)
from spindex.errors import MethodMismatch

GRID_GROUPS = ("A1", "A2", "A3", "B2", "G2")


def _orbit_grid():
    """The 205 admissible orbits with coordinates <= 4, on one fresh root system per group."""
    for label in GRID_GROUPS:
        rs = build_root_system(label)
        for face in all_faces(rs):
            for orbit in admissible_orbits_on_face(face, (Q(0), Q(4)), rs):
                yield rs, orbit_model(rs, orbit.mu)


def _su3_pool():
    for a in range(41):
        for b in range(41):
            model = su3_flag_bundle(a, b)
            yield model.root_system, model


def _su3_family(a, b):
    """Closed form for 0 <= a < b: sum_{j<=b-a-2} pi(rho + j w1) + sum_{j<a} pi(rho + j w2)."""
    acc = {}
    for lam in [(1 + j, 1) for j in range(b - a - 1)] + [(1, 1 + j) for j in range(a)]:
        acc[lam] = acc.get(lam, 0) + 1
    return acc


def test_decompose_builds_no_irreducible_character():
    systems = {}
    for rs, model in _orbit_grid():
        decompose(localized_index(model), rs)
        systems[rs.label] = rs
    a2 = build_root_system("A2")
    decompose(localized_index(su3_flag_bundle(3, 11)), a2)
    systems["su3"] = a2
    for label, rs in systems.items():
        kinds = {key if isinstance(key, str) else key[0] for key in rs.char_cache}
        # the Weyl denominator, its chamber masks, the point of the torus with
        # its frames, the kept series of the localization engine and the
        # fixed-point frames of the orbit models; no ("chi", lam) or ("dominant", lam)
        assert kinds <= {"denominator", "chamber", "point", "series", "frame"}, (label, kinds)
        assert {"denominator", "chamber", "point"} <= kinds
        assert ("frame" in kinds) == (label != "su3"), (label, kinds)


def test_a_corrupted_antisymmetrization_raises_method_mismatch(monkeypatch):
    rs = build_root_system("A2")
    chi = localized_index(su3_flag_bundle(2, 7))
    assert decompose(chi, rs).multiplicities() == _su3_family(2, 7)
    honest = characters._antisymmetrize

    def corrupted(*args):
        mult = honest(*args)
        mult[3, 1] += 1
        return mult

    monkeypatch.setattr(characters, "_antisymmetrize", corrupted)
    with pytest.raises(MethodMismatch, match="Weyl character formula"):
        decompose(chi, rs)


@pytest.mark.parametrize("pool", ["orbit-grid", "su3"])
def test_both_pools_match_the_peel_oracle_and_every_off_by_one_fails(pool, monkeypatch):
    # every model of the pool: decompose agrees with the peel, and with one
    # multiplicity raised or lowered by 1 it raises; a zero answer gets pi(rho)
    rng = random.Random(pool)
    checked = 0
    for rs, model in _orbit_grid() if pool == "orbit-grid" else _su3_pool():
        chi = localized_index(model)
        mult = decompose(chi, rs).multiplicities()
        assert mult == oracle.column_peel(chi, rs), model.name
        assert mult == oracle.gather_antisymmetrize(chi, rs), model.name
        lam = rng.choice(sorted(mult) or [rs.rho])
        wrong = {**mult, lam: mult.get(lam, 0) + rng.choice([-1, 1])}
        with monkeypatch.context() as patch:
            patch.setattr(characters, "_antisymmetrize",
                          lambda *args: {k: m for k, m in wrong.items() if m})
            with pytest.raises(MethodMismatch):
                decompose(chi, rs)
        checked += 1
    assert checked == {"orbit-grid": 205, "su3": 1681}[pool]


def test_su3_200_400_decomposes_in_under_half_a_second():
    model = su3_flag_bundle(200, 400)
    chi = localized_index(model)
    start = time.monotonic()
    dec = decompose(chi, model.root_system)
    elapsed = time.monotonic() - start
    assert dec.multiplicities() == _su3_family(200, 400)
    assert elapsed < 0.5, f"took {elapsed:.2f} s"


def test_a_sparse_wide_character_decomposes_at_the_cost_of_its_terms():
    # the check's power tables hold the values of each column, not its span
    a1 = build_root_system("A1")
    chi = VirtualCharacter({(10 ** 6,): 1, (-10 ** 6,): 1})
    start = time.monotonic()
    dec = decompose(chi, a1)
    elapsed = time.monotonic() - start
    assert dec == Decomposition({(10 ** 6 + 1,): 1, (10 ** 6 - 1,): -1})
    assert elapsed < 0.1, f"took {elapsed:.2f} s"
