"""Virtual character arithmetic: irreducibles, decomposition, dimensions."""

import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spindex import (
    Decomposition,
    VirtualCharacter,
    build_root_system,
    decompose,
    dimension,
    localized_index,
    orbit_model,
    su3_flag_bundle,
    weyl_character,
    weyl_denominator,
)
from spindex.characters import _alternating_sum, _antisymmetrize, divide_by_binomial
from spindex.errors import (
    MethodMismatch,
    NotInShiftedLattice,
    NotRegularDominant,
    NotWeylInvariant,
)
from spindex.weights import is_strictly_dominant, wadd, weight

from decompose_oracle import NonDominantLeadingTerm, column_peel, height_key
from weyl_oracle import act, simple_reflections, weyl_group

# explicit weight lists for the two 3-dimensional A2 representations;
# these serve as the independent oracle for products and decompositions
FUND = [(1, 0), (-1, 1), (0, -1)]
FUND_DUAL = [(0, 1), (1, -1), (-1, 0)]


def test_weyl_character_trivial(a2):
    assert weyl_character(weight([1, 1]), a2) == VirtualCharacter.monomial(weight([0, 0]))


def test_weyl_character_fundamental(a2):
    chi = weyl_character(weight([2, 1]), a2)
    assert chi.terms() == {weight(w): 1 for w in FUND}


def test_weyl_character_a1_string(a1):
    chi = weyl_character(weight([3]), a1)
    assert chi.terms() == {weight([2]): 1, weight([0]): 1, weight([-2]): 1}


def test_weyl_character_validation(a2):
    with pytest.raises(NotRegularDominant):
        weyl_character(weight([1, 0]), a2)
    with pytest.raises(NotRegularDominant):
        weyl_character(weight([-1, 2]), a2)
    with pytest.raises(NotInShiftedLattice):
        weyl_character(weight([Q(1, 2), 1]), a2)


def test_lattice_errors_print_weights_as_coordinates(a2):
    with pytest.raises(NotRegularDominant) as err:
        weyl_character((1, 0), a2)
    assert str(err.value) == "(1,0) is not strictly dominant"
    with pytest.raises(NotInShiftedLattice) as err:
        dimension(("1/2", 1), a2)
    assert str(err.value) == "(1/2,1) has non-integer coordinates"


def test_character_weight_errors_print_coordinates():
    with pytest.raises(NotInShiftedLattice) as err:
        VirtualCharacter({(Q(1, 2), 0): 1})
    assert str(err.value) == "character weight (1/2,0) is not a lattice weight"
    # a coordinate that is not a number keeps its repr
    with pytest.raises(NotInShiftedLattice) as err:
        VirtualCharacter({("x", 0): 1})
    assert str(err.value) == "character weight ('x', 0) is not a lattice weight"
    with pytest.raises(NotInShiftedLattice) as err:
        VirtualCharacter({(float("inf"), 0): 1})
    assert str(err.value) == "character weight (inf, 0) is not a lattice weight"
    with pytest.raises(NotInShiftedLattice) as err:
        VirtualCharacter({(None, 0): 1})
    assert str(err.value) == "character weight (None, 0) is not a lattice weight"


def test_character_weights_must_be_integral():
    with pytest.raises(NotInShiftedLattice):
        VirtualCharacter.monomial(weight([Q(1, 2)]))
    with pytest.raises(NotInShiftedLattice):
        Decomposition({weight([Q(3, 2), 1]): 1})


def test_coordinates_that_are_not_numbers_are_not_lattice_weights():
    with pytest.raises(NotInShiftedLattice):
        VirtualCharacter({("x",): 1})
    with pytest.raises(NotInShiftedLattice):
        Decomposition([((float("nan"), 1), 1)])


def test_decomposition_keys_are_machine_integers():
    dec = Decomposition({weight([2, 1]): 1, ("1", "1"): 2})
    assert all(type(c) is int for lam in dec.multiplicities() for c in lam)
    assert dec == Decomposition({(2, 1): 1, (1, 1): 2})
    # multiplicity takes any rational coordinates; a non-lattice one has none
    for lam in [(2, 1), weight([2, 1]), ("2", "1"), (2.0, 1)]:
        assert dec.multiplicity(lam) == 1
    assert dec.multiplicity((Q(3, 2), 1)) == 0 and dec.multiplicity(("1", "1")) == 2


@pytest.mark.parametrize("a", [(1,), (-3,), (2, -1), (-1, 2), (1, 1), (0, -1), (-1, 2, -1)])
def test_divide_by_binomial_inverts_multiplication(a):
    rng = random.Random(sum(a) + 7 * len(a))
    binomial = VirtualCharacter({(0,) * len(a): 1, tuple(-c for c in a): -1})
    for _ in range(20):
        poly = VirtualCharacter(
            (tuple(rng.randint(-4, 4) for _ in a), rng.randint(-3, 3)) for _ in range(6))
        assert divide_by_binomial((poly * binomial).terms(), a) == poly.terms()


def test_divide_by_binomial_rejects_a_remainder():
    # 1 + t^(2,-1) is not a multiple of 1 - t^-(2,-1): its (2,-1)-string sums to 2
    with pytest.raises(MethodMismatch, match=r"1 - t\^-\(2,-1\)"):
        divide_by_binomial({(0, 0): 1, (2, -1): 1}, (2, -1))
    with pytest.raises(MethodMismatch):
        divide_by_binomial({(1, 0): 1}, (0, 1))


def test_dimension_examples(a1, a2):
    assert dimension(weight([1, 1]), a2) == 1
    # hand evaluation of the pairing-product formula: (2*1*3)/(1*1*2) = 3
    assert dimension(weight([2, 1]), a2) == 3
    for n in range(1, 7):
        assert dimension(weight([n]), a1) == n


def test_dimension_equals_value_at_identity(a1, a2, a3):
    for rs, tops in ((a1, 5), (a2, 3), (a3, 2)):
        for lam in _dominant_grid(rs.rank, tops):
            chi = weyl_character(lam, rs)
            assert sum(chi.terms().values()) == dimension(lam, rs)


def _dominant_grid(rank, top):
    if rank == 0:
        return [()]
    return [(c,) + rest for c in range(1, top + 1) for rest in _dominant_grid(rank - 1, top)]


def test_decompose_trivial_and_multiples(a2):
    trivial = weyl_character(weight([1, 1]), a2)
    assert decompose(trivial, a2) == Decomposition({weight([1, 1]): 1})
    assert decompose(2 * trivial, a2) == Decomposition({weight([1, 1]): 2})


def test_decompose_product_of_explicit_weight_lists(a2):
    # oracle: 3 x 3bar built from the frozen weight lists, no character formula
    chi = VirtualCharacter({weight(w): 1 for w in FUND}) \
        * VirtualCharacter({weight(w): 1 for w in FUND_DUAL})
    dec = decompose(chi, a2)
    assert dec == Decomposition({weight([2, 2]): 1, weight([1, 1]): 1})
    assert sum(m * dimension(lam, a2) for lam, m in dec.multiplicities().items()) == 9


def test_decompose_adjoint_regression(a2):
    # the adjoint orbit contains (2,-1), which is lex-greater than the dominant
    # member (1,1); a peel must still find the dominant leading weight
    adj = weyl_character(weight([2, 2]), a2)
    assert max(adj.terms()) == weight([2, -1])  # the trap is present
    assert decompose(adj, a2) == Decomposition({weight([2, 2]): 1})
    assert column_peel(adj, a2) == {weight([2, 2]): 1}


def test_decompose_roundtrip_grid(a1, a2, a3):
    for rs, top in ((a1, 4), (a2, 3), (a3, 2)):
        for lam in _dominant_grid(rs.rank, top):
            assert decompose(weyl_character(lam, rs), rs) == Decomposition({lam: 1})


def test_decompose_requires_weyl_invariance(a2):
    with pytest.raises(NotWeylInvariant):
        decompose(VirtualCharacter.monomial(weight([1, 0])), a2)
    # s_1 swaps (1,0) and (-1,1); s_2 fixes (1,0) but sends (-1,1) to (0,-1)
    chi = VirtualCharacter({weight([1, 0]): 1, weight([-1, 1]): 1})
    s1, s2 = simple_reflections(a2)
    assert act(s1, chi) == chi and act(s2, chi) != chi
    assert not chi.is_weyl_invariant(a2)
    with pytest.raises(NotWeylInvariant):
        decompose(chi, a2)


def test_an_unpartnered_weight_below_a_wall_breaks_invariance(a2):
    # s_1 sends (-2,0) to (2,-2) and (-1,0) to (1,-1), which are missing; s_2
    # fixes both, and no term with w_1 > 0 lacks its partner, so only the
    # count of terms on the two sides of the wall catches them
    chi = weyl_character(weight([2, 2]), a2) + VirtualCharacter.monomial(weight([-2, 0]))
    s1, s2 = simple_reflections(a2)
    assert act(s1, chi) != chi and act(s2, chi) == chi
    assert not chi.is_weyl_invariant(a2)
    with pytest.raises(NotWeylInvariant):
        decompose(chi, a2)
    lone = VirtualCharacter({weight([-1, 0]): 3, weight([0, 0]): 1})
    assert not lone.is_weyl_invariant(a2)
    with pytest.raises(NotWeylInvariant):
        decompose(lone, a2)
    # a partner with another coefficient is caught from the side w_1 > 0
    skew = chi + VirtualCharacter.monomial(weight([2, -2]), 2)
    assert not skew.is_weyl_invariant(a2)


def test_peel_rejects_non_dominant_leading_weight(a2):
    # the guard behind the invariance check: a lone anti-dominant monomial has
    # no dominant leading weight to peel at
    with pytest.raises(NonDominantLeadingTerm):
        column_peel(VirtualCharacter.monomial(weight([-1, -1])), a2)


def test_peel_brings_back_a_cancelled_weight(a2):
    # chi_(3,1) (highest weight (2,0)) and chi_(1,2) (highest weight (0,1)) both
    # hold (0,1) once, so their difference lacks it until chi_(3,1) is peeled
    chi = weyl_character(weight([3, 1]), a2) - weyl_character(weight([1, 2]), a2)
    assert chi.coefficient(weight([0, 1])) == 0
    assert weyl_character(weight([1, 2]), a2).coefficient(weight([0, 1])) == 1
    expected = {weight([3, 1]): 1, weight([1, 2]): -1}
    assert column_peel(chi, a2) == expected == _full_support_peel(chi, a2)
    assert decompose(chi, a2) == Decomposition(expected)


def _full_support_peel(chi, rs):
    """Oracle: subtract the whole top irreducible, every weight of it, until nothing is left."""
    rem = chi
    out = {}
    while rem:
        nu = max(rem.terms(), key=lambda w: height_key(w, rs))
        if any(c < 0 for c in nu):
            raise NonDominantLeadingTerm(f"leading weight {nu} is not dominant")
        lam = wadd(nu, rs.rho)
        c = rem.coefficient(nu)
        out[lam] = out.get(lam, 0) + c
        rem = rem - c * weyl_character(lam, rs)
    return {lam: m for lam, m in out.items() if m}


@pytest.mark.parametrize("label,mu", [("A1", [4]), ("A2", [4, 2]), ("A3", [3, 2, 1]),
                                      ("B2", [3, 2]), ("G2", [2, 1])])
def test_dominant_chamber_methods_match_the_full_support_oracles(label, mu):
    rs = build_root_system(label)
    chi = localized_index(orbit_model(rs, weight(mu)))
    assert chi.is_weyl_invariant(rs)
    assert all(act(s, chi) == chi for s in simple_reflections(rs))
    product = chi * weyl_denominator(rs)
    by_product = {w: c for w, c in product.terms().items() if is_strictly_dominant(w)}
    assert _antisymmetrize(chi, rs) == by_product == _full_support_peel(chi, rs)
    assert decompose(chi, rs) == Decomposition(by_product)


def test_dominant_chamber_decompose_matches_the_full_support_peel_on_su3():
    # decompose also checks its antisymmetrization by the evaluation over F_p
    for a in range(0, 41, 5):
        for b in range(0, 41, 5):
            model = su3_flag_bundle(a, b)
            chi = localized_index(model)
            rs = model.root_system
            assert decompose(chi, rs) == Decomposition(_full_support_peel(chi, rs))


def test_decompose_linearity_seeded(a2):
    rng = random.Random(11)
    lams = [weight([1, 1]), weight([2, 1]), weight([1, 2]), weight([2, 2]), weight([3, 1])]
    for _ in range(25):
        coeffs1 = {lam: rng.randint(-3, 3) for lam in lams}
        coeffs2 = {lam: rng.randint(-3, 3) for lam in lams}
        a, b = rng.randint(-2, 2), rng.randint(-2, 2)
        chi1 = _combo(coeffs1, a2)
        chi2 = _combo(coeffs2, a2)
        dec = decompose(a * chi1 + b * chi2, a2)
        expected = {lam: a * coeffs1[lam] + b * coeffs2[lam] for lam in lams}
        assert dec == Decomposition(expected)


def _combo(coeffs, rs):
    total = VirtualCharacter.zero()
    for lam, c in coeffs.items():
        total = total + c * weyl_character(lam, rs)
    return total


@settings(max_examples=30, deadline=None)
@given(st.dictionaries(
    st.sampled_from([(1, 1), (2, 1), (1, 2), (2, 2)]),
    st.integers(min_value=-4, max_value=4),
    max_size=4,
))
def test_decompose_reconstruct_roundtrip(coeffs):
    from spindex import build_root_system

    rs = build_root_system("A2")
    dec = Decomposition({weight(l): c for l, c in coeffs.items()})
    chi = dec.reconstruct(rs)
    assert decompose(chi, rs) == dec


def test_product_with_denominator_is_anti_invariant(a2):
    chi = weyl_character(weight([2, 1]), a2) + 2 * weyl_character(weight([1, 1]), a2)
    product = chi * weyl_denominator(a2)
    for s in simple_reflections(a2):
        assert act(s, product) == -1 * product


def test_characters_are_weyl_invariant(a2, a3):
    for rs, lam in ((a2, weight([2, 1])), (a2, weight([2, 2])), (a3, weight([1, 2, 1]))):
        assert weyl_character(lam, rs).is_weyl_invariant(rs)


def test_character_json_round_trip(a2):
    chi = weyl_character(weight([2, 2]), a2) - 3 * weyl_character(weight([1, 1]), a2)
    obj = chi.to_json_obj()
    assert all(set(e) == {"weight", "coeff"} for e in obj)
    assert VirtualCharacter.from_json_obj(obj) == chi


def test_character_algebra_basics(a2):
    chi = weyl_character(weight([2, 1]), a2)
    assert chi - chi == VirtualCharacter.zero()
    assert 0 * chi == VirtualCharacter.zero()
    assert (-1) * chi == -chi
    assert (chi * VirtualCharacter.monomial(weight([0, 0]))) == chi
    assert len(chi + chi) == len(chi)


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "B2", "C3", "G2", "A2xA1"])
def test_alternating_sum_matches_the_full_weyl_group(label):
    # oracle: sum_w sign(w) t^{w lam} over the listed group
    rs = build_root_system(label)
    for lam in [rs.rho, weight([2] + [1] * (rs.rank - 1)), weight(range(1, rs.rank + 1))]:
        expected = VirtualCharacter([(w(lam), w.sign) for w in weyl_group(rs)])
        assert _alternating_sum(lam, rs) == expected
        assert len(expected.terms()) == rs.weyl_order()


@pytest.mark.parametrize("label", ["A1", "A2", "B2", "G2", "A2xA1"])
def test_characters_and_dimensions_of_fraction_input_are_int_valued(label):
    rs = build_root_system(label)
    lams = [weight([1] * rs.rank), weight([2] + [1] * (rs.rank - 1)), weight(range(1, rs.rank + 1))]
    for lam in lams:
        chi = weyl_character(lam, rs)
        dim = dimension(lam, rs)
        assert type(dim) is int and dim == sum(chi.terms().values())
        assert all(type(c) is int for w in chi.terms() for c in w)
    keys = [key[1] for key in rs.char_cache if key[0] == "chi"]
    assert set(keys) == set(lams)
    assert all(type(c) is int for lam in keys for c in lam)
