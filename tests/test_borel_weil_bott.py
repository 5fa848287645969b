"""Borel-Weil-Bott as a property of the localization engine.

The model with one fixed point per Weyl group element w, determinant weight
2 w(nu) and tangent weights w(positive roots) localizes to the Weyl character
formula A_nu / A_rho.  For integral nu that is sign(w) chi(dom(nu)) when
dom(nu) = w(nu) is strictly dominant, and zero when dom(nu) lies on a wall
(characters are labelled by their infinitesimal character, so rho is
chi(rho) = 1).  Every fixed point orients its tangent weights to the same
positive system, at a different depth, so all of them share one series.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from spindex import (
    Decomposition,
    FixedPointDatum,
    KirwanSet,
    ManifoldModel,
    build_root_system,
    decompose,
    dominant_representative,
    exact_cross_check,
    face_from_vanishing_set,
    localized_index,
    stabilizer_class_of_face,
)
from spindex.roots import _orbit

from weyl_oracle import witness

GROUPS = {label: build_root_system(label) for label in ("A1", "A2", "B2", "G2")}


def bwb_model(rs, nu) -> ManifoldModel:
    """Fixed points on the free rho-orbit, carrying w(nu) and w(positive roots)."""
    carried = {}
    for point, (parent, i) in _orbit(rs, (1,) * rs.rank).items():
        carried[point] = ((tuple(nu), rs.positive_roots) if parent is None else
                          (rs.reflect(i, carried[parent][0]),
                           tuple(rs.reflect(i, beta) for beta in carried[parent][1])))
    fixed = tuple(FixedPointDatum(f"w{k}", tuple(2 * c for c in w_nu), roots)
                  for k, (w_nu, roots) in enumerate(carried.values()))
    chamber = face_from_vanishing_set(frozenset(), rs)
    return ManifoldModel(rs, fixed, stabilizer_class_of_face(chamber, rs), KirwanSet(()),
                         f"bwb:{rs.label}:{nu}")


@st.composite
def group_and_weight(draw):
    label = draw(st.sampled_from(sorted(GROUPS)))
    rank = GROUPS[label].rank
    return label, tuple(draw(st.lists(st.integers(-4, 4), min_size=rank, max_size=rank)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(group_and_weight())
def test_localization_is_borel_weil_bott(case):
    label, nu = case
    rs = GROUPS[label]
    model = bwb_model(rs, nu)
    chi = localized_index(model)
    dom = dominant_representative(nu, rs)
    expected = {} if 0 in dom else {dom: witness(rs, nu, dom).sign}
    assert decompose(chi, rs) == Decomposition(expected), (label, nu)
    assert exact_cross_check(model, chi)
