"""Exact equivariant spin-c index computations for compact Lie groups."""

from .characters import (
    Decomposition,
    VirtualCharacter,
    decompose,
    dimension,
    weyl_character,
    weyl_denominator,
)
from .errors import SpindexError
from .localization import (
    FixedPointDatum,
    KirwanPiece,
    KirwanSet,
    ManifoldModel,
    exact_cross_check,
    localized_index,
    model_from_json_obj,
    model_to_json_obj,
    moment_report,
    orbit_model,
    su3_flag_bundle,
)
from .orbits import (
    CoadjointOrbit,
    OrbitIndex,
    admissible_orbits_on_face,
    coadjoint_orbit,
    is_admissible,
    orbit_spin_index,
)
from .qr import (
    ConstantProvider,
    FromMultiplicitiesProvider,
    QRReport,
    TableEntry,
    TableProvider,
    contributing_faces,
    decomposed_index,
    multiplicity,
    validate_provider,
    vanishes_by_moment_image,
    vanishes_by_stabilizer,
    verify_qr,
)
from .roots import (
    Face,
    RootSystem,
    StabilizerClass,
    all_faces,
    build_root_system,
    dominant_representative,
    face_from_vanishing_set,
    face_of,
    is_regular,
    levi_conjugate,
    stabilizer_class_of_face,
    stabilizer_classes,
)
from .weights import Weight, format_weight, parse_weight, weight

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
