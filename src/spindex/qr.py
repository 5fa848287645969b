"""Quantization-commutes-with-reduction bookkeeping.

Assembles the two sides of the [Q,R]=0 identity for a localization model: the
left side is the decomposed equivariant index; the right side sums, over the
admissible orbits in the declared Kirwan set on each contributing face, a
caller-supplied reduced index times the orbit's spin-c index.  Reduced indices
are inputs (providers), not computed from geometry: tables may carry chamber
labels, and entries for one orbit reachable from two chambers must agree (the
wall-consistency contract enforced by validate_provider).

Vanishing predicates: a model whose generic stabilizer class is not realized
by any chamber face Levi must have zero index, and likewise when the declared
Kirwan set misses every face carrying the stabilizer class.
"""

from __future__ import annotations

from dataclasses import dataclass

from .characters import Decomposition, decompose
from .errors import (
    NotRegularDominant,
    ProviderInvalid,
    ProviderMissingOrbit,
    SpindexError,
)
from .localization import (
    ManifoldModel,
    kirwan_admissible_orbits,
    kirwan_contains,
    kirwan_faces_met,
    localized_index,
)
from .orbits import CoadjointOrbit, OrbitIndex, is_admissible, orbit_spin_index
from .roots import Face, RootSystem, _zero_set, face_from_vanishing_set, stabilizer_class_of_face
from .weights import (
    Weight,
    format_weight,
    is_dominant,
    is_strictly_dominant,
    lattice_point,
    weight,
    weight_from_json,
    weight_to_json,
    wsub,
)


# -- reduced-index providers -----------------------------------------------------


class ConstantProvider:
    """The same reduced index at every orbit."""

    kind = "constant"

    def __init__(self, value: int):
        self.value = int(value)

    def reduced_index(self, orbit: CoadjointOrbit, model: ManifoldModel) -> int:
        return self.value

    def describe(self) -> str:
        return f"constant:{self.value}"


@dataclass(frozen=True)
class TableEntry:
    mu: Weight
    value: int
    chamber: str | None = None


class TableProvider:
    """Explicit reduced indices per orbit, optionally tagged by chamber.

    Lookup ignores chambers; chamber tags exist so validate_provider can check
    the wall-consistency contract (entries for one orbit declared from two
    chambers must agree).
    """

    kind = "table"

    def __init__(self, entries):
        normalized = []
        for e in entries:
            if not isinstance(e, TableEntry):
                e = TableEntry(*e)
            normalized.append(TableEntry(weight(e.mu), int(e.value), e.chamber))
        self.entries = tuple(normalized)
        # reversed, so that the first entry for an orbit wins
        self._values = {e.mu: e.value for e in reversed(self.entries)}

    def reduced_index(self, orbit: CoadjointOrbit, model: ManifoldModel) -> int:
        if orbit.mu not in self._values:
            raise ProviderMissingOrbit(
                f"table provider has no entry for orbit {orbit.label()}")
        return self._values[orbit.mu]

    def describe(self) -> str:
        return f"table[{len(self.entries)} entries]"


class FromMultiplicitiesProvider:
    """Reduced indices read off a decomposition; abelian stabilizer only.

    Valid when the semisimple part of the generic stabilizer is trivial: then
    the multiplicity of pi(lam) is itself the reduced index at the orbit
    through lam - rho_sigma, so the orbit through mu gets the multiplicity at
    mu + rho_sigma.
    """

    kind = "from-multiplicities"

    def __init__(self, source: Decomposition):
        self.source = source

    def reduced_index(self, orbit: CoadjointOrbit, model: ManifoldModel) -> int:
        if model.generic_stabilizer.semisimple_positive_roots():
            raise ProviderInvalid(
                "from-multiplicities provider requires an abelian generic stabilizer")
        lam = tuple(a + b for a, b in zip(orbit.mu, orbit.face.rho_sigma))
        return self.source.multiplicity(lam)

    def describe(self) -> str:
        return f"from-multiplicities[{len(self.source)} terms]"


# -- vanishing predicates ----------------------------------------------------------


def _stabilizer_realizing_faces(model: ManifoldModel) -> list[Face]:
    """Chamber faces whose Levi subsystem is conjugate to the model's stabilizer;
    none when the stabilizer is not presented by a chamber face of the group."""
    rs = model.root_system
    target = model.generic_stabilizer.representative_faces[0]
    if target != face_from_vanishing_set(target.vanishing_set, rs):
        return []
    return list(stabilizer_class_of_face(target, rs).representative_faces)


def vanishes_by_stabilizer(model: ManifoldModel) -> bool:
    """True when no chamber face Levi realizes the generic stabilizer class.

    In that case the equivariant index of any compatible spin-c structure is
    zero; callers cross-check against the localization output.
    """
    return not _stabilizer_realizing_faces(model)


def vanishes_by_moment_image(model: ManifoldModel) -> bool:
    """True when the declared Kirwan set misses every stabilizer-class face.

    Only meaningful for realizable stabilizer classes (callers should test
    vanishes_by_stabilizer first); again forces a zero index.
    """
    realized = set(_stabilizer_realizing_faces(model))
    if not realized:
        raise SpindexError("vanishes_by_moment_image needs a realizable stabilizer class")
    met = kirwan_faces_met(model.kirwan, model.root_system)
    return not (realized & met)


def contributing_faces(model: ManifoldModel) -> list[Face]:
    """Faces carrying the stabilizer class whose interior meets the Kirwan set."""
    realized = _stabilizer_realizing_faces(model)
    met = kirwan_faces_met(model.kirwan, model.root_system)
    return [f for f in realized if f in met]


# -- the multiplicity formula -------------------------------------------------------


def multiplicity(model: ManifoldModel, lam: Weight, provider) -> int:
    """Multiplicity of pi(lam) predicted by the face-sum of reduced indices.

    Sums the provider's reduced index at the orbit through lam - rho_sigma
    over the contributing faces on which that point lies, restricted to the
    declared Kirwan set (an orbit outside it has empty reduced space, hence
    reduced index zero).
    """
    lam = weight(lam)
    rs = model.root_system
    rs.check_rank(lam, "multiplicity")
    if lattice_point(lam) is None or not is_strictly_dominant(lam):
        raise NotRegularDominant(f"multiplicity is indexed by strictly dominant "
                                 f"lattice weights, got {format_weight(lam)}")
    total = 0
    for face in contributing_faces(model):
        mu = wsub(lam, face.rho_sigma)
        if not (is_dominant(mu) and _zero_set(mu) == face.vanishing_set):
            continue
        if not kirwan_contains(model.kirwan, mu, rs):
            continue
        # mu - rho + rho_sigma = lam - rho is integral, so the orbit is admissible
        total += provider.reduced_index(CoadjointOrbit(mu, face), model)
    return total


# -- full verification ----------------------------------------------------------------


@dataclass
class OrbitTerm:
    orbit: CoadjointOrbit
    reduced_index: int
    orbit_index: OrbitIndex


@dataclass
class QRReport:
    """Both sides of the reduction identity with the orbit-by-orbit evidence."""

    model_name: str
    lhs: Decomposition
    contributing_faces: list[Face]
    orbit_terms: list[OrbitTerm]
    rhs: Decomposition
    match: bool
    differences: dict[Weight, tuple[int, int]]

    def verdict(self) -> str:
        return "match" if self.match else "mismatch"

    def to_json_obj(self, rs: RootSystem) -> dict:
        return {
            "model": self.model_name,
            "verdict": self.verdict(),
            "contributing_faces": [sorted(f.vanishing_set) for f in self.contributing_faces],
            "orbit_terms": [
                {
                    "mu": weight_to_json(t.orbit.mu),
                    "face": sorted(t.orbit.face.vanishing_set),
                    "reduced_index": t.reduced_index,
                    "orbit_index": None if t.orbit_index.is_zero
                    else weight_to_json(t.orbit_index.lam),
                }
                for t in self.orbit_terms
            ],
            "lhs": self.lhs.to_json_obj(rs),
            "rhs": self.rhs.to_json_obj(rs),
            "differences": [
                {
                    "infinitesimal_character": weight_to_json(lam),
                    "lhs_multiplicity": a,
                    "rhs_multiplicity": b,
                }
                for lam, (a, b) in sorted(self.differences.items())
            ],
        }


def verify_qr(model: ManifoldModel, provider) -> QRReport:
    """Compare the decomposed localization index against the orbit sum.

    Orbit terms whose spin-c index is zero are listed in the report (reduced
    index and all) but contribute nothing to the right-hand character sum.
    """
    rs = model.root_system
    lhs = decomposed_index(model)
    faces = contributing_faces(model)
    terms: list[OrbitTerm] = []
    rhs_acc: dict[Weight, int] = {}
    for face in faces:
        for orbit in kirwan_admissible_orbits(model.kirwan, face, rs):
            reduced = provider.reduced_index(orbit, model)
            oindex = orbit_spin_index(orbit, rs)
            terms.append(OrbitTerm(orbit, reduced, oindex))
            if not oindex.is_zero and reduced:
                rhs_acc[oindex.lam] = rhs_acc.get(oindex.lam, 0) + reduced
    rhs = Decomposition(rhs_acc)
    left, right = lhs.multiplicities(), rhs.multiplicities()
    diffs: dict[Weight, tuple[int, int]] = {}
    for lam in left.keys() | right.keys():
        a, b = left.get(lam, 0), right.get(lam, 0)
        if a != b:
            diffs[lam] = (a, b)
    return QRReport(
        model_name=model.name,
        lhs=lhs,
        contributing_faces=faces,
        orbit_terms=terms,
        rhs=rhs,
        match=not diffs,
        differences=diffs,
    )


def decomposed_index(model: ManifoldModel) -> Decomposition:
    """Decomposition of the model's localized index (the report's left side)."""
    return decompose(localized_index(model), model.root_system)


# -- provider validation -----------------------------------------------------------------


def validate_provider(provider, model: ManifoldModel) -> list[str]:
    """Structural warnings for a provider against a model; never raises.

    Checks table keys for admissibility and enforces the wall-consistency
    contract: entries for the same orbit coming from different declared
    chambers must agree.
    """
    warnings: list[str] = []
    if provider.kind != "table":
        return warnings
    rs = model.root_system
    by_mu: dict[Weight, list[TableEntry]] = {}
    for e in provider.entries:
        try:
            ok = is_admissible(e.mu, rs)
        except SpindexError:  # a key of the wrong rank, or not dominant
            ok = False
        if not ok:
            warnings.append(
                f"NonAdmissibleKey: table entry at ({format_weight(e.mu)}) "
                f"is not an admissible orbit")
        by_mu.setdefault(e.mu, []).append(e)
    for mu, entries in sorted(by_mu.items()):
        values = {e.value for e in entries}
        chambers = {e.chamber for e in entries}
        if len(values) > 1 and len(chambers) > 1:
            warnings.append(
                f"WallInconsistency: orbit ({format_weight(mu)}) gets values "
                f"{sorted(values)} from chambers {sorted(str(c) for c in chambers)}")
        elif len(values) > 1:
            warnings.append(
                f"ConflictingEntries: orbit ({format_weight(mu)}) has "
                f"conflicting values {sorted(values)}")
    return warnings


def _table_entry(e) -> TableEntry:
    """One table-file entry; ValueError unless it has a weight mu, an int value, a str chamber."""
    if not isinstance(e, dict):
        raise ValueError(f"a table entry must be a JSON object, got {e!r}")
    value, chamber = e.get("value"), e.get("chamber")
    if type(value) is not int or not (chamber is None or isinstance(chamber, str)):
        raise ValueError(f"table entry {e!r} needs an integer 'value' and a string or no 'chamber'")
    return TableEntry(weight_from_json(e.get("mu")), value, chamber)


def parse_provider_spec(spec: str, model: ManifoldModel):
    """Provider mini-language: constant:<int>, table:<path>, from-multiplicities."""
    if spec.startswith("constant:"):
        return ConstantProvider(int(spec.split(":", 1)[1]))
    if spec.startswith("table:"):
        import json

        path = spec.split(":", 1)[1]
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict) or not isinstance(data.get("entries"), list):
            raise ValueError("a table must be a JSON object with an 'entries' list")
        return TableProvider([_table_entry(e) for e in data["entries"]])
    if spec == "from-multiplicities":
        return FromMultiplicitiesProvider(decomposed_index(model))
    raise ProviderInvalid(f"unknown provider spec {spec!r}")
