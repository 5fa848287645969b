"""A golden digest of the series engine's answers.

The digest is one SHA-256 over the ``localized_index`` terms of the 205
``orbit-grid`` models (the admissible orbits of A1-A3, B2 and G2 with
coordinates <= 4) and of su3(a, b) for a, b in {0, 4, ..., 40}.  It covers the
keys, their types, the order of the terms and the coefficients, so any change
to the engine that moves an answer by one byte changes it.  After an intended
change of answers, regenerate the file with

    PYTHONPATH=src python tests/test_engine_golden.py > tests/golden/localized_index.sha256
"""

import hashlib
from pathlib import Path

from spindex import (
    admissible_orbits_on_face,
    all_faces,
    build_root_system,
    localized_index,
    orbit_model,
    su3_flag_bundle,
)

GOLDEN = Path(__file__).parent / "golden" / "localized_index.sha256"


def engine_models():
    for label in ("A1", "A2", "A3", "B2", "G2"):
        rs = build_root_system(label)
        for face in all_faces(rs):
            for orbit in admissible_orbits_on_face(face, (0, 4), rs):
                yield orbit_model(rs, orbit.mu)
    for a in range(0, 41, 4):
        for b in range(0, 41, 4):
            yield su3_flag_bundle(a, b)


def engine_digest() -> str:
    h = hashlib.sha256()
    count = 0
    for model in engine_models():
        # repr spells out each key's and coefficient's type, so an int64 or a
        # Fraction in place of an int changes the digest
        h.update(f"{model.name}\n{list(localized_index(model).terms().items())!r}\n".encode())
        count += 1
    return f"{h.hexdigest()}  {count} models"


def test_localized_index_matches_the_golden_digest():
    assert engine_digest() == GOLDEN.read_text().strip()


if __name__ == "__main__":
    print(engine_digest())
