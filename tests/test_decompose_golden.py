"""A golden digest of the decompositions.

The digest is one SHA-256 over the sorted multiplicities that ``decompose``
gives for the ``localized_index`` of the same 326 models as
``localized_index.sha256``: the 205 ``orbit-grid`` models and su3(a, b) for
a, b in {0, 4, ..., 40}.  It covers each infinitesimal character, the types of
its coordinates and its multiplicity, so any change that moves a
decomposition by one byte changes it.  After an intended change of answers,
regenerate the file with

    PYTHONPATH=src python tests/test_decompose_golden.py > tests/golden/decompose.sha256
"""

import hashlib
from pathlib import Path

from spindex import decompose, localized_index

from test_engine_golden import engine_models

GOLDEN = Path(__file__).parent / "golden" / "decompose.sha256"


def decompose_digest() -> str:
    h = hashlib.sha256()
    count = 0
    for model in engine_models():
        dec = decompose(localized_index(model), model.root_system)
        h.update(f"{model.name}\n{dec.items_sorted()!r}\n".encode())
        count += 1
    return f"{h.hexdigest()}  {count} models"


def test_decompositions_match_the_golden_digest():
    assert decompose_digest() == GOLDEN.read_text().strip()


if __name__ == "__main__":
    print(decompose_digest())
