"""A golden digest of ``verify-qr --format json``.

One SHA-256 over the exit code and stdout of ``spindex verify-qr --format
json`` with the default provider for su3(a, b), 0 <= a, b <= 8, and for the
orbit model of every admissible orbit of A2 with coordinates at most 4.  It
covers both sides, every orbit term (its mu, face, reduced index and index)
and the verdict, so any change that moves a report by one byte changes it.
The digest was made before the orbit side moved to doubled int coordinates.
After an intended change of answers, print the new digest with

    PYTHONPATH=src python tests/test_qr_golden.py
"""

import contextlib
import hashlib
import io
from fractions import Fraction

from spindex import admissible_orbits_on_face, all_faces, build_root_system, cli
from spindex.weights import format_weight

DIGEST = "2571d5b5f6e58a6ebb5f3ef9f1e9c98b110e1a8f84f2fb4990e998e9fa01a73b  106 reports"


def verify_qr_digest() -> str:
    cases = [("--model", "su3-flag-bundle", "--a", str(a), "--b", str(b))
             for a in range(9) for b in range(9)]
    a2 = build_root_system("A2")
    for face in all_faces(a2):
        for orbit in admissible_orbits_on_face(face, (Fraction(0), Fraction(4)), a2):
            cases.append(("--model", "orbit", "--group", "A2", "--mu", format_weight(orbit.mu)))
    h = hashlib.sha256()
    for case in cases:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["verify-qr", *case, "--format", "json"])
        h.update(f"{' '.join(case)}\n{code}\n{out.getvalue()}".encode())
    return f"{h.hexdigest()}  {len(cases)} reports"


def test_verify_qr_reports_match_the_golden_digest():
    assert verify_qr_digest() == DIGEST


if __name__ == "__main__":
    print(verify_qr_digest())
