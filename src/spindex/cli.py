"""Command-line surface.

Subcommands: faces, orbits, index, decompose, verify-qr, export-model.
Exit codes: 0 success (and verify-qr match), 1 usage error, 2 computation
error, 3 verify-qr mismatch.  JSON output is deterministic: sorted keys,
rationals as strings.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .characters import decompose, dimension
from .errors import SpindexError
from .localization import (
    CALIBRATED_CONVENTION,
    exact_cross_check,
    localized_index,
    model_from_json_obj,
    model_to_json_obj,
    moment_report,
    orbit_model,
    su3_flag_bundle,
)
from .orbits import admissible_orbits_on_face, orbit_spin_index
from .qr import parse_provider_spec, validate_provider, verify_qr
from .roots import all_faces, build_root_system, face_from_vanishing_set, stabilizer_classes
from .weights import format_weight, parse_weight, wsub


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures to exit code 1
        raise _UsageError(message)


def _arg_type(parse, expected: str):
    """An argparse type whose parse failures become one-line usage errors."""
    def convert(text: str):
        try:
            return parse(text)
        except (ValueError, ZeroDivisionError):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}") from None
    return convert


def _at_least(parse, low: int):
    def check(text: str):
        value = parse(text)
        if value < low:
            raise ValueError(text)
        return value
    return check


def _build_parser() -> _Parser:
    p = _Parser(prog="spindex",
                description="Exact equivariant spin-c index computations.")
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--format", choices=["table", "json"], default="table")

    def add_model_source(sp):
        sp.add_argument("--model", required=True,
                        help="builder name (orbit, su3-flag-bundle) or path to a JSON model file")
        sp.add_argument("--group", help="group type label or Cartan matrix as JSON")
        sp.add_argument("--mu", type=_arg_type(parse_weight, "comma-separated rationals"),
                        help="dominant weight, comma-separated rationals")
        sp.add_argument("--a", type=_arg_type(_at_least(int, 0), "a nonnegative integer"))
        sp.add_argument("--b", type=_arg_type(_at_least(int, 0), "a nonnegative integer"))
        sp.add_argument("--convention", default=CALIBRATED_CONVENTION,
                        choices=["calibrated", "literal"])

    sp = sub.add_parser("faces", help="list chamber faces and stabilizer classes")
    sp.add_argument("--group", required=True)
    add_common(sp)

    sp = sub.add_parser("orbits", help="admissible orbits on a face with their indices")
    sp.add_argument("--group", required=True)
    sp.add_argument("--face", required=True,
                    help="w<k> for the omega_k ray, 'open', 'origin', or s:<i,j,...>")
    sp.add_argument("--max", required=True,
                    type=_arg_type(_at_least(Fraction, 0), "a nonnegative rational number"),
                    help="upper bound for each free coordinate")
    add_common(sp)

    sp = sub.add_parser("index", help="localized index character of a model")
    add_model_source(sp)
    sp.add_argument("--cross-check", action="store_true",
                    help="check exactly, mod a prime, in --trials trials rather than one")
    sp.add_argument("--trials", type=_arg_type(_at_least(int, 1), "a positive integer"), default=20)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--moment-report", action="store_true",
                    help="also print fixed-point moments vs the declared Kirwan set")
    add_common(sp)

    sp = sub.add_parser("decompose", help="decompose a model's index into irreducibles")
    add_model_source(sp)
    add_common(sp)

    sp = sub.add_parser("verify-qr",
                        help="check the index against the reduced-orbit sum")
    add_model_source(sp)
    sp.add_argument("--provider", default="constant:1",
                    help="constant:<int>, table:<path>, or from-multiplicities")
    add_common(sp)

    sp = sub.add_parser("export-model", help="write a builder model as a JSON file")
    add_model_source(sp)
    sp.add_argument("--out", help="output path (default: stdout)")
    return p


def _resolve_group(text: str):
    if text.strip().startswith("["):
        try:
            return build_root_system(json.loads(text))
        except (json.JSONDecodeError, TypeError) as exc:  # not JSON, or rows not lists
            raise _UsageError(f"cannot parse Cartan matrix {text!r}: {exc}") from None
    return build_root_system(text)


def _resolve_model(args):
    name = args.model
    if name.endswith(".json"):
        try:
            with open(name, encoding="utf-8") as fh:
                return model_from_json_obj(json.load(fh))
        except (ValueError, KeyError, TypeError) as exc:  # not JSON, a field missing or mistyped
            raise _UsageError(f"malformed model file {name}: {exc!r}") from None
    if name == "orbit":
        if not args.group or not args.mu:
            raise _UsageError("builder 'orbit' needs --group and --mu")
        rs = _resolve_group(args.group)
        if len(args.mu) != rs.rank:
            raise _UsageError(f"--mu needs {rs.rank} coordinates for group {rs.label}")
        return orbit_model(rs, args.mu)
    if name in ("su3-flag-bundle", "su3_flag_bundle"):
        if args.a is None or args.b is None:
            raise _UsageError("builder 'su3-flag-bundle' needs --a and --b")
        return su3_flag_bundle(args.a, args.b, convention=args.convention)
    raise _UsageError(f"unknown model {name!r} (not a builder, not a .json path)")


def _parse_face(text: str, rs):
    text = text.strip().lower()
    if text == "open":
        return face_from_vanishing_set(frozenset(), rs)
    if text in ("origin", "vertex", "0"):
        return face_from_vanishing_set(frozenset(range(1, rs.rank + 1)), rs)
    if text.startswith("w") and text[1:].isdecimal():
        k = int(text[1:])
        if not 1 <= k <= rs.rank:
            raise _UsageError(f"ray index {k} out of range for rank {rs.rank}")
        return face_from_vanishing_set(
            frozenset(i for i in range(1, rs.rank + 1) if i != k), rs)
    if text.startswith("s:") and all(t.isdecimal() for t in text[2:].split(",") if t):
        vanishing = frozenset(int(t) for t in text[2:].split(",") if t)
        if not vanishing <= set(range(1, rs.rank + 1)):
            raise _UsageError(f"vanishing set {sorted(vanishing)} out of range for rank {rs.rank}")
        return face_from_vanishing_set(vanishing, rs)
    raise _UsageError(f"cannot parse face spec {text!r}")


def _print_json(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


def _render_table(headers, rows) -> str:
    cells = [headers] + [[str(c) for c in row] for row in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    lines = []
    for n, row in enumerate(cells):
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
        if n == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def _index_label(oindex, rs) -> tuple[str, str]:
    if oindex.is_zero:
        return "0", "-"
    return (f"pi({format_weight(oindex.lam)})",
            format_weight(wsub(oindex.lam, rs.rho)))


def _cmd_faces(args) -> int:
    rs = _resolve_group(args.group)
    classes = stabilizer_classes(rs)
    class_id = {}
    for n, cls in enumerate(classes):
        for f in cls.representative_faces:
            class_id[f] = n
    if args.format == "json":
        _print_json({
            "group": rs.label,
            "faces": [
                {
                    "vanishing_set": sorted(f.vanishing_set),
                    "rho_sigma": [str(c) for c in f.rho_sigma],
                    "levi_positive_roots": [[str(c) for c in r]
                                            for r in f.levi_positive_roots],
                    "stabilizer_class": class_id[f],
                }
                for f in all_faces(rs)
            ],
            "stabilizer_classes": [
                [sorted(f.vanishing_set) for f in cls.representative_faces]
                for cls in classes
            ],
        })
        return 0
    rows = [
        [f.label(), format_weight(f.rho_sigma), len(f.levi_positive_roots), class_id[f]]
        for f in all_faces(rs)
    ]
    print(_render_table(["face", "rho_sigma", "levi roots", "class"], rows))
    print()
    print("stabilizer classes:")
    for n, cls in enumerate(classes):
        print(f"  {n}: {cls.label()}")
    return 0


def _cmd_orbits(args) -> int:
    rs = _resolve_group(args.group)
    face = _parse_face(args.face, rs)
    orbits = admissible_orbits_on_face(face, (Fraction(0), args.max), rs)
    entries = []
    for o in orbits:
        oindex = orbit_spin_index(o, rs)
        entries.append((o, oindex))
    if args.format == "json":
        _print_json({
            "group": rs.label,
            "face": sorted(face.vanishing_set),
            "orbits": [
                {
                    "mu": [str(c) for c in o.mu],
                    "index": None if x.is_zero else [str(c) for c in x.lam],
                    "highest_weight": None if x.is_zero
                    else [str(c) for c in wsub(x.lam, rs.rho)],
                }
                for o, x in entries
            ],
        })
        return 0
    rows = []
    for o, x in entries:
        ilabel, hw = _index_label(x, rs)
        dim = "-" if x.is_zero else dimension(x.lam, rs)
        rows.append([format_weight(o.mu), ilabel, hw, dim])
    print(_render_table(["mu", "index", "highest weight", "dim"], rows))
    return 0


def _cmd_index(args) -> int:
    model = _resolve_model(args)
    chi = localized_index(model)
    # one trial always runs: the engine's support bound is necessary, not proven sufficient
    if not exact_cross_check(model, chi, args.trials if args.cross_check else 1, args.seed):
        raise SpindexError(f"cross-check failed: {model.name} differs from its fixed-point sum")
    if args.format == "json":
        obj = {"model": model.name, "character": chi.to_json_obj()}
        if args.cross_check:
            obj["cross_check"] = "pass"
        if args.moment_report:
            obj["moment_report"] = [
                {
                    "label": r["label"],
                    "moment": [str(c) for c in r["moment"]],
                    "dominant_representative": [str(c) for c in r["dominant_representative"]],
                    "in_declared_kirwan": r["in_declared_kirwan"],
                }
                for r in moment_report(model)
            ]
        _print_json(obj)
    else:
        print(f"model: {model.name}")
        rows = [[format_weight(w), c] for w, c in sorted(chi.terms().items())]
        print(_render_table(["weight", "coeff"], rows) if rows else "zero character")
        if args.cross_check:
            print("cross-check: pass")
        if args.moment_report:
            print()
            rows = [
                [r["label"], format_weight(r["moment"]),
                 format_weight(r["dominant_representative"]),
                 "yes" if r["in_declared_kirwan"] else "NO"]
                for r in moment_report(model)
            ]
            print(_render_table(
                ["fixed point", "moment", "dominant rep", "in kirwan"], rows))
    return 0


def _cmd_decompose(args) -> int:
    model = _resolve_model(args)
    rs = model.root_system
    dec = decompose(localized_index(model), rs)
    if args.format == "json":
        _print_json({"model": model.name, "decomposition": dec.to_json_obj(rs)})
        return 0
    print(f"model: {model.name}")
    rows = [
        [format_weight(lam), format_weight(wsub(lam, rs.rho)), m, dimension(lam, rs)]
        for lam, m in dec.items_sorted()
    ]
    print(_render_table(
        ["infinitesimal character", "highest weight", "multiplicity", "dim"], rows)
        if rows else "zero index")
    return 0


def _cmd_verify_qr(args) -> int:
    model = _resolve_model(args)
    rs = model.root_system
    try:
        provider = parse_provider_spec(args.provider, model)
    except (ValueError, KeyError) as exc:  # constant:<not an integer>, or a malformed table
        raise _UsageError(f"cannot parse provider {args.provider!r}: {exc}") from None
    warnings = validate_provider(provider, model)
    report = verify_qr(model, provider)
    if args.format == "json":
        obj = report.to_json_obj(rs)
        obj["provider"] = provider.describe()
        obj["provider_warnings"] = warnings
        _print_json(obj)
    else:
        print(f"model: {model.name}")
        print(f"provider: {provider.describe()}")
        for w in warnings:
            print(f"warning: {w}")
        print("contributing faces: "
              + (", ".join(f.label() for f in report.contributing_faces) or "none"))
        rows = []
        for t in report.orbit_terms:
            ilabel, hw = _index_label(t.orbit_index, rs)
            rows.append([format_weight(t.orbit.mu), t.orbit.face.label(),
                         t.reduced_index, ilabel, hw])
        print(_render_table(
            ["orbit mu", "face", "reduced index", "orbit index", "highest weight"], rows)
            if rows else "no admissible orbits in the declared Kirwan set")
        print()
        rows = []
        for lam in sorted(set(report.lhs.multiplicities()) | set(report.rhs.multiplicities())):
            rows.append([format_weight(lam), format_weight(wsub(lam, rs.rho)),
                         report.lhs.multiplicity(lam), report.rhs.multiplicity(lam)])
        print(_render_table(
            ["infinitesimal character", "highest weight", "index side", "orbit-sum side"],
            rows) if rows else "both sides are zero")
        print()
        print(f"verdict: {report.verdict()}")
    return 0 if report.match else 3


def _cmd_export_model(args) -> int:
    model = _resolve_model(args)
    text = json.dumps(model_to_json_obj(model), indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


_COMMANDS = {
    "faces": _cmd_faces,
    "orbits": _cmd_orbits,
    "index": _cmd_index,
    "decompose": _cmd_decompose,
    "verify-qr": _cmd_verify_qr,
    "export-model": _cmd_export_model,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return 0 if exc.code in (0, None) else 1
    try:
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SpindexError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # inputs under the size bounds may still pass a memory cap
        print("error: out of memory" + (f" ({exc})" if str(exc) else ""), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
