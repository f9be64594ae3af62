"""Command-line interface: one subcommand per computation, deterministic
table or JSON reports, stable exit codes per error family."""

from __future__ import annotations

import argparse
import json
import sys
from itertools import islice
from typing import TYPE_CHECKING, Any, Sequence

from .config import (
    ParsedInput,
    character_to_json,
    class_key_to_json,
    label_to_json,
    parse_config,
)
from .cover import CoverSpec
from .errors import ConfigError, GalcovError, NotAbelian

if TYPE_CHECKING:
    from .differentials import IrrepClassData

EXIT_CODES = {
    "error": 1,
    "config": 2,
    "non-integral-invariant": 3,
    "degenerate-cover": 4,
    "branched-at-infinity": 5,
    "unsupported-base-genus": 6,
    "not-abelian": 7,
    "search-space-too-large": 8,
    "admissibility": 9,
    "n-table-mismatch": 10,
    "non-integral-dimension": 11,
    "identity-element": 12,
    "non-invariant-input": 13,
    "internal-inconsistency": 14,
}

# each enumeration command's divisor family: the name it is counted by, and
# the names in ``galcov.enumeration`` of the sorted list and the stream.  Each
# command imports the modules it computes with, so that a run loads only those.
FAMILIES = {
    "nonspecial": ("integral", "enumerate_nonspecial_integral", "iter_nonspecial_integral"),
    "degree-gm1": ("gm1", "enumerate_degree_gm1", "iter_degree_gm1"),
}


def _table_character(cover: CoverSpec, name: str):
    """The class table's character of that name, or None; a report names the
    trivial character "1" even where the table omits its row."""
    return next((chi for chi in (*cover.characters(), cover.trivial_character) if chi.name == name), None)


def _parse_character(cover: CoverSpec, text: str):
    if cover.is_abelian:
        try:
            return cover.group.character([int(k) for k in text.split(",")])
        except ValueError as exc:
            raise ConfigError(str(exc), "--char") from None
    chi = _table_character(cover, text)
    if chi is None:
        raise ConfigError(f"unknown character {text!r}", "--char")
    return chi


def _characters(cover: CoverSpec, char_flag: str | None):
    if char_flag is None:
        return cover.characters()
    return (_parse_character(cover, char_flag),)


def _divisor_record(div) -> dict:
    return {
        "buckets": list(div.buckets),
        "p": div.p,
        "exponents": [
            {"label": label_to_json(div.cover.branch_points[j].label), "exp": div.exponent(j)}
            for j in range(len(div.buckets))
        ],
        "degree": div.degree(),
    }


def _eigen_record(div) -> dict:
    return {
        "character": character_to_json(div.character),
        "branch_exponents": list(div.branch_exponents),
        "infinity_exponent": div.infinity_exponent,
        "degree": div.degree(),
    }


def cmd_validate(parsed: ParsedInput, args) -> dict:
    report = parsed.cover.validate()
    issues = [
        {"kind": issue.kind, "character": character_to_json(issue.character), "detail": issue.detail}
        for issue in report.issues
    ]
    out = {"command": "validate", "valid": report.ok, "issues": issues}
    if parsed.equations is not None:
        # the monomial w^E collapses into the base field exactly when the
        # character with exponents E is degenerate
        for issue in report.issues:
            if issue.kind == "degenerate":
                out["degenerate_monomial"] = list(issue.character.exponents)
                break
    return out


def cmd_genus(parsed: ParsedInput, args) -> dict:
    return {"command": "genus", "genus": parsed.cover.genus()}


def cmd_tchi(parsed: ParsedInput, args) -> dict:
    cover = parsed.cover
    classes = [
        {"psi": class_key_to_json(cls.key), "order": cls.order, "count": cls.count}
        for cls in cover.branch_classes
    ]
    rows = []
    for chi in _characters(cover, args.char):
        row, t = cover.row_and_t(chi)
        rows.append({"character": character_to_json(chi), "t": t, "u": list(row)})
    return {"command": "tchi", "classes": classes, "characters": rows}


def cmd_hchi(parsed: ParsedInput, args) -> dict:
    from .divisors import h_chi_divisor

    cover = parsed.cover
    rows = [_eigen_record(h_chi_divisor(cover, chi)) for chi in _characters(cover, args.char)]
    return {"command": "hchi", "characters": rows}


def cmd_dims(parsed: ParsedInput, args) -> dict:
    from .differentials import delta_info, dim_omega_chi, total_dim_omega

    cover = parsed.cover
    info = delta_info(cover, args.q, args.gamma_degree)
    rows = [
        {
            "character": character_to_json(chi),
            "dim": dim_omega_chi(cover, chi, args.q, args.gamma_degree),
        }
        for chi in _characters(cover, args.char)
    ]
    out = {
        "command": "dims",
        "q": args.q,
        "gamma_degree": args.gamma_degree,
        "delta": info.delta,
        "characters": rows,
    }
    if info.delta:
        out["delta_character"] = character_to_json(info.character)
    if cover.is_abelian and args.char is None:
        out["total"] = total_dim_omega(cover, args.q, args.gamma_degree)
    return out


def cmd_enumerate(parsed: ParsedInput, args) -> dict:
    from . import enumeration

    cover = parsed.cover
    family, listing, _ = FAMILIES[args.command]
    count = enumeration.count_by_cardinality(cover, family)
    out = {"command": args.command, "count": count}
    if not args.count_only:
        if count > args.cap:
            raise enumeration.SearchSpaceTooLarge(count, args.cap)
        out["divisors"] = [_divisor_record(d) for d in getattr(enumeration, listing)(cover)]
    return out


def cmd_omega(parsed: ParsedInput, args) -> dict:
    from .differentials import omega_divisor

    cover = parsed.cover
    rows = []
    for chi in _characters(cover, args.char):
        div = omega_divisor(cover, chi, args.q)
        rows.append({**_eigen_record(div), "presentation": div.presentation()})
    return {"command": "omega", "q": args.q, "characters": rows}


def cmd_traces(parsed: ParsedInput, args) -> dict:
    cover = parsed.cover
    if not cover.is_abelian:
        raise NotAbelian("traces need an abelian deck group on the command line")
    from .differentials import eichler_trace

    group = cover.group
    if args.tau is not None:
        try:
            taus = [group.element([int(a) for a in args.tau.split(",")])]
        except ValueError as exc:
            raise ConfigError(str(exc), "--tau") from None
    else:
        taus = islice(group.elements(), 1, None)  # every element but the identity, which comes first
    rows = []
    for tau in taus:
        trace = eichler_trace(cover, tau, args.q, args.gamma_degree)
        rows.append(
            {
                "tau": list(tau.exponents),
                "value": [trace.value.real, trace.value.imag],
                "delta": trace.delta,
                "terms": [
                    {"order": t.order, "exponent": t.exponent, "multiplicity": t.multiplicity}
                    for t in trace.terms
                ],
            }
        )
    return {"command": "traces", "q": args.q, "gamma_degree": args.gamma_degree, "traces": rows}


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _load_irreps(cover: CoverSpec, path: str) -> list[tuple[str, IrrepClassData]]:
    from .differentials import IrrepClassData

    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read irrep table: {exc}", path)
    if not isinstance(document, dict) or not isinstance(document.get("irreps"), list):
        raise ConfigError("irrep table must be {'irreps': [...]}", path)
    if cover.is_abelian:
        keys = [c.key for c in cover.branch_classes]
    else:  # every class of the table, branch class or not
        keys = [c.class_id for c in cover.group.classes]
    by_key = {json.dumps(class_key_to_json(key)): key for key in keys}
    out = []
    for k, rec in enumerate(document["irreps"]):
        where = f"{path}:irreps[{k}]"
        if not isinstance(rec, dict):
            raise ConfigError("irrep records are objects", where)
        name = rec.get("name", f"rho{k}")
        dim = rec.get("dim")
        rows = rec.get("classes")
        if not isinstance(rows, dict) or not _is_count(dim) or dim < 1:
            raise ConfigError("irrep records need a positive integer 'dim' and 'classes'", where)
        table = {}
        for raw_key, row in sorted(rows.items()):
            try:
                key = by_key[json.dumps(json.loads(raw_key) if raw_key.startswith("[") else raw_key)]
            except (json.JSONDecodeError, KeyError):
                raise ConfigError(f"unknown class {raw_key!r}", where)
            if key in table:
                raise ConfigError(f"class {raw_key!r} is named twice", where)
            if not isinstance(row, list) or not all(_is_count(v) for v in row):
                raise ConfigError(
                    f"multiplicity row for {raw_key!r} must be a list of nonnegative integers", where
                )
            table[key] = tuple(row)
        # a one-dimensional record names its character: on an abelian cover by
        # its 'character' exponents, as --char takes them; on a table by its name
        character = None
        if cover.is_abelian and "character" in rec:
            exponents = rec["character"]
            if dim != 1 or not isinstance(exponents, list) or not all(type(e) is int for e in exponents):
                raise ConfigError("'character' is the exponent list of a record of dimension 1", where)
            try:
                character = cover.group.character(exponents)
            except ValueError as exc:
                raise ConfigError(str(exc), where) from None
        elif not cover.is_abelian and dim == 1:
            character = _table_character(cover, str(name))
        if character is not None:
            u_of = dict(zip(keys, cover.u_row(character)) if cover.is_abelian else character.u_values)
            for key, row in table.items():
                u = u_of.get(key, 0 if character.is_trivial else None)
                if list(row) != [int(alpha == u) for alpha in range(cover.class_order(key))]:
                    text = f"row for class {class_key_to_json(key)!r} is not that of character {character}"
                    raise ConfigError(text, where)
        out.append((str(name), IrrepClassData(dim, tuple(table.items()), character)))
    return out


def cmd_chevalley_weil(parsed: ParsedInput, args) -> dict:
    from .differentials import cw_multiplicity, total_dim_omega

    cover = parsed.cover
    if args.irrep_file:
        irreps = [(name, rho.dim, rho) for name, rho in _load_irreps(cover, args.irrep_file)]
    else:
        irreps = [(character_to_json(chi), 1, chi) for chi in _characters(cover, args.char)]
    rows = [
        {
            "irrep": name,
            "dim": dim,
            "multiplicity": cw_multiplicity(cover, rho, args.q, args.gamma_degree),
        }
        for name, dim, rho in irreps
    ]
    out = {
        "command": "chevalley-weil",
        "q": args.q,
        "gamma_degree": args.gamma_degree,
        "multiplicities": rows,
    }
    if cover.is_abelian and args.char is None and not args.irrep_file:
        out["total"] = total_dim_omega(cover, args.q, args.gamma_degree)
    return out


def cmd_jacobian(parsed: ParsedInput, args) -> dict:
    from .jacobian import decompose

    cover = parsed.cover
    report = decompose(cover)
    return {
        "command": "jacobian",
        "genus": report.genus,
        "analytic": [
            {"character": character_to_json(chi), "multiplicity": m} for chi, m in report.analytic
        ],
        "rational": [
            {"character": character_to_json(chi), "multiplicity": m} for chi, m in report.rational
        ],
        "orbits": [
            {
                "representative": character_to_json(s.orbit.representative),
                "size": len(s.orbit.characters),
                "order": s.orbit.order,
                "field_degree": s.orbit.field_degree,
                "dim_A": s.dim_A,
                "dim_B": s.dim_B,
            }
            for s in report.orbits
        ],
        "quotients": [
            {
                "representative": character_to_json(p.orbit.representative),
                "order": p.quotient_order,
                "quotient_genus": p.quotient_genus,
                "dim": p.dim,
                "dim_from_quotient": p.dim_from_quotient,
                "nontrivial": p.nontrivial,
            }
            for p in report.quotients
        ],
    }


def cmd_all(parsed: ParsedInput, args) -> dict:
    cover = parsed.cover
    out: dict[str, Any] = {"command": "all", "validate": cmd_validate(parsed, args)}
    if not out["validate"]["valid"]:
        return out
    out["genus"] = cover.genus()
    out["tchi"] = cmd_tchi(parsed, args)["characters"]
    out["dims"] = cmd_dims(parsed, args)
    if cover.is_abelian and cover.base_genus == 0:
        from . import enumeration

        out["counts"] = {
            "nonspecial": enumeration.count_by_cardinality(cover, "integral"),
            "degree_gm1": enumeration.count_by_cardinality(cover, "gm1"),
        }
    if cover.is_abelian:
        out["jacobian"] = cmd_jacobian(parsed, args)
    return out


HANDLERS = {
    "validate": cmd_validate,
    "genus": cmd_genus,
    "tchi": cmd_tchi,
    "hchi": cmd_hchi,
    "dims": cmd_dims,
    "nonspecial": cmd_enumerate,
    "degree-gm1": cmd_enumerate,
    "omega": cmd_omega,
    "traces": cmd_traces,
    "chevalley-weil": cmd_chevalley_weil,
    "jacobian": cmd_jacobian,
    "all": cmd_all,
}

COMMANDS = tuple(HANDLERS)


# -- formatting ----------------------------------------------------------------


def _format_table(value, indent=0) -> list[str]:
    pad = "  " * indent
    lines = []
    if isinstance(value, dict):
        for key in value:
            item = value[key]
            if isinstance(item, (dict, list)):
                lines.append(f"{pad}{key}:")
                lines.extend(_format_table(item, indent + 1))
            else:
                lines.append(f"{pad}{key}: {item}")
    elif isinstance(value, list):
        for item in value:
            if isinstance(item, (dict, list)):
                lines.append(f"{pad}-")
                lines.extend(_format_table(item, indent + 1))
            else:
                lines.append(f"{pad}- {item}")
    return lines


def format_report(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, sort_keys=True, indent=2)
    return "\n".join(_format_table(report))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="galcov",
        description="Exact invariants of Galois covers of Riemann surfaces.",
    )
    # every command takes the same flags, so one parser serves them all
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("config", help="path to a JSON configuration document, or - for stdin")
    parser.add_argument("--format", choices=("table", "json"), default="table")
    parser.add_argument("--stream", action="store_true", help="emit NDJSON for enumerations")
    parser.add_argument("--cap", type=int, default=100_000, help="bound on returned list sizes")
    parser.add_argument("--q", type=int, default=1)
    parser.add_argument("--gamma-degree", type=int, default=0, dest="gamma_degree")
    parser.add_argument("--char", default=None, help="character: k1,k2,... or a name")
    parser.add_argument("--tau", default=None, help="group element: a1,a2,...")
    parser.add_argument("--irrep-file", default=None, dest="irrep_file")
    parser.add_argument("--count-only", action="store_true", dest="count_only")
    return parser


def _stream_enumeration(parsed: ParsedInput, args, out) -> int:
    from . import enumeration

    _, _, stream = FAMILIES[args.command]
    for div in getattr(enumeration, stream)(parsed.cover):
        print(json.dumps(_divisor_record(div), sort_keys=True), file=out)
    return 0


def _exit_code(report: dict) -> int:
    """0, or validate's code when the report's validity section is false
    (``validate`` itself, or the ``validate`` section of ``all``): 3 when the
    first issue is a non-integral t-invariant, 4 when it is degenerate."""
    section = report.get("validate", report)
    if section.get("valid", True):
        return 0
    kind = section["issues"][0]["kind"]
    return EXIT_CODES["non-integral-invariant" if kind == "non-integral" else "degenerate-cover"]


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.config == "-":
            text = sys.stdin.read()
        else:
            try:
                with open(args.config, "r", encoding="utf-8") as handle:
                    text = handle.read()
            except OSError as exc:
                raise ConfigError(str(exc), args.config)
        parsed = parse_config(text)
        # validate and all report invalid data; every other command refuses it
        if args.command not in ("validate", "all"):
            parsed.cover.validate().raise_for_status()
        if args.stream and args.command in FAMILIES:
            return _stream_enumeration(parsed, args, sys.stdout)
        report = HANDLERS[args.command](parsed, args)
    except GalcovError as exc:
        error = {"error": {"code": exc.code, "message": str(exc)}}
        print(format_report(error, args.format), file=sys.stderr)
        return EXIT_CODES.get(exc.code, 1)
    print(format_report(report, args.format))
    return _exit_code(report)


if __name__ == "__main__":
    sys.exit(main())
