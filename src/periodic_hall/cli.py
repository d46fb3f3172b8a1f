"""Command-line front end.

Subcommands:
    multiply {periodic, extended} LHS RHS   exact product of element literals
    verify   {assoc, embedding, partition, identities}   property sweeps
    list     {iso-classes, hall-number, derived-hall-number}   tables

Shared flags may appear after the subcommand: --quiver, --q, --m, --seed,
--format text|json, --cap-dim, --cap-cell, --count-mode, --config FILE.
The config file holds `key = value` lines mirroring the flags; explicit
flags win.  Each shared option is declared once, in `_OPTIONS`, with its
default, help text and allowed values or least value; the flags, the
config reader, the range checks and the merge in `Settings` all read that
table.  Every int flag and int config value is read by the literal grammar,
and its parse error starts with the flag (`--q: ...`) or the config line.

Exit codes: 0 success, 1 verification failure, 2 parse/usage error,
3 even period where odd is required, 4 resource cap exceeded,
5 internal invariant violated.  `_EXIT_CODES` maps each error class to
its code.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from typing import NamedTuple

from .derived import DerivedContext
from .embed import Embedding
from .errors import (
    EvenPeriodError,
    HallError,
    InvariantError,
    ParseError,
    ResourceLimitError,
    UsageError,
)
from .extended import ExtendedAlgebra
from .periodic import PeriodicAlgebra
from .repcat import Quiver, RepContext
from . import literal, suites


class _Option(NamedTuple):
    """A shared flag, which is also a config key."""

    default: object
    help: str
    limit: object = None  # a tuple of allowed values, or the least int value


_OPTIONS = {
    "quiver": _Option("A2", "preset A1/A2/A3/... or 'n; s->t, ...'"),
    "q": _Option(2, "prime field size"),
    "m": _Option(3, "period"),
    "format": _Option("text", "output format", ("text", "json")),
    "seed": _Option(0, "seed for randomized sweeps"),
    "cap-dim": _Option(
        14,
        "chain-map space dimension cap per coned pair; basis products cone stalk pairs only",
        0,
    ),
    "cap-cell": _Option(2_000_000, "per-cell representation cap", 1),
    "count-mode": _Option("quotient", "fiber counting strategy", ("quotient", "total")),
}

# most specific class first: (class, exit code, message prefix)
_EXIT_CODES = (
    (EvenPeriodError, 3, ""),
    (ResourceLimitError, 4, ""),
    (InvariantError, 5, "internal invariant violated: "),
    (HallError, 2, ""),  # parse and usage errors
)


def _named(where: str, text: str, rule: str):
    """text read by a rule of the literal grammar; a parse error starts with
    where the text came from, a flag or a config line."""
    try:
        return literal.parse(text, rule)
    except ParseError as exc:
        raise ParseError(f"{where}: {exc}") from exc


def _value(key: str, text: str, where: str):
    """A flag or config value from its text; ints by the literal grammar."""
    if isinstance(_OPTIONS[key].default, int):
        return _named(where, text, "integer")
    return text


def _bad_value(key: str, value):
    """Why a flag or config value is out of range, or None if it is not."""
    limit = _OPTIONS[key].limit
    if isinstance(limit, tuple) and value not in limit:
        return f"{key} must be one of {', '.join(limit)}, got {value!r}"
    if isinstance(limit, int) and value < limit:
        return f"{key} must be at least {limit}, got {value}"
    return None


def _read_config(path: str) -> dict:
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ParseError(f"{path}:{lineno}: expected key=value")
                key, _, value = line.partition("=")
                key = key.strip()
                if key not in _OPTIONS:
                    raise ParseError(f"{path}:{lineno}: unknown key {key!r}")
                values[key] = _value(key, value.strip(), f"{path}:{lineno}: {key}")
                problem = _bad_value(key, values[key])
                if problem:
                    raise ParseError(f"{path}:{lineno}: {problem}")
    except OSError as exc:
        raise ParseError(f"cannot read config {path}: {exc}") from exc
    return values


def _common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key=value file with the flags below")
    for key, opt in _OPTIONS.items():
        limit = opt.limit if isinstance(opt.limit, tuple) else None
        parser.add_argument(f"--{key}", choices=limit, help=opt.help)


class Settings:
    """Merged configuration: defaults, then config file, then flags."""

    def __init__(self, args: argparse.Namespace):
        merged = {key: opt.default for key, opt in _OPTIONS.items()}
        if args.config:
            merged.update(_read_config(args.config))
        for key in _OPTIONS:
            flag = getattr(args, key.replace("-", "_"), None)
            if flag is not None:
                flag = _value(key, flag, f"--{key}")
                problem = _bad_value(key, flag)
                if problem:
                    raise UsageError(f"--{problem}")
                merged[key] = flag
        for key, value in merged.items():
            setattr(self, key.replace("-", "_"), value)

    def rep_context(self) -> RepContext:
        return RepContext(
            Quiver.parse(self.quiver), self.q, max_cell_reps=self.cap_cell
        )

    def derived_context(self) -> DerivedContext:
        return DerivedContext(
            self.rep_context(), cap_dim=self.cap_dim, count_mode=self.count_mode
        )


def _emit(settings: Settings, payload: dict, text: str) -> None:
    if settings.format == "json":
        payload = {"schema": "1", **payload}
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text)


def _parse_bound(text: str, n: int, flag: str):
    values = _named(flag, text, "vector")
    if len(values) == 1:
        values = values * n
    if len(values) != n:
        raise ParseError(f"{flag}: bound needs 1 or {n} entries, got {len(values)}")
    return values


# -- subcommands -----------------------------------------------------------------


def _cmd_multiply(args) -> int:
    settings = Settings(args)
    dctx = settings.derived_context()
    if args.algebra == "periodic":
        algebra = PeriodicAlgebra(dctx, settings.m)
    else:
        algebra = ExtendedAlgebra(dctx, settings.m)
    lhs = algebra.parse_element(args.lhs)
    rhs = algebra.parse_element(args.rhs)
    result = algebra.multiply(lhs, rhs)
    _emit(
        settings,
        {
            "command": "multiply",
            "algebra": args.algebra,
            "lhs": args.lhs,
            "rhs": args.rhs,
            "result": result.to_json(),
            "result_text": str(result),
        },
        str(result),
    )
    return 0


def _verify_report(settings: Settings, args, report: dict) -> int:
    lines = [
        f"suite: {report['suite']}",
        f"checked: {report['checked']}",
        f"passed: {report['passed']}",
    ]
    for failure in report["failures"]:
        lines.append(f"failure: {json.dumps(failure, sort_keys=True)}")
    _emit(settings, {"command": "verify", **report}, "\n".join(lines))
    return 0 if report["passed"] else 1


def _cmd_verify(args) -> int:
    settings = Settings(args)
    for flag in ("samples", "max_degrees", "total_dim"):
        name = "--" + flag.replace("_", "-")
        setattr(args, flag, _named(name, getattr(args, flag), "integer"))
        if getattr(args, flag) < 0:
            raise UsageError(f"{name} must be at least 0")
    rng = random.Random(settings.seed)
    dctx = settings.derived_context()
    n = dctx.rep.quiver.n
    bound = (1,) * n
    if args.dim_bound:
        bound = _parse_bound(args.dim_bound, n, "--dim-bound")

    if args.suite == "assoc":
        algebras = [("extended", ExtendedAlgebra(dctx, settings.m))]
        if settings.m % 2 == 1:
            algebras.insert(0, ("periodic", PeriodicAlgebra(dctx, settings.m)))
        reports = []
        for name, algebra in algebras:
            report = suites.associativity_sweep(
                algebra, args.samples, rng, bound, args.max_degrees
            )
            report["algebra"] = name
            reports.append(report)
        merged = {
            "suite": "assoc",
            "checked": sum(r["checked"] for r in reports),
            "failures": [f for r in reports for f in r["failures"]],
            "passed": all(r["passed"] for r in reports),
            "parts": reports,
        }
        return _verify_report(settings, args, merged)

    if args.suite == "embedding":
        periodic = PeriodicAlgebra(dctx, settings.m)
        extended = ExtendedAlgebra(dctx, settings.m)
        embedding = Embedding(periodic, extended)
        report = suites.embedding_sweep(embedding, bound, args.max_degrees)
        return _verify_report(settings, args, report)

    if args.suite == "partition":
        report = suites.partition_sweep(dctx, args.total_dim, mode=dctx.count_mode)
        return _verify_report(settings, args, report)

    if args.suite == "identities":
        report = suites.identities_sweep(settings.m, args.samples, rng, n)
        return _verify_report(settings, args, report)

    raise UsageError(f"unknown suite {args.suite!r}")


def _require_flags(args, *names) -> None:
    missing = [f"--{name}" for name in names if getattr(args, name) is None]
    if missing:
        raise UsageError(f"list {args.what} needs {', '.join(missing)}")


def _cmd_list(args) -> int:
    settings = Settings(args)
    dctx = settings.derived_context()
    rep = dctx.rep

    if args.what == "iso-classes":
        bound = _parse_bound(args.bound or "1", rep.quiver.n, "--bound")
        classes = rep.iso_classes_upto(bound)
        rows = [
            {"name": c.name, "dims": list(c.dims), "aut": rep.aut_count(c)}
            for c in classes
        ]
        text = "\n".join(
            f"{r['name']:>12}  dims={tuple(r['dims'])}  |Aut|={r['aut']}" for r in rows
        )
        _emit(
            settings,
            {"command": "list", "what": "iso-classes", "classes": rows},
            text,
        )
        return 0

    if args.what == "hall-number":
        _require_flags(args, "L", "M", "N")
        L = rep.class_by_name(args.L)
        M = rep.class_by_name(args.M)
        N = rep.class_by_name(args.N)
        value = rep.submodule_hall_number(L, M, N)
        _emit(
            settings,
            {
                "command": "list",
                "what": "hall-number",
                "L": args.L,
                "M": args.M,
                "N": args.N,
                "value": value,
            },
            str(value),
        )
        return 0

    if args.what == "derived-hall-number":
        _require_flags(args, "X", "Y", "L")
        X = dctx.parse_graded(args.X)
        Y = dctx.parse_graded(args.Y)
        L = dctx.parse_graded(args.L)
        value = dctx.derived_hall_number(X, Y, L)
        _emit(
            settings,
            {
                "command": "list",
                "what": "derived-hall-number",
                "X": args.X,
                "Y": args.Y,
                "L": args.L,
                "value": value.to_strings(),
                "value_text": str(value),
            },
            str(value),
        )
        return 0

    raise UsageError(f"unknown listing {args.what!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="periodic-hall",
        description="Exact products and verification for periodic derived Hall algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_mult = sub.add_parser("multiply", help="multiply two element literals")
    _common_flags(p_mult)
    p_mult.add_argument("algebra", choices=("periodic", "extended"))
    p_mult.add_argument("lhs")
    p_mult.add_argument("rhs")
    p_mult.set_defaults(func=_cmd_multiply)

    p_ver = sub.add_parser("verify", help="run a property sweep")
    _common_flags(p_ver)
    p_ver.add_argument(
        "suite", choices=("assoc", "embedding", "partition", "identities")
    )
    p_ver.add_argument("--samples", default="50")
    p_ver.add_argument("--dim-bound", help="per-vertex class bound, e.g. '1,1'")
    p_ver.add_argument("--max-degrees", default="2")
    p_ver.add_argument("--total-dim", default="3", help="partition sweep size bound")
    p_ver.set_defaults(func=_cmd_verify)

    p_list = sub.add_parser("list", help="print classes or Hall numbers")
    _common_flags(p_list)
    p_list.add_argument(
        "what", choices=("iso-classes", "hall-number", "derived-hall-number")
    )
    p_list.add_argument("--bound")
    p_list.add_argument("--L")
    p_list.add_argument("--M")
    p_list.add_argument("--N")
    p_list.add_argument("--X")
    p_list.add_argument("--Y")
    p_list.set_defaults(func=_cmd_list)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except HallError as exc:
        for cls, code, prefix in _EXIT_CODES:
            if isinstance(exc, cls):
                print(f"error: {prefix}{exc}", file=sys.stderr)
                return code


if __name__ == "__main__":
    sys.exit(main())
