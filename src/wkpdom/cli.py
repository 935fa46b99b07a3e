"""Command-line front end.

Verbs: ``gen`` (export a graph), ``construct`` (closed-form set with
certificate), ``verify`` (check a user seed set), ``exact`` (exhaustive
minimum search), ``radius`` (graph propagation radius), ``trace``
(round-by-round propagation), ``check-paper`` (full reproduction report).

Exit codes: 0 ok, 1 reproduction-report failure or a constructed set that
fails verification, 2 parameter or parse error (an unwritable ``gen
--output`` path included), 3 budget exceeded, 4 regime violation, 141 when
the reader of standard output closes it before everything is written (as
``| head`` does; the shell's status for a process stopped by SIGPIPE).
Nothing is printed then.

``construct`` and ``trace`` write their JSON as it is encoded, a round at
a time (``propagation.json_text``), so no whole document is held in
memory and an early-closing reader cuts the output mid-document.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Sequence

from .constructions import ConstructionError, RegimeError, construct_kpds, gamma_formula
from .exact import (
    DEFAULT_MAX_CHECKS,
    BudgetExceededError,
    SearchBudget,
    exact_result_to_json,
    min_kpds,
    propagation_radius,
)
from .propagation import json_text, propagate_fixpoint, radius_to_json, trace_fields
from .report import report_to_json_text, run_check_paper
from .topology import (
    DEFAULT_MAX_VERTICES,
    Address,
    ParameterDomainError,
    PyramidGraph,
    address_list,
    build_wk,
    build_wkp,
    check_printable,
    export_pieces,
    parse_address,
)

EXIT_OK = 0
EXIT_REPORT_FAIL = 1
EXIT_PARSE = 2
EXIT_BUDGET = 3
EXIT_REGIME = 4
EXIT_PIPE = 141

#: Exit code of each error class the verbs raise (with its subclasses); no
#: exception is an instance of two of them, so the order does not matter.
EXIT_CODES = {
    RegimeError: EXIT_REGIME,
    BudgetExceededError: EXIT_BUDGET,
    ParameterDomainError: EXIT_PARSE,
    ConstructionError: EXIT_REPORT_FAIL,
}


def _env_int(name: str, fallback: int) -> int:
    """Integer value of environment variable ``name``, or ``fallback`` when unset."""
    raw = os.environ.get(name)
    if raw is None:
        return fallback
    try:
        return int(raw)
    except ValueError:
        raise ParameterDomainError(f"{name} must be an integer, got {raw!r}") from None


def parse_seed_set(text: str, C: int) -> list[Address]:
    """Parse a semicolon-separated list of address literals."""
    parts = [p for p in (chunk.strip() for chunk in text.split(";")) if p]
    if not parts:
        raise ParameterDomainError("empty seed set literal")
    return [parse_address(p, C) for p in parts]


def _budget(args: argparse.Namespace) -> SearchBudget:
    cap = args.budget
    if cap is None:
        cap = _env_int("WKPDOM_MAX_CHECKS", DEFAULT_MAX_CHECKS)
    return SearchBudget(max_subset_count=cap)


def _max_vertices(args: argparse.Namespace) -> int:
    if args.max_vertices is not None:
        return args.max_vertices
    return _env_int("WKPDOM_MAX_VERTICES", DEFAULT_MAX_VERTICES)


def _pyramid(args: argparse.Namespace) -> PyramidGraph:
    return build_wkp(args.C, args.L, max_vertices=_max_vertices(args))


def _emit(payload: dict, args: argparse.Namespace) -> None:
    """Write ``payload`` as one JSON line, or with ``--format text`` one ``key: value`` line per key.

    Every value goes through ``json_text``, so a trace is written a round
    at a time as it is encoded.
    """
    write = sys.stdout.write
    if args.format == "text":
        for key, value in payload.items():
            write(f"{key}: ")
            for piece in json_text(value):
                write(piece)
            write("\n")
    else:
        for piece in json_text(payload):
            write(piece)
        write("\n")


def _progress_printer(enabled: bool):
    if not enabled:
        return None

    def report(size: int, done: int, total: int) -> None:
        print(f"size {size}: {done}/{total} subsets checked", file=sys.stderr)

    return report


def cmd_gen(args: argparse.Namespace) -> int:
    check_printable(args.C)  # before the build whose addresses could not be printed
    builder = build_wk if args.family == "wk" else build_wkp
    g = builder(args.C, args.L, max_vertices=_max_vertices(args))
    pieces = export_pieces(g, args.format)
    if args.output:
        try:
            fh = open(args.output, "w")
        except OSError as exc:
            raise ParameterDomainError(f"cannot write {args.output}: {exc.strerror}") from None
        with fh:
            fh.writelines(pieces)
    else:
        sys.stdout.writelines(pieces)
    return EXIT_OK


def cmd_construct(args: argparse.Namespace) -> int:
    check_printable(args.C)  # before the work whose answer could not be printed
    # The graph is freed before the rounds, the bulk of the output, are
    # encoded and written one at a time.
    _emit(_construct_payload(args), args)
    return EXIT_OK


def _construct_payload(args: argparse.Namespace) -> dict:
    g = _pyramid(args)
    members, provenance = construct_kpds(args.C, args.L, args.k)
    trace = propagate_fixpoint(g, args.k, [g.ordinal(a) for a in members])
    if not trace.covered:
        raise ConstructionError(
            f"construction for (C={args.C}, L={args.L}, k={args.k}) failed verification")
    fields = trace_fields(g, trace)
    return {"C": args.C, "L": args.L, "k": args.k,
            "gamma_formula": gamma_formula(args.C, args.L, args.k).to_json(),
            "set": fields["seed"], "size": len(trace.seed), "is_kpds": True,
            "radius": fields["radius"], "provenance": provenance, "trace": fields}


def cmd_verify(args: argparse.Namespace) -> int:
    check_printable(args.C)  # before the build whose addresses could not be parsed
    g = _pyramid(args)
    seed = [g.ordinal(a) for a in parse_seed_set(args.set, args.C)]
    trace = propagate_fixpoint(g, args.k, seed)
    payload = {"C": args.C, "L": args.L, "k": args.k,
               "set": address_list(g, trace.seed),
               "is_kpds": trace.covered,
               "radius": radius_to_json(trace)}
    _emit(payload, args)
    return EXIT_OK


def cmd_exact(args: argparse.Namespace) -> int:
    check_printable(args.C)  # before the search whose witness could not be printed
    g = _pyramid(args)
    result = min_kpds(g, args.k, _budget(args), progress=_progress_printer(args.progress))
    _emit(exact_result_to_json(g, args.k, result), args)
    return EXIT_OK


def cmd_radius(args: argparse.Namespace) -> int:
    g = _pyramid(args)
    value = propagation_radius(g, args.k, _budget(args),
                               progress=_progress_printer(args.progress))
    _emit({"C": args.C, "L": args.L, "k": args.k, "radius": value}, args)
    return EXIT_OK


def cmd_trace(args: argparse.Namespace) -> int:
    check_printable(args.C)  # before the build whose addresses could not be parsed
    g = _pyramid(args)
    seed = [g.ordinal(a) for a in parse_seed_set(args.set, args.C)]
    trace = propagate_fixpoint(g, args.k, seed)
    _emit(trace_fields(g, trace), args)
    return EXIT_OK


def cmd_check_paper(args: argparse.Namespace) -> int:
    report = run_check_paper(_budget(args))
    if args.format == "json":
        sys.stdout.write(report_to_json_text(report))
    else:
        print(report.format_text())
    return EXIT_REPORT_FAIL if report.failures else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wkpdom",
        description="k-power domination on WK-recursive mesh and WK-pyramid networks",
        epilog="Env overrides: WKPDOM_MAX_CHECKS (search budget), "
               "WKPDOM_MAX_VERTICES (construction cap).",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def graph_args(p: argparse.ArgumentParser, with_k: bool = True) -> None:
        p.add_argument("--C", type=int, required=True, help="digits per level, C >= 1")
        p.add_argument("--L", type=int, required=True, help="number of levels, L >= 1")
        if with_k:
            p.add_argument("--k", type=int, required=True, help="propagation allowance")
        p.add_argument("--max-vertices", type=int, default=None,
                       help="override the construction size cap")

    def budget_arg(p: argparse.ArgumentParser) -> None:
        p.add_argument("--budget", type=int, default=None,
                       help=f"max propagation checks (default {DEFAULT_MAX_CHECKS} "
                            "or WKPDOM_MAX_CHECKS)")

    def solver_args(p: argparse.ArgumentParser) -> None:
        budget_arg(p)
        p.add_argument("--progress", action="store_true",
                       help="print enumeration progress to stderr")

    p = sub.add_parser("gen", help="generate a graph and export it")
    graph_args(p, with_k=False)
    p.add_argument("--family", choices=("wkp", "wk"), default="wkp")
    p.add_argument("--format", choices=("json", "dot"), default="json")
    p.add_argument("--output", "-o", default=None, help="output file (default stdout)")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("construct", help="build the closed-form k-PDS with a certificate")
    graph_args(p)
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="check whether a seed set is a k-PDS")
    graph_args(p)
    p.add_argument("--set", required=True,
                   help='seed addresses, e.g. "(0,(1));(1,(0))"')
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("exact", help="exhaustive minimum k-PDS search")
    graph_args(p)
    solver_args(p)
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser("radius", help="propagation radius over all minimum k-PDS")
    graph_args(p)
    solver_args(p)
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(func=cmd_radius)

    p = sub.add_parser("trace", help="round-by-round monitoring trace for a seed set")
    graph_args(p)
    p.add_argument("--set", required=True,
                   help='seed addresses, e.g. "(1,(2));(2,(01))"')
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("check-paper", help="run the full reproduction report")
    budget_arg(p)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_check_paper)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()  # a closed reader shows here, not at interpreter exit
        return status
    except tuple(EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in EXIT_CODES.items() if isinstance(exc, cls))
    except BrokenPipeError:
        # What stdout still buffers can never be delivered; pointing stdout
        # at devnull keeps the interpreter's last flush from raising again.
        sys.stdout = open(os.devnull, "w")
        return EXIT_PIPE


if __name__ == "__main__":
    raise SystemExit(main())
