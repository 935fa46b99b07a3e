"""Command-line front end.

Verbs: ``gen`` (export a graph), ``construct`` (closed-form set with
certificate), ``verify`` (check a user seed set), ``exact`` (exhaustive
minimum search), ``radius`` (graph propagation radius), ``trace``
(round-by-round propagation), ``check-paper`` (full reproduction report).

Exit codes: 0 ok, 1 reproduction-report failure or a constructed set that
fails verification, 2 parameter or parse error (a failed write to ``gen
--output`` or to standard output included), 3 budget exceeded, 4 regime
violation, 141 when the reader of standard output closes it before
everything is written (as ``| head`` does; the shell's status for a
process stopped by SIGPIPE).  Nothing is printed then.

``main`` runs the verb with the cyclic garbage collector paused and then
puts back the state it found, on every exit.  A build's row tuples and
the verb's other data hold no cycles and are freed by reference counting
when the call returns, so the collector's passes, one per 700 container
allocations (36 of them in ``construct --C 4 --L 7 --k 1``), only
rescanned them: a ``construct`` certificate runs about 7% faster.

Each verb shapes the document it prints here, and a trace has one JSON
encoder, ``trace_fields`` written out by ``json_text``.  It slices the
line of every quoted literal that ``topology.quoted_line`` builds, with
the offset where each starts, and makes no string per vertex.  The seed
is sliced from the line a literal at a time, and each round one slice
per run of consecutive monitored ordinals, made only when the text
before it has been taken: a round costs its number of runs plus one copy
of its text.  ``construct`` and ``trace`` write their JSON as it is
encoded, a round at a time, so no round is held as a list, no whole
document is held in memory, and an early-closing reader cuts the output
mid-document.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from collections import Counter
from collections.abc import Iterator
from typing import Sequence

from .constructions import ConstructionError, RegimeError, construct_kpds, gamma_formula
from .exact import (
    DEFAULT_MAX_CHECKS,
    BudgetExceededError,
    SearchBudget,
    min_kpds,
    propagation_radius,
)
from .propagation import NEVER, MonitorTrace, propagate_fixpoint
from .report import run_check_paper
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
    quoted_line,
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


def _setting(given: int | None, flag: str, name: str, fallback: int) -> int:
    """``given`` (flag ``flag``), else env variable ``name`` as an integer, else ``fallback``.

    A value below 1 is refused, and the message names the flag and the variable.
    """
    if given is None:
        raw = os.environ.get(name)
        if raw is None:
            return fallback
        try:
            given = int(raw)
        except ValueError:
            raise ParameterDomainError(f"{name} must be an integer, got {raw!r}") from None
    if given < 1:
        raise ParameterDomainError(f"{flag} or {name} must be at least 1, got {given}")
    return given


def parse_seed_set(text: str, C: int) -> list[Address]:
    """Parse a semicolon-separated list of address literals."""
    parts = [p for p in (chunk.strip() for chunk in text.split(";")) if p]
    if not parts:
        raise ParameterDomainError("empty seed set literal")
    return [parse_address(p, C) for p in parts]


def _budget(args: argparse.Namespace) -> SearchBudget:
    return SearchBudget(_setting(args.budget, "--budget", "WKPDOM_MAX_CHECKS", DEFAULT_MAX_CHECKS))


def _max_vertices(args: argparse.Namespace) -> int:
    return _setting(args.max_vertices, "--max-vertices", "WKPDOM_MAX_VERTICES",
                    DEFAULT_MAX_VERTICES)


def _pyramid(args: argparse.Namespace) -> PyramidGraph:
    return build_wkp(args.C, args.L, max_vertices=_max_vertices(args))


def _round_texts(line: str, at: list[int], trace: MonitorTrace) -> Iterator[str]:
    """JSON text of the list of rounds, made one round at a time as it is read.

    Each round is the list of the addresses it monitors, in ordinal order.
    ``line`` and ``at`` come from ``quoted_line``; a round is a few long
    runs of consecutive ordinals, and each run is one slice of the line.
    A byte per vertex marks the monitored ones (each vertex is marked once,
    in the round it is first monitored), and the runs are found with
    ``bytearray.find``; the last byte is never set, so it closes every run.
    A round therefore costs its number of runs in Python plus one copy of
    its text.
    """
    fresh = [[] for _ in range(trace.round_count)]
    for v, s in enumerate(trace.first_step):
        if s is not NEVER:
            fresh[s].append(v)
    monitored = bytearray(len(at))
    yield "["
    for i, new in enumerate(fresh):
        for v in new:
            monitored[v] = 1
        runs, b = [], 0
        while (a := monitored.find(1, b)) >= 0:
            b = monitored.find(0, a)
            runs.append(line[at[a]:at[b] - 2])
        yield ", [" if i else "["
        yield ", ".join(runs)
        yield "]"
    yield "]"


def trace_fields(g: PyramidGraph, trace: MonitorTrace) -> dict:
    """Trace as {k, seed, rounds, radius} for ``json_text``; radius is null for a stuck run.

    ``rounds`` is a one-shot iterator of JSON text, a few pieces per round
    (see ``_round_texts``), so the rounds are never held as lists.  The
    seed and every round are sliced from one quoted line of all the
    literals (``quoted_line``): literals hold only digits, commas and
    parentheses, so quoting is their JSON encoding.
    """
    line, at = quoted_line(g)
    return {
        "k": trace.k,
        "seed": [line[at[v] + 1:at[v + 1] - 3] for v in sorted(trace.seed)],
        "rounds": _round_texts(line, at, trace),
        "radius": trace.round_count if trace.covered else None,
    }


def json_text(value) -> Iterator[str]:
    """The text of ``json.dumps(value)`` in pieces.

    A dict (with str keys) is written key by key, and an iterator is taken
    to yield pieces of JSON text, which pass through as they come; so a
    document holding ``trace_fields`` is written a round at a time and
    never joined into one string.
    """
    if isinstance(value, dict):
        yield "{"
        for i, (key, item) in enumerate(value.items()):
            yield (", " if i else "") + json.dumps(key) + ": "
            yield from json_text(item)
        yield "}"
    elif isinstance(value, Iterator):
        yield from value
    else:
        yield json.dumps(value)


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


def _print_progress(size: int, done: int, total: int) -> None:
    print(f"size {size}: {done}/{total} subsets checked", file=sys.stderr)


def cmd_gen(args: argparse.Namespace) -> int:
    check_printable(args.C)  # before the build whose addresses could not be printed
    builder = build_wk if args.family == "wk" else build_wkp
    g = builder(args.C, args.L, max_vertices=_max_vertices(args))
    pieces = export_pieces(g, args.format)
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.writelines(pieces)
        except OSError as exc:
            raise ParameterDomainError(f"cannot write {args.output}: {exc.strerror}") from None
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
    gamma = gamma_formula(args.C, args.L, args.k)
    return {"C": args.C, "L": args.L, "k": args.k,
            "gamma_formula": {"exact" if gamma.exact else "upper_bound": gamma.value},
            "set": fields["seed"], "size": len(trace.seed), "is_kpds": True,
            "radius": trace.radius, "provenance": provenance, "trace": fields}


def _seed_run(args: argparse.Namespace) -> tuple[PyramidGraph, MonitorTrace]:
    """The graph and the run from the seed set ``--set``, for ``verify`` and ``trace``."""
    addresses = parse_seed_set(args.set, args.C)  # before the build, which a bad set would waste
    g = _pyramid(args)
    return g, propagate_fixpoint(g, args.k, [g.ordinal(a) for a in addresses])


def cmd_verify(args: argparse.Namespace) -> int:
    g, trace = _seed_run(args)
    _emit({"C": args.C, "L": args.L, "k": args.k, "set": address_list(g, trace.seed),
           "is_kpds": trace.covered, "radius": trace.round_count if trace.covered else None}, args)
    return EXIT_OK


def cmd_exact(args: argparse.Namespace) -> int:
    check_printable(args.C)  # before the search whose witness could not be printed
    g = _pyramid(args)
    result = min_kpds(g, args.k, _budget(args),
                      progress=_print_progress if args.progress else None)
    # A search that returns has found gamma's first set, so it has a witness.
    _emit({"C": args.C, "L": args.L, "k": args.k, "gamma": result.gamma,
           "witness": address_list(g, result.witnesses[0]), "radius": result.radius,
           "exhausted": result.exhausted, "checks_performed": result.checks_performed}, args)
    return EXIT_OK


def cmd_radius(args: argparse.Namespace) -> int:
    g = _pyramid(args)
    value = propagation_radius(g, args.k, _budget(args),
                               progress=_print_progress if args.progress else None)
    _emit({"C": args.C, "L": args.L, "k": args.k, "radius": value}, args)
    return EXIT_OK


def cmd_trace(args: argparse.Namespace) -> int:
    _emit(trace_fields(*_seed_run(args)), args)
    return EXIT_OK


def cmd_check_paper(args: argparse.Namespace) -> int:
    report = run_check_paper(_budget(args))
    rows = report.rows
    if args.format == "json":
        doc = {"rows": [r._asdict() for r in rows], "failures": len(report.failures)}
        sys.stdout.write(json.dumps(doc, indent=2) + "\n")
    else:
        width = max(len(r.claim) for r in rows)
        for r in rows:
            print(f"[{r.status:>14}]  {r.claim:<{width}}  expected {r.expected}  |  got {r.computed}")
        counts = sorted(Counter(r.status for r in rows).items())
        print(f"{len(rows)} rows: " + ", ".join(f"{n} {status}" for status, n in counts))
    return EXIT_REPORT_FAIL if report.failures else EXIT_OK


#: Each verb's handler, help line and ``--format`` choices (the first is the default).
VERBS = {
    "gen": (cmd_gen, "generate a graph and export it", ("json", "dot")),
    "construct": (cmd_construct, "build the closed-form k-PDS with a certificate", ("json", "text")),
    "verify": (cmd_verify, "check whether a seed set is a k-PDS", ("json", "text")),
    "exact": (cmd_exact, "exhaustive minimum k-PDS search", ("json", "text")),
    "radius": (cmd_radius, "propagation radius over all minimum k-PDS", ("json", "text")),
    "trace": (cmd_trace, "round-by-round monitoring trace for a seed set", ("json", "text")),
    "check-paper": (cmd_check_paper, "run the full reproduction report", ("text", "json")),
}
_SET_EXAMPLES = {"verify": "(0,(1));(1,(0))", "trace": "(1,(2));(2,(01))"}


def _verb_arguments(p: argparse.ArgumentParser, verb: str) -> argparse.ArgumentParser:
    """Give ``p`` the arguments of ``verb``: the one definition both parser paths use."""
    func, _, formats = VERBS[verb]
    if verb != "check-paper":
        p.add_argument("--C", type=int, required=True, help="digits per level, C >= 1")
        p.add_argument("--L", type=int, required=True, help="number of levels, L >= 1")
        if verb != "gen":
            p.add_argument("--k", type=int, required=True, help="propagation allowance")
        p.add_argument("--max-vertices", type=int, default=None,
                       help="override the construction size cap")
    if verb in ("exact", "radius", "check-paper"):
        p.add_argument("--budget", type=int, default=None,
                       help=f"max propagation checks (default {DEFAULT_MAX_CHECKS} "
                            "or WKPDOM_MAX_CHECKS)")
    if verb in ("exact", "radius"):
        p.add_argument("--progress", action="store_true",
                       help="print enumeration progress to stderr")
    if verb in _SET_EXAMPLES:
        p.add_argument("--set", required=True,
                       help=f'seed addresses, e.g. "{_SET_EXAMPLES[verb]}"')
    if verb == "gen":
        p.add_argument("--family", choices=("wkp", "wk"), default="wkp")
    p.add_argument("--format", choices=formats, default=formats[0])
    if verb == "gen":
        p.add_argument("--output", "-o", default=None, help="output file (default stdout)")
    p.set_defaults(func=func)
    return p


def build_parser() -> argparse.ArgumentParser:
    """The parser of every verb, which answers ``-h``, a missing or unknown verb and leftovers."""
    parser = argparse.ArgumentParser(
        prog="wkpdom",
        description="k-power domination on WK-recursive mesh and WK-pyramid networks",
        epilog="Env overrides: WKPDOM_MAX_CHECKS (search budget), "
               "WKPDOM_MAX_VERTICES (construction cap).",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, (_, help_line, _) in VERBS.items():
        _verb_arguments(sub.add_parser(verb, help=help_line), verb)
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """Parse ``argv`` with only its verb's parser, the one ``build_parser`` would pass it to.

    ``add_parser`` names that parser ``wkpdom <verb>``, so its usage, help
    and errors are the same.  Arguments it leaves over go to the full
    parser, whose error names them as before.
    """
    if argv and argv[0] in VERBS:
        parser = _verb_arguments(argparse.ArgumentParser(prog=f"wkpdom {argv[0]}"), argv[0])
        args, rest = parser.parse_known_args(argv[1:])
        if not rest:
            return args
    return build_parser().parse_args(argv)


def main(argv: Sequence[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    # Paused for the verb, whose data holds no cycles (module docstring).
    collecting = gc.isenabled()
    gc.disable()
    try:
        status = args.func(args)
        sys.stdout.flush()  # a closed reader shows here, not at interpreter exit
        return status
    except tuple(EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in EXIT_CODES.items() if isinstance(exc, cls))
    except OSError as exc:
        # Standard output failed, its reader gone or its device full: what
        # it still buffers can never be delivered.  Its descriptor, not the
        # stream, is pointed at devnull: the interpreter's last flush then
        # succeeds, and no second file is left open at exit.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        if isinstance(exc, BrokenPipeError):
            return EXIT_PIPE
        print(f"error: cannot write standard output: {exc.strerror}", file=sys.stderr)
        return EXIT_PARSE
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    raise SystemExit(main())
