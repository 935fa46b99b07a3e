"""Answer checks for the three benchmarked CLI calls.

Each check takes the exit code and captured standard output of one call and
returns None when the answer is right, else a one-line reason.  They run in
the benchmark's parent process, outside any timed window.
"""

from __future__ import annotations

import functools
import json
from pathlib import Path

from wkpdom.constructions import gamma_formula
from wkpdom.reference import naive_is_kpds, naive_radius
from wkpdom.topology import ParameterDomainError, build_wkp, parse_address

#: (criterion, claim, status) of every check-paper row at the seed commit.
EXPECTED_PAPER = [tuple(row) for row in json.loads(
    (Path(__file__).with_name("expected_paper.json")).read_text())]

#: A row may only move from skipped-budget to match: a lower bound got certified.
ALLOWED_UPGRADES = {("skipped-budget", "match")}


def _load(text: str):
    try:
        return json.loads(text), None
    except ValueError as exc:
        return None, f"output is not JSON: {exc}"


def check_paper(rc, text: str) -> str | None:
    if rc != 0:
        return f"exit code {rc}, expected 0"
    report, problem = _load(text)
    if problem:
        return problem
    rows = report.get("rows", [])
    got = [(r.get("criterion"), r.get("claim"), r.get("status")) for r in rows]
    if [g[:2] for g in got] != [e[:2] for e in EXPECTED_PAPER]:
        return f"claims differ from the seed's {len(EXPECTED_PAPER)} claims ({len(got)} rows)"
    for (_, claim, status), (_, _, want) in zip(got, EXPECTED_PAPER):
        if status != want and (want, status) not in ALLOWED_UPGRADES:
            return f"row {claim!r}: status {status!r}, expected {want!r}"
    if report.get("failures") != 0:
        return f"failures = {report.get('failures')}, expected 0"
    return None


def check_construct(rc, text: str, C: int, L: int, k: int, radius: int) -> str | None:
    if rc != 0:
        return f"exit code {rc}, expected 0"
    cert, problem = _load(text)
    if problem:
        return problem
    want_size = gamma_formula(C, L, k).value
    if (cert.get("C"), cert.get("L"), cert.get("k")) != (C, L, k):
        return f"parameters {cert.get('C')},{cert.get('L')},{cert.get('k')} echoed wrongly"
    if cert.get("is_kpds") is not True:
        return "is_kpds is not true"
    if cert.get("size") != want_size or len(cert.get("set", ())) != want_size:
        return f"size {cert.get('size')} with {len(cert.get('set', ()))} members, expected {want_size}"
    if cert.get("radius") != radius or cert.get("trace", {}).get("radius") != radius:
        return f"radius {cert.get('radius')}, expected {radius}"
    return None


@functools.lru_cache(maxsize=None)
def _pyramid(C: int, L: int):
    return build_wkp(C, L)


def check_exact(rc, text: str, C: int, L: int, k: int, gamma: int, radius: int,
                checks: int) -> str | None:
    if rc != 0:
        return f"exit code {rc}, expected 0"
    result, problem = _load(text)
    if problem:
        return problem
    if (result.get("gamma"), result.get("radius")) != (gamma, radius):
        return f"gamma {result.get('gamma')} radius {result.get('radius')}, expected {gamma} and {radius}"
    if result.get("exhausted") is not True:
        return "exhausted is not true"
    if result.get("checks_performed") != checks:
        return f"checks_performed {result.get('checks_performed')}, expected {checks}"
    g = _pyramid(C, L)
    try:
        witness = {g.ordinal(parse_address(a, C)) for a in result.get("witness", ())}
    except ParameterDomainError as exc:
        return f"witness does not parse: {exc}"
    if len(witness) != gamma:
        return f"witness has {len(witness)} distinct vertices, expected {gamma}"
    if not naive_is_kpds(g, k, witness):
        return "witness is not a k-PDS by the reference oracle"
    if naive_radius(g, k, witness) < radius:
        return "witness spreads faster than the reported minimum radius"
    return None
