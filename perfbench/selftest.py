"""Self-test of the benchmark harness, run at the start of every benchmark run.

It shows that each answer check rejects a corrupted answer (so a zero
failure count means something) and that the span wrapper returns and
raises exactly what the wrapped function does, ``BudgetExceededError``
included.  Run alone: ``PYTHONPATH=src python3 perfbench/selftest.py``.
"""

from __future__ import annotations

import copy
import json

import spans
import validate

#: A right answer of ``wkpdom exact --C 4 --L 4 --k 3``.
EXACT_OK = {"C": 4, "L": 4, "k": 3, "gamma": 2, "witness": ["(0,(1))", "(3,(000))"],
            "radius": 15, "exhausted": True, "checks_performed": 58_311}


def _paper_ok() -> dict:
    rows = [{"criterion": c, "claim": claim, "expected": "", "computed": "", "status": s}
            for c, claim, s in validate.EXPECTED_PAPER]
    return {"rows": rows, "failures": 0}


def _construct_ok(k: int, size: int, radius: int) -> dict:
    return {"C": 4, "L": 7, "k": k, "set": [f"v{i}" for i in range(size)], "size": size,
            "is_kpds": True, "radius": radius, "trace": {"radius": radius}}


def _edited(base: dict, edit) -> str:
    doc = copy.deepcopy(base)
    edit(doc)
    return json.dumps(doc)


def _status_index(status: str) -> int:
    return next(i for i, row in enumerate(validate.EXPECTED_PAPER) if row[2] == status)


def _check_validators() -> list[str]:
    """Names of the corruptions a validator failed to reject, plus rejected right answers."""
    paper = _paper_ok()
    skipped, matched = _status_index("skipped-budget"), _status_index("match")
    wrong: dict[str, tuple] = {
        "paper: exit code 1": (validate.check_paper, 1, json.dumps(paper)),
        "paper: not JSON": (validate.check_paper, 0, "{"),
        "paper: failed row": (validate.check_paper, 0, _edited(
            paper, lambda d: d["rows"][matched].update(status="fail"))),
        "paper: failures count": (validate.check_paper, 0, _edited(
            paper, lambda d: d.update(failures=1))),
        "paper: row dropped": (validate.check_paper, 0, _edited(
            paper, lambda d: d["rows"].pop())),
        "paper: claim renamed": (validate.check_paper, 0, _edited(
            paper, lambda d: d["rows"][0].update(claim="gamma WKP(9,9) k=1"))),
        "paper: match weakened": (validate.check_paper, 0, _edited(
            paper, lambda d: d["rows"][matched].update(status="skipped-budget"))),
    }
    k1, k3 = _construct_ok(1, 2048, 6), _construct_ok(3, 3, 127)

    def construct(k: int, radius: int):
        return lambda rc, out: validate.check_construct(rc, out, 4, 7, k, radius)

    wrong.update({
        "construct: exit code 4": (construct(1, 6), 4, json.dumps(k1)),
        "construct: not a k-PDS": (construct(1, 6), 0, _edited(
            k1, lambda d: d.update(is_kpds=False))),
        "construct: size off by one": (construct(1, 6), 0, _edited(
            k1, lambda d: d.update(size=2047))),
        "construct: member missing": (construct(1, 6), 0, _edited(
            k1, lambda d: d["set"].pop())),
        "construct: radius": (construct(3, 127), 0, _edited(
            k3, lambda d: d.update(radius=128))),
        "construct: trace radius": (construct(3, 127), 0, _edited(
            k3, lambda d: d["trace"].update(radius=126))),
        "construct: wrong k": (construct(3, 127), 0, json.dumps(k1)),
    })

    def exact(rc, out):
        return validate.check_exact(rc, out, 4, 4, 3, 2, 15, 58_311)

    wrong.update({
        "exact: exit code 3": (exact, 3, json.dumps(EXACT_OK)),
        "exact: gamma": (exact, 0, _edited(EXACT_OK, lambda d: d.update(gamma=3))),
        "exact: radius": (exact, 0, _edited(EXACT_OK, lambda d: d.update(radius=14))),
        "exact: not exhausted": (exact, 0, _edited(EXACT_OK, lambda d: d.update(exhausted=False))),
        "exact: checks": (exact, 0, _edited(EXACT_OK, lambda d: d.update(checks_performed=58_310))),
        "exact: witness not a k-PDS": (exact, 0, _edited(
            EXACT_OK, lambda d: d.update(witness=["(0,(1))", "(1,(0))"]))),
        "exact: witness repeats a vertex": (exact, 0, _edited(
            EXACT_OK, lambda d: d.update(witness=["(0,(1))", "(0,(1))"]))),
        "exact: witness does not parse": (exact, 0, _edited(
            EXACT_OK, lambda d: d.update(witness=["(0,(1))", "(9,(000))"]))),
    })
    right = {
        "paper": (validate.check_paper, 0, json.dumps(paper)),
        "paper: budget row certified": (validate.check_paper, 0, _edited(
            paper, lambda d: d["rows"][skipped].update(status="match"))),
        "construct k=1": (construct(1, 6), 0, json.dumps(k1)),
        "construct k=3": (construct(3, 127), 0, json.dumps(k3)),
        "exact": (exact, 0, json.dumps(EXACT_OK)),
    }
    missed = [name for name, (check, rc, out) in wrong.items() if check(rc, out) is None]
    missed += [f"{name} rejected: {problem}" for name, (check, rc, out) in right.items()
               if (problem := check(rc, out)) is not None]
    return missed


def _outcome(fn, *args):
    try:
        return "returned", fn(*args)
    except Exception as exc:  # noqa: BLE001 - the outcome itself is compared
        return "raised", exc


def _check_wrapper() -> list[str]:
    from wkpdom import exact
    from wkpdom.exact import BudgetExceededError, SearchBudget
    from wkpdom.topology import build_wkp

    problems = []
    tracer = spans.Tracer()
    sentinel, error = object(), BudgetExceededError("stop", gamma_exceeds=2, checks_performed=7)

    def give():
        return sentinel

    def fail():
        raise error

    if tracer.wrap(give, "t.give", "t")() is not sentinel:
        problems.append("wrapper did not return the wrapped function's object")
    kind, got = _outcome(tracer.wrap(fail, "t.fail", "t"))
    if kind != "raised" or got is not error:
        problems.append("wrapper did not re-raise the wrapped function's exception")
    g = build_wkp(3, 2)
    wrapped = tracer.wrap(exact.min_kpds, "exact.min_kpds", "exact")
    want_counts = [7]
    for budget in (SearchBudget(), SearchBudget(max_subset_count=3)):
        plain, traced = _outcome(exact.min_kpds, g, 1, budget), _outcome(wrapped, g, 1, budget)
        want_counts.append(plain[1].checks_performed)
        if plain[0] != traced[0] or type(plain[1]) is not type(traced[1]):
            problems.append(f"min_kpds with {budget}: {plain} unwrapped, {traced} wrapped")
        elif plain[0] == "returned" and plain[1] != traced[1]:
            problems.append(f"min_kpds with {budget} returned a different result when wrapped")
        elif plain[0] == "raised" and (plain[1].args, plain[1].checks_performed) != \
                (traced[1].args, traced[1].checks_performed):
            problems.append(f"min_kpds with {budget} raised a different error when wrapped")
    if [s.count for s in tracer.spans if s.counter == "exact.checks"] != want_counts:
        problems.append("checks were not counted from results and budget errors")

    tracer = spans.Tracer()
    tracer.install()
    bindings = list(tracer.bindings)
    replaced = all(getattr(mod, attr) is not fn for mod, attr, fn in bindings)
    tracer.uninstall()
    if not bindings or not replaced:
        problems.append("install did not wrap the cross-module bindings")
    if any(getattr(mod, attr) is not fn for mod, attr, fn in bindings):
        problems.append("uninstall did not restore every binding")
    return problems


def run_all() -> str | None:
    """None when every check passes, else a description of what failed."""
    problems = _check_validators() + _check_wrapper()
    return "; ".join(problems) or None


if __name__ == "__main__":
    outcome = run_all()
    print(outcome or "harness self-test passed")
    raise SystemExit(1 if outcome else 0)
