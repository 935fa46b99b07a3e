"""End-to-end benchmark of the wkpdom command line on three workloads.

Usage: python3 perfbench/run.py --workload paper|certify|search --seed N
                                --seconds S --trace 0|1

Each timed call runs one wkpdom verb in a fresh single-threaded Python
process (``task.py``), which calls ``wkpdom.cli.main(argv)`` in-process with
stdout captured.  Every CLI user pays process set-up, and a cache kept
across in-process repeats would show a gain no user gets.  Load is a closed
loop with one caller: the next call starts after the previous process has
exited.  The inputs are the paper's fixed instances, so ``--seed`` only
sets the order of the calls inside an iteration and of traced and untraced
iterations.  Each answer is checked after its process exits, outside the
timed window.

The last line of standard output is the result, one JSON object with the
keys correct, attempted, failed and metrics.  With ``--trace 0`` the metrics
are the end-to-end ones, from untraced calls.  Other tenants of a shared
host change how fast the same call runs by up to 2x from minute to minute,
so ``wall_s`` and ``setup_s`` are the run's mean times scaled by
``calib.CAL_REF_S`` over the mean time of the calibration loop that every
task process runs before its import and after its verb: they are the
seconds the call would take on a machine where that loop takes
``CAL_REF_S``.  The info line keeps every time as measured.  With
``--trace 1`` traced and untraced iterations alternate: the metrics are the
per-layer ones, from the median traced iteration, plus the tracing
overhead.  The line before the result records the machine, the code, the
call order and every sample with its count and quartiles.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import calib

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TASK = HERE / "task.py"

#: Fresh interpreters that only time ``import wkpdom.cli``, after one warm-up.
SETUP_PROBES = 9
#: A run ends within this many seconds even when a call hangs.
RUN_LIMIT_S = 170
#: Overrides that would change the work measured; removed from every child.
SCRUBBED_ENV = ("WKPDOM_MAX_CHECKS", "WKPDOM_MAX_VERTICES", "PYTHONPATH")


@dataclass(frozen=True)
class Call:
    label: str
    argv: tuple[str, ...]
    check: Callable[[object, str], str | None]


def _workloads() -> dict[str, list[Call]]:
    import validate  # imports wkpdom, so only after main() has put src on the path

    def construct(k: int, radius: int) -> Call:
        return Call(f"construct-k{k}", ("construct", "--C", "4", "--L", "7", "--k", str(k)),
                    lambda rc, out: validate.check_construct(rc, out, 4, 7, k, radius))

    return {
        # The 54-row reproduction report: many short exhaustive checks on
        # small graphs (n <= 85), the reference oracle and the property
        # suites; never a large graph.  The small-graph side of every
        # propagation change.
        "paper": [Call("check-paper", ("check-paper", "--format", "json"), validate.check_paper)],
        # Graph build, construction, large-graph propagation and certificate
        # JSON on WKP(4,7), n = 21,845, and never the exhaustive solver.
        # k=1 places 2,048 seeds (radius 6); k=3 the 3-vertex spine
        # (radius 127, 12 MB of JSON).  WKP(4,8) k=3 takes minutes per call.
        "certify": [construct(1, 6), construct(3, 127)],
        # 58,311 exhaustive checks on WKP(4,4), n = 341, radius 15: the
        # solver driving propagation on a mid-size graph with long chains.
        "search": [Call("exact", ("exact", "--C", "4", "--L", "4", "--k", "3"),
                        lambda rc, out: validate.check_exact(rc, out, 4, 4, 3, 2, 15, 58_311))],
    }


def _child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(deadline: float, mode: str, argv: tuple[str, ...] = ()) -> tuple[dict, str]:
    """Run task.py once; returns its header and the verb's captured stdout.

    The child is killed, and waited for, if it runs past ``deadline``
    (a ``time.monotonic`` value).
    """
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run([sys.executable, str(TASK), mode, *argv], cwd=ROOT,
                              env=_child_env(), capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"problem": f"no exit within {timeout:.0f} s"}, ""
    if proc.returncode != 0:
        return {"problem": f"task exited {proc.returncode}: {proc.stderr.strip()[-300:]}"}, ""
    header_line, _, output = proc.stdout.partition("\n")
    return json.loads(header_line), output


def run_call(deadline: float, mode: str, call: Call) -> dict:
    header, output = run_child(deadline, mode, call.argv)
    if "problem" in header:
        return header
    if header["traceback"]:
        header["problem"] = "traceback: " + header["traceback"].strip().splitlines()[-1]
    elif "Traceback" in header["stderr"]:
        header["problem"] = "traceback on stderr"
    else:
        header["problem"] = call.check(header["rc"], output)
    header["output_bytes"] = len(output.encode())
    return header


def _merge_traces(traces: list[dict]) -> dict:
    merged: dict = {"self_ns": {}, "incl_ns": {}, "counts": {}}
    for trace in traces:
        for key in merged:
            for name, value in trace[key].items():
                merged[key][name] = merged[key].get(name, 0) + value
    return merged


def run_iteration(deadline: float, mode: str, calls: list[Call]) -> dict:
    """One iteration: each call in its own process, in the given order."""
    results = [run_call(deadline, mode, call) for call in calls]
    problems = [f"{c.label}: {r['problem']}" for c, r in zip(calls, results) if r.get("problem")]
    it = {"problem": "; ".join(problems) or None,
          "imports": [(r["import_s"], r["calibration_s"][0]) for r in results
                      if "import_s" in r],
          "calibration_s": [c for r in results for c in r.get("calibration_s", ())]}
    if problems:
        return it
    it["wall_s"] = sum(r["wall_s"] for r in results)
    it["peak_rss_mb"] = max(r["peak_rss_mb"] for r in results)
    it["output_bytes"] = sum(r["output_bytes"] for r in results)
    if mode == "trace":
        # Each process's spans nest under its root, so self times sum to its wall time.
        for call, r in zip(calls, results):
            t = r["trace"]
            if abs(sum(t["self_ns"].values()) / 1e9 - r["wall_s"]) > 1e-6 or t["negative_self"]:
                it["problem"] = f"{call.label}: span self times do not add up to the wall time"
        it["trace"] = _merge_traces([r["trace"] for r in results])
    return it


def layer_metrics(it: dict) -> dict[str, float]:
    """Per-layer metrics of one traced iteration, in seconds unless named otherwise."""
    t = it["trace"]
    self_s = {layer: ns / 1e9 for layer, ns in t["self_ns"].items()}
    incl_s = {name: ns / 1e9 for name, ns in t["incl_ns"].items()}
    counts = t["counts"]

    def incl(*names: str) -> float:
        return sum(incl_s.get(n, 0.0) for n in names)

    def per(value: float, count: int, scale: float) -> float:
        return value * scale / count if count else 0.0

    build = incl("topology.build_wkp", "topology.build_wk")
    propagate = incl("propagation.make_certificate", "propagation.propagate_fixpoint")
    vertex_rounds = counts.get("propagation.vertex_rounds", 0)
    search = self_s.get("exact", 0.0)
    checks = counts.get("exact.checks", 0)
    return {
        "topology.build_s": build,
        "topology.build_us_per_vertex": per(build, counts.get("topology.vertices", 0), 1e6),
        "topology.crossing_edge_s": incl("topology.crossing_edge"),
        "constructions.construct_s": incl("constructions.construct_kpds",
                                          "constructions.construct_general",
                                          "constructions.construct_kc1"),
        "constructions.self_s": self_s.get("constructions", 0.0),
        "topology.self_s": self_s.get("topology", 0.0),
        "propagation.verify_s": incl("propagation.is_kpds", "propagation.radius_of_set"),
        "propagation.certificate_s": incl("propagation.make_certificate"),
        "propagation.fixpoint_s": incl("propagation.propagate_fixpoint"),
        "propagation.vertex_rounds": vertex_rounds,
        "propagation.ns_per_vertex_round": per(propagate, vertex_rounds, 1e9),
        "propagation.to_json_s": incl("propagation.certificate_to_json",
                                      "propagation.trace_to_json"),
        "propagation.self_s": self_s.get("propagation", 0.0),
        "exact.search_s": search,
        "exact.checks": checks,
        "exact.us_per_check": per(search, checks, 1e6),
        "reference.oracle_s": self_s.get("reference", 0.0),
        "report.self_s": self_s.get("report", 0.0),
        "cli.self_s": self_s.get("cli", 0.0),
        "cli.output_bytes": it["output_bytes"],
        "trace.wall_s": it["wall_s"],
    }


COUNT_METRICS = ("exact.checks", "propagation.vertex_rounds", "cli.output_bytes")

UNITS = {
    "wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB", "success_rate": "ratio",
    "topology.build_s": "s", "topology.build_us_per_vertex": "us",
    "topology.crossing_edge_s": "s", "constructions.construct_s": "s",
    "constructions.self_s": "s", "topology.self_s": "s", "propagation.self_s": "s",
    "propagation.verify_s": "s",
    "propagation.certificate_s": "s", "propagation.fixpoint_s": "s",
    "propagation.vertex_rounds": "count", "propagation.ns_per_vertex_round": "ns",
    "propagation.to_json_s": "s", "exact.search_s": "s", "exact.checks": "count",
    "exact.us_per_check": "us", "reference.oracle_s": "s", "report.self_s": "s",
    "cli.self_s": "s", "cli.output_bytes": "count", "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


def _quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def environment() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "wkpdom").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"commit": commit, "source_sha256": digest.hexdigest(),
            "python": sys.version.split()[0], "cpu": cpu,
            "nproc": len(os.sched_getaffinity(0))}


def _trace_metrics(good: list[tuple[int, str, dict]], problems: list[str]) -> dict[str, float]:
    traced = [it for _, mode, it in good if mode == "trace"]
    for name in COUNT_METRICS:
        seen = {layer_metrics(it)[name] for it in traced}
        if len(seen) > 1:
            problems.append(f"{name} differs between iterations: {sorted(seen)}")
    # Traced minus untraced wall time within each block: the two ran back to
    # back, so slow phases of the machine mostly cancel.
    walls: dict[int, dict[str, float]] = {}
    for block, mode, it in good:
        walls.setdefault(block, {})[mode] = it["wall_s"]
    overheads = [w["trace"] - w["run"] for w in walls.values() if len(w) == 2]
    if not overheads:
        return {}
    # One whole traced iteration, the one with the median wall time (the
    # lower of two middles), so that its self times add up to its wall time.
    metrics = layer_metrics(sorted(traced, key=lambda it: it["wall_s"])[(len(traced) - 1) // 2])
    metrics["trace.overhead_s"] = statistics.median(overheads)
    return metrics


def _scaled(times: list[float], calibrations: list[float]) -> float:
    """Mean time in seconds of a machine on which the calibration loop takes
    ``CAL_REF_S``: the mean of ``times`` over the mean of the loops timed in
    the same processes.  Means, not medians: a call of several seconds
    averages the machine's fast and slow phases, and so does the mean of the
    short loops timed around such calls."""
    return statistics.fmean(times) * calib.CAL_REF_S / statistics.fmean(calibrations)


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run iterations for ``seconds``; returns the result line and the info line.

    End-to-end times are the run's mean times scaled by the calibration loop
    (``_scaled``), peak RSS is the median; the per-layer numbers come from
    the median traced iteration.
    """
    deadline = time.monotonic() + RUN_LIMIT_S
    calls = _workloads()[workload]
    rng = random.Random(seed)
    run_child(deadline, "import")  # warm-up: compiles bytecode, fills the file cache
    probes = [run_child(deadline, "import")[0] for _ in range(SETUP_PROBES)]
    # (import time, time of the calibration loop just before it) per process
    imports = [(p["import_s"], p["calibration_s"][0]) for p in probes]
    iterations: list[tuple[int, str, dict]] = []
    order: list[str] = []
    block_s: list[float] = []
    modes = ["run", "trace"] if trace else ["run"]
    start = time.monotonic()
    # Start another block only if a typical block still ends within the run.
    while not block_s or time.monotonic() - start + statistics.median(block_s) <= seconds:
        block_start = time.monotonic()
        block = [(mode, rng.sample(calls, len(calls))) for mode in modes]
        rng.shuffle(block)
        for mode, ordered in block:
            order.append(f"{mode}:" + ",".join(c.label for c in ordered))
            it = run_iteration(deadline, mode, ordered)
            imports.extend(it["imports"])
            iterations.append((len(block_s), mode, it))
        block_s.append(time.monotonic() - block_start)

    good = [(block, mode, it) for block, mode, it in iterations if not it["problem"]]
    problems = [it["problem"] for _, _, it in iterations if it["problem"]]
    if trace:
        samples = {"trace.wall_s": [it["wall_s"] for _, mode, it in good if mode == "trace"]}
        metrics = _trace_metrics(good, problems)
    else:
        untraced = [it for _, _, it in good]
        samples = {"wall_s": [it["wall_s"] for it in untraced],
                   "wall_calibration_s": [c for it in untraced for c in it["calibration_s"]],
                   "setup_s": [t for t, _ in imports],
                   "setup_calibration_s": [c for _, c in imports],
                   "peak_rss_mb": [it["peak_rss_mb"] for it in untraced]}
        metrics = {"success_rate": len(good) / len(iterations)}
        if untraced:
            metrics["wall_s"] = _scaled(samples["wall_s"], samples["wall_calibration_s"])
            metrics["setup_s"] = _scaled(samples["setup_s"], samples["setup_calibration_s"])
            metrics["peak_rss_mb"] = statistics.median(samples["peak_rss_mb"])
    result = {"correct": len(good) == len(iterations) and not problems and bool(metrics),
              "attempted": len(iterations), "failed": len(iterations) - len(good),
              "metrics": {name: {"value": value, "unit": UNITS[name]}
                          for name, value in metrics.items()}}
    info = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            **environment(), "order": order, "problems": problems[:5],
            "samples": {name: {"n": len(v), "quartiles": _quartiles(v), "values": v}
                        for name, v in samples.items() if v}}
    return result, info


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("paper", "certify", "search"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "wkpdom" / "cli.py").is_file():
        print(f"error: no wkpdom sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import selftest

    failure = selftest.run_all()
    if failure:
        print(f"error: harness self-test failed: {failure}", file=sys.stderr)
        return 1
    result, info = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
