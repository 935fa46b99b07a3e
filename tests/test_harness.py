"""The benchmark harness in ``perfbench/`` against the current library.

The harness wraps wkpdom's cross-module calls and reads its work counters
from their results, so a library change can break the benchmark without
breaking any other test.  These tests only read ``perfbench/``.
"""

import json
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import selftest  # noqa: E402
import spans  # noqa: E402

from wkpdom import build_wkp, cli  # noqa: E402


def test_selftest_passes():
    assert selftest.run_all() is None


def test_vertex_rounds_counted_from_construct(capsys):
    tracer = spans.Tracer()
    tracer.install()
    try:
        code = cli.main(["construct", "--C", "3", "--L", "4", "--k", "2"])
    finally:
        tracer.uninstall()
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    round_count = len(doc["trace"]["rounds"])
    assert round_count == doc["radius"] > 1
    assert tracer.summary()["counts"]["propagation.vertex_rounds"] == \
        build_wkp(3, 4).n * round_count


def test_uninstall_restores_every_binding():
    tracer = spans.Tracer()
    tracer.install()
    bindings = list(tracer.bindings)
    assert bindings and all(getattr(mod, attr) is not fn for mod, attr, fn in bindings)
    tracer.uninstall()
    assert all(getattr(mod, attr) is fn for mod, attr, fn in bindings)
    assert cli.propagate_fixpoint.__module__ == "wkpdom.propagation"
    assert not hasattr(cli.propagate_fixpoint, "__wrapped__")
