import argparse
import contextlib
import gc
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from wkpdom import cli, graph_from_json, propagation
from wkpdom.cli import main

DATA = Path(__file__).parent / "data"
GOLDEN_REPORT = DATA / "check_paper.json"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestGen:
    def test_json_round_trips(self, capsys):
        code, out = run(capsys, "gen", "--C", "3", "--L", "2")
        assert code == 0
        g = graph_from_json(out)
        assert (g.family, g.C, g.L, g.n) == ("WKP", 3, 2, 13)

    def test_wk_family(self, capsys):
        code, out = run(capsys, "gen", "--C", "2", "--L", "3", "--family", "wk")
        assert code == 0
        doc = json.loads(out)
        assert doc["family"] == "WK"
        assert len(doc["vertices"]) == 8
        assert len(doc["edges"]) == 7

    def test_dot(self, capsys):
        code, out = run(capsys, "gen", "--C", "2", "--L", "2", "--format", "dot")
        assert code == 0
        assert out.startswith('graph "WKP(2,2)"')
        assert out.count(" -- ") == 10
        assert out.rstrip().endswith("}")

    @pytest.mark.parametrize("argv,digest", [
        (("--C", "4", "--L", "8"),
         "b0f21097e0c1aad3cc67709a830992719e2576798afd4e76fc6a968e8eb3efb8"),
        (("--family", "wk", "--C", "4", "--L", "3"),
         "10e4f0760f59197726dd72fdcc27639e6fb7f8d7fed6e9572c2e4d06c118c726"),
    ], ids=["wkp-4-8", "wk-4-3"])
    def test_dot_output_is_pinned(self, capsys, argv, digest):
        code, out = run(capsys, "gen", *argv, "--format", "dot")
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    @pytest.mark.parametrize("argv,digest", [
        (("--C", "3", "--L", "4"),
         "07aeacd0cbfd033d61629f57e333c69e5c6fc7c03f04f9c4d4aa90a7f7a55ece"),
        (("--C", "4", "--L", "8"),
         "eb8c963829c6b0da0858fdfced8f1dd7841fd4a8fcef24bd60686ca26db7bf4c"),
        (("--family", "wk", "--C", "4", "--L", "3"),
         "e60af5645e7db05197e4ba80b2c6080ec0e59ed8133e1e00ddebf304770575a0"),
        (("--family", "wk", "--C", "1", "--L", "2"),  # one vertex, no edge
         "90de0b2ab0c9da1952485d6841386b7697ec42df889207916e72110cc1e222b2"),
    ], ids=["wkp-3-4", "wkp-4-8", "wk-4-3", "wk-1-2"])
    def test_json_output_is_pinned(self, capsys, argv, digest):
        code, out = run(capsys, "gen", *argv)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "g.json"
        code, _ = run(capsys, "gen", "--C", "2", "--L", "2", "-o", str(target))
        assert code == 0
        assert graph_from_json(target.read_bytes()).n == 7

    def test_bad_parameters_exit_2(self, capsys):
        code, _ = run(capsys, "gen", "--C", "0", "--L", "2")
        assert code == 2

    def test_output_to_missing_directory_exit_2(self, capsys, tmp_path):
        target = tmp_path / "missing" / "g.json"
        code = main(["gen", "--C", "3", "--L", "2", "-o", str(target)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert str(target) in captured.err
        assert not target.exists()

    @pytest.mark.parametrize("argv", [
        ["gen", "--C", "11", "--L", "1"],
        ["exact", "--C", "11", "--L", "2", "--k", "1", "--budget", "1000"],
        ["construct", "--C", "11", "--L", "2", "--k", "1"],
        ["verify", "--C", "11", "--L", "1", "--k", "1", "--set", "(1,(1))"],
        ["trace", "--C", "11", "--L", "1", "--k", "1", "--set", "(1,(1))"],
        # WKP(11,5) is over the vertex cap; C > 10 is refused first, as by construct.
        ["construct", "--C", "11", "--L", "5", "--k", "1"],
        ["verify", "--C", "11", "--L", "5", "--k", "1", "--set", "(1,(1))"],
        ["trace", "--C", "11", "--L", "5", "--k", "1", "--set", "(1,(1))"],
    ])
    def test_c_above_10_exit_2(self, capsys, argv):
        # Addresses print one character per digit; (1,(10)) would not parse back.
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "C <= 10" in captured.err

    @pytest.mark.parametrize("verb,extra", [
        ("construct", []), ("verify", ["--set", "(0,(1))"]), ("exact", []), ("radius", []),
        ("trace", ["--set", "(0,(1))"]),
    ])
    def test_negative_k_exit_2(self, capsys, verb, extra):
        code = main([verb, "--C", "3", "--L", "2", "--k", "-1", *extra])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: k must be >= 0, got -1\n"


class TestConstruct:
    def test_level2_example(self, capsys):
        code, out = run(capsys, "construct", "--C", "5", "--L", "2", "--k", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["set"] == ["(1,(1))", "(1,(2))", "(1,(3))", "(1,(4))"]
        assert doc["size"] == 4
        assert doc["is_kpds"] is True
        assert doc["radius"] == 3
        assert doc["provenance"] == "level2"
        assert doc["gamma_formula"] == {"exact": 4}

    def test_regime_violation_exit_4(self, capsys):
        code, _ = run(capsys, "construct", "--C", "3", "--L", "2", "--k", "0")
        assert code == 4

    @pytest.mark.parametrize("C,L,k", [(3, 3, 1), (2, 4, 1), (4, 3, 3), (3, 2, 1)])
    def test_one_propagation_fixpoint_per_call(self, capsys, monkeypatch, C, L, k):
        calls = []
        real = propagation._run

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(propagation, "_run", counted)
        code, out = run(capsys, "construct", "--C", str(C), "--L", str(L), "--k", str(k))
        assert code == 0
        assert json.loads(out)["is_kpds"] is True
        assert len(calls) == 1

    @pytest.mark.parametrize("k,digest", [
        (1, "ab7258110893da3966a604ed88daff51c262ae0a9f9612808bb5ae9424c9c285"),
        (3, "f728127dd583c1dfa9bfea8cba1b4b786358ae73cfa0b09c0fff2ae306bc4ea3"),
    ])
    def test_certify_output_is_pinned(self, capsys, k, digest):
        # The two calls of the certify benchmark workload, WKP(4,7) at n=21,845.
        code, out = run(capsys, "construct", "--C", "4", "--L", "7", "--k", str(k))
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    @pytest.mark.parametrize("k,digest", [
        (1, "dc2cfb19ff97154a0834bc388d9b3824565452bf354900fe455dc6797efe25a6"),
        (3, "253b47855976600ae6c2577e51b90e57e99c94791378c5522a3ddf28a953c957"),
    ])
    def test_certify_text_output_is_pinned(self, capsys, k, digest):
        # The same two calls in the one-line-per-key form.
        code, out = run(capsys, "construct", "--C", "4", "--L", "7", "--k", str(k),
                        "--format", "text")
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    def test_output_is_written_round_by_round(self, monkeypatch):
        # No write holds more than one round list and its separator, so the
        # whole document is never one string.
        writes = []

        class Recorder:
            def write(self, text):
                writes.append(text)
                return len(text)

            def flush(self):
                pass

        monkeypatch.setattr(sys, "stdout", Recorder())
        code = main(["construct", "--C", "4", "--L", "5", "--k", "3"])
        assert code == 0
        doc = json.loads("".join(writes))
        assert doc["radius"] == len(doc["trace"]["rounds"]) > 1
        longest = max(len(json.dumps(r)) for r in doc["trace"]["rounds"])
        assert len(writes) > 1
        assert max(map(len, writes)) <= longest + len(", ")

    def test_failed_verification_exit_1(self, capsys, monkeypatch):
        # {4} is the vertex (0, 0) of WKP(3, 2) alone, not a 1-PDS.
        monkeypatch.setattr(cli, "construct_kpds",
                            lambda C, L, k: ({4}, "level2"))
        code = main(["construct", "--C", "3", "--L", "2", "--k", "1"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "failed verification" in captured.err


class TestBrokenPipe:
    def test_closed_stdout_ends_without_traceback(self, capsys, monkeypatch):
        # A real pipe whose reader is gone: the exit path works on the
        # descriptor under the stream, which a stand-in object lacks.
        read_end, write_end = os.pipe()
        os.close(read_end)
        closed_pipe = open(write_end, "w")
        monkeypatch.setattr(sys, "stdout", closed_pipe)
        code = main(["construct", "--C", "4", "--L", "5", "--k", "3"])
        assert code == cli.EXIT_PIPE
        # What is left to print, and the interpreter's last flush, go nowhere.
        print("discarded")
        sys.stdout.flush()
        sys.stdout.close()
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("flags", [(), ("-X", "dev")], ids=["plain", "dev-mode"])
    def test_reader_closing_early_exits_quietly(self, flags):
        # A process whose reader is gone before the certificate is written,
        # like `wkpdom construct ... | head -c 100`.  Development mode shows
        # the ResourceWarning of a file left open at exit.
        src = Path(cli.__file__).resolve().parent.parent
        proc = subprocess.Popen(
            [sys.executable, *flags, "-m", "wkpdom.cli", "construct", "--C", "4", "--L", "5", "--k", "3"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": str(src)})
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == cli.EXIT_PIPE
        assert err == b""


FULL = "/dev/full"


@pytest.mark.skipif(not os.path.exists(FULL), reason="needs a device that refuses every write")
class TestWriteFailure:
    # A full device fails the write with ENOSPC: the call ends with one
    # error line and the parse-error code, never a traceback.  Development
    # mode would add the ResourceWarning of a file left open at exit.
    def _run(self, argv, stdout):
        src = Path(cli.__file__).resolve().parent.parent
        return subprocess.run(
            [sys.executable, "-X", "dev", "-m", "wkpdom.cli", *argv],
            stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(src)})

    @pytest.mark.parametrize("argv", [
        ["construct", "--C", "4", "--L", "5", "--k", "3"],
        ["verify", "--C", "3", "--L", "2", "--k", "1", "--set", "(1,(1))"],
        ["check-paper"],
        ["check-paper", "--format", "json"],
    ], ids=["construct", "verify", "check-paper-text", "check-paper-json"])
    def test_full_stdout_exits_with_one_error_line(self, argv):
        with open(FULL, "w") as full:
            proc = self._run(argv, full)
        assert proc.returncode == cli.EXIT_PARSE
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: cannot write standard output: ")
        assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n")

    def test_full_output_file_exits_with_one_error_line(self):
        proc = self._run(["gen", "--C", "3", "--L", "2", "-o", FULL], subprocess.PIPE)
        assert proc.returncode == cli.EXIT_PARSE
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith(f"error: cannot write {FULL}: ")
        assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n")


@contextlib.contextmanager
def _collector(enabled):
    """Run the block with the cyclic garbage collector on or off, then restore its state."""
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if was else gc.disable)()


def _closed_pipe():
    read_end, write_end = os.pipe()
    os.close(read_end)
    return open(write_end, "w")


SMALL_CONSTRUCT = ["construct", "--C", "3", "--L", "2", "--k", "1"]


class TestCollectorPause:
    # `main` runs the verb with the cyclic collector paused and leaves it
    # as it found it, whichever way the call ends.
    @staticmethod
    def _arrange(monkeypatch, how):
        """Set up one way for the call to end; returns a stdout stand-in to close after it."""
        if how == "failing-construction":
            monkeypatch.setattr(cli, "construct_kpds", lambda C, L, k: ({4}, "level2"))
        elif how == "crashing-construction":
            def crash(C, L, k):
                raise RuntimeError("not a documented failure")
            monkeypatch.setattr(cli, "construct_kpds", crash)
        elif how in ("full-stdout", "closed-pipe"):
            stream = open(FULL, "w") if how == "full-stdout" else _closed_pipe()
            monkeypatch.setattr(sys, "stdout", stream)
            return stream
        return None

    @pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
    @pytest.mark.parametrize("argv,how,outcome", [
        pytest.param(SMALL_CONSTRUCT, None, cli.EXIT_OK, id="exit-0"),
        pytest.param(SMALL_CONSTRUCT, "failing-construction", cli.EXIT_REPORT_FAIL, id="exit-1"),
        pytest.param(["verify", "--C", "3", "--L", "2", "--k", "1", "--set", "junk"], None,
                     cli.EXIT_PARSE, id="exit-2-bad-set"),
        pytest.param(SMALL_CONSTRUCT, "full-stdout", cli.EXIT_PARSE, id="exit-2-full-stdout",
                     marks=pytest.mark.skipif(not os.path.exists(FULL),
                                              reason="needs a device that refuses every write")),
        pytest.param(["exact", "--C", "3", "--L", "3", "--k", "1", "--budget", "1"], None,
                     cli.EXIT_BUDGET, id="exit-3"),
        pytest.param(["construct", "--C", "3", "--L", "2", "--k", "0"], None, cli.EXIT_REGIME,
                     id="exit-4"),
        pytest.param(SMALL_CONSTRUCT, "closed-pipe", cli.EXIT_PIPE, id="exit-141"),
        pytest.param(SMALL_CONSTRUCT, "crashing-construction", RuntimeError, id="uncaught"),
        pytest.param(["construct", "--C", "3"], None, SystemExit, id="argparse-exit"),
    ])
    def test_collector_state_is_restored(self, capsys, monkeypatch, enabled, argv, how, outcome):
        stream = self._arrange(monkeypatch, how)
        try:
            with _collector(enabled):
                if isinstance(outcome, int):
                    assert main(argv) == outcome
                else:
                    with pytest.raises(outcome):
                        main(argv)
                assert gc.isenabled() is enabled
        finally:
            if stream is not None:
                stream.close()

    def test_no_collection_runs_during_a_call(self, capsys):
        # Unpaused, the 5,461 row tuples of WKP(4,6) and the run's lists
        # would set off several passes.
        generations = []

        def hook(phase, info):
            if phase == "start":
                generations.append(info["generation"])

        with _collector(True):
            gc.collect()  # so the parse, before the pause, stays far below a pass
            gc.callbacks.append(hook)
            try:
                code = main(["construct", "--C", "4", "--L", "6", "--k", "1"])
            finally:
                gc.callbacks.remove(hook)
        assert code == 0
        assert generations == []

    @staticmethod
    def _cycles_left(argv):
        """How many objects in reference cycles one call of ``main(argv)`` leaves behind."""
        with _collector(False):
            gc.collect()
            main(argv)
            return gc.collect()

    @pytest.mark.parametrize("small,large", [
        (["construct", "--C", "3", "--L", "4", "--k", "1"],
         ["construct", "--C", "4", "--L", "6", "--k", "1"]),
        (["exact", "--C", "2", "--L", "2", "--k", "1"], ["exact", "--C", "3", "--L", "3", "--k", "1"]),
        (["trace", "--C", "2", "--L", "2", "--k", "1", "--set", "(1,(1))"],
         ["trace", "--C", "3", "--L", "4", "--k", "1", "--set", "(1,(1))"]),
        (["gen", "--C", "3", "--L", "2"], ["gen", "--C", "3", "--L", "4"]),
        # The report's instances are fixed: one stopped at its first search
        # against the whole run.
        (["check-paper", "--budget", "1"], ["check-paper"]),
    ], ids=["construct", "exact", "trace", "gen", "check-paper"])
    def test_cycles_left_do_not_grow_with_the_graph(self, capsys, small, large):
        # What a paused call leaves to the collector is the parser's own
        # cycles, so memory cannot grow with n.
        assert self._cycles_left(small) == self._cycles_left(large)


class TestStartup:
    def test_import_loads_no_introspection_or_fort_modules(self):
        # Every verb is a fresh interpreter that pays for `import wkpdom.cli`;
        # `dataclasses` drags in `inspect`, `ast`, `dis` and `tokenize`, and
        # `forts` is imported only by the check that needs it.  Only what the
        # import itself loads counts: a site hook may load `inspect` first.
        src = Path(cli.__file__).resolve().parent.parent
        probe = ("import sys; before = set(sys.modules); import wkpdom.cli; "
                 "print(*set(sys.modules) - before)")
        out = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"})
        assert out.returncode == 0, out.stderr
        loaded = set(out.stdout.split())
        assert "wkpdom.cli" in loaded
        assert not loaded & {"dataclasses", "inspect", "wkpdom.forts"}


def _valid_argv(verb):
    """A small call of ``verb`` that parses."""
    argv = [verb]
    if verb != "check-paper":
        argv += ["--C", "2", "--L", "2"] + ([] if verb == "gen" else ["--k", "1"])
    if verb in ("verify", "trace"):
        argv += ["--set", "(0,(1))"]
    return argv


def _parse_errors():
    for verb in cli.VERBS:
        argv = _valid_argv(verb)
        if verb != "check-paper":
            yield verb, "missing --C", argv[:1] + argv[3:]
            yield verb, "--C x", argv[:2] + ["x"] + argv[3:]
        else:
            yield verb, "--C x", argv + ["--C", "x"]
        yield verb, "bad --format", argv + ["--format", "xml"]
        yield verb, "--threads 4", argv + ["--threads", "4"]
        yield verb, "extra positional", argv + ["extra"]


class TestParsers:
    # A call builds only its verb's parser; the full parser answers -h, a
    # missing or unknown verb and leftover arguments.  Either way the user
    # sees what the full parser alone would print.
    @staticmethod
    def _exit(capsys, parse, argv):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        return exc.value.code, capsys.readouterr()

    @pytest.mark.parametrize("verb", list(cli.VERBS))
    def test_help_matches_the_full_parser(self, capsys, verb):
        full = self._exit(capsys, cli.build_parser().parse_args, [verb, "--help"])
        assert full[0] == 0 and full[1].out.startswith(f"usage: wkpdom {verb} ")
        assert self._exit(capsys, main, [verb, "--help"]) == full

    @pytest.mark.parametrize("argv", [pytest.param(argv, id=f"{verb}-{case}")
                                      for verb, case, argv in _parse_errors()])
    def test_errors_match_the_full_parser(self, capsys, argv):
        full = self._exit(capsys, cli.build_parser().parse_args, argv)
        assert full[0] == 2 and full[1].out == "" and "error: " in full[1].err
        assert self._exit(capsys, main, argv) == full

    def test_a_verb_call_builds_one_parser(self, capsys, monkeypatch):
        built = []
        real = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            real(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        assert main(_valid_argv("construct")) == 0
        assert built == ["wkpdom construct"]
        built.clear()
        assert self._exit(capsys, main, ["--help"])[0] == 0
        assert built == ["wkpdom"] + [f"wkpdom {verb}" for verb in cli.VERBS]


class TestVerify:
    def test_apex_is_not_enough(self, capsys):
        code, out = run(capsys, "verify", "--C", "3", "--L", "2", "--k", "1",
                        "--set", "(0,(1))")
        assert code == 0
        doc = json.loads(out)
        assert doc["is_kpds"] is False
        assert doc["radius"] is None

    def test_multi_address_literal(self, capsys):
        code, out = run(capsys, "verify", "--C", "3", "--L", "2", "--k", "1",
                        "--set", "(1,(1)); (1,(2))")
        assert code == 0
        doc = json.loads(out)
        assert doc["is_kpds"] is True
        assert doc["radius"] == 3

    @pytest.mark.parametrize("verb,k,fmt,digest", [
        ("verify", 3, "json", "6db7e7576cbbd463abdf24485239fcc64a700bfdc338c728b3ad9005fac83056"),
        ("verify", 3, "text", "664e4b64224e11447511bb08c37b0a3e819fbd36152f8758bf27e6baa120c1e3"),
        ("trace", 3, "json", "da6055ecda610609b28ca44ca72dc78fba075f2d67e72f7fdf37f0498cc2a1e0"),
        ("trace", 3, "text", "4fe08669444c0c6cc05a6ca6dd02ecc536365406fc26bba7411b12cba6b7b00b"),
        ("verify", 2, "json", "0c422611e3211b197602d85dcf505886db3b98c7820416d7b07bce08a7b64d0d"),
        ("verify", 2, "text", "5945a98f7c737c6434ef8b3b102d843b99c2f34ee19f5c980caad170fd6316cb"),
        ("trace", 2, "json", "d461a5fd2ffc89365ae832bd2ee818839a6f5993007f44c8d6441b835b7ccb26"),
        ("trace", 2, "text", "5db4469113a395a4d64d10c98306c85123dca5d2edba341c3909ebd6a63ab083"),
    ], ids=lambda p: str(p)[:8])
    def test_seed_run_output_is_pinned(self, capsys, verb, k, fmt, digest):
        # The k=3 spine of WKP(4,7) covers in 127 rounds; at k=2 the same
        # seeds stall after 3 rounds.
        code, out = run(capsys, verb, "--C", "4", "--L", "7", "--k", str(k),
                        "--set", "(1,(0));(3,(000));(6,(000000))", "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    def test_malformed_address_exit_2(self, capsys):
        code, _ = run(capsys, "verify", "--C", "3", "--L", "2", "--k", "1",
                      "--set", "(1,(9))")
        assert code == 2

    @pytest.mark.parametrize("verb", ["verify", "trace"])
    @pytest.mark.parametrize("literal", ["(1,(\u0663))", "(01,(1))", "(00,(1))"],
                             ids=["arabic-indic-digit", "zero-padded-level", "zero-padded-apex"])
    def test_literal_format_address_never_writes_exit_2(self, capsys, verb, literal):
        code = main([verb, "--C", "4", "--L", "1", "--k", "1", "--set", literal])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_unknown_vertex_exit_2(self, capsys):
        code, _ = run(capsys, "verify", "--C", "3", "--L", "2", "--k", "1",
                      "--set", "(3,(000))")
        assert code == 2

    def test_empty_set_literal_exit_2(self, capsys):
        code = main(["verify", "--C", "3", "--L", "2", "--k", "1", "--set", ";"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: empty seed set literal\n"

    @pytest.mark.parametrize("verb", ["verify", "trace"])
    def test_set_is_parsed_before_the_build(self, capsys, verb):
        # WKP(3,40) is over the vertex cap, so a build would fail first.
        code = main([verb, "--C", "3", "--L", "40", "--k", "1", "--set", "junk"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: malformed address literal: 'junk'\n"

    def test_set_is_listed_in_ordinal_order(self, capsys):
        # As in construct, exact and trace; sorted as text, (10,...) came first.
        code, out = run(capsys, "verify", "--C", "2", "--L", "10", "--k", "1",
                        "--set", "(2,(00));(10,(0000000000))")
        assert code == 0
        assert json.loads(out)["set"] == ["(2,(00))", "(10,(0000000000))"]


class TestExactAndRadius:
    def test_exact_output(self, capsys):
        code, out = run(capsys, "exact", "--C", "3", "--L", "2", "--k", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["gamma"] == 2
        assert doc["witness"] == ["(1,(0))", "(1,(1))"]
        assert doc["exhausted"] is True

    def test_radius_output(self, capsys):
        code, out = run(capsys, "radius", "--C", "3", "--L", "2", "--k", "3")
        assert code == 0
        assert json.loads(out)["radius"] == 2

    def test_progress_goes_to_stderr(self, capsys):
        argv = ["exact", "--C", "3", "--L", "3", "--k", "1"]
        _, plain = run(capsys, *argv)
        code = main(argv + ["--progress"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out == plain
        assert captured.err == ("size 3: 4180/9880 subsets checked\n"
                                "size 3: 9180/9880 subsets checked\n")

    def test_budget_exhausted_exit_3(self, capsys):
        code, _ = run(capsys, "exact", "--C", "3", "--L", "3", "--k", "1",
                      "--budget", "50")
        assert code == 3

    @pytest.mark.parametrize("verb", ["exact", "radius", "check-paper"])
    def test_threads_flag_rejected(self, capsys, verb):
        argv = [verb, "--threads", "4"]
        if verb != "check-paper":
            argv += ["--C", "2", "--L", "2", "--k", "1"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err


class TestTextFormat:
    def test_radius_example(self, capsys):
        code, out = run(capsys, "radius", "--C", "3", "--L", "2", "--k", "3", "--format", "text")
        assert code == 0
        assert out == "C: 3\nL: 2\nk: 3\nradius: 2\n"

    @pytest.mark.parametrize("argv", [
        ["construct", "--C", "3", "--L", "2", "--k", "1"],
        ["verify", "--C", "3", "--L", "2", "--k", "1", "--set", "(1,(1));(1,(2))"],
        ["exact", "--C", "3", "--L", "2", "--k", "1"],
        ["radius", "--C", "3", "--L", "2", "--k", "1"],
        ["trace", "--C", "2", "--L", "2", "--k", "1", "--set", "(1,(1))"],
    ], ids=lambda argv: argv[0])
    def test_one_line_per_json_key(self, capsys, argv):
        _, json_out = run(capsys, *argv)
        code, text_out = run(capsys, *argv, "--format", "text")
        assert code == 0
        expected = [f"{key}: {json.dumps(value)}" for key, value in json.loads(json_out).items()]
        assert text_out.splitlines() == expected


class TestTrace:
    def test_trace_matches_schema(self, capsys):
        code, out = run(capsys, "trace", "--C", "2", "--L", "2", "--k", "1",
                        "--set", "(1,(1))")
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"k", "seed", "rounds", "radius"}
        assert doc["radius"] == 3
        assert doc["rounds"][0] == ["(0,(1))", "(1,(0))", "(1,(1))", "(2,(10))", "(2,(11))"]
        assert len(doc["rounds"]) == 3

    @pytest.mark.parametrize("argv,golden", [
        (["construct", "--C", "3", "--L", "5", "--k", "2"], "construct_C3_L5_k2.json"),
        (["trace", "--C", "3", "--L", "4", "--k", "2", "--set", "(3,(000))"],
         "trace_stuck_C3_L4_k2.json"),
    ], ids=["spine-construct", "stuck-trace"])
    def test_trace_output_matches_golden_file(self, capsys, argv, golden):
        # A 31-round spine certificate and a stuck run whose last round repeats.
        code, out = run(capsys, *argv)
        assert code == 0
        assert out.encode("utf-8") == (DATA / golden).read_bytes()


class TestCheckPaper:
    def test_full_report_passes(self, capsys):
        code, out = run(capsys, "check-paper")
        assert code == 0
        assert "fail" not in out
        assert "skipped-budget" not in out
        assert "[         match]  lower bound WKP(4,3) k=1" in out

    def test_json_report_is_deterministic(self, capsys):
        code, out = run(capsys, "check-paper", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["failures"] == 0
        statuses = {row["status"] for row in doc["rows"]}
        assert statuses <= {"match", "bound-holds"}
        code2, out2 = run(capsys, "check-paper", "--format", "json")
        assert (code2, out2) == (code, out)

    def test_json_report_matches_golden_file(self, capsys, monkeypatch):
        # Refactors must leave every row byte-identical; a row may only change
        # together with this file when the claim it checks gets stronger.
        monkeypatch.delenv("WKPDOM_MAX_CHECKS", raising=False)
        code, out = run(capsys, "check-paper", "--format", "json")
        assert code == 0
        assert out.encode("utf-8") == GOLDEN_REPORT.read_bytes()

    def test_tiny_budget_exits_cleanly(self, capsys, monkeypatch):
        monkeypatch.setenv("WKPDOM_MAX_CHECKS", "abc")  # the flag wins over the env
        code = main(["check-paper", "--budget", "1"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.startswith("error: budget of 1 checks exhausted")
        assert captured.err.count("\n") == 1


class TestVertexCap:
    @pytest.mark.parametrize("L", [10 ** 5, 10 ** 9])
    @pytest.mark.parametrize("argv", [
        ["gen", "--family", "wk", "--C", "2"],
        ["gen", "--family", "wkp", "--C", "2"],
        ["construct", "--C", "3", "--k", "1"],
        ["exact", "--C", "3", "--k", "1"],
        ["radius", "--C", "2", "--k", "1"],
        ["verify", "--C", "3", "--k", "1", "--set", "(0,(1))"],
        ["trace", "--C", "3", "--k", "1", "--set", "(0,(1))"],
    ], ids=lambda argv: "-".join(argv[:2] if argv[0] != "gen" else argv[:3]))
    def test_huge_level_is_one_error_line(self, capsys, monkeypatch, argv, L):
        # C^L has far more than 4300 digits; it must be neither printed nor computed.
        monkeypatch.delenv("WKPDOM_MAX_VERTICES", raising=False)
        start = time.perf_counter()
        code = main(argv + ["--L", str(L)])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("error: ")
        assert f"({argv[argv.index('--C') + 1]},{L})" in captured.err
        assert "cap of 100000" in captured.err
        assert elapsed < 0.5


class TestEnvOverrides:
    def test_budget_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("WKPDOM_MAX_CHECKS", "50")
        code, _ = run(capsys, "exact", "--C", "3", "--L", "3", "--k", "1")
        assert code == 3

    def test_vertex_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("WKPDOM_MAX_VERTICES", "10")
        code, _ = run(capsys, "gen", "--C", "3", "--L", "2")
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["gen", "--C", "3", "--L", "2"],
        ["construct", "--C", "3", "--L", "2", "--k", "1"],
        ["verify", "--C", "3", "--L", "2", "--k", "1", "--set", "(0,(1))"],
        ["radius", "--C", "2", "--L", "2", "--k", "1"],
    ], ids=lambda argv: argv[0])
    def test_non_integer_vertex_cap_exit_2(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("WKPDOM_MAX_VERTICES", "1e5")
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: WKPDOM_MAX_VERTICES must be an integer, got '1e5'\n"

    def test_flag_beats_vertex_cap_env(self, capsys, monkeypatch):
        monkeypatch.setenv("WKPDOM_MAX_VERTICES", "10")
        code, _ = run(capsys, "verify", "--C", "3", "--L", "2", "--k", "1",
                      "--set", "(0,(1))", "--max-vertices", "13")
        assert code == 0

    @pytest.mark.parametrize("argv,env", [
        (["construct", "--C", "3", "--L", "3", "--k", "1", "--max-vertices", "-5"], None),
        (["gen", "--C", "3", "--L", "2", "--max-vertices", "0"], None),
        (["verify", "--C", "3", "--L", "2", "--k", "1", "--set", "(0,(1))"], "-3"),
        (["gen", "--family", "wk", "--C", "3", "--L", "2"], "0"),
    ], ids=["construct-flag", "gen-flag", "verify-env", "gen-wk-env"])
    def test_vertex_cap_below_one_exit_2(self, capsys, monkeypatch, argv, env):
        # Not "has more vertices than the cap of -5": no graph fits a cap below 1.
        if env is None:
            monkeypatch.delenv("WKPDOM_MAX_VERTICES", raising=False)
        else:
            monkeypatch.setenv("WKPDOM_MAX_VERTICES", env)
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        value = argv[-1] if env is None else env
        assert captured.err == ("error: --max-vertices or WKPDOM_MAX_VERTICES must be at least 1, "
                                f"got {value}\n")

    @pytest.mark.parametrize("argv,env", [
        (["exact", "--C", "2", "--L", "2", "--k", "1", "--budget", "0"], None),
        (["radius", "--C", "2", "--L", "2", "--k", "1", "--budget", "-1"], None),
        (["check-paper"], "0"),
    ], ids=["exact", "radius", "check-paper"])
    def test_budget_below_one_exit_2(self, capsys, monkeypatch, argv, env):
        if env is None:
            monkeypatch.delenv("WKPDOM_MAX_CHECKS", raising=False)
        else:
            monkeypatch.setenv("WKPDOM_MAX_CHECKS", env)
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        value = argv[-1] if env is None else env
        assert captured.err == f"error: --budget or WKPDOM_MAX_CHECKS must be at least 1, got {value}\n"

    @pytest.mark.parametrize("flag,name,argv", [
        ("--budget", "WKPDOM_MAX_CHECKS", ["exact", "--C", "2", "--L", "2", "--k", "1"]),
        ("--max-vertices", "WKPDOM_MAX_VERTICES", ["gen", "--C", "2", "--L", "2"]),
    ], ids=["budget", "vertex-cap"])
    @pytest.mark.parametrize("by", ["flag", "env"])
    def test_setting_below_one_names_the_users_input(self, capsys, monkeypatch,
                                                     flag, name, argv, by):
        # The message names the flag and the variable, not the library's attribute.
        monkeypatch.delenv(name, raising=False)
        if by == "flag":
            argv = [*argv, flag, "0"]
        else:
            monkeypatch.setenv(name, "0")
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert err == f"error: {flag} or {name} must be at least 1, got 0\n"

    @pytest.mark.parametrize("argv", [["check-paper"],
                                      ["exact", "--C", "2", "--L", "2", "--k", "1"]])
    def test_non_integer_budget_exit_2(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("WKPDOM_MAX_CHECKS", "abc")
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: WKPDOM_MAX_CHECKS must be an integer, got 'abc'\n"
