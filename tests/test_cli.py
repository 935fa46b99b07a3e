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
        monkeypatch.setattr(cli, "construct_kpds",
                            lambda C, L, k: ({(0, 0)}, "level2"))
        code = main(["construct", "--C", "3", "--L", "2", "--k", "1"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "failed verification" in captured.err


class TestBrokenPipe:
    def test_closed_stdout_ends_without_traceback(self, capsys, monkeypatch):
        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def flush(self):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        code = main(["construct", "--C", "4", "--L", "5", "--k", "3"])
        assert code == cli.EXIT_PIPE
        # What is left to print, and the interpreter's last flush, go nowhere.
        print("discarded")
        sys.stdout.flush()
        sys.stdout.close()
        assert capsys.readouterr().err == ""

    def test_reader_closing_early_exits_quietly(self):
        # A process whose reader is gone before the certificate is written,
        # like `wkpdom construct ... | head -c 100`.
        src = Path(cli.__file__).resolve().parent.parent
        proc = subprocess.Popen(
            [sys.executable, "-m", "wkpdom.cli", "construct", "--C", "4", "--L", "5", "--k", "3"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": str(src)})
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == cli.EXIT_PIPE
        assert err == b""


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

    def test_flag_beats_vertex_cap_env(self, capsys, monkeypatch):
        monkeypatch.setenv("WKPDOM_MAX_VERTICES", "10")
        code, _ = run(capsys, "verify", "--C", "3", "--L", "2", "--k", "1",
                      "--set", "(0,(1))", "--max-vertices", "13")
        assert code == 0

    @pytest.mark.parametrize("argv", [["check-paper"],
                                      ["exact", "--C", "2", "--L", "2", "--k", "1"]])
    def test_non_integer_budget_exit_2(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("WKPDOM_MAX_CHECKS", "abc")
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: WKPDOM_MAX_CHECKS must be an integer, got 'abc'\n"
