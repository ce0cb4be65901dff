"""CLI behavior: exit codes, stream separation, JSON stability."""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import time
from math import comb, log10
from pathlib import Path

import pytest

from clutterlab import cli, homology, invariants
from clutterlab.cli import main

EX_TEXT = "5 3\n1 2 3\n1 2 4\n1 3 4\n2 3 4\n1 4 5\n"
CYCLE_TEXT = "4 2\n1 2\n2 3\n3 4\n1 4\n"


@pytest.fixture
def ex_file(tmp_path):
    p = tmp_path / "ex.txt"
    p.write_text(EX_TEXT)
    return str(p)


@pytest.fixture
def cycle_file(tmp_path):
    p = tmp_path / "cycle.txt"
    p.write_text(CYCLE_TEXT)
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_chordal(ex_file, capsys):
    code, out, err = run(capsys, "check", ex_file)
    assert code == 0
    assert "chordal: yes" in out
    assert "lambda: [3, 1]" in out
    assert err == ""


def test_check_not_chordal(cycle_file, capsys):
    code, out, _ = run(capsys, "check", cycle_file)
    assert code == 1
    assert "chordal: no" in out


def test_check_json_schema(ex_file, capsys):
    code, out, _ = run(capsys, "check", ex_file, "--json")
    assert code == 0
    report = json.loads(out)
    assert report["schema"] == "clutterlab-report/1"
    assert report["chordal"] is True
    assert report["multiset"] == [1, 1, 1, 2]
    assert report["lambda"] == [3, 1]
    assert report["input"]["circuits"][0] == [1, 2, 3]


def test_check_json_round_trips(ex_file, tmp_path, capsys):
    _, out, _ = run(capsys, "check", ex_file, "--json")
    report = json.loads(out)
    echo = tmp_path / "echo.json"
    echo.write_text(json.dumps(report["input"]))
    code, out2, _ = run(capsys, "check", str(echo), "--json")
    assert code == 0
    assert json.loads(out2) == report


@pytest.mark.parametrize("command", ["check", "invariants"])
def test_check_inconclusive_budget(ex_file, capsys, command):
    code, out, err = run(capsys, command, ex_file, "--max-states", "0")
    assert code == 2
    assert "inconclusive" in err
    assert out == ""


@pytest.mark.parametrize("command", ["check", "invariants"])
def test_negative_budget_is_bad_input(ex_file, capsys, command):
    code, out, err = run(capsys, command, ex_file, "--max-states", "-3")
    assert code == 64
    assert out == ""
    assert "--max-states" in err and "inconclusive" not in err


def test_check_missing_file(capsys):
    code, _, err = run(capsys, "check", "/no/such/file")
    assert code == 64
    assert "error" in err


def test_check_parse_error_line_number(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("5 3\n1 2\n")
    code, _, err = run(capsys, "check", str(bad))
    assert code == 64
    assert "line 2" in err


@pytest.mark.parametrize("name, data, message", [
    ("utf16.txt", b"\xff\xfe5\x003\x00\n\x00", "'utf-8' codec can't decode byte 0xff"),
    ("deep.json", b'{"n": ' + b"[" * 100000 + b"]" * 100000 + b"}", "invalid JSON: "),
])
def test_malformed_files_are_bad_input(tmp_path, capsys, name, data, message):
    bad = tmp_path / name
    bad.write_bytes(data)
    for command in ("check", "invariants"):
        start = time.perf_counter()
        code, out, err = run(capsys, command, str(bad))
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (64, "")
        assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("name", ["bom.txt", "bom.json"])
def test_check_reads_a_utf8_byte_order_mark(tmp_path, capsys, name):
    plain = tmp_path / "plain.txt"
    plain.write_text(EX_TEXT)
    code, report, err = run(capsys, "check", str(plain), "--json")
    assert (code, err) == (0, "")
    # the same clutter, as text or as the report's JSON input, after EF BB BF;
    # such a file used to exit 64 with "non-integer token in '\ufeff5 3'"
    data = EX_TEXT if name == "bom.txt" else json.dumps(json.loads(report)["input"])
    bom = tmp_path / name
    bom.write_bytes(b"\xef\xbb\xbf" + data.encode())
    assert run(capsys, "check", str(bom), "--json") == (0, report, "")


def test_check_rejects_json_booleans(tmp_path, capsys):
    bad = tmp_path / "bool.json"
    bad.write_text('{"n": true, "d": true, "circuits": [[true]]}')
    code, out, err = run(capsys, "check", str(bad), "--json")
    assert code == 64
    assert out == ""
    assert "must be integers" in err


def test_invariants_human(ex_file, capsys):
    code, out, err = run(capsys, "invariants", ex_file)
    assert code == 0
    assert "f-vector: [1, 5, 10, 5, 1]" in out
    assert "h-vector: [1, 1, 1, -4, 2]" in out
    assert "betti: [5, 6, 2]" in out
    assert err == ""


def test_invariants_flag_subset(ex_file, capsys):
    code, out, _ = run(capsys, "invariants", ex_file, "--f")
    assert code == 0
    assert "f-vector" in out
    assert "h-vector" not in out


def test_invariants_json(ex_file, capsys):
    code, out, _ = run(capsys, "invariants", ex_file, "--json")
    assert code == 0
    report = json.loads(out)
    assert report["f"] == [1, 5, 10, 5, 1]
    assert report["h"] == [1, 1, 1, -4, 2]
    assert report["betti"] == [5, 6, 2]
    assert report["projective_dimension"] == 2
    assert report["multiplicity"] == 5
    assert report["macaulay"]["l_sequence"] == [1, 2, 2]
    # internal consistency: sum of lambda is the circuit count
    lam = report["lambda"]
    assert sum((i + 1) * v for i, v in enumerate(lam)) == len(
        report["input"]["circuits"])


def test_invariants_verify(ex_file, capsys):
    code, out, _ = run(capsys, "invariants", ex_file, "--verify", "--json")
    assert code == 0
    verify = json.loads(out)["verify"]
    assert verify["agreement"] is True
    assert verify["f_direct"] == [1, 5, 10, 5, 1]
    assert verify["betti_oracle"] == [5, 6, 2]
    assert verify["linear_resolution"] is True


def test_invariants_verify_skipped_above_oracle_cap(tmp_path, capsys, monkeypatch):
    # 13 vertices is past the Hochster oracle's default cap of 12
    monkeypatch.delenv("CLUTTERLAB_MAX_N", raising=False)
    p = tmp_path / "path13.txt"
    p.write_text("13 2\n" + "".join(f"{v} {v + 1}\n" for v in range(1, 13)))
    code, out, err = run(capsys, "invariants", str(p), "--verify", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["chordal"] is True and report["f"] == [1, 13, 12]
    assert "capped at 12" in report["verify"]["skipped"]
    assert len(err.splitlines()) == 1 and "skipped" in err
    code, out, _ = run(capsys, "invariants", str(p), "--verify")
    assert code == 0
    assert "verify: skipped (hochster_betti oracle capped at 12" in out


def test_invariants_verify_checks_the_hochster_cap_first(tmp_path, capsys, monkeypatch):
    # 13 vertices is past the Hochster cap but within the f oracle's cap
    # of 20: the skipped run must not enumerate the clique complex
    monkeypatch.delenv("CLUTTERLAB_MAX_N", raising=False)
    calls = []
    monkeypatch.setattr(cli, "f_vector_direct", calls.append)
    p = tmp_path / "k13.txt"
    assert main(["generate", "complete", "13", "3", "-o", str(p)]) == 0
    code, out, _ = run(capsys, "invariants", str(p), "--verify", "--json")
    assert code == 0
    assert json.loads(out)["verify"] == {
        "skipped": "hochster_betti oracle capped at 12 vertices, got 13; "
                   "set CLUTTERLAB_MAX_N or pass max_n to raise the cap"}
    assert calls == []


def test_invariants_verify_above_both_caps_is_quick(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("CLUTTERLAB_MAX_N", raising=False)
    p = tmp_path / "k18.txt"
    assert main(["generate", "complete", "18", "3", "-o", str(p)]) == 0
    start = time.perf_counter()
    code, out, _ = run(capsys, "invariants", str(p), "--verify", "--json")
    assert time.perf_counter() - start < 1.0
    assert code == 0 and "hochster_betti oracle capped" in json.loads(out)["verify"]["skipped"]


def test_invariants_verify_builds_one_complex(ex_file, capsys, monkeypatch):
    # Both oracles read the complex that cmd_invariants builds; neither
    # builds its own.
    built = []

    def counted(grow):
        def faces(*args, **kwargs):
            built.append(args[1])
            return grow(*args, **kwargs)
        return faces
    for owner in (cli, homology, invariants):
        monkeypatch.setattr(owner, "clique_complex_faces", counted(owner.clique_complex_faces))
    code, out, _ = run(capsys, "invariants", ex_file, "--verify", "--json")
    assert code == 0 and json.loads(out)["verify"]["agreement"] is True
    assert [list(w) for w in built] == [[1, 2, 3, 4, 5]]


def test_invariants_verify_walks_the_chain_once(ex_file, capsys, monkeypatch):
    # One job builds f once and h once, in cli or inside the composites.
    calls = []

    def counted(name, step):
        def wrapper(*args):
            calls.append(name)
            return step(*args)
        return wrapper
    for owner in (cli, invariants):
        for name in ("f_vector_from_multiset", "h_from_f"):
            monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
    code, out, _ = run(capsys, "invariants", ex_file, "--verify", "--json")
    report = json.loads(out)
    assert code == 0 and report["verify"]["agreement"] is True
    assert report["h"] == [1, 1, 1, -4, 2] and report["betti"] == [5, 6, 2]
    assert sorted(calls) == ["f_vector_from_multiset", "h_from_f"]


def test_invariants_verify_caps_before_building(tmp_path, capsys, monkeypatch):
    # Above Hochster's cap nothing is enumerated, and the skip text is
    # the oracle's own.
    monkeypatch.setenv("CLUTTERLAB_MAX_N", "4")
    monkeypatch.setattr(cli, "clique_complex_faces", None)  # a call would raise
    p = tmp_path / "ex.txt"
    p.write_text(EX_TEXT)
    code, out, err = run(capsys, "invariants", str(p), "--verify", "--json")
    skipped = ("hochster_betti oracle capped at 4 vertices, got 5; "
               "set CLUTTERLAB_MAX_N or pass max_n to raise the cap")
    assert code == 0 and json.loads(out)["verify"] == {"skipped": skipped}
    assert err == f"verify skipped: {skipped}\n"


@pytest.mark.parametrize("name, wrong", [
    ("f_vector_direct", lambda clutter, faces: (1, 5, 10, 5, 2)),
    ("betti_from_h", lambda n, d, h, delta: (5, 6, 3)),
])
def test_invariants_verify_mismatch(ex_file, capsys, monkeypatch, name, wrong):
    # a disagreement on either side is reported and exits 1
    monkeypatch.setattr(cli, name, wrong)
    code, out, err = run(capsys, "invariants", ex_file, "--verify", "--json")
    assert code == 1
    assert json.loads(out)["verify"]["agreement"] is False
    assert "VERIFICATION MISMATCH" in err


def test_invariants_verify_skipped_on_malformed_cap(ex_file, capsys, monkeypatch):
    monkeypatch.setenv("CLUTTERLAB_MAX_N", "abc")
    code, out, err = run(capsys, "invariants", ex_file, "--verify", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["f"] == [1, 5, 10, 5, 1] and report["betti"] == [5, 6, 2]
    assert report["verify"] == {
        "skipped": "CLUTTERLAB_MAX_N must be an integer, got 'abc'"}
    assert err == "verify skipped: CLUTTERLAB_MAX_N must be an integer, got 'abc'\n"


def test_invariants_verify_complete_clutter(tmp_path, capsys):
    # K(4,3): the circuit ideal is zero, so the formula has no Betti
    # sequence and the oracle finds none; the two still agree
    p = tmp_path / "k43.txt"
    p.write_text("4 3\n1 2 3\n1 2 4\n1 3 4\n2 3 4\n")
    code, out, err = run(capsys, "invariants", str(p), "--verify", "--json")
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["betti"] is None
    assert report["betti_note"] == (
        "complete clutter: the circuit ideal is zero and has no Betti sequence")
    assert "projective_dimension" not in report
    assert report["verify"]["betti_oracle"] == []
    assert report["verify"]["f_direct"] == report["f"] == [1, 4, 6, 4, 1]
    assert report["verify"]["agreement"] is True


@pytest.mark.parametrize("flag", ["--f", "--h", "--betti"])
def test_invariants_verify_block_ignores_flags(ex_file, capsys, flag):
    _, out, _ = run(capsys, "invariants", ex_file, "--verify", "--json")
    full = json.loads(out)
    code, out, _ = run(capsys, "invariants", ex_file, flag, "--verify", "--json")
    assert code == 0
    assert json.loads(out)["verify"] == full["verify"]


def test_invariants_not_chordal(cycle_file, capsys):
    code, _, err = run(capsys, "invariants", cycle_file)
    assert code == 1
    assert "not chordal" in err


def test_invariants_path_graph(tmp_path, capsys):
    p = tmp_path / "path.txt"
    p.write_text("4 2\n1 2\n2 3\n3 4\n")
    code, out, _ = run(capsys, "invariants", str(p), "--betti")
    assert code == 0
    assert "betti: [3, 2]" in out


def test_invariants_empty_clutter_on_too_few_vertices(tmp_path, capsys):
    # No 5-subset of [3] exists, so the complex is the whole 2-simplex:
    # delta is 3, not d - 1 = 4, and h is (1, 0, 0, 0).
    p = tmp_path / "empty.txt"
    p.write_text("3 5\n")
    code, out, _ = run(capsys, "invariants", str(p), "--json")
    assert code == 0
    report = json.loads(out)
    assert (report["f"], report["delta"], report["h"]) == ([1, 3, 3, 1], 3, [1, 0, 0, 0])


def test_lambda_complete(capsys):
    code, out, _ = run(capsys, "lambda", "complete", "5", "3")
    assert code == 0
    assert "[3, 2, 1]" in out


def test_lambda_max(capsys):
    code, out, _ = run(capsys, "lambda", "max", "4", "3", "1")
    assert code == 0
    assert out.strip().endswith("3")


def test_lambda_validate(capsys):
    code, out, _ = run(capsys, "lambda", "validate", "5", "3", "4,2")
    assert code == 0
    assert "[1, 1, 0]" in out
    code, out, _ = run(capsys, "lambda", "validate", "5", "3", "7,2")
    assert code == 1
    assert "invalid" in out


def test_lambda_validate_json(capsys):
    code, out, _ = run(capsys, "lambda", "validate", "5", "3", "4,2", "--json")
    assert code == 0
    blob = json.loads(out)
    assert blob["valid"] is True
    assert blob["l_sequence"] == [1, 1, 0]


def test_lambda_range_error(capsys):
    code, _, err = run(capsys, "lambda", "max", "5", "3", "9")
    assert code == 64
    assert "error" in err


def test_lambda_validate_garbage(capsys):
    code, _, err = run(capsys, "lambda", "validate", "5", "3", "a,b")
    assert code == 64
    assert "error" in err


@pytest.mark.parametrize("n, d", [("3", "4"), ("3", "3"), ("6", "0")])
def test_lambda_validate_refuses_bad_parameters(capsys, n, d):
    # a bad argument, not a lambda that fails validation
    code, out, err = run(capsys, "lambda", "validate", n, d, "")
    assert (code, out) == (64, "")
    assert err == f"error: need 1 <= d < n, got d={d}, n={n}\n"


def test_generate_complete_stdout(capsys):
    code, out, _ = run(capsys, "generate", "complete", "4", "3")
    assert code == 0
    assert out.splitlines()[0] == "4 3"
    assert len(out.splitlines()) == 5


def test_generate_extremal_file_round_trip(tmp_path, capsys):
    target = tmp_path / "ext.txt"
    code, out, err = run(capsys, "generate", "extremal", "5", "3", "1",
                         "-o", str(target))
    assert code == 0
    assert out == ""
    assert "wrote" in err
    code, out, _ = run(capsys, "check", str(target), "--json")
    assert code == 0
    assert json.loads(out)["lambda"] == [6]


def test_generate_json_form(capsys, tmp_path):
    code, out, _ = run(capsys, "generate", "complete", "4", "3", "--json")
    assert code == 0
    blob = json.loads(out)
    assert blob["n"] == 4 and len(blob["circuits"]) == 4
    # the JSON clutter form is accepted back by check
    p = tmp_path / "k.json"
    p.write_text(out)
    assert main(["check", str(p)]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("target", ["missing/x.txt", "."])
def test_generate_to_unwritable_path_is_bad_input(tmp_path, capsys, monkeypatch, target):
    monkeypatch.chdir(tmp_path)
    start = time.perf_counter()
    code, out, err = run(capsys, "generate", "complete", "5", "3", "-o", target)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (64, "")
    assert err.startswith(f"error: cannot write {target}: ")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("generate", "complete", "60", "6"),
    ("generate", "extremal", "60", "6", "1"),
    ("lambda", "max", "1000000", "500000", "3"),
    ("lambda", "profile", "200000", "100000", "50"),
    ("lambda", "complete", "100000", "50000"),
    ("lambda", "validate", "100000", "50000", "1"),
    ("lambda", "complete", "3000000", "3"),
    ("lambda", "validate", "3000000", "3", "1"),
])
def test_oversized_requests_are_refused_up_front(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 64 and out == ""
    cap = (cli.GENERATE_MAX_CIRCUITS if argv[0] == "generate" else
           cli.LAMBDA_MAX_OUTPUT if argv[2] == "3000000" else cli.LAMBDA_MAX_DIGITS)
    assert err.startswith("error: ") and f"cap of {cap} " in err


def test_generate_cap_boundary(capsys, monkeypatch):
    monkeypatch.setattr(cli, "GENERATE_MAX_CIRCUITS", 10)
    code, out, _ = run(capsys, "generate", "complete", "5", "2")  # C(5, 2) = 10
    assert code == 0 and len(out.splitlines()) == 11
    code, _, err = run(capsys, "generate", "extremal", "6", "2", "1")
    assert code == 64
    assert err == "error: C(6, 2) = 15 exceeds the generate cap of 10 circuits\n"
    # parameters the generators reject keep their own message
    code, _, err = run(capsys, "generate", "complete", "5", "-1")
    assert code == 64 and "positive uniformity" in err


def test_lambda_cap_boundary(capsys, monkeypatch):
    monkeypatch.setattr(cli, "LAMBDA_MAX_DIGITS", 3)
    code, out, _ = run(capsys, "lambda", "max", "46", "3", "1")  # C(45, 2) = 990
    assert code == 0 and out.endswith(": 990\n")
    code, out, _ = run(capsys, "lambda", "complete", "47", "4")  # C(45, 2) first
    assert code == 0 and out.startswith("lambda of the complete clutter: [990, ")
    # C(46, 2) = 1035; the profile's first entry C(47, 2) = 1081 is its largest
    for argv in (("max", "47", "3", "1"), ("complete", "48", "4"),
                 ("profile", "47", "3", "1"), ("profile", "49", "4", "45"),
                 ("validate", "47", "3", "1")):
        code, out, err = run(capsys, "lambda", *argv)
        assert code == 64 and out == "" and "cap of 3 digits" in err, argv


def test_lambda_output_cap_boundary(capsys, monkeypatch):
    monkeypatch.setattr(cli, "LAMBDA_MAX_OUTPUT", 12)
    # 6 entries of at most 2 digits, C(7, 2) = 21 the largest: 12 digits
    code, out, _ = run(capsys, "lambda", "complete", "9", "4")
    assert code == 0 and out == "lambda of the complete clutter: [21, 15, 10, 6, 3, 1]\n"
    # SEQ's 1 entry beside an l-sequence of 5, C(7, 3) = 35 the largest: 12 digits
    code, out, _ = run(capsys, "lambda", "validate", "8", "4", "3")
    assert code == 0 and out.startswith("valid: ")
    for argv, entries in ((("complete", "10", "4"), 7), (("validate", "8", "4", "3,1"), 7),
                          (("profile", "20", "3", "7"), 7)):
        code, out, err = run(capsys, "lambda", *argv)
        assert (code, out) == (64, ""), argv
        assert err == (f"error: the answer would print {entries} numbers, over the "
                       "lambda output cap of 12 digits\n"), argv
    code, out, _ = run(capsys, "lambda", "profile", "20", "3", "6")  # 6 of 2 digits
    assert code == 0


def test_binomial_digit_estimate():
    for m, k in [(45, 2), (46, 44), (1000, 500), (10**6, 3), (10**12, 600),
                 (10**12 + 1, 449), (10**20, 5), (10**400, 2)]:
        exact = log10(comb(m, k))
        assert abs(cli._log10_binom(m, k) - exact) < 0.01, (m, k)
    assert cli._log10_binom(10**12 + 1, 450) == float("inf")
    assert log10(comb(10**12 + 1, 450)) > 4000
    for m, k in [(5, -1), (5, 6), (-3, 1)]:
        assert cli._log10_binom(m, k) == float("-inf")


@pytest.mark.parametrize("exc", [MemoryError, RecursionError])
def test_resource_exhaustion_is_inconclusive(capsys, monkeypatch, exc):
    def exhausted(*args):
        raise exc

    monkeypatch.setattr(cli, "complete_clutter", exhausted)
    code, out, err = run(capsys, "generate", "complete", "4", "3")
    assert (code, out, err) == (2, "", f"inconclusive: {exc.__name__}\n")


class ClosedPipe(io.StringIO):
    """An in-process stdout whose reader has gone away."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("argv", [
    ["check", "EX", "--json"], ["check", "CYCLE"], ["invariants", "EX", "--json"],
    ["lambda", "complete", "6", "3", "--json"], ["lambda", "validate", "5", "3", "9"],
    ["generate", "complete", "5", "3"]])
def test_closed_stdout_exits_2_in_process(ex_file, cycle_file, capsys, monkeypatch,
                                          argv):
    # 1 would read as "not chordal"; no answer reached the reader, so 2
    files = {"EX": ex_file, "CYCLE": cycle_file}
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert main([files.get(a, a) for a in argv]) == 2
    assert capsys.readouterr().err == ""


def test_closed_pipe_exits_2_without_a_traceback():
    # about 1 MB of report, far more than a pipe buffers
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.Popen(
        [sys.executable, "-m", "clutterlab.cli", "lambda", "complete", "90000", "3",
         "--json"], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.read(1) == b"{"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (2, b"")


def test_unknown_arguments(capsys):
    code, _, err = run(capsys, "check")
    assert code == 64
    assert "error" in err
    code, _, err = run(capsys, "frobnicate")
    assert code == 64


def _mixed_calls(ex_file, cycle_file, out_file) -> list[list[str]]:
    """About 50 argv lists over every subcommand, usage errors and --version."""
    calls = [["check", ex_file], ["check", cycle_file, "--json"],
             ["check", ex_file, "--max-states", "0"],
             ["invariants", ex_file, "--json"], ["invariants", ex_file, "--verify"],
             ["invariants", cycle_file],
             ["lambda", "max", "6", "3", "1"], ["lambda", "profile", "8", "3", "4"],
             ["lambda", "complete", "6", "3", "--json"],
             ["lambda", "validate", "5", "3", "4,2"], ["lambda", "validate", "5", "3", "9"],
             ["generate", "complete", "5", "3"],
             ["generate", "extremal", "6", "3", "2", "--json", "-o", out_file],
             ["--version"], [], ["check"], ["frobnicate"], ["lambda", "max", "6", "3"],
             ["check", ex_file, "--bogus"], ["invariants", ex_file, "--max-states", "x"],
             ["generate", "complete", "5", "-1"], ["lambda", "max", "x", "3", "1"]]
    return (calls * 3)[:50]


def _call(argv) -> int:
    try:
        return main(argv)
    except SystemExit as exc:  # --version exits through argparse
        return exc.code


def test_parser_is_built_once_per_process(ex_file, cycle_file, tmp_path, capsys,
                                          monkeypatch):
    built = []
    original = cli.Parser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        original(self, *args, **kwargs)

    monkeypatch.setattr(cli.Parser, "__init__", counting_init)
    cli._build_parser.__wrapped__()
    one_tree = len(built)  # the top-level parser and its subparsers
    built.clear()
    cli._build_parser.cache_clear()
    calls = _mixed_calls(ex_file, cycle_file, str(tmp_path / "ext.json"))
    well_formed = calls[:calls.index(["--version"])]  # every call before it
    codes = [_call(argv) for argv in well_formed]
    assert built == []  # a well-formed call builds no tree
    codes += [_call(argv) for argv in calls]
    capsys.readouterr()
    assert set(codes) == {0, 1, 2, 64}
    assert built.count("clutterlab") == 1
    assert len(built) == one_tree


def test_help_follows_the_width_of_each_call(capsys, monkeypatch):
    assert _call(["--version"]) == 0  # the cached tree exists before any width is set
    capsys.readouterr()
    seen = []
    for columns in ("40", "120"):
        monkeypatch.setenv("COLUMNS", columns)
        assert _call(["--help"]) == 0
        out = capsys.readouterr().out
        assert out == cli._build_parser.__wrapped__().format_help()
        seen.append(out)
    assert seen[0] != seen[1]
