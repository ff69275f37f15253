"""Command-line behavior: golden outputs, formats, exit codes."""

import os
import subprocess
import sys

import pytest

from compalg.cli import main

HERE = os.path.dirname(__file__)
DATA = os.path.join(HERE, "data")
GOLDEN = os.path.join(HERE, "golden")
FIG = os.path.join(DATA, "fig.dsl")


def run_cli(*args, expect: int = 0):
    proc = subprocess.run(
        [sys.executable, "-m", "compalg", *args],
        capture_output=True, text=True)
    assert proc.returncode == expect, proc.stderr
    return proc


def golden(name: str) -> str:
    with open(os.path.join(GOLDEN, name), "r", encoding="utf-8") as fh:
        return fh.read()


def test_golden_classify():
    proc = run_cli("-w", FIG, "classify", "cyc")
    assert proc.stdout == golden("classify_cyc.golden")


def test_golden_verify_algebra_octonions():
    proc = run_cli("verify-algebra", "O")
    assert proc.stdout == golden("verify_O.golden")


def test_golden_enumerate_partitions_count():
    proc = run_cli("-w", FIG, "enumerate", "partitions", "G3", "--count-only")
    assert proc.stdout == golden("enumerate_partitions_count.golden")


def test_normalize_removes_redundancy():
    proc = run_cli("-w", FIG, "normalize", "wobble")
    assert '"results":[["m1"],["m1"]]' in proc.stdout


def test_prob_command():
    proc = run_cli("-w", FIG, "prob", "cyc", "--assignment", "amp", expect=2)
    assert "SequenceMismatch" in proc.stderr
    # a path the assignment covers
    proc = run_cli("-w", FIG, "sum-rule", "two", "--assignment", "amp",
                   "--source", "{n1}")
    assert proc.stdout == '{"total_probability":1}\n'


def test_sample_csv_shape():
    proc = run_cli("-w", FIG, "sample", "two", "--assignment", "amp",
                   "--source", "{n1}", "-n", "100", "--seed", "5")
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "path,count,probability"
    assert len(lines) == 4  # three target outcomes
    counts = [int(line.rsplit(",", 2)[1]) for line in lines[1:]]
    assert sum(counts) == 100
    again = run_cli("-w", FIG, "sample", "two", "--assignment", "amp",
                    "--source", "{n1}", "-n", "100", "--seed", "5")
    assert again.stdout == proc.stdout


def test_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.dsl"
    bad.write_text("measurement M over NOWHERE = {{a}}\n")
    proc = run_cli("-w", str(bad), "classify", "x", expect=1)
    assert "unknown ground set" in proc.stderr


def test_operation_error_exit_code():
    proc = run_cli("-w", FIG, "chain", "cyc", "wobble", expect=2)
    assert "ChainMismatch" in proc.stderr


def test_text_format():
    proc = run_cli("-w", FIG, "classify", "cyc", "--format", "text")
    assert "cyclic: True" in proc.stdout


def test_reverse_and_factorize():
    proc = run_cli("-w", FIG, "reverse", "cyc")
    assert '"results":[["n1"],["m1"],["o1"],["m1"],["n1"]]' in proc.stdout
    proc = run_cli("-w", FIG, "factorize", "cyc")
    assert proc.stdout.count('"steps"') == 3


def test_distribution_failure_exit_code(tmp_path):
    doc = tmp_path / "w.dsl"
    mat = tmp_path / "m.json"
    doc.write_text(
        'elements S = {s}\n'
        'measurement aS over S = {{s}}\n'
        'elements D = {u, v}\n'
        'measurement aD over D = {{u}, {v}}\n'
        'sequence two = [aS, aD]\n'
        'assignment amp over two algebra C\' from "m.json"\n')
    mat.write_text('{"steps": [{"from": "aS", "to": "aD", "matrix": '
                   '[[["1", 0], ["2", 0]]]}]}')
    proc = run_cli("-w", str(doc), "sample", "two", "--assignment", "amp",
                   "--source", "{s}", "-n", "10", "--seed", "1", expect=3)
    assert "sum to" in proc.stderr


def test_prob_output_shape():
    proc = run_cli("-w", FIG, "prob", "hop", "--assignment", "amp")
    assert proc.stdout == '{"amplitude":["3/5",0],"probability":"9/25"}\n'


# -- byte-exact path operations -------------------------------------------------

PATH_OPS_DSL = """\
elements G3 = {m, m1, m2}
measurement aM over G3 = {{m}, {m1}, {m2}}
measurement bM over G3 = {{m, m1}, {m2}}
measurement gM over G3 = {{m}, {m1, m2}}
elements N = {n1, n2}
measurement aN over N = {{n1}, {n2}}
elements OO = {o1, o2}
measurement aO over OO = {{o1}, {o2}}
sequence nm = [aN, aM]
sequence mo = [aM, aO]
sequence nmn = [aN, aM, aN]
sequence nbn = [aN, bM, aN]
sequence nmmn = [aN, aM, aM, aN]
sequence rep = [aM, bM, bM, gM, aM]
sequence loop = [aN, aM, aO, aM, aN]
path left over nm = [{n1}, {m}]
path right over mo = [{m}, {o1}]
path fine over nmn = [{n1}, {m}, {n1}]
path other over nmn = [{n1}, {m1}, {n1}]
path coarse over nbn = [{n1}, {m, m1}, {n1}]
path doubled over nmmn = [{n1}, {m}, {m}, {n1}]
path wobble over rep = [{m1}, {m, m1}, {m, m1}, {m1, m2}, {m1}]
path cyc over loop = [{n1}, {m1}, {o1}, {m2}, {n1}]
"""

_N = '{"blocks":[["n1"],["n2"]],"ground":["n1","n2"]}'
_M = '{"blocks":[["m"],["m1"],["m2"]],"ground":["m","m1","m2"]}'
_B = '{"blocks":[["m","m1"],["m2"]],"ground":["m","m1","m2"]}'
_O = '{"blocks":[["o1"],["o2"]],"ground":["o1","o2"]}'
_MERGED = '{"results":[["n1"],["m","m1"],["n1"]],"steps":[' + _N + ',' + _B + ',' + _N + ']}\n'

PATH_OPS = [
    (["chain", "left", "right"],
     '{"results":[["n1"],["m"],["o1"]],"steps":[' + _N + ',' + _M + ',' + _O + ']}\n',
     "Path([{n1},{m},{o1}])\n"),
    (["coarsen", "fine", "other"], _MERGED, "Path([{n1},{m,m1},{n1}])\n"),
    (["coarsen", "doubled", "other"], _MERGED, "Path([{n1},{m,m1},{n1}])\n"),
    (["refine", "coarse", "other"],
     '{"results":[["n1"],["m"],["n1"]],"steps":[' + _N + ',' + _M + ',' + _N + ']}\n',
     "Path([{n1},{m},{n1}])\n"),
    (["normalize", "wobble"],
     '{"results":[["m1"],["m1"]],"steps":[' + _M + ',' + _M + ']}\n',
     "Path([{m1},{m1}])\n"),
    (["reverse", "cyc"],
     '{"results":[["n1"],["m2"],["o1"],["m1"],["n1"]],"steps":['
     + ",".join([_N, _M, _O, _M, _N]) + ']}\n',
     "Path([{n1},{m2},{o1},{m1},{n1}])\n"),
    (["factorize", "cyc"],
     '[{"results":[["n1"],["m1"]],"steps":[' + _N + ',' + _M + ']},'
     '{"results":[["m1"],["o1"]],"steps":[' + _M + ',' + _O + ']},'
     '{"results":[["o1"],["m2"]],"steps":[' + _O + ',' + _M + ']},'
     '{"results":[["m2"],["n1"]],"steps":[' + _M + ',' + _N + ']}]\n',
     "Path([{n1},{m1}])\nPath([{m1},{o1}])\nPath([{o1},{m2}])\nPath([{m2},{n1}])\n"),
]


@pytest.mark.parametrize("argv,json_out,text_out", PATH_OPS,
                         ids=["-".join(op[0]) for op in PATH_OPS])
def test_path_operation_bytes(tmp_path, capsys, argv, json_out, text_out):
    doc = tmp_path / "ops.dsl"
    doc.write_text(PATH_OPS_DSL)
    for fmt, expected in (("json", json_out), ("text", text_out)):
        assert main(["-w", str(doc), *argv, "--format", fmt]) == 0
        assert capsys.readouterr().out == expected


def test_coarsen_over_different_grounds_is_an_operation_error(tmp_path):
    doc = tmp_path / "grounds.dsl"
    doc.write_text(
        "elements U1 = {u}\n"
        "measurement a1 over U1 = {{u}}\n"
        "elements U2 = {a, b}\n"
        "measurement c2 over U2 = {{a, b}}\n"
        "sequence s1 = [a1, a1, a1]\n"
        "sequence s2 = [a1, c2, a1]\n"
        "path p over s1 = [{u}, {u}, {u}]\n"
        "path q over s2 = [{u}, {a, b}, {u}]\n")
    proc = run_cli("-w", str(doc), "coarsen", "p", "q", expect=2)
    assert "CoarsenMismatch" in proc.stderr
    assert "Traceback" not in proc.stderr


# -- sample and sum-rule ------------------------------------------------------------

FLOAT_H_DSL = """\
elements A = {a1, a2}
measurement aA over A = {{a1}, {a2}}
elements B = {b1, b2}
measurement aB over B = {{b1}, {b2}}
measurement cB over B = {{b1, b2}}
sequence zig = [aA, aB, cB, aB, aA, aB]
assignment amp over zig algebra H from "h.json"
"""

# a unitary quaternion matrix, diag(q1, q2) . rotation . diag(q3, q4), in floats
FLOAT_H_MATRICES = """\
{"steps": [{"from": "aA", "to": "aB", "matrix": [
  [[-0.39905579532647306, 0.627087678370172, -0.0570079707609247, -0.17102391228277417],
   [0.14185206610044088, -0.03546301652511023, 0.42555619830132263, 0.4610192148264328]],
  [[0.1073696145396152, -0.3221088436188456, -0.1073696145396152, -0.536848072698076],
   [0.6590189563771923, -0.376582260786967, 0.09414556519674175, 5.551115123125783e-17]]]}]}
"""


@pytest.mark.parametrize("seed", [5, 7])
def test_sample_csv_bytes(tmp_path, capsys, seed):
    # the goldens were written by the per-path implementation this walk replaced
    assert main(["-w", FIG, "sample", "two", "--assignment", "amp",
                 "--source", "{n1}", "-n", "100", "--seed", str(seed)]) == 0
    assert capsys.readouterr().out == golden(f"sample_fig_seed{seed}.golden")
    (tmp_path / "h.dsl").write_text(FLOAT_H_DSL)
    (tmp_path / "h.json").write_text(FLOAT_H_MATRICES)
    assert main(["-w", str(tmp_path / "h.dsl"), "sample", "zig", "--assignment", "amp",
                 "--source", "{a1}", "-n", "1000", "--seed", str(seed)]) == 0
    assert capsys.readouterr().out == golden(f"sample_float_h_seed{seed}.golden")


def test_sample_seed_is_not_truncated(capsys):
    outputs = []
    for seed in ("3", str(3 + (1 << 32))):
        assert main(["-w", FIG, "sample", "two", "--assignment", "amp",
                     "--source", "{n1}", "-n", "1000", "--seed", seed]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] != outputs[1]


@pytest.mark.parametrize("flag,value", [("-n", "-5"), ("--seed", "-1"), ("-n", "five")])
def test_sample_rejects_bad_count_or_seed(flag, value):
    args = {"-n": "10", "--seed": "1", flag: value}
    proc = run_cli("-w", FIG, "sample", "two", "--assignment", "amp", "--source", "{n1}",
                   "-n", args["-n"], "--seed", args["--seed"], expect=2)
    assert "usage:" in proc.stderr and flag in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("value", ["-5", "x"])
def test_verify_algebra_rejects_bad_sample_count(value):
    proc = run_cli("verify-algebra", "R", "--samples", value, expect=2)
    assert "usage:" in proc.stderr and "--samples" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("source", ["{zz}", "{zz", "{n1, n2}"])
def test_sum_rule_source_that_is_no_detector(source):
    proc = run_cli("-w", FIG, "sum-rule", "two", "--assignment", "amp",
                   "--source", source, expect=3)
    assert "no paths start at the given source result" in proc.stderr
    assert proc.stdout == ""
