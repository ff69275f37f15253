"""Command-line behavior: golden outputs, formats, exit codes."""

import json
import os
import subprocess
import sys
from contextlib import contextmanager
from fractions import Fraction

import pytest

from compalg import dsl, engine, model
from compalg.cli import main

HERE = os.path.dirname(__file__)
DATA = os.path.join(HERE, "data")
GOLDEN = os.path.join(HERE, "golden")
FIG = os.path.join(DATA, "fig.dsl")


def run_cli(*args, expect: int = 0, hash_seed: str = None):
    env = None if hash_seed is None else {**os.environ, "PYTHONHASHSEED": hash_seed}
    proc = subprocess.run(
        [sys.executable, "-m", "compalg", *args],
        capture_output=True, text=True, env=env)
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


@pytest.mark.parametrize("label,name", [("R", "R"), ("C", "C"), ("C'", "Cs"), ("H", "H"),
                                        ("H'", "Hs"), ("O'", "Os")])
def test_golden_verify_algebra(capsys, label, name):
    """The axiom report of every other kind, in-process."""
    assert main(["verify-algebra", label]) == 0
    assert capsys.readouterr().out == golden(f"verify_{name}.golden")


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


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_sample_has_no_format_option(fmt):
    """``sample`` always prints CSV, so ``--format`` is a usage error."""
    proc = run_cli("-w", FIG, "sample", "two", "--assignment", "amp", "--source", "{n1}",
                   "-n", "10", "--seed", "1", "--format", fmt, expect=2)
    assert "usage:" in proc.stderr
    assert f"unrecognized arguments: --format {fmt}" in proc.stderr
    assert proc.stdout == ""


def test_cli_import_leaves_numpy_unloaded():
    """Importing the CLI loads no numpy: only sampling and the float sum
    rule import it, when they run, so no other subcommand pays for it."""
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, compalg.cli; print('numpy' in sys.modules)"],
        capture_output=True, text=True, check=True)
    assert proc.stdout == "False\n"


def test_commands_other_than_sample_leave_numpy_unloaded():
    """Each of these commands runs to completion without loading numpy."""
    commands = [["classify", "cyc"], ["normalize", "wobble"], ["enumerate", "paths", "two"],
                ["prob", "hop", "--assignment", "amp"],
                ["sum-rule", "two", "--assignment", "amp", "--source", "{n1}"],
                ["verify-algebra", "H", "--samples", "5"]]
    script = (
        "import contextlib, io, sys\n"
        "from compalg.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [main(['-w', {FIG!r}, *argv]) for argv in {commands!r}]\n"
        "print(codes, 'numpy' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, check=True)
    assert proc.stdout == "[0, 0, 0, 0, 0, 0] False\n", proc.stderr


def test_non_detector_result_message_is_the_same_under_every_hash_seed(tmp_path):
    doc = tmp_path / "bad.dsl"
    doc.write_text(
        "elements G3 = {m, m1, m2}\n"
        "measurement aM over G3 = {{m}, {m1}, {m2}}\n"
        "measurement bM over G3 = {{m, m1}, {m2}}\n"
        "sequence s = [aM, bM, aM]\n"
        "path bad over s = [{m}, {m, m2, m1}, {m}]\n")
    for seed in range(6):
        proc = run_cli("-w", str(doc), "classify", "bad", expect=1, hash_seed=str(seed))
        assert proc.stderr == \
            "error: 5:6-9: result {m, m1, m2} is not a detector of measurement 'bM'\n"


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


@pytest.mark.parametrize("flag,value", [("-n", "-5"), ("--seed", "-1"), ("-n", "five"),
                                        ("-n", str(1 << 63))])
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


@pytest.mark.parametrize("value", ["-3", "x"])
def test_verify_algebra_rejects_bad_seed(value, capsys):
    """A negative seed is a usage error: ``random.Random(-3)`` would seed
    like ``Random(3)`` and print the report of ``--seed 3``."""
    with pytest.raises(SystemExit) as stop:
        main(["verify-algebra", "H", "--samples", "50", "--seed", value])
    assert stop.value.code == 2
    out, err = capsys.readouterr()
    assert "usage:" in err and "--seed" in err and out == ""


@pytest.mark.parametrize("source", ["{zz}", "{n1, n2}"])
def test_sum_rule_source_that_is_no_detector(source):
    proc = run_cli("-w", FIG, "sum-rule", "two", "--assignment", "amp",
                   "--source", source, expect=3)
    assert "no paths start at the given source result" in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("command", ["sum-rule", "sample"])
@pytest.mark.parametrize("source", ["{zz", "zz}", "{{n1}}", "{n1}}", "{}", " ", "{n1, n1}",
                                    "{n1,,n2}", "n1,"])
def test_source_that_is_no_block_is_a_usage_error(command, source):
    draws = ["-n", "10", "--seed", "1"] if command == "sample" else []
    proc = run_cli("-w", FIG, command, "two", "--assignment", "amp",
                   "--source", source, *draws, expect=2)
    assert "usage:" in proc.stderr and "--source" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def fig_workspace(tmp_path, matrix_text: str) -> str:
    with open(FIG, "r", encoding="utf-8") as fh:
        (tmp_path / "fig.dsl").write_text(fh.read(), encoding="utf-8")
    (tmp_path / "fig_matrices.json").write_text(matrix_text, encoding="utf-8")
    return str(tmp_path / "fig.dsl")


ROW2 = '[["5/13", 0], [0, "12/13"], [0, 0]]'


@pytest.mark.parametrize("matrix_text,message", [
    ('{"steps": [{"from": "aN", "to": "aM", "matrix": [[["1/0", 0], [0, 1], [0, 0]], %s]}]}'
     % ROW2, "zero denominator"),
    ('{"steps": [{"from": "aN", "to": "aM"}]}', '"matrix" must be a list'),
    ('[{"from": "aN", "to": "aM"}]', "must be an object"),
    ('{"steps": [{"from": "aN", "to": "aM", "matrix": [[[NaN, 0], [0, 1], [0, 0]], %s]}]}'
     % ROW2, "non-finite coefficient"),
    pytest.param('{"steps": [{"from": "aN", "to": "aM", "matrix": [[[1%s, 0], [0, 0.5], [0, 0]], %s]}]}'
                 % ("0" * 400, ROW2), "non-finite coefficient in entry n1 -> m\n",
                 id="401-digit int in float mode"),
])
def test_malformed_matrix_file_exits_1_with_span(tmp_path, matrix_text, message):
    ws = fig_workspace(tmp_path, matrix_text)
    proc = run_cli("-w", ws, "prob", "hop", "--assignment", "amp", expect=1)
    assert proc.stderr.startswith("error: 24:40-59: invalid assignment: ")
    assert message in proc.stderr and "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_sample_beyond_the_float_range_is_no_distribution(tmp_path):
    huge = '"1%s"' % ("0" * 400)
    ws = fig_workspace(
        tmp_path,
        '{"steps": [{"from": "aN", "to": "aM", "matrix": [[[%s, 0], [0, 1], [0, 0]], %s]}]}'
        % (huge, ROW2))
    proc = run_cli("-w", ws, "sample", "two", "--assignment", "amp", "--source", "{n1}",
                   "-n", "10", "--seed", "1", expect=3)
    assert "exceeds the float range" in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("command", [
    ["prob", "hop", "--assignment", "amp"],
    ["prob", "hop", "--assignment", "amp", "--format", "text"],
    ["sum-rule", "two", "--assignment", "amp", "--source", "{n1}"],
])
def test_float_overflow_is_no_finite_result(tmp_path, command):
    """A finite float coefficient whose square overflows gives an infinite
    probability, which is reported (exit 3) and never printed."""
    ws = fig_workspace(
        tmp_path,
        '{"steps": [{"from": "aN", "to": "aM", "matrix": [[[1e200, 0], [0, 1], [0, 0]], %s]}]}'
        % ROW2)
    proc = run_cli("-w", ws, *command, expect=3)
    assert "not finite" in proc.stderr and "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_sample_on_nan_probabilities_is_no_distribution(tmp_path, capsys):
    """Float products that overflow to NaN make no distribution (exit 3), as
    in ``sum-rule``; the draw is never reached."""
    (tmp_path / "back.dsl").write_text(
        "elements N = {n1, n2}\nmeasurement aN over N = {{n1}, {n2}}\n"
        "elements M = {m1, m2}\nmeasurement aM over M = {{m1}, {m2}}\n"
        "sequence back = [aN, aM, aN]\n"
        'assignment amp over back algebra C from "back.json"\n')
    (tmp_path / "back.json").write_text(
        '{"steps": [{"from": "aN", "to": "aM", "matrix": '
        '[[[1e200, 1e200], [0.5, 0]], [[0.5, 0], [0.5, 0]]]}]}')
    ws = str(tmp_path / "back.dsl")
    assert main(["-w", ws, "sample", "back", "--assignment", "amp", "--source", "{n1}",
                 "-n", "10", "--seed", "1"]) == 3
    assert capsys.readouterr() == ("", "validation error: path probabilities sum to nan, not 1\n")
    assert main(["-w", ws, "sum-rule", "back", "--assignment", "amp", "--source", "{n1}"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and "not finite" in err


def test_sample_huge_n_is_drawn_at_once(capsys):
    assert main(["-w", FIG, "sample", "two", "--assignment", "amp", "--source", "{n1}",
                 "-n", str(10 ** 12), "--seed", "7"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert sum(int(line.rsplit(",", 2)[1]) for line in rows) == 10 ** 12


def test_count_only_counts_paths_without_listing_them(monkeypatch, capsys):
    with open(FIG, "r", encoding="utf-8") as fh:
        ws = dsl.parse(fh.read(), base_dir=DATA)
    counts = {name: len(model.enumerate_paths(s)) for name, s in ws.sequences.items()}

    def unlisted(s):
        raise AssertionError("paths were listed")
    monkeypatch.setattr(model, "enumerate_paths", unlisted)
    for name, count in counts.items():
        assert main(["-w", FIG, "enumerate", "paths", name, "--count-only"]) == 0
        assert capsys.readouterr().out == f"{count}\n"


def test_count_only_has_no_path_bound(tmp_path, capsys):
    """3^16 paths: counted past the path bound, while listing them is refused."""
    (tmp_path / "huge.dsl").write_text(
        "elements G3 = {m, m1, m2}\nmeasurement aM over G3 = {{m}, {m1}, {m2}}\n"
        f"sequence huge = [{', '.join(['aM'] * 16)}]\n")
    ws = str(tmp_path / "huge.dsl")
    assert main(["-w", ws, "enumerate", "paths", "huge", "--count-only"]) == 0
    assert capsys.readouterr().out == f"{3 ** 16}\n"
    assert main(["-w", ws, "enumerate", "paths", "huge"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "TooManyPaths: 43046721 paths exceeds bound 1000000" in err


def long_path_workspace(tmp_path, steps: int, coefficient: str) -> str:
    """A path of the given number of steps alternating between two
    one-element grounds, whose one matrix entry is [coefficient, 0]."""
    names = ["aA" if j % 2 == 0 else "aB" for j in range(steps)]
    results = ["{a}" if j % 2 == 0 else "{b}" for j in range(steps)]
    (tmp_path / "long.dsl").write_text(
        "elements A = {a}\nmeasurement aA over A = {{a}}\n"
        "elements B = {b}\nmeasurement aB over B = {{b}}\n"
        f"sequence long = [{', '.join(names)}]\n"
        f"path walk over long = [{', '.join(results)}]\n"
        'assignment amp over long algebra C from "long.json"\n')
    (tmp_path / "long.json").write_text(
        '{"steps": [{"from": "aA", "to": "aB", "matrix": [[[%s, 0]]]}]}' % coefficient)
    return str(tmp_path / "long.dsl")


@contextmanager
def unlimited_digits():
    """Lift the int/str digit limit of Python 3.10.7+ while the block runs."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("steps,coefficient", [(5000, '"3/5"'), (7300, "2")],
                         ids=["rational", "integer"])
def test_exact_results_of_any_size_print(tmp_path, capsys, steps, coefficient):
    """(9/25)^4999 and 4^7299 have more digits than the default int/str
    limit of 4300; both print in full, in JSON and text, and the limit is
    back in place afterwards."""
    doc = long_path_workspace(tmp_path, steps, coefficient)
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    assert main(["-w", doc, "prob", "walk", "--assignment", "amp"]) == 0
    data = capsys.readouterr().out
    assert main(["-w", doc, "prob", "walk", "--assignment", "amp", "--format", "text"]) == 0
    text = capsys.readouterr().out.splitlines()
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
    with unlimited_digits():
        with open(doc, "r", encoding="utf-8") as fh:
            ws = dsl.parse(fh.read(), base_dir=str(tmp_path))
        want = engine.probability_of(ws.paths["walk"], ws.assignments["amp"]).probability
        assert len(str(want)) > 4300
        assert Fraction(json.loads(data)["probability"]) == want
        assert text[1] == f"probability: {want}"


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="no int/str digit limit before Python 3.10.7")
def test_coefficient_beyond_the_digit_limit_stays_a_semantic_error(tmp_path):
    doc = long_path_workspace(tmp_path, 2, '"1%s"' % ("0" * 4400))
    proc = run_cli("-w", doc, "prob", "walk", "--assignment", "amp", expect=1)
    assert "invalid assignment: bad coefficient" in proc.stderr
    assert "Traceback" not in proc.stderr
