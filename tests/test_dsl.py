"""DSL parsing, diagnostics, canonical printing, assignment loading."""

import json
import os
import random
from fractions import Fraction

import pytest

from compalg.dsl import ParseError, SemanticError, _tokenize, parse
from compalg.model import is_possible

from conftest import entry
from oracle import tokenize_by_scanning

DATA = os.path.join(os.path.dirname(__file__), "data")


def fig_text():
    with open(os.path.join(DATA, "fig.dsl"), "r", encoding="utf-8") as fh:
        return fh.read()


def test_parse_worked_example():
    ws = parse(fig_text(), base_dir=DATA)
    assert set(ws.grounds) == {"G3", "N", "OO"}
    assert len(ws.measurements) == 7
    assert len(ws.sequences) == 3
    assert set(ws.paths) == {"cyc", "wobble", "hop"}
    assert set(ws.assignments) == {"amp"}
    five = [m for name, m in ws.measurements.items()
            if m.ground.id == "G3"]
    assert len({m.blocks for m in five}) == 5


def test_empty_document():
    ws = parse("")
    assert not ws.grounds and not ws.paths


def test_comments_ignored():
    ws = parse("# nothing here\n  # nor here\n")
    assert not ws.grounds


def _tokens_or_error(tokenize, text):
    try:
        return tokenize(text)
    except ParseError as exc:
        return str(exc), exc.span


# Characters where a regular expression and str methods might disagree:
# Unicode letters and digits, separators that split lines or count as
# blanks, NUL, and every character with a role in the grammar.
_ALPHABET = ('ab_\'09"#{}[],= \t\r\n\x0b\x0c\x1c\x1d\x85\u2028\u3000\x00'
             'é中ß٣²Ⅻ\u0301-.;/@')


def test_tokenizer_matches_the_scanning_reference():
    """The one-pattern tokenizer gives the tokens, spans and messages of the
    character scan, on seeded edits of windows of fig.dsl and on random
    strings."""
    rng = random.Random(0)
    text = fig_text()
    for _ in range(2000):
        cut = rng.randrange(len(text))
        edit = "".join(rng.choice(_ALPHABET) for _ in range(rng.randint(0, 3)))
        mutated = text[max(cut - 60, 0):cut] + edit + text[cut + rng.randint(0, 2):cut + 60]
        noise = "".join(rng.choice(_ALPHABET) for _ in range(rng.randint(0, 30)))
        for doc in (mutated, noise):
            assert _tokens_or_error(_tokenize, doc) == \
                _tokens_or_error(tokenize_by_scanning, doc), repr(doc)


def test_only_cr_and_lf_end_a_line():
    """A line ends at "\\r\\n", "\\r" or "\\n" alone: a comment runs on past
    a form feed, and every other separator that str.splitlines breaks at
    is a blank, which counts in the column, not in the line."""
    assert set(parse("elements A = {a}\n# note\x0celements B = {b}\n").grounds) == {"A"}
    for blank in "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029":
        with pytest.raises(SemanticError) as err:
            parse(f"elements A = {{a}}\n{blank}elements A = {{b}}\n")
        assert str(err.value) == "2:11-12: duplicate ground set name 'A'", repr(blank)
    for end in ("\r\n", "\r", "\n"):
        with pytest.raises(SemanticError) as err:
            parse(f"elements A = {{a}}{end}{end}elements A = {{b}}{end}")
        assert str(err.value) == "3:10-11: duplicate ground set name 'A'", repr(end)


def test_parse_error_has_span():
    with pytest.raises(ParseError) as err:
        parse("elements G = {a, b\nmeasurement")
    assert err.value.span.line == 2


HEAD = "elements G = {a, b}\nmeasurement A over G = {{a}, {b}}\nsequence S = [A, A]\n"


@pytest.mark.parametrize("doc, message", [
    ("elements G = a, b}", "1:14-15: expected '{', found 'a'"),
    ("elements G = {a b}", "1:17-18: expected '}', found 'b'"),
    ("elements G = {a,", "1:16-17: unexpected end of document, expected name"),
    ("elements G = {}", "1:15-16: expected an element id, found '}'"),
    ("elements G = {a}\nmeasurement M over G = [{a}]", "2:24-25: expected '{', found '['"),
    ("elements G = {a}\nmeasurement M over G = {a}", "2:25-26: expected '{', found 'a'"),
    ("elements G = {a}\nmeasurement M over G = {{a}",
     "2:27-28: unexpected end of document, expected }"),
    (HEAD + "sequence T = A, A]", "4:14-15: expected '[', found 'A'"),
    (HEAD + "sequence T = [A A]", "4:17-18: expected ']', found 'A'"),
    (HEAD + "sequence T = [A, B]", "4:18-19: unknown measurement 'B'"),
    (HEAD + "sequence T = [A,", "4:16-17: unexpected end of document, expected name"),
    (HEAD + "path p over S = {a}, {a}]", "4:17-18: expected '[', found '{'"),
    (HEAD + "path p over S = [{a}, {a}}", "4:26-27: expected ']', found '}'"),
    (HEAD + "path p over S = [a]", "4:18-19: expected '{', found 'a'"),
])
def test_list_syntax_errors(doc, message):
    with pytest.raises((ParseError, SemanticError)) as err:
        parse(doc)
    assert str(err.value) == message


def test_unknown_statement():
    with pytest.raises(ParseError) as err:
        parse("banana G = {a}")
    assert err.value.span.line == 1


def test_not_a_partition_is_semantic_error():
    doc = "elements G = {a, b}\nmeasurement M over G = {{a}}\n"
    with pytest.raises(SemanticError) as err:
        parse(doc)
    assert "partition" in str(err.value)
    assert err.value.span.line == 2


def test_dangling_name_is_semantic_error():
    with pytest.raises(SemanticError) as err:
        parse("measurement M over G = {{a}}")
    assert "unknown ground set" in str(err.value)


def test_atomic_endpoint_violation():
    doc = (
        "elements G = {a, b}\n"
        "measurement A over G = {{a}, {b}}\n"
        "measurement U over G = {{a, b}}\n"
        "sequence S = [U, A]\n"
    )
    with pytest.raises(SemanticError) as err:
        parse(doc)
    assert "atomic" in str(err.value)


def test_result_not_a_detector():
    doc = (
        "elements G = {a, b}\n"
        "measurement A over G = {{a}, {b}}\n"
        "sequence S = [A, A]\n"
        "path P over S = [{a}, {a, b}]\n"
    )
    with pytest.raises(SemanticError) as err:
        parse(doc)
    assert "detector" in str(err.value)


DECLARED = "elements G = {a, b}\nmeasurement m over G = {{a}, {b}}\nsequence s = [m, m, m]\n"


@pytest.mark.parametrize("doc,error", [
    ("elements G = {a, b, a}\n", "1:21-22: duplicate element id 'a'"),
    ("elements G = {a, b}\nmeasurement m over G = {{a}, {a}, {b}}\n",
     "2:31-32: duplicate element id 'a'"),
    ("elements G = {a, b}\nmeasurement m over G = {{a, a, b}}\n",
     "2:29-30: duplicate element id 'a'"),
    ("elements G = {a, b}\nmeasurement m over G = {{b}, {a, b, a}}\n",
     "2:34-35: duplicate element id 'b'"),
    (DECLARED + "path p over s = [{a, a}, {b, a, b}, {a}]\n",
     "4:22-23: duplicate element id 'a'"),
    (DECLARED + "path p over s = [{a}, {b, a, b}, {a, a}]\n",
     "4:30-31: duplicate element id 'b'"),
], ids=["ground", "two blocks", "one block", "later block", "path", "later path block"])
def test_repeated_element_id_is_a_semantic_error_at_its_span(doc, error):
    """An element id given twice in a ground, in a measurement (in one
    block or across two) or in one block of a path is reported at its first
    repeat in source order, not merged into one; a path's blocks at
    different steps may share ids."""
    with pytest.raises(SemanticError) as err:
        parse(doc)
    assert str(err.value) == error


def test_duplicate_names_rejected():
    doc = "elements G = {a}\nelements G = {b}\n"
    with pytest.raises(SemanticError):
        parse(doc)


def test_assignment_loading():
    ws = parse(fig_text(), base_dir=DATA)
    asg = ws.assignments["amp"]
    n = ws.grounds["N"]
    g3 = ws.grounds["G3"]
    assert entry(asg, n, g3, "n1", "m1").coeffs == (0, Fraction(4, 5))


def test_assignment_algebra_mismatch_rejected():
    text = fig_text().replace("algebra C", "algebra H")
    with pytest.raises(SemanticError) as err:
        parse(text, base_dir=DATA)
    assert "algebra" in str(err.value)


def test_roundtrip_canonical_print():
    ws = parse(fig_text(), base_dir=DATA)
    printed = ws.to_canonical_dsl()
    reparsed = parse(printed, base_dir=DATA)
    assert reparsed == ws
    assert parse(reparsed.to_canonical_dsl(), base_dir=DATA) == reparsed


def test_workspace_objects_valid():
    ws = parse(fig_text(), base_dir=DATA)
    assert is_possible(ws.paths["wobble"])


FIG_ROWS = [[["3/5", 0], [0, "4/5"], [0, 0]], [["5/13", 0], [0, "12/13"], [0, 0]]]


def fig_step(**fields):
    return {"from": "aN", "to": "aM", "matrix": FIG_ROWS, **fields}


@pytest.mark.parametrize("doc,message", [
    ([fig_step()], "must be an object"),
    ({"steps": {"0": fig_step()}}, '"steps" must be a list'),
    ({"steps": [["aN", "aM"]]}, "step 0 must be an object"),
    ({"steps": [{"from": "aN", "to": "aM"}]}, 'step 0 "matrix" must be a list'),
    ({"steps": [fig_step(**{"from": ["aN"]})]}, 'step 0 "from" must be a string'),
    ({"steps": [fig_step(to=None)]}, 'step 0 "to" must be a string'),
    ({"steps": [fig_step(to="nope")]}, "unknown measurement"),
    ({"steps": [fig_step(matrix=FIG_ROWS[:1])]}, "row count"),
    ({"steps": [fig_step(matrix=[FIG_ROWS[0], "row"])]}, "matrix row must be a list"),
    ({"steps": [fig_step(matrix=[FIG_ROWS[0], FIG_ROWS[1][:2]])]}, "column count"),
    ({"steps": [fig_step(matrix=[[1, 2, 3], [4, 5, 6]])]}, "matrix entry must be a list"),
    ({"steps": [fig_step(matrix=[[["3/5"], [0, 1], [0, 0]], FIG_ROWS[1]])]},
     "expected 2 coefficients"),
    ({"steps": [fig_step(matrix=[[["1/0", 0], [0, 1], [0, 0]], FIG_ROWS[1]])]},
     "zero denominator"),
    ({"steps": [fig_step(matrix=[[["1/x", 0], [0, 1], [0, 0]], FIG_ROWS[1]])]},
     "bad coefficient"),
    ({"steps": [fig_step(matrix=[[[float("nan"), 0], [0, 1], [0, 0]], FIG_ROWS[1]])]},
     "non-finite coefficient"),
    ({"steps": [fig_step(matrix=[[[float("-inf"), 0], [0, 1], [0, 0]], FIG_ROWS[1]])]},
     "non-finite coefficient"),
    ({"steps": [fig_step(), fig_step()]}, "second matrix"),
    ({"steps": [fig_step(), fig_step(to="bM")]}, "second matrix"),
])
def test_malformed_matrix_file_is_a_semantic_error_with_span(tmp_path, doc, message):
    (tmp_path / "fig_matrices.json").write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(SemanticError) as err:
        parse(fig_text(), base_dir=str(tmp_path))
    assert message in str(err.value)
    assert str(err.value).startswith("24:40-59: ")


@pytest.mark.parametrize("raw,message", [
    (b"\xff\xfe", "cannot read matrix file"),
    (b"[" * 100000, "invalid JSON"),
    (b'{"steps": [}', "invalid JSON"),
])
def test_unreadable_matrix_file_is_a_semantic_error_with_span(tmp_path, raw, message):
    (tmp_path / "fig_matrices.json").write_bytes(raw)
    with pytest.raises(SemanticError) as err:
        parse(fig_text(), base_dir=str(tmp_path))
    assert message in str(err.value) and str(err.value).startswith("24:40-59: ")
