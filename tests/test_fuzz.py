"""A bounded fuzzer over the CLI's two input files: the DSL document and
its matrix JSON, both mutated from ``tests/data``.

Whatever the mutation, ``cli.main`` run in-process returns an exit code in
{0, 1, 2, 3} and lets no exception escape, and every exit 1 carries the
``line:col`` span of the document or matrix-file error.  The one exit 1
without a span is a name given on the command line that the mutated
document no longer declares ("unknown path 'hop'").  Every JSON output is
strict JSON: no NaN or Infinity, which overflowing floats would give.
"""

import contextlib
import io
import json
import os
import re
import tempfile

from hypothesis import given, settings, strategies as st

from compalg import cli

DATA = os.path.join(os.path.dirname(__file__), "data")


def _read(name: str) -> str:
    with open(os.path.join(DATA, name), "r", encoding="utf-8") as fh:
        return fh.read()


DSL_TEXT = _read("fig.dsl")
MATRIX_TEXT = _read("fig_matrices.json")

COMMANDS = [
    ["prob", "hop", "--assignment", "amp"],
    ["prob", "cyc", "--assignment", "amp"],
    ["sum-rule", "two", "--assignment", "amp", "--source", "{n1}"],
    ["sample", "two", "--assignment", "amp", "--source", "{n1}", "-n", "20", "--seed", "1"],
    ["classify", "cyc"],
    ["normalize", "wobble"],
    ["factorize", "cyc"],
]

# short inserts: the punctuation and names of both formats, and JSON values
# that are no coefficients
TOKENS = ["{", "}", "[", "]", ",", "=", '"', "#", "\n", "/", "0", "1/0", "-1", "NaN",
          "Infinity", "1e400", "null", "true", "[]", "{}", '"x"', "aM", "aN", "bM",
          "G3", "over", "sequence", "path", "algebra", "H", "O", "m1", "n2"]
INSERTS = st.one_of(st.sampled_from(TOKENS),
                    st.text(alphabet='{}[],="#/ .-0123456789aMmnNGu\n', max_size=6))
EDITS = st.lists(st.tuples(st.integers(0, 10 ** 6), st.integers(0, 8), INSERTS),
                 min_size=1, max_size=3)

SPAN = re.compile(r"^error: \d+:\d+-\d+: ")
UNKNOWN_NAME = re.compile(r"^error: unknown (path|sequence|assignment) '")


def _no_constant(name: str):
    raise ValueError(f"{name} is not strict JSON")


def mutate(text: str, edits) -> str:
    for position, deleted, inserted in edits:
        i = position % (len(text) + 1)
        text = text[:i] + inserted + text[i + deleted:]
    return text


def check_exit(dsl_text: str, matrix_text: str, command) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        workspace = os.path.join(tmp, "fig.dsl")
        with open(workspace, "w", encoding="utf-8") as fh:
            fh.write(dsl_text)
        with open(os.path.join(tmp, "fig_matrices.json"), "w", encoding="utf-8") as fh:
            fh.write(matrix_text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["-w", workspace, *command])
    assert code in (0, 1, 2, 3), err.getvalue()
    if out.getvalue() and command[0] != "sample":  # sample writes CSV
        json.loads(out.getvalue(), parse_constant=_no_constant)
    if code == 1:
        message = err.getvalue()
        assert SPAN.match(message) or UNKNOWN_NAME.match(message), message


@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(in_dsl=st.booleans(), edits=EDITS, command=st.sampled_from(COMMANDS))
def test_mutated_text_exits_cleanly(in_dsl, edits, command):
    """Text edits to one of the two files, the other kept."""
    if in_dsl:
        check_exit(mutate(DSL_TEXT, edits), MATRIX_TEXT, command)
    else:
        check_exit(DSL_TEXT, mutate(MATRIX_TEXT, edits), command)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats()
    | st.sampled_from(["1/0", "3/5", "-1", "x", "aM", "aN", "bM", "C", "H"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["algebra", "steps", "from", "to", "matrix"]), inner, max_size=3),
    max_leaves=6)


def replace_node(doc, index: int, value):
    """doc with its index-th node in pre-order (modulo the node count)
    replaced by value."""
    nodes = []
    stack = [(None, None, doc)]
    while stack:
        parent, key, node = stack.pop()
        nodes.append((parent, key))
        children = node.items() if isinstance(node, dict) \
            else enumerate(node) if isinstance(node, list) else ()
        stack.extend((node, k, child) for k, child in reversed(list(children)))
    parent, key = nodes[index % len(nodes)]
    if parent is None:
        return value
    parent[key] = value
    return doc


@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(index=st.integers(0, 10 ** 6), value=JSON_VALUES, command=st.sampled_from(COMMANDS))
def test_mutated_matrix_values_exit_cleanly(index, value, command):
    """One value of the matrix document replaced, so that the JSON stays
    well formed and its shape and coefficients are what is tested."""
    doc = replace_node(json.loads(MATRIX_TEXT), index, value)
    check_exit(DSL_TEXT, json.dumps(doc), command)
