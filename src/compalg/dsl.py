"""A small declaration language for grounds, measurements, sequences,
paths, and assignments, with source-located diagnostics.

Grammar::

    doc         := stmt*
    stmt        := elements | measurement | sequence | path | assignment
    elements    := "elements" NAME "=" "{" id ("," id)* "}"
    measurement := "measurement" NAME "over" NAME "=" "{" block ("," block)* "}"
    block       := "{" id ("," id)* "}"
    sequence    := "sequence" NAME "=" "[" NAME ("," NAME)* "]"
    path        := "path" NAME "over" NAME "=" "[" block ("," block)* "]"
    assignment  := "assignment" NAME "over" NAME "algebra" ALG "from" STRING

ALG is one of R, C, C', H, H', O, O' (ASCII apostrophe marks the split
form).  Comments run from "#" to end of line.  The STRING names a JSON
file with the step matrices, resolved relative to the document.
"""

from __future__ import annotations

import json
import math
import os
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .algebra import AlgebraKind, make_algebra
from .engine import Assignment
from .errors import CompalgError
from .model import (
    GroundSet,
    Measurement,
    MeasurementSequence,
    Path,
    measurement,
    sequence,
    sorted_blocks,
)


@dataclass(frozen=True)
class SourceSpan:
    line: int
    col_start: int
    col_end: int

    def __str__(self):
        return f"{self.line}:{self.col_start}-{self.col_end}"


class ParseError(CompalgError):
    def __init__(self, message: str, span: SourceSpan):
        super().__init__(f"{span}: {message}")
        self.span = span


class SemanticError(CompalgError):
    def __init__(self, message: str, span: SourceSpan):
        super().__init__(f"{span}: {message}")
        self.span = span


#: One token per match: blanks or a comment (skipped), punctuation, a
#: string, a name, or any other character (an error).
_TOKEN = re.compile(r"""(\s+|\#.*)|([{}\[\],=])|"([^"]*)"|(\w[\w']*)|(.)""")


#: A line ends at "\r\n", "\r" or "\n" alone; the other separators that
#: ``str.splitlines`` breaks at ("\x0b", "\x0c", "\x1c"-"\x1e", "\x85",
#: U+2028 and U+2029) are blanks within the line.
_LINE_END = re.compile(r"\r\n|\r|\n")


@dataclass(frozen=True)
class Token:
    kind: str  # "name", "string", or the punctuation itself
    text: str
    span: SourceSpan


def _tokenize(text: str) -> List[Token]:
    tokens = []
    for lineno, line in enumerate(_LINE_END.split(text), start=1):
        for m in _TOKEN.finditer(line):
            punct, string, name, other = m.groups()[1:]
            span = SourceSpan(lineno, m.start() + 1, m.end() + 1)
            if punct or name:
                tokens.append(Token(punct or "name", m.group(), span))
            elif string is not None:
                tokens.append(Token("string", string, span))
            elif other == '"':
                raise ParseError("unterminated string",
                                 SourceSpan(lineno, span.col_start, len(line) + 1))
            elif other is not None:
                raise ParseError(f"unexpected character {other!r}", span)
    return tokens


@dataclass
class Workspace:
    grounds: Dict[str, GroundSet] = field(default_factory=dict)
    measurements: Dict[str, Measurement] = field(default_factory=dict)
    sequences: Dict[str, MeasurementSequence] = field(default_factory=dict)
    paths: Dict[str, Path] = field(default_factory=dict)
    assignments: Dict[str, Assignment] = field(default_factory=dict)
    #: source text of assignment statements, kept for canonical printing
    assignment_sources: Dict[str, Tuple[str, str, str]] = field(
        default_factory=dict, compare=False)

    def to_canonical_dsl(self) -> str:
        lines = []
        for name in sorted(self.grounds):
            g = self.grounds[name]
            lines.append(f"elements {name} = {{{', '.join(g.elements)}}}")
        for name in sorted(self.measurements):
            m = self.measurements[name]
            blocks = ", ".join(
                "{" + ", ".join(sorted(b)) + "}" for b in sorted_blocks(m.blocks))
            lines.append(f"measurement {name} over {m.ground.id} = {{{blocks}}}")
        for name in sorted(self.sequences):
            s = self.sequences[name]
            lines.append(f"sequence {name} = [{', '.join(m.id for m in s.steps)}]")
        for name in sorted(self.paths):
            p = self.paths[name]
            seq_name = self._sequence_name_of(p)
            blocks = ", ".join(
                "{" + ", ".join(sorted(r)) + "}" for r in p.results)
            lines.append(f"path {name} over {seq_name} = [{blocks}]")
        for name in sorted(self.assignment_sources):
            seq_name, alg, filename = self.assignment_sources[name]
            lines.append(
                f'assignment {name} over {seq_name} algebra {alg} from "{filename}"')
        return "\n".join(lines) + ("\n" if lines else "")

    def _sequence_name_of(self, p: Path) -> str:
        for name, s in self.sequences.items():
            if s == p.sequence:
                return name
        raise KeyError("path sequence is not a named sequence")


class _Parser:
    def __init__(self, tokens: List[Token], base_dir: Optional[str]):
        self.tokens = tokens
        self.pos = 0
        self.base_dir = base_dir
        self.ws = Workspace()

    def _eof_span(self) -> SourceSpan:
        if self.tokens:
            return self.tokens[-1].span
        return SourceSpan(1, 1, 1)

    def peek(self) -> Optional[Token]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self, expect: Optional[str] = None, what: str = "") -> Token:
        tok = self.peek()
        if tok is None:
            raise ParseError(f"unexpected end of document, expected {expect or what}",
                             self._eof_span())
        if expect is not None and tok.kind != expect:
            raise ParseError(
                f"expected {what or expect}, found {tok.text!r}", tok.span)
        self.pos += 1
        return tok

    def parse(self) -> Workspace:
        while self.peek() is not None:
            tok = self.next("name", "a statement keyword")
            handler = {
                "elements": self.parse_elements,
                "measurement": self.parse_measurement,
                "sequence": self.parse_sequence,
                "path": self.parse_path,
                "assignment": self.parse_assignment,
            }.get(tok.text)
            if handler is None:
                raise ParseError(
                    f"unknown statement {tok.text!r}", tok.span)
            handler()
        return self.ws

    def _declare(self, table: dict, name_tok: Token, kind: str):
        if name_tok.text in table:
            raise SemanticError(
                f"duplicate {kind} name {name_tok.text!r}", name_tok.span)

    def _keyword(self, word: str):
        tok = self.next("name", f"'{word}'")
        if tok.text != word:
            raise ParseError(f"expected '{word}', found {tok.text!r}", tok.span)
        return tok

    def _list(self, open_: str, close: str, item) -> list:
        """open item ("," item)* close, as the list of item() results."""
        self.next(open_, f"'{open_}'")
        items = [item()]
        while self.peek() and self.peek().kind == ",":
            self.next(",")
            items.append(item())
        self.next(close, f"'{close}'")
        return items

    def _id_list(self) -> List[str]:
        return self._list("{", "}", lambda: self.next("name", "an element id").text)

    def parse_elements(self):
        name = self.next("name", "a ground set name")
        self._declare(self.ws.grounds, name, "ground set")
        self.next("=", "'='")
        ids = self._id_list()
        if len(set(ids)) != len(ids):
            raise SemanticError("duplicate element id", name.span)
        self.ws.grounds[name.text] = GroundSet(name.text, tuple(ids))

    def _resolve(self, table: dict, tok: Token, kind: str):
        if tok.text not in table:
            raise SemanticError(f"unknown {kind} {tok.text!r}", tok.span)
        return table[tok.text]

    def parse_measurement(self):
        name = self.next("name", "a measurement name")
        self._declare(self.ws.measurements, name, "measurement")
        self._keyword("over")
        ground_tok = self.next("name", "a ground set name")
        ground = self._resolve(self.ws.grounds, ground_tok, "ground set")
        self.next("=", "'='")
        blocks = self._list("{", "}", self._id_list)
        try:
            m = measurement(name.text, ground, blocks)
        except ValueError as exc:
            raise SemanticError(f"not a partition: {exc}", name.span) from exc
        self.ws.measurements[name.text] = m

    def parse_sequence(self):
        name = self.next("name", "a sequence name")
        self._declare(self.ws.sequences, name, "sequence")
        self.next("=", "'='")
        steps = self._list("[", "]", lambda: self._resolve(
            self.ws.measurements, self.next("name", "a measurement name"), "measurement"))
        try:
            s = sequence(steps)
        except ValueError as exc:
            raise SemanticError(str(exc), name.span) from exc
        self.ws.sequences[name.text] = s

    def parse_path(self):
        name = self.next("name", "a path name")
        self._declare(self.ws.paths, name, "path")
        self._keyword("over")
        seq_tok = self.next("name", "a sequence name")
        s = self._resolve(self.ws.sequences, seq_tok, "sequence")
        self.next("=", "'='")
        blocks = self._list("[", "]", lambda: frozenset(self._id_list()))
        try:
            p = Path(s, tuple(blocks))
        except ValueError as exc:
            raise SemanticError(str(exc), name.span) from exc
        self.ws.paths[name.text] = p

    def parse_assignment(self):
        name = self.next("name", "an assignment name")
        self._declare(self.ws.assignments, name, "assignment")
        self._keyword("over")
        seq_tok = self.next("name", "a sequence name")
        s = self._resolve(self.ws.sequences, seq_tok, "sequence")
        self._keyword("algebra")
        alg_tok = self.next("name", "an algebra label")
        try:
            kind = AlgebraKind.from_label(alg_tok.text)
        except ValueError as exc:
            raise SemanticError(str(exc), alg_tok.span) from exc
        self._keyword("from")
        file_tok = self.next("string", "a file name")
        filename = file_tok.text
        full = filename if self.base_dir is None \
            else os.path.join(self.base_dir, filename)
        try:
            with open(full, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or a NUL in the name
            raise SemanticError(f"cannot read matrix file: {exc}", file_tok.span)
        try:
            doc = json.loads(text)
        except (ValueError, RecursionError) as exc:
            raise SemanticError(f"invalid JSON in matrix file: {exc}", file_tok.span)
        try:
            asg = load_assignment_json(doc, self.ws.measurements, kind)
        except (ValueError, CompalgError) as exc:
            raise SemanticError(f"invalid assignment: {exc}", file_tok.span)
        self.ws.assignments[name.text] = asg
        self.ws.assignment_sources[name.text] = (seq_tok.text, kind.label, filename)


def _coefficient(value) -> object:
    if isinstance(value, str):
        num, _, den = value.partition("/")
        try:
            num, den = int(num), int(den or "1")
        except ValueError:
            raise ValueError(f"bad coefficient {value!r}") from None
        if den == 0:
            raise ValueError(f"zero denominator in coefficient {value!r}")
        return Fraction(num, den)
    if isinstance(value, bool):
        raise ValueError("boolean is not a coefficient")
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"non-finite coefficient {value!r}")
        return value
    raise ValueError(f"bad coefficient {value!r}")


_JSON_NAMES = {dict: "an object", list: "a list", str: "a string"}


def _expect(value, kind: type, what: str):
    if not isinstance(value, kind):
        raise ValueError(f"{what} must be {_JSON_NAMES[kind]}")
    return value


def load_assignment_json(doc, measurements: Dict[str, Measurement],
                         kind: AlgebraKind) -> Assignment:
    """Build an Assignment from the JSON matrix-file format.

    Top level: {"algebra": "C", "steps": [{"from": id, "to": id,
    "matrix": rows}]} where rows[i][j] is a coefficient array of the
    algebra's dimension, indexed by the declared element order of the two
    measurements' ground sets.  Rationals are "p/q" strings; floats must be
    finite.  Any other shape raises ValueError.
    """
    _expect(doc, dict, "the matrix file")
    label = doc.get("algebra")
    if label is not None and AlgebraKind.from_label(label) is not kind:
        raise ValueError(
            f"matrix file algebra {label!r} does not match declared {kind.label!r}")
    blocks = []
    for n, step in enumerate(_expect(doc.get("steps", []), list, '"steps"')):
        where = f"step {n}"
        _expect(step, dict, where)
        m_from, m_to = (measurements.get(_expect(step.get(end), str, f'{where} "{end}"'))
                        for end in ("from", "to"))
        if m_from is None or m_to is None:
            raise ValueError(
                f"unknown measurement in step {step['from']!r} -> {step['to']!r}")
        rows = _expect(step.get("matrix"), list, f'{where} "matrix"')
        blocks.append((m_from.ground, m_to.ground, [
            [[_coefficient(v) for v in _expect(entry, list, f"{where} matrix entry")]
             for entry in _expect(row, list, f"{where} matrix row")]
            for row in rows]))
    return Assignment(make_algebra(kind), blocks)


def parse(document: str, base_dir: Optional[str] = None) -> Workspace:
    """Parse a DSL document into a validated workspace."""
    tokens = _tokenize(document)
    return _Parser(tokens, base_dir).parse()
