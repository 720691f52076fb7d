"""Streaming N-Triples parser and canonical serializer.

Single-pass line grammar: one statement or comment per line. Malformed
lines become diagnostics (skipped in lenient mode, fatal in strict mode).
Serialization is canonical: single spaces, minimal escaping, ' .' and a
trailing newline per statement, so parse(serialize(T)) == T term-for-term.

Gzip-compressed input is detected by magic bytes and decompressed
transparently.
"""

from __future__ import annotations

import gzip
import io
import re
from dataclasses import dataclass
from typing import IO, Callable, Iterable, Iterator

from .terms import IRI, BlankNode, Literal, Term, TermError, Triple, XSD_STRING, RDF_LANGSTRING

_IRIREF = r'<([^\x00-\x20<>"{}|^`\\]*)>'
_BNODE = r"_:([A-Za-z0-9_](?:[A-Za-z0-9_.:\-]*[A-Za-z0-9_:\-])?)"
_STRING = r'"((?:[^"\\\n\r]|\\.)*)"'
_LANG = r"@([A-Za-z]+(?:-[A-Za-z0-9]+)*)"

_STATEMENT = re.compile(
    r"^[ \t]*"
    rf"(?:{_IRIREF}|{_BNODE})[ \t]+"
    rf"{_IRIREF}[ \t]+"
    rf"(?:{_IRIREF}|{_BNODE}|{_STRING}(?:\^\^{_IRIREF}|{_LANG})?)"
    r"[ \t]*\.[ \t]*(?:#.*)?$"
)
_BLANK_OR_COMMENT = re.compile(r"^[ \t]*(#.*)?$")

_ECHAR_DECODE = {
    "t": "\t",
    "b": "\b",
    "n": "\n",
    "r": "\r",
    "f": "\f",
    '"': '"',
    "'": "'",
    "\\": "\\",
}

_ESCAPE_SEQ = re.compile(r"\\(?:u([0-9A-Fa-f]{4})|U([0-9A-Fa-f]{8})|(.))", re.DOTALL)

# Canonical string escaping: only backslash, quote, LF and CR use ECHARs;
# everything else stays raw UTF-8.
_CANON_ESCAPE = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r"}
_CANON_NEEDED = re.compile(r'[\\"\n\r]')


class ParseError(ValueError):
    """Fatal parse failure (strict mode)."""

    def __init__(self, diagnostic: "ParseDiagnostic"):
        super().__init__(str(diagnostic))
        self.diagnostic = diagnostic


class SerializationError(ValueError):
    """A triple violating term invariants cannot be serialized."""


@dataclass(frozen=True, slots=True)
class ParseDiagnostic:
    line: int
    message: str
    text: str

    def __str__(self) -> str:
        return f"line {self.line}: {self.message}: {self.text.strip()[:120]}"


def _decode_escapes(raw: str, line_no: int, line: str) -> str:
    if "\\" not in raw:
        return raw

    def sub(m: re.Match[str]) -> str:
        u4, u8, ch = m.groups()
        if u4 is not None:
            return chr(int(u4, 16))
        if u8 is not None:
            cp = int(u8, 16)
            if cp > 0x10FFFF:
                raise ParseError(
                    ParseDiagnostic(line_no, f"code point out of range: \\U{u8}", line)
                )
            return chr(cp)
        decoded = _ECHAR_DECODE.get(ch)
        if decoded is None:
            raise ParseError(ParseDiagnostic(line_no, f"invalid escape: \\{ch}", line))
        return decoded

    return _ESCAPE_SEQ.sub(sub, raw)


def _open_input(source: bytes | str | IO[bytes]) -> IO[str]:
    """Wrap bytes/stream input as text, gunzipping when magic bytes match.

    The magic bytes are peeked, not read, so a pipe is never read whole.
    """
    if isinstance(source, str):
        return io.StringIO(source)
    stream: IO[bytes] = io.BytesIO(source) if isinstance(source, bytes) else source
    if not hasattr(stream, "peek"):
        stream = io.BufferedReader(stream)  # type: ignore[arg-type]
    if stream.peek(2)[:2] == b"\x1f\x8b":  # type: ignore[attr-defined]
        stream = gzip.open(stream, "rb")  # type: ignore[assignment]
    return io.TextIOWrapper(stream, encoding="utf-8")


def iter_ntriples(
    source: bytes | str | IO[bytes],
    on_diagnostic: Callable[[ParseDiagnostic], None] | None = None,
    strict: bool = False,
) -> Iterator[Triple]:
    """Yield triples line by line; route malformed lines to *on_diagnostic*.

    In strict mode the first malformed line raises ParseError instead.
    Parsing is line-local: permuting input lines permutes output identically.
    """
    text = _open_input(source)
    # Terms repeat heavily in real graphs; interning keeps parsing fast and
    # lets downstream dictionaries share objects.
    iri_cache: dict[str, IRI] = {}
    bnode_cache: dict[str, BlankNode] = {}

    def intern_iri(raw: str) -> IRI:
        term = iri_cache.get(raw)
        if term is None:
            term = IRI(_decode_escapes(raw, line_no, line))
            iri_cache[raw] = term
        return term

    def intern_bnode(label: str) -> BlankNode:
        term = bnode_cache.get(label)
        if term is None:
            term = BlankNode(label)
            bnode_cache[label] = term
        return term

    for line_no, line in enumerate(text, start=1):
        if line.endswith("\n"):
            line = line[:-1]
            if line.endswith("\r"):
                line = line[:-1]
        m = _STATEMENT.match(line)
        if m is None:
            if _BLANK_OR_COMMENT.match(line):
                continue
            diag = ParseDiagnostic(line_no, "malformed statement", line)
            if strict:
                raise ParseError(diag)
            if on_diagnostic is not None:
                on_diagnostic(diag)
            continue
        (s_iri, s_bnode, p_iri, o_iri, o_bnode, o_lex, o_dtype, o_lang) = m.groups()
        try:
            subject: Term = intern_iri(s_iri) if s_iri is not None else intern_bnode(s_bnode)
            predicate = intern_iri(p_iri)
            if o_iri is not None:
                obj: Term = intern_iri(o_iri)
            elif o_bnode is not None:
                obj = intern_bnode(o_bnode)
            else:
                lexical = _decode_escapes(o_lex, line_no, line)
                if o_lang is not None:
                    obj = Literal(lexical, RDF_LANGSTRING, o_lang)
                elif o_dtype is not None:
                    obj = Literal(lexical, _decode_escapes(o_dtype, line_no, line))
                else:
                    obj = Literal(lexical)
        except ParseError as err:
            if strict:
                raise
            if on_diagnostic is not None:
                on_diagnostic(err.diagnostic)
            continue
        yield Triple(subject, predicate, obj)


def parse_ntriples(
    source: bytes | str | IO[bytes], strict: bool = False
) -> tuple[list[Triple], list[ParseDiagnostic]]:
    """Parse a whole document, returning triples and per-line diagnostics."""
    diagnostics: list[ParseDiagnostic] = []
    triples = list(iter_ntriples(source, diagnostics.append, strict=strict))
    return triples, diagnostics


def _escape_string(lexical: str) -> str:
    if _CANON_NEEDED.search(lexical) is None:
        return lexical
    return "".join(_CANON_ESCAPE.get(c, c) for c in lexical)


def format_term(term: Term) -> str:
    if isinstance(term, IRI):
        return f"<{term.value}>"
    if isinstance(term, BlankNode):
        return f"_:{term.label}"
    escaped = _escape_string(term.lexical)
    if term.language is not None:
        return f'"{escaped}"@{term.language}'
    if term.datatype == XSD_STRING:
        return f'"{escaped}"'
    return f'"{escaped}"^^<{term.datatype}>'


def format_triple(triple: Triple) -> str:
    """One canonical N-Triples statement, without the trailing newline."""
    try:
        triple.validate()
    except TermError as err:
        raise SerializationError(str(err)) from err
    return (
        f"{format_term(triple.subject)} {format_term(triple.predicate)}"
        f" {format_term(triple.object)} ."
    )


def write_ntriples(triples: Iterable[Triple], out: IO[bytes]) -> int:
    """Stream canonical statements to *out*; returns the line count."""
    count = 0
    for triple in triples:
        out.write(format_triple(triple).encode("utf-8"))
        out.write(b"\n")
        count += 1
    return count


def serialize_ntriples(triples: Iterable[Triple]) -> bytes:
    buf = io.BytesIO()
    write_ntriples(triples, buf)
    return buf.getvalue()
