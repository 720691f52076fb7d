"""RDF term and triple types with N-Triples-level validation.

Terms are immutable and hashable so they can be dictionary-encoded and
deduplicated freely. A literal always carries exactly one datatype IRI:
plain literals default to xsd:string, language-tagged ones to rdf:langString.
Their base, Frozen, serves the package's other read-only records too.
"""

from __future__ import annotations

import re
from operator import attrgetter

XSD = "http://www.w3.org/2001/XMLSchema#"
RDF = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"

XSD_STRING = XSD + "string"
XSD_DATE = XSD + "date"
XSD_DATETIME = XSD + "dateTime"
XSD_GYEAR = XSD + "gYear"
XSD_GYEARMONTH = XSD + "gYearMonth"
XSD_BASE64 = XSD + "base64Binary"
RDF_LANGSTRING = RDF + "langString"

#: The whitespace that the XSD "collapse" facet strips around a lexical form.
XSD_SPACE = " \t\r\n"

#: xsd numeric datatypes (integer family, decimal, float, double).
NUMERIC_DATATYPES = frozenset(
    XSD + name
    for name in (
        "integer",
        "decimal",
        "float",
        "double",
        "long",
        "int",
        "short",
        "byte",
        "nonNegativeInteger",
        "nonPositiveInteger",
        "positiveInteger",
        "negativeInteger",
        "unsignedLong",
        "unsignedInt",
        "unsignedShort",
        "unsignedByte",
    )
)

TEMPORAL_DATATYPES = frozenset((XSD_DATE, XSD_DATETIME, XSD_GYEAR, XSD_GYEARMONTH))

TEXT_DATATYPES = frozenset((XSD_STRING, RDF_LANGSTRING))

# Characters forbidden inside an IRIREF by the N-Triples grammar.
_IRI_BAD = re.compile(r'[\x00-\x20<>"{}|^`\\]')
# Absolute IRIs start with a scheme.
_IRI_SCHEME = re.compile(r"[A-Za-z][A-Za-z0-9+.\-]*:")
# N-Triples blank node label (practical ASCII subset; no leading/trailing dot).
_BNODE_LABEL = re.compile(r"[A-Za-z0-9_](?:[A-Za-z0-9_.:\-]*[A-Za-z0-9_:\-])?$")
_LANG_TAG = re.compile(r"[A-Za-z]+(?:-[A-Za-z0-9]+)*$")
# Canonical string escaping: only backslash, quote, LF and CR use ECHARs;
# everything else stays raw UTF-8.
_CANON_ESCAPE = str.maketrans({"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r"})


class TermError(ValueError):
    """A term violates the N-Triples term invariants."""


_set = object.__setattr__  # how a Frozen record's __init__ sets a field


class Frozen:
    """A read-only record of the fields its class names in *_fields*, else in
    *__slots__*: equal to a record of its own class with equal fields, hashed,
    shown and copied by them. Assigning to a field raises AttributeError."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._fields = cls.__dict__.get("_fields", cls.__slots__)
        cls._key = attrgetter(*cls._fields)

    def _fill(self, values: dict[str, object]) -> None:
        """Set each field from *values*, the locals() of an __init__."""
        for name in self._fields:
            _set(self, name, values[name])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._key(self) == other._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return type(self), tuple(getattr(self, name) for name in self._fields)


# Terms are made per statement, so their __init__s set each field directly.
class IRI(Frozen):
    __slots__ = ("value",)

    def __init__(self, value: str) -> None:
        _set(self, "value", value)

    def __str__(self) -> str:
        return f"<{self.value}>"


class BlankNode(Frozen):
    __slots__ = ("label",)

    def __init__(self, label: str) -> None:
        _set(self, "label", label)

    def __str__(self) -> str:
        return f"_:{self.label}"


class Literal(Frozen):
    __slots__ = ("lexical", "datatype", "language")

    def __init__(self, lexical: str, datatype: str = XSD_STRING, language: str | None = None) -> None:
        _set(self, "lexical", lexical)
        _set(self, "datatype", datatype)
        _set(self, "language", language)

    def __str__(self) -> str:
        lexical = self.lexical.translate(_CANON_ESCAPE)
        if self.language is not None:
            return f'"{lexical}"@{self.language}'
        if self.datatype == XSD_STRING:
            return f'"{lexical}"'
        return f'"{lexical}"^^<{self.datatype}>'


Term = IRI | BlankNode | Literal


def validate_term(term: Term) -> None:
    """Raise TermError if *term* breaks an invariant, naming the offender."""
    if isinstance(term, IRI):
        if not term.value:
            raise TermError("empty IRI")
        if _IRI_BAD.search(term.value):
            raise TermError(f"IRI contains forbidden character: {term}")
        if not _IRI_SCHEME.match(term.value):
            raise TermError(f"IRI is not absolute (no scheme): {term}")
    elif isinstance(term, BlankNode):
        if not _BNODE_LABEL.match(term.label):
            raise TermError(f"invalid blank node label: _:{term.label}")
    elif isinstance(term, Literal):
        if term.language is not None:
            if not _LANG_TAG.match(term.language):
                raise TermError(f"invalid language tag: @{term.language}")
            if term.datatype != RDF_LANGSTRING:
                raise TermError(
                    f"language-tagged literal must have rdf:langString datatype: {term}"
                )
        else:
            if term.datatype == RDF_LANGSTRING:
                raise TermError(f"rdf:langString literal without language tag: {term}")
            if not term.datatype or _IRI_BAD.search(term.datatype):
                raise TermError(f"invalid datatype IRI: {term.datatype!r}")
    else:
        raise TermError(f"not an RDF term: {term!r}")


class Triple(Frozen):
    __slots__ = ("subject", "predicate", "object")

    def __init__(self, subject: Term, predicate: Term, object: Term) -> None:
        _set(self, "subject", subject)
        _set(self, "predicate", predicate)
        _set(self, "object", object)

    def validate(self) -> None:
        """Check statement-position constraints on top of term invariants."""
        validate_term(self.subject)
        validate_term(self.predicate)
        validate_term(self.object)
        if isinstance(self.subject, Literal):
            raise TermError(f"literal in subject position: {self.subject}")
        if not isinstance(self.predicate, IRI):
            raise TermError(f"predicate must be an IRI: {self.predicate}")


def local_name(iri: str) -> str:
    """Tail of an IRI after the last '#' or '/' (the whole IRI if neither)."""
    for sep in ("#", "/"):
        idx = iri.rfind(sep)
        if 0 <= idx < len(iri) - 1:
            return iri[idx + 1 :]
    return iri
