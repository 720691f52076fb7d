"""Literal-removal baselines and the minting rules shared by all strategies.

EXCLUDE drops literal statements, TRANSFORM mints one entity per distinct
(predicate, value) pair, ONEENTITY mints a single per-predicate entity that
only records the presence of a value. Minted IRIs live under a reserved
namespace so they can never collide with pre-existing entities. The binning,
LOF and LDA parameter specs, once here, live in `plans` and are imported here
under their old names.
"""

from __future__ import annotations

from typing import Callable, Sequence, TypeVar
from urllib.parse import quote

from .graph import Augmentation, LiteralGroup
from .plans import BinningSpec, LdaSpec, LofSpec, bin_count  # noqa: F401 - their old home
from .terms import BlankNode

V = TypeVar("V")

DEFAULT_NAMESPACE = "http://example.org/new/"

#: Lexical values longer than this are truncated and hash-suffixed.
_MAX_VALUE_CHARS = 64


def sanitize_value(value: str) -> str:
    """IRI-safe local-name fragment for a lexical value.

    Short safe values pass through untouched (keeping the
    ``populationMetro2362046`` naming pattern); anything longer than 64
    characters is trimmed and given an 8-hex-digit content hash suffix so
    distinct long values cannot collide after truncation.
    """
    truncated = value[:_MAX_VALUE_CHARS]
    encoded = quote(truncated, safe="")
    if truncated != value:
        import hashlib  # maps OpenSSL; only long values need it

        digest = hashlib.sha256(value.encode("utf-8")).hexdigest()[:8]
        encoded = f"{encoded}-{digest}"
    return encoded


def parse_or_reject(
    group: LiteralGroup, parse: Callable[[str, str], V]
) -> tuple[list[int], list[V], list[int]]:
    """Split the group's statements by whether *parse* accepts their object.

    *parse* reads a literal's lexical form and datatype. Returns the subject
    ids and parsed values of the accepted statements, in statement order,
    and the subject ids of the rest: those *parse* rejected with ValueError,
    and every image reference, which is not a literal.
    """
    subject_ids: list[int] = []
    values: list[V] = []
    rejected: list[int] = []
    for subject_id, lexical, datatype in zip(group.subjects, group.lexicals, group.datatypes):
        try:
            if not isinstance(datatype, str):
                raise ValueError("not a literal")
            values.append(parse(lexical, datatype))
        except ValueError:
            rejected.append(subject_id)
            continue
        subject_ids.append(subject_id)
    return subject_ids, values, rejected


def link_any_value(aug: Augmentation, subject_ids: Sequence[int]) -> None:
    """Link each subject to the group's ONEENTITY AnyValue entity.

    The entity is minted only when there is a subject to link.
    """
    if subject_ids:
        aug.link(subject_ids, aug.stem + "AnyValue")


def note_fallback(aug: Augmentation, count: int, cause: str) -> None:
    """Count *count* AnyValue fallback links and warn about their *cause*."""
    if count:
        aug.fallback_statements = count
        aug.warnings.append(f"{aug.predicate}: {cause} got AnyValue links")


def exclude(group: LiteralGroup, aug: Augmentation) -> Augmentation:
    """Drop every literal statement of the group."""
    aug.removed = len(group)
    return aug


def transform_literal2entity(group: LiteralGroup, aug: Augmentation) -> Augmentation:
    """One entity per distinct literal value of the predicate.

    Statements with equal lexical forms share the minted entity; equality is
    exact lexical-form equality, numeric normalization is left to binning.
    """
    if BlankNode in group.datatypes:
        raise ValueError("a blank-node image reference has no value to name an entity by")
    entity = {lex: aug.stem + sanitize_value(lex) for lex in dict.fromkeys(group.lexicals)}
    aug.link(group.subjects, [entity[lexical] for lexical in group.lexicals])
    return aug


def one_entity(group: LiteralGroup, aug: Augmentation) -> Augmentation:
    """A single entity per predicate, ignoring the literal values entirely."""
    link_any_value(aug, group.subjects)
    return aug
