"""Literal-removal baselines and the minting rules shared by all strategies.

EXCLUDE drops literal statements, TRANSFORM mints one entity per distinct
(predicate, value) pair, ONEENTITY mints a single per-predicate entity that
only records the presence of a value. Minted IRIs live under a reserved
namespace so they can never collide with pre-existing entities. The binning,
LOF and LDA parameter specs live here too, so loading a config needs no numpy.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence, TypeVar
from urllib.parse import quote

from .graph import Augmentation, LiteralGroup
from .terms import BlankNode, Frozen

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


class LofSpec(Frozen):
    __slots__ = ("k", "threshold")

    def __init__(self, k: int = 20, threshold: float = 1.5) -> None:
        self._fill(locals())
        if self.k < 1:
            raise ValueError("LOF needs k >= 1")
        if self.threshold <= 0:
            raise ValueError("LOF threshold must be positive")


class BinningSpec(Frozen):
    """How to discretize one predicate's (sub)population of values.

    A set *percent* derives the bin count as that fraction of the number of
    unique values; without it, *bins* is the count. *overlap* widens every bin
    by that fraction of its width on both sides, letting values fall into
    more than one bin. *hierarchy_depth* adds coarser levels that halve the
    bin count per level, children linked to parents. A set *lof* diverts
    outliers before boundaries are computed; KLREL and KLRELENT split a
    population while it holds at least *split_threshold* values.
    """

    __slots__ = (
        "bins", "percent", "overlap", "hierarchy_depth", "connect_adjacent", "scheme", "lof",
        "split_threshold",
    )

    def __init__(
        self, bins: int = 10, percent: float | None = None, overlap: float = 0.0,
        hierarchy_depth: int = 0, connect_adjacent: bool = True, scheme: str = "equal-width",
        lof: LofSpec | None = None, split_threshold: int = 300,
    ) -> None:
        self._fill(locals())
        if self.percent is None:
            if self.bins < 1:
                raise ValueError("bins must be >= 1")
        elif not 0.0 < self.percent <= 1.0:
            raise ValueError("percent must be in (0, 1]")
        if not 0.0 <= self.overlap < 1.0:
            raise ValueError("overlap must be in [0, 1)")
        if self.hierarchy_depth < 0:
            raise ValueError("hierarchy_depth must be >= 0")
        if self.scheme not in ("equal-width", "equal-frequency"):
            raise ValueError(f"unknown binning scheme: {self.scheme!r}")


def bin_count(occurrences: int, unique: int, spec: BinningSpec) -> int:
    """Target bin count: never more bins than unique values, never fewer than 1.

    Percent mode rounds half away from zero, so 10% of 200 unique values
    gives exactly 20 bins.
    """
    if unique < 1:
        raise ValueError("need at least one unique value")
    if spec.percent is None:
        return min(spec.bins, unique)
    return max(1, min(unique, int(math.floor(spec.percent * unique + 0.5))))


class LdaSpec(Frozen):
    """Topic model hyperparameters; alpha defaults to 50/T when omitted."""

    __slots__ = ("topics", "alpha", "beta", "iterations", "threshold")

    def __init__(
        self, topics: int = 20, alpha: float | None = None, beta: float = 0.01,
        iterations: int = 500, threshold: float = 0.10,
    ) -> None:
        self._fill(locals())
        if self.topics < 1:
            raise ValueError("topics must be >= 1")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if not 0.0 < self.threshold <= 1.0:
            raise ValueError("threshold must be in (0, 1]")
        if not self.beta > 0.0:
            raise ValueError("beta must be positive")
        if self.alpha is not None and not self.alpha > 0.0:
            raise ValueError("alpha must be positive")

