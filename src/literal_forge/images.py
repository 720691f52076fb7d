"""Image statement rewriting through a pluggable tagging provider.

Classifier inference is out of process: a provider maps an image reference
(an external IRI or an embedded base64 payload) to a ranked label
distribution. The reference provider reads a precomputed tag-map file; a
remote HTTP provider calls a classifier endpoint. Each image statement is
replaced by one link to a minted label entity such as VGG_building.
"""

from __future__ import annotations

import base64
import binascii
import logging
import time
from typing import Protocol

from .baselines import Augmentation, link_any_value, note_fallback, sanitize_value
from .graph import LiteralGroup
from .report import _is_number, _load_json, _shown
from .terms import BlankNode, Frozen, XSD_BASE64, _set

log = logging.getLogger(__name__)

DEFAULT_LABEL_PREFIX = "VGG_"


class ProviderError(RuntimeError):
    """The provider could not answer at all (endpoint down, bad map file)."""


class ImageRef(Frozen):
    """One image statement: either an external IRI or embedded bytes."""

    __slots__ = ("statement_index", "iri", "payload")

    def __init__(
        self, statement_index: int, iri: str | None = None, payload: bytes | None = None
    ) -> None:
        self._fill(locals())
        if self.iri is None and self.payload is None:
            raise ValueError("image reference needs an IRI or a payload")
        if self.iri is not None and not self.iri:
            raise ValueError("image IRI must be non-empty")
        if self.payload is not None and not self.payload:
            raise ValueError("image payload must be non-empty")

    @property
    def key(self) -> str:
        """Lookup key: the IRI, or the SHA-256 hash of embedded bytes."""
        if self.iri is not None:
            return self.iri
        import hashlib  # maps OpenSSL; only embedded bytes need it

        return hashlib.sha256(self.payload).hexdigest()


class LabelDistribution(Frozen):
    """Classifier output, ranked on construction: highest score first, exact
    ties by name. So labels[0] is the top label."""

    __slots__ = ("labels",)

    def __init__(self, labels: tuple[tuple[str, float], ...]) -> None:
        self._fill(locals())
        if not self.labels:
            raise ValueError("a label distribution needs at least one label")
        for name, score in self.labels:
            if not name:
                raise ValueError("label names must be non-empty")
            if not 0.0 <= score <= 1.0:
                raise ValueError(f"label score out of range: {score}")
        ranked = tuple(sorted(self.labels, key=lambda pair: (-pair[1], pair[0])))
        _set(self, "labels", ranked)


class TagProvider(Protocol):
    def lookup(self, ref: ImageRef) -> LabelDistribution | None: ...


def _parse_labels(raw: object, provider: str) -> LabelDistribution:
    if not isinstance(raw, list) or not raw:
        raise ProviderError(f"{provider}: label list missing or empty")
    labels = []
    for item in raw:
        if isinstance(item, dict):
            name, score = item.get("name"), item.get("score")
        elif isinstance(item, (list, tuple)) and len(item) == 2:
            name, score = item
        elif isinstance(item, str):
            name, score = item, 1.0
        else:
            raise ProviderError(f"{provider}: unreadable label entry {_shown(item)}")
        if not isinstance(name, str) or not _is_number(score):
            raise ProviderError(f"{provider}: unreadable label entry {_shown(item)}")
        labels.append((name, float(score)))
    try:
        return LabelDistribution(tuple(labels))
    except ValueError as exc:  # an empty name or a score outside [0, 1]
        raise ProviderError(f"{provider}: {exc}") from None


class TagMapProvider:
    """Precomputed tags: a JSON object keyed by image IRI or content hash.

    Values are label arrays, in any order, either [{"name": ..., "score": ...},
    ...] or bare [name, ...] pairs/strings.
    """

    def __init__(self, mapping: dict[str, LabelDistribution]) -> None:
        self.mapping = mapping

    @classmethod
    def from_file(cls, path: str) -> "TagMapProvider":
        raw = _load_json(path, "tag map", ProviderError)
        if not isinstance(raw, dict):
            raise ProviderError(f"tag map {path} must be a JSON object")
        mapping = {
            key: _parse_labels(value, f"tag-map:{path}") for key, value in raw.items()
        }
        return cls(mapping)

    def lookup(self, ref: ImageRef) -> LabelDistribution | None:
        return self.mapping.get(ref.key)


class RemoteTagProvider:
    """HTTP classifier client.

    POSTs {"iri": ...} or {"payload": <base64>} and expects
    {"labels": [{"name": ..., "score": ...}, ...]}. Transient failures are
    retried 3 times with exponential backoff; a miss (404 or empty labels
    with ok status "not_found") returns None.
    """

    def __init__(
        self, endpoint: str, timeout: float = 10.0, retries: int = 3, backoff: float = 0.5
    ) -> None:
        self.endpoint = endpoint
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        if not self.timeout > 0:
            raise ValueError("timeout must be positive")
        if self.retries < 0:
            raise ValueError("retries must be >= 0")

    def _post(self, body: dict) -> object:
        import requests

        last_exc: Exception | None = None
        for attempt in range(self.retries + 1):
            try:
                response = requests.post(self.endpoint, json=body, timeout=self.timeout)
                if response.status_code == 404:
                    return None
                if response.status_code >= 500:
                    raise ProviderError(
                        f"{self.endpoint} answered {response.status_code}"
                    )
                response.raise_for_status()
                return response.json()
            except Exception as exc:  # noqa: BLE001 - retried, then surfaced
                last_exc = exc
                if attempt < self.retries:
                    time.sleep(self.backoff * (2**attempt))
        raise ProviderError(f"{self.endpoint} unreachable: {last_exc}") from last_exc

    def lookup(self, ref: ImageRef) -> LabelDistribution | None:
        if ref.iri is not None:
            body = {"iri": ref.iri}
        else:
            body = {"payload": base64.b64encode(ref.payload).decode("ascii")}
        data = self._post(body)
        if data is None:
            return None
        if not isinstance(data, dict) or "labels" not in data:
            raise ProviderError(f"{self.endpoint}: response missing 'labels'")
        if not data["labels"]:
            return None
        return _parse_labels(data["labels"], f"remote:{self.endpoint}")


def resolve_image_refs(group: LiteralGroup) -> list[ImageRef]:
    """One ImageRef per statement, classifying payload kind.

    IRI-valued statements (and IRI-shaped strings) become external refs;
    base64 literals are decoded into embedded payloads. Statements that are
    neither decodable nor IRI-shaped, and the empty IRI <>, yield no ref and
    are left to the caller's fallback.
    """
    refs: list[ImageRef] = []
    for index, (lexical, datatype) in enumerate(zip(group.lexicals, group.datatypes)):
        if not isinstance(datatype, str):  # an IRI or a blank node, not a literal
            if datatype is not BlankNode and lexical:
                refs.append(ImageRef(index, iri=lexical))
            continue
        text = lexical.strip()
        if datatype == XSD_BASE64:
            try:
                payload = base64.b64decode(text, validate=True)
            except (binascii.Error, ValueError):
                payload = b""
            if payload:
                refs.append(ImageRef(index, payload=payload))
        elif text.startswith(("http://", "https://")):
            refs.append(ImageRef(index, iri=text))
    return refs


def _lookup_all(
    provider: TagProvider, refs: list[ImageRef], max_in_flight: int
) -> dict[int, LabelDistribution | None]:
    """Query the provider for every ref, keyed by statement index.

    Remote providers are queried concurrently with a bounded in-flight
    limit; results stay ordered by statement index regardless.
    """
    if len(refs) > 1 and hasattr(provider, "endpoint"):
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=max_in_flight) as pool:
            results = list(pool.map(provider.lookup, refs))
        return {ref.statement_index: dist for ref, dist in zip(refs, results)}
    return {ref.statement_index: provider.lookup(ref) for ref in refs}


def emit_image_triples(
    group: LiteralGroup,
    aug: Augmentation,
    provider: TagProvider,
    prefix: str = DEFAULT_LABEL_PREFIX,
    max_in_flight: int = 8,
) -> Augmentation:
    """Replace each image statement with a link to its top label entity.

    Label entities are shared across statements and predicates. Provider
    misses, undecodable payloads, and lookup errors fall back to a
    one-entity link; every statement yields exactly one link.
    """
    refs = resolve_image_refs(group)
    distributions = _lookup_all(provider, refs, max_in_flight)
    misses = 0
    for index, subject_id in enumerate(group.subjects):
        distribution = distributions.get(index)
        if distribution is None:
            link_any_value(aug, [subject_id])
            misses += 1
            continue
        name, score = distribution.labels[0]
        aug.link([subject_id], aug.namespace + prefix + sanitize_value(name), score)
    note_fallback(aug, misses, f"{misses} image statements without tags")
    return aug
