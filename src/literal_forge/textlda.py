"""Per-predicate LDA topic modeling for text literals.

Each text predicate gets its own corpus (one document per statement) and its
own topic model, trained by synchronous collapsed Gibbs sampling. Subjects
are then linked to every topic whose document probability clears the
threshold, default 10%, giving entities like abstractTopic04. Topic
probabilities feed the edge-weight sidecar.

The sampler draws from the standard library's Mersenne Twister, whose
``random()`` sequence Python keeps the same across versions, so a seed gives
the same model on every supported Python without loading ``numpy.random``.
"""

from __future__ import annotations

import logging
import random
import re
import time
from typing import Mapping, Collection

import numpy as np

from .baselines import Augmentation, link_any_value, note_fallback
from .graph import LiteralGroup
from .plans import LdaSpec

log = logging.getLogger(__name__)

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)

# Cells of the tokens x topics matrix that one chunk of a Gibbs sweep holds.
_CHUNK_CELLS = 1 << 14


def tokenize(
    text: str,
    language: str | None = None,
    stopwords: Mapping[str, Collection[str]] | None = None,
) -> list[str]:
    """Casefold, split on non-alphanumeric runs, drop tokens under 2 chars.

    A stopword table maps casefolded language tags to word lists, as
    StrategyConfig makes them; the language is casefolded to match, falling
    back to its primary subtag (en-US -> en).
    """
    tokens = [t for t in _TOKEN_RE.findall(text.casefold()) if len(t) >= 2]
    if stopwords and language:
        tag = language.casefold()
        words = stopwords.get(tag)
        if words is None and "-" in tag:
            words = stopwords.get(tag.split("-", 1)[0])
        if words:
            drop = {w.casefold() for w in words}
            tokens = [t for t in tokens if t not in drop]
    return tokens


class Corpus:
    """Tokenized documents for one literal group, one document per statement.

    Vocabulary ids are dense and assigned in first-encounter order, so the
    corpus is deterministic for a given group. Documents can be empty after
    tokenization; those are excluded from training and flagged for fallback.
    """

    def __init__(self, documents: list[list[int]], vocabulary: tuple[str, ...]) -> None:
        self.documents = documents
        self.vocabulary = vocabulary

    @property
    def empty_documents(self) -> list[int]:
        return [i for i, doc in enumerate(self.documents) if not doc]


def build_corpus(
    group: LiteralGroup,
    stopwords: Mapping[str, Collection[str]] | None = None,
) -> Corpus:
    """Tokenize every statement of a text group into one corpus.

    Language tags select stopword lists but all languages pool into the same
    vocabulary and model.
    """
    vocab_ids: dict[str, int] = {}
    documents: list[list[int]] = []
    for lexical, datatype, language in zip(group.lexicals, group.datatypes, group.languages):
        # An image reference has no text.
        tokens = tokenize(lexical, language, stopwords) if isinstance(datatype, str) else []
        doc = []
        for tok in tokens:
            tid = vocab_ids.get(tok)
            if tid is None:
                tid = len(vocab_ids)
                vocab_ids[tok] = tid
            doc.append(tid)
        documents.append(doc)
    return Corpus(documents, tuple(vocab_ids))


class TopicModel:
    """Trained topic model: per-topic word distributions and per-document
    topic distributions, estimated from the final Gibbs state."""

    def __init__(
        self, topics: int, phi: np.ndarray, theta: np.ndarray, vocabulary: tuple[str, ...] = (),
        last_sweep_changed: float = 0.0,
    ) -> None:
        self.topics = topics
        self.phi = phi  # T x V
        self.theta = theta  # D x T
        self.vocabulary = vocabulary
        self.last_sweep_changed = last_sweep_changed  # share of tokens moved in the last sweep

    def top_words(self, k: int = 10) -> list[list[str]]:
        out = []
        for t in range(self.topics):
            order = np.argsort(-self.phi[t], kind="stable")[:k]
            out.append([self.vocabulary[i] for i in order if i < len(self.vocabulary)])
        return out


def _topic_counts(
    doc_of: np.ndarray, word_of: np.ndarray, z: np.ndarray, D: int, V: int, T: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Document-topic (D x T), word-topic (V x T) and topic (T) counts of *z*."""
    n_dk = np.bincount(doc_of * T + z, minlength=D * T).reshape(D, T).astype(float)
    n_wk = np.bincount(word_of * T + z, minlength=V * T).reshape(V, T).astype(float)
    n_k = np.bincount(z, minlength=T).astype(float)
    return n_dk, n_wk, n_k


def _uniforms(rng: random.Random, n: int) -> np.ndarray:
    """The next *n* values of ``rng.random()``, bit for bit, from one call.

    ``getrandbits`` fills its 32-bit words from the least significant up, so
    the little-endian words pair up as the (a, b) of CPython's ``random()``.
    """
    words = np.frombuffer(rng.getrandbits(64 * n).to_bytes(8 * n, "little"), dtype="<u4")
    return ((words[0::2] >> 5) * 67108864.0 + (words[1::2] >> 6)) * (1.0 / 9007199254740992.0)


def train_lda(
    corpus: Corpus,
    topics: int = 20,
    alpha: float | None = None,
    beta: float = 0.01,
    iterations: int = 500,
    seed: int = 0,
) -> TopicModel:
    """Synchronous collapsed Gibbs sampling over the non-empty documents.

    Each sweep resamples every token at once from the previous sweep's
    counts minus the token's own assignment, then rebuilds the counts
    (AD-LDA with one token per processor; Newman et al., JMLR 2009). A sweep
    costs a few numpy passes over a tokens x topics matrix, taken in chunks
    of about _CHUNK_CELLS cells to cap memory; the counts change only between
    sweeps, so the chunk size never changes the result.

    The draws come from ``random.Random(seed)``: the first value of
    ``random()`` per token sets its initial topic, then each sweep takes the
    next one per token. Identical corpus, parameters, and seed give identical
    models on every supported Python. Empty documents keep a uniform topic
    distribution (the prior-only estimate).
    """
    if topics < 1:
        raise ValueError("need at least one topic")
    if seed < 0:  # Random folds the sign, so -5 would share 5's stream
        raise ValueError(f"seed must be non-negative, not {seed}")
    alpha = alpha if alpha is not None else 50.0 / topics
    non_empty = [i for i, doc in enumerate(corpus.documents) if doc]
    if not non_empty:
        raise ValueError("corpus has no non-empty documents")
    if topics > len(non_empty):
        log.warning(
            "topic count %d exceeds the %d non-empty documents", topics, len(non_empty)
        )

    V, D, T = len(corpus.vocabulary), len(corpus.documents), topics
    doc_of = np.concatenate(
        [np.full(len(corpus.documents[d]), d, dtype=np.int64) for d in non_empty]
    )
    word_of = np.concatenate(
        [np.asarray(corpus.documents[d], dtype=np.int64) for d in non_empty]
    )
    n_tokens = word_of.size

    rng = random.Random(seed)
    z = np.minimum((_uniforms(rng, n_tokens) * T).astype(np.int64), T - 1)
    n_dk, n_wk, n_k = _topic_counts(doc_of, word_of, z, D, V, T)

    v_beta = V * beta
    chunk = max(1, _CHUNK_CELLS // T)
    changed = 0
    for _ in range(iterations):
        draws = _uniforms(rng, n_tokens)
        new_z = np.empty_like(z)
        for start in range(0, n_tokens, chunk):
            stop = min(start + chunk, n_tokens)
            k = z[start:stop]
            own = (np.arange(stop - start), k)
            doc_part = n_dk[doc_of[start:stop]]
            doc_part[own] -= 1.0
            doc_part += alpha
            word_part = n_wk[word_of[start:stop]]
            word_part[own] -= 1.0
            word_part += beta
            norm = np.tile(n_k + v_beta, (stop - start, 1))
            norm[own] -= 1.0
            doc_part *= word_part
            doc_part /= norm
            cum = np.cumsum(doc_part, axis=1)
            # searchsorted(side="right") per row: how many cumulative
            # masses lie at or below the scaled draw.
            scaled = draws[start:stop] * cum[:, -1]
            picked = np.count_nonzero(cum <= scaled[:, None], axis=1)
            new_z[start:stop] = np.minimum(picked, T - 1)
        changed = int(np.count_nonzero(new_z != z))
        z = new_z
        n_dk, n_wk, n_k = _topic_counts(doc_of, word_of, z, D, V, T)

    phi = (n_wk.T + beta) / (n_k[:, None] + v_beta)
    doc_lengths = np.array([len(doc) for doc in corpus.documents], dtype=float)
    theta = (n_dk + alpha) / (doc_lengths[:, None] + T * alpha)
    return TopicModel(T, phi, theta, corpus.vocabulary, changed / n_tokens)


def emit_topic_triples(
    group: LiteralGroup,
    aug: Augmentation,
    model: TopicModel,
    corpus: Corpus,
    threshold: float = 0.10,
) -> Augmentation:
    """Link each statement's subject to every topic at or above the threshold.

    Statements whose best topic stays below the threshold still link to that
    single best topic, so no statement silently disappears. Statements empty
    after tokenization fall back to a one-entity link. Topic probabilities
    are recorded as edge weights.
    """
    width = max(2, len(str(model.topics - 1)))
    topics = [f"{aug.stem}Topic{k:0{width}d}" for k in range(model.topics)]
    empty = set(corpus.empty_documents)
    for doc_id, subject_id in enumerate(group.subjects):
        if doc_id in empty:
            link_any_value(aug, [subject_id])
            continue
        row = model.theta[doc_id]
        hits = [k for k in range(model.topics) if row[k] >= threshold]
        if not hits:
            hits = [int(np.argmax(row))]
        for k in hits:
            aug.link([subject_id], topics[k], float(row[k]))
    note_fallback(aug, len(empty), f"{len(empty)} statements empty after tokenization")
    return aug


def txtlda(
    group: LiteralGroup,
    aug: Augmentation,
    spec: LdaSpec | None = None,
    seed: int = 0,
    stopwords: Mapping[str, Collection[str]] | None = None,
) -> tuple[Augmentation, TopicModel | None]:
    """The full text strategy: corpus, model, topic links.

    A group with nothing to train on (every document empty) degrades to
    one-entity links for all statements.
    """
    spec = spec if spec is not None else LdaSpec()
    corpus = build_corpus(group, stopwords)
    if not any(corpus.documents):
        link_any_value(aug, group.subjects)
        note_fallback(aug, len(group), "no tokenizable text, all statements")
        return aug, None
    started = time.perf_counter()
    model = train_lda(
        corpus,
        topics=spec.topics,
        alpha=spec.alpha,
        beta=spec.beta,
        iterations=spec.iterations,
        seed=seed,
    )
    log.info(
        "%s: %d tokens, %d sweeps in %.2f s; %.1f%% of tokens changed topic in the last sweep",
        group.predicate,
        sum(len(doc) for doc in corpus.documents),
        spec.iterations,
        time.perf_counter() - started,
        100.0 * model.last_sweep_changed,
    )
    return emit_topic_triples(group, aug, model, corpus, spec.threshold), model
