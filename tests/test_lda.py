"""Tokenization, Gibbs-sampled topic models, and topic statement emission.

The single-topic model admits a closed form (every token lands in topic 0,
so the word distribution is just smoothed corpus frequency); that oracle
pins the count bookkeeping without reference to the sampler.
"""

from __future__ import annotations

import logging
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from literal_forge import IRI, ConfigError, Modality, StrategyConfig, textlda
from literal_forge.textlda import (
    Corpus,
    LdaSpec,
    _uniforms,
    build_corpus,
    emit_topic_triples,
    tokenize,
    train_lda,
    txtlda,
)

from util import EX, NEW, make_graph, text_line, with_aug


def text_group(graph, predicate="abstract"):
    return graph.literal_groups[(graph.relation_ids[EX + predicate], Modality.TEXT)]


# --- tokenization -----------------------------------------------------------


def test_tokenize_casefolds_and_splits():
    assert tokenize("Mannheim, officially the University City") == [
        "mannheim",
        "officially",
        "the",
        "university",
        "city",
    ]


def test_tokenize_drops_short_tokens():
    assert tokenize("a to b or I x2") == ["to", "or", "x2"]


def test_tokenize_splits_on_underscore_keeps_digits():
    assert tokenize("foo_bar 42 naive") == ["foo", "bar", "42", "naive"]


def test_tokenize_stopwords_by_language_tag():
    stop = {"en": ["the", "of"], "de": ["der", "die", "das"]}
    assert tokenize("The City of Mannheim", "en", stop) == ["city", "mannheim"]
    assert tokenize("The City of Mannheim", "en-US", stop) == ["city", "mannheim"]
    assert tokenize("Die Stadt Mannheim", "de", stop) == ["stadt", "mannheim"]
    # unknown tag or no tag: nothing removed
    assert tokenize("the city", "fr", stop) == ["the", "city"]
    assert tokenize("the city", None, stop) == ["the", "city"]


def test_config_stopwords_are_lists_under_casefolded_tags():
    config = StrategyConfig.from_dict({"stopwords": {"EN": ["quick"], "en": ["the"]}})
    assert config.stopwords == {"en": ["quick", "the"]}
    assert tokenize("The quick fox", "en", config.stopwords) == ["fox"]
    for bad in ({"en": "the"}, {"en": [1]}, ["the"]):
        with pytest.raises(ConfigError, match="stopwords"):
            StrategyConfig.from_dict({"stopwords": bad})


def test_tokenize_empty_results():
    assert tokenize("!!! ... ???") == []
    assert tokenize("") == []


# --- corpus -----------------------------------------------------------------


def test_build_corpus_first_encounter_vocabulary():
    graph = make_graph(
        [
            text_line("a", "abstract", "alpha beta alpha"),
            text_line("b", "abstract", "beta gamma"),
        ]
    )
    corpus = build_corpus(text_group(graph))
    assert corpus.vocabulary == ("alpha", "beta", "gamma")
    assert corpus.documents == [[0, 1, 0], [1, 2]]
    assert len(corpus.documents) == 2
    assert corpus.empty_documents == []


def test_build_corpus_flags_empty_documents():
    graph = make_graph(
        [
            text_line("a", "abstract", "real words here"),
            text_line("b", "abstract", "... !!!"),
        ]
    )
    corpus = build_corpus(text_group(graph))
    assert corpus.empty_documents == [1]


def test_build_corpus_applies_stopwords():
    graph = make_graph([text_line("a", "abstract", "the quick fox")])
    corpus = build_corpus(text_group(graph), stopwords={"en": ["the"]})
    assert corpus.vocabulary == ("quick", "fox")


# --- training ---------------------------------------------------------------


def test_single_topic_matches_frequency_oracle():
    graph = make_graph(
        [
            text_line("a", "abstract", "wine wine cheese"),
            text_line("b", "abstract", "wine bread"),
            text_line("c", "abstract", "cheese bread bread"),
        ]
    )
    corpus = build_corpus(text_group(graph))
    beta = 0.01
    model = train_lda(corpus, topics=1, beta=beta, iterations=3, seed=11)
    # counts: wine 3, cheese 2, bread 3; total 8; V = 3
    counts = np.zeros(len(corpus.vocabulary))
    for doc in corpus.documents:
        for w in doc:
            counts[w] += 1
    expected_phi = (counts + beta) / (counts.sum() + len(corpus.vocabulary) * beta)
    assert np.allclose(model.phi[0], expected_phi, atol=1e-12)
    assert np.allclose(model.theta, 1.0, atol=1e-12)


def test_distributions_normalized():
    graph = make_graph(
        [text_line(f"s{i}", "abstract", f"word{i} word{i + 1} shared") for i in range(6)]
    )
    corpus = build_corpus(text_group(graph))
    model = train_lda(corpus, topics=3, iterations=30, seed=5)
    assert np.allclose(model.phi.sum(axis=1), 1.0, atol=1e-9)
    assert np.allclose(model.theta.sum(axis=1), 1.0, atol=1e-9)
    assert (model.phi > 0).all() and (model.theta > 0).all()


def test_training_is_deterministic():
    graph = make_graph(
        [text_line(f"s{i}", "abstract", "alpha beta gamma delta " * 3) for i in range(5)]
    )
    corpus = build_corpus(text_group(graph))
    m1 = train_lda(corpus, topics=3, iterations=40, seed=42)
    m2 = train_lda(corpus, topics=3, iterations=40, seed=42)
    assert np.array_equal(m1.phi, m2.phi)
    assert np.array_equal(m1.theta, m2.theta)


def test_empty_document_gets_uniform_prior():
    corpus = Corpus(documents=[[0, 1], []], vocabulary=("x", "y"))
    model = train_lda(corpus, topics=4, iterations=5, seed=0)
    assert np.allclose(model.theta[1], 0.25)


def test_all_empty_corpus_rejected():
    corpus = Corpus(documents=[[], []], vocabulary=())
    with pytest.raises(ValueError):
        train_lda(corpus, topics=2)


def test_more_topics_than_documents_warns(caplog):
    corpus = Corpus(documents=[[0, 0, 1]], vocabulary=("x", "y"))
    with caplog.at_level(logging.WARNING):
        train_lda(corpus, topics=5, iterations=2, seed=0)
    assert any("exceeds" in r.message for r in caplog.records)


SPORT = "football stadium goal striker keeper referee"
SCIENCE = "molecule reaction catalyst electron proton isotope"


def separable_graph():
    lines = []
    for i in range(10):
        lines.append(text_line(f"match{i}", "abstract", (SPORT + " ") * 2))
        lines.append(text_line(f"article{i}", "abstract", (SCIENCE + " ") * 2))
    return make_graph(lines)


@pytest.mark.parametrize("seed", range(5))
def test_separable_corpus_converges_to_dominant_topics(seed):
    graph = separable_graph()
    corpus = build_corpus(text_group(graph))
    model = train_lda(corpus, topics=2, alpha=0.5, iterations=150, seed=seed)
    dominant = model.theta.argmax(axis=1)
    strength = model.theta.max(axis=1)
    assert (strength > 0.9).all()
    sport_docs = dominant[0::2]
    science_docs = dominant[1::2]
    assert len(set(sport_docs)) == 1
    assert len(set(science_docs)) == 1
    assert sport_docs[0] != science_docs[0]


def test_top_words_reflect_topic_content():
    graph = separable_graph()
    corpus = build_corpus(text_group(graph))
    model = train_lda(corpus, topics=2, alpha=0.5, iterations=150, seed=1)
    tops = model.top_words(6)
    joined = [set(words) for words in tops]
    assert set(SPORT.split()) in joined
    assert set(SCIENCE.split()) in joined


# --- spec -------------------------------------------------------------------


def test_lda_spec_defaults_and_validation():
    spec = LdaSpec()
    assert spec.topics == 20
    assert spec.alpha is None
    for bad in (
        dict(topics=0),
        dict(iterations=0),
        dict(threshold=0.0),
        dict(threshold=1.5),
        dict(beta=0.0),
        dict(beta=-1.0),
        dict(alpha=0.0),
        dict(alpha=-5.0),
    ):
        with pytest.raises(ValueError, match=next(iter(bad))):
            LdaSpec(**bad)


def test_alpha_defaults_to_50_over_topics():
    corpus = build_corpus(text_group(separable_graph()))
    default = train_lda(corpus, topics=4, iterations=20, seed=3)
    explicit = train_lda(corpus, topics=4, alpha=50 / 4, iterations=20, seed=3)
    other = train_lda(corpus, topics=4, alpha=0.5, iterations=20, seed=3)
    assert np.array_equal(default.phi, explicit.phi)
    assert np.array_equal(default.theta, explicit.theta)
    assert not np.array_equal(default.theta, other.theta)


# --- emission ---------------------------------------------------------------


def test_emit_links_topics_above_threshold():
    graph = separable_graph()
    group = text_group(graph)
    corpus = build_corpus(group)
    model = train_lda(corpus, topics=2, alpha=0.5, iterations=150, seed=0)
    aug = emit_topic_triples(*with_aug(group, graph), model, corpus, threshold=0.10)
    assert aug.delta_statements >= len(group)  # at least one topic each
    assert aug.delta_statements <= 2 * len(group)
    assert aug.minted_objects <= {NEW + "abstractTopic00", NEW + "abstractTopic01"}
    # weights carry the topic probabilities
    assert [t for t, _ in aug.weighted] == aug.triples
    assert all(0.0 < w <= 1.0 for _, w in aug.weighted)
    for _, w in aug.weighted:
        assert w > 0.10 or w == pytest.approx(0.10, abs=1e-9)


def test_emit_entity_names_zero_padded():
    graph = make_graph([text_line("a", "abstract", "just some words here")])
    group = text_group(graph)
    corpus = build_corpus(group)
    model = train_lda(corpus, topics=12, alpha=0.1, iterations=10, seed=0)
    aug = emit_topic_triples(*with_aug(group, graph), model, corpus, threshold=0.99)
    # below-threshold document still links to its single best topic
    assert len(aug.triples) == 1
    name = aug.triples[0].object.value
    assert name.startswith(NEW + "abstractTopic")
    assert len(name.removeprefix(NEW + "abstractTopic")) == 2


def test_emit_wide_topic_count_widens_padding():
    graph = make_graph([text_line("a", "abstract", "alpha beta gamma delta epsilon")])
    group = text_group(graph)
    corpus = build_corpus(group)
    model = train_lda(corpus, topics=120, alpha=0.05, iterations=5, seed=0)
    aug = emit_topic_triples(*with_aug(group, graph), model, corpus, threshold=0.9)
    name = aug.triples[0].object.value
    assert len(name.removeprefix(NEW + "abstractTopic")) == 3


def test_emit_empty_document_falls_back():
    graph = make_graph(
        [
            text_line("a", "abstract", "actual words in here"),
            text_line("b", "abstract", "???"),
        ]
    )
    group = text_group(graph)
    corpus = build_corpus(group)
    model = train_lda(corpus, topics=2, alpha=0.5, iterations=20, seed=0)
    aug = emit_topic_triples(*with_aug(group, graph), model, corpus, threshold=0.10)
    assert aug.fallback_statements == 1
    fallback = [t for t in aug.triples if t.object.value == NEW + "abstractAnyValue"]
    assert len(fallback) == 1
    assert fallback[0].subject == IRI(EX + "b")
    assert any("empty after tokenization" in w for w in aug.warnings)


@given(st.integers(0, 1000))
@settings(max_examples=30, deadline=None)
def test_threshold_bounds_edges_per_statement(seed):
    graph = separable_graph()
    group = text_group(graph)
    corpus = build_corpus(group)
    model = train_lda(corpus, topics=8, alpha=0.5, iterations=10, seed=seed)
    aug = emit_topic_triples(*with_aug(group, graph), model, corpus, threshold=0.10)
    per_subject: dict[str, int] = {}
    for t in aug.triples:
        per_subject[t.subject.value] = per_subject.get(t.subject.value, 0) + 1
    # probabilities sum to one, so at most 10 topics clear a 10% threshold
    assert all(1 <= n <= 10 for n in per_subject.values())


# --- full strategy ----------------------------------------------------------


def test_txtlda_full_run():
    graph = separable_graph()
    aug, model = txtlda(
        *with_aug(text_group(graph), graph), LdaSpec(topics=2, alpha=0.5, iterations=150), seed=3
    )
    assert model is not None
    assert aug.delta_entities <= 2
    assert aug.delta_statements >= 20


def test_txtlda_untrainable_group_degrades():
    graph = make_graph(
        [text_line("a", "abstract", "!"), text_line("b", "abstract", "?")]
    )
    aug, model = txtlda(*with_aug(text_group(graph), graph), LdaSpec(topics=2))
    assert model is None
    assert aug.fallback_statements == 2
    assert {t.object.value for t in aug.triples} == {NEW + "abstractAnyValue"}
    assert any("no tokenizable text" in w for w in aug.warnings)


# --- synchronous sampler ----------------------------------------------------


@pytest.mark.parametrize("cells", [1, 7, 55])
def test_chunk_budget_never_changes_the_model(monkeypatch, cells):
    graph = separable_graph()
    corpus = build_corpus(text_group(graph))
    whole = train_lda(corpus, topics=3, alpha=0.5, iterations=25, seed=9)
    # At T=3 these budgets give chunks of 1, 2 and 18 tokens; 18 does not
    # divide the 240-token corpus, so the last chunk is short.
    monkeypatch.setattr(textlda, "_CHUNK_CELLS", cells)
    chunked = train_lda(corpus, topics=3, alpha=0.5, iterations=25, seed=9)
    assert np.array_equal(whole.phi, chunked.phi)
    assert np.array_equal(whole.theta, chunked.theta)
    assert whole.last_sweep_changed == chunked.last_sweep_changed


def loop_reference(corpus, topics, alpha, beta, iterations, seed):
    """The synchronous sweep written per token: every token's topic is drawn
    from the previous sweep's counts minus its own assignment, with the same
    random stream and arithmetic as train_lda. Returns (phi, theta)."""
    T, V, D = topics, len(corpus.vocabulary), len(corpus.documents)
    tokens = [(d, w) for d, doc in enumerate(corpus.documents) for w in doc]
    rng = random.Random(seed)
    z = [min(int(rng.random() * T), T - 1) for _ in tokens]
    for sweep in range(iterations + 1):
        n_dk, n_wk, n_k = np.zeros((D, T)), np.zeros((V, T)), np.zeros(T)
        for (d, w), k in zip(tokens, z):
            n_dk[d, k] += 1.0
            n_wk[w, k] += 1.0
            n_k[k] += 1.0
        if sweep == iterations:
            break
        draws = [rng.random() for _ in tokens]
        new_z = list(z)
        for i, ((d, w), k) in enumerate(zip(tokens, z)):
            own = np.zeros(T)
            own[k] = 1.0
            p = (n_dk[d] - own + alpha) * (n_wk[w] - own + beta) / (n_k + V * beta - own)
            cum = np.cumsum(p)
            new_z[i] = min(int(np.searchsorted(cum, draws[i] * cum[-1], side="right")), T - 1)
        z = new_z
    phi = (n_wk.T + beta) / (n_k[:, None] + V * beta)
    lengths = np.array([len(doc) for doc in corpus.documents], dtype=float)
    theta = (n_dk + alpha) / (lengths[:, None] + T * alpha)
    return phi, theta


def test_sweep_matches_per_token_loop_reference():
    # 13 tokens, so each sweep takes an odd number of draws.
    corpus = Corpus(
        documents=[[0, 1, 2, 1], [], [3, 3, 4], [2, 4, 0, 0, 1], [5]],
        vocabulary=tuple("abcdef"),
    )
    model = train_lda(corpus, topics=3, alpha=0.4, beta=0.05, iterations=12, seed=4)
    phi, theta = loop_reference(corpus, 3, 0.4, 0.05, 12, 4)
    assert np.array_equal(model.phi, phi)
    assert np.array_equal(model.theta, theta)


@pytest.mark.parametrize("seed", [0, 7, 2**32, 2**63 - 1])
@pytest.mark.parametrize("n", [1, 2, 7, 1000])
def test_bulk_draws_equal_the_random_sequence(seed, n):
    rng, reference = random.Random(seed), random.Random(seed)
    assert _uniforms(rng, n).tolist() == [reference.random() for _ in range(n)]
    # Both generators are left in the same state.
    assert rng.random() == reference.random()


def test_negative_seed_is_refused():
    corpus = Corpus(documents=[[0, 1]], vocabulary=("x", "y"))
    with pytest.raises(ValueError, match="seed"):
        train_lda(corpus, topics=2, iterations=1, seed=-5)


PLANTED_TOPICS = 8
PLANTED_WORDS = 40


def planted_corpus(seed: int, documents: int = 450) -> tuple[Corpus, np.ndarray]:
    """Documents of 10-18 tokens drawn 80/20 from two of 8 disjoint 40-word
    topics, the shape of the text-topics benchmark graph. Also returns each
    document's main topic."""
    rng = np.random.default_rng(seed)
    docs, mains = [], []
    for _ in range(documents):
        main, second = rng.choice(PLANTED_TOPICS, size=2, replace=False)
        length = int(rng.integers(10, 19))
        topic = np.where(rng.random(length) < 0.8, main, second)
        words = rng.integers(0, PLANTED_WORDS, length)
        docs.append([int(t * PLANTED_WORDS + w) for t, w in zip(topic, words)])
        mains.append(int(main))
    vocabulary = tuple(
        f"t{t}w{w}" for t in range(PLANTED_TOPICS) for w in range(PLANTED_WORDS)
    )
    return Corpus(docs, vocabulary), np.array(mains)


def word_recovery(model) -> float:
    """Mean over planted topics of the best overlap between its 40 words and
    some learned topic's 40 most probable words; merged topics score 0.5."""
    tops = [
        set(np.argsort(-model.phi[k], kind="stable")[:PLANTED_WORDS].tolist())
        for k in range(model.topics)
    ]
    planted = [
        set(range(j * PLANTED_WORDS, (j + 1) * PLANTED_WORDS)) for j in range(PLANTED_TOPICS)
    ]
    return float(np.mean([max(len(top & words) for top in tops) / PLANTED_WORDS for words in planted]))


def document_purity(model, mains: np.ndarray) -> float:
    """Share of documents whose dominant topic's majority main topic is theirs."""
    dominant = model.theta.argmax(axis=1)
    return sum(
        np.bincount(mains[dominant == k], minlength=PLANTED_TOPICS).max()
        for k in np.unique(dominant)
    ) / len(mains)


# At 100 sweeps the bars are the mean recovery that the sequential per-token
# sampler, which the synchronous sweep replaced, reached on the same corpora
# and seeds, rounded down to two decimals. At 300 sweeps they are the mean
# minus two standard errors of the synchronous sampler on numpy's PCG64
# stream over these ten seeds, rounded down: recovery varies by about 0.07
# from seed to seed, so a mean over fewer seeds measures the stream's luck.
@pytest.mark.parametrize(
    "sweeps, seeds, words_bar, purity_bar",
    [(100, 5, 0.52, 0.70), (300, 10, 0.81, 0.89)],
)
def test_planted_topics_recovered_as_well_as_sequential_sampler(
    sweeps, seeds, words_bar, purity_bar
):
    words, purity = [], []
    for seed in range(seeds):
        corpus, mains = planted_corpus(100 + seed)
        model = train_lda(corpus, topics=PLANTED_TOPICS, iterations=sweeps, seed=seed)
        words.append(word_recovery(model))
        purity.append(document_purity(model, mains))
    assert np.mean(words) >= words_bar, words
    assert np.mean(purity) >= purity_bar, purity


def test_txtlda_logs_one_progress_line_per_group(caplog):
    graph = separable_graph()
    spec = LdaSpec(topics=2, alpha=0.5, iterations=40)
    with caplog.at_level(logging.INFO, logger="literal_forge.textlda"):
        txtlda(*with_aug(text_group(graph), graph), spec, seed=3)
    lines = [r.getMessage() for r in caplog.records if r.name == "literal_forge.textlda"]
    assert len(lines) == 1
    assert lines[0].startswith(EX + "abstract: 240 tokens, 40 sweeps in ")
    assert lines[0].endswith("of tokens changed topic in the last sweep")
