"""Acceptance gate: every documented bound and worked example, end to end.

One test per criterion. Each prints a single ``criterion NN PASS/FAIL``
line (run pytest with ``-s`` to see them) and asserts at the stated
tolerance. Downstream embedding quality is out of scope at desk scale;
criterion 10 instead offers an opt-in profile check against a full public
dump when one is supplied via the environment.
"""

from __future__ import annotations

import datetime
import hashlib
import io
import math
import os
import time
from collections import Counter

import numpy as np
import pytest

from literal_forge import (
    IRI,
    Literal,
    StrategyConfig,
    Triple,
    apply,
    check_output,
    format_triple,
    iter_ntriples,
    profile_stream,
)
from literal_forge.binning import BinningSpec, bin_count
from literal_forge.graph import Modality
from literal_forge.pipeline import GroupPlan, shortcut_defaults
from literal_forge.subpop import REL, RelationDistribution, kl_divergence, kl_rel_binning, split_population
from literal_forge.temporal import datfeat
from literal_forge.textlda import build_corpus, emit_topic_triples, train_lda

from test_binning import assert_scores_match
from test_lda import SCIENCE, SPORT, separable_graph, text_group
from test_subpop import height_group, person_building_lines
from util import (
    EX,
    IMAGE_RULES,
    MANNHEIM_NT,
    NEW,
    XSD,
    date_line,
    make_graph,
    numeric_line,
    rel_line,
    text_line,
    with_aug,
    write_tag_map,
)


def check(num: int, label: str, problems: list[str], detail: str = "") -> None:
    ok = not problems
    line = f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {label}"
    if detail:
        line += f" ({detail})"
    if problems:
        line += " :: " + "; ".join(problems)
    print(line)
    assert ok, line


def minted_by_predicate(result, namespace: str) -> dict[str, tuple[int, int]]:
    """Measured (delta_entities, delta_statements) per predicate, taken from
    the output triples themselves rather than from the run report."""
    per: dict[str, tuple[set, int]] = {}
    for t in result.triples:
        if isinstance(t.subject, IRI) and t.subject.value.startswith(namespace):
            continue  # structural triples hang off minted subjects
        if isinstance(t.object, IRI) and t.object.value.startswith(namespace):
            entities, count = per.setdefault(t.predicate.value, (set(), 0))
            entities.add(t.object.value)
            per[t.predicate.value] = (entities, count + 1)
    return {p: (len(e), c) for p, (e, c) in per.items()}


# --- criterion 1: size bound formulas on a 10,000-statement graph ------------

LABELS = ["building", "bridge", "castle", "fountain", "museum", "stadium", "tower"]
WORDS = [
    "alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf", "hotel",
    "india", "juliet", "kilo", "lima", "mike", "november", "oscar", "papa",
    "quebec", "romeo", "sierra", "tango",
]


def synthetic_lines() -> list[str]:
    lines = [rel_line("hub", "knows", "spoke")]
    for i in range(3000):
        lines.append(numeric_line(f"n{i}", "height", f"{i % 120}.5"))
    start = datetime.date(1990, 1, 1)
    for i in range(2000):
        day = start + datetime.timedelta(days=i % 400)
        lines.append(date_line(f"d{i}", "established", day.isoformat()))
    for i in range(2000):
        v = i % 250
        sentence = f"topic{v:03d} " + " ".join(WORDS[(v + j * j) % 20] for j in range(6))
        lines.append(text_line(f"t{i}", "abstract", sentence))
    for i in range(1000):
        lines.append(rel_line(f"p{i}", "depiction", f"img/i{i}.jpg"))
    for i in range(2000):
        value = "true" if i % 2 == 0 else "false"
        lines.append(f'<{EX}m{i}> <{EX}flag> "{value}"^^<{XSD}boolean> .')
    return lines


S_PER = {
    EX + "height": 3000,
    EX + "established": 2000,
    EX + "abstract": 2000,
    EX + "depiction": 1000,
    EX + "flag": 2000,
}
V_PER = {
    EX + "height": 120,
    EX + "established": 400,
    EX + "abstract": 250,
    EX + "depiction": 1000,
    EX + "flag": 2,
}


def test_criterion_01_size_bounds_on_synthetic_graph(tmp_path):
    problems: list[str] = []
    started = time.monotonic()
    lines = synthetic_lines()
    graph = make_graph(lines, IMAGE_RULES)
    if sum(len(g.subjects) for g in graph.groups()) != 10_000:
        problems.append("fixture does not hold 10,000 literal statements")

    def run(defaults, **kwargs):
        config = StrategyConfig(namespace=NEW, seed=2, defaults=defaults, **kwargs)
        result = apply(make_graph(lines, IMAGE_RULES), config)
        leftover = check_output(result.triples, result.report)
        if leftover:
            problems.append(f"output inconsistent: {leftover[0]}")
        return minted_by_predicate(result, NEW)

    # value-to-entity: dE == V per predicate, dS == S per predicate
    measured = run(shortcut_defaults("TRANSFORM", None))
    for pred, S in S_PER.items():
        dE, dS = measured[pred]
        if dS != S:
            problems.append(f"TRANSFORM {pred}: dS {dS} != {S}")
        if dE != V_PER[pred]:
            problems.append(f"TRANSFORM {pred}: dE {dE} != V {V_PER[pred]}")
    if sum(e for e, _ in measured.values()) > sum(V_PER.values()) * len(V_PER):
        problems.append("TRANSFORM: total dE above V*R")

    # single-marker: dE == 1, dS == S per predicate
    measured = run(shortcut_defaults("ONEENTITY", None))
    for pred, S in S_PER.items():
        dE, dS = measured[pred]
        if (dE, dS) != (1, S):
            problems.append(f"ONEENTITY {pred}: ({dE}, {dS}) != (1, {S})")

    # fixed-count binning: dE <= n*R, dS == S on the binned predicates
    defaults = shortcut_defaults("ONEENTITY", None)
    defaults[Modality.NUMERIC] = GroupPlan("NBINS", {"bins": 10})
    defaults[Modality.TEMPORAL] = GroupPlan("DATBIN", {"bins": 10})
    measured = run(defaults)
    for pred in (EX + "height", EX + "established"):
        dE, dS = measured[pred]
        if dS != S_PER[pred]:
            problems.append(f"binning {pred}: dS {dS} != {S_PER[pred]}")
        if dE > 10:
            problems.append(f"binning {pred}: dE {dE} > 10 bins")

    # calendar features: dS == 5*S on the date predicate
    defaults = shortcut_defaults("ONEENTITY", None)
    defaults[Modality.TEMPORAL] = GroupPlan("DATFEAT")
    measured = run(defaults)
    dE, dS = measured[EX + "established"]
    if dS != 5 * S_PER[EX + "established"]:
        problems.append(f"DATFEAT: dS {dS} != 5*S {5 * S_PER[EX + 'established']}")

    # topics: dE <= T, S <= dS <= T*S on the text predicate
    defaults = shortcut_defaults("ONEENTITY", None)
    defaults[Modality.TEXT] = GroupPlan("TXTLDA", {"topics": 20, "iterations": 30})
    measured = run(defaults)
    dE, dS = measured[EX + "abstract"]
    S = S_PER[EX + "abstract"]
    if dE > 20:
        problems.append(f"TXTLDA: dE {dE} > T=20")
    if not S <= dS <= 20 * S:
        problems.append(f"TXTLDA: dS {dS} outside [S, T*S]")

    # image labels: dS == S on the image predicate
    tag_map = write_tag_map(
        tmp_path / "tags.json",
        {EX + f"img/i{i}.jpg": LABELS[i % len(LABELS)] for i in range(1000)},
    )
    defaults = shortcut_defaults("ONEENTITY", None)
    defaults[Modality.IMAGE] = GroupPlan("IMAGETAGS")
    measured = run(defaults, image_provider={"kind": "tag-map", "path": tag_map})
    dE, dS = measured[EX + "depiction"]
    if dS != S_PER[EX + "depiction"]:
        problems.append(f"IMAGETAGS: dS {dS} != S {S_PER[EX + 'depiction']}")
    if dE != len(LABELS):
        problems.append(f"IMAGETAGS: dE {dE} != {len(LABELS)} labels")

    elapsed = time.monotonic() - started
    if elapsed >= 30.0:
        problems.append(f"runtime {elapsed:.1f}s >= 30s")
    check(1, "size bound formulas hold on the 10,000-statement graph", problems,
          f"{elapsed:.1f}s")


# --- criterion 2: proportional binning worked example ------------------------


def test_criterion_02_percent_binning_twenty_bins():
    problems: list[str] = []
    spec = BinningSpec(percent=0.10)
    if bin_count(1000, 200, spec) != 20:
        problems.append(f"bin_count gave {bin_count(1000, 200, spec)}")
    lines = [numeric_line(f"s{i}", "height", f"{i % 200}.0") for i in range(1000)]
    config = StrategyConfig(
        namespace=NEW, defaults=shortcut_defaults("PBINS", None)
    )
    result = apply(make_graph(lines), config)
    entities = {
        t.object.value
        for t in result.triples
        if isinstance(t.object, IRI) and t.object.value.startswith(NEW + "heightBin")
    }
    if len(entities) != 20:
        problems.append(f"{len(entities)} bin entities minted, expected 20")
    check(2, "1,000 occurrences of 200 values at 10% give exactly 20 bins", problems)


# --- criterion 3: calendar feature worked example ----------------------------


def test_criterion_03_five_calendar_features():
    problems: list[str] = []
    graph = make_graph([date_line("Mannheim", "foundingDate", "1607-01-24")])
    config = StrategyConfig(namespace=NEW, defaults=shortcut_defaults("DATFEAT", None))
    result = apply(graph, config)
    objects = {
        t.object.value
        for t in result.triples
        if not t.subject.value.startswith(NEW)
    }
    expected = {
        NEW + "wednesday",
        NEW + "day24",
        NEW + "month1",
        NEW + "quarter1",
        NEW + "year1607",
    }
    if objects != expected:
        problems.append(f"feature entities {sorted(objects)} != expected")
    check(3, "1607-01-24 yields wednesday/day24/month1/quarter1/year1607", problems)


# --- criterion 4: baseline worked examples on the city fixture ---------------


def test_criterion_04_city_fixture_examples(tmp_path):
    problems: list[str] = []
    pop = f"<{EX}Mannheim> <{EX}populationMetro> "

    def lines_of(result) -> set[str]:
        return {format_triple(t) for t in result.triples}

    graph = make_graph(MANNHEIM_NT.decode().splitlines(), IMAGE_RULES)
    transform = apply(
        make_graph(MANNHEIM_NT.decode().splitlines(), IMAGE_RULES),
        StrategyConfig(namespace=NEW, defaults=shortcut_defaults("TRANSFORM", None)),
    )
    if pop + f"<{NEW}populationMetro2362046> ." not in lines_of(transform):
        problems.append("value-entity statement for the metro population is missing")

    one = apply(
        make_graph(MANNHEIM_NT.decode().splitlines(), IMAGE_RULES),
        StrategyConfig(namespace=NEW, defaults=shortcut_defaults("ONEENTITY", None)),
    )
    if pop + f"<{NEW}populationMetroAnyValue> ." not in lines_of(one):
        problems.append("any-value statement for the metro population is missing")

    tag_map = write_tag_map(tmp_path / "tags.json", {EX + "img/mannheim.jpg": "building"})
    tagged = apply(
        make_graph(MANNHEIM_NT.decode().splitlines(), IMAGE_RULES),
        StrategyConfig(
            namespace=NEW,
            defaults=shortcut_defaults("IMAGETAGS", "ONEENTITY"),
            image_provider={"kind": "tag-map", "path": tag_map},
        ),
    )
    expected = f"<{EX}Mannheim> <{EX}depiction> <{NEW}VGG_building> ."
    if expected not in lines_of(tagged):
        problems.append("depiction was not rewritten to the VGG_building entity")
    check(4, "city fixture reproduces the three baseline statements exactly", problems)


# --- criterion 5: divergence and outlier oracles ------------------------------


def test_criterion_05_kl_and_lof_oracles():
    problems: list[str] = []
    started = time.monotonic()

    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(1000):
        m = int(rng.integers(2, 31))
        vocab = tuple(f"r{i}" for i in range(m))
        p = rng.gamma(1.0, size=m) + 1e-12
        q = rng.gamma(1.0, size=m) + 1e-12
        p /= p.sum()
        q /= q.sum()
        P = RelationDistribution(vocab, p)
        Q = RelationDistribution(vocab, q)
        direct = float(sum(pi * math.log(pi / qi) for pi, qi in zip(p, q)))
        worst = max(worst, abs(kl_divergence(P, Q) - direct))
        if abs(kl_divergence(P, Q) - direct) > 1e-9:
            problems.append(f"kl mismatch {kl_divergence(P, Q)} vs {direct}")
            break
        if kl_divergence(P, P) != 0.0:
            problems.append("KL(P,P) != 0")
            break

    for case in range(200):
        k = int(rng.integers(2, 8))
        n = int(rng.integers(k + 2, 51))
        regime = case % 3
        if regime == 0:
            values = rng.uniform(-100, 100, n)
        elif regime == 1:
            half = n // 2
            values = np.concatenate(
                [rng.normal(0.0, 1.0, half), rng.normal(50.0, 0.1, n - half)]
            )
        else:
            values = rng.choice([0.0, 1.0, 2.5, 100.0], size=n)
        try:
            assert_scores_match(values, k)
        except AssertionError as exc:
            problems.append(f"lof fixture {case}: {exc}")
            break

    elapsed = time.monotonic() - started
    if elapsed >= 60.0:
        problems.append(f"runtime {elapsed:.1f}s >= 60s")
    check(5, "1,000 KL pairs and 200 LOF fixtures match direct evaluation", problems,
          f"max KL error {worst:.2e}, {elapsed:.1f}s")


# --- criterion 6: subpopulation split fixture --------------------------------


def test_criterion_06_population_splits_on_distinguishing_relation():
    problems: list[str] = []
    graph = make_graph(person_building_lines())
    group = height_group(graph)
    split = split_population(group, graph, REL, threshold=300)
    if split.nodes[0].feature != EX + "birthPlace":
        problems.append(f"root split on {split.nodes[0].feature}")
    if len(split.leaves) != 2:
        problems.append(f"{len(split.leaves)} leaves")
    else:
        first = {graph.entity_terms[s].value for s in split.leaves[0].subjects}
        second = {graph.entity_terms[s].value for s in split.leaves[1].subjects}
        persons = {EX + f"person{i}" for i in range(400)}
        buildings = {EX + f"building{i}" for i in range(400)}
        if first != persons or second != buildings:
            problems.append("leaves are not exactly the person/building partition")
    for leaf in split.leaves:
        if leaf.value_count >= 300 and not leaf.indivisible:
            problems.append("a leaf is both large and divisible")
    aug, _ = kl_rel_binning(
        *with_aug(group, graph), graph, REL, BinningSpec(bins=3, split_threshold=300)
    )
    expected = {NEW + f"heightSub{s}Bin{i:02d}" for s in (0, 1) for i in range(3)}
    if aug.minted_objects != expected:
        problems.append("per-leaf bin vocabulary is wrong")
    check(6, "800-subject population splits exactly into persons and buildings", problems)


# --- criterion 7: topic separability -----------------------------------------


def test_criterion_07_lda_separates_disjoint_vocabularies():
    problems: list[str] = []
    for seed in range(5):
        graph = separable_graph()
        group = text_group(graph)
        corpus = build_corpus(group)
        model = train_lda(corpus, topics=2, alpha=0.5, iterations=500, seed=seed)
        if not (np.abs(model.theta.sum(axis=1) - 1.0) <= 1e-9).all():
            problems.append(f"seed {seed}: theta rows not normalized")
        if not (np.abs(model.phi.sum(axis=1) - 1.0) <= 1e-9).all():
            problems.append(f"seed {seed}: phi rows not normalized")
        dominant = model.theta.max(axis=1)
        if not (dominant > 0.9).all():
            problems.append(f"seed {seed}: weakest dominance {dominant.min():.3f}")
        kinds = {}
        for doc, subject_id in enumerate(group.subjects):  # one document per statement
            name = graph.entity_terms[subject_id].value
            kind = "sport" if "match" in name else "science"
            kinds.setdefault(kind, set()).add(int(model.theta[doc].argmax()))
        if kinds["sport"] == kinds["science"] or len(kinds["sport"]) != 1:
            problems.append(f"seed {seed}: groups do not map to distinct topics")

    # at a 10% threshold no statement can clear it for more than 10 topics
    graph = separable_graph()
    group = text_group(graph)
    corpus = build_corpus(group)
    model = train_lda(corpus, topics=20, iterations=50, seed=0)
    aug = emit_topic_triples(*with_aug(group, graph), model, corpus, threshold=0.10)
    per_subject = Counter(t.subject.value for t in aug.triples)
    if max(per_subject.values()) > 10:
        problems.append(f"{max(per_subject.values())} topic edges for one statement")
    check(7, "disjoint vocabularies dominate distinct topics for 5 of 5 seeds", problems)


# --- criterion 8: pipeline invariants across all strategies -------------------

ALL_STRATEGIES = [
    "EXCLUDE", "TRANSFORM", "ONEENTITY", "NBINS", "PBINS", "KLREL", "KLRELENT",
    "DATBIN", "DATFEAT", "TXTLDA", "IMAGETAGS", "COMBINED",
]


def test_criterion_08_pipeline_invariants(tmp_path):
    problems: list[str] = []
    lines = [rel_line("a", "knows", "b"), rel_line("b", "knows", "c")]
    lines += [numeric_line(f"n{i}", "height", f"{i}.5") for i in range(8)]
    lines += [date_line("d0", "founded", "2001-05-14"), date_line("d1", "founded", "2003-11-02")]
    lines += [
        text_line("t0", "abstract", "solar panels convert sunlight into power"),
        text_line("t1", "abstract", "wind turbines convert motion into power"),
    ]
    lines += [rel_line("a", "depiction", "img/a.jpg")]
    tag_map = write_tag_map(tmp_path / "tags.json", {EX + "img/a.jpg": "building"})

    base = make_graph(lines, IMAGE_RULES)
    relational_expected = Counter(format_triple(t) for t in base.relational_triples())
    input_vocab = set()
    for t in list(base.relational_triples()):
        input_vocab.update([t.subject.value, t.predicate.value, t.object.value])
    for g in base.groups():
        input_vocab.add(base.relation_iris[g.relation_id] if hasattr(g, "relation_id") else g.predicate)
        for subject_id, lexical, datatype in zip(g.subjects, g.lexicals, g.datatypes):
            input_vocab.add(base.entity_terms[subject_id].value)
            if datatype is IRI:  # an image IRI: its class stands as datatype
                input_vocab.add(lexical)

    for strategy in ALL_STRATEGIES:
        outputs = []
        for _ in range(2):
            config = StrategyConfig(
                namespace=NEW,
                seed=11,
                defaults=shortcut_defaults(strategy, "ONEENTITY"),
                image_provider={"kind": "tag-map", "path": tag_map},
            )
            result = apply(make_graph(lines, IMAGE_RULES), config)
            outputs.append("\n".join(format_triple(t) for t in result.triples))
            if any(isinstance(t.object, Literal) for t in result.triples):
                problems.append(f"{strategy}: literal survived")
            got_relational = Counter(
                format_triple(t)
                for t in result.triples
                if not any(
                    term.value.startswith(NEW)
                    for term in (t.subject, t.predicate, t.object)
                    if isinstance(term, (IRI,))
                )
                and not isinstance(t.object, Literal)
            )
            if got_relational != relational_expected:
                problems.append(f"{strategy}: relational multiset changed")
            for t in result.triples:
                for term in (t.subject, t.predicate, t.object):
                    if isinstance(term, IRI) and term.value not in input_vocab:
                        if not term.value.startswith(NEW):
                            problems.append(f"{strategy}: stray IRI {term.value}")
        if outputs[0] != outputs[1]:
            problems.append(f"{strategy}: a rerun changed the output bytes")
    check(8, "relational preservation, literal-free output, confined minting,"
             " rerun-stable bytes across all 12 strategies", problems)


# --- criterion 9: parser round-trip at volume --------------------------------


def canonical_corpus(n: int) -> bytes:
    chunks = []
    for i in range(n):
        kind = i % 5
        if kind == 0:
            chunks.append(f"<http://ex.org/s{i}> <http://ex.org/p{i % 97}> <http://ex.org/o{i % 1013}> .")
        elif kind == 1:
            chunks.append(
                f'<http://ex.org/s{i}> <http://ex.org/val> "{i}"^^<http://www.w3.org/2001/XMLSchema#integer> .'
            )
        elif kind == 2:
            chunks.append(
                f'<http://ex.org/s{i}> <http://ex.org/name> "name {i} \\"quoted\\" \\\\slash\\\\ café\traw tab" .'
            )
        elif kind == 3:
            chunks.append(
                f'<http://ex.org/s{i}> <http://ex.org/txt> "line\\nbreak {i} \U0001F600 end" .'
            )
        else:
            chunks.append(f"_:b{i} <http://ex.org/rel> _:c{i} .")
    chunks.append("")
    return "\n".join(chunks).encode()


def test_criterion_09_parser_round_trip_million_lines():
    problems: list[str] = []
    n = 1_000_000
    data = canonical_corpus(n)

    started = time.monotonic()
    parsed = 0
    for _ in iter_ntriples(io.BytesIO(data)):
        parsed += 1
    parse_seconds = time.monotonic() - started
    rate = parsed / parse_seconds
    if parsed != n:
        problems.append(f"parsed {parsed} of {n} lines")
    if rate < 100_000:
        problems.append(f"throughput {rate:,.0f} lines/s < 100,000")

    digest_in = hashlib.sha256(data).hexdigest()
    digest_out = hashlib.sha256()
    for triple in iter_ntriples(io.BytesIO(data)):
        digest_out.update((format_triple(triple) + "\n").encode())
    if digest_out.hexdigest() != digest_in:
        problems.append("serialize(parse(input)) differs from the input bytes")
    check(9, "1M-line round-trip identity", problems, f"{rate:,.0f} lines/s")


# --- criterion 10: full public dump profile (opt-in) -------------------------

DUMP_ENV = "LITERAL_FORGE_DMG777K"


@pytest.mark.skipif(
    DUMP_ENV not in os.environ,
    reason=(
        "opt-in large-input check: set LITERAL_FORGE_DMG777K to a local copy of "
        "the dmg777k N-Triples dump to verify the published profile counts; "
        "downstream embedding accuracy is out of scope and is covered instead "
        "by criteria 1-9"
    ),
)
def test_criterion_10_public_dump_profile():
    problems: list[str] = []
    path = os.environ[DUMP_ENV]
    with open(path, "rb") as fh:
        result = profile_stream(iter_ntriples(fh))
    data = result.to_dict()
    if data["triples"] != 777_124:
        problems.append(f"triples {data['triples']} != 777,124")
    if data["objects"]["literals"] != 488_745:
        problems.append(f"literal objects {data['objects']['literals']} != 488,745")
    check(10, "dmg777k dump profile matches the published counts", problems)
