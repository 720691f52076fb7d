"""Seeded generators for the benchmark's three workloads.

Each generator writes one N-Triples graph, a one-statement graph for the
set-up probe and, where the workload needs them, a JSON config and a tag
map. The same (workload, seed, scale) always gives the same bytes. The
program under test receives only these files.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

EX = "http://data.example.com/"
ONT = EX + "ontology/"
XSD = "http://www.w3.org/2001/XMLSchema#"
RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"

WORKLOADS = ("numeric-subpop", "relational-bulk", "text-topics")


@dataclass(frozen=True)
class Inputs:
    """Paths and counts of one generated workload."""

    graph: Path
    lines: int
    setup_graph: Path
    config: Path | None


def _link(s: str, p: str, o: str) -> str:
    return f"<{s}> <{p}> <{o}> ."


def _typed(s: str, p: str, lexical: str, datatype: str) -> str:
    return f'<{s}> <{p}> "{lexical}"^^<{XSD}{datatype}> .'


def _date(rng: random.Random, first_year: int, last_year: int) -> str:
    return f"{rng.randint(first_year, last_year):04d}-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}"


def _heavy_tailed(rng: random.Random, median: float, sigma: float) -> str:
    """Log-normal body with a 1% Pareto tail, so LOF has outliers to divert."""
    value = rng.lognormvariate(0.0, sigma) * median
    if rng.random() < 0.01:
        value *= 5.0 + rng.paretovariate(1.5)
    return f"{value:.3f}"


def numeric_subpop(rng: random.Random, scale: float) -> tuple[list[str], str, None]:
    """Persons and buildings share height/weight but not their relations.

    Every person has the signature {type, worksFor, knows (out and in)} and
    every building {type, locatedIn}, so KLREL splits each numeric group into
    exactly two leaves. Dates go to DATBIN and booleans to TRANSFORM under
    the COMBINED defaults; no config file is used.
    """
    persons = max(40, int(2400 * scale))
    buildings = max(40, int(2400 * scale))
    orgs = max(2, persons // 25)
    cities = max(2, buildings // 40)
    lines: list[str] = []
    for i in range(persons):
        s = f"{EX}person/P{i}"
        lines.append(_link(s, RDF_TYPE, ONT + "Person"))
        lines.append(_link(s, ONT + "worksFor", f"{EX}org/O{rng.randrange(orgs)}"))
        # A ring keeps an incoming knows edge on every person.
        lines.append(_link(s, ONT + "knows", f"{EX}person/P{(i + 1) % persons}"))
        lines.append(_typed(s, ONT + "height", _heavy_tailed(rng, 1.72, 0.08), "decimal"))
        lines.append(_typed(s, ONT + "weight", _heavy_tailed(rng, 74.0, 0.18), "decimal"))
        lines.append(_typed(s, ONT + "birthDate", _date(rng, 1930, 2010), "date"))
        lines.append(_typed(s, ONT + "active", rng.choice(("true", "false")), "boolean"))
    for i in range(buildings):
        s = f"{EX}building/B{i}"
        lines.append(_link(s, RDF_TYPE, ONT + "Building"))
        lines.append(_link(s, ONT + "locatedIn", f"{EX}city/C{rng.randrange(cities)}"))
        lines.append(_typed(s, ONT + "height", _heavy_tailed(rng, 24.0, 0.6), "decimal"))
        lines.append(_typed(s, ONT + "weight", _heavy_tailed(rng, 9000.0, 0.9), "decimal"))
        lines.append(_typed(s, ONT + "constructionDate", _date(rng, 1700, 2020), "date"))
        lines.append(_typed(s, ONT + "listed", rng.choice(("true", "false")), "boolean"))
    setup = _typed(f"{EX}person/P0", ONT + "height", "1.720", "decimal")
    return lines, setup, None


def relational_bulk(rng: random.Random, scale: float) -> tuple[list[str], str, None]:
    """About 93% long-IRI links plus one boolean predicate on half the items.

    Parse, index, merge, serialize and check_output carry the work; the
    only strategy is TRANSFORM on the booleans, a few percent of apply.
    """
    items = max(60, int(5400 * scale))
    relations = [
        f"{EX}ontology/relationships/v2/{name}"
        for name in (
            "isPartOfCollection",
            "hasCuratedDerivative",
            "wasInfluencedByWork",
            "sharesProvenanceWith",
            "isCitedByPublication",
            "hasRelatedDigitalObject",
            "isVariantFormOf",
            "wasAcquiredFromSource",
        )
    ]
    sections = ("archive", "gallery", "library", "repository", "museum")

    def item_iri(i: int) -> str:
        section = sections[i % len(sections)]
        return f"{EX}resource/collections/{section}/objects/item-{i:08d}-{(i * 2654435761) % 2**32:08x}"

    lines: list[str] = []
    for i in range(items):
        s = item_iri(i)
        for rel in relations:
            if rng.random() < 0.9:
                lines.append(_link(s, rel, item_iri(rng.randrange(items))))
        if rng.random() < 0.5:
            lines.append(_typed(s, ONT + "openAccess", rng.choice(("true", "false")), "boolean"))
    setup = _link(item_iri(0), relations[0], item_iri(1))
    return lines, setup, None


_SYLLABLES = (
    "ka", "lo", "mi", "ne", "ru", "sa", "ti", "vo", "ze", "pa", "qu", "do",
    "fe", "gi", "ho", "ju", "be", "ci", "ma", "no", "ra", "si", "to", "wu",
)


def _vocabulary(rng: random.Random, topics: int, words: int) -> list[list[str]]:
    seen: set[str] = set()
    out: list[list[str]] = []
    for _ in range(topics):
        topic: list[str] = []
        while len(topic) < words:
            word = "".join(rng.choice(_SYLLABLES) for _ in range(rng.randint(2, 4)))
            if word not in seen:
                seen.add(word)
                topic.append(word)
        out.append(topic)
    return out


def text_topics(
    rng: random.Random, scale: float, workdir: Path
) -> tuple[list[str], str, Path]:
    """Language-tagged abstracts for TXTLDA, images through a tag map, DATFEAT dates.

    The config lowers the LDA sweep count so one transform stays a few
    seconds long, and about 5% of the image IRIs are missing from the tag
    map, so those statements take the fallback link.
    """
    articles = max(30, int(450 * scale))
    authors = max(2, articles // 10)
    vocab = _vocabulary(rng, topics=8, words=40)
    tag_map: dict[str, list[dict[str, object]]] = {}
    labels = [f"label{k}" for k in range(30)]
    lines: list[str] = []
    for i in range(articles):
        s = f"{EX}article/A{i}"
        lines.append(_link(s, RDF_TYPE, ONT + "Article"))
        lines.append(_link(s, ONT + "author", f"{EX}person/P{rng.randrange(authors)}"))
        lines.append(_link(s, ONT + "about", f"{EX}subject/S{rng.randrange(40)}"))
        main, second = rng.sample(range(len(vocab)), 2)
        words = [
            rng.choice(vocab[main] if rng.random() < 0.8 else vocab[second])
            for _ in range(rng.randint(10, 18))
        ]
        lang = "en" if rng.random() < 0.7 else "de"
        lines.append(f'<{s}> <{ONT}abstract> "{" ".join(words).capitalize()}."@{lang} .')
        image = f"http://images.example.com/depictions/{i:06d}/{rng.getrandbits(32):08x}.jpg"
        lines.append(_link(s, ONT + "depiction", image))
        if rng.random() >= 0.05:
            top = rng.sample(labels, 2)
            tag_map[image] = [
                {"name": top[0], "score": round(rng.uniform(0.6, 0.95), 3)},
                {"name": top[1], "score": round(rng.uniform(0.05, 0.4), 3)},
            ]
        lines.append(_typed(s, ONT + "published", _date(rng, 1990, 2023), "date"))
        lines.append(_typed(s, ONT + "peerReviewed", rng.choice(("true", "false")), "boolean"))
    tags = workdir / "tags.json"
    tags.write_text(json.dumps(tag_map, sort_keys=True), encoding="utf-8")
    config = {
        "seed": 11,
        "defaults": {
            "text": {"strategy": "TXTLDA", "params": {"topics": 8, "iterations": 20}},
            "temporal": {"strategy": "DATFEAT"},
        },
        "image_provider": {"kind": "tag-map", "path": str(tags)},
        "image_predicates": [ONT + "depiction"],
    }
    config_path = workdir / "config.json"
    config_path.write_text(json.dumps(config, indent=2), encoding="utf-8")
    # An image statement, so the set-up probe also loads the tag map.
    setup = _link(f"{EX}article/A0", ONT + "depiction", next(iter(sorted(tag_map))))
    return lines, setup, config_path


def generate(workload: str, seed: int, workdir: Path, scale: float = 1.0) -> Inputs:
    """Write the workload's files into *workdir* and describe them."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "numeric-subpop":
        lines, setup, config = numeric_subpop(rng, scale)
    elif workload == "relational-bulk":
        lines, setup, config = relational_bulk(rng, scale)
    elif workload == "text-topics":
        lines, setup, config = text_topics(rng, scale, workdir)
    else:
        raise ValueError(f"unknown workload: {workload!r}")
    graph = workdir / "graph.nt"
    graph.write_text("\n".join(lines) + "\n", encoding="utf-8")
    setup_graph = workdir / "setup.nt"
    setup_graph.write_text(setup + "\n", encoding="utf-8")
    return Inputs(graph, len(lines), setup_graph, config)
