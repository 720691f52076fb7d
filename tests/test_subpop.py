"""Signature-based subpopulation splitting and divergence machinery."""

from __future__ import annotations

import json
import math
import os
import random
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from literal_forge import AugmentationReport, Modality, StrategyConfig, apply, check_output, subpop
from literal_forge.binning import BinAssignments, BinningSpec
from literal_forge.cli import EXIT_OK, main
from literal_forge.pipeline import GroupPlan
from literal_forge.subpop import (
    MIN_DIVERGENCE,
    REL,
    RELENT,
    Feature,
    RelationDistribution,
    _TRUSTED,
    _Incidence,
    _best_split,
    _entity_key,
    _incidence,
    _jeffreys,
    _smooth,
    kl_divergence,
    kl_rel_binning,
    split_population,
)

from test_pipeline import single_strategy_config
from util import EX, NEW, XSD, make_graph, numeric_line, rel_line, with_aug


def height_group(graph):
    return graph.literal_groups[(graph.relation_ids[EX + "height"], Modality.NUMERIC)]


def person_building_lines(persons=400, buildings=400):
    """Two structurally distinct kinds sharing one numeric predicate."""
    lines = []
    for i in range(persons):
        lines.append(rel_line(f"person{i}", "birthPlace", f"city{i % 10}"))
        lines.append(numeric_line(f"person{i}", "height", 1.5 + (i % 50) / 100.0))
    for i in range(buildings):
        lines.append(rel_line(f"building{i}", "locatedIn", f"city{i % 10}"))
        lines.append(numeric_line(f"building{i}", "height", 10.0 + (i % 90)))
    return lines


def subtree_subjects(split, position):
    """The subject ids under the node at *position*, ascending, from its leaves."""
    found, pending = [], [position]
    while pending:
        node = split.nodes[pending.pop()]
        if node.children is None:
            found.extend(node.subjects)
        else:
            pending.extend(node.children)
    return tuple(sorted(found))


# --- signatures -------------------------------------------------------------


def entity_signature(subject_id: int, graph, mode: str = REL) -> frozenset[Feature]:
    """Relational signature of one entity, literal statements excluded, as a
    reference for the incidence rows the split search builds.

    REL mode collects the relation IRIs incident in either direction;
    RELENT pairs each relation with the neighbor entity.
    """
    indptr, relations, neighbours = graph.adjacency
    at = slice(indptr[subject_id], indptr[subject_id + 1])
    features: set[Feature] = set()
    for rid, neighbour in zip(relations[at].tolist(), neighbours[at].tolist()):
        rel = graph.relation_iris[rid]
        features.add((rel, _entity_key(graph, neighbour)) if mode == RELENT else rel)
    return frozenset(features)


def relation_distribution(
    subjects, graph, mode: str = REL, vocabulary: tuple[Feature, ...] | None = None
) -> RelationDistribution:
    """Empirical feature frequency across the subjects' signatures, smoothed.

    Each distinct subject contributes each of its features once. An explicit
    *vocabulary* aligns two populations onto a shared support for divergence
    comparison; features outside it are dropped.
    """
    ids = sorted(set(subjects))
    if not ids:
        raise ValueError("cannot build a distribution over zero subjects")
    counts_map: dict[Feature, int] = {}
    for sid in ids:
        for feat in entity_signature(sid, graph, mode):
            counts_map[feat] = counts_map.get(feat, 0) + 1
    if vocabulary is None:
        vocabulary = tuple(sorted(counts_map))
    if not vocabulary:
        raise ValueError("no relational features among the given subjects")
    counts = np.array([counts_map.get(feat, 0) for feat in vocabulary], dtype=float)
    return _smooth(counts, vocabulary)


def test_signature_collects_both_directions_without_literals():
    graph = make_graph(
        [
            rel_line("a", "knows", "b"),
            rel_line("c", "admires", "a"),
            numeric_line("a", "height", 1.8),
        ]
    )
    a = graph.entity_ids[graph.entity_terms[0]]
    sig = entity_signature(a, graph, REL)
    assert sig == frozenset({EX + "knows", EX + "admires"})


def test_relent_signature_pairs_relation_with_neighbor():
    graph = make_graph([rel_line("a", "knows", "b"), rel_line("a", "knows", "c")])
    a = 0
    sig = entity_signature(a, graph, RELENT)
    assert sig == frozenset({(EX + "knows", EX + "b"), (EX + "knows", EX + "c")})


def test_signature_of_isolated_subject_is_empty():
    graph = make_graph([numeric_line("a", "height", 1.8)])
    assert entity_signature(0, graph, REL) == frozenset()


# --- distributions ----------------------------------------------------------


def test_distribution_matches_hand_counts():
    # 3 subjects: two with knows, one with knows+admires
    graph = make_graph(
        [
            rel_line("a", "knows", "x"),
            rel_line("b", "knows", "x"),
            rel_line("c", "knows", "x"),
            rel_line("c", "admires", "x"),
        ]
    )
    ids = [graph.entity_ids[t] for t in graph.entity_terms if t.value in (EX + "a", EX + "b", EX + "c")]
    dist = relation_distribution(ids, graph, REL)
    assert dist.vocabulary == (EX + "admires", EX + "knows")
    eps = 1.0 / (10 * 2)
    expected = np.array([1 + eps, 3 + eps])
    expected /= expected.sum()
    assert np.allclose(dist.probs, expected, atol=1e-12)


def test_distribution_single_relation_near_one():
    graph = make_graph([rel_line(f"s{i}", "r", "t") for i in range(5)])
    ids = [graph.entity_ids[t] for t in graph.entity_terms if t.value.startswith(EX + "s")]
    dist = relation_distribution(ids, graph, REL)
    assert dist.vocabulary == (EX + "r",)
    assert dist.probs[0] == pytest.approx(1.0)


def test_distribution_explicit_vocabulary_aligns_support():
    graph = make_graph([rel_line("a", "p", "x"), rel_line("b", "q", "x")])
    a = graph.entity_ids[graph.entity_terms[0]]
    vocab = (EX + "p", EX + "q")
    dist = relation_distribution([a], graph, REL, vocabulary=vocab)
    assert dist.vocabulary == vocab
    assert dist.probs.sum() == pytest.approx(1.0)
    assert dist.probs[0] > dist.probs[1] > 0.0  # smoothing keeps q positive


def test_distribution_errors():
    graph = make_graph([numeric_line("a", "height", 1.0)])
    with pytest.raises(ValueError):
        relation_distribution([], graph, REL)
    with pytest.raises(ValueError):
        relation_distribution([0], graph, REL)  # isolated: no features at all


# --- divergence -------------------------------------------------------------


def dist(vocab, probs):
    return RelationDistribution(tuple(vocab), np.asarray(probs, dtype=float))


def test_kl_identity_is_zero():
    p = dist("ab", [0.5, 0.5])
    assert kl_divergence(p, p) == 0.0


def test_kl_half_half_versus_nine_one():
    p = dist("ab", [0.5, 0.5])
    q = dist("ab", [0.9, 0.1])
    # 0.5·ln(0.5/0.9) + 0.5·ln(0.5/0.1)
    assert kl_divergence(p, q) == pytest.approx(0.5108, abs=1e-4)
    assert kl_divergence(q, p) != pytest.approx(kl_divergence(p, q), abs=1e-3)


def test_kl_mismatched_vocabulary_errors():
    with pytest.raises(ValueError):
        kl_divergence(dist("ab", [0.5, 0.5]), dist("ac", [0.5, 0.5]))


@given(
    st.lists(st.integers(0, 50), min_size=2, max_size=6),
    st.lists(st.integers(0, 50), min_size=2, max_size=6),
)
@settings(max_examples=200, deadline=None)
def test_kl_nonnegative_on_smoothed_pairs(c1, c2):
    size = min(len(c1), len(c2))
    vocab = tuple(f"f{i}" for i in range(size))
    p = _smooth(np.array(c1[:size], dtype=float), vocab)
    q = _smooth(np.array(c2[:size], dtype=float), vocab)
    d = kl_divergence(p, q)
    assert d >= -1e-12  # Gibbs' inequality
    if np.allclose(p.probs, q.probs):
        assert d == pytest.approx(0.0, abs=1e-12)


# --- splitting --------------------------------------------------------------


def test_two_kinds_split_exactly():
    graph = make_graph(person_building_lines())
    split = split_population(height_group(graph), graph, REL, threshold=300)
    root = split.nodes[0]
    assert root.feature == EX + "birthPlace"  # lexicographic winner of the tie
    assert root.divergence is not None and root.divergence > 0
    assert root.children == (1, 2)
    assert len(split.leaves) == 2
    assert split.leaves == split.nodes[1:]
    person_leaf, building_leaf = split.leaves
    person_terms = {graph.entity_terms[s].value for s in person_leaf.subjects}
    building_terms = {graph.entity_terms[s].value for s in building_leaf.subjects}
    assert all(t.startswith(EX + "person") for t in person_terms)
    assert all(t.startswith(EX + "building") for t in building_terms)
    assert person_leaf.value_count == building_leaf.value_count == 400
    # each side is homogeneous: nothing separates it further
    assert person_leaf.indivisible and building_leaf.indivisible


def test_below_threshold_stays_single_leaf():
    graph = make_graph(person_building_lines(150, 149))
    split = split_population(height_group(graph), graph, REL, threshold=300)
    (root,) = split.nodes
    assert root.children is None
    assert split.leaves == [root]
    assert root.value_count == 299
    assert not root.indivisible


def test_identical_signatures_indivisible_regardless_of_size():
    lines = []
    for i in range(400):
        lines.append(rel_line(f"s{i}", "kind", "thing"))
        lines.append(numeric_line(f"s{i}", "height", float(i)))
    graph = make_graph(lines)
    split = split_population(height_group(graph), graph, REL, threshold=300)
    (root,) = split.nodes
    assert root.children is None
    assert root.indivisible


def test_threshold_counts_values_not_subjects():
    # 100 subjects x 3 values each = 300 values: at threshold, still splits
    lines = []
    for i in range(50):
        lines.append(rel_line(f"person{i}", "birthPlace", "city"))
        for j in range(3):
            lines.append(numeric_line(f"person{i}", "height", 1.5 + j / 10 + i / 1000))
    for i in range(50):
        lines.append(rel_line(f"building{i}", "locatedIn", "city"))
        for j in range(3):
            lines.append(numeric_line(f"building{i}", "height", 10.0 + j + i / 10))
    graph = make_graph(lines)
    split = split_population(height_group(graph), graph, REL, threshold=300)
    assert split.nodes[0].value_count == 300
    assert split.nodes[0].children is not None


def test_kl_rel_binning_routes_every_subject_to_its_leaf():
    graph = make_graph(person_building_lines(200, 200))
    group = height_group(graph)
    aug, split = kl_rel_binning(
        *with_aug(group, graph), graph, REL, BinningSpec(bins=3, split_threshold=100)
    )
    assert len(split.leaves) > 1
    terms = graph.entity_terms
    leaf_of = {terms[sid]: leaf.leaf_index for leaf in split.leaves for sid in leaf.subjects}
    assert len(leaf_of) == len(set(group.subjects))
    for t in aug.triples:
        assert t.object.value.startswith(NEW + f"heightSub{leaf_of[t.subject]}Bin")


def test_relent_rare_features_pruned():
    # the unique (admires, z) pair must not become a split candidate
    lines = [
        rel_line("a", "knows", "x"),
        rel_line("b", "knows", "x"),
        rel_line("c", "knows", "y"),
        rel_line("d", "knows", "y"),
        rel_line("a", "admires", "z"),
    ]
    for name in "abcd":
        lines.append(numeric_line(name, "height", float(ord(name))))
    graph = make_graph(lines)
    split = split_population(height_group(graph), graph, RELENT, threshold=1)
    assert split.nodes[0].feature == (EX + "knows", EX + "x")
    internal_features = {node.feature for node in split.nodes if node.children is not None}
    assert (EX + "admires", EX + "z") not in internal_features


def test_unknown_mode_rejected():
    graph = make_graph(person_building_lines(2, 2))
    with pytest.raises(ValueError):
        split_population(height_group(graph), graph, "RELISH")


def test_split_is_deterministic():
    lines = person_building_lines(120, 130)
    a = make_graph(lines)
    b = make_graph(lines)
    sa = split_population(height_group(a), a, REL, threshold=50)
    sb = split_population(height_group(b), b, REL, threshold=50)
    assert [n.to_dict() for n in sa.nodes] == [n.to_dict() for n in sb.nodes]


@st.composite
def _random_population(draw):
    n = draw(st.integers(4, 18))
    lines = []
    rels = ["r0", "r1", "r2"]
    for i in range(n):
        for r in rels:
            if draw(st.booleans()):
                lines.append(rel_line(f"s{i}", r, f"t{draw(st.integers(0, 2))}"))
        for _ in range(draw(st.integers(1, 3))):
            lines.append(numeric_line(f"s{i}", "height", draw(st.integers(0, 100))))
    return lines


@given(_random_population(), st.integers(1, 10))
@settings(max_examples=80, deadline=None)
def test_split_invariants(lines, threshold):
    graph = make_graph(lines)
    group = height_group(graph)
    split = split_population(group, graph, REL, threshold=threshold)
    root = split.nodes[0]
    # leaves partition the subjects
    seen = []
    for leaf in split.leaves:
        seen.extend(leaf.subjects)
    assert sorted(seen) == sorted(subtree_subjects(split, 0)) == sorted(set(group.subjects))
    assert len(set(seen)) == len(seen)
    # value counts add up
    assert sum(leaf.value_count for leaf in split.leaves) == root.value_count
    assert root.value_count == len(group)
    # stop condition: small or genuinely unsplittable
    for leaf in split.leaves:
        assert leaf.value_count < threshold or leaf.indivisible
    # internal nodes recorded informative splits
    for position, node in enumerate(split.nodes):
        if node.children is None:
            continue
        assert node.divergence >= MIN_DIVERGENCE
        left, right = node.children
        assert subtree_subjects(split, left) and subtree_subjects(split, right)
        # depth first: the left child comes next, the right one after its subtree
        assert left == position + 1 < right
        sides = [split.nodes[left], split.nodes[right]]
        assert node.value_count == sum(side.value_count for side in sides)
        assert node.subject_count == sum(side.subject_count for side in sides)


# --- composition with binning -----------------------------------------------


def test_kl_rel_binning_bins_each_leaf_separately():
    graph = make_graph(person_building_lines())
    group = height_group(graph)
    aug, split = kl_rel_binning(
        *with_aug(group, graph), graph, REL, BinningSpec(bins=3, split_threshold=300)
    )
    assert len(split.leaves) == 2
    assert aug.delta_statements == len(group)
    assert aug.delta_entities == 6
    assert aug.minted_objects == {
        NEW + f"heightSub{s}Bin{i:02d}" for s in (0, 1) for i in range(3)
    }
    # person heights (≈1.5..2.0) never land in building bins (10..100)
    person_objs = {
        t.object.value for t in aug.triples if t.subject.value.startswith(EX + "person")
    }
    assert all("Sub0" in o for o in person_objs)


def test_single_leaf_reduces_to_plain_binning():
    from literal_forge.binning import nbins

    lines = [numeric_line(f"s{i}", "height", float(i)) for i in range(20)]
    graph = make_graph(lines)
    group = height_group(graph)
    aug, split = kl_rel_binning(
        *with_aug(group, graph), graph, REL, BinningSpec(bins=4, split_threshold=300)
    )
    assert len(split.leaves) == 1
    plain = nbins(*with_aug(group, graph), BinningSpec(bins=4))
    assert aug.triples == plain.triples
    assert aug.structural_triples == plain.structural_triples


def test_kl_rel_binning_unparseable_fall_back():
    lines = [numeric_line(f"s{i}", "height", float(i)) for i in range(10)]
    lines.append(f'<{EX}bad> <{EX}height> "tall"^^<http://www.w3.org/2001/XMLSchema#decimal> .')
    graph = make_graph(lines)
    aug, _ = kl_rel_binning(*with_aug(height_group(graph), graph), graph, REL, BinningSpec(bins=2))
    assert aug.fallback_statements == 1
    assert aug.delta_statements == 11
    assert any(t.object.value == NEW + "heightAnyValue" for t in aug.triples)


def test_group_below_threshold_builds_no_adjacency():
    from literal_forge.binning import nbins

    graph = make_graph(person_building_lines(persons=40, buildings=40))
    group = height_group(graph)
    aug, split = kl_rel_binning(
        *with_aug(group, graph), graph, REL, BinningSpec(bins=3, split_threshold=81)
    )
    assert "adjacency" not in vars(graph)
    assert [n.to_dict() for n in split.nodes] == [{"values": 80, "subjects": 80, "leaf": 0}]
    assert aug.triples == nbins(*with_aug(group, graph), BinningSpec(bins=3)).triples
    # At the threshold the root may split, so the signatures are needed.
    _, split = kl_rel_binning(
        *with_aug(group, graph), graph, REL, BinningSpec(bins=3, split_threshold=80)
    )
    assert len(split.leaves) == 2
    assert "adjacency" in vars(graph)


def test_a_tree_of_any_depth_is_reported_and_verified(monkeypatch):
    # A real symmetric chain rescores its near-tied candidates densely at
    # every node, so the chain is built by peeling one row off each node.
    def peel(incidence, rows, mode):
        return 0, 1.0, rows[:1], rows[1:]

    monkeypatch.setattr(subpop, "_best_split", peel)
    n = 2_001
    lines = [rel_line(f"s{i}", "next", f"s{i + 1}") for i in range(n)]
    lines += [numeric_line(f"s{i}", "height", float(i)) for i in range(n)]
    plan = GroupPlan("KLREL", {"split_threshold": 2})
    result = apply(make_graph(lines), StrategyConfig(namespace=NEW, overrides={EX + "height": plan}))
    report = AugmentationReport.from_dict(json.loads(result.report.to_json()))
    (row,) = report.rows
    assert row.fell_back_to is None and row.detail["leaves"] == n
    nodes = row.detail["split"]
    depth = [0] * len(nodes)
    for position, node in enumerate(nodes):
        for child in node.get("children", ()):
            depth[child] = depth[position] + 1
    assert max(depth) == n - 1 >= 2_000
    assert check_output(result.triples, report) == []


SLOW_ENV = "LITERAL_FORGE_SLOW"


@pytest.mark.skipif(
    os.environ.get(SLOW_ENV) != "1",
    reason="opt-in: set LITERAL_FORGE_SLOW=1 to split 5x numeric-subpop under KLRELENT (about 12 s)",
)
def test_klrelent_reports_the_deep_trees_of_5x_numeric_subpop(tmp_path, monkeypatch, capsys, caplog):
    # RELENT peels about one organisation per node: at 5x the trees are
    # hundreds of levels deep.
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "benchmarks"))
    import workloads

    inputs = workloads.generate("numeric-subpop", 1, tmp_path, 5.0)
    out = str(tmp_path / "out.nt")
    argv = ["transform", "--input", str(inputs.graph), "--output", out, "--strategy", "KLRELENT"]
    assert main(argv) == EXIT_OK
    report = AugmentationReport.from_file(out + ".report.json")
    assert all(row.fell_back_to is None for row in report.rows)
    assert "maximum recursion depth" not in caplog.text
    capsys.readouterr()
    assert main(["verify", "--input", out]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["ok"] is True


# --- the sparse split search against the dense reference ----------------------


def dense_best_split(subjects, signatures, mode):
    """The dense n × V search the sparse one replaced, as a reference.

    Returns the winner as (feature, score, left, right), or None, plus the
    score of every candidate.
    """
    n = len(subjects)
    counts = {}
    for sid in subjects:
        for feat in signatures[sid]:
            counts[feat] = counts.get(feat, 0) + 1
    vocabulary = tuple(sorted(counts))
    if not vocabulary:
        return None, {}
    min_count = 2 if mode == RELENT else 1
    candidates = [f for f in vocabulary if min_count <= counts[f] < n]
    if not candidates:
        return None, {}

    feat_index = {f: i for i, f in enumerate(vocabulary)}
    matrix = np.zeros((n, len(vocabulary)), dtype=bool)
    for row, sid in enumerate(subjects):
        for feat in signatures[sid]:
            matrix[row, feat_index[feat]] = True
    totals = matrix.sum(axis=0, dtype=float)

    scores = {}
    best = None
    for feat in candidates:
        mask = matrix[:, feat_index[feat]]
        left_counts = matrix[mask].sum(axis=0, dtype=float)
        right_counts = totals - left_counts
        p = _smooth(left_counts, vocabulary)
        q = _smooth(right_counts, vocabulary)
        score = scores[feat] = kl_divergence(p, q) + kl_divergence(q, p)
        if best is None or score > best[0] or (score == best[0] and feat < best[1]):
            best = (score, feat)
    score, feat = best
    if score < MIN_DIVERGENCE:
        return None, scores
    left = [sid for sid in subjects if feat in signatures[sid]]
    right = [sid for sid in subjects if feat not in signatures[sid]]
    return (feat, score, left, right), scores


def near_tied(scores, winner):
    """Features scoring within a relative 1e-9 of the reference's winner."""
    top = scores[winner]
    return {f for f, score in scores.items() if abs(score - top) <= 1e-9 * abs(top)}


def dense_tree(subjects, value_counts, signatures, mode, threshold):
    """split_population's tree grown recursively by the dense reference."""
    values = sum(value_counts[s] for s in subjects)
    found = dense_best_split(subjects, signatures, mode)[0] if values >= threshold else None
    if found is None:
        return {"values": values, "indivisible": values >= threshold}
    feat, score, left, right = found
    return {
        "values": values,
        "feature": feat,
        "divergence": score,
        "children": [
            dense_tree(left, value_counts, signatures, mode, threshold),
            dense_tree(right, value_counts, signatures, mode, threshold),
        ],
    }


_NODES = [f"<{EX}e{i}>" for i in range(5)] + ["_:b0", "_:b1", "<_:b0>"]


@st.composite
def _signature_graph(draw):
    """Small graphs with blank nodes, an IRI spelled like a blank node,
    self-loops, repeated edges and subjects without relations."""
    lines = []
    for _ in range(draw(st.integers(0, 30))):
        s, o = draw(st.sampled_from(_NODES)), draw(st.sampled_from(_NODES))
        line = f"{s} <{EX}r{draw(st.integers(0, 2))}> {o} ."
        lines.extend([line] * draw(st.integers(1, 2)))
    for node in draw(st.lists(st.sampled_from(_NODES), min_size=1, max_size=12)):
        lines.append(f'{node} <{EX}height> "{draw(st.integers(0, 9))}"^^<{XSD}decimal> .')
    return lines


@pytest.mark.parametrize("mode", [REL, RELENT])
@given(lines=_signature_graph(), threshold=st.integers(1, 4))
@settings(max_examples=150, deadline=None)
def test_sparse_split_matches_dense_reference(mode, lines, threshold):
    graph = make_graph(lines)
    group = height_group(graph)
    value_counts = {}
    for sid in group.subjects:
        value_counts[sid] = value_counts.get(sid, 0) + 1
    subjects = sorted(value_counts)
    signatures = {sid: entity_signature(sid, graph, mode) for sid in subjects}

    # The root: same feature, same sides, the same score to the bit.
    expected, scores = dense_best_split(subjects, signatures, mode)
    incidence = _incidence(np.array(subjects), graph, mode)
    found = _best_split(incidence, np.arange(len(subjects)), mode)
    if expected is None:
        assert found is None
        return
    feat, score, left, right = expected
    got = incidence.labels[found[0]]
    if got != feat:
        assert got in near_tied(scores, feat)
        return
    assert found[1] == score
    assert [subjects[i] for i in found[2]] == left
    assert [subjects[i] for i in found[3]] == right

    # The whole tree, walked until the first exempt near-tie.
    split = split_population(group, graph, mode, threshold)
    reference = dense_tree(subjects, value_counts, signatures, mode, threshold)
    pending = [(0, reference, subjects)]
    while pending:
        position, ref, node_subjects = pending.pop()
        node = split.nodes[position]
        assert node.value_count == ref["values"]
        assert subtree_subjects(split, position) == tuple(node_subjects)
        if node.children is None:
            assert "children" not in ref and node.indivisible == ref["indivisible"]
            continue
        if node.feature != ref["feature"]:
            tied = near_tied(dense_best_split(node_subjects, signatures, mode)[1], ref["feature"])
            assert node.feature in tied
            continue
        assert node.divergence == ref["divergence"]
        sides = [[s for s in node_subjects if (node.feature in signatures[s]) == has] for has in (True, False)]
        pending.extend(zip(node.children, ref["children"], sides))


@st.composite
def _weighted_rows(draw):
    """A node as distinct feature rows, each repeated up to 600 times."""
    width = draw(st.integers(1, 7))
    rows = draw(
        st.lists(
            st.tuples(st.lists(st.booleans(), min_size=width, max_size=width), st.integers(1, 600)),
            min_size=2,
            max_size=8,
        )
    )
    return width, rows


@given(_weighted_rows())
@settings(max_examples=300, deadline=None)
def test_closed_form_matches_summed_kl(node):
    width, rows = node
    matrix = np.array([r for r, _ in rows], dtype=float)
    weight = np.array([w for _, w in rows], dtype=float)
    totals = (matrix * weight[:, None]).sum(axis=0).astype(np.int64)
    n = int(weight.sum())
    candidates = [f for f in range(width) if 1 <= totals[f] < n]
    if not candidates:
        return
    group, other, together = [], [], []
    for c, f in enumerate(candidates):
        with_f = (matrix[:, f] > 0) * weight
        left = (matrix * with_f[:, None]).sum(axis=0)
        for g in np.flatnonzero(left):
            group.append(c)
            other.append(g)
            together.append(int(left[g]))
    scores, scale = _jeffreys(totals, np.array(group), np.array(other), np.array(together))

    vocab = np.flatnonzero(totals)
    labels = tuple(vocab.tolist())
    for c, f in enumerate(candidates):
        left = (matrix * ((matrix[:, f] > 0) * weight)[:, None]).sum(axis=0)[vocab]
        p = _smooth(left, labels)
        q = _smooth(totals[vocab] - left, labels)
        expected = kl_divergence(p, q) + kl_divergence(q, p)
        # Both sides round at the scale of what they sum; where the score is
        # far below it, the split search uses the dense formula instead.
        assert abs(scores[c] - expected) <= 1e-13 * scale[c]
        if scores[c] >= _TRUSTED * scale[c]:
            assert scores[c] == pytest.approx(expected, rel=1e-12, abs=0.0)


def numeric_subpop_lines(persons, buildings, seed=1):
    """Persons and buildings shaped like the benchmark's numeric-subpop graph."""
    rng = random.Random(seed)
    orgs, cities = max(2, persons // 25), max(2, buildings // 40)
    lines = []
    for i in range(persons):
        lines.append(rel_line(f"P{i}", "type", "Person"))
        lines.append(rel_line(f"P{i}", "worksFor", f"O{rng.randrange(orgs)}"))
        lines.append(rel_line(f"P{i}", "knows", f"P{(i + 1) % persons}"))
        lines.append(numeric_line(f"P{i}", "height", round(rng.lognormvariate(0, 0.08) * 1.72, 3)))
        lines.append(numeric_line(f"P{i}", "weight", round(rng.lognormvariate(0, 0.18) * 74, 3)))
    for i in range(buildings):
        lines.append(rel_line(f"B{i}", "type", "Building"))
        lines.append(rel_line(f"B{i}", "locatedIn", f"C{rng.randrange(cities)}"))
        lines.append(numeric_line(f"B{i}", "height", round(rng.lognormvariate(0, 0.6) * 24, 3)))
        lines.append(numeric_line(f"B{i}", "weight", round(rng.lognormvariate(0, 0.9) * 9000, 3)))
    return lines


def test_exact_ties_go_to_the_first_feature():
    # knows and worksFor pick out the persons, locatedIn the buildings: the
    # dense formula gives all three the same bits. At this size the closed
    # form puts locatedIn one ulp ahead.
    graph = make_graph(numeric_subpop_lines(1200, 1200))
    group = height_group(graph)
    split = split_population(group, graph, REL, threshold=300)
    subjects = sorted(set(group.subjects))
    signatures = {sid: entity_signature(sid, graph, REL) for sid in subjects}
    expected, scores = dense_best_split(subjects, signatures, REL)
    assert scores[EX + "knows"] == scores[EX + "worksFor"] == scores[EX + "locatedIn"]
    assert split.nodes[0].feature == expected[0] == EX + "knows"
    assert split.nodes[0].divergence == expected[1]


def test_klrelent_timing_guard():
    # On a 2-vCPU host the dense search took about 23 s, the sparse one about 1 s.
    graph = make_graph(numeric_subpop_lines(2400, 2400))
    started = time.perf_counter()
    result = apply(graph, single_strategy_config("KLRELENT", namespace=NEW))
    elapsed = time.perf_counter() - started
    rows = [row for row in result.report.rows if row.strategy == "KLRELENT"]
    # RELENT peels the persons off an organisation at a time: many leaves.
    assert len(rows) == 2 and all(row.detail["leaves"] > 50 for row in rows)
    assert elapsed < 10.0, f"KLRELENT took {elapsed:.1f} s on 4,800 subjects"


@pytest.mark.parametrize(
    "make",
    [
        lambda: BinAssignments(*[np.arange(3)] * 4),
        lambda: RelationDistribution(("a", "b"), np.array([0.5, 0.5])),
        lambda: _Incidence(np.array([0, 1, 1]), np.array([0]), [("a",)]),
    ],
    ids=["bin-assignments", "relation-distribution", "incidence"],
)
def test_records_of_arrays_are_equal_only_to_themselves(make):
    # Their fields are arrays, whose == is elementwise: no field equality holds.
    first, second = make(), make()
    assert first == first and first != second
    assert len({first, first, second}) == 2
