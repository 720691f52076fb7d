"""Subpopulation splitting by relation-signature divergence, then per-leaf binning.

A predicate's subjects often mix structurally different things (people and
buildings both have a height). Before binning, the value population is split
into structurally similar subpopulations: subjects are described by their
relational signatures, candidate binary splits partition them by presence of
one signature feature, and the split maximizing the KL divergence between
the two sides' relation distributions wins. Splitting recurses until a node
falls below the value-count threshold or no informative split remains; each
leaf is then binned on its own value range.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .baselines import (
    Augmentation,
    DEFAULT_NAMESPACE,
    link_any_value,
    note_fallback,
    parse_or_reject,
)
from .binning import BinningSpec, LofSpec, bin_statements, parse_numeric
from .graph import IndexedGraph, LiteralGroup
from .terms import BlankNode, IRI

REL = "REL"
RELENT = "RELENT"

# Splits scoring below this are noise, not structure.
MIN_DIVERGENCE = 1e-6

Feature = str | tuple[str, str]


def _entity_key(graph: IndexedGraph, entity_id: int) -> str:
    term = graph.entity_terms[entity_id]
    if isinstance(term, IRI):
        return term.value
    if isinstance(term, BlankNode):
        return "_:" + term.label
    return repr(term)


def entity_signature(subject_id: int, graph: IndexedGraph, mode: str = REL) -> frozenset[Feature]:
    """Relational signature of one entity, literal statements excluded.

    REL mode collects the relation IRIs incident in either direction;
    RELENT pairs each relation with the neighbor entity.
    """
    features: set[Feature] = set()
    for rid, oid in graph.out_edges.get(subject_id, ()):
        rel = graph.relation_iris[rid]
        features.add((rel, _entity_key(graph, oid)) if mode == RELENT else rel)
    for rid, sid in graph.in_edges.get(subject_id, ()):
        rel = graph.relation_iris[rid]
        features.add((rel, _entity_key(graph, sid)) if mode == RELENT else rel)
    return frozenset(features)


@dataclass(frozen=True)
class RelationDistribution:
    """Smoothed categorical distribution over signature features.

    Probabilities are strictly positive and sum to one; the smoothing
    constant is 1/(10·|vocabulary|) added to every count before
    renormalizing.
    """

    vocabulary: tuple[Feature, ...]
    probs: np.ndarray
    epsilon: float

    def __post_init__(self) -> None:
        if len(self.vocabulary) != self.probs.size:
            raise ValueError("vocabulary and probability vector sizes differ")


def _smooth(counts: np.ndarray, vocabulary: tuple[Feature, ...]) -> RelationDistribution:
    eps = 1.0 / (10.0 * len(vocabulary))
    smoothed = counts.astype(float) + eps
    return RelationDistribution(vocabulary, smoothed / smoothed.sum(), eps)


def relation_distribution(
    subjects: set[int] | list[int],
    graph: IndexedGraph,
    mode: str = REL,
    vocabulary: tuple[Feature, ...] | None = None,
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


def kl_divergence(p: RelationDistribution, q: RelationDistribution) -> float:
    """Kullback-Leibler divergence KL(P ‖ Q) in nats."""
    if p.vocabulary != q.vocabulary:
        raise ValueError("distributions are over different vocabularies")
    return float(np.sum(p.probs * np.log(p.probs / q.probs)))


@dataclass
class SplitNode:
    """One node of the split tree.

    Internal nodes carry the winning feature (present → first child) and the
    symmetrized divergence it achieved; leaves carry their index instead.
    """

    subjects: tuple[int, ...]
    value_count: int
    feature: Feature | None = None
    divergence: float | None = None
    children: tuple["SplitNode", "SplitNode"] | None = None
    indivisible: bool = False
    leaf_index: int | None = None

    @property
    def is_leaf(self) -> bool:
        return self.children is None

    def to_dict(self) -> dict:
        out: dict = {"values": self.value_count, "subjects": len(self.subjects)}
        if self.is_leaf:
            out["leaf"] = self.leaf_index
            if self.indivisible:
                out["indivisible"] = True
        else:
            out["feature"] = list(self.feature) if isinstance(self.feature, tuple) else self.feature
            out["divergence"] = self.divergence
            out["children"] = [c.to_dict() for c in self.children]
        return out


@dataclass
class PopulationSplit:
    """Split tree for one literal group, leaves in depth-first order."""

    root: SplitNode
    leaves: list[SplitNode] = field(default_factory=list)


def _best_split(
    subjects: list[int],
    signatures: dict[int, frozenset[Feature]],
    mode: str,
) -> tuple[Feature, float, list[int], list[int]] | None:
    n = len(subjects)
    counts: dict[Feature, int] = {}
    for sid in subjects:
        for feat in signatures[sid]:
            counts[feat] = counts.get(feat, 0) + 1
    vocabulary = tuple(sorted(counts))
    if not vocabulary:
        return None
    min_count = 2 if mode == RELENT else 1
    candidates = [f for f in vocabulary if min_count <= counts[f] < n]
    if not candidates:
        return None

    feat_index = {f: i for i, f in enumerate(vocabulary)}
    matrix = np.zeros((n, len(vocabulary)), dtype=bool)
    for row, sid in enumerate(subjects):
        for feat in signatures[sid]:
            matrix[row, feat_index[feat]] = True
    totals = matrix.sum(axis=0, dtype=float)

    best: tuple[float, Feature] | None = None
    for feat in candidates:
        mask = matrix[:, feat_index[feat]]
        left_counts = matrix[mask].sum(axis=0, dtype=float)
        right_counts = totals - left_counts
        p = _smooth(left_counts, vocabulary)
        q = _smooth(right_counts, vocabulary)
        score = kl_divergence(p, q) + kl_divergence(q, p)
        if best is None or score > best[0] or (score == best[0] and feat < best[1]):
            best = (score, feat)
    score, feat = best
    if score < MIN_DIVERGENCE:
        return None
    left = [sid for sid in subjects if feat in signatures[sid]]
    right = [sid for sid in subjects if feat not in signatures[sid]]
    return feat, score, left, right


def split_population(
    group: LiteralGroup,
    graph: IndexedGraph,
    mode: str = REL,
    threshold: int = 300,
) -> PopulationSplit:
    """Recursive greedy split of the group's subjects by signature features.

    A node is split while it still holds at least *threshold* literal values
    and some feature separates it with divergence >= 1e-6; ties between
    features break lexicographically. Nodes no feature can separate are
    marked indivisible.
    """
    return _split_subjects(
        [subject_id for subject_id, _ in group.statements],
        graph,
        mode,
        threshold,
    )


def _split_subjects(
    statement_subjects: list[int],
    graph: IndexedGraph,
    mode: str,
    threshold: int,
) -> PopulationSplit:
    if mode not in (REL, RELENT):
        raise ValueError(f"unknown signature mode: {mode!r}")
    value_counts: dict[int, int] = {}
    for subject_id in statement_subjects:
        value_counts[subject_id] = value_counts.get(subject_id, 0) + 1
    subjects = sorted(value_counts)
    root = SplitNode(tuple(subjects), len(statement_subjects))
    # A root below the threshold stays one leaf, so it needs no signatures
    # (and so no adjacency).
    signatures = (
        {sid: entity_signature(sid, graph, mode) for sid in subjects}
        if root.value_count >= threshold
        else {}
    )

    split = PopulationSplit(root)

    def grow(node: SplitNode) -> None:
        if node.value_count < threshold:
            _close_leaf(node)
            return
        found = _best_split(list(node.subjects), signatures, mode)
        if found is None:
            node.indivisible = True
            _close_leaf(node)
            return
        feat, score, left, right = found
        node.feature = feat
        node.divergence = score
        node.children = (
            SplitNode(tuple(left), sum(value_counts[s] for s in left)),
            SplitNode(tuple(right), sum(value_counts[s] for s in right)),
        )
        grow(node.children[0])
        grow(node.children[1])

    def _close_leaf(node: SplitNode) -> None:
        node.leaf_index = len(split.leaves)
        split.leaves.append(node)

    grow(split.root)
    return split


def kl_rel_binning(
    group: LiteralGroup,
    graph: IndexedGraph,
    mode: str = REL,
    spec: BinningSpec | None = None,
    namespace: str = DEFAULT_NAMESPACE,
    lof: LofSpec | None = None,
    threshold: int = 300,
) -> tuple[Augmentation, PopulationSplit]:
    """Split, then bin every leaf on its own range.

    Leaf bins carry the subpopulation tag in their entity names whenever more
    than one leaf exists; a single-leaf split degenerates to plain binning.
    LOF, when enabled, runs separately inside each leaf.
    """
    spec = spec if spec is not None else BinningSpec()
    aug = Augmentation()
    parsed, rejected = parse_or_reject(group, parse_numeric)

    # The split looks only at subjects and their relational adjacency, so
    # only parseable statements take part.
    split = _split_subjects([subject_id for subject_id, _ in parsed], graph, mode, threshold)

    multi = len(split.leaves) > 1
    # The leaves partition the subjects.
    leaf_of = {sid: leaf.leaf_index for leaf in split.leaves for sid in leaf.subjects}
    per_leaf: dict[int, list[tuple[int, float]]] = {}
    for subject_id, value in parsed:
        per_leaf.setdefault(leaf_of[subject_id], []).append((subject_id, value))
    for leaf_index in sorted(per_leaf):
        bin_statements(
            group,
            graph,
            spec,
            namespace,
            lof,
            statements=per_leaf[leaf_index],
            subpopulation=leaf_index if multi else None,
            aug=aug,
        )
    link_any_value(aug, graph, group.predicate, rejected, namespace)
    note_fallback(
        aug, group.predicate, len(rejected), f"{len(rejected)} unparseable numeric statements"
    )
    return aug, split
