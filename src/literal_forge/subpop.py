"""Subpopulation splitting by relation-signature divergence, then per-leaf binning.

A predicate's subjects often mix structurally different things (people and
buildings both have a height). Before binning, the value population is split
into structurally similar subpopulations: subjects are described by their
relational signatures, candidate binary splits partition them by presence of
one signature feature, and the split maximizing the symmetric KL divergence
between the two sides' smoothed feature distributions wins. A node stays a
leaf once it falls below the value-count threshold or no informative split
remains; each leaf is then binned on its own value range.

The signatures are a subject × feature incidence matrix in compressed sparse
rows. A node scores all its candidates at once from co-occurrence counts:
with l and r the counts on each side and ε the smoothing constant,
J = Σᵢ (pᵢ − qᵢ)(log pᵢ − log qᵢ) = Σᵢ (pᵢ − qᵢ)(log(lᵢ + ε) − log(rᵢ + ε)),
since p and q both sum to one. The features a candidate never co-occurs
with fold into two sums per node, so a candidate costs the features it
meets, not the vocabulary. Candidates within a relative 1e-9 of the best,
and scores too small to trust, are scored again with the dense formula; the
highest score wins, then the smallest feature, so the tree and its
divergences are those of a dense search.
"""

from __future__ import annotations

import numpy as np

from .baselines import Augmentation, link_any_value, note_fallback, parse_or_reject
from .binning import BinningSpec, bin_statements, parse_numeric, sorted_distinct
from .graph import IndexedGraph, LiteralGroup
from .terms import BlankNode, Frozen

REL = "REL"
RELENT = "RELENT"

# Splits scoring below this are noise, not structure.
MIN_DIVERGENCE = 1e-6

# The closed form is trusted down to this fraction of its scale; both it and
# the dense formula are then within about 1e-13 of the exact value.
_TRUSTED = 1e-2

Feature = str | tuple[str, str]


def _entity_key(graph: IndexedGraph, entity_id: int) -> str:
    term = graph.entity_terms[entity_id]
    return "_:" + term.label if isinstance(term, BlankNode) else term.value


class RelationDistribution(Frozen):
    """Smoothed categorical distribution over signature features.

    Probabilities are strictly positive and sum to one; the smoothing
    constant is 1/(10·|vocabulary|) added to every count before
    renormalizing.
    """

    __slots__ = ("vocabulary", "probs")
    __eq__, __hash__ = object.__eq__, object.__hash__  # array fields: equal to itself only

    def __init__(self, vocabulary: tuple[Feature, ...], probs: np.ndarray) -> None:
        self._fill(locals())
        if len(self.vocabulary) != self.probs.size:
            raise ValueError("vocabulary and probability vector sizes differ")


def _smooth(counts: np.ndarray, vocabulary: tuple[Feature, ...]) -> RelationDistribution:
    eps = 1.0 / (10.0 * len(vocabulary))
    smoothed = counts.astype(float) + eps
    return RelationDistribution(vocabulary, smoothed / smoothed.sum())


def kl_divergence(p: RelationDistribution, q: RelationDistribution) -> float:
    """Kullback-Leibler divergence KL(P ‖ Q) in nats."""
    if p.vocabulary != q.vocabulary:
        raise ValueError("distributions are over different vocabularies")
    return float(np.sum(p.probs * np.log(p.probs / q.probs)))


def _jeffreys(
    totals: np.ndarray, group: np.ndarray, other: np.ndarray, together: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form symmetric KL of every candidate split of one node.

    totals[g] counts the node's subjects with feature g. Pair k says that
    together[k] of the subjects with candidate group[k] also have feature
    other[k]; each candidate pairs with itself. A feature g a candidate never
    meets has l = 0 and r = t_g, so its term depends on the candidate only
    through the two normalisers, and all such terms enter through two sums
    over the node's vocabulary.

    Returns the scores and, per candidate, the magnitude of what was summed
    (plus a margin for the dense formula's own logarithms): a score far below
    its scale carries that scale's rounding error.
    """
    t = totals.astype(float)
    vocab_size = np.count_nonzero(totals)
    eps = 1.0 / (10.0 * vocab_size)
    size = int(group.max()) + 1
    # Where the left side lacks g: a = log(0 + eps) - log(t + eps), zero off
    # the vocabulary, and b is a weighted by the right side's smoothed count.
    a = np.log(eps) - np.log(t + eps)
    b = (t + eps) * a
    left = together.astype(float)
    right = t[other] - left
    left_mass = np.bincount(group, left, size)
    sl = left_mass + vocab_size * eps
    sr = (t.sum() - left_mass) + vocab_size * eps
    p, q = (left + eps) / sl[group], (right + eps) / sr[group]
    log_ratio = np.log(left + eps) - np.log(right + eps)
    unmet_a = a.sum() - np.bincount(group, a[other], size)
    unmet_b = b.sum() - np.bincount(group, b[other], size)
    scores = np.bincount(group, (p - q) * log_ratio, size) + eps / sl * unmet_a - unmet_b / sr
    scale = (
        2.0 * (1.0 + np.abs(np.log(sl / sr)))
        + np.bincount(group, (p + q) * np.abs(log_ratio), size)
        - eps / sl * a.sum()
        - b.sum() / sr
    )
    return scores, scale


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The concatenation of range(start, start + length) over the pairs."""
    ends = np.cumsum(lengths)
    total = int(ends[-1]) if len(ends) else 0
    return np.arange(total) + np.repeat(starts - ends + lengths, lengths)


class _Incidence(Frozen):
    """Subject × feature incidence of one group, in compressed sparse rows.

    Row i belongs to the i-th subject in id order and lists the ids of its
    distinct signature features, ascending. Feature ids follow sorted
    feature order, so labels[i] < labels[j] whenever i < j.
    """

    __slots__ = ("indptr", "features", "labels")
    __eq__, __hash__ = object.__eq__, object.__hash__  # array fields: equal to itself only

    def __init__(self, indptr: np.ndarray, features: np.ndarray, labels: list[Feature]) -> None:
        self._fill(locals())


def _incidence(subjects: np.ndarray, graph: IndexedGraph, mode: str) -> _Incidence:
    indptr, relations, neighbours = graph.adjacency
    starts = indptr[subjects]
    lengths = indptr[subjects + 1] - starts
    at = _ranges(starts, lengths)
    iris = graph.relation_iris
    by_iri = sorted(range(len(iris)), key=iris.__getitem__)
    rank = np.empty(len(iris), np.int64)
    rank[by_iri] = np.arange(len(iris))
    code = rank[relations[at]]
    if mode == RELENT:
        # Neighbours are ranked by key, so entities sharing a key share a feature.
        distinct, which = np.unique(neighbours[at], return_inverse=True)
        keys = [_entity_key(graph, eid) for eid in distinct.tolist()]
        ordered = sorted(set(keys))
        key_rank = {key: i for i, key in enumerate(ordered)}
        key_ids = np.array([key_rank[key] for key in keys], np.int64)
        code = code * len(ordered) + key_ids[which]
    codes, feature = np.unique(code, return_inverse=True)
    if mode == RELENT:
        pairs = (divmod(c, len(ordered)) for c in codes.tolist())
        labels: list[Feature] = [(iris[by_iri[r]], ordered[k]) for r, k in pairs]
    else:
        labels = [iris[by_iri[c]] for c in codes.tolist()]
    # A self-loop, or two neighbours with one key, repeat a (row, feature) cell.
    width = max(len(labels), 1)
    cells = sorted_distinct(np.repeat(np.arange(len(subjects)), lengths) * width + feature)
    indptr = np.zeros(len(subjects) + 1, np.int64)
    np.cumsum(np.bincount(cells // width, minlength=len(subjects)), out=indptr[1:])
    return _Incidence(indptr, cells % width, labels)


def _best_split(
    incidence: _Incidence, rows: np.ndarray, mode: str
) -> tuple[int, float, np.ndarray, np.ndarray] | None:
    """The winning feature id, its divergence and the rows with and without it."""
    n = len(rows)
    starts = incidence.indptr[rows]
    lengths = incidence.indptr[rows + 1] - starts
    feats = incidence.features[_ranges(starts, lengths)]
    width = len(incidence.labels)
    totals = np.bincount(feats, minlength=width)
    min_count = 2 if mode == RELENT else 1
    is_candidate = (totals >= min_count) & (totals < n)
    if not is_candidate.any():
        return None

    # Each entry of a candidate meets every entry of its row, itself included.
    row_of = np.repeat(np.arange(n), lengths)
    mine = np.flatnonzero(is_candidate[feats])
    span = lengths[row_of[mine]]
    partners = _ranges((np.cumsum(lengths) - lengths)[row_of[mine]], span)
    keys, together = np.unique(
        np.repeat(feats[mine], span) * width + feats[partners], return_counts=True
    )
    candidates, first, group = np.unique(keys // width, return_index=True, return_inverse=True)
    other = keys % width
    scores, scale = _jeffreys(totals, group, other, together)

    vocab = np.flatnonzero(totals)
    vocabulary = tuple(vocab.tolist())
    node_totals = totals[vocab].astype(float)
    bounds = [*first.tolist(), len(keys)]

    def dense(c: int) -> float:
        left = np.zeros(width)
        left[other[bounds[c] : bounds[c + 1]]] = together[bounds[c] : bounds[c + 1]]
        p = _smooth(left[vocab], vocabulary)
        q = _smooth(node_totals - left[vocab], vocabulary)
        return kl_divergence(p, q) + kl_divergence(q, p)

    # A score far below its scale is mostly rounding, and rounding may
    # reorder near-ties, so both are scored again as a dense pass would.
    for c in np.flatnonzero(scores < _TRUSTED * scale).tolist():
        scores[c] = dense(c)
    top = scores.max()
    near = np.flatnonzero(scores >= top - 1e-9 * abs(top)).tolist()
    score, c = max(((dense(c), c) for c in near), key=lambda sc: (sc[0], -sc[1]))
    if score < MIN_DIVERGENCE:
        return None
    feature = int(candidates[c])
    has = np.zeros(n, bool)
    has[row_of[feats == feature]] = True
    return feature, score, rows[has], rows[~has]


class SplitNode:
    """One node of the split tree, held in PopulationSplit.nodes.

    Internal nodes carry the winning feature (present → first child), the
    symmetrized divergence it achieved and their children's positions in
    nodes; leaves carry their index and their subject ids, ascending, so
    each subject is stored once.
    """

    def __init__(self, value_count: int, subject_count: int) -> None:
        self.value_count = value_count
        self.subject_count = subject_count
        self.feature: Feature | None = None
        self.divergence: float | None = None
        self.children: tuple[int, ...] | None = None
        self.indivisible = False
        self.leaf_index: int | None = None
        self.subjects: tuple[int, ...] = ()

    def to_dict(self) -> dict:
        out: dict = {"values": self.value_count, "subjects": self.subject_count}
        if self.children is None:
            out["leaf"] = self.leaf_index
            if self.indivisible:
                out["indivisible"] = True
            return out
        out["feature"] = list(self.feature) if isinstance(self.feature, tuple) else self.feature
        out["divergence"] = self.divergence
        out["children"] = list(self.children)
        return out


class PopulationSplit:
    """Split tree for one literal group: its nodes depth first, root first,
    and its leaves in the same order."""

    def __init__(self) -> None:
        self.nodes: list[SplitNode] = []
        self.leaves: list[SplitNode] = []


def split_population(
    group: LiteralGroup,
    graph: IndexedGraph,
    mode: str = REL,
    threshold: int = 300,
) -> PopulationSplit:
    """Greedy top-down split of the group's subjects by signature features.

    A node is split while it still holds at least *threshold* literal values
    and some feature separates it with divergence >= 1e-6; ties between
    features break lexicographically. Nodes no feature can separate are
    marked indivisible.
    """
    return _split_subjects(group.subjects, graph, mode, threshold)


def _split_subjects(
    statement_subjects: list[int],
    graph: IndexedGraph,
    mode: str,
    threshold: int,
) -> PopulationSplit:
    if mode not in (REL, RELENT):
        raise ValueError(f"unknown signature mode: {mode!r}")
    subjects, values = np.unique(np.asarray(statement_subjects, np.int64), return_counts=True)
    # A root below the threshold stays one leaf, so it needs no signatures
    # (and so no adjacency).
    incidence = _incidence(subjects, graph, mode) if len(statement_subjects) >= threshold else None

    # Depth first with the left child popped first, so nodes and leaves come
    # out in preorder. Each entry holds its parent's position.
    split = PopulationSplit()
    pending: list[tuple[int | None, np.ndarray]] = [(None, np.arange(len(subjects)))]
    while pending:
        parent, rows = pending.pop()
        position = len(split.nodes)
        if parent is not None:
            split.nodes[parent].children += (position,)
        node = SplitNode(int(values[rows].sum()), len(rows))
        split.nodes.append(node)
        found = _best_split(incidence, rows, mode) if node.value_count >= threshold else None
        if found is None:
            node.indivisible = node.value_count >= threshold
            node.subjects = tuple(subjects[rows].tolist())
            node.leaf_index = len(split.leaves)
            split.leaves.append(node)
            continue
        feature, node.divergence, left, right = found
        node.feature = incidence.labels[feature]
        node.children = ()
        pending += [(position, right), (position, left)]
    return split


def kl_rel_binning(
    group: LiteralGroup,
    aug: Augmentation,
    graph: IndexedGraph,
    mode: str = REL,
    spec: BinningSpec | None = None,
) -> tuple[Augmentation, PopulationSplit]:
    """Split at spec.split_threshold, then bin every leaf on its own range.

    Leaf bins carry the subpopulation tag in their entity names whenever more
    than one leaf exists; a single-leaf split degenerates to plain binning.
    LOF, when enabled, runs separately inside each leaf.
    """
    spec = spec if spec is not None else BinningSpec()
    subject_ids, values, rejected = parse_or_reject(group, parse_numeric)

    # The split looks only at subjects and their relational adjacency, so
    # only parseable statements take part.
    split = _split_subjects(subject_ids, graph, mode, spec.split_threshold)

    multi = len(split.leaves) > 1
    # The leaves partition the subjects.
    leaf_of = {sid: leaf.leaf_index for leaf in split.leaves for sid in leaf.subjects}
    per_leaf: dict[int, tuple[list[int], list[float]]] = {}
    for subject_id, value in zip(subject_ids, values):
        leaf_ids, leaf_values = per_leaf.setdefault(leaf_of[subject_id], ([], []))
        leaf_ids.append(subject_id)
        leaf_values.append(value)
    for leaf_index in sorted(per_leaf):
        bin_statements(aug, spec, *per_leaf[leaf_index], leaf_index if multi else None)
    link_any_value(aug, rejected)
    note_fallback(aug, len(rejected), f"{len(rejected)} unparseable numeric statements")
    return aug, split
