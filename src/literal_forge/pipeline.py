"""Strategy orchestration: configuration, execution, merging, bound checks.

The pipeline routes every literal group to a strategy (per-predicate
override, else per-modality default), runs the strategies, merges their
augmentations with the untouched relational triples, and produces a report
whose per-predicate size deltas are checked against the declared growth
bounds. Failures of individual strategies degrade to a configurable
fallback instead of aborting the whole run.
"""

from __future__ import annotations

import hashlib
import json
import logging
from dataclasses import MISSING, dataclass, field, fields
from itertools import islice
from typing import Any

from . import baselines
from .baselines import Augmentation, DEFAULT_NAMESPACE
from .binning import BinningSpec, LofSpec, nbins
from .graph import IndexedGraph, LiteralGroup, Modality, ModalityRules
from .images import (
    ProviderError,
    RemoteTagProvider,
    TagMapProvider,
    TagProvider,
    emit_image_triples,
)
from .subpop import REL, RELENT, kl_rel_binning
from .temporal import datbin, datfeat
from .terms import IRI, Literal, Triple
from .textlda import LdaSpec, txtlda

log = logging.getLogger(__name__)


class ConfigError(ValueError):
    """The configuration is unusable; nothing has been transformed."""


class StrategyError(RuntimeError):
    """A strategy failed on a group and no fallback is configured."""


EXCLUDE = "EXCLUDE"
TRANSFORM = "TRANSFORM"
ONEENTITY = "ONEENTITY"
NBINS = "NBINS"
PBINS = "PBINS"
KLREL = "KLREL"
KLRELENT = "KLRELENT"
DATBIN = "DATBIN"
DATFEAT = "DATFEAT"
TXTLDA = "TXTLDA"
IMAGETAGS = "IMAGETAGS"
COMBINED = "COMBINED"

STRATEGIES = {
    EXCLUDE,
    TRANSFORM,
    ONEENTITY,
    NBINS,
    PBINS,
    KLREL,
    KLRELENT,
    DATBIN,
    DATFEAT,
    TXTLDA,
    IMAGETAGS,
    COMBINED,
}

_UNIVERSAL = {EXCLUDE, TRANSFORM, ONEENTITY}
VALID_FOR: dict[Modality, set[str]] = {
    Modality.NUMERIC: _UNIVERSAL | {NBINS, PBINS, KLREL, KLRELENT},
    Modality.TEMPORAL: _UNIVERSAL | {DATBIN, DATFEAT},
    Modality.TEXT: _UNIVERSAL | {TXTLDA},
    Modality.IMAGE: _UNIVERSAL | {IMAGETAGS},
    Modality.OTHER: set(_UNIVERSAL),
}

_BINNING_KEYS = {
    "bins",
    "percent",
    "scheme",
    "overlap",
    "hierarchy_depth",
    "connect_adjacent",
    "lof",
}
_PARAM_KEYS: dict[str, set[str]] = {
    EXCLUDE: set(),
    TRANSFORM: set(),
    ONEENTITY: set(),
    NBINS: set(_BINNING_KEYS),
    PBINS: set(_BINNING_KEYS),
    KLREL: _BINNING_KEYS | {"split_threshold"},
    KLRELENT: _BINNING_KEYS | {"split_threshold"},
    DATBIN: set(_BINNING_KEYS),
    DATFEAT: {"link_features"},
    TXTLDA: {"topics", "alpha", "beta", "iterations", "threshold"},
    IMAGETAGS: {"prefix", "max_in_flight", "vocabulary"},
    COMBINED: {"numeric", "temporal", "text", "image", "other"},
}

_LOF_KEYS = {"k", "threshold"}

MODALITY_NAMES = {m.value: m for m in Modality}


@dataclass(frozen=True)
class GroupPlan:
    """One resolved (strategy, parameters) choice."""

    strategy: str
    params: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"unknown strategy name: {self.strategy!r}")
        unknown = set(self.params) - _PARAM_KEYS[self.strategy]
        if unknown:
            raise ConfigError(
                f"unknown parameters for {self.strategy}: {sorted(unknown)}"
            )
        lof = self.params.get("lof")
        if lof is not None:
            if not isinstance(lof, dict) or set(lof) - _LOF_KEYS:
                raise ConfigError(f"bad lof settings: {lof!r}")


def _plan_from_dict(raw: Any, where: str) -> GroupPlan:
    if not isinstance(raw, dict):
        raise ConfigError(f"{where}: expected an object with a 'strategy' field")
    unknown = set(raw) - {"strategy", "params"}
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    strategy = raw.get("strategy")
    if not isinstance(strategy, str):
        raise ConfigError(f"{where}: missing strategy name")
    params = raw.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError(f"{where}: params must be an object")
    return GroupPlan(strategy.upper(), params)


def compose_combined(params: dict[str, Any] | None = None) -> dict[Modality, GroupPlan]:
    """The combined strategy: the best per-modality choices as one map.

    Numeric values go through subpopulation splitting with outlier
    filtering, dates through timestamp binning, text through topic
    modeling, images through the tag provider; everything else is
    transformed one entity per value.
    """
    params = params or {}
    numeric = dict(params.get("numeric", {}))
    numeric.setdefault("lof", {})
    return {
        Modality.NUMERIC: GroupPlan(KLREL, numeric),
        Modality.TEMPORAL: GroupPlan(DATBIN, dict(params.get("temporal", {}))),
        Modality.TEXT: GroupPlan(TXTLDA, dict(params.get("text", {}))),
        Modality.IMAGE: GroupPlan(IMAGETAGS, dict(params.get("image", {}))),
        Modality.OTHER: GroupPlan(TRANSFORM, dict(params.get("other", {}))),
    }


_CONFIG_KEYS = {
    "namespace",
    "seed",
    "defaults",
    "overrides",
    "image_provider",
    "emit_weights",
    "fallback",
    "workers",
    "image_predicates",
    "predicate_modalities",
    "stopwords",
}


@dataclass
class StrategyConfig:
    """Everything a transformation run depends on.

    The modality defaults start from the combined strategy and are
    overridden per modality, then per predicate. The seed drives every
    stochastic step; two runs with equal config and input are identical.
    """

    namespace: str = DEFAULT_NAMESPACE
    seed: int = 0
    defaults: dict[Modality, GroupPlan] = field(default_factory=compose_combined)
    overrides: dict[str, GroupPlan] = field(default_factory=dict)
    image_provider: dict[str, Any] | None = None
    emit_weights: bool = False
    fallback: str | None = ONEENTITY
    workers: int | None = None  # deprecated: validated, then ignored by apply
    rules: ModalityRules = field(default_factory=ModalityRules)
    stopwords: dict[str, list[str]] | None = None

    def __post_init__(self) -> None:
        if not self.namespace or not self.namespace.startswith(("http://", "https://", "urn:")):
            raise ConfigError(f"namespace must be an absolute IRI prefix: {self.namespace!r}")
        if self.fallback is not None and self.fallback not in (ONEENTITY, EXCLUDE):
            raise ConfigError(f"fallback must be ONEENTITY, EXCLUDE, or null: {self.fallback!r}")
        for modality, plan in self.defaults.items():
            if plan.strategy != COMBINED and plan.strategy not in VALID_FOR[modality]:
                raise ConfigError(
                    f"strategy {plan.strategy} cannot handle {modality.value} literals"
                )

    @classmethod
    def from_dict(cls, raw: dict[str, Any]) -> "StrategyConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        unknown = set(raw) - _CONFIG_KEYS
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        defaults = compose_combined()
        for name, entry in (raw.get("defaults") or {}).items():
            modality = MODALITY_NAMES.get(str(name).lower())
            if modality is None:
                raise ConfigError(f"unknown modality in defaults: {name!r}")
            plan = _plan_from_dict(entry, f"defaults.{name}")
            if plan.strategy == COMBINED:
                defaults[modality] = compose_combined(plan.params)[modality]
            else:
                defaults[modality] = plan
        overrides = {
            str(pred): _plan_from_dict(entry, f"overrides.{pred}")
            for pred, entry in (raw.get("overrides") or {}).items()
        }
        provider = raw.get("image_provider")
        if provider is not None and not isinstance(provider, dict):
            raise ConfigError("image_provider must be an object")
        modal_overrides = {}
        for pred, name in (raw.get("predicate_modalities") or {}).items():
            modality = MODALITY_NAMES.get(str(name).lower())
            if modality is None:
                raise ConfigError(f"unknown modality for predicate {pred}: {name!r}")
            modal_overrides[str(pred)] = modality
        rules = ModalityRules(
            image_predicates=frozenset(raw.get("image_predicates") or ()),
            predicate_modalities=modal_overrides,
        )
        workers = raw.get("workers")
        if workers is not None and (not isinstance(workers, int) or workers < 1):
            raise ConfigError(f"workers must be a positive integer: {workers!r}")
        seed = raw.get("seed", 0)
        if not isinstance(seed, int):
            raise ConfigError(f"seed must be an integer: {seed!r}")
        return cls(
            namespace=raw.get("namespace", DEFAULT_NAMESPACE),
            seed=seed,
            defaults=defaults,
            overrides=overrides,
            image_provider=provider,
            emit_weights=bool(raw.get("emit_weights", False)),
            fallback=raw["fallback"] if "fallback" in raw else ONEENTITY,
            workers=workers,
            rules=rules,
            stopwords=raw.get("stopwords"),
        )

    @classmethod
    def from_file(cls, path: str) -> "StrategyConfig":
        try:
            with open(path, encoding="utf-8") as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
        return cls.from_dict(raw)

    def plan_for(self, predicate: str, modality: Modality) -> GroupPlan:
        plan = self.overrides.get(predicate)
        if plan is None:
            plan = self.defaults[modality]
        if plan.strategy == COMBINED:
            plan = compose_combined(plan.params)[modality]
        if plan.strategy not in VALID_FOR[modality]:
            raise ConfigError(
                f"strategy {plan.strategy} cannot handle {modality.value} literals"
                f" (predicate {predicate})"
            )
        return plan

    def make_provider(self) -> TagProvider | None:
        raw = self.image_provider
        if raw is None:
            return None
        kind = raw.get("kind")
        if kind == "tag-map":
            path = raw.get("path")
            if not isinstance(path, str):
                raise ConfigError("tag-map provider needs a 'path'")
            return TagMapProvider.from_file(path)
        if kind == "remote":
            endpoint = raw.get("endpoint")
            if not isinstance(endpoint, str):
                raise ConfigError("remote provider needs an 'endpoint'")
            return RemoteTagProvider(
                endpoint,
                timeout=float(raw.get("timeout", 10.0)),
                retries=int(raw.get("retries", 3)),
            )
        raise ConfigError(f"unknown image provider kind: {kind!r}")


def derive_seed(seed: int, predicate: str) -> int:
    """A stable per-predicate seed, independent of group execution order."""
    digest = hashlib.sha256(f"{seed}:{predicate}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def shortcut_defaults(strategy: str, fallback: str | None) -> dict[Modality, GroupPlan]:
    """Defaults for a single-strategy run over every modality.

    Modalities the strategy cannot handle degrade to the fallback (or are
    excluded when no fallback is configured).
    """
    strategy = strategy.upper()
    if strategy not in STRATEGIES:
        raise ConfigError(f"unknown strategy name: {strategy!r}")
    if strategy == COMBINED:
        return compose_combined()
    out: dict[Modality, GroupPlan] = {}
    degraded = GroupPlan(fallback if fallback is not None else EXCLUDE)
    for modality in Modality:
        if strategy in VALID_FOR[modality]:
            out[modality] = GroupPlan(strategy)
        else:
            out[modality] = degraded
    return out


@dataclass
class PredicateReport:
    """One report row: what happened to one literal group."""

    predicate: str
    modality: str
    strategy: str
    statements: int
    distinct_values: int
    parsed: int
    fallback_statements: int
    delta_entities: int
    delta_statements: int
    structural: int
    removed: int
    entity_allowance: int
    statement_delta_exact: int | None
    statement_delta_max: int | None
    exceptions: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    fell_back_to: str | None = None
    params: dict[str, Any] = field(default_factory=dict)
    detail: dict[str, Any] = field(default_factory=dict)
    verdict: str = "unchecked"

    def to_dict(self) -> dict[str, Any]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, raw: dict[str, Any]) -> "PredicateReport":
        """A row from its dict; keys with a default may be absent."""
        kwargs: dict[str, Any] = {}
        for f in fields(cls):
            has_default = f.default is not MISSING or f.default_factory is not MISSING
            if has_default and f.name not in raw:
                continue
            value = raw[f.name]
            # List and dict fields get copies, made by their default factory.
            kwargs[f.name] = value if f.default_factory is MISSING else f.default_factory(value)
        return cls(**kwargs)


@dataclass
class AugmentationReport:
    """Run summary: per-predicate rows plus global accounting.

    Row sums give the totals; the *_in_output fields are post-merge counts
    (structural triples and shared entities are deduplicated across rows).
    """

    namespace: str
    seed: int
    rows: list[PredicateReport] = field(default_factory=list)
    relational_preserved: int = 0
    structural_total: int = 0
    minted_entities_in_output: int = 0
    minted_relations_in_output: int = 0
    duplicates_removed: int = 0
    warnings: list[str] = field(default_factory=list)

    @property
    def delta_entities_total(self) -> int:
        return sum(r.delta_entities for r in self.rows)

    @property
    def delta_statements_total(self) -> int:
        return sum(r.delta_statements for r in self.rows)

    @property
    def removed_total(self) -> int:
        return sum(r.removed for r in self.rows)

    def to_dict(self) -> dict[str, Any]:
        return {
            "namespace": self.namespace,
            "seed": self.seed,
            "relational_preserved": self.relational_preserved,
            "delta_entities_total": self.delta_entities_total,
            "delta_statements_total": self.delta_statements_total,
            "removed_total": self.removed_total,
            "structural_total": self.structural_total,
            "minted_entities_in_output": self.minted_entities_in_output,
            "minted_relations_in_output": self.minted_relations_in_output,
            "duplicates_removed": self.duplicates_removed,
            "warnings": self.warnings,
            "predicates": [row.to_dict() for row in self.rows],
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    @classmethod
    def from_dict(cls, raw: dict[str, Any]) -> "AugmentationReport":
        report = cls(
            namespace=raw["namespace"],
            seed=raw["seed"],
            rows=[PredicateReport.from_dict(r) for r in raw["predicates"]],
            relational_preserved=raw["relational_preserved"],
            structural_total=raw["structural_total"],
            minted_entities_in_output=raw["minted_entities_in_output"],
            minted_relations_in_output=raw["minted_relations_in_output"],
            duplicates_removed=raw.get("duplicates_removed", 0),
            warnings=list(raw.get("warnings", [])),
        )
        if (
            report.delta_entities_total != raw["delta_entities_total"]
            or report.delta_statements_total != raw["delta_statements_total"]
            or report.removed_total != raw["removed_total"]
        ):
            raise ValueError("report totals do not match the sum of its rows")
        return report

    @classmethod
    def from_file(cls, path: str) -> "AugmentationReport":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


@dataclass
class PipelineResult:
    """Merged output: triples in deterministic order, report, weight sidecar.

    *weighted* is filled only when the config's emit_weights is on.
    """

    triples: list[Triple]
    report: AugmentationReport
    weighted: list[tuple[Triple, float]] = field(default_factory=list)


def _distinct_values(group: LiteralGroup) -> int:
    # Terms compare by value: a literal by lexical form, datatype and language.
    return len({obj for _, obj in group.statements})


def _binning_spec(params: dict[str, Any], percent_mode: bool) -> BinningSpec:
    mode = "percent" if percent_mode or "percent" in params else "fixed"
    try:
        return BinningSpec(
            mode=mode,
            bins=int(params.get("bins", 10)),
            percent=float(params.get("percent", 0.10)),
            overlap=float(params.get("overlap", 0.0)),
            hierarchy_depth=int(params.get("hierarchy_depth", 0)),
            connect_adjacent=bool(params.get("connect_adjacent", True)),
            scheme=str(params.get("scheme", "equal-width")),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _lof_spec(params: dict[str, Any]) -> LofSpec | None:
    lof = params.get("lof")
    if lof is None:
        return None
    try:
        return LofSpec(k=int(lof.get("k", 20)), threshold=float(lof.get("threshold", 1.5)))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _lda_spec(params: dict[str, Any]) -> LdaSpec:
    try:
        return LdaSpec(
            topics=int(params.get("topics", 20)),
            alpha=None if params.get("alpha") is None else float(params["alpha"]),
            beta=float(params.get("beta", 0.01)),
            iterations=int(params.get("iterations", 500)),
            threshold=float(params.get("threshold", 0.10)),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _binning_allowance(
    spec: BinningSpec, leaves: list[dict[str, Any]], lof_on: bool, fallback: int
) -> int:
    allowance = 0
    for leaf in leaves:
        target = leaf["target_bins"]
        allowance += target
        step = target
        for _ in range(spec.hierarchy_depth):
            step = (step + 1) // 2
            allowance += step
    if lof_on:
        allowance += 2 * len(leaves)
    if fallback:
        allowance += 1
    return allowance


def _binning_exceptions(spec: BinningSpec, outliers: int) -> list[str]:
    out = []
    if spec.overlap > 0.0:
        out.append("overlapping bins emit multiple statements per value")
    if spec.hierarchy_depth > 0:
        out.append("hierarchical bins emit one statement per level")
    if outliers:
        out.append("outlier entities extend the bin vocabulary")
    return out


@dataclass
class _GroupOutcome:
    aug: Augmentation
    entity_allowance: int
    statement_delta_exact: int | None
    statement_delta_max: int | None
    parsed: int
    exceptions: list[str] = field(default_factory=list)
    detail: dict[str, Any] = field(default_factory=dict)


def _run_strategy(
    group: LiteralGroup,
    graph: IndexedGraph,
    plan: GroupPlan,
    config: StrategyConfig,
    provider: TagProvider | None,
    distinct: int,
) -> _GroupOutcome:
    S = len(group.statements)
    namespace = config.namespace
    name = plan.strategy
    params = plan.params

    if name == EXCLUDE:
        return _GroupOutcome(baselines.exclude(group), 0, 0, None, S)
    if name == TRANSFORM:
        aug = baselines.transform_literal2entity(group, graph, namespace)
        return _GroupOutcome(aug, distinct, S, None, S)
    if name == ONEENTITY:
        aug = baselines.one_entity(group, graph, namespace)
        return _GroupOutcome(aug, 1, S, None, S)

    if name in (NBINS, PBINS, DATBIN):
        spec = _binning_spec(params, percent_mode=name == PBINS)
        lof = _lof_spec(params)
        runner = datbin if name == DATBIN else nbins
        aug = runner(group, graph, spec, namespace, lof)
        parsed = S - aug.fallback_statements
        unique_cap = min(distinct, max(parsed, 1))
        leaves = [{"target_bins": _leaf_target(spec, unique_cap), "values": parsed}]
        flat = spec.overlap == 0.0 and spec.hierarchy_depth == 0
        detail = {"leaves": 1, "bin_entities": len(aug.entities)}
        return _GroupOutcome(
            aug,
            _binning_allowance(spec, leaves, lof is not None, aug.fallback_statements),
            S if flat else None,
            None,
            parsed,
            _binning_exceptions(spec, _outlier_entity_count(aug)),
            detail,
        )

    if name in (KLREL, KLRELENT):
        spec = _binning_spec(params, percent_mode="percent" in params)
        lof = _lof_spec(params)
        threshold = int(params.get("split_threshold", 300))
        mode = REL if name == KLREL else RELENT
        aug, split = kl_rel_binning(
            group, graph, mode, spec, namespace, lof, threshold
        )
        parsed = S - aug.fallback_statements
        leaves = [
            {"target_bins": _leaf_target(spec, leaf.value_count), "values": leaf.value_count}
            for leaf in split.leaves
        ]
        flat = spec.overlap == 0.0 and spec.hierarchy_depth == 0
        detail = {
            "leaves": len(split.leaves),
            "split": split.root.to_dict(),
        }
        return _GroupOutcome(
            aug,
            _binning_allowance(spec, leaves, lof is not None, aug.fallback_statements),
            S if flat else None,
            None,
            parsed,
            _binning_exceptions(spec, _outlier_entity_count(aug)),
            detail,
        )

    if name == DATFEAT:
        aug = datfeat(group, graph, namespace, bool(params.get("link_features", True)))
        parsed = S - aug.fallback_statements
        features = {t.object.value for t in aug.triples if isinstance(t.object, IRI)}
        return _GroupOutcome(
            aug,
            len(features),
            5 * parsed + aug.fallback_statements,
            None,
            parsed,
            detail={"feature_entities": len(features)},
        )

    if name == TXTLDA:
        spec = _lda_spec(params)
        aug, model = txtlda(
            group,
            graph,
            spec,
            namespace,
            seed=derive_seed(config.seed, group.predicate),
            stopwords=config.stopwords,
        )
        parsed = S - aug.fallback_statements
        detail: dict[str, Any] = {"topics": spec.topics}
        if model is not None:
            detail["top_words"] = model.top_words(10)
        return _GroupOutcome(
            aug,
            spec.topics + (1 if aug.fallback_statements else 0),
            None,
            spec.topics * S,
            parsed,
            detail=detail,
        )

    if name == IMAGETAGS:
        if provider is None:
            raise StrategyError(
                f"{group.predicate}: image tagging needs an image_provider in the config"
            )
        aug = emit_image_triples(
            group,
            graph,
            provider,
            namespace,
            prefix=str(params.get("prefix", "VGG_")),
            max_in_flight=int(params.get("max_in_flight", 8)),
        )
        vocab_cap = int(params.get("vocabulary", 1000))
        return _GroupOutcome(
            aug,
            min(S, vocab_cap) + (1 if aug.fallback_statements else 0),
            S,
            None,
            S - aug.fallback_statements,
        )

    raise ConfigError(f"strategy {name} cannot run on a literal group directly")


def _leaf_target(spec: BinningSpec, unique_cap: int) -> int:
    if spec.mode == "fixed":
        return min(spec.bins, max(unique_cap, 1))
    return max(1, int(spec.percent * max(unique_cap, 1) + 0.5))


def _outlier_entity_count(aug: Augmentation) -> int:
    return sum(1 for e in aug.entities if e.endswith(("OutlierLow", "OutlierHigh")))


def _fallback_outcome(
    group: LiteralGroup,
    graph: IndexedGraph,
    config: StrategyConfig,
    error: Exception,
) -> _GroupOutcome:
    S = len(group.statements)
    if config.fallback == EXCLUDE:
        outcome = _GroupOutcome(baselines.exclude(group), 0, 0, None, 0)
    else:
        outcome = _GroupOutcome(
            baselines.one_entity(group, graph, config.namespace), 1, S, None, 0
        )
    outcome.aug.warnings.append(f"{group.predicate}: strategy failed ({error})")
    return outcome


def check_namespace(graph: IndexedGraph, namespace: str) -> None:
    """Reject inputs that already use the reserved minting namespace."""
    for term in graph.entity_terms:
        if isinstance(term, IRI) and term.value.startswith(namespace):
            raise ConfigError(
                f"input already contains IRIs under the minting namespace: {term.value}"
            )
    for iri in graph.relation_iris:
        if iri.startswith(namespace):
            raise ConfigError(
                f"input already contains IRIs under the minting namespace: {iri}"
            )


def apply(graph: IndexedGraph, config: StrategyConfig) -> PipelineResult:
    """Run the configured strategies over every literal group and merge.

    Output order is fixed: original relational triples first (input order),
    then each group's statement triples (groups ordered by predicate id and
    modality), then structural triples deduplicated in first-mint order.
    """
    check_namespace(graph, config.namespace)
    groups = graph.groups()
    plans = [config.plan_for(g.predicate, g.modality) for g in groups]
    provider = config.make_provider() if any(p.strategy == IMAGETAGS for p in plans) else None

    if config.workers is not None:
        log.warning("workers is deprecated and ignored: literal groups run serially")

    # The relational triples pass through as parsed.
    triples: list[Triple] = list(graph.relational_triples())
    num_relational = len(triples)
    weighted: list[tuple[Triple, float]] = []
    structural: list[Triple] = []
    structural_seen: set[Triple] = set()
    rows: list[PredicateReport] = []

    for group, plan in zip(groups, plans):
        distinct = _distinct_values(group)
        fell_back = None
        try:
            outcome = _run_strategy(group, graph, plan, config, provider, distinct)
        except ConfigError:
            raise
        except Exception as exc:  # noqa: BLE001 - degraded to fallback below
            if config.fallback is None:
                raise StrategyError(
                    f"{plan.strategy} failed on {group.predicate}: {exc}"
                ) from exc
            log.warning("%s failed on %s: %s", plan.strategy, group.predicate, exc)
            outcome = _fallback_outcome(group, graph, config, exc)
            fell_back = config.fallback
        aug = outcome.aug
        triples.extend(aug.triples)
        if config.emit_weights:
            for triple, weight in zip(aug.triples, aug.weights):
                if weight is not None and weight > 0.0:
                    weighted.append((triple, weight))
        row_structural = 0
        for triple in aug.structural_triples:
            if triple not in structural_seen:
                structural_seen.add(triple)
                structural.append(triple)
                row_structural += 1
        minted_objects = {
            t.object.value for t in aug.triples if isinstance(t.object, IRI)
        }
        rows.append(
            PredicateReport(
                predicate=group.predicate,
                modality=group.modality.value,
                strategy=plan.strategy,
                statements=len(group.statements),
                distinct_values=distinct,
                parsed=outcome.parsed,
                fallback_statements=aug.fallback_statements,
                delta_entities=len(minted_objects),
                delta_statements=len(aug.triples),
                structural=row_structural,
                removed=aug.removed,
                entity_allowance=outcome.entity_allowance,
                statement_delta_exact=outcome.statement_delta_exact,
                statement_delta_max=outcome.statement_delta_max,
                exceptions=outcome.exceptions,
                warnings=list(aug.warnings),
                fell_back_to=fell_back,
                params=dict(plan.params),
                detail=outcome.detail,
            )
        )

    triples.extend(structural)

    # check_namespace has ruled out minted terms in the relational triples,
    # so only the strategy output appended after them is scanned.
    minted_entities: set[str] = set()
    minted_relations: set[str] = set()
    for triple in islice(triples, num_relational, None):
        if isinstance(triple.subject, IRI) and triple.subject.value.startswith(config.namespace):
            minted_entities.add(triple.subject.value)
        if isinstance(triple.object, IRI) and triple.object.value.startswith(config.namespace):
            minted_entities.add(triple.object.value)
        if triple.predicate.value.startswith(config.namespace):
            minted_relations.add(triple.predicate.value)

    report = AugmentationReport(
        namespace=config.namespace,
        seed=config.seed,
        rows=rows,
        relational_preserved=graph.num_relational,
        structural_total=len(structural),
        minted_entities_in_output=len(minted_entities),
        minted_relations_in_output=len(minted_relations),
        duplicates_removed=graph.duplicates_removed,
        warnings=[w for row in rows for w in row.warnings],
    )
    verify_bounds(report)
    return PipelineResult(triples, report, weighted)


def verify_bounds(report: AugmentationReport) -> dict[str, str]:
    """Check every row's measured deltas against its declared growth bounds.

    Sets each row's verdict: pass, pass-with-exceptions (documented
    multi-edge or outlier-entity cases), or fail.
    """
    verdicts: dict[str, str] = {}
    for row in report.rows:
        problems: list[str] = []
        if row.delta_entities > row.entity_allowance:
            problems.append(
                f"delta_entities {row.delta_entities} exceeds allowance {row.entity_allowance}"
            )
        if row.statement_delta_exact is not None and row.delta_statements != row.statement_delta_exact:
            problems.append(
                f"delta_statements {row.delta_statements} != expected {row.statement_delta_exact}"
            )
        if row.statement_delta_max is not None and row.delta_statements > row.statement_delta_max:
            problems.append(
                f"delta_statements {row.delta_statements} exceeds cap {row.statement_delta_max}"
            )
        if row.statement_delta_exact is None and row.statement_delta_max is None and row.strategy != EXCLUDE:
            if row.delta_statements < row.statements:
                problems.append(
                    f"delta_statements {row.delta_statements} below statement count {row.statements}"
                )
        if row.strategy == EXCLUDE and row.removed != row.statements:
            problems.append(f"removed {row.removed} != statements {row.statements}")
        if problems:
            row.verdict = "fail: " + "; ".join(problems)
        elif row.exceptions:
            row.verdict = "pass-with-exceptions"
        else:
            row.verdict = "pass"
        verdicts[f"{row.predicate}|{row.modality}"] = row.verdict
    return verdicts


def check_output(
    triples: list[Triple], report: AugmentationReport
) -> list[str]:
    """Recompute the report's accounting from merged output triples.

    Returns a list of problems, empty when the output is consistent with
    the report: no literals, relational count preserved, per-predicate
    delta_statements and delta_entities match, global minted-term counts
    match, and every bound verdict passes.
    """
    namespace = report.namespace
    problems: list[str] = []
    relational = 0
    structural = 0
    per_pred_statements: dict[str, int] = {}
    per_pred_objects: dict[str, set[str]] = {}
    minted_entities: set[str] = set()
    minted_relations: set[str] = set()

    for triple in triples:
        if isinstance(triple.object, Literal):
            problems.append(f"literal object survived: {triple.object.lexical[:50]!r}")
            continue
        s_minted = isinstance(triple.subject, IRI) and triple.subject.value.startswith(namespace)
        o_minted = isinstance(triple.object, IRI) and triple.object.value.startswith(namespace)
        p_minted = triple.predicate.value.startswith(namespace)
        if s_minted:
            minted_entities.add(triple.subject.value)
        if o_minted:
            minted_entities.add(triple.object.value)
        if p_minted:
            minted_relations.add(triple.predicate.value)
        if s_minted:
            structural += 1
        elif o_minted:
            pred = triple.predicate.value
            per_pred_statements[pred] = per_pred_statements.get(pred, 0) + 1
            per_pred_objects.setdefault(pred, set()).add(triple.object.value)
        elif p_minted:
            problems.append(f"minted relation on original terms: {triple.predicate.value}")
        else:
            relational += 1

    if relational != report.relational_preserved:
        problems.append(
            f"relational triples {relational} != reported {report.relational_preserved}"
        )
    if structural != report.structural_total:
        problems.append(f"structural triples {structural} != reported {report.structural_total}")
    if len(minted_entities) != report.minted_entities_in_output:
        problems.append(
            f"minted entities {len(minted_entities)} != reported {report.minted_entities_in_output}"
        )
    if len(minted_relations) != report.minted_relations_in_output:
        problems.append(
            f"minted relations {len(minted_relations)} != reported {report.minted_relations_in_output}"
        )

    by_pred: dict[str, list[PredicateReport]] = {}
    for row in report.rows:
        by_pred.setdefault(row.predicate, []).append(row)
    for pred, rows in by_pred.items():
        measured_s = per_pred_statements.get(pred, 0)
        reported_s = sum(r.delta_statements for r in rows)
        if measured_s != reported_s:
            problems.append(
                f"{pred}: output statements {measured_s} != reported {reported_s}"
            )
        measured_e = len(per_pred_objects.get(pred, ()))
        if len(rows) == 1:
            if measured_e != rows[0].delta_entities:
                problems.append(
                    f"{pred}: output entities {measured_e} != reported {rows[0].delta_entities}"
                )
        else:
            cap = sum(r.delta_entities for r in rows)
            if measured_e > cap:
                problems.append(
                    f"{pred}: output entities {measured_e} exceed reported total {cap}"
                )
    for pred in per_pred_statements:
        if pred not in by_pred:
            problems.append(f"{pred}: minted statements for an unreported predicate")

    verify_bounds(report)
    for row in report.rows:
        if row.verdict.startswith("fail"):
            problems.append(f"{row.predicate} [{row.modality}]: {row.verdict}")
    return problems
