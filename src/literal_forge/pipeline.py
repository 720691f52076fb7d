"""Strategy orchestration: configuration, execution, merging.

The pipeline routes every literal group to a strategy (per-predicate
override, else per-modality default), runs the strategies, merges their
augmentations with the untouched relational triples, and produces a report
(see `report`) whose rows take their growth bounds from `plans.derive_bounds`,
which plans and their specs come from too. Failures of individual strategies
degrade to a configurable fallback instead of aborting the whole run.
"""

from __future__ import annotations

import logging
import random
from importlib import import_module
from itertools import chain
from typing import TYPE_CHECKING, Any, Callable, Iterable

from . import baselines
from .baselines import DEFAULT_NAMESPACE, sanitize_value
from .graph import Augmentation, IndexedGraph, LiteralGroup, ModalityRules, _rows
from .plans import _BINNERS, BinningSpec, GroupPlan, compose_combined, derive_bounds
from .report import (
    COMBINED, DATBIN, DATFEAT, EXCLUDE, FALLBACKS, IMAGETAGS, KLREL, KLRELENT, MODALITY_NAMES,
    NBINS, ONEENTITY, PBINS, STRATEGIES, TRANSFORM, TXTLDA, AugmentationReport, ConfigError,
    Modality, PredicateReport, StrategyError, _load_json, _read_json, check_rows, verify_bounds,
)
from .terms import _IRI_BAD, IRI, Triple, local_name

if TYPE_CHECKING:
    from .images import TagProvider

log = logging.getLogger(__name__)

# Strategy entry points by defining module, imported on first use so numpy and
# the strategy modules load only when a strategy needing them runs. Once
# loaded, each is a global of this module, where a caller may rebind it.
_ENTRY_POINTS = {
    "nbins": "binning",
    "kl_rel_binning": "subpop",
    "datbin": "temporal",
    "datfeat": "temporal",
    "txtlda": "textlda",
    "emit_image_triples": "images",
}


def _entry(name: str) -> Callable[..., Any]:
    """A strategy entry point: the global if bound, else imported and bound."""
    if name not in _ENTRY_POINTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    if name not in globals():
        globals()[name] = getattr(import_module(f".{_ENTRY_POINTS[name]}", __package__), name)
    return globals()[name]


__getattr__ = _entry  # PEP 562: reading pipeline.<entry point> imports it too


_UNIVERSAL = {EXCLUDE, TRANSFORM, ONEENTITY, COMBINED}
VALID_FOR: dict[Modality, set[str]] = {
    Modality.NUMERIC: _UNIVERSAL | {NBINS, PBINS, KLREL, KLRELENT},
    Modality.TEMPORAL: _UNIVERSAL | {DATBIN, DATFEAT},
    Modality.TEXT: _UNIVERSAL | {TXTLDA},
    Modality.IMAGE: _UNIVERSAL | {IMAGETAGS},
    Modality.OTHER: set(_UNIVERSAL),
}

_PLAN = {"strategy": "string", "params": "object"}
_CONFIG = {
    "namespace": "string",
    "seed": "int",
    "defaults": "object",
    "overrides": "object",
    "image_provider": "object?",
    "emit_weights": "bool",
    "fallback": "string?",
    "image_predicates": "list",
    "predicate_modalities": "object",
    "stopwords": "object?",
}
_PROVIDERS = {
    "tag-map": {"kind": "string", "path": "string"},
    "remote": {"kind": "string", "endpoint": "string", "timeout": "number", "retries": "int"},
}


def _plan_from_dict(raw: Any, where: str) -> GroupPlan:
    entry = _read_json(raw, _PLAN, f"keys in {where}")
    if "strategy" not in entry:
        raise ConfigError(f"{where}: missing strategy name")
    return GroupPlan(entry["strategy"].upper(), entry.get("params", {}))


class StrategyConfig:
    """Everything a transformation run depends on.

    The modality defaults start from the combined strategy and are
    overridden per modality, then per predicate. The seed drives every
    stochastic step; two runs with equal config and input are identical.
    Stopword tables map language tags, casefolded here, to word lists.
    """

    def __init__(
        self, namespace: str = DEFAULT_NAMESPACE, seed: int = 0,
        defaults: dict[Modality, GroupPlan] | None = None,
        overrides: dict[str, GroupPlan] | None = None, image_provider: dict[str, Any] | None = None,
        emit_weights: bool = False, fallback: str | None = ONEENTITY,
        rules: ModalityRules | None = None, stopwords: dict[str, list[str]] | None = None,
    ) -> None:
        self.namespace = namespace
        self.seed = seed
        self.defaults = compose_combined() if defaults is None else defaults
        self.overrides = {} if overrides is None else overrides
        self.image_provider = image_provider
        self.emit_weights = emit_weights
        self.fallback = fallback
        self.rules = ModalityRules() if rules is None else rules
        self.stopwords = stopwords
        if not self.namespace or not self.namespace.startswith(("http://", "https://", "urn:")):
            raise ConfigError(f"namespace must be an absolute IRI prefix: {self.namespace!r}")
        if _IRI_BAD.search(self.namespace):
            raise ConfigError(f"namespace holds a character no IRI may hold: {self.namespace!r}")
        if self.fallback is not None and self.fallback not in FALLBACKS:
            raise ConfigError(f"fallback must be ONEENTITY, EXCLUDE, or null: {self.fallback!r}")
        for modality, plan in self.defaults.items():
            if plan.strategy not in VALID_FOR[modality]:
                raise ConfigError(
                    f"strategy {plan.strategy} cannot handle {modality.value} literals"
                )
        if self.stopwords is not None:
            tables = _read_json(self.stopwords, dict.fromkeys(self.stopwords, "list"), "stopwords")
            self.stopwords = {}
            for tag, words in tables.items():
                self.stopwords.setdefault(tag.casefold(), []).extend(words)

    @classmethod
    def from_dict(cls, raw: Any) -> "StrategyConfig":
        """A config from its JSON form; every value is checked here."""
        raw = _read_json(raw, _CONFIG, "config keys")
        defaults = compose_combined()
        for name, entry in raw.pop("defaults", {}).items():
            modality = MODALITY_NAMES.get(name.lower())
            if modality is None:
                raise ConfigError(f"unknown modality in defaults: {name!r}")
            defaults[modality] = _plan_from_dict(entry, f"defaults.{name}")
        overrides = {
            pred: _plan_from_dict(entry, f"overrides.{pred}")
            for pred, entry in raw.pop("overrides", {}).items()
        }
        modal_overrides = {}
        for pred, name in raw.pop("predicate_modalities", {}).items():
            modality = MODALITY_NAMES.get(str(name).lower())
            if modality is None:
                raise ConfigError(f"unknown modality for predicate {pred}: {name!r}")
            modal_overrides[pred] = modality
        rules = ModalityRules(
            image_predicates=frozenset(raw.pop("image_predicates", ())),
            predicate_modalities=modal_overrides,
        )
        return cls(defaults=defaults, overrides=overrides, rules=rules, **raw)

    @classmethod
    def from_file(cls, path: str) -> "StrategyConfig":
        return cls.from_dict(_load_json(path, "config", ConfigError))

    def plan_for(self, predicate: str, modality: Modality) -> GroupPlan:
        """The plan that runs on *predicate*'s *modality* group: its override,
        else the modality default, a COMBINED plan resolved to its part."""
        plan = self.overrides.get(predicate)
        if plan is None:
            plan = self.defaults[modality]
        if plan.strategy == COMBINED:
            plan = plan.spec[modality]
        if plan.strategy not in VALID_FOR[modality]:
            raise ConfigError(
                f"strategy {plan.strategy} cannot handle {modality.value} literals"
                f" (predicate {predicate})"
            )
        return plan

    def make_provider(self) -> TagProvider | None:
        """The image provider, built (and a tag map read) only when called."""
        raw = self.image_provider
        if raw is None:
            return None
        kind = raw.get("kind")
        schema = _PROVIDERS.get(kind) if isinstance(kind, str) else None
        if schema is None:
            raise ConfigError(f"unknown image provider kind: {kind!r}")
        settings = _read_json(raw, schema, f"{kind} provider keys")
        del settings["kind"]
        from .images import ProviderError, RemoteTagProvider, TagMapProvider
        if kind == "tag-map":
            if "path" not in settings:
                raise ConfigError("tag-map provider needs a 'path'")
            try:
                return TagMapProvider.from_file(settings["path"])
            except ProviderError as exc:
                raise ConfigError(f"tag-map provider: {exc}") from exc
        if "endpoint" not in settings:
            raise ConfigError("remote provider needs an 'endpoint'")
        try:
            return RemoteTagProvider(**settings)
        except ValueError as exc:
            raise ConfigError(f"remote provider {settings['endpoint']}: {exc}") from exc


def derive_seed(seed: int, predicate: str) -> int:
    """A stable per-predicate seed, independent of group execution order;
    ``Random`` hashes a str seed with the builtin sha512, not OpenSSL's."""
    return random.Random(f"{seed}:{predicate}").getrandbits(63)


def shortcut_defaults(strategy: str, fallback: str | None) -> dict[Modality, GroupPlan]:
    """Defaults for a single-strategy run over every modality.

    Modalities the strategy cannot handle degrade to the fallback (or are
    excluded when no fallback is configured).
    """
    plan = GroupPlan(strategy.upper())
    degraded = GroupPlan(fallback if fallback is not None else EXCLUDE)
    return {m: plan if plan.strategy in VALID_FOR[m] else degraded for m in Modality}


class PipelineResult:
    """Merged output, as columns: the graph's relational statements, then the
    links of each group's augmentation, then *structural*, the structural
    statements deduplicated in first-mint order.

    *minted*, *triples* and *weighted* are Triple adapters, built on each
    access.
    """

    def __init__(
        self, graph: IndexedGraph, augmentations: list[Augmentation],
        structural: list[tuple[str, str, str]], report: AugmentationReport,
    ) -> None:
        self.graph = graph
        self.augmentations = augmentations
        self.structural = structural
        self.report = report

    @property
    def minted(self) -> list[Triple]:
        """Each group's link triples, then the structural ones."""
        links = [t for aug in self.augmentations for t in aug.triples]
        return links + [Triple(IRI(a), IRI(r), IRI(b)) for a, r, b in self.structural]

    @property
    def triples(self) -> list[Triple]:
        """Every output triple in order."""
        return [*self.graph.relational_triples(), *self.minted]

    @property
    def weighted(self) -> list[tuple[Triple, float]]:
        """(triple, score) of every weighted link, group by group."""
        return [pair for aug in self.augmentations for pair in aug.weighted]


def _distinct_values(group: LiteralGroup) -> int:
    # A literal is its lexical form, datatype and language; an image
    # reference's datatype column holds its term class.
    return len(set(zip(group.lexicals, group.datatypes, group.languages)))


def _binning_exceptions(spec: BinningSpec, minted: frozenset[str]) -> list[str]:
    out = []
    if spec.overlap > 0.0:
        out.append("overlapping bins emit multiple statements per value")
    if spec.hierarchy_depth > 0:
        out.append("hierarchical bins emit one statement per level")
    if any(e.endswith(("OutlierLow", "OutlierHigh")) for e in minted):
        out.append("outlier entities extend the bin vocabulary")
    return out


def augmentation_for(group: LiteralGroup, graph: IndexedGraph, namespace: str) -> Augmentation:
    """The empty augmentation a strategy fills for *group*: its names start
    with the stem, *namespace* and the predicate's local name, or, when
    shared by design, with the bare *namespace*."""
    stem = namespace + sanitize_value(local_name(group.predicate))
    return Augmentation(group.predicate, graph.entity_terms, namespace, stem)


def _run_strategy(
    group: LiteralGroup,
    graph: IndexedGraph,
    plan: GroupPlan,
    config: StrategyConfig,
    provider: TagProvider | None,
) -> tuple[Augmentation, dict[str, Any], list[str]]:
    """*plan* run on *group*: its augmentation, the report row's detail and
    the documented exceptions to one link per statement."""
    name = plan.strategy
    aug = augmentation_for(group, graph, config.namespace)

    if name == EXCLUDE:
        return baselines.exclude(group, aug), {}, []
    if name == TRANSFORM:
        return baselines.transform_literal2entity(group, aug), {}, []
    if name == ONEENTITY:
        return baselines.one_entity(group, aug), {}, []

    if name in _BINNERS:
        spec = plan.spec
        if name in (KLREL, KLRELENT):
            from .subpop import REL, RELENT
            mode = REL if name == KLREL else RELENT
            aug, split = _entry("kl_rel_binning")(group, aug, graph, mode, spec)
            detail = {"leaves": len(split.leaves), "split": [n.to_dict() for n in split.nodes]}
        else:
            aug = _entry("datbin" if name == DATBIN else "nbins")(group, aug, spec)
            detail = {"leaves": 1, "bin_entities": len(aug.minted_entities)}
        return aug, detail, _binning_exceptions(spec, aug.minted_objects)

    if name == DATFEAT:
        aug = _entry("datfeat")(group, aug, **plan.spec)
        return aug, {"feature_entities": aug.delta_entities}, []

    if name == TXTLDA:
        spec = plan.spec
        seed = derive_seed(config.seed, group.predicate)
        aug, model = _entry("txtlda")(group, aug, spec, seed, config.stopwords)
        detail: dict[str, Any] = {"topics": spec.topics}
        if model is not None:
            detail["top_words"] = model.top_words(10)
        return aug, detail, []

    # IMAGETAGS: plan_for has resolved COMBINED, so no other strategy is left.
    if provider is None:
        raise StrategyError(
            f"{group.predicate}: image tagging needs an image_provider in the config"
        )
    return _entry("emit_image_triples")(group, aug, provider, **plan.spec), {}, []


def check_namespace(graph: IndexedGraph, namespace: str) -> None:
    """Reject inputs that already use the reserved minting namespace."""
    entity_iris = (term.value for term in graph.entity_terms if isinstance(term, IRI))
    for iri in chain(entity_iris, graph.relation_iris):
        if iri.startswith(namespace):
            raise ConfigError(f"input already contains IRIs under the minting namespace: {iri}")


def apply(graph: IndexedGraph, config: StrategyConfig) -> PipelineResult:
    """Run the configured strategies over every literal group and merge.

    Output order is fixed: original relational statements first (input
    order), then each group's links (groups ordered by predicate id and
    modality), then structural statements deduplicated in first-mint order.
    """
    check_namespace(graph, config.namespace)
    groups = graph.groups()
    plans = [config.plan_for(g.predicate, g.modality) for g in groups]
    provider = config.make_provider() if any(p.strategy == IMAGETAGS for p in plans) else None

    augmentations: list[Augmentation] = []
    structural: dict[tuple[str, str, str], None] = {}  # an ordered set
    minted_entities: set[str] = set()
    rows: list[PredicateReport] = []

    for group, plan in zip(groups, plans):
        fell_back = None
        try:
            aug, detail, exceptions = _run_strategy(group, graph, plan, config, provider)
        except ImportError:  # a broken installation, not a strategy failure
            raise
        except Exception as exc:  # noqa: BLE001 - degraded to fallback below
            if config.fallback is None:
                raise StrategyError(
                    f"{plan.strategy} failed on {group.predicate}: {exc}"
                ) from exc
            log.warning("%s failed on %s: %s", plan.strategy, group.predicate, exc)
            fallback = GroupPlan(config.fallback)
            aug, detail, exceptions = _run_strategy(group, graph, fallback, config, provider)
            aug.warnings.append(f"{group.predicate}: strategy failed ({exc})")
            fell_back = config.fallback
        augmentations.append(aug)
        minted_entities |= aug.minted_entities
        before = len(structural)
        structural.update(dict.fromkeys(aug.structural))
        row = PredicateReport(
            predicate=group.predicate, modality=group.modality.value, strategy=plan.strategy,
            statements=len(group), distinct_values=_distinct_values(group), parsed=None,
            fallback_statements=aug.fallback_statements, delta_entities=aug.delta_entities,
            delta_statements=aug.delta_statements, structural=len(structural) - before,
            removed=aug.removed, entity_allowance=None, statement_delta_exact=None,
            statement_delta_max=None, exceptions=exceptions, warnings=list(aug.warnings),
            fell_back_to=fell_back, params=dict(plan.params), detail=detail,
        )
        for key, value in derive_bounds(row).items():  # parsed and the three bounds
            setattr(row, key, value)
        rows.append(row)

    report = AugmentationReport(
        namespace=config.namespace,
        seed=config.seed,
        rows=rows,
        relational_preserved=graph.num_relational,
        structural_total=len(structural),
        minted_entities_in_output=len(minted_entities),
        minted_relations_in_output=len({relation for _, relation, _ in structural}),
        duplicates_removed=graph.duplicates_removed,
        warnings=[w for row in rows for w in row.warnings],
    )
    verify_bounds(report)
    return PipelineResult(graph, augmentations, list(structural), report)


def check_output(triples: Iterable[Triple], report: AugmentationReport) -> list[str]:
    """check_rows over triples, for callers that hold Triple objects.

    A triple with a literal subject or a non-IRI predicate raises ValueError.
    """
    return check_rows(_rows(triples), report)
