"""Strategy orchestration: configuration, execution, merging, bound checks.

The pipeline routes every literal group to a strategy (per-predicate
override, else per-modality default), runs the strategies, merges their
augmentations with the untouched relational triples, and produces a report
whose per-predicate size deltas are checked against the declared growth
bounds. Failures of individual strategies degrade to a configurable
fallback instead of aborting the whole run.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field
from importlib import import_module
from typing import TYPE_CHECKING, Any, Callable, Iterable

from . import baselines
from .baselines import DEFAULT_NAMESPACE, BinningSpec, LdaSpec, LofSpec, bin_count
from .baselines import _load_json, sanitize_value
from .graph import Augmentation, IndexedGraph, LiteralGroup, Modality, ModalityRules, _rows
from .ntriples import Row
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

_UNIVERSAL = {EXCLUDE, TRANSFORM, ONEENTITY}
VALID_FOR: dict[Modality, set[str]] = {
    Modality.NUMERIC: _UNIVERSAL | {NBINS, PBINS, KLREL, KLRELENT},
    Modality.TEMPORAL: _UNIVERSAL | {DATBIN, DATFEAT},
    Modality.TEXT: _UNIVERSAL | {TXTLDA},
    Modality.IMAGE: _UNIVERSAL | {IMAGETAGS},
    Modality.OTHER: set(_UNIVERSAL),
}

# Each strategy's parameters and their JSON types, as read by _read_json. The
# defaults live in the spec dataclasses and the strategy functions' signatures.
_BINNING_PARAMS: dict[str, Any] = {
    "bins": "int",
    "percent": "number",
    "scheme": "string",
    "overlap": "number",
    "hierarchy_depth": "int",
    "connect_adjacent": "bool",
    "lof": {"k": "int", "threshold": "number"},
}
_SPLIT_PARAMS = {**_BINNING_PARAMS, "split_threshold": "count"}
_PARAMS: dict[str, dict[str, Any]] = {
    EXCLUDE: {},
    TRANSFORM: {},
    ONEENTITY: {},
    NBINS: _BINNING_PARAMS,
    PBINS: _BINNING_PARAMS,
    KLREL: _SPLIT_PARAMS,
    KLRELENT: _SPLIT_PARAMS,
    DATBIN: _BINNING_PARAMS,
    DATFEAT: {"link_features": "bool"},
    TXTLDA: {
        "topics": "int",
        "alpha": "number?",
        "beta": "number",
        "iterations": "int",
        "threshold": "number",
    },
    IMAGETAGS: {"prefix": "string", "max_in_flight": "count", "vocabulary": "count"},
    COMBINED: {m.value: "object" for m in Modality},
}
STRATEGIES = set(_PARAMS)
_BINNERS = {NBINS, PBINS, KLREL, KLRELENT, DATBIN}
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

# The report's layout: each key in written order, with its JSON type. The
# reader requires every key. The three *_total keys are sums over the rows,
# written from them and checked against them on read.
_REPORT_ROW = {
    "predicate": "string", "modality": "string", "strategy": "string",
    "statements": "int", "distinct_values": "int", "parsed": "int",
    "fallback_statements": "int", "delta_entities": "int", "delta_statements": "int",
    "structural": "int", "removed": "int", "entity_allowance": "int",
    "statement_delta_exact": "int?", "statement_delta_max": "int?",
    "exceptions": "list", "warnings": "list", "fell_back_to": "string?",
    "params": "object", "detail": "object", "verdict": "string",
}
_REPORT = {
    "namespace": "string", "seed": "int", "relational_preserved": "int",
    "delta_entities_total": "int", "delta_statements_total": "int", "removed_total": "int",
    "structural_total": "int", "minted_entities_in_output": "int",
    "minted_relations_in_output": "int", "duplicates_removed": "int",
    "warnings": "list", "predicates": [_REPORT_ROW],
}
_REPORT_TOTALS = ("delta_entities_total", "delta_statements_total", "removed_total")

# A JSON type name: what it reads as in a message, and its test. A bool is
# not a number; an int is.
_JSON_TYPES: dict[str, tuple[str, Callable[[Any], bool]]] = {
    "int": ("an integer", lambda v: type(v) is int),
    "count": ("an integer >= 1", lambda v: type(v) is int and v >= 1),
    "number": ("a number", lambda v: type(v) in (int, float) and math.isfinite(v)),
    "bool": ("true or false", lambda v: type(v) is bool),
    "string": ("a string", lambda v: type(v) is str),
    "object": ("an object", lambda v: type(v) is dict),
    "list": ("a list of strings", lambda v: type(v) is list and all(type(s) is str for s in v)),
}

MODALITY_NAMES = {m.value: m for m in Modality}


def _read_json(
    raw: Any, schema: dict[str, Any], what: str, required: bool = False
) -> dict[str, Any]:
    """*raw* checked against *schema*, as a new dict with numbers as floats.

    *schema* maps each allowed key to a type name of ``_JSON_TYPES``; a
    trailing "?" also allows null. A nested schema is an object read the
    same way, or null; a schema in a one-item list is a list of such
    objects. With *required*, every key of *schema*, and of each object in
    its lists, must be present. *what* names the keys in messages.
    """
    if type(raw) is not dict:
        raise ConfigError(f"{what}: expected a JSON object, not {raw!r}")
    unknown = set(raw) - set(schema)
    if unknown:
        raise ConfigError(f"unknown {what}: {sorted(unknown)}")
    missing = [key for key in schema if key not in raw] if required else []
    if missing:
        raise ConfigError(f"{what}: missing {missing}")
    out: dict[str, Any] = {}
    for key, value in raw.items():
        kind = schema[key]
        if isinstance(kind, list):
            if type(value) is not list:
                raise ConfigError(f"{what}: {key} must be a list of objects, not {value!r}")
            out[key] = [
                _read_json(item, kind[0], f"{key}[{i}] keys", required)
                for i, item in enumerate(value)
            ]
            continue
        if isinstance(kind, dict):
            try:
                out[key] = None if value is None else _read_json(value, kind, f"{key} keys")
            except ConfigError as exc:
                raise ConfigError(f"bad {key} settings: {exc}") from None
            continue
        nullable = kind.endswith("?")
        kind = kind.rstrip("?")
        described, fits = _JSON_TYPES[kind]
        if not (fits(value) or (nullable and value is None)):
            described += " or null" if nullable else ""
            raise ConfigError(f"{what}: {key} must be {described}, not {value!r}")
        out[key] = float(value) if kind == "number" and value is not None else value
    return out


@dataclass(frozen=True)
class GroupPlan:
    """One resolved (strategy, parameters) choice.

    *spec* is *params* read once, at construction: for binning strategies a
    BinningSpec, for TXTLDA an LdaSpec, for IMAGETAGS (vocabulary cap,
    emit_image_triples keywords), for COMBINED the per-modality plans,
    otherwise the strategy function's keywords. *params* stays as given,
    for the report.
    """

    strategy: str
    params: dict[str, Any] = field(default_factory=dict)
    spec: Any = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"unknown strategy name: {self.strategy!r}")
        what = f"parameters for {self.strategy}"
        params = _read_json(self.params, _PARAMS[self.strategy], what)
        try:
            spec = _read_spec(self.strategy, params)
        except ValueError as exc:  # a spec dataclass's range check, or a COMBINED part's
            raise ConfigError(f"{what}: {exc}") from exc
        object.__setattr__(self, "spec", spec)


def _read_spec(strategy: str, params: dict[str, Any]) -> Any:
    if strategy in _BINNERS:
        if params.get("lof") is not None:
            params["lof"] = LofSpec(**params["lof"])
        if strategy == PBINS:
            params.setdefault("percent", 0.10)
        return BinningSpec(**params)
    if strategy == TXTLDA:
        return LdaSpec(**params)
    if strategy == IMAGETAGS:
        if _IRI_BAD.search(params.get("prefix", "")):
            raise ConfigError(f"prefix holds a character no IRI may hold: {params['prefix']!r}")
        return params.pop("vocabulary", 1000), params
    if strategy == COMBINED:
        return compose_combined(params)
    return params


def _plan_from_dict(raw: Any, where: str) -> GroupPlan:
    entry = _read_json(raw, _PLAN, f"keys in {where}")
    if "strategy" not in entry:
        raise ConfigError(f"{where}: missing strategy name")
    return GroupPlan(entry["strategy"].upper(), entry.get("params", {}))


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


@dataclass
class StrategyConfig:
    """Everything a transformation run depends on.

    The modality defaults start from the combined strategy and are
    overridden per modality, then per predicate. The seed drives every
    stochastic step; two runs with equal config and input are identical.
    Stopword tables map language tags, casefolded here, to word lists.
    """

    namespace: str = DEFAULT_NAMESPACE
    seed: int = 0
    defaults: dict[Modality, GroupPlan] = field(default_factory=compose_combined)
    overrides: dict[str, GroupPlan] = field(default_factory=dict)
    image_provider: dict[str, Any] | None = None
    emit_weights: bool = False
    fallback: str | None = ONEENTITY
    rules: ModalityRules = field(default_factory=ModalityRules)
    stopwords: dict[str, list[str]] | None = None

    def __post_init__(self) -> None:
        if not self.namespace or not self.namespace.startswith(("http://", "https://", "urn:")):
            raise ConfigError(f"namespace must be an absolute IRI prefix: {self.namespace!r}")
        if _IRI_BAD.search(self.namespace):
            raise ConfigError(f"namespace holds a character no IRI may hold: {self.namespace!r}")
        if self.fallback is not None and self.fallback not in (ONEENTITY, EXCLUDE):
            raise ConfigError(f"fallback must be ONEENTITY, EXCLUDE, or null: {self.fallback!r}")
        for modality, plan in self.defaults.items():
            if plan.strategy != COMBINED and plan.strategy not in VALID_FOR[modality]:
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
            plan = _plan_from_dict(entry, f"defaults.{name}")
            defaults[modality] = plan.spec[modality] if plan.strategy == COMBINED else plan
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
    """A stable per-predicate seed, independent of group execution order."""
    import hashlib  # maps OpenSSL; only TXTLDA derives a seed

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
        return {key: getattr(self, key) for key in _REPORT_ROW}


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
        rows = [row.to_dict() for row in self.rows]
        return {key: rows if key == "predicates" else getattr(self, key) for key in _REPORT}

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    @classmethod
    def from_dict(cls, raw: Any) -> "AugmentationReport":
        """A report from its JSON form; one that breaks the layout raises ValueError."""
        raw = _read_json(raw, _REPORT, "report keys", required=True)
        totals = {key: raw.pop(key) for key in _REPORT_TOTALS}
        rows = [PredicateReport(**row) for row in raw.pop("predicates")]
        report = cls(rows=rows, **raw)
        if any(getattr(report, key) != value for key, value in totals.items()):
            raise ValueError("report totals do not match the sum of its rows")
        return report

    @classmethod
    def from_file(cls, path: str) -> "AugmentationReport":
        return cls.from_dict(_load_json(path, "report", ValueError))


@dataclass
class PipelineResult:
    """Merged output, as columns: the graph's relational statements, then the
    links of each group's augmentation, then *structural*, the structural
    statements deduplicated in first-mint order.

    *minted*, *triples* and *weighted* are Triple adapters, built on each
    access.
    """

    graph: IndexedGraph
    augmentations: list[Augmentation]
    structural: list[tuple[str, str, str]]
    report: AugmentationReport

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


def _binning_allowance(spec: BinningSpec, sizes: list[int], fallback: int) -> int:
    """Bin entities a binning run may mint: each population's bins at every
    level up to the first one-bin level, two outlier entities per population
    with LOF, one AnyValue."""
    allowance = 0
    for size in sizes:
        step = bin_count(size, max(size, 1), spec)
        allowance += step
        for _ in range(spec.hierarchy_depth):
            if step == 1:
                break
            step = (step + 1) // 2
            allowance += step
    if spec.lof is not None:
        allowance += 2 * len(sizes)
    if fallback:
        allowance += 1
    return allowance


def _binning_exceptions(spec: BinningSpec, minted: frozenset[str]) -> list[str]:
    out = []
    if spec.overlap > 0.0:
        out.append("overlapping bins emit multiple statements per value")
    if spec.hierarchy_depth > 0:
        out.append("hierarchical bins emit one statement per level")
    if any(e.endswith(("OutlierLow", "OutlierHigh")) for e in minted):
        out.append("outlier entities extend the bin vocabulary")
    return out


@dataclass
class _GroupOutcome:
    aug: Augmentation
    entity_allowance: int
    statement_delta_exact: int | None
    statement_delta_max: int | None
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
    S = len(group)
    name = plan.strategy
    stem = config.namespace + sanitize_value(local_name(group.predicate))
    aug = Augmentation(group.predicate, graph.entity_terms, config.namespace, stem)

    if name == EXCLUDE:
        return _GroupOutcome(baselines.exclude(group, aug), 0, 0, None)
    if name == TRANSFORM:
        return _GroupOutcome(baselines.transform_literal2entity(group, aug), distinct, S, None)
    if name == ONEENTITY:
        return _GroupOutcome(baselines.one_entity(group, aug), 1, S, None)

    if name in _BINNERS:
        spec = plan.spec
        if name in (KLREL, KLRELENT):
            from .subpop import REL, RELENT
            mode = REL if name == KLREL else RELENT
            aug, split = _entry("kl_rel_binning")(group, aug, graph, mode, spec)
            sizes = [leaf.value_count for leaf in split.leaves]
            detail = {"leaves": len(split.leaves), "split": [n.to_dict() for n in split.nodes]}
        else:
            aug = _entry("datbin" if name == DATBIN else "nbins")(group, aug, spec)
            sizes = [min(distinct, S - aug.fallback_statements)]
            detail = {"leaves": 1, "bin_entities": len(aug.minted_entities)}
        flat = spec.overlap == 0.0 and spec.hierarchy_depth == 0
        return _GroupOutcome(
            aug,
            _binning_allowance(spec, sizes, aug.fallback_statements),
            S if flat else None,
            None,
            _binning_exceptions(spec, aug.minted_objects),
            detail,
        )

    if name == DATFEAT:
        aug = _entry("datfeat")(group, aug, **plan.spec)
        # 7 weekdays, 31 days, 12 months and 4 quarters, and a year per value.
        return _GroupOutcome(
            aug,
            min(5 * distinct, 54 + distinct) + (1 if aug.fallback_statements else 0),
            5 * (S - aug.fallback_statements) + aug.fallback_statements,
            None,
            detail={"feature_entities": aug.delta_entities},
        )

    if name == TXTLDA:
        spec = plan.spec
        seed = derive_seed(config.seed, group.predicate)
        aug, model = _entry("txtlda")(group, aug, spec, seed, config.stopwords)
        detail: dict[str, Any] = {"topics": spec.topics}
        if model is not None:
            detail["top_words"] = model.top_words(10)
        return _GroupOutcome(
            aug,
            spec.topics + (1 if aug.fallback_statements else 0),
            None,
            spec.topics * S,
            detail=detail,
        )

    # IMAGETAGS: plan_for has resolved COMBINED, so no other strategy is left.
    if provider is None:
        raise StrategyError(
            f"{group.predicate}: image tagging needs an image_provider in the config"
        )
    vocab_cap, tag_args = plan.spec
    aug = _entry("emit_image_triples")(group, aug, provider, **tag_args)
    return _GroupOutcome(
        aug,
        min(S, vocab_cap) + (1 if aug.fallback_statements else 0),
        S,
        None,
    )


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
        distinct = _distinct_values(group)
        fell_back = None
        try:
            outcome = _run_strategy(group, graph, plan, config, provider, distinct)
        except ImportError:  # a broken installation, not a strategy failure
            raise
        except Exception as exc:  # noqa: BLE001 - degraded to fallback below
            if config.fallback is None:
                raise StrategyError(
                    f"{plan.strategy} failed on {group.predicate}: {exc}"
                ) from exc
            log.warning("%s failed on %s: %s", plan.strategy, group.predicate, exc)
            fallback = GroupPlan(config.fallback)
            outcome = _run_strategy(group, graph, fallback, config, provider, distinct)
            outcome.aug.warnings.append(f"{group.predicate}: strategy failed ({exc})")
            fell_back = config.fallback
        aug = outcome.aug
        augmentations.append(aug)
        minted_entities |= aug.minted_entities
        before = len(structural)
        structural.update(dict.fromkeys(aug.structural))
        S = len(group)
        rows.append(
            PredicateReport(
                predicate=group.predicate,
                modality=group.modality.value,
                strategy=plan.strategy,
                statements=S,
                distinct_values=distinct,
                parsed=0 if fell_back else S - aug.fallback_statements,
                fallback_statements=aug.fallback_statements,
                delta_entities=aug.delta_entities,
                delta_statements=aug.delta_statements,
                structural=len(structural) - before,
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


def check_output(triples: Iterable[Triple], report: AugmentationReport) -> list[str]:
    """check_rows over triples, for callers that hold Triple objects.

    A triple with a literal subject or a non-IRI predicate raises ValueError.
    """
    return check_rows(_rows(triples), report)


def check_rows(rows: Iterable[Row], report: AugmentationReport) -> list[str]:
    """Recompute the report's accounting from merged output rows, in one pass.

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

    for s_iri, _, pred, o_iri, _, lexical, _, _ in rows:
        if lexical is not None:
            problems.append(f"literal object survived: {lexical[:50]!r}")
            continue
        s_minted = s_iri is not None and s_iri.startswith(namespace)
        o_minted = o_iri is not None and o_iri.startswith(namespace)
        p_minted = pred.startswith(namespace)
        if o_minted:
            minted_entities.add(o_iri)
        if p_minted:
            minted_relations.add(pred)
        if s_minted:
            minted_entities.add(s_iri)
            structural += 1
        elif o_minted:
            per_pred_statements[pred] = per_pred_statements.get(pred, 0) + 1
            per_pred_objects.setdefault(pred, set()).add(o_iri)
        elif p_minted:
            problems.append(f"minted relation on original terms: {pred}")
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
