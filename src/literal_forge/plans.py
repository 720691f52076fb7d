"""The plan contract: what a plan may say, and what its run may add.

A plan is a strategy and its parameters, read here into their specs. The
growth bounds of a report row follow from the row alone, through
`derive_bounds`, which `pipeline.apply` fills the row from and
`report.verify_bounds` checks it against. This module imports no numpy and
nothing of the package but `terms` and `report`, so `verify` loads it
without the pipeline, and loading a config needs no numpy.
"""

from __future__ import annotations

import math
from typing import Any

from .report import (
    COMBINED, DATBIN, DATFEAT, EXCLUDE, IMAGETAGS, KLREL, KLRELENT, NBINS, ONEENTITY, PBINS,
    STRATEGIES, TRANSFORM, TXTLDA, ConfigError, Modality, PredicateReport, _read_json, _shown,
)
from .terms import _IRI_BAD, Frozen, _set

# Each strategy's parameters and their JSON types, as read by _read_json. The
# defaults live in the spec classes and the strategy functions' signatures.
_BINNING_PARAMS: dict[str, Any] = {
    "bins": "int", "percent": "number", "scheme": "string", "overlap": "number",
    "hierarchy_depth": "int", "connect_adjacent": "bool", "lof": {"k": "int", "threshold": "number"},
}
_SPLIT_PARAMS = {**_BINNING_PARAMS, "split_threshold": "count"}
_PARAMS: dict[str, dict[str, Any]] = {
    EXCLUDE: {}, TRANSFORM: {}, ONEENTITY: {},
    NBINS: _BINNING_PARAMS, PBINS: _BINNING_PARAMS, DATBIN: _BINNING_PARAMS,
    KLREL: _SPLIT_PARAMS, KLRELENT: _SPLIT_PARAMS,
    DATFEAT: {"link_features": "bool"},
    TXTLDA: {"topics": "int", "alpha": "number?", "beta": "number", "iterations": "int",
             "threshold": "number"},
    IMAGETAGS: {"prefix": "string", "max_in_flight": "count"},
    COMBINED: {m.value: "object" for m in Modality},
}
_BINNERS = {NBINS, PBINS, KLREL, KLRELENT, DATBIN}


class LofSpec(Frozen):
    __slots__ = ("k", "threshold")

    def __init__(self, k: int = 20, threshold: float = 1.5) -> None:
        self._fill(locals())
        if self.k < 1:
            raise ValueError("LOF needs k >= 1")
        if self.threshold <= 0:
            raise ValueError("LOF threshold must be positive")


class BinningSpec(Frozen):
    """How to discretize one predicate's (sub)population of values.

    A set *percent* derives the bin count as that fraction of the number of
    unique values; without it, *bins* is the count. *overlap* widens every bin
    by that fraction of its width on both sides, letting values fall into
    more than one bin. *hierarchy_depth* adds coarser levels that halve the
    bin count per level, children linked to parents. A set *lof* diverts
    outliers before boundaries are computed; KLREL and KLRELENT split a
    population while it holds at least *split_threshold* values.
    """

    __slots__ = (
        "bins", "percent", "overlap", "hierarchy_depth", "connect_adjacent", "scheme", "lof",
        "split_threshold",
    )

    def __init__(
        self, bins: int = 10, percent: float | None = None, overlap: float = 0.0,
        hierarchy_depth: int = 0, connect_adjacent: bool = True, scheme: str = "equal-width",
        lof: LofSpec | None = None, split_threshold: int = 300,
    ) -> None:
        self._fill(locals())
        if self.percent is None:
            if self.bins < 1:
                raise ValueError("bins must be >= 1")
        elif not 0.0 < self.percent <= 1.0:
            raise ValueError("percent must be in (0, 1]")
        if not 0.0 <= self.overlap < 1.0:
            raise ValueError("overlap must be in [0, 1)")
        if self.hierarchy_depth < 0:
            raise ValueError("hierarchy_depth must be >= 0")
        if self.scheme not in ("equal-width", "equal-frequency"):
            raise ValueError(f"unknown binning scheme: {self.scheme!r}")


def bin_count(occurrences: int, unique: int, spec: BinningSpec) -> int:
    """Target bin count: never more bins than unique values, never fewer than 1.

    Percent mode rounds half away from zero, so 10% of 200 unique values
    gives exactly 20 bins.
    """
    if unique < 1:
        raise ValueError("need at least one unique value")
    if spec.percent is None:
        return min(spec.bins, unique)
    return max(1, min(unique, int(math.floor(spec.percent * unique + 0.5))))


class LdaSpec(Frozen):
    """Topic model hyperparameters; alpha defaults to 50/T when omitted."""

    __slots__ = ("topics", "alpha", "beta", "iterations", "threshold")

    def __init__(
        self, topics: int = 20, alpha: float | None = None, beta: float = 0.01,
        iterations: int = 500, threshold: float = 0.10,
    ) -> None:
        self._fill(locals())
        if self.topics < 1:
            raise ValueError("topics must be >= 1")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if not 0.0 < self.threshold <= 1.0:
            raise ValueError("threshold must be in (0, 1]")
        if not self.beta > 0.0:
            raise ValueError("beta must be positive")
        if self.alpha is not None and not self.alpha > 0.0:
            raise ValueError("alpha must be positive")


class GroupPlan(Frozen):
    """One resolved (strategy, parameters) choice.

    *spec* is *params* read once, at construction: for binning strategies a
    BinningSpec, for TXTLDA an LdaSpec, for COMBINED the per-modality plans,
    which only StrategyConfig.plan_for resolves, otherwise the strategy
    function's keywords. *params* stays as given, for the report.
    """

    __slots__ = ("strategy", "params", "spec")
    __hash__ = None  # type: ignore[assignment]  # *params* is a dict
    _fields = ("strategy", "params")  # *spec* follows from them

    def __init__(self, strategy: str, params: dict[str, Any] | None = None) -> None:
        params = {} if params is None else params
        self._fill(locals())
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"unknown strategy name: {self.strategy!r}")
        what = f"parameters for {self.strategy}"
        params = _read_json(self.params, _PARAMS[self.strategy], what)
        try:
            spec = _read_spec(self.strategy, params)
        except ValueError as exc:  # a spec class's range check, or a COMBINED part's
            raise ConfigError(f"{what}: {exc}") from exc
        _set(self, "spec", spec)


def _read_spec(strategy: str, params: dict[str, Any]) -> Any:
    if strategy in _BINNERS:
        if params.get("lof") is not None:
            params["lof"] = LofSpec(**params["lof"])
        if strategy == PBINS:
            params.setdefault("percent", 0.10)
        return BinningSpec(**params)
    if strategy == TXTLDA:
        return LdaSpec(**params)
    if strategy == IMAGETAGS and _IRI_BAD.search(params.get("prefix", "")):
        raise ConfigError(f"prefix holds a character no IRI may hold: {params['prefix']!r}")
    if strategy == COMBINED:
        return compose_combined(params)
    return params


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


def leaf_values(row: PredicateReport) -> list[int] | None:
    """The value count of each leaf of the split a KLREL or KLRELENT row ran,
    read from its ``detail.split``; None for every other row. A split that
    is not a list of node objects, each with an integer "values", raises
    ValueError."""
    if row.fell_back_to or row.strategy not in (KLREL, KLRELENT):
        return None
    split = row.detail.get("split")
    if type(split) is not list or any(
        type(node) is not dict or type(node.get("values")) is not int for node in split
    ):
        raise ValueError(f"detail.split must be a list of node objects, not {_shown(split)}")
    return [node["values"] for node in split if "children" not in node]


def _binning_allowance(spec: BinningSpec, sizes: list[int]) -> int:
    """Bin entities a binning run may mint: each population's bins at every
    level up to the first one-bin level, and two outlier entities per
    population with LOF."""
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
    return allowance


def derive_bounds(row: PredicateReport) -> dict[str, int | None]:
    """The fields of *row* that follow from its other fields: *parsed*, and
    the growth bounds *entity_allowance*, *statement_delta_exact* and
    *statement_delta_max*. A row that fell back gets its fallback's bounds.

    Params that GroupPlan refuses raise ConfigError; a split leaf_values
    cannot read raises ValueError.
    """
    spec = GroupPlan(row.strategy, row.params).spec  # read even when the row fell back
    strategy = row.fell_back_to or row.strategy
    S, d, fell = row.statements, row.distinct_values, row.fallback_statements
    parsed = 0 if row.fell_back_to else S - fell
    exact: int | None = S
    cap = None
    if strategy == EXCLUDE:
        allowance = exact = 0
    elif strategy == ONEENTITY:
        allowance = 1
    elif strategy in (TRANSFORM, IMAGETAGS):  # an image links to its top label only
        allowance = d
    elif strategy == DATFEAT:  # 7 weekdays, 31 days, 12 months and 4 quarters, a year per value
        allowance, exact = min(5 * d, 54 + d), 5 * parsed + fell
    elif strategy == TXTLDA:
        allowance, exact, cap = spec.topics, None, spec.topics * S
    else:
        sizes = leaf_values(row) if strategy in (KLREL, KLRELENT) else [min(d, parsed)]
        allowance = _binning_allowance(spec, sizes)
        if spec.overlap > 0.0 or spec.hierarchy_depth > 0:
            exact = None
    return {
        "parsed": parsed,
        # A statement that fell back links to the AnyValue entity.
        "entity_allowance": allowance + (1 if fell else 0),
        "statement_delta_exact": exact,
        "statement_delta_max": cap,
    }
