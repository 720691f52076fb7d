"""The augmentation report: its layout, its bound check, its check of an output.

`verify` needs only this and `plans` of the pipeline, so it lives apart, as do
the names a report row uses (modalities and strategies), the JSON reader the
config shares and the two errors the command line maps to exit codes. `plans`
is imported only inside the two functions that derive a row's bounds.
"""

from __future__ import annotations

import enum
import json
import sys
from typing import TYPE_CHECKING, Any, Callable, Iterable

if TYPE_CHECKING:
    from .ntriples import Row


class Modality(enum.Enum):
    NUMERIC = "numeric"
    TEMPORAL = "temporal"
    TEXT = "text"
    IMAGE = "image"
    OTHER = "other"


MODALITY_NAMES = {m.value: m for m in Modality}

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
STRATEGIES = {EXCLUDE, TRANSFORM, ONEENTITY, NBINS, PBINS, KLREL, KLRELENT, DATBIN, DATFEAT,
              TXTLDA, IMAGETAGS, COMBINED}
FALLBACKS = (ONEENTITY, EXCLUDE)


class ConfigError(ValueError):
    """The configuration is unusable; nothing has been transformed."""


class StrategyError(RuntimeError):
    """A strategy failed on a group and no fallback is configured."""


def _is_number(value: Any) -> bool:
    """Whether *value* is a JSON number a float holds: not a bool, NaN, an
    infinity or an integer past the float range."""
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


def _shown(value: Any) -> str:
    """``repr(value)`` for a message, cut to 60 characters with "..."."""
    text = repr(value)
    return text if len(text) <= 60 else text[:57] + "..."


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
    "number": ("a number", _is_number),
    "bool": ("true or false", lambda v: type(v) is bool),
    "string": ("a string", lambda v: type(v) is str),
    "object": ("an object", lambda v: type(v) is dict),
    "list": ("a list of strings", lambda v: type(v) is list and all(type(s) is str for s in v)),
}


def _load_json(path: str, what: str, error: type[Exception]) -> Any:
    """The JSON value in the file at *path*, which messages call *what*.

    An unreadable file, bytes that are not UTF-8 JSON, or nesting too deep
    for the decoder raises *error*.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc
    except ValueError as exc:  # a JSONDecodeError or a UnicodeDecodeError
        raise error(f"{what} {path} is not valid JSON: {exc}") from exc
    except RecursionError:
        raise error(f"{what} {path} is nested too deeply") from None


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
        raise ConfigError(f"{what}: expected a JSON object, not {_shown(raw)}")
    unknown = set(raw) - set(schema)
    if unknown:
        raise ConfigError(f"unknown {what}: {_shown(sorted(unknown))}")
    missing = [key for key in schema if key not in raw] if required else []
    if missing:
        raise ConfigError(f"{what}: missing {missing}")
    out: dict[str, Any] = {}
    for key, value in raw.items():
        kind = schema[key]
        if isinstance(kind, list):
            if type(value) is not list:
                raise ConfigError(f"{what}: {key} must be a list of objects, not {_shown(value)}")
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
            raise ConfigError(f"{what}: {key} must be {described}, not {_shown(value)}")
        out[key] = float(value) if kind == "number" and value is not None else value
    return out


class PredicateReport:
    """One report row: what happened to one literal group.

    Its fields are the keys of _REPORT_ROW, each given by keyword; the lists
    and objects default to empty, fell_back_to to None and verdict to
    "unchecked". An unknown or a missing key raises TypeError.
    """

    __slots__ = tuple(_REPORT_ROW)

    def __init__(self, **fields: Any) -> None:
        fields = {"exceptions": [], "warnings": [], "fell_back_to": None, "params": {},
                  "detail": {}, "verdict": "unchecked", **fields}
        if fields.keys() != _REPORT_ROW.keys():
            unknown, missing = fields.keys() - _REPORT_ROW, _REPORT_ROW.keys() - fields
            raise TypeError(f"report row: unknown {sorted(unknown)}, missing {sorted(missing)}")
        for key, value in fields.items():
            setattr(self, key, value)

    def to_dict(self) -> dict[str, Any]:
        return {key: getattr(self, key) for key in _REPORT_ROW}


class AugmentationReport:
    """Run summary: per-predicate rows plus global accounting.

    Row sums give the totals; the *_in_output fields are post-merge counts
    (structural triples and shared entities are deduplicated across rows).
    """

    def __init__(
        self, namespace: str, seed: int, rows: list[PredicateReport] | None = None,
        relational_preserved: int = 0, structural_total: int = 0,
        minted_entities_in_output: int = 0, minted_relations_in_output: int = 0,
        duplicates_removed: int = 0, warnings: list[str] | None = None,
    ) -> None:
        self.namespace = namespace
        self.seed = seed
        self.rows = [] if rows is None else rows
        self.relational_preserved = relational_preserved
        self.structural_total = structural_total
        self.minted_entities_in_output = minted_entities_in_output
        self.minted_relations_in_output = minted_relations_in_output
        self.duplicates_removed = duplicates_removed
        self.warnings = [] if warnings is None else warnings

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
        """A report from its JSON form; one that breaks the layout raises ValueError.

        Each row must name a strategy that can run, never COMBINED, which
        StrategyConfig.plan_for resolves, and the fallback that ran, if any;
        its params and split must be ones plans.derive_bounds can read.
        """
        from .plans import derive_bounds  # the plan contract, which profile never loads

        raw = _read_json(raw, _REPORT, "report keys", required=True)
        names = {"modality": MODALITY_NAMES, "strategy": STRATEGIES - {COMBINED},
                 "fell_back_to": (*FALLBACKS, None)}
        totals = {key: raw.pop(key) for key in _REPORT_TOTALS}
        rows = [PredicateReport(**row) for row in raw.pop("predicates")]
        for i, row in enumerate(rows):
            try:
                for key, known in names.items():
                    if getattr(row, key) not in known:
                        raise ValueError(f"unknown {key} {_shown(getattr(row, key))}")
                derive_bounds(row)
            except (ValueError, OverflowError) as exc:  # a count past the float range
                raise ValueError(f"predicates[{i}]: {exc}") from None
        report = cls(rows=rows, **raw)
        if any(getattr(report, key) != value for key, value in totals.items()):
            raise ValueError("report totals do not match the sum of its rows")
        return report

    @classmethod
    def from_file(cls, path: str) -> "AugmentationReport":
        return cls.from_dict(_load_json(path, "report", ValueError))


def verify_bounds(report: AugmentationReport) -> None:
    """Check every row against the growth bounds derived from it.

    plans.derive_bounds derives a row's parsed count and bounds from its
    other fields, and a declared value that differs fails the row, as do
    split leaves that do not hold the parsed values. The measured deltas are
    checked against the derived bounds. A row without an exact statement
    count must add at least one statement per statement. Only a row that
    ran EXCLUDE, as its strategy or its fallback, removes statements, and
    then all of them. Sets each row's verdict: pass, pass-with-exceptions
    (documented multi-edge or outlier-entity cases), or fail.
    """
    from .plans import derive_bounds, leaf_values

    for row in report.rows:
        problems: list[str] = []
        derived = derive_bounds(row)
        for key, value in derived.items():
            if getattr(row, key) != value:
                problems.append(f"{key} {getattr(row, key)} != derived {value}")
        parsed, allowance, exact, cap = derived.values()
        leaves = leaf_values(row)
        if leaves is not None and sum(leaves) != parsed:
            problems.append(f"split leaf values {sum(leaves)} != parsed {parsed}")
        if row.delta_entities > allowance:
            problems.append(f"delta_entities {row.delta_entities} exceeds allowance {allowance}")
        if exact is not None and row.delta_statements != exact:
            problems.append(f"delta_statements {row.delta_statements} != expected {exact}")
        if cap is not None and row.delta_statements > cap:
            problems.append(f"delta_statements {row.delta_statements} exceeds cap {cap}")
        if exact is None and row.delta_statements < row.statements:
            problems.append(
                f"delta_statements {row.delta_statements} below statement count {row.statements}"
            )
        removed = row.statements if (row.fell_back_to or row.strategy) == "EXCLUDE" else 0
        if row.removed != removed:
            problems.append(f"removed {row.removed} != expected {removed}")
        if problems:
            row.verdict = "fail: " + "; ".join(problems)
        elif row.exceptions:
            row.verdict = "pass-with-exceptions"
        else:
            row.verdict = "pass"


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
