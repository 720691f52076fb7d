"""Configuration resolution, strategy orchestration, and report accounting."""

from __future__ import annotations

import collections.abc
import copy
import json
import re

import pytest

from literal_forge import (
    IRI,
    AugmentationReport,
    ConfigError,
    Literal,
    StrategyConfig,
    StrategyError,
    Triple,
    apply,
    build_index,
    check_output,
    compose_combined,
    format_triple,
    parse_ntriples,
    verify_bounds,
)
from literal_forge.baselines import BinningSpec, LofSpec
from literal_forge.graph import Modality, ModalityRules
from literal_forge.images import RemoteTagProvider, TagMapProvider
from literal_forge.pipeline import (
    STRATEGIES,
    GroupPlan,
    check_namespace,
    derive_seed,
    shortcut_defaults,
)
from literal_forge.report import _REPORT_ROW, PredicateReport
from util import (
    EX,
    IMAGE_RULES,
    NEW,
    date_line,
    make_graph,
    numeric_line,
    rel_line,
    text_line,
    write_tag_map,
)


def mixed_lines() -> list[str]:
    lines = [rel_line("a", "knows", "b"), rel_line("b", "knows", "c")]
    for i in range(8):
        lines.append(numeric_line(f"n{i}", "height", f"{i}.5"))
    lines.append(date_line("d0", "founded", "2001-05-14"))
    lines.append(date_line("d1", "founded", "2003-11-02"))
    lines.append(text_line("t0", "abstract", "solar panels convert sunlight into power"))
    lines.append(text_line("t1", "abstract", "wind turbines convert motion into power"))
    return lines


def single_strategy_config(strategy: str, **kwargs) -> StrategyConfig:
    return StrategyConfig(
        defaults=shortcut_defaults(strategy, kwargs.pop("fallback", "ONEENTITY")),
        **kwargs,
    )


# --- plan and config validation ---------------------------------------------


class TestGroupPlan:
    def test_unknown_strategy(self):
        with pytest.raises(ConfigError, match="unknown strategy"):
            GroupPlan("MAGIC")

    def test_unknown_parameter(self):
        with pytest.raises(ConfigError, match="unknown parameters for NBINS"):
            GroupPlan("NBINS", {"bins": 4, "bucket": 3})

    def test_transform_accepts_no_parameters(self):
        with pytest.raises(ConfigError, match="unknown parameters"):
            GroupPlan("TRANSFORM", {"bins": 4})

    @pytest.mark.parametrize("lof", [3, "on", {"k": 5, "cutoff": 2.0}])
    def test_bad_lof_settings(self, lof):
        with pytest.raises(ConfigError, match="bad lof settings"):
            GroupPlan("NBINS", {"lof": lof})

    def test_valid_lof_settings(self):
        plan = GroupPlan("KLREL", {"lof": {"k": 5, "threshold": 2.0}})
        assert plan.params["lof"] == {"k": 5, "threshold": 2.0}

    @pytest.mark.parametrize("record", [GroupPlan("NBINS"), ModalityRules()])
    def test_records_holding_a_dict_say_they_are_unhashable(self, record):
        assert not isinstance(record, collections.abc.Hashable)
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)
        assert record == copy.copy(record)  # still compared by value

    @pytest.mark.parametrize(
        "strategy,params,spec",
        [
            ("NBINS", {}, BinningSpec()),
            ("NBINS", {"bins": 4}, BinningSpec(bins=4)),
            ("PBINS", {}, BinningSpec(percent=0.10)),  # PBINS alone sizes by share when not told
            ("PBINS", {"percent": 0.25}, BinningSpec(percent=0.25)),
            # a percent leaves bins unread
            ("NBINS", {"percent": 0.25, "bins": 0}, BinningSpec(bins=0, percent=0.25)),
            ("DATBIN", {"percent": 0.5}, BinningSpec(percent=0.5)),
            ("NBINS", {"lof": {"k": 5, "threshold": 2.0}}, BinningSpec(lof=LofSpec(5, 2.0))),
            ("NBINS", {"lof": None}, BinningSpec(lof=None)),
            ("KLREL", {"split_threshold": 50}, BinningSpec(split_threshold=50)),
        ],
    )
    def test_binning_spec_reads_percent(self, strategy, params, spec):
        plan = GroupPlan(strategy, dict(params))
        assert plan.spec == spec
        assert plan.params == params  # the report shows the parameters as given

    def test_combined_numeric_default_filters_outliers(self):
        assert compose_combined()[Modality.NUMERIC].spec.lof == LofSpec()


class TestComposeCombined:
    def test_default_shape(self):
        plans = compose_combined()
        assert plans[Modality.NUMERIC].strategy == "KLREL"
        assert plans[Modality.NUMERIC].params == {"lof": {}}
        assert plans[Modality.TEMPORAL].strategy == "DATBIN"
        assert plans[Modality.TEXT].strategy == "TXTLDA"
        assert plans[Modality.IMAGE].strategy == "IMAGETAGS"
        assert plans[Modality.OTHER].strategy == "TRANSFORM"

    def test_per_modality_parameters_nest(self):
        plans = compose_combined({"numeric": {"bins": 4}, "text": {"topics": 3}})
        assert plans[Modality.NUMERIC].params == {"bins": 4, "lof": {}}
        assert plans[Modality.TEXT].params == {"topics": 3}
        assert plans[Modality.TEMPORAL].params == {}

    def test_explicit_lof_not_clobbered(self):
        plans = compose_combined({"numeric": {"lof": {"k": 7}}})
        assert plans[Modality.NUMERIC].params["lof"] == {"k": 7}


class TestStrategyConfig:
    def test_defaults_are_combined(self):
        config = StrategyConfig()
        assert config.defaults[Modality.NUMERIC].strategy == "KLREL"
        assert config.fallback == "ONEENTITY"

    @pytest.mark.parametrize("namespace", ["", "new:", "relative/path", "ftp://x/"])
    def test_bad_namespace(self, namespace):
        with pytest.raises(ConfigError, match="namespace"):
            StrategyConfig(namespace=namespace)

    @pytest.mark.parametrize("namespace", ["http://x/", "https://x/new/", "urn:new:"])
    def test_good_namespace(self, namespace):
        assert StrategyConfig(namespace=namespace).namespace == namespace

    def test_bad_fallback(self):
        with pytest.raises(ConfigError, match="fallback"):
            StrategyConfig(fallback="TRANSFORM")

    def test_default_invalid_for_modality(self):
        defaults = compose_combined()
        defaults[Modality.NUMERIC] = GroupPlan("TXTLDA")
        with pytest.raises(ConfigError, match="cannot handle numeric"):
            StrategyConfig(defaults=defaults)

    def test_from_dict_unknown_keys(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            StrategyConfig.from_dict({"namespase": "http://x/"})

    def test_from_dict_unknown_modality(self):
        with pytest.raises(ConfigError, match="unknown modality"):
            StrategyConfig.from_dict({"defaults": {"numbers": {"strategy": "NBINS"}}})

    def test_from_dict_missing_strategy(self):
        with pytest.raises(ConfigError, match="missing strategy"):
            StrategyConfig.from_dict({"defaults": {"numeric": {"params": {}}}})

    def test_from_dict_lowercase_strategy(self):
        config = StrategyConfig.from_dict({"defaults": {"numeric": {"strategy": "nbins"}}})
        assert config.defaults[Modality.NUMERIC].strategy == "NBINS"

    def test_from_dict_combined_default_resolves(self):
        config = StrategyConfig.from_dict(
            {
                "defaults": {
                    "numeric": {"strategy": "COMBINED", "params": {"numeric": {"bins": 4}}}
                }
            }
        )
        plan = config.plan_for(EX + "height", Modality.NUMERIC)
        assert plan.strategy == "KLREL"
        assert plan.params["bins"] == 4

    def test_from_dict_bad_workers(self):
        with pytest.raises(ConfigError, match=r"unknown config keys: \['workers'\]"):
            StrategyConfig.from_dict({"workers": 1})

    def test_from_dict_bad_seed(self):
        with pytest.raises(ConfigError, match="seed"):
            StrategyConfig.from_dict({"seed": "zero"})

    def test_from_dict_provider_must_be_object(self):
        with pytest.raises(ConfigError, match="image_provider"):
            StrategyConfig.from_dict({"image_provider": "tag-map"})

    def test_from_dict_null_fallback(self):
        assert StrategyConfig.from_dict({"fallback": None}).fallback is None

    def test_from_dict_predicate_modalities(self):
        config = StrategyConfig.from_dict(
            {"predicate_modalities": {EX + "code": "text"}}
        )
        assert config.rules.predicate_modalities[EX + "code"] is Modality.TEXT
        with pytest.raises(ConfigError, match="unknown modality for predicate"):
            StrategyConfig.from_dict({"predicate_modalities": {EX + "code": "prose"}})

    def test_from_file_missing(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            StrategyConfig.from_file(str(tmp_path / "absent.json"))

    def test_from_file_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError, match="not valid JSON"):
            StrategyConfig.from_file(str(path))

    def test_from_file_not_utf8(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"namespace": "http://caf\xe9.example/"}')
        with pytest.raises(ConfigError, match="not valid JSON"):
            StrategyConfig.from_file(str(path))

    def test_from_file_nested_too_deeply(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text('{"seed": ' + "[" * 100_000 + "]" * 100_000 + "}", encoding="utf-8")
        with pytest.raises(ConfigError, match="nested too deeply"):
            StrategyConfig.from_file(str(path))

    def test_from_file_round_trip(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(
            json.dumps(
                {
                    "namespace": "http://mint.example/",
                    "seed": 7,
                    "overrides": {EX + "height": {"strategy": "NBINS", "params": {"bins": 3}}},
                }
            ),
            encoding="utf-8",
        )
        config = StrategyConfig.from_file(str(path))
        assert config.namespace == "http://mint.example/"
        assert config.seed == 7
        assert config.overrides[EX + "height"].params == {"bins": 3}


class TestPlanFor:
    def test_override_beats_default(self):
        config = StrategyConfig(overrides={EX + "height": GroupPlan("NBINS", {"bins": 3})})
        assert config.plan_for(EX + "height", Modality.NUMERIC).strategy == "NBINS"
        assert config.plan_for(EX + "width", Modality.NUMERIC).strategy == "KLREL"

    def test_combined_override_resolves_per_modality(self):
        config = StrategyConfig(overrides={EX + "p": GroupPlan("COMBINED")})
        assert config.plan_for(EX + "p", Modality.TEMPORAL).strategy == "DATBIN"
        assert config.plan_for(EX + "p", Modality.TEXT).strategy == "TXTLDA"

    def test_invalid_for_modality(self):
        config = StrategyConfig(overrides={EX + "height": GroupPlan("TXTLDA")})
        with pytest.raises(ConfigError, match="cannot handle numeric"):
            config.plan_for(EX + "height", Modality.NUMERIC)


class TestMakeProvider:
    def test_none_without_settings(self):
        assert StrategyConfig().make_provider() is None

    def test_tag_map(self, tmp_path):
        path = write_tag_map(tmp_path / "tags.json", {EX + "img/a.jpg": "building"})
        provider = StrategyConfig(
            image_provider={"kind": "tag-map", "path": path}
        ).make_provider()
        assert isinstance(provider, TagMapProvider)

    def test_tag_map_needs_path(self):
        with pytest.raises(ConfigError, match="path"):
            StrategyConfig(image_provider={"kind": "tag-map"}).make_provider()

    def test_remote(self):
        provider = StrategyConfig(
            image_provider={"kind": "remote", "endpoint": "http://127.0.0.1:9/tag", "retries": 0}
        ).make_provider()
        assert isinstance(provider, RemoteTagProvider)

    def test_remote_needs_endpoint(self):
        with pytest.raises(ConfigError, match="endpoint"):
            StrategyConfig(image_provider={"kind": "remote"}).make_provider()

    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="unknown image provider"):
            StrategyConfig(image_provider={"kind": "oracle"}).make_provider()


class TestDeriveSeed:
    def test_stable(self):
        assert derive_seed(3, EX + "height") == derive_seed(3, EX + "height")

    def test_varies_by_predicate_and_seed(self):
        seeds = {
            derive_seed(3, EX + "height"),
            derive_seed(3, EX + "width"),
            derive_seed(4, EX + "height"),
        }
        assert len(seeds) == 3

    def test_fits_in_63_bits(self):
        for pred in ("a", "b", "c"):
            value = derive_seed(0, pred)
            assert 0 <= value < 2**63


class TestShortcutDefaults:
    def test_universal_strategy_everywhere(self):
        plans = shortcut_defaults("TRANSFORM", "ONEENTITY")
        assert all(plan.strategy == "TRANSFORM" for plan in plans.values())

    def test_specialist_degrades_others_to_fallback(self):
        plans = shortcut_defaults("NBINS", "ONEENTITY")
        assert plans[Modality.NUMERIC].strategy == "NBINS"
        assert plans[Modality.TEMPORAL].strategy == "ONEENTITY"
        assert plans[Modality.TEXT].strategy == "ONEENTITY"
        assert plans[Modality.IMAGE].strategy == "ONEENTITY"
        assert plans[Modality.OTHER].strategy == "ONEENTITY"

    def test_no_fallback_degrades_to_exclude(self):
        plans = shortcut_defaults("TXTLDA", None)
        assert plans[Modality.TEXT].strategy == "TXTLDA"
        assert plans[Modality.NUMERIC].strategy == "EXCLUDE"

    def test_combined_expands(self):
        config = StrategyConfig(defaults=shortcut_defaults("COMBINED", None))
        assert {m: config.plan_for(EX + "p", m) for m in Modality} == compose_combined()

    def test_lowercase_accepted(self):
        assert shortcut_defaults("datfeat", None)[Modality.TEMPORAL].strategy == "DATFEAT"

    def test_unknown_rejected(self):
        with pytest.raises(ConfigError, match="unknown strategy"):
            shortcut_defaults("SHRED", None)


# --- namespace collision -----------------------------------------------------


class TestCheckNamespace:
    def test_clean_input_passes(self):
        graph = make_graph(mixed_lines())
        check_namespace(graph, NEW)

    def test_entity_under_namespace_rejected(self):
        graph = make_graph([f"<{NEW}heightBin00> <{EX}p> <{EX}o> ."])
        with pytest.raises(ConfigError, match="minting namespace"):
            check_namespace(graph, NEW)

    def test_relation_under_namespace_rejected(self):
        graph = make_graph([f"<{EX}s> <{NEW}nextBin> <{EX}o> ."])
        with pytest.raises(ConfigError, match="minting namespace"):
            check_namespace(graph, NEW)

    def test_apply_refuses_collision(self):
        graph = make_graph([f"<{NEW}x> <{EX}p> <{EX}o> .", numeric_line("s", "h", 1)])
        with pytest.raises(ConfigError, match="minting namespace"):
            apply(graph, StrategyConfig(namespace=NEW))


# --- end-to-end strategy runs ------------------------------------------------


class TestApplyBaselines:
    def test_exclude_everything_keeps_only_relational(self):
        graph = make_graph(mixed_lines())
        result = apply(graph, single_strategy_config("EXCLUDE", namespace=NEW))
        assert result.triples == list(graph.relational_triples())
        report = result.report
        assert report.relational_preserved == 2
        assert report.delta_statements_total == 0
        assert report.delta_entities_total == 0
        assert report.removed_total == 12
        for row in report.rows:
            assert row.strategy == "EXCLUDE"
            assert row.removed == row.statements
            assert row.verdict == "pass"
        assert check_output(result.triples, report) == []

    def test_transform_preserves_statement_counts(self):
        graph = make_graph(mixed_lines())
        result = apply(graph, single_strategy_config("TRANSFORM", namespace=NEW))
        report = result.report
        assert not any(isinstance(t.object, Literal) for t in result.triples)
        assert len(result.triples) == 2 + 12
        for row in report.rows:
            assert row.delta_statements == row.statements
            assert row.delta_entities == row.distinct_values
            assert row.verdict == "pass"
        assert check_output(result.triples, report) == []

    def test_oneentity_single_marker_per_group(self):
        graph = make_graph(mixed_lines())
        result = apply(graph, single_strategy_config("ONEENTITY", namespace=NEW))
        for row in result.report.rows:
            assert row.delta_entities == 1
        minted = {
            t.object.value
            for t in result.triples
            if isinstance(t.object, IRI) and t.object.value.startswith(NEW)
        }
        assert minted == {NEW + "heightAnyValue", NEW + "foundedAnyValue", NEW + "abstractAnyValue"}
        assert check_output(result.triples, result.report) == []

    def test_relational_triples_come_first_in_input_order(self):
        graph = make_graph(mixed_lines())
        result = apply(graph, single_strategy_config("TRANSFORM", namespace=NEW))
        assert result.triples[:2] == list(graph.relational_triples())

    def test_relational_triples_pass_through_as_parsed(self):
        triples, _ = parse_ntriples("\n".join(mixed_lines()) + "\n")
        parsed = [t for t in triples if not isinstance(t.object, Literal)]
        result = apply(build_index(triples), single_strategy_config("TRANSFORM", namespace=NEW))
        assert len(parsed) == 2
        assert result.triples[: len(parsed)] == parsed
        assert len(result.triples) == len(parsed) + len(result.minted)


class TestApplySpecialists:
    def test_override_routes_one_predicate(self):
        graph = make_graph(mixed_lines())
        config = StrategyConfig(
            namespace=NEW,
            defaults=shortcut_defaults("ONEENTITY", None),
            overrides={EX + "height": GroupPlan("NBINS", {"bins": 2})},
        )
        result = apply(graph, config)
        by_pred = {row.predicate: row for row in result.report.rows}
        assert by_pred[EX + "height"].strategy == "NBINS"
        assert by_pred[EX + "abstract"].strategy == "ONEENTITY"
        height_objects = {
            t.object.value for t in result.triples if t.predicate.value == EX + "height"
        }
        assert height_objects == {NEW + "heightBin00", NEW + "heightBin01"}
        assert check_output(result.triples, result.report) == []

    def test_combined_defaults_run_every_modality(self):
        lines = mixed_lines() + [rel_line("a", "depiction", "img/a.jpg")]
        graph = make_graph(lines, IMAGE_RULES)
        config = StrategyConfig(namespace=NEW, seed=1)
        config.defaults[Modality.TEXT] = GroupPlan("TXTLDA", {"topics": 2, "iterations": 40})
        config.image_provider = None  # falls back on the image group
        result = apply(graph, config)
        by_strategy = {row.strategy for row in result.report.rows}
        assert by_strategy == {"KLREL", "DATBIN", "TXTLDA", "IMAGETAGS"}
        image_row = next(r for r in result.report.rows if r.strategy == "IMAGETAGS")
        assert image_row.fell_back_to == "ONEENTITY"
        assert check_output(result.triples, result.report) == []

    @pytest.mark.parametrize("connect_adjacent, bin_entities", [(True, 6), (False, 2)])
    def test_bin_entities_counts_the_bins_in_the_output(self, connect_adjacent, bin_entities):
        # Bins 1-4 hold no value: only the nextBin chain puts them in the output.
        values = [0.0, 1.0, 2.0, 98.0, 99.0, 100.0]
        graph = make_graph([numeric_line(f"s{i}", "height", v) for i, v in enumerate(values)])
        params = {"bins": 6, "connect_adjacent": connect_adjacent, "hierarchy_depth": 0}
        plan = GroupPlan("NBINS", params)
        config = StrategyConfig(namespace=NEW, defaults={Modality.NUMERIC: plan})
        result = apply(graph, config)
        (row,) = result.report.rows
        assert row.delta_entities == 2
        assert row.detail["bin_entities"] == bin_entities
        minted = {t.object.value for t in result.triples if t.object.value.startswith(NEW)}
        minted |= {t.subject.value for t in result.triples if t.subject.value.startswith(NEW)}
        assert len(minted) == bin_entities == result.report.minted_entities_in_output

    def test_datfeat_structural_shared_across_groups(self):
        lines = [
            date_line("s0", "founded", "2001-05-14"),
            date_line("s1", "opened", "2001-05-20"),
        ]
        graph = make_graph(lines)
        config = StrategyConfig(namespace=NEW, defaults=shortcut_defaults("DATFEAT", None))
        result = apply(graph, config)
        report = result.report
        # month5 inQuarter quarter2 is minted by both groups but merged once.
        structural = [
            t
            for t in result.triples
            if isinstance(t.subject, IRI) and t.subject.value.startswith(NEW)
        ]
        assert len(structural) == report.structural_total
        assert sum(r.structural for r in report.rows) == report.structural_total
        pairs = {(t.subject.value, t.object.value) for t in structural}
        assert (NEW + "month5", NEW + "quarter2") in pairs
        assert len(pairs) == len(structural)
        assert check_output(result.triples, result.report) == []

    def test_txtlda_weight_sidecar(self):
        graph = make_graph(mixed_lines())
        config = StrategyConfig(
            namespace=NEW,
            seed=5,
            defaults=shortcut_defaults("TXTLDA", "EXCLUDE"),
            emit_weights=True,
        )
        config.defaults[Modality.TEXT] = GroupPlan(
            "TXTLDA", {"topics": 2, "iterations": 40, "threshold": 0.05}
        )
        result = apply(graph, config)
        assert result.weighted, "topic links should carry membership weights"
        triples = set(result.triples)
        for triple, weight in result.weighted:
            assert 0.0 < weight <= 1.0
            assert triple in triples

    def test_image_tags_with_tag_map(self, tmp_path):
        lines = [
            rel_line("a", "knows", "b"),
            rel_line("a", "depiction", "img/a.jpg"),
            rel_line("b", "depiction", "img/b.jpg"),
        ]
        graph = make_graph(lines, IMAGE_RULES)
        path = write_tag_map(
            tmp_path / "tags.json",
            {EX + "img/a.jpg": "building", EX + "img/b.jpg": "bridge"},
        )
        config = StrategyConfig(
            namespace=NEW,
            defaults=shortcut_defaults("IMAGETAGS", "EXCLUDE"),
            image_provider={"kind": "tag-map", "path": path},
            emit_weights=True,
        )
        result = apply(graph, config)
        minted = {
            t.object.value
            for t in result.triples
            if isinstance(t.object, IRI) and t.object.value.startswith(NEW)
        }
        assert minted == {NEW + "VGG_building", NEW + "VGG_bridge"}
        assert [w for _, w in result.weighted] == [1.0, 1.0]
        assert check_output(result.triples, result.report) == []


def _local(term) -> str:
    return term.value.replace(NEW, "new:").replace(EX, "")


def test_anyvalue_fallbacks_keep_order_warnings_and_weights(tmp_path):
    """Every strategy's unusable values, through one apply run."""
    tags = tmp_path / "tags.json"
    tags.write_text(
        json.dumps(
            {
                EX + "img/0.jpg": [{"name": "tower", "score": 0.75}],
                EX + "img/2.jpg": [{"name": "blank", "score": 0.0}],
            }
        ),
        encoding="utf-8",
    )
    lines = [
        rel_line("a", "knows", "b"),
        numeric_line("n0", "size", 1),
        numeric_line("n1", "size", "oops"),
        numeric_line("n2", "size", 3),
        numeric_line("k0", "mass", 10),
        numeric_line("k1", "mass", "1_0"),
        numeric_line("k2", "mass", 30),
        date_line("d0", "opened", "2001-02-30"),
        date_line("d1", "opened", "2001-05-14"),
        date_line("e0", "closed", "never"),
        date_line("e1", "closed", "1999-12-31"),
        text_line("t0", "abstract", "solar power"),
        text_line("t1", "abstract", "!?"),
        text_line("t2", "abstract", "wind power"),
        text_line("m0", "motto", "?"),
        text_line("m1", "motto", "!"),
        rel_line("p0", "depiction", "img/0.jpg"),
        rel_line("p1", "depiction", "img/1.jpg"),
        rel_line("p2", "depiction", "img/2.jpg"),
    ]
    lda = GroupPlan("TXTLDA", {"topics": 1, "iterations": 5})  # one topic: weight 1.0
    config = StrategyConfig(
        namespace=NEW,
        emit_weights=True,
        image_provider={"kind": "tag-map", "path": str(tags)},
        overrides={
            EX + "size": GroupPlan("NBINS", {"bins": 2}),
            EX + "mass": GroupPlan("KLREL", {"bins": 2}),
            EX + "opened": GroupPlan("DATBIN", {"bins": 2}),
            EX + "closed": GroupPlan("DATFEAT", {"link_features": False}),
            EX + "abstract": lda,
            EX + "motto": lda,
            EX + "depiction": GroupPlan("IMAGETAGS"),
        },
    )
    result = apply(make_graph(lines, IMAGE_RULES), config)
    # Binning and calendar fallbacks follow the group's other links;
    # text and image fallbacks keep their statement's place.
    output = [tuple(map(_local, (t.subject, t.predicate, t.object))) for t in result.triples]
    assert output == [
        ("a", "knows", "b"),
        ("n0", "size", "new:sizeBin00"),
        ("n2", "size", "new:sizeBin01"),
        ("n1", "size", "new:sizeAnyValue"),
        ("k0", "mass", "new:massBin00"),
        ("k2", "mass", "new:massBin01"),
        ("k1", "mass", "new:massAnyValue"),
        ("d1", "opened", "new:openedBin00"),
        ("d0", "opened", "new:openedAnyValue"),
        ("e1", "closed", "new:friday"),
        ("e1", "closed", "new:day31"),
        ("e1", "closed", "new:month12"),
        ("e1", "closed", "new:quarter4"),
        ("e1", "closed", "new:year1999"),
        ("e0", "closed", "new:closedAnyValue"),
        ("t0", "abstract", "new:abstractTopic00"),
        ("t1", "abstract", "new:abstractAnyValue"),
        ("t2", "abstract", "new:abstractTopic00"),
        ("m0", "motto", "new:mottoAnyValue"),
        ("m1", "motto", "new:mottoAnyValue"),
        ("p0", "depiction", "new:VGG_tower"),
        ("p1", "depiction", "new:depictionAnyValue"),
        ("p2", "depiction", "new:VGG_blank"),
        ("new:sizeBin00", "new:nextBin", "new:sizeBin01"),
        ("new:massBin00", "new:nextBin", "new:massBin01"),
    ]
    assert result.report.warnings == [
        EX + "size: 1 unparseable numeric statements got AnyValue links",
        EX + "mass: 1 unparseable numeric statements got AnyValue links",
        EX + "opened: 1 unparseable date statements got AnyValue links",
        EX + "closed: 1 unparseable date statements got AnyValue links",
        EX + "abstract: 1 statements empty after tokenization got AnyValue links",
        EX + "motto: no tokenizable text, all statements got AnyValue links",
        EX + "depiction: 1 image statements without tags got AnyValue links",
    ]
    assert [row.fallback_statements for row in result.report.rows] == [1, 1, 1, 1, 1, 2, 1]
    assert {row.verdict for row in result.report.rows} == {"pass"}
    # Only scored links carry weights; the label scored 0.0 is linked
    # above but has no weight.
    assert [(_local(t.subject), _local(t.object), w) for t, w in result.weighted] == [
        ("t0", "new:abstractTopic00", 1.0),
        ("t2", "new:abstractTopic00", 1.0),
        ("p0", "new:VGG_tower", 0.75),
    ]
    assert check_output(result.triples, result.report) == []


@pytest.mark.parametrize(
    "key, modality, strategy",
    [
        ("emit_weights", None, None),  # its effect, the sidecar, is the CLI's: see test_cli
        ("connect_adjacent", "numeric", "NBINS"),
        ("link_features", "temporal", "DATFEAT"),
    ],
)
def test_config_booleans_must_be_json_booleans(key, modality, strategy):
    def run(value):
        if modality is None:
            raw = {key: value}
        else:
            raw = {"defaults": {modality: {"strategy": strategy, "params": {key: value}}}}
        return apply(make_graph(mixed_lines()), StrategyConfig.from_dict(raw))

    for bad in ("false", 0, None):
        with pytest.raises(ConfigError, match=key):
            run(bad)
    if modality is None:
        assert StrategyConfig.from_dict({key: True}).emit_weights is True
        assert StrategyConfig.from_dict({key: False}).emit_weights is False
        return
    on, off = run(True), run(False)
    assert (on.triples, on.weighted) != (off.triples, off.weighted)


class TestFallback:
    def test_failed_strategy_degrades_to_oneentity(self, caplog):
        lines = [rel_line("a", "depiction", "img/a.jpg")]
        graph = make_graph(lines, IMAGE_RULES)
        config = StrategyConfig(namespace=NEW)  # IMAGETAGS default, no provider
        with caplog.at_level("WARNING", logger="literal_forge.pipeline"):
            result = apply(graph, config)
        row = result.report.rows[0]
        assert row.fell_back_to == "ONEENTITY"
        assert row.strategy == "IMAGETAGS"
        assert row.delta_entities == 1
        assert row.parsed == 0
        assert row.entity_allowance == 1
        assert row.statement_delta_exact == 1
        assert row.statement_delta_max is None
        assert row.removed == 0
        assert row.verdict == "pass"
        assert row.warnings[-1].startswith(EX + "depiction: strategy failed (")
        assert any("IMAGETAGS failed" in r.message for r in caplog.records)
        objects = [t.object.value for t in result.triples]
        assert objects == [NEW + "depictionAnyValue"]
        assert check_output(result.triples, result.report) == []

    def test_exclude_fallback_removes_group(self):
        lines = [rel_line("a", "depiction", "img/a.jpg")]
        graph = make_graph(lines, IMAGE_RULES)
        config = StrategyConfig(namespace=NEW, fallback="EXCLUDE")
        result = apply(graph, config)
        row = result.report.rows[0]
        assert row.fell_back_to == "EXCLUDE"
        assert row.strategy == "IMAGETAGS"
        assert row.parsed == 0
        assert row.entity_allowance == 0
        assert row.statement_delta_exact == 0
        assert row.statement_delta_max is None
        assert row.removed == 1
        assert row.verdict == "pass"
        assert row.warnings[-1].startswith(EX + "depiction: strategy failed (")
        assert result.triples == []
        assert check_output(result.triples, result.report) == []

    def test_no_fallback_raises_strategy_error(self):
        lines = [rel_line("a", "depiction", "img/a.jpg")]
        graph = make_graph(lines, IMAGE_RULES)
        config = StrategyConfig(namespace=NEW, fallback=None)
        with pytest.raises(StrategyError, match="IMAGETAGS failed on " + EX + "depiction"):
            apply(graph, config)

    def test_config_errors_never_degrade(self):
        graph = make_graph([numeric_line("s", "height", 1)])
        with pytest.raises(ConfigError):
            config = StrategyConfig(
                namespace=NEW,
                overrides={EX + "height": GroupPlan("NBINS", {"bins": 0})},
            )
            apply(graph, config)


class TestDeterminism:
    def test_same_seed_same_output(self):
        lines = mixed_lines()
        first = apply(make_graph(lines), StrategyConfig(namespace=NEW, seed=3))
        second = apply(make_graph(lines), StrategyConfig(namespace=NEW, seed=3))
        assert [format_triple(t) for t in first.triples] == [
            format_triple(t) for t in second.triples
        ]


# --- bound checking and report integrity -------------------------------------


class TestVerifyBounds:
    def run_report(self) -> AugmentationReport:
        graph = make_graph(mixed_lines())
        return apply(graph, single_strategy_config("TRANSFORM", namespace=NEW)).report

    def test_clean_rows_pass(self):
        report = self.run_report()
        for row in report.rows:
            row.verdict = "unchecked"
        assert verify_bounds(report) is None
        assert {row.verdict for row in report.rows} == {"pass"}

    def test_entity_allowance_breach_fails(self):
        report = self.run_report()
        report.rows[0].delta_entities = report.rows[0].entity_allowance + 1
        verify_bounds(report)
        assert report.rows[0].verdict.startswith("fail")
        assert "exceeds allowance" in report.rows[0].verdict

    def test_exact_statement_mismatch_fails(self):
        report = self.run_report()
        report.rows[0].delta_statements += 1
        verify_bounds(report)
        assert "!= expected" in report.rows[0].verdict

    def test_statements_over_the_cap_fail(self):
        graph = make_graph(mixed_lines())
        config = single_strategy_config("TXTLDA", namespace=NEW)
        config.defaults[Modality.TEXT] = GroupPlan("TXTLDA", {"topics": 2, "iterations": 5})
        [row] = [r for r in apply(graph, config).report.rows if r.strategy == "TXTLDA"]
        row.delta_statements = 5  # two statements, two topics: at most four links
        verify_bounds(AugmentationReport(NEW, 0, [row]))
        assert row.verdict == "fail: delta_statements 5 exceeds cap 4"

    def test_exclude_must_remove_everything(self):
        graph = make_graph(mixed_lines())
        report = apply(graph, single_strategy_config("EXCLUDE", namespace=NEW)).report
        report.rows[0].removed -= 1
        verify_bounds(report)
        assert report.rows[0].verdict.startswith("fail")

    def test_only_an_exclude_run_removes_statements(self):
        report = self.run_report()
        report.rows[0].removed = 1
        verify_bounds(report)
        assert report.rows[0].verdict == "fail: removed 1 != expected 0"

    def test_overlap_reports_exception_verdict(self):
        graph = make_graph([numeric_line(f"s{i}", "height", i) for i in range(10)])
        config = StrategyConfig(
            namespace=NEW,
            defaults=shortcut_defaults("ONEENTITY", None),
            overrides={EX + "height": GroupPlan("NBINS", {"bins": 3, "overlap": 0.2})},
        )
        report = apply(make_graph([numeric_line(f"s{i}", "height", i) for i in range(10)]), config).report
        row = next(r for r in report.rows if r.predicate == EX + "height")
        assert row.verdict == "pass-with-exceptions"
        assert any("multiple statements" in e for e in row.exceptions)


class TestCheckOutput:
    def fixture(self):
        graph = make_graph(mixed_lines())
        result = apply(graph, single_strategy_config("TRANSFORM", namespace=NEW))
        return result.triples, result.report

    def test_clean_output_passes(self):
        triples, report = self.fixture()
        assert check_output(triples, report) == []

    def test_surviving_literal_detected(self):
        triples, report = self.fixture()
        triples = triples + [
            Triple(IRI(EX + "s"), IRI(EX + "height"), Literal("12", language=None))
        ]
        problems = check_output(triples, report)
        assert any("literal object survived" in p for p in problems)

    def test_missing_relational_detected(self):
        triples, report = self.fixture()
        problems = check_output(triples[1:], report)
        assert any("relational triples" in p for p in problems)

    def test_tampered_row_contradicts_output(self):
        triples, report = self.fixture()
        raw = json.loads(report.to_json())
        raw["predicates"][0]["delta_entities"] += 1
        raw["delta_entities_total"] += 1
        tampered = AugmentationReport.from_dict(raw)
        problems = check_output(triples, tampered)
        assert any("output entities" in p for p in problems)

    def test_dropped_minted_statement_detected(self):
        triples, report = self.fixture()
        minted_at = next(
            i
            for i, t in enumerate(triples)
            if isinstance(t.object, IRI) and t.object.value.startswith(NEW)
        )
        problems = check_output(triples[:minted_at] + triples[minted_at + 1 :], report)
        assert any("output statements" in p for p in problems)

    def test_unreported_predicate_detected(self):
        triples, report = self.fixture()
        triples = triples + [
            Triple(IRI(EX + "s"), IRI(EX + "ghost"), IRI(NEW + "ghostAnyValue"))
        ]
        problems = check_output(triples, report)
        assert any("unreported predicate" in p for p in problems)

    def test_literal_subject_is_a_value_error(self):
        triples, report = self.fixture()
        triples = triples + [Triple(Literal("12"), IRI(EX + "height"), IRI(EX + "b"))]
        with pytest.raises(ValueError, match="literal in subject position"):
            check_output(triples, report)

    def test_minted_relation_on_original_terms_detected(self):
        triples, report = self.fixture()
        triples = triples + [Triple(IRI(EX + "a"), IRI(NEW + "nextBin"), IRI(EX + "b"))]
        problems = check_output(triples, report)
        assert any("minted relation on original terms" in p for p in problems)


def test_minted_totals_match_a_recount_of_the_output():
    lines = mixed_lines() + [numeric_line(f"m{i}", "weight", f"{i * 3}.25") for i in range(12)]
    deep = {"bins": 3, "hierarchy_depth": 2, "connect_adjacent": True}
    structural_seen = False
    for strategy in sorted(STRATEGIES - {"COMBINED"}):
        config = single_strategy_config(strategy, namespace=NEW, seed=5)
        if strategy in ("NBINS", "PBINS", "KLREL", "KLRELENT"):
            config.overrides[EX + "weight"] = GroupPlan(strategy, deep)
        result = apply(make_graph(lines), config)
        entities, relations = set(), set()
        for t in result.minted:
            entities |= {
                n.value
                for n in (t.subject, t.object)
                if isinstance(n, IRI) and n.value.startswith(NEW)
            }
            if t.predicate.value.startswith(NEW):
                relations.add(t.predicate.value)
        report = result.report
        assert report.minted_entities_in_output == len(entities), strategy
        assert report.minted_relations_in_output == len(relations), strategy
        structural_seen |= report.minted_relations_in_output > 0
        assert check_output(result.triples, report) == [], strategy
    assert structural_seen


# Three statements per group, one of which falls back to AnyValue. Each
# strategy's documented allowance is 2 here: two bins of the two parsed
# values (NBINS, KLREL's one leaf, DATBIN), two topics, or two distinct images.
FALLBACK_GROUPS = {
    "NBINS": ({"bins": 2}, numeric_line, "size", [1, "x", 3]),
    "KLREL": ({"bins": 2}, numeric_line, "size", [1, "x", 3]),
    "DATBIN": ({"bins": 2}, date_line, "opened", ["2001-02-30", "2001-05-14", "2002-01-01"]),
    "TXTLDA": ({"topics": 2, "iterations": 5}, text_line, "abstract", ["solar", "!?", "wind"]),
    "IMAGETAGS": ({}, rel_line, "depiction", ["img/0.jpg", "img/1.jpg", "img/0.jpg"]),
}


@pytest.mark.parametrize("strategy", FALLBACK_GROUPS)
def test_a_fallback_adds_the_any_value_entity_to_the_allowance(tmp_path, strategy):
    params, line, predicate, values = FALLBACK_GROUPS[strategy]
    lines = [line(f"s{i}", predicate, value) for i, value in enumerate(values)]
    tags = write_tag_map(tmp_path / "tags.json", {EX + "img/0.jpg": "a", EX + "img/2.jpg": "b"})
    config = StrategyConfig(
        namespace=NEW,
        image_provider={"kind": "tag-map", "path": tags},
        overrides={EX + predicate: GroupPlan(strategy, params)},
    )
    (row,) = apply(make_graph(lines, IMAGE_RULES), config).report.rows
    assert (row.strategy, row.fallback_statements, row.fell_back_to) == (strategy, 1, None)
    assert row.entity_allowance == 2 + 1
    assert row.verdict in ("pass", "pass-with-exceptions")


def test_image_allowance_is_the_distinct_images(tmp_path):
    images = ["img/0.jpg", "img/1.jpg", "img/0.jpg", "img/1.jpg", "img/0.jpg"]
    lines = [rel_line(f"s{i}", "depiction", image) for i, image in enumerate(images)]
    tags = write_tag_map(tmp_path / "tags.json", {EX + "img/0.jpg": "a", EX + "img/1.jpg": "b"})
    config = StrategyConfig(namespace=NEW, image_provider={"kind": "tag-map", "path": tags})
    (row,) = apply(make_graph(lines, IMAGE_RULES), config).report.rows
    assert (row.strategy, row.statements, row.fallback_statements) == ("IMAGETAGS", 5, 0)
    assert row.entity_allowance == row.distinct_values == row.delta_entities == 2
    assert row.verdict == "pass"


@pytest.mark.parametrize("depth", [1, 3, 10**7])
def test_binning_allowance_stops_at_the_first_one_bin_level(depth):
    # Two bins, then one parent bin: compute_bins makes no level past it, so
    # neither does the allowance, and a huge depth costs nothing.
    lines = [numeric_line(f"s{i}", "height", i) for i in range(3)]
    config = single_strategy_config("NBINS", namespace=NEW)
    config.overrides[EX + "height"] = GroupPlan("NBINS", {"bins": 2, "hierarchy_depth": depth})
    (row,) = apply(make_graph(lines), config).report.rows
    assert row.delta_entities == row.entity_allowance == 3
    assert row.verdict == "pass-with-exceptions"


class TestReportSerialization:
    def test_round_trip(self):
        graph = make_graph(mixed_lines())
        report = apply(graph, single_strategy_config("TRANSFORM", namespace=NEW)).report
        clone = AugmentationReport.from_dict(json.loads(report.to_json()))
        assert clone.to_dict() == report.to_dict()

    def test_json_round_trip_keeps_bytes(self):
        lines = mixed_lines() + [rel_line("a", "depiction", "img/a.jpg")]
        config = StrategyConfig(namespace=NEW, seed=2)  # KLREL with LOF; IMAGETAGS falls back
        report = apply(make_graph(lines, IMAGE_RULES), config).report
        assert any(row.fell_back_to and row.warnings for row in report.rows)
        assert any("split" in row.detail for row in report.rows)
        text = report.to_json()
        assert AugmentationReport.from_dict(json.loads(text)).to_json() == text

    def test_a_row_has_exactly_the_layout_keys(self):
        graph = make_graph(mixed_lines())
        report = apply(graph, single_strategy_config("TRANSFORM", namespace=NEW)).report
        row = report.to_dict()["predicates"][0]
        assert list(row) == list(_REPORT_ROW)
        assert PredicateReport(**row).to_dict() == row
        with pytest.raises(TypeError, match=re.escape("unknown ['bound']")):
            PredicateReport(**row, bound=1)
        del row["statements"]
        with pytest.raises(TypeError, match=re.escape("missing ['statements']")):
            PredicateReport(**row)

    def test_every_key_is_required(self):
        graph = make_graph(mixed_lines())
        report = apply(graph, single_strategy_config("TRANSFORM", namespace=NEW)).report
        text = report.to_json()
        for key in json.loads(text):
            raw = json.loads(text)
            del raw[key]
            with pytest.raises(ValueError, match=re.escape(f"report keys: missing ['{key}']")):
                AugmentationReport.from_dict(raw)
        for key in json.loads(text)["predicates"][0]:
            raw = json.loads(text)
            del raw["predicates"][0][key]
            missing = re.escape(f"predicates[0] keys: missing ['{key}']")
            with pytest.raises(ValueError, match=missing):
                AugmentationReport.from_dict(raw)

    def test_unknown_key_rejected(self):
        graph = make_graph(mixed_lines())
        report = apply(graph, single_strategy_config("TRANSFORM", namespace=NEW)).report
        raw = report.to_dict()
        raw["predicates"][0]["bound"] = "x"
        with pytest.raises(ValueError, match=re.escape("unknown predicates[0] keys: ['bound']")):
            AugmentationReport.from_dict(raw)

    def test_totals_must_match_rows(self):
        graph = make_graph(mixed_lines())
        report = apply(graph, single_strategy_config("TRANSFORM", namespace=NEW)).report
        raw = json.loads(report.to_json())
        raw["delta_statements_total"] += 1
        with pytest.raises(ValueError, match="totals do not match"):
            AugmentationReport.from_dict(raw)

    def test_from_file(self, tmp_path):
        graph = make_graph(mixed_lines())
        report = apply(graph, single_strategy_config("TRANSFORM", namespace=NEW)).report
        path = tmp_path / "run.report.json"
        path.write_text(report.to_json(), encoding="utf-8")
        clone = AugmentationReport.from_file(str(path))
        assert clone.namespace == NEW
        assert clone.delta_statements_total == report.delta_statements_total
