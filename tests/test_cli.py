"""Command-line interface: subcommands, exit codes, and file outputs."""

from __future__ import annotations

import gzip
import io
import json
import logging
import os
import stat
import subprocess
import sys
import types
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from literal_forge import (
    AugmentationReport,
    ConfigError,
    ModalityRules,
    SerializationError,
    StrategyConfig,
    StrategyError,
    apply,
    baselines,
    build_index,
    cli,
    ntriples,
    parse_ntriples,
    serialize_ntriples,
    textlda,
)
from literal_forge.cli import (
    EXIT_CONFIG,
    EXIT_INPUT,
    EXIT_OK,
    EXIT_STRATEGY,
    EXIT_VERIFY,
    _setup_logging,
    main,
)
from literal_forge.pipeline import shortcut_defaults
from util import EX, NEW, date_line, numeric_line, rel_line, text_line, write_city, write_tag_map


def sample_lines() -> list[str]:
    lines = [rel_line("a", "knows", "b"), rel_line("b", "knows", "c")]
    for i in range(8):
        lines.append(numeric_line(f"n{i}", "height", f"{i}.5"))
    lines.append(date_line("d0", "founded", "2001-05-14"))
    lines.append(text_line("t0", "abstract", "solar panels convert sunlight into power"))
    lines.append(text_line("t1", "abstract", "wind turbines convert motion into power"))
    return lines


@pytest.fixture
def sample_nt(tmp_path):
    path = tmp_path / "input.nt"
    path.write_text("\n".join(sample_lines()) + "\n", encoding="utf-8")
    return str(path)


def transform(sample_nt, tmp_path, *extra: str) -> tuple[int, str]:
    out = str(tmp_path / "out.nt")
    code = main(["transform", "--input", sample_nt, "--output", out, *extra])
    return code, out


class TestProfile:
    def test_json_to_stdout(self, sample_nt, capsys):
        assert main(["profile", "--input", sample_nt]) == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert data["triples"] == 13
        assert data["literals"]["numbers"] == 8
        assert data["literals"]["dates"] == 1
        assert data["literals"]["text"] == 2

    def test_human_output(self, sample_nt, capsys):
        assert main(["profile", "--input", sample_nt, "--human"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "triples" in out and "13" in out
        with pytest.raises(json.JSONDecodeError):
            json.loads(out)

    def test_missing_input(self, tmp_path):
        assert main(["profile", "--input", str(tmp_path / "absent.nt")]) == EXIT_INPUT

    def test_gzip_input(self, tmp_path, capsys):
        path = tmp_path / "input.nt.gz"
        path.write_bytes(gzip.compress(("\n".join(sample_lines()) + "\n").encode()))
        assert main(["profile", "--input", str(path)]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["triples"] == 13

    def test_stdin_dash(self, monkeypatch, capsys):
        data = ("\n".join(sample_lines()) + "\n").encode()
        monkeypatch.setattr(sys, "stdin", types.SimpleNamespace(buffer=io.BytesIO(data)))
        assert main(["profile", "--input", "-"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["triples"] == 13

    def test_strict_rejects_malformed(self, tmp_path):
        path = tmp_path / "bad.nt"
        path.write_text("this is not a triple\n", encoding="utf-8")
        assert main(["profile", "--input", str(path), "--strict"]) == EXIT_INPUT

    def test_lenient_skips_malformed(self, tmp_path, capsys):
        path = tmp_path / "mixed.nt"
        path.write_text(
            "garbage line\n" + rel_line("a", "knows", "b") + "\n", encoding="utf-8"
        )
        assert main(["profile", "--input", str(path)]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["triples"] == 1

    def test_bad_config_file(self, sample_nt, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"mystery": 1}), encoding="utf-8")
        assert main(["profile", "--input", sample_nt, "--config", str(config)]) == EXIT_CONFIG

    def test_a_number_past_the_float_range_is_a_config_error(self, sample_nt, tmp_path):
        config = tmp_path / "config.json"
        overlap = _param_config("numeric", "NBINS", "overlap", 10**400)
        config.write_text(json.dumps(overlap), encoding="utf-8")
        done = run_cli("profile", "--input", sample_nt, "--config", str(config))
        lines = done.stderr.splitlines()
        assert done.returncode == EXIT_CONFIG and "Traceback" not in done.stderr
        assert len(lines) == 1 and lines[0].startswith("ERROR ") and "overlap" in lines[0]

    def test_repeats_count_as_statements_and_no_duplicates_are_reported(self, tmp_path, capsys):
        # profile streams its input and keeps no statements, so it cannot
        # tell a repeat; each line counts, and no duplicate count is printed.
        path = tmp_path / "repeat.nt"
        lines = [rel_line("a", "knows", "b"), rel_line("a", "knows", "b"), rel_line("b", "knows", "c")]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["profile", "--input", str(path)]) == EXIT_OK
        out = capsys.readouterr().out
        data = json.loads(out)
        assert (data["triples"], data["objects"]["iris"], data["nodes"]) == (3, 3, 3)
        assert main(["profile", "--input", str(path), "--human"]) == EXIT_OK
        human = capsys.readouterr().out
        assert human.splitlines()[2].split() == ["triples", "3"]
        assert "duplicate" not in out + human


class TestTransform:
    def test_writes_output_and_report(self, sample_nt, tmp_path):
        code, out = transform(sample_nt, tmp_path, "--strategy", "TRANSFORM")
        assert code == EXIT_OK
        lines = Path(out).read_text(encoding="utf-8").splitlines()
        assert len(lines) == 13
        assert all(line.endswith(" .") for line in lines)
        report = AugmentationReport.from_file(out + ".report.json")
        assert report.relational_preserved == 2
        assert report.delta_statements_total == 11

    def test_seed_determinism(self, sample_nt, tmp_path):
        first_dir = tmp_path / "a"
        second_dir = tmp_path / "b"
        first_dir.mkdir()
        second_dir.mkdir()
        _, first = transform(sample_nt, first_dir, "--strategy", "COMBINED", "--seed", "7")
        _, second = transform(sample_nt, second_dir, "--strategy", "COMBINED", "--seed", "7")
        assert Path(first).read_bytes() == Path(second).read_bytes()

    @staticmethod
    def txtlda_config(tmp_path, **extra) -> str:
        """A config whose text groups run TXTLDA, which scores its links."""
        plan = {"strategy": "TXTLDA", "params": {"topics": 2, "iterations": 40, "threshold": 0.05}}
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"defaults": {"text": plan}, **extra}), encoding="utf-8")
        return str(config)

    def test_weights_sidecar(self, sample_nt, tmp_path):
        config = self.txtlda_config(tmp_path)
        code, out = transform(sample_nt, tmp_path, "--config", config, "--emit-weights")
        assert code == EXIT_OK
        lines = Path(out + ".weights.tsv").read_text(encoding="utf-8").splitlines()
        assert lines, "the sidecar should list the weighted statements"
        for line in lines:
            statement, weight = line.rsplit("\t", 1)
            assert statement.endswith(" .")
            whole, frac = weight.split(".")
            assert len(frac) == 6
            assert 0.0 < float(weight) <= 1.0

    def test_no_sidecar_without_flag(self, sample_nt, tmp_path):
        # TXTLDA scores its links, but only --emit-weights writes them.
        code, out = transform(sample_nt, tmp_path, "--config", self.txtlda_config(tmp_path))
        assert code == EXIT_OK
        assert not (tmp_path / "out.nt.weights.tsv").exists()

    def test_config_key_emit_weights_writes_the_sidecar(self, sample_nt, tmp_path):
        config = self.txtlda_config(tmp_path, emit_weights=True)
        assert transform(sample_nt, tmp_path, "--config", config)[0] == EXIT_OK
        assert (tmp_path / "out.nt.weights.tsv").read_text(encoding="utf-8").splitlines()

    def test_unknown_strategy(self, sample_nt, tmp_path):
        code, _ = transform(sample_nt, tmp_path, "--strategy", "SHRED")
        assert code == EXIT_CONFIG

    def test_bad_workers(self, sample_nt, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            transform(sample_nt, tmp_path, "--workers", "2")
        assert exc.value.code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("usage: ")
        assert "unrecognized arguments: --workers 2" in err

    def test_rejects_human(self, sample_nt, tmp_path, capsys):
        # transform prints no verdict, so it takes no flag to format one
        with pytest.raises(SystemExit) as exc:
            transform(sample_nt, tmp_path, "--human")
        assert exc.value.code == 2
        assert "unrecognized arguments: --human" in capsys.readouterr().err
        assert not (tmp_path / "out.nt").exists()

    def test_missing_input(self, tmp_path):
        code = main(
            [
                "transform",
                "--input",
                str(tmp_path / "absent.nt"),
                "--output",
                str(tmp_path / "out.nt"),
            ]
        )
        assert code == EXIT_INPUT

    def test_strategy_failure_without_fallback(self, tmp_path):
        path = tmp_path / "images.nt"
        path.write_text(rel_line("a", "depiction", "img/a.jpg") + "\n", encoding="utf-8")
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps({"fallback": None, "image_predicates": [EX + "depiction"]}),
            encoding="utf-8",
        )
        code = main(
            [
                "transform",
                "--input",
                str(path),
                "--output",
                str(tmp_path / "out.nt"),
                "--config",
                str(config),
            ]
        )
        assert code == EXIT_STRATEGY

    def test_unwritable_output(self, sample_nt, tmp_path):
        code = main(
            [
                "transform",
                "--input",
                sample_nt,
                "--output",
                str(tmp_path / "missing-dir" / "out.nt"),
                "--strategy",
                "TRANSFORM",
            ]
        )
        assert code == EXIT_INPUT

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    @pytest.mark.parametrize("suffix", ["", ".report.json", ".weights.tsv"])
    def test_refuses_a_path_that_is_not_a_regular_file(self, sample_nt, tmp_path, caplog, suffix):
        fifo = tmp_path / f"out.nt{suffix}"
        os.mkfifo(fifo)
        with caplog.at_level(logging.ERROR, logger="literal_forge.cli"):
            code, _ = transform(sample_nt, tmp_path, "--strategy", "TRANSFORM")
        assert code == EXIT_INPUT
        [message] = [r.getMessage() for r in caplog.records if r.name == "literal_forge.cli"]
        assert message == f"{fifo} exists and is not a regular file; nothing was written"
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert sorted(path.name for path in tmp_path.iterdir()) == sorted(["input.nt", fifo.name])

    @pytest.mark.parametrize("link_at_output", [True, False], ids=["link-and-file", "file"])
    def test_leaves_whatever_sits_at_a_temp_path(self, sample_nt, tmp_path, caplog, link_at_output):
        # main runs in this process, so the temp paths carry this pid.
        victim = tmp_path / "victim.nt"
        victim.write_bytes(b"victim\n")
        link = tmp_path / f"out.nt.{os.getpid()}.tmp"
        stray = tmp_path / f"out.nt.report.json.{os.getpid()}.tmp"
        stray.write_bytes(b"stray\n")
        if link_at_output:
            link.symlink_to(victim)
        with caplog.at_level(logging.ERROR, logger="literal_forge.cli"):
            code, _ = transform(sample_nt, tmp_path, "--strategy", "TRANSFORM")
        assert code == EXIT_INPUT
        [message] = [r.getMessage() for r in caplog.records if r.name == "literal_forge.cli"]
        refused = link if link_at_output else stray
        assert message.startswith("cannot write output: ") and str(refused) in message
        assert victim.read_bytes() == b"victim\n" and stray.read_bytes() == b"stray\n"
        kept = ["input.nt", victim.name, stray.name] + ([link.name] if link_at_output else [])
        assert sorted(path.name for path in tmp_path.iterdir()) == sorted(kept)
        assert not link_at_output or os.readlink(link) == str(victim)


def with_row(raw: dict, **changes) -> dict:
    """A report dict whose first row has *changes* applied."""
    first, *rest = raw["predicates"]
    return {**raw, "predicates": [{**first, **changes}, *rest]}


class TestVerify:
    def test_default_report_path(self, sample_nt, tmp_path, capsys):
        _, out = transform(sample_nt, tmp_path, "--strategy", "TRANSFORM")
        assert main(["verify", "--input", out]) == EXIT_OK
        verdict = json.loads(capsys.readouterr().out)
        assert verdict == {"ok": True, "problems": []}

    def test_human_verdict(self, sample_nt, tmp_path, capsys):
        _, out = transform(sample_nt, tmp_path, "--strategy", "TRANSFORM")
        assert main(["verify", "--input", out, "--human"]) == EXIT_OK
        assert "all bounds hold" in capsys.readouterr().out

    def test_tampered_report_fails(self, sample_nt, tmp_path, capsys):
        _, out = transform(sample_nt, tmp_path, "--strategy", "TRANSFORM")
        raw = json.loads(Path(out + ".report.json").read_text(encoding="utf-8"))
        raw["predicates"][0]["delta_entities"] += 1
        raw["delta_entities_total"] += 1
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(raw), encoding="utf-8")
        code = main(["verify", "--input", out, "--report", str(tampered)])
        assert code == EXIT_VERIFY
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["ok"] is False
        assert verdict["problems"]

    @staticmethod
    def verify_tampered(out: str, tmp_path, capsys, strategy: str, **changes) -> list[str]:
        """verify's problems, which must fail it, against out's report with
        *changes* made to the first row of *strategy*; the totals follow."""
        raw = json.loads(Path(out + ".report.json").read_text(encoding="utf-8"))
        row = next(row for row in raw["predicates"] if row["strategy"] == strategy)
        for key in ("delta_entities", "delta_statements", "removed"):
            raw[f"{key}_total"] += changes.get(key, row[key]) - row[key]
        row.update(changes)
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(raw), encoding="utf-8")
        capsys.readouterr()
        assert main(["verify", "--input", out, "--report", str(tampered)]) == EXIT_VERIFY
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["ok"] is False
        return verdict["problems"]

    def test_a_cap_other_than_the_derived_one_fails(self, sample_nt, tmp_path, capsys):
        # Two statements, 20 topics: the cap is 40, whatever the row declares.
        _, out = transform(sample_nt, tmp_path, "--strategy", "TXTLDA")
        problems = self.verify_tampered(out, tmp_path, capsys, "TXTLDA", statement_delta_max=1)
        assert problems == [
            f"{EX}abstract [text]: fail: statement_delta_max 1 != derived 40"
        ]

    def test_a_bin_appended_with_its_bounds_raised_fails(self, tmp_path, capsys):
        # The output gains a link to a ninety-ninth bin, and the row declares
        # the entity and the statement it adds, bounds included.
        source = tmp_path / "input.nt"
        lines = [numeric_line(f"s{i}", "h", f"{i}.5").replace("decimal", "double") for i in range(4)]
        source.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert transform(str(source), tmp_path, "--strategy", "NBINS")[0] == EXIT_OK
        out = str(tmp_path / "out.nt")
        with open(out, "a", encoding="utf-8") as fh:
            fh.write(f"<{EX}s1> <{EX}h> <{NEW}hBin99> .\n")
        report = Path(out + ".report.json")
        raw = json.loads(report.read_text(encoding="utf-8"))
        raw["minted_entities_in_output"] += 1
        report.write_text(json.dumps(raw), encoding="utf-8")
        [row] = raw["predicates"]
        raised = {key: row[key] + 1 for key in (
            "delta_entities", "delta_statements", "entity_allowance", "statement_delta_exact"
        )}
        problems = self.verify_tampered(out, tmp_path, capsys, "NBINS", **raised)
        assert problems == [
            f"{EX}h [numeric]: fail: entity_allowance 5 != derived 4; "
            "statement_delta_exact 5 != derived 4; delta_entities 5 exceeds allowance 4; "
            "delta_statements 5 != expected 4"
        ]

    @staticmethod
    def images_run(tmp_path, provider: bool) -> str:
        """Transform three images, tagged from a map that misses one, or with
        no provider, so IMAGETAGS falls back to ONEENTITY; the output path."""
        source, config = tmp_path / "images.nt", tmp_path / "images.json"
        lines = [rel_line(f"s{i}", "depiction", f"img/{i}.jpg") for i in range(3)]
        source.write_text("\n".join(lines) + "\n", encoding="utf-8")
        settings: dict = {"image_predicates": [EX + "depiction"]}
        if provider:
            tags = write_tag_map(tmp_path / "tags.json", {EX + "img/0.jpg": "a", EX + "img/1.jpg": "b"})
            settings["image_provider"] = {"kind": "tag-map", "path": tags}
        config.write_text(json.dumps(settings), encoding="utf-8")
        code, out = transform(str(source), tmp_path, "--config", str(config))
        assert code == EXIT_OK
        return out

    @pytest.mark.parametrize(
        "strategy",
        ["EXCLUDE", "TRANSFORM", "ONEENTITY", "NBINS", "PBINS", "KLREL", "DATBIN", "DATFEAT",
         "TXTLDA", "IMAGETAGS", "fallback"],
    )
    def test_a_raised_entity_allowance_fails(self, sample_nt, tmp_path, capsys, strategy):
        if strategy in ("IMAGETAGS", "fallback"):
            out = self.images_run(tmp_path, provider=strategy == "IMAGETAGS")
            strategy = "IMAGETAGS"
        else:
            out = transform(sample_nt, tmp_path, "--strategy", strategy)[1]
        raw = json.loads(Path(out + ".report.json").read_text(encoding="utf-8"))
        row = next(row for row in raw["predicates"] if row["strategy"] == strategy)
        allowance = row["entity_allowance"]
        problems = self.verify_tampered(
            out, tmp_path, capsys, strategy, entity_allowance=allowance + 1
        )
        where = f"{row['predicate']} [{row['modality']}]"
        assert problems == [f"{where}: fail: entity_allowance {allowance + 1} != derived {allowance}"]

    def test_split_leaves_that_outgrow_the_parsed_values_fail(self, tmp_path, capsys):
        source, config = tmp_path / "input.nt", tmp_path / "config.json"
        lines = [numeric_line(f"n{i}", "height", f"{i}.5") for i in range(4)]
        lines += [rel_line("n0", "knows", "n1"), rel_line("n2", "locatedIn", "n3")]
        source.write_text("\n".join(lines) + "\n", encoding="utf-8")
        plan = {"strategy": "KLREL", "params": {"bins": 1, "split_threshold": 2}}
        config.write_text(json.dumps({"defaults": {"numeric": plan}}), encoding="utf-8")
        _, out = transform(str(source), tmp_path, "--config", str(config))
        [row] = json.loads(Path(out + ".report.json").read_text(encoding="utf-8"))["predicates"]
        detail = row["detail"]
        leaf = next(node for node in detail["split"] if "leaf" in node)
        assert detail["leaves"] > 1 and leaf["values"] < 4
        leaf["values"] += 1
        problems = self.verify_tampered(out, tmp_path, capsys, "KLREL", detail=detail)
        assert problems == [f"{EX}height [numeric]: fail: split leaf values 5 != parsed 4"]

    def test_hierarchical_bins_below_the_statement_count_fail(self, sample_nt, tmp_path, capsys):
        config = tmp_path / "config.json"
        plan = {"strategy": "NBINS", "params": {"bins": 4, "hierarchy_depth": 1}}
        config.write_text(json.dumps({"defaults": {"numeric": plan}}), encoding="utf-8")
        _, out = transform(sample_nt, tmp_path, "--config", str(config))
        problems = self.verify_tampered(out, tmp_path, capsys, "NBINS", statements=17, parsed=17)
        assert problems == [
            f"{EX}height [numeric]: fail: delta_statements 16 below statement count 17"
        ]

    def test_a_fallback_to_exclude_that_keeps_statements_fails(self, tmp_path, capsys):
        # No image provider: IMAGETAGS fails and the group falls back to EXCLUDE.
        source, config = tmp_path / "input.nt", tmp_path / "config.json"
        lines = [rel_line(f"s{i}", "depiction", f"img/{i}.jpg") for i in range(5)]
        source.write_text("\n".join(lines) + "\n", encoding="utf-8")
        settings = {"fallback": "EXCLUDE", "image_predicates": [EX + "depiction"]}
        config.write_text(json.dumps(settings), encoding="utf-8")
        code, out = transform(str(source), tmp_path, "--config", str(config))
        assert code == EXIT_OK
        problems = self.verify_tampered(out, tmp_path, capsys, "IMAGETAGS", removed=2)
        assert problems == [f"{EX}depiction [image]: fail: removed 2 != expected 5"]

    @pytest.mark.parametrize(
        "changes, named",
        [
            ({"strategy": "NO-SUCH", "fell_back_to": "ALSO-NO-SUCH"}, "strategy 'NO-SUCH'"),
            ({"strategy": "COMBINED"}, "strategy 'COMBINED'"),
            ({"fell_back_to": "NBINS"}, "fell_back_to 'NBINS'"),
            ({"modality": "sound"}, "modality 'sound'"),
        ],
        ids=["no-such-names", "combined", "fallback-not-a-fallback", "no-such-modality"],
    )
    def test_a_row_that_names_no_strategy_is_a_layout_error(
        self, sample_nt, tmp_path, caplog, capsys, changes, named
    ):
        # The bound rules read a row's strategy and fallback, so a row must
        # name ones that can run: never COMBINED, which plan_for resolves.
        _, out = transform(sample_nt, tmp_path, "--strategy", "NBINS")
        path = Path(out + ".report.json")
        raw = json.loads(path.read_text(encoding="utf-8"))
        i = next(i for i, row in enumerate(raw["predicates"]) if row["strategy"] == "NBINS")
        raw["predicates"][i].update(changes)
        path.write_text(json.dumps(raw), encoding="utf-8")
        capsys.readouterr()
        with caplog.at_level(logging.ERROR, logger="literal_forge.cli"):
            assert main(["verify", "--input", out]) == EXIT_INPUT
        [message] = [r.getMessage() for r in caplog.records if r.name == "literal_forge.cli"]
        assert message == f"cannot load report {path}: predicates[{i}]: unknown {named}"
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "strategy, changes, named",
        [
            ("NBINS", {"params": {"bins": "x"}},
             "parameters for NBINS: bins must be an integer, not 'x'"),
            ("KLREL", {"detail": {"split": 5}},
             "detail.split must be a list of node objects, not 5"),
            ("KLREL", {"detail": {"split": [{"values": "4"}]}},
             "detail.split must be a list of node objects, not [{'values': '4'}]"),
            ("PBINS", {"statements": 10**400, "distinct_values": 10**400},
             "int too large to convert to float"),
        ],
        ids=["params", "split", "split-node", "count-past-float-range"],
    )
    def test_a_row_the_bounds_cannot_be_derived_from_is_a_layout_error(
        self, sample_nt, tmp_path, caplog, capsys, strategy, changes, named
    ):
        _, out = transform(sample_nt, tmp_path, "--strategy", strategy)
        path = Path(out + ".report.json")
        raw = json.loads(path.read_text(encoding="utf-8"))
        i = next(i for i, row in enumerate(raw["predicates"]) if row["strategy"] == strategy)
        raw["predicates"][i].update(changes)
        path.write_text(json.dumps(raw), encoding="utf-8")
        capsys.readouterr()
        with caplog.at_level(logging.ERROR, logger="literal_forge.cli"):
            assert main(["verify", "--input", out]) == EXIT_INPUT
        [message] = [r.getMessage() for r in caplog.records if r.name == "literal_forge.cli"]
        assert message == f"cannot load report {path}: predicates[{i}]: {named}"
        assert capsys.readouterr().out == ""

    def test_one_predicate_over_its_rows_entity_total_fails(self, tmp_path, capsys):
        # One predicate holds numbers and dates: two rows, one entity total.
        lines = [numeric_line(f"n{i}", "value", i) for i in range(3)]
        lines += [date_line(f"d{i}", "value", f"200{i}-01-01") for i in range(3)]
        source = tmp_path / "input.nt"
        source.write_text("\n".join(lines) + "\n", encoding="utf-8")
        _, out = transform(str(source), tmp_path, "--strategy", "TRANSFORM")
        problems = self.verify_tampered(out, tmp_path, capsys, "TRANSFORM", delta_entities=2)
        assert problems == [f"{EX}value: output entities 6 exceed reported total 5"]

    def test_tampered_output_fails(self, sample_nt, tmp_path, capsys):
        _, out = transform(sample_nt, tmp_path, "--strategy", "TRANSFORM")
        with open(out, "a", encoding="utf-8") as fh:
            fh.write(f"<{EX}x> <{EX}ghost> <{NEW}ghostAnyValue> .\n")
        assert main(["verify", "--input", out]) == EXIT_VERIFY
        assert json.loads(capsys.readouterr().out)["problems"]

    def test_reads_rows_and_builds_no_triple(self, sample_nt, tmp_path, monkeypatch, capsys):
        _, out = transform(sample_nt, tmp_path, "--strategy", "COMBINED")

        def no_triple(*args, **kwargs):
            raise AssertionError("verify built a Triple")

        monkeypatch.setattr(ntriples, "Triple", no_triple)
        assert main(["verify", "--input", out]) == EXIT_OK
        assert json.loads(capsys.readouterr().out) == {"ok": True, "problems": []}

    def test_missing_report(self, sample_nt, tmp_path):
        assert main(["verify", "--input", sample_nt]) == EXIT_INPUT

    def test_stdin_reads_the_given_report_and_needs_one(
        self, sample_nt, tmp_path, monkeypatch, caplog, capsys
    ):
        _, out = transform(sample_nt, tmp_path, "--strategy", "TRANSFORM")
        stdin = types.SimpleNamespace(buffer=io.BytesIO(Path(out).read_bytes()))
        monkeypatch.setattr(sys, "stdin", stdin)
        with caplog.at_level(logging.ERROR, logger="literal_forge.cli"):
            assert main(["verify", "--input", "-"]) == EXIT_CONFIG
        [message] = [r.getMessage() for r in caplog.records if r.name == "literal_forge.cli"]
        assert message == "verify --input - needs --report: stdin has no report beside it"
        assert capsys.readouterr().out == "" and stdin.buffer.tell() == 0
        assert main(["verify", "--input", "-", "--report", out + ".report.json"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out) == {"ok": True, "problems": []}

    def test_malformed_line_near_the_end_fails_without_a_verdict(self, sample_nt, tmp_path, capsys):
        _, out = transform(sample_nt, tmp_path, "--strategy", "TRANSFORM")
        lines = Path(out).read_text(encoding="utf-8").splitlines(keepends=True)
        lines.insert(len(lines) - 1, f"<{EX}x> <{EX}broken\n")
        Path(out).write_text("".join(lines), encoding="utf-8")
        assert main(["verify", "--input", out]) == EXIT_INPUT
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("flag", [["--config", "/nonexistent.json"], ["--strict"]])
    def test_rejects_the_flags_it_would_ignore(self, sample_nt, tmp_path, capsys, flag):
        # verify is always strict and reads no config, so it takes neither flag
        _, out = transform(sample_nt, tmp_path, "--strategy", "TRANSFORM")
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--input", out, *flag])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "malformed",
        [
            lambda raw: "[]",
            lambda raw: "[" * 100_000 + "]" * 100_000,
            lambda raw: json.dumps({**raw, "predicates": [1]}),
            lambda raw: json.dumps({**raw, "namespace": 5}),
            lambda raw: json.dumps(with_row(raw, entity_allowance="x")),
            lambda raw: json.dumps(with_row(raw, delta_statements="3")),
            lambda raw: json.dumps({**raw, "warnings": 5}),
            lambda raw: json.dumps({**raw, "predicates": {"rows": raw["predicates"]}}),
            lambda raw: json.dumps(
                {
                    **raw,
                    "predicates": [
                        {k: v for k, v in row.items() if k != "strategy"}
                        for row in raw["predicates"]
                    ],
                }
            ),
            lambda raw: json.dumps({**raw, "relational_preserved": True}),
        ],
        ids=[
            "not-an-object",
            "nested-too-deeply",
            "row-not-an-object",
            "namespace-not-a-string",
            "allowance-not-an-int",
            "delta-a-string",
            "warnings-not-a-list",
            "predicates-an-object",
            "row-without-strategy",
            "bool-for-an-int",
        ],
    )
    def test_malformed_report_is_a_diagnostic(
        self, sample_nt, tmp_path, caplog, capsys, malformed
    ):
        _, out = transform(sample_nt, tmp_path, "--strategy", "TRANSFORM")
        capsys.readouterr()
        path = Path(out + ".report.json")
        path.write_text(malformed(json.loads(path.read_text(encoding="utf-8"))), encoding="utf-8")
        with caplog.at_level(logging.ERROR, logger="literal_forge.cli"):
            assert main(["verify", "--input", out]) == EXIT_INPUT
        [message] = [r.getMessage() for r in caplog.records if r.name == "literal_forge.cli"]
        assert message.startswith(f"cannot load report {path}: ")
        assert capsys.readouterr().out == ""

    def test_inconsistent_totals_rejected(self, sample_nt, tmp_path):
        _, out = transform(sample_nt, tmp_path, "--strategy", "TRANSFORM")
        raw = json.loads(Path(out + ".report.json").read_text(encoding="utf-8"))
        raw["delta_statements_total"] += 5
        path = out + ".report.json"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(raw))
        assert main(["verify", "--input", out]) == EXIT_INPUT


class TestLogging:
    def fresh_root(self):
        root = logging.getLogger()
        return root, root.handlers[:], root.level

    def test_env_sets_level(self, monkeypatch):
        root, handlers, level = self.fresh_root()
        root.handlers[:] = []
        try:
            monkeypatch.setenv("LITERAL_FORGE_LOG", "debug")
            _setup_logging()
            assert root.level == logging.DEBUG
        finally:
            root.handlers[:] = handlers
            root.level = level

    def test_bad_env_falls_back_to_warning(self, monkeypatch):
        root, handlers, level = self.fresh_root()
        root.handlers[:] = []
        try:
            monkeypatch.setenv("LITERAL_FORGE_LOG", "chatty")
            _setup_logging()
            assert root.level == logging.WARNING
        finally:
            root.handlers[:] = handlers
            root.level = level


@pytest.mark.parametrize(
    "error, code",
    [
        (cli.InputError, EXIT_INPUT),
        (ConfigError, EXIT_CONFIG),
        (StrategyError, EXIT_STRATEGY),
        (RuntimeError, None),
    ],
)
def test_main_turns_only_the_three_errors_into_exit_codes(
    sample_nt, monkeypatch, caplog, error, code
):
    def fail(args):
        raise error("the command failed")

    monkeypatch.setattr(cli, "cmd_profile", fail)
    argv = ["profile", "--input", sample_nt]
    if code is None:
        with pytest.raises(RuntimeError, match="the command failed"):
            main(argv)
        return
    with caplog.at_level(logging.DEBUG):
        assert main(argv) == code
    assert [(r.levelname, r.getMessage()) for r in caplog.records] == [
        ("ERROR", "the command failed")
    ]


def test_transform_exits_verify_on_failed_bound(sample_nt, tmp_path, monkeypatch, caplog):
    real = baselines.one_entity

    def overgrown(group, aug):
        aug = real(group, aug)
        aug.link(aug.subjects[:1], aug.objects[0])  # one past the exact bound of S
        return aug

    monkeypatch.setattr(baselines, "one_entity", overgrown)
    with caplog.at_level(logging.ERROR, logger="literal_forge.cli"):
        code, out = transform(sample_nt, tmp_path, "--strategy", "ONEENTITY")
    assert code == EXIT_VERIFY
    report = AugmentationReport.from_file(out + ".report.json")
    failed = [row for row in report.rows if row.verdict.startswith("fail:")]
    assert len(failed) == len(report.rows) == 3
    logged = [r.getMessage() for r in caplog.records if r.name == "literal_forge.cli"]
    for row in failed:
        assert f"{row.predicate} [{row.modality}]: {row.verdict}" in logged
    assert main(["verify", "--input", out]) == EXIT_VERIFY


def test_a_topic_run_that_drops_links_fails_transform_and_verify(
    tmp_path, monkeypatch, caplog, capsys
):
    real = textlda.emit_topic_triples

    def first_link_only(*args, **kwargs):
        aug = real(*args, **kwargs)
        for column in (aug.subjects, aug.objects, aug.scored, aug.weights):
            del column[1:]
        return aug

    monkeypatch.setattr(textlda, "emit_topic_triples", first_link_only)
    words = "solar wind turbine panel grid storage battery river dam tide".split()
    source = tmp_path / "input.nt"
    lines = [text_line(f"t{i}", "abstract", " ".join(words[i : i + 4])) for i in range(6)]
    source.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with caplog.at_level(logging.ERROR, logger="literal_forge.cli"):
        code, out = transform(str(source), tmp_path, "--strategy", "TXTLDA")
    assert code == EXIT_VERIFY
    verdict = f"{EX}abstract [text]: fail: delta_statements 1 below statement count 6"
    assert [r.getMessage() for r in caplog.records if r.name == "literal_forge.cli"] == [verdict]
    capsys.readouterr()
    assert main(["verify", "--input", out]) == EXIT_VERIFY
    assert json.loads(capsys.readouterr().out)["problems"] == [verdict]


def test_text_output_identical_across_reruns(tmp_path):
    words = "solar wind turbine panel grid storage battery river dam tide".split()
    lines = []
    for i in range(30):
        lines.append(text_line(f"s{i}", "abstract", " ".join(words[i % 7 : i % 7 + 4])))
        lines.append(text_line(f"s{i}", "summary", " ".join(words[(i * 3) % 6 :][:5])))
        lines.append(numeric_line(f"s{i}", "capacity", f"{i * 1.5}"))
    path = tmp_path / "text.nt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    outputs = []
    for run in range(2):
        out = tmp_path / f"out{run}.nt"
        assert main(["transform", "--input", str(path), "--output", str(out)]) == EXIT_OK
        outputs.append((out.read_bytes(), (tmp_path / f"{out.name}.report.json").read_bytes()))
    assert b"abstractTopic" in outputs[0][0] and b"summaryTopic" in outputs[0][0]
    assert outputs[1] == outputs[0]


def test_unserializable_term_is_a_diagnostic(tmp_path, caplog):
    # the line grammar accepts a relative IRI; the writer does not
    path = tmp_path / "relative.nt"
    path.write_text("<foo> <http://ex.org/p> <http://ex.org/o> .\n", encoding="utf-8")
    out = tmp_path / "out.nt"
    with caplog.at_level(logging.ERROR, logger="literal_forge.cli"):
        code = main(["transform", "--input", str(path), "--output", str(out)])
    assert code == EXIT_INPUT
    assert any("<foo>" in r.getMessage() for r in caplog.records)
    assert not out.exists()


@pytest.mark.parametrize("relative", [False, True], ids=["valid", "relative-iri"])
def test_cli_output_matches_the_library_writer(tmp_path, relative):
    # The CLI writes relational lines from ids; the library writes the
    # merged triples. Both give the same bytes, or fail on the same term.
    lines = [
        f"<{EX}s> <{EX}knows> _:b1 .",
        f"_:b1 <{EX}knows> <{EX}b1> .",
        rel_line("a", "knows", "b"),
        rel_line("a", "knows", "b"),
        f"<{EX}a> <{EX}depiction> <{EX}img/a.jpg> .",
        numeric_line("a", "height", "1.5"),
        numeric_line("b", "height", "2.5"),
        text_line("a", "abstract", 'a \\"quoted\\" line\\nbreak'),
    ]
    if relative:
        lines += [f"<{EX}z> <{EX}rel> <foo> .", f"_:b1 <{EX}knows> <_:b1> ."]
    data = ("\r\n".join(lines) + "\r\n").encode()
    path = tmp_path / "input.nt"
    path.write_bytes(data)
    rules = ModalityRules(image_predicates=frozenset({EX + "depiction"}))
    config = StrategyConfig(defaults=shortcut_defaults("TRANSFORM", "ONEENTITY"), rules=rules)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"image_predicates": [EX + "depiction"]}), encoding="utf-8")
    result = apply(build_index(parse_ntriples(data)[0], rules), config)
    try:
        expected = serialize_ntriples(result.triples)
    except SerializationError as exc:
        expected = str(exc)
    out = tmp_path / "out.nt"
    done = run_cli(
        "transform", "--input", str(path), "--output", str(out), "--config", str(config_path),
        "--strategy", "TRANSFORM",
    )
    if isinstance(expected, bytes):
        assert done.returncode == EXIT_OK, done.stderr
        assert out.read_bytes() == expected
    else:
        assert done.returncode == EXIT_INPUT
        assert f"cannot serialize output: {expected}" in done.stderr
        assert expected == "IRI is not absolute (no scheme): <foo>"
        assert not out.exists()


def _files(directory: Path) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in directory.iterdir()}


def test_rerun_replaces_output_and_report_and_leaves_no_temp_file(sample_nt, tmp_path):
    assert transform(sample_nt, tmp_path, "--strategy", "TRANSFORM")[0] == EXIT_OK
    first = _files(tmp_path)
    code, out = transform(sample_nt, tmp_path, "--strategy", "ONEENTITY", "--emit-weights")
    assert code == EXIT_OK
    second = _files(tmp_path)
    assert set(second) == {"input.nt", "out.nt", "out.nt.report.json", "out.nt.weights.tsv"}
    assert second["out.nt"] != first["out.nt"]
    assert AugmentationReport.from_file(out + ".report.json").rows[0].strategy == "ONEENTITY"
    # a run without the sidecar removes the earlier one
    assert transform(sample_nt, tmp_path, "--strategy", "TRANSFORM")[0] == EXIT_OK
    assert set(_files(tmp_path)) == {"input.nt", "out.nt", "out.nt.report.json"}


def _fail_output(monkeypatch):
    def write_then_fail(lines, out):
        out.write(b"<http://ex.org/partial> ")
        raise SerializationError("unserializable term")

    monkeypatch.setattr(cli, "write_lines", write_then_fail)


def _fail_report(monkeypatch):
    def disk_full(self, indent=2):
        raise OSError("no space left on device")

    monkeypatch.setattr(AugmentationReport, "to_json", disk_full)


def _fail_weights(monkeypatch):
    # The output is written first, the weights second.
    write_lines = cli.write_lines
    calls = []

    def reject(lines, out):
        calls.append(out)
        if len(calls) > 1:
            raise SerializationError("unserializable term")
        return write_lines(lines, out)

    monkeypatch.setattr(cli, "write_lines", reject)


@pytest.mark.parametrize(
    "fail", [_fail_output, _fail_report, _fail_weights], ids=["output", "report", "weights"]
)
def test_failed_write_keeps_earlier_output_and_report(sample_nt, tmp_path, monkeypatch, fail):
    assert transform(sample_nt, tmp_path, "--strategy", "TRANSFORM", "--emit-weights")[0] == EXIT_OK
    before = _files(tmp_path)
    fail(monkeypatch)
    code, _ = transform(sample_nt, tmp_path, "--strategy", "ONEENTITY", "--emit-weights")
    assert code == EXIT_INPUT
    assert _files(tmp_path) == before


def test_transform_validates_each_written_term_once(tmp_path, monkeypatch):
    # The city's subject is written in relational, minted and weighted lines.
    source, config = write_city(tmp_path)
    seen = []
    validate = ntriples.validate_term
    monkeypatch.setattr(ntriples, "validate_term", lambda term: seen.append(term) or validate(term))
    out = tmp_path / "out.nt"
    argv = ["--input", str(source), "--output", str(out), "--config", str(config)]
    assert main(["transform", *argv, "--emit-weights"]) == EXIT_OK
    assert len((tmp_path / "out.nt.weights.tsv").read_text().splitlines()) == 2
    triples, _ = parse_ntriples(out.read_bytes())
    written = {term for t in triples for term in (t.subject, t.predicate, t.object)}
    assert Counter(seen) == Counter(written)


def run_python(*args: str, stdout: int = subprocess.PIPE) -> subprocess.CompletedProcess:
    """A fresh interpreter that imports this package, stderr captured as users see it."""
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    env.pop("LITERAL_FORGE_LOG", None)
    return subprocess.run(
        [sys.executable, *args],
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        timeout=120,
    )


def run_cli(*args: str, stdout: int = subprocess.PIPE) -> subprocess.CompletedProcess:
    return run_python("-m", "literal_forge.cli", *args, stdout=stdout)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_a_fifo_at_a_temp_path_is_refused_at_once(sample_nt, tmp_path):
    # In a child, whose pid names the temp path, so a write that opened the
    # FIFO would block there, until run_python's timeout, not here.
    out = tmp_path / "out.nt"
    script = "\n".join(
        [
            "import os, sys",
            "from literal_forge.cli import main",
            "os.mkfifo(f'{sys.argv[2]}.{os.getpid()}.tmp')",
            "sys.exit(main(['transform', '--input', sys.argv[1], '--output', sys.argv[2],",
            "               '--strategy', 'TRANSFORM']))",
        ]
    )
    done = run_python("-c", script, sample_nt, str(out))
    assert done.returncode == EXIT_INPUT
    [line] = done.stderr.splitlines()
    assert line.startswith("ERROR literal_forge.cli: cannot write output: ")
    [fifo] = [path for path in tmp_path.iterdir() if path.name != "input.nt"]
    assert fifo.name.startswith("out.nt.") and stat.S_ISFIFO(fifo.stat().st_mode)


@pytest.mark.parametrize(
    "command, tampered, expected",
    [("profile", False, EXIT_OK), ("verify", False, EXIT_OK), ("verify", True, EXIT_VERIFY)],
    ids=["profile", "verify-ok", "verify-failing"],
)
def test_a_closed_stdout_keeps_the_exit_code_and_gives_no_traceback(
    sample_nt, tmp_path, command, tampered, expected
):
    source = sample_nt
    if command == "verify":
        code, source = transform(sample_nt, tmp_path)
        assert code == EXIT_OK
        if tampered:
            with open(source, "a", encoding="utf-8") as fh:
                fh.write(rel_line("x", "knows", "y") + "\n")
    read, write = os.pipe()
    os.close(read)  # no reader, so the first write to stdout fails
    try:
        done = run_cli(command, "--input", source, stdout=write)
    finally:
        os.close(write)
    assert done.returncode == expected
    assert done.stderr == ""


# A main() that loads numpy, prints the BLAS thread setting it saw and
# exits with the number of threads the process then has.
_THREADS_AT_MAIN = """
import os
from literal_forge import cli
def main():
    import numpy
    print(os.environ.get("OPENBLAS_NUM_THREADS"))
    return len(os.listdir("/proc/self/task"))
cli.main = main
cli.run()
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
@pytest.mark.parametrize("given", [None, "2"], ids=["unset", "caller-set"])
def test_run_gives_blas_one_thread_unless_the_caller_chose(given):
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    env.pop("OPENBLAS_NUM_THREADS", None)
    if given is not None:
        env["OPENBLAS_NUM_THREADS"] = given
    done = subprocess.run(
        [sys.executable, "-c", _THREADS_AT_MAIN], capture_output=True, text=True, env=env,
        timeout=120,
    )
    assert done.stderr == ""
    assert done.stdout == f"{given or 1}\n"
    if given is None:
        assert done.returncode == 1  # numpy loaded and no BLAS worker started


def test_a_failing_consumer_closes_the_scan_before_the_file(sample_nt):
    # Finalizing the scan after its file has closed would print "Exception
    # ignored ... I/O operation on closed file" to stderr.
    script = "\n".join(
        [
            "import sys",
            "from literal_forge import cli",
            "def consume(rows):",
            "    next(rows)",
            "    raise RuntimeError('consumer failed')",
            "try:",
            "    cli._read_input(sys.argv[1], consume, True)",
            "except RuntimeError as exc:",
            "    print(exc)",
        ]
    )
    done = run_python("-c", script, sample_nt)
    assert done.returncode == 0
    assert done.stdout == "consumer failed\n"
    assert "Exception ignored" not in done.stderr


@pytest.mark.parametrize(
    "provider, named",
    [
        ({"kind": "remote", "endpoint": "http://127.0.0.1:9/tag", "timeout": "abc"}, "remote"),
        ({"kind": "remote", "endpoint": "http://127.0.0.1:9/tag", "retries": "x"}, "remote"),
        ({"kind": "remote", "endpoint": "http://127.0.0.1:9/tag", "timeout": 0}, "remote"),
        ({"kind": "remote", "endpoint": "http://127.0.0.1:9/tag", "retries": -1}, "remote"),
        ({"kind": "remote", "endpoint": "http://127.0.0.1:9/tag", "timeout": True}, "remote"),
        ({"kind": "remote", "endpoint": "http://127.0.0.1:9/tag", "timeout": 10**400}, "remote"),
        ({"kind": "remote", "endpoint": "http://127.0.0.1:9/tag", "retries": True}, "remote"),
        ({"kind": "tag-map", "path": "missing.json"}, "tag-map"),
        ({"kind": "tag-map", "path": "not-json.json"}, "tag-map"),
        ({"kind": "tag-map", "path": "deep.json"}, "tag-map"),
        ({"kind": "tag-map", "path": "latin-1.json"}, "tag-map"),
        ({"kind": "tag-map", "path": "score-above-one.json"}, "tag-map"),
        ({"kind": "tag-map", "path": "score-past-a-float.json"}, "tag-map"),
    ],
    ids=[
        "remote-timeout",
        "remote-retries",
        "remote-timeout-zero",
        "remote-retries-negative",
        "remote-timeout-bool",
        "remote-timeout-past-a-float",
        "remote-retries-bool",
        "tag-map-missing",
        "tag-map-unreadable",
        "tag-map-nested-too-deeply",
        "tag-map-not-utf-8",
        "tag-map-score-above-one",
        "tag-map-score-past-a-float",
    ],
)
def test_bad_image_provider_config_is_a_diagnostic(tmp_path, provider, named):
    graph = tmp_path / "images.nt"
    graph.write_text(rel_line("a", "depiction", "img/a.jpg") + "\n", encoding="utf-8")
    (tmp_path / "not-json.json").write_text("{not json", encoding="utf-8")
    (tmp_path / "deep.json").write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    (tmp_path / "latin-1.json").write_bytes(b'{"caf\xe9": ["building"]}')
    for name, score in (("score-above-one", "1.5"), ("score-past-a-float", "1" + "0" * 400)):
        labels = f'[{{"name": "building", "score": {score}}}]'
        (tmp_path / f"{name}.json").write_text(f'{{"{EX}img/a.jpg": {labels}}}', encoding="utf-8")
    if provider["kind"] == "tag-map":
        provider = {**provider, "path": str(tmp_path / provider["path"])}
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps({"image_predicates": [EX + "depiction"], "image_provider": provider}),
        encoding="utf-8",
    )
    out = tmp_path / "out.nt"
    done = run_cli(
        "transform", "--input", str(graph), "--output", str(out), "--config", str(config)
    )
    assert done.returncode == EXIT_CONFIG
    assert "Traceback" not in done.stderr
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("ERROR ")
    assert f"{named} provider" in lines[0]
    assert not out.exists()


# (modality, strategy, parameter, a value out of its range); "lof.k" is k
# inside the lof object.
INT_PARAMS = [
    ("numeric", "NBINS", "bins", 0),
    ("numeric", "NBINS", "hierarchy_depth", -1),
    ("numeric", "NBINS", "lof.k", 0),
    ("numeric", "KLREL", "split_threshold", 0),
    ("text", "TXTLDA", "topics", 0),
    ("text", "TXTLDA", "iterations", -3),
    ("image", "IMAGETAGS", "max_in_flight", 0),
]
NUMBER_PARAMS = [
    ("numeric", "NBINS", "percent", 0),
    ("numeric", "NBINS", "overlap", -0.5),
    ("numeric", "NBINS", "lof.threshold", 0),
    ("text", "TXTLDA", "alpha", -5),
    ("text", "TXTLDA", "beta", 0),
    ("text", "TXTLDA", "threshold", 0),
]


def _param_config(modality: str, strategy: str, key: str, value) -> dict:
    params = {"lof": {key[4:]: value}} if key.startswith("lof.") else {key: value}
    return {"defaults": {modality: {"strategy": strategy, "params": params}}}


# (key, bad value, config): every numeric parameter with each kind of value
# that is wrong for it (alpha alone may be null; an integer past the float
# range is no number), then top-level shapes.
BAD_CONFIGS = [
    *(
        (key, value, _param_config(modality, strategy, key, value))
        for modality, strategy, key, low in INT_PARAMS
        for value in (None, "5", 2.5, True, low)
    ),
    *(
        (key, value, _param_config(modality, strategy, key, value))
        for modality, strategy, key, low in NUMBER_PARAMS
        for value in ("0.5", True, low, 10**400, *(() if key == "alpha" else (None,)))
    ),
    ("numeric", "abc", _param_config("numeric", "COMBINED", "numeric", "abc")),
    # IMAGETAGS' entity allowance is its group's distinct images; no key sets it.
    ("vocabulary", 1000, _param_config("image", "IMAGETAGS", "vocabulary", 1000)),
    ("image_predicates", 5, {"image_predicates": 5}),
    ("predicate_modalities", "abc", {"predicate_modalities": "abc"}),
    ("overrides", 5, {"overrides": 5}),
    ("namespace", 5, {"namespace": 5}),
    ("workers", 2, {"workers": 2}),
]


def test_bad_config_values_stop_before_the_input_is_read(tmp_path):
    """Exit 2, not the missing input's 1: the config is checked first."""
    configs = []
    for index, (_, _, config) in enumerate(BAD_CONFIGS):
        path = tmp_path / f"config{index}.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        configs.append(str(path))
    absent, out = str(tmp_path / "absent.nt"), str(tmp_path / "out.nt")

    def run(config: str) -> subprocess.CompletedProcess:
        return run_cli("transform", "--input", absent, "--output", out, "--config", config)

    with ThreadPoolExecutor(max_workers=2) as pool:
        results = list(pool.map(run, configs))
    wrong = []
    for (key, value, _), done in zip(BAD_CONFIGS, results):
        lines = done.stderr.splitlines()
        if not (
            done.returncode == EXIT_CONFIG
            and len(lines) == 1
            and lines[0].startswith("ERROR ")
            and all(part in lines[0].lower() for part in key.split("."))
        ):
            wrong.append(f"{key}={value!r}: exit {done.returncode}, stderr {done.stderr!r}")
    assert not wrong, "\n".join(wrong)


@pytest.mark.parametrize("where", ["config", "tag-map", "top-level"])
def test_a_refused_value_is_shown_shortened(tmp_path, where):
    # 4000 digits: under the int-to-str limit, so the message could show it all.
    huge = 10**3999
    config, tags = tmp_path / "config.json", tmp_path / "tags.json"
    settings, key = _param_config("numeric", "NBINS", "overlap", huge), "overlap"
    graph = tmp_path / "images.nt"
    graph.write_text(rel_line("a", "depiction", "img/a.jpg") + "\n", encoding="utf-8")
    if where == "tag-map":
        tags.write_text(json.dumps({EX + "img/a.jpg": [{"name": "x", "score": huge}]}))
        settings = {
            "image_predicates": [EX + "depiction"],
            "image_provider": {"kind": "tag-map", "path": str(tags)},
        }
        key = "score"
    elif where == "top-level":
        settings, key = list(range(2000)), "JSON object"
    config.write_text(json.dumps(settings), encoding="utf-8")
    out = str(tmp_path / "out.nt")
    done = run_cli("transform", "--input", str(graph), "--output", out, "--config", str(config))
    lines = done.stderr.splitlines()
    assert done.returncode == EXIT_CONFIG and len(lines) == 1, done.stderr[:500]
    assert lines[0].startswith("ERROR ") and key in lines[0]
    assert len(lines[0]) <= 200 and lines[0].endswith("..."), lines[0]


@pytest.mark.parametrize("command", ["transform", "profile"])
@pytest.mark.parametrize(
    "key, config",
    [
        ("namespace", {"namespace": "http://x.org/ new/"}),
        (
            "prefix",
            {"defaults": {"image": {"strategy": "IMAGETAGS", "params": {"prefix": "a b>"}}}},
        ),
    ],
    ids=["namespace", "prefix"],
)
def test_iri_characters_in_config_stop_before_the_input_is_read(
    tmp_path, caplog, command, key, config
):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    output = ["--output", str(tmp_path / "out.nt")] if command == "transform" else []
    absent = str(tmp_path / "absent.nt")
    with caplog.at_level(logging.ERROR, logger="literal_forge.cli"):
        code = main([command, "--input", absent, "--config", str(path), *output])
    assert code == EXIT_CONFIG
    [message] = [r.getMessage() for r in caplog.records if r.name == "literal_forge.cli"]
    assert key in message and "no IRI may hold" in message


# Runs cli.main with numpy blocked, then prints which strategy modules, and
# whether OpenSSL's _hashlib, dataclasses and inspect, loaded: after the
# relational commands, then after a DATFEAT transform.
_WITHOUT_NUMPY = """
import json, sys
sys.modules["numpy"] = None  # every import of numpy now raises ImportError
from literal_forge.cli import main
graph, dates, out = sys.argv[1:]
names = ["numpy", "_hashlib", "dataclasses", "inspect"] + [
    "literal_forge." + name for name in ("binning", "subpop", "temporal", "textlda", "images")
]
def loaded():
    return [name for name in names if sys.modules.get(name) is not None]
codes = [
    main(["profile", "--input", graph]),
    main(["transform", "--input", graph, "--output", out]),
    main(["verify", "--input", out]),
]
relational = loaded()
codes.append(main(["transform", "--input", dates, "--output", out, "--strategy", "DATFEAT"]))
print(json.dumps({"codes": codes, "loaded": [relational, loaded()],
                  "numpy": sys.modules["numpy"] is not None}))
"""

# Runs one command with numpy present and prints whether numpy and numpy.ma
# loaded, which of the package's modules, and whether dataclasses and inspect.
_WITH_NUMPY = """
import json, sys
from literal_forge.cli import main
code = main(sys.argv[1:])
modules = sorted(name for name in sys.modules if name.startswith("literal_forge."))
native = [name for name in ("numpy.random", "secrets", "hashlib", "_hashlib") if name in sys.modules]
stdlib = [name for name in ("dataclasses", "inspect") if name in sys.modules]
print(json.dumps({"code": code, "numpy": "numpy" in sys.modules, "ma": "numpy.ma" in sys.modules,
                  "modules": modules, "native": native, "stdlib": stdlib}))
"""

# Imports the package alone, then reads every name of __all__ and one unknown.
_PACKAGE = """
import json, sys
import literal_forge
loaded = [name for name in sys.modules if name.startswith("literal_forge.")]
unresolved = [name for name in literal_forge.__all__ if getattr(literal_forge, name, None) is None]
try:
    literal_forge.no_such_name
    unknown = None
except AttributeError as exc:
    unknown = str(exc)
print(json.dumps({"loaded": loaded, "unresolved": unresolved, "unknown": unknown}))
"""


def test_profile_verify_and_relational_transform_import_no_numpy(tmp_path):
    boolean = f'<{EX}a> <{EX}active> "true"^^<http://www.w3.org/2001/XMLSchema#boolean> .'
    files = {
        "graph.nt": [rel_line("a", "knows", "b"), rel_line("b", "knows", "c"), boolean],
        "dates.nt": [
            date_line("a", "founded", "2001-05-14"),
            date_line("b", "founded", "1999-12-31"),
        ],
        "numbers.nt": [numeric_line(f"n{i}", "height", f"{i}.5") for i in range(4)]
        + [rel_line("n0", "knows", "n1"), rel_line("n2", "locatedIn", "n3")],
        "text.nt": [
            text_line(f"t{i}", "abstract", f"wind and solar power plant number {i}")
            for i in range(6)
        ],
    }
    for name, lines in files.items():
        (tmp_path / name).write_text("\n".join(lines) + "\n", encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}

    def python(*args: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120
        )

    paths = [str(tmp_path / name) for name in ("graph.nt", "dates.nt", "out.nt")]
    done = python("-c", _WITHOUT_NUMPY, *paths)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result == {
        "codes": [EXIT_OK] * 4,
        "loaded": [[], ["literal_forge.temporal"]],
        "numpy": False,
    }

    def run(*argv: str) -> dict:
        done = python("-c", _WITH_NUMPY, *argv)
        assert done.returncode == 0, done.stderr
        return json.loads(done.stdout.splitlines()[-1])

    # Binning and the relational-signature split load numpy but not numpy.ma.
    split = tmp_path / "split.json"
    config = {"defaults": {"numeric": {"strategy": "KLREL", "params": {"split_threshold": 2}}}}
    split.write_text(json.dumps(config), encoding="utf-8")
    numbers, split_out = str(tmp_path / "numbers.nt"), str(tmp_path / "split.nt")
    result = run("transform", "--input", numbers, "--output", split_out, "--config", str(split))
    assert (result["code"], result["numpy"], result["ma"]) == (EXIT_OK, True, False)
    assert "dataclasses" not in result["stdlib"]  # numpy itself loads inspect
    [row] = AugmentationReport.from_file(split_out + ".report.json").rows
    assert row.strategy == "KLREL" and row.detail["leaves"] > 1

    # Topic models draw from the standard library's generator and seed it
    # without hashlib, so neither numpy.random nor OpenSSL is mapped.
    text, topics_out = str(tmp_path / "text.nt"), str(tmp_path / "topics.nt")
    result = run("transform", "--input", text, "--output", topics_out, "--strategy", "TXTLDA")
    assert (result["code"], result["numpy"], result["native"]) == (EXIT_OK, True, [])
    assert "dataclasses" not in result["stdlib"]
    [row] = AugmentationReport.from_file(topics_out + ".report.json").rows
    assert row.strategy == "TXTLDA" and row.delta_entities > 0

    # verify loads the report module and the plan contract, not the pipeline;
    # profile loads the report module and the graph, and the plan contract and
    # the pipeline only to read a config.
    common = ["cli", "ntriples", "report", "terms"]
    for argv, extra in [
        (["verify", "--input", paths[2]], ["plans"]),
        (["profile", "--input", paths[0]], ["graph"]),
        (
            ["profile", "--input", numbers, "--config", str(split)],
            ["baselines", "graph", "pipeline", "plans"],
        ),
    ]:
        modules = sorted(f"literal_forge.{name}" for name in common + extra)
        assert run(*argv) == {
            "code": EXIT_OK, "numpy": False, "ma": False, "modules": modules, "native": [],
            "stdlib": [],
        }

    # The package alone loads no submodule and serves each exported name on first read.
    done = python("-c", _PACKAGE)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == {
        "loaded": [],
        "unresolved": [],
        "unknown": "module 'literal_forge' has no attribute 'no_such_name'",
    }

    # A strategy whose import fails fails the run; no fallback absorbs it.
    binned = tmp_path / "binned.nt"
    main_without_numpy = (
        "import sys; sys.modules['numpy'] = None\n"
        "from literal_forge.cli import main; sys.exit(main())"
    )
    done = python(
        "-c", main_without_numpy, "transform", "--input", numbers, "--output", str(binned),
        "--strategy", "NBINS",
    )
    assert done.returncode != 0
    assert "import of numpy halted" in done.stderr
    assert not binned.exists() and not (tmp_path / "binned.nt.report.json").exists()


def test_zero_score_label_is_linked_without_a_weight(tmp_path):
    graph = tmp_path / "images.nt"
    lines = [rel_line("a", "depiction", "img/a.jpg"), rel_line("b", "depiction", "img/b.jpg")]
    graph.write_text("\n".join(lines) + "\n", encoding="utf-8")
    tags = tmp_path / "tags.json"
    tags.write_text(
        json.dumps(
            {
                EX + "img/a.jpg": [{"name": "blank", "score": 0.0}],
                EX + "img/b.jpg": [{"name": "tower", "score": 0.5}],
            }
        ),
        encoding="utf-8",
    )
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "image_predicates": [EX + "depiction"],
                "image_provider": {"kind": "tag-map", "path": str(tags)},
            }
        ),
        encoding="utf-8",
    )
    out = tmp_path / "out.nt"
    code = main(
        [
            "transform",
            "--input",
            str(graph),
            "--output",
            str(out),
            "--config",
            str(config),
            "--emit-weights",
        ]
    )
    assert code == EXIT_OK
    blank = f"<{EX}a> <{EX}depiction> <{NEW}VGG_blank> ."
    tower = f"<{EX}b> <{EX}depiction> <{NEW}VGG_tower> ."
    assert out.read_text(encoding="utf-8").splitlines() == [blank, tower]
    weights = Path(str(out) + ".weights.tsv").read_text(encoding="utf-8")
    assert weights.splitlines() == [f"{tower}\t0.500000"]


def test_an_empty_image_iri_is_one_miss_not_a_failed_group(tmp_path, caplog, capsys):
    graph = tmp_path / "images.nt"
    lines = [
        f"<{EX}a> <{EX}depiction> <> .",
        rel_line("b", "depiction", "img/b.jpg"),
        rel_line("c", "depiction", "img/c.jpg"),
    ]
    graph.write_text("\n".join(lines) + "\n", encoding="utf-8")
    tags = write_tag_map(tmp_path / "tags.json", {EX + "img/b.jpg": "bridge", EX + "img/c.jpg": "tower"})
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {"image_predicates": [EX + "depiction"], "image_provider": {"kind": "tag-map", "path": tags}}
        ),
        encoding="utf-8",
    )
    out = str(tmp_path / "out.nt")
    argv = ["transform", "--input", str(graph), "--output", out, "--config", str(config)]
    assert main(argv) == EXIT_OK
    assert Path(out).read_text(encoding="utf-8").splitlines() == [
        f"<{EX}a> <{EX}depiction> <{NEW}depictionAnyValue> .",
        f"<{EX}b> <{EX}depiction> <{NEW}VGG_bridge> .",
        f"<{EX}c> <{EX}depiction> <{NEW}VGG_tower> .",
    ]
    (row,) = AugmentationReport.from_file(out + ".report.json").rows
    assert (row.strategy, row.fallback_statements, row.fell_back_to) == ("IMAGETAGS", 1, None)
    assert "failed" not in caplog.text
    capsys.readouterr()
    assert main(["verify", "--input", out]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["ok"] is True
