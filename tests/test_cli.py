"""Command-line interface: subcommands, exit codes, and file outputs."""

from __future__ import annotations

import gzip
import io
import json
import logging
import sys
import types
from pathlib import Path

import pytest

from literal_forge import AugmentationReport, SerializationError, baselines, cli
from literal_forge.cli import (
    EXIT_CONFIG,
    EXIT_INPUT,
    EXIT_OK,
    EXIT_STRATEGY,
    EXIT_VERIFY,
    _setup_logging,
    main,
)
from util import EX, NEW, date_line, numeric_line, rel_line, text_line


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

    def test_weights_sidecar(self, sample_nt, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps(
                {
                    "defaults": {
                        "text": {
                            "strategy": "TXTLDA",
                            "params": {"topics": 2, "iterations": 40, "threshold": 0.05},
                        }
                    }
                }
            ),
            encoding="utf-8",
        )
        code, out = transform(
            sample_nt, tmp_path, "--config", str(config), "--emit-weights"
        )
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
        code, out = transform(sample_nt, tmp_path, "--strategy", "TRANSFORM")
        assert code == EXIT_OK
        assert not (tmp_path / "out.nt.weights.tsv").exists()

    def test_unknown_strategy(self, sample_nt, tmp_path):
        code, _ = transform(sample_nt, tmp_path, "--strategy", "SHRED")
        assert code == EXIT_CONFIG

    def test_bad_workers(self, sample_nt, tmp_path):
        code, _ = transform(sample_nt, tmp_path, "--workers", "0")
        assert code == EXIT_CONFIG

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

    def test_tampered_output_fails(self, sample_nt, tmp_path, capsys):
        _, out = transform(sample_nt, tmp_path, "--strategy", "TRANSFORM")
        with open(out, "a", encoding="utf-8") as fh:
            fh.write(f"<{EX}x> <{EX}ghost> <{NEW}ghostAnyValue> .\n")
        assert main(["verify", "--input", out]) == EXIT_VERIFY
        assert json.loads(capsys.readouterr().out)["problems"]

    def test_missing_report(self, sample_nt, tmp_path):
        assert main(["verify", "--input", sample_nt]) == EXIT_INPUT

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


def test_transform_exits_verify_on_failed_bound(sample_nt, tmp_path, monkeypatch, caplog):
    real = baselines.one_entity

    def overgrown(group, graph, namespace):
        aug = real(group, graph, namespace)
        aug.triples.append(aug.triples[0])  # one past the exact bound of S
        aug.weights.append(None)
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


def test_text_output_identical_across_worker_counts(tmp_path):
    words = "solar wind turbine panel grid storage battery river dam tide".split()
    lines = []
    for i in range(30):
        lines.append(text_line(f"s{i}", "abstract", " ".join(words[i % 7 : i % 7 + 4])))
        lines.append(text_line(f"s{i}", "summary", " ".join(words[(i * 3) % 6 :][:5])))
        lines.append(numeric_line(f"s{i}", "capacity", f"{i * 1.5}"))
    path = tmp_path / "text.nt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    outputs = []
    for workers in (["--workers", "1"], [], ["--workers", "3"]):
        out = tmp_path / f"out{len(outputs)}.nt"
        assert main(["transform", "--input", str(path), "--output", str(out), *workers]) == EXIT_OK
        outputs.append((out.read_bytes(), (tmp_path / f"{out.name}.report.json").read_bytes()))
    assert b"abstractTopic" in outputs[0][0] and b"summaryTopic" in outputs[0][0]
    assert outputs[1] == outputs[0]
    assert outputs[2] == outputs[0]


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


def test_workers_option_is_deprecated(sample_nt, tmp_path, caplog):
    with caplog.at_level(logging.WARNING, logger="literal_forge.pipeline"):
        code, _ = transform(sample_nt, tmp_path, "--workers", "2")
    assert code == EXIT_OK
    assert any("deprecated" in r.getMessage() for r in caplog.records)


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
    def write_then_fail(triples, out):
        out.write(b"<http://ex.org/partial> ")
        raise SerializationError("unserializable term")

    monkeypatch.setattr(cli, "write_ntriples", write_then_fail)


def _fail_report(monkeypatch):
    def disk_full(self, indent=2):
        raise OSError("no space left on device")

    monkeypatch.setattr(AugmentationReport, "to_json", disk_full)


def _fail_weights(monkeypatch):
    def reject(triples):
        raise SerializationError("unserializable term")

    monkeypatch.setattr(cli, "format_lines", reject)


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
