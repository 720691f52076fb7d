"""The exit-code contract of the command line under mutated inputs.

Valid files (an input graph, a config, a tag map, a transform output and its
report) are mutated by byte flips, truncation, inserted bytes that are not
UTF-8, huge numbers and deep nesting. Each subcommand that reads the mutated
file runs in process and must return an exit code of the contract (0 to 4),
never raise.

Huge ``topics`` and ``iterations`` values are left out: TXTLDA then
allocates and loops in proportion, which is the work the config asks for.
"""

from __future__ import annotations

import contextlib
import gzip
import io
import json
import re

import pytest
from hypothesis import HealthCheck, event, given, settings, strategies as st

from literal_forge import cli
from literal_forge.images import ProviderError, RemoteTagProvider
from util import EX, IMAGE_RULES, date_line, numeric_line, rel_line, text_line

CONTRACT = {0, 1, 2, 3, 4}

# A number after one of these keys is never made huge.
_SIZED = re.compile(rb'"(topics|iterations)"\s*:\s*$')
_NUMBER = re.compile(rb"-?[0-9]+(\.[0-9]+)?")
_HUGE = [b"1e400", b"-1e400", b"1e-400", b"9" * 40, b"-" + b"9" * 40, b"9" * 400, b"1.79e308"]
# The value of a number-typed key, which the huge mutation also makes an
# integer past the float range.
_NUMBER_FIELD = re.compile(rb'"(?:threshold|alpha|overlap|score)"\s*:\s*(-?[0-9]+(?:\.[0-9]+)?)')
_NOT_UTF8 = [b"\xff", b"\xc3", b"\xed\xa0\x80", b"\x00", b"\xf4\x90\x80\x80"]


def _graph_lines() -> list[str]:
    lines = [rel_line("a", "knows", "b"), rel_line("b", "knows", "c")]
    lines += [numeric_line(f"n{i}", "height", f"{i}.5") for i in range(12)]
    lines += [date_line(f"d{i}", "founded", f"200{i}-05-1{i}") for i in range(3)]
    lines.append(text_line("t0", "abstract", "solar panels convert sunlight into power"))
    lines.append(text_line("t1", "abstract", "wind turbines convert motion into power"))
    lines += [rel_line(f"p{i}", "depiction", f"img/{i}.jpg") for i in range(3)]
    return lines


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Paths of the valid files, and their bytes, by name."""
    root = tmp_path_factory.mktemp("contract")
    paths = {name: root / name for name in ("input.nt", "config.json", "tags.json")}
    paths["input.nt"].write_text("\n".join(_graph_lines()) + "\n", encoding="utf-8")
    tags = {EX + "img/0.jpg": [{"name": "tower", "score": 0.9}], EX + "img/1.jpg": ["bridge"]}
    paths["tags.json"].write_text(json.dumps(tags), encoding="utf-8")
    config = {
        "seed": 3,
        "image_predicates": sorted(IMAGE_RULES.image_predicates),
        "image_provider": {"kind": "tag-map", "path": str(paths["tags.json"])},
        "defaults": {
            "numeric": {
                "strategy": "KLREL",
                "params": {"bins": 3, "overlap": 0.0, "lof": {"k": 4, "threshold": 1.5}},
            },
            "temporal": {"strategy": "DATBIN", "params": {"bins": 2, "hierarchy_depth": 1}},
            "text": {"strategy": "TXTLDA", "params": {"topics": 2, "iterations": 5, "alpha": 0.5}},
        },
        "overrides": {EX + "founded": {"strategy": "DATFEAT"}},
        "stopwords": {"en": ["into"]},
    }
    paths["config.json"].write_text(json.dumps(config, indent=1), encoding="utf-8")
    paths["output.nt"] = root / "output.nt"
    argv = ["transform", "--input", str(paths["input.nt"]), "--output", str(paths["output.nt"])]
    assert cli.main([*argv, "--config", str(paths["config.json"])]) == 0
    paths["report.json"] = root / "output.nt.report.json"
    paths["input.nt.gz"] = root / "input.nt.gz"
    paths["input.nt.gz"].write_bytes(gzip.compress(paths["input.nt"].read_bytes(), mtime=0))
    valid = {name: path.read_bytes() for name, path in paths.items()}
    case = root / "case"
    case.mkdir()
    return _Files((paths, valid, case))


class _Files(tuple):
    def __repr__(self) -> str:  # hypothesis prints it with each failing example
        return "<valid files>"


@st.composite
def mutations(draw, data: bytes) -> bytes:
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["flip", "truncate", "insert", "huge", "nest"]))
        at = draw(st.integers(0, len(data)))
        numbers = [m for m in _NUMBER.finditer(data) if not _SIZED.search(data, 0, m.start())]
        if kind == "flip" and at < len(data):
            data = data[:at] + bytes([data[at] ^ draw(st.integers(1, 255))]) + data[at + 1 :]
        elif kind == "truncate":
            data = data[:at]
        elif kind == "insert":
            chunk = draw(st.sampled_from(_NOT_UTF8) | st.binary(min_size=1, max_size=6))
            data = data[:at] + chunk + data[at:]
        elif kind == "huge" and numbers:
            fields = [m.span(1) for m in _NUMBER_FIELD.finditer(data)]
            if fields and draw(st.booleans()):
                (start, end), value = draw(st.sampled_from(fields)), b"9" * 400
            else:
                m = draw(st.sampled_from(numbers))
                (start, end), value = m.span(), draw(st.sampled_from(_HUGE))
            data = data[:start] + value + data[end:]
        elif kind == "nest":
            depth = draw(st.sampled_from([3, 900, 5000, 100_000]))
            opener, closer = draw(st.sampled_from([(b"[", b"]"), (b'{"a":', b"}")]))
            if numbers and draw(st.booleans()):  # a value of the file, nested deeply
                m = draw(st.sampled_from(numbers))
                at, end, core = m.start(), m.end(), m.group()
            else:
                end, core = at, b"1"
            data = data[:at] + opener * depth + core + closer * depth + data[end:]
    return data


def _run(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _commands(paths: dict, case, target: str) -> list[list[str]]:
    """The commands that read the mutated *target*, which sits in *case*."""
    def at(name):
        return str(case / name if name == target else paths[name])

    transform = ["transform", "--input", at("input.nt"), "--output", str(case / "out.nt")]
    transform += ["--config", at("config.json")]
    verify = ["verify", "--input", at("output.nt"), "--report", at("report.json")]
    return {
        "input.nt": [["profile", "--input", at("input.nt")], transform],
        "input.nt.gz": [["profile", "--input", at("input.nt.gz")]],
        "config.json": [["profile", "--input", at("input.nt"), "--config", at("config.json")], transform],
        "tags.json": [transform],
        "output.nt": [verify],
        "report.json": [verify],
    }[target]


TARGETS = ["input.nt", "input.nt.gz", "config.json", "tags.json", "output.nt", "report.json"]


@pytest.mark.parametrize("target", TARGETS)
@given(data=st.data())
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
def test_mutated_files_keep_the_exit_code_contract(files, target, data, monkeypatch):
    paths, valid, case = files
    # A remote provider spelled by a mutation must not reach the network.
    monkeypatch.setattr(RemoteTagProvider, "_post", _offline)
    mutated = data.draw(mutations(valid[target]), label="bytes")
    if target == "tags.json":
        config = json.loads(valid["config.json"])
        config["image_provider"]["path"] = str(case / target)
        (case / "config.json").write_text(json.dumps(config), encoding="utf-8")
        paths = {**paths, "config.json": case / "config.json"}
    (case / target).write_bytes(mutated)
    for argv in _commands(paths, case, target):
        code = _run(argv)
        event(f"{argv[0]} exits {code}")
        assert code in CONTRACT, argv


def _offline(provider, body):
    raise ProviderError("no network in this test")
