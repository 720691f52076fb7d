"""The whole pipeline under hypothesis: transform twice, then verify.

Each example is a small graph drawn from a fixed pool of statements, run
through ``transform`` under one of the twelve ``--strategy`` values and
checked by ``verify``, all through ``cli.main`` in process. The runs must
succeed, give the same bytes twice, keep every relational statement and
leave no literal in the output.

The pool deliberately avoids the shapes that still mint one IRI for two
predicates ("Injective minting" in ROADMAP.md): local names that are equal
or prefixes of one another, one predicate holding two modalities, and
calendar words (``month``, ``day``, ``quarter``, ``year``, weekdays) as local
names. They join the pool once minting is injective.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from literal_forge import cli
from literal_forge.pipeline import STRATEGIES

from util import EX, date_line, numeric_line, rel_line, text_line

XSD_BOOLEAN = "http://www.w3.org/2001/XMLSchema#boolean"

# Extreme and repeated magnitudes: past half the largest float, the smallest
# subnormal, zero in two spellings, and a few ordinary values.
HEIGHTS = ["1.7e308", "-1.7e308", "5e-324", "0", "0.0", "1.5", "2", "-3.25", "180.5", "1e10"]
# Invalid days and a year past 9999 fall back to the AnyValue entity.
BORN = ["1607-01-24", "1970-01-01", "2000-02-29", "1999-12-31", "2020-06-15", "0001-01-01",
        "2019-02-29", "2020-13-01", "10000-01-01", "notadate"]
ABSTRACTS = [
    "solar panels convert sunlight into power",
    "wind turbines convert motion into power",
    "the river flows past the old mill",
    "a tall tower stands by the river",
]
IMAGES = [f"img/{i}.jpg" for i in range(4)]
TAGS = {EX + "img/0.jpg": ["tower"], EX + "img/1.jpg": ["bridge"], EX + "img/2.jpg": ["tower"]}
SUBJECTS = st.integers(0, 7).map(lambda i: f"s{i}")

STATEMENTS = st.one_of(
    st.builds(rel_line, SUBJECTS, st.just("knows"), SUBJECTS),
    st.builds(rel_line, SUBJECTS, st.just("type"), st.sampled_from(["Person", "Building"])),
    st.builds(numeric_line, SUBJECTS, st.just("height"), st.sampled_from(HEIGHTS)),
    st.builds(date_line, SUBJECTS, st.just("born"), st.sampled_from(BORN)),
    st.builds(text_line, SUBJECTS, st.just("abstract"), st.sampled_from(ABSTRACTS)),
    st.builds(
        lambda s, v: f'<{EX}{s}> <{EX}flag> "{v}"^^<{XSD_BOOLEAN}> .',
        SUBJECTS,
        st.sampled_from(["true", "false", "1"]),
    ),
    st.builds(rel_line, SUBJECTS, st.just("depiction"), st.sampled_from(IMAGES)),
)


def _overrides(strategy: str) -> dict:
    """Plans that keep each example small, where *strategy* already applies
    them: LOF with k=2 scores groups of three values or more, and a
    two-topic model trains in a few sweeps."""
    numeric = "KLREL" if strategy == "COMBINED" else strategy
    out = {}
    if numeric in ("NBINS", "PBINS", "KLREL", "KLRELENT"):
        out[EX + "height"] = {"strategy": numeric, "params": {"lof": {"k": 2}}}
    if strategy in ("TXTLDA", "COMBINED"):
        out[EX + "abstract"] = {"strategy": "TXTLDA", "params": {"topics": 2, "iterations": 20}}
    return out


def _main(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


@given(st.lists(STATEMENTS, min_size=1, max_size=60), st.sampled_from(sorted(STRATEGIES)))
@settings(max_examples=200, deadline=None)
def test_transform_is_repeatable_and_verifies(lines, strategy):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "in.nt").write_text("\n".join(lines) + "\n", encoding="utf-8")
        (root / "tags.json").write_text(json.dumps(TAGS), encoding="utf-8")
        config = {
            "image_predicates": [EX + "depiction"],
            "image_provider": {"kind": "tag-map", "path": str(root / "tags.json")},
            "overrides": _overrides(strategy),
        }
        (root / "config.json").write_text(json.dumps(config), encoding="utf-8")
        runs = []
        for name in ("a.nt", "b.nt"):
            argv = ["transform", "--input", str(root / "in.nt"), "--output", str(root / name)]
            code, _ = _main([*argv, "--config", str(root / "config.json"), "--strategy", strategy])
            assert code == 0
            runs.append(((root / name).read_bytes(), (root / f"{name}.report.json").read_bytes()))
        assert runs[0] == runs[1]
        code, verdict = _main(["verify", "--input", str(root / "a.nt")])
        assert code == 0
        assert json.loads(verdict)["ok"] is True

        output = runs[0][0].decode("utf-8").splitlines()
        relational = {line for line in lines if "/knows>" in line or "/type>" in line}
        assert relational <= set(output)
        assert not [line for line in output if '"' in line]
