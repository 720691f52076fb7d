"""`transform` output and report bytes on the city fixture, pinned by sha256.

Every strategy runs on the same six-statement fixture, with the depiction
predicate read as an image and a one-label tag map. The strategies that score
their links also have the bytes of their `--emit-weights` sidecar pinned. A
change to minted names, statement order, counts, scores or report layout
changes a hash here; update a hash only together with a CHANGES.md line that
declares the change.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from literal_forge.cli import EXIT_OK, main
from util import EX, MANNHEIM_NT, write_tag_map

GOLDEN = {
    "COMBINED": (
        "7a3f83851c50f8098f7be4ba026719ca1cf0af377bee62c50d4e7ec452c3fc29",
        "2b53f27b8d7ad765a15f1bcb1ae9ddf7839a2a383f1c71532e4e42a91ad6da6d",
    ),
    "EXCLUDE": (
        "52f2a9bb284c2c1c733f756dcffeb3c9a7b347bf351ce7c40fb6dd064bdb9fe5",
        "8781fcf4837d58940eab106c29969c932c237eaf72bb675ebdab98947aad7fa2",
    ),
    "TRANSFORM": (
        "22336a0d9502bad627e41e5de85840c592b4f781256148a2a5cf10aaf983ba82",
        "3d1480f748bac782ac1ec05a7fadde73594792b8de511a1f70f7385ebadadec4",
    ),
    "ONEENTITY": (
        "a3788e8d6bff319c2ec028f519ec36bce03d64b43e79293cb59e965ee95d0e85",
        "0424c7bcfb7c008e66851202bda563298d785e3225066a7eefe5b4decddc54a8",
    ),
    "NBINS": (
        "2cfc7bff75ba45525ff32cace2f867d6419f6f7404ed5527c731fed48ce59002",
        "484a9b2ba74349a70020dddfedddc15aeeeaca33346e242d92fc881648d7beed",
    ),
    "PBINS": (
        "2cfc7bff75ba45525ff32cace2f867d6419f6f7404ed5527c731fed48ce59002",
        "fec172f896c80779e87cce739dc594aaa194b31d3c0727a224c586cac637f441",
    ),
    "KLREL": (
        "2cfc7bff75ba45525ff32cace2f867d6419f6f7404ed5527c731fed48ce59002",
        "ae07e16aca58a419b2e1bab7ed467c4ae9d0b908e7441095e67597751830d56b",
    ),
    "KLRELENT": (
        "2cfc7bff75ba45525ff32cace2f867d6419f6f7404ed5527c731fed48ce59002",
        "6659f11c26ccb924c375120958c543055474599138d4b5823b03748ff77367e6",
    ),
    "DATBIN": (
        "d1364d8f55105903f834213066d1dd88627380c8e4807fd5d79812e0f7305142",
        "4a210f4377090ae81a4209b95fde419fa91ec41539c0c2568fbb74d9dc7b60cb",
    ),
    "DATFEAT": (
        "47af1bfd3d7f20633193303690f32286508e2d425fbb22a4693f952971a17c6b",
        "16de51f453d0ad35012be51d336a68d09f797a7db836050ff830d0018b164414",
    ),
    "TXTLDA": (
        "daf5b6269b559c1483d2f6e835f1aecd96869fba5e92736f0b15b1d388cb3621",
        "b92ff1206422d2eb5f34b012ce0de704c2473b176f18f340685c797976dd73b7",
    ),
    "IMAGETAGS": (
        "0de05f035d3fb31a2ff4f685b6928ceca01ddcf8e1525baa18e0ba458a57ce20",
        "f85fbc71e5ab1e81238abeaa59ebf1a928e0d03b4f5dff66f86f6615a676cb0e",
    ),
}


# sha256 of <output>.weights.tsv, for the strategies that score links.
WEIGHTS = {
    "COMBINED": "772f16a9fad9f36186d42965d6eb2383b68630442d4759d02191bfe086629bd0",
    "IMAGETAGS": "e65fa39f1e4bed41cd775b3774119b5f86ad3cc5c98ca5233c692a3c88ea9f34",
    "TXTLDA": "ad92036536338d1d786ce14a595708c62315776f929894d2c7a1cdd913461801",
}


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_transform(tmp_path, strategy: str, *extra: str):
    """The output path of one CLI transform run on the city fixture."""
    source = tmp_path / "mannheim.nt"
    source.write_bytes(MANNHEIM_NT)
    tags = write_tag_map(tmp_path / "tags.json", {EX + "img/mannheim.jpg": "building"})
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "image_predicates": [EX + "depiction"],
                "image_provider": {"kind": "tag-map", "path": tags},
            }
        ),
        encoding="utf-8",
    )
    out = tmp_path / "out.nt"
    argv = ["transform", "--input", str(source), "--output", str(out), "--config", str(config)]
    assert main([*argv, "--strategy", strategy, *extra]) == EXIT_OK
    return out


@pytest.mark.parametrize("strategy", sorted(GOLDEN))
def test_transform_bytes_are_pinned(tmp_path, strategy):
    out = run_transform(tmp_path, strategy)
    assert (sha256(out), sha256(tmp_path / "out.nt.report.json")) == GOLDEN[strategy]


@pytest.mark.parametrize("strategy", sorted(WEIGHTS))
def test_weights_bytes_are_pinned(tmp_path, strategy):
    out = run_transform(tmp_path, strategy, "--emit-weights")
    assert (sha256(out), sha256(tmp_path / "out.nt.report.json")) == GOLDEN[strategy]
    assert sha256(tmp_path / "out.nt.weights.tsv") == WEIGHTS[strategy]
