"""Image reference resolution, tag providers, and label statement emission.

Remote-provider behavior is exercised against a real in-process HTTP server
so the wire contract, retries, and miss handling are tested end to end.
"""

from __future__ import annotations

import base64
import hashlib
import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from literal_forge import IRI, Modality, ModalityRules
from literal_forge.images import (
    ImageRef,
    LabelDistribution,
    ProviderError,
    RemoteTagProvider,
    TagMapProvider,
    _parse_labels,
    emit_image_triples,
    resolve_image_refs,
    top_label,
)

from util import EX, NEW, XSD, make_graph, rel_line, write_tag_map

IMG_RULES = ModalityRules(image_predicates=frozenset({EX + "depiction"}))
PNG_BYTES = b"\x89PNG\r\n\x1a\nfakepixels"


def depiction_lines(count=3):
    return [rel_line(f"s{i}", "depiction", f"img/{i}.jpg") for i in range(count)]


def image_group(graph):
    return graph.literal_groups[(graph.relation_ids[EX + "depiction"], Modality.IMAGE)]


# --- refs and labels --------------------------------------------------------


def test_image_ref_key_for_iri_and_payload():
    ref = ImageRef(0, 0, iri="http://ex.org/img.jpg")
    assert ref.key == "http://ex.org/img.jpg"
    ref2 = ImageRef(0, 1, payload=PNG_BYTES)
    assert ref2.key == hashlib.sha256(PNG_BYTES).hexdigest()


def test_image_ref_validation():
    with pytest.raises(ValueError):
        ImageRef(0, 0)
    with pytest.raises(ValueError):
        ImageRef(0, 0, iri="")
    with pytest.raises(ValueError):
        ImageRef(0, 0, payload=b"")


def test_label_distribution_validation():
    with pytest.raises(ValueError):
        LabelDistribution(())
    with pytest.raises(ValueError):
        LabelDistribution((("cat", 1.2),))
    with pytest.raises(ValueError):
        LabelDistribution((("", 0.5),))
    with pytest.raises(ValueError):
        LabelDistribution((("cat", 0.4), ("dog", 0.6)))  # increasing


def test_top_label_breaks_ties_lexicographically():
    dist = LabelDistribution((("zebra", 0.4), ("aardvark", 0.4), ("cat", 0.1)))
    assert top_label(dist) == "aardvark"
    assert top_label(LabelDistribution((("building", 0.9), ("tower", 0.1)))) == "building"


def test_parse_labels_formats():
    d = _parse_labels([{"name": "cat", "score": 0.3}, {"name": "dog", "score": 0.7}], "t")
    assert d.labels == (("dog", 0.7), ("cat", 0.3))
    d2 = _parse_labels([["cat", 0.3], ["dog", 0.7]], "t")
    assert d2.labels == (("dog", 0.7), ("cat", 0.3))
    d3 = _parse_labels(["cat", "dog"], "t")
    assert d3.labels == (("cat", 1.0), ("dog", 1.0))
    for bad in ([], [42], [{"name": "x"}], "notalist"):
        with pytest.raises(ProviderError):
            _parse_labels(bad, "t")


# --- tag-map provider -------------------------------------------------------


def test_tag_map_provider_lookup(tmp_path):
    path = write_tag_map(tmp_path / "tags.json", {EX + "img/0.jpg": "building"})
    provider = TagMapProvider.from_file(path)
    hit = provider.lookup(ImageRef(0, 0, iri=EX + "img/0.jpg"))
    assert hit is not None and top_label(hit) == "building"
    assert provider.lookup(ImageRef(0, 1, iri=EX + "img/9.jpg")) is None


def test_tag_map_provider_hash_keys(tmp_path):
    digest = hashlib.sha256(PNG_BYTES).hexdigest()
    path = write_tag_map(tmp_path / "tags.json", {digest: "screenshot"})
    provider = TagMapProvider.from_file(path)
    hit = provider.lookup(ImageRef(0, 0, payload=PNG_BYTES))
    assert hit is not None and top_label(hit) == "screenshot"


def test_tag_map_provider_bad_files(tmp_path):
    with pytest.raises(ProviderError):
        TagMapProvider.from_file(str(tmp_path / "missing.json"))
    broken = tmp_path / "broken.json"
    broken.write_text("not json", encoding="utf-8")
    with pytest.raises(ProviderError):
        TagMapProvider.from_file(str(broken))
    listfile = tmp_path / "list.json"
    listfile.write_text("[1, 2]", encoding="utf-8")
    with pytest.raises(ProviderError):
        TagMapProvider.from_file(str(listfile))


# --- ref resolution ---------------------------------------------------------


def test_resolve_refs_iri_objects():
    graph = make_graph(depiction_lines(2), IMG_RULES)
    refs = resolve_image_refs(image_group(graph))
    assert [r.iri for r in refs] == [EX + "img/0.jpg", EX + "img/1.jpg"]
    assert [r.statement_index for r in refs] == [0, 1]


def test_resolve_refs_base64_payloads():
    b64 = base64.b64encode(PNG_BYTES).decode()
    lines = [f'<{EX}a> <{EX}depiction> "{b64}"^^<{XSD}base64Binary> .']
    graph = make_graph(lines, IMG_RULES)
    (ref,) = resolve_image_refs(image_group(graph))
    assert ref.payload == PNG_BYTES


def test_resolve_refs_skips_undecodable():
    lines = [
        f'<{EX}a> <{EX}depiction> "%%%notbase64%%%"^^<{XSD}base64Binary> .',
        f'<{EX}b> <{EX}depiction> "https://ex.org/pic.png" .',
        f'<{EX}c> <{EX}depiction> "no image here" .',
    ]
    graph = make_graph(lines, IMG_RULES)
    refs = resolve_image_refs(image_group(graph))
    assert len(refs) == 1
    assert refs[0].iri == "https://ex.org/pic.png"


# --- emission ---------------------------------------------------------------


def test_emit_image_triples_exact_naming(tmp_path):
    graph = make_graph(depiction_lines(3), IMG_RULES)
    path = write_tag_map(
        tmp_path / "tags.json",
        {
            EX + "img/0.jpg": "building",
            EX + "img/1.jpg": "building",
            EX + "img/2.jpg": "bridge",
        },
    )
    aug = emit_image_triples(image_group(graph), graph, TagMapProvider.from_file(path), NEW)
    assert aug.delta_statements == 3
    assert aug.entities == [NEW + "VGG_building", NEW + "VGG_bridge"]
    shared = [t for t in aug.triples if t.object.value == NEW + "VGG_building"]
    assert len(shared) == 2
    assert aug.weights == [1.0, 1.0, 1.0]


def test_emit_image_triples_miss_falls_back(tmp_path):
    graph = make_graph(depiction_lines(2), IMG_RULES)
    path = write_tag_map(tmp_path / "tags.json", {EX + "img/0.jpg": "tower"})
    aug = emit_image_triples(image_group(graph), graph, TagMapProvider.from_file(path), NEW)
    assert aug.delta_statements == 2
    assert aug.fallback_statements == 1
    assert NEW + "depictionAnyValue" in aug.entities
    assert any("without tags" in w for w in aug.warnings)


def test_emit_image_triples_custom_prefix(tmp_path):
    graph = make_graph(depiction_lines(1), IMG_RULES)
    path = write_tag_map(tmp_path / "tags.json", {EX + "img/0.jpg": "building"})
    aug = emit_image_triples(
        image_group(graph), graph, TagMapProvider.from_file(path), NEW, prefix="IMG_"
    )
    assert aug.entities == [NEW + "IMG_building"]


def test_emit_image_triples_weight_is_top_score(tmp_path):
    payload = {EX + "img/0.jpg": [{"name": "castle", "score": 0.62}, {"name": "fort", "score": 0.38}]}
    path = tmp_path / "tags.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    graph = make_graph(depiction_lines(1), IMG_RULES)
    aug = emit_image_triples(image_group(graph), graph, TagMapProvider.from_file(str(path)), NEW)
    assert aug.weights == [0.62]
    assert aug.entities == [NEW + "VGG_castle"]


# --- remote provider --------------------------------------------------------


class _TagHandler(BaseHTTPRequestHandler):
    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length) or b"{}")
        status, payload = self.server.app(body)
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.end_headers()
        if payload is not None:
            self.wfile.write(json.dumps(payload).encode())

    def log_message(self, *args):
        pass


@pytest.fixture
def tag_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _TagHandler)
    server.app = lambda body: (404, None)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server, f"http://127.0.0.1:{server.server_address[1]}/tag"
    finally:
        server.shutdown()
        thread.join()
        server.server_close()


def test_remote_provider_round_trip(tag_server):
    server, url = tag_server

    def app(body):
        if body.get("iri", "").endswith("0.jpg"):
            return 200, {"labels": [{"name": "building", "score": 0.9}]}
        return 404, None

    server.app = app
    provider = RemoteTagProvider(url, retries=0)
    hit = provider.lookup(ImageRef(0, 0, iri=EX + "img/0.jpg"))
    assert hit is not None and top_label(hit) == "building"
    assert provider.lookup(ImageRef(0, 1, iri=EX + "img/1.jpg")) is None


def test_remote_provider_posts_base64_payload(tag_server):
    server, url = tag_server
    seen = {}

    def app(body):
        seen.update(body)
        return 200, {"labels": ["screenshot"]}

    server.app = app
    provider = RemoteTagProvider(url, retries=0)
    provider.lookup(ImageRef(0, 0, payload=PNG_BYTES))
    assert base64.b64decode(seen["payload"]) == PNG_BYTES


def test_remote_provider_retries_transient_errors(tag_server):
    server, url = tag_server
    attempts = []

    def app(body):
        attempts.append(1)
        if len(attempts) < 3:
            return 503, None
        return 200, {"labels": [{"name": "cat", "score": 1.0}]}

    server.app = app
    provider = RemoteTagProvider(url, retries=3, backoff=0.01)
    hit = provider.lookup(ImageRef(0, 0, iri=EX + "x"))
    assert hit is not None and top_label(hit) == "cat"
    assert len(attempts) == 3


def test_remote_provider_gives_up_after_retries(tag_server):
    server, url = tag_server
    attempts = []

    def app(body):
        attempts.append(1)
        return 500, None

    server.app = app
    provider = RemoteTagProvider(url, retries=2, backoff=0.01)
    with pytest.raises(ProviderError):
        provider.lookup(ImageRef(0, 0, iri=EX + "x"))
    assert len(attempts) == 3  # initial try plus two retries


def test_remote_provider_empty_labels_is_miss(tag_server):
    server, url = tag_server
    server.app = lambda body: (200, {"labels": []})
    provider = RemoteTagProvider(url, retries=0)
    assert provider.lookup(ImageRef(0, 0, iri=EX + "x")) is None


def test_remote_provider_malformed_response(tag_server):
    server, url = tag_server
    server.app = lambda body: (200, {"tags": ["oops"]})
    provider = RemoteTagProvider(url, retries=0)
    with pytest.raises(ProviderError):
        provider.lookup(ImageRef(0, 0, iri=EX + "x"))


def test_remote_provider_unreachable_endpoint():
    provider = RemoteTagProvider("http://127.0.0.1:9/tag", retries=1, backoff=0.01, timeout=0.2)
    with pytest.raises(ProviderError):
        provider.lookup(ImageRef(0, 0, iri=EX + "x"))


def test_emit_through_remote_provider_concurrent(tag_server):
    server, url = tag_server
    lock = threading.Lock()
    calls = []

    def app(body):
        with lock:
            calls.append(body["iri"])
        name = "even" if int(body["iri"][-5]) % 2 == 0 else "odd"
        return 200, {"labels": [{"name": name, "score": 0.8}]}

    server.app = app
    graph = make_graph(depiction_lines(6), IMG_RULES)
    provider = RemoteTagProvider(url, retries=0)
    aug = emit_image_triples(image_group(graph), graph, provider, NEW, max_in_flight=4)
    assert aug.delta_statements == 6
    assert len(calls) == 6
    # results remain aligned with their statements despite concurrency
    for t in aug.triples:
        n = int(t.subject.value[-1])
        expected = "even" if n % 2 == 0 else "odd"
        assert t.object.value == NEW + "VGG_" + expected
