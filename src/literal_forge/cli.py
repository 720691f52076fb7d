"""Command-line interface: profile, transform, and verify subcommands.

Machine-readable output goes to standard output or to files; logs go to
standard error. Exit codes are a scripting contract: 0 success, 1 input or
parse error, 2 configuration error, 3 strategy failure without a fallback,
4 verification failure. A command raises InputError, ConfigError or
StrategyError for codes 1 to 3, and main logs it and returns its code.
"""

from __future__ import annotations

import argparse
import gc
import json
import logging
import os
import sys
import zlib
from contextlib import closing, contextmanager, suppress
from typing import IO, TYPE_CHECKING, Any, Callable, Iterator

# verify needs only these; profile adds graph, and transform or --config pipeline.
from .ntriples import (
    ParseDiagnostic,
    ParseError,
    SerializationError,
    TermText,
    scan_ntriples,
    write_lines,
)
from .report import AugmentationReport, ConfigError, StrategyError, check_rows

if TYPE_CHECKING:
    from .pipeline import PipelineResult, StrategyConfig

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_CONFIG = 2
EXIT_STRATEGY = 3
EXIT_VERIFY = 4


class InputError(Exception):
    """The input or a report cannot be read, or the output cannot be written."""


_EXIT_CODES = {InputError: EXIT_INPUT, ConfigError: EXIT_CONFIG, StrategyError: EXIT_STRATEGY}

LOG_ENV = "LITERAL_FORGE_LOG"


def _setup_logging() -> None:
    level_name = os.environ.get(LOG_ENV, "WARNING").upper()
    level = getattr(logging, level_name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(
        stream=sys.stderr,
        level=level,
        format="%(levelname)s %(name)s: %(message)s",
    )


@contextmanager
def _open_source(path: str):
    """Binary stream for a path or '-' (stdin); must outlive the parse."""
    if path == "-":
        yield sys.stdin.buffer
        return
    with open(path, "rb") as fh:
        yield fh


class _DiagnosticCounter:
    def __init__(self) -> None:
        self.count = 0

    def __call__(self, diagnostic: ParseDiagnostic) -> None:
        self.count += 1
        if self.count <= 20:
            log.warning("line %d: %s", diagnostic.line, diagnostic.message)


def _print(text: str) -> None:
    """Print *text* to stdout; a reader that closed it early gets no traceback."""
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # Python's SIGPIPE advice: the flush at exit then goes to devnull.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _human_profile(data: dict) -> str:
    rows = [
        ("relations", data["relations"]),
        ("nodes", data["nodes"]),
        ("triples", data["triples"]),
        ("object IRIs", data["objects"]["iris"]),
        ("object blank nodes", data["objects"]["blank_nodes"]),
        ("object literals", data["objects"]["literals"]),
        ("  numbers", data["literals"]["numbers"]),
        ("  dates", data["literals"]["dates"]),
        ("  text", data["literals"]["text"]),
        ("  images", data["literals"]["images"]),
        ("  others", data["literals"]["others"]),
    ]
    width = max(len(label) for label, _ in rows)
    return "\n".join(f"{label:<{width}}  {value:>12,}" for label, value in rows)


def _read_input(path: str, consume: Callable[[Any], Any], strict: bool) -> Any:
    """*consume* applied to the rows scanned from *path*."""
    counter = _DiagnosticCounter()
    try:
        with _open_source(path) as source:
            rows = scan_ntriples(source, on_diagnostic=counter, strict=strict)
            with closing(rows):  # closes the scan before its source, even if consume raises
                result = consume(rows)
    except ParseError as exc:
        raise InputError(str(exc)) from exc
    except (OSError, EOFError, UnicodeDecodeError, zlib.error) as exc:  # unreadable bytes
        raise InputError(f"cannot read {path}: {exc}") from exc
    if counter.count:
        log.warning("%d malformed lines skipped", counter.count)
    return result


def cmd_profile(args: argparse.Namespace) -> int:
    from .graph import ModalityRules, profile_rows

    rules = ModalityRules()
    if args.config:
        from .pipeline import StrategyConfig  # only a config needs the pipeline
        rules = StrategyConfig.from_file(args.config).rules
    result = _read_input(args.input, lambda rows: profile_rows(rows, rules), args.strict)
    _print(_human_profile(result.to_dict()) if args.human else result.to_json())
    return EXIT_OK


def _load_config(args: argparse.Namespace) -> StrategyConfig:
    from .pipeline import StrategyConfig, shortcut_defaults

    config = StrategyConfig.from_file(args.config) if args.config else StrategyConfig()
    if args.strategy:
        config.defaults = shortcut_defaults(args.strategy, config.fallback)
    if args.seed is not None:
        config.seed = args.seed
    if args.emit_weights:
        config.emit_weights = True
    return config


def _lines(result: PipelineResult, text: TermText, weights: bool = False) -> Iterator[str]:
    """The output's canonical lines, in the order of result.triples.

    With *weights*, the weights sidecar's lines instead: each weighted link,
    a tab, and its score to six places. Every term's text comes from *text*,
    so each is validated once across both.
    """
    entity, iri = text.entity, text.iri
    if weights:
        for aug in result.augmentations:
            for i, score in zip(aug.scored, aug.weights):
                s, o = aug.subjects[i], aug.objects[i]
                yield f"{entity(s)} {iri(aug.predicate)} {iri(o)} .\t{score:.6f}"
        return
    # Each entity is checked once, then written inline by its kind; a known
    # IRI text is read from the table, and a method call fills a miss.
    terms, checked, check, known = text.entity_terms, text.checked, text.check, text.by_key
    relations = result.graph.relation_iris
    for s, r, o in zip(*result.graph.links):
        p = relations[r]
        p = known.get(p) or iri(p)
        kinds = (checked[s] or check(s)) << 2 | (checked[o] or check(o))
        if kinds == 5:  # two IRIs
            yield f"<{terms[s].value}> {p} <{terms[o].value}> ."
        elif kinds == 10:  # two blank nodes
            yield f"_:{terms[s].label} {p} _:{terms[o].label} ."
        else:  # an IRI and a blank node
            yield f"{terms[s]} {p} {terms[o]} ."
    for aug in result.augmentations:
        if aug.subjects:  # a predicate is checked only when it is written
            p = iri(aug.predicate)
            for s, o in zip(aug.subjects, aug.objects):
                term = terms[s]
                kind = checked[s] or check(s)
                s_text = f"<{term.value}>" if kind == 1 else f"_:{term.label}"
                yield f"{s_text} {p} {known.get(o) or iri(o)} ."
    for a, r, b in result.structural:
        yield f"{iri(a)} {iri(r)} {iri(b)} ."


def _output_paths(output: str) -> tuple[str, str, str]:
    """The paths transform writes: output, report and weights sidecar."""
    return output, output + ".report.json", output + ".weights.tsv"


def _write_outputs(result: PipelineResult, output: str, emit_weights: bool) -> int:
    """Write the output, report and weights, replacing earlier ones atomically.

    Each goes to a new temp file beside its target first: anything already
    at that path fails the write and is left alone. Only once every write
    has succeeded are the old report and weights removed and each temp file
    moved into place, output first, so a crash can never pair a new output
    with an old report or sidecar. On failure the temp files made here are
    removed and earlier files stay. The output and the weights, with
    *emit_weights*, are written by _lines from one TermText; returns the
    output's line count.
    """
    _, report, weights = _output_paths(output)
    targets = [output, report, weights] if emit_weights else [output, report]
    # Every IRI written as a string; an entity among them is checked as one.
    shared = {*result.graph.relation_ids, *(x for triple in result.structural for x in triple)}
    for aug in result.augmentations:
        shared.add(aug.predicate)
        shared.update(aug.objects)
    text = TermText(result.graph.entity_terms, shared)
    temp: dict[str, str] = {}  # target: the temp file made for it and not yet moved

    def create(target: str) -> IO[bytes]:
        path = f"{target}.{os.getpid()}.tmp"
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        temp[target] = path
        return open(fd, "wb")

    try:
        with create(output) as out:
            count = write_lines(_lines(result, text), out)
        with create(report) as out:
            out.write(f"{result.report.to_json()}\n".encode())
        if emit_weights:
            with create(weights) as out:
                write_lines(_lines(result, text, weights=True), out)
        for stale in (report, weights):
            with suppress(FileNotFoundError):
                os.remove(stale)
        for target in targets:
            os.replace(temp[target], target)
            del temp[target]
    except BaseException:
        for path in temp.values():
            with suppress(OSError):
                os.remove(path)
        raise
    return count


def cmd_transform(args: argparse.Namespace) -> int:
    from .graph import index_rows
    from .pipeline import apply

    config = _load_config(args)
    # A write replaces each path and removes stale sidecars: never a FIFO or device.
    for path in _output_paths(args.output):
        if os.path.exists(path) and not os.path.isfile(path):
            raise InputError(f"{path} exists and is not a regular file; nothing was written")

    graph = _read_input(args.input, lambda rows: index_rows(rows, config.rules), args.strict)
    result = apply(graph, config)
    try:
        count = _write_outputs(result, args.output, config.emit_weights)
    except SerializationError as exc:
        raise InputError(f"cannot serialize output: {exc}") from exc
    except OSError as exc:
        raise InputError(f"cannot write output: {exc}") from exc

    log.info(
        "wrote %d triples (%d minted statements, %d structural) to %s",
        count,
        result.report.delta_statements_total,
        result.report.structural_total,
        args.output,
    )
    failed = [row for row in result.report.rows if row.verdict.startswith("fail")]
    for row in failed:
        log.error("%s [%s]: %s", row.predicate, row.modality, row.verdict)
    return EXIT_VERIFY if failed else EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    if args.input == "-" and not args.report:
        raise ConfigError("verify --input - needs --report: stdin has no report beside it")
    report_path = args.report or _output_paths(args.input)[1]
    try:
        report = AugmentationReport.from_file(report_path)
    except ValueError as exc:  # a ConfigError too: a report that breaks the layout
        raise InputError(f"cannot load report {report_path}: {exc}") from exc
    # Checked as parsed: a malformed line anywhere exits 1 with no verdict.
    problems = _read_input(args.input, lambda rows: check_rows(rows, report), True)
    if args.human:
        _print("\n".join(problems) or "output consistent with report; all bounds hold")
    else:
        _print(json.dumps({"ok": not problems, "problems": problems}, indent=2))
    return EXIT_OK if not problems else EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="literal-forge",
        description="Rewrite RDF graphs with literals into purely relational graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, output: bool = False, config: bool = True) -> None:
        p.add_argument("--input", required=True, help="N-Triples file, '-' for stdin; .gz accepted")
        if config:  # verify reads no config and is always strict
            p.add_argument("--config", help="JSON configuration file")
            p.add_argument("--strict", action="store_true", help="fail on the first malformed line")
        if output:
            p.add_argument("--output", required=True, help="output N-Triples path")
            p.add_argument("--strategy", help="apply one strategy to every modality")
            p.add_argument("--seed", type=int, help="override the configured random seed")
            p.add_argument(
                "--emit-weights",
                action="store_true",
                help="write the edge-weight sidecar next to the output",
            )
        else:  # transform writes files and prints no verdict
            p.add_argument("--human", action="store_true", help="human-readable output")

    p_profile = sub.add_parser("profile", help="count entities, relations, and literal kinds")
    common(p_profile)
    p_profile.set_defaults(func=cmd_profile)

    p_transform = sub.add_parser("transform", help="rewrite literals into relational statements")
    common(p_transform, output=True)
    p_transform.set_defaults(func=cmd_transform)

    p_verify = sub.add_parser("verify", help="check a transform output against its report")
    common(p_verify, config=False)
    p_verify.add_argument(
        "--report", help="report JSON path (default: <input>.report.json; required for stdin)"
    )
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(_EXIT_CODES) as exc:
        log.error("%s", exc)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))


def run() -> None:
    """The process entry point: main() with two process-wide settings."""
    # No code here calls BLAS, so OpenBLAS, whose default pool spins up when
    # numpy loads, gets one thread unless the caller chose a count.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    code = main()
    gc.freeze()  # the collections at exit then skip every object still alive
    sys.exit(code)


if __name__ == "__main__":
    run()
