"""Command-line interface: profile, transform, and verify subcommands.

Machine-readable output goes to standard output or to files; logs go to
standard error. Exit codes are a scripting contract: 0 success, 1 input or
parse error, 2 configuration error, 3 strategy failure without a fallback,
4 verification failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from contextlib import contextmanager, suppress

from .graph import ModalityRules, build_index, profile_stream
from .ntriples import (
    ParseDiagnostic,
    ParseError,
    SerializationError,
    format_lines,
    iter_ntriples,
    write_ntriples,
)
from .pipeline import (
    AugmentationReport,
    ConfigError,
    PipelineResult,
    StrategyConfig,
    StrategyError,
    apply,
    check_output,
    shortcut_defaults,
)

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_CONFIG = 2
EXIT_STRATEGY = 3
EXIT_VERIFY = 4

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
        ("duplicate statements removed", data["duplicates_removed"]),
    ]
    width = max(len(label) for label, _ in rows)
    return "\n".join(f"{label:<{width}}  {value:>12,}" for label, value in rows)


def _rules_from_config(args: argparse.Namespace) -> ModalityRules:
    if args.config:
        return StrategyConfig.from_file(args.config).rules
    return ModalityRules()


def cmd_profile(args: argparse.Namespace) -> int:
    counter = _DiagnosticCounter()
    try:
        rules = _rules_from_config(args)
    except ConfigError as exc:
        log.error("%s", exc)
        return EXIT_CONFIG
    try:
        with _open_source(args.input) as source:
            triples = iter_ntriples(source, on_diagnostic=counter, strict=args.strict)
            result = profile_stream(triples, rules)
    except ParseError as exc:
        log.error("%s", exc)
        return EXIT_INPUT
    except OSError as exc:
        log.error("cannot read %s: %s", args.input, exc)
        return EXIT_INPUT
    if counter.count:
        log.warning("%d malformed lines skipped", counter.count)
    if args.human:
        print(_human_profile(result.to_dict()))
    else:
        print(result.to_json())
    return EXIT_OK


def _load_config(args: argparse.Namespace) -> StrategyConfig:
    config = StrategyConfig.from_file(args.config) if args.config else StrategyConfig()
    if args.strategy:
        config.defaults = shortcut_defaults(args.strategy, config.fallback)
    if args.seed is not None:
        config.seed = args.seed
    if args.workers is not None:
        if args.workers < 1:
            raise ConfigError("--workers must be a positive integer")
        config.workers = args.workers
    if args.emit_weights:
        config.emit_weights = True
    return config


def _write_outputs(result: PipelineResult, output: str, emit_weights: bool) -> None:
    """Write the output, report and weights, replacing earlier ones atomically.

    Each goes to a temp file beside its target first. Only once every write
    has succeeded are the old report and weights removed and each temp file
    moved into place, output first, so a crash can never pair a new output
    with an old report or sidecar. On failure the temp files are removed
    and earlier files stay.
    """
    report = output + ".report.json"
    weights = output + ".weights.tsv"
    targets = [output, report, weights] if emit_weights else [output, report]
    temp = {target: f"{target}.{os.getpid()}.tmp" for target in targets}
    try:
        with open(temp[output], "wb") as out:
            write_ntriples(result.triples, out)
        with open(temp[report], "w", encoding="utf-8", newline="\n") as fh:
            fh.write(result.report.to_json())
            fh.write("\n")
        if emit_weights:
            lines = format_lines(triple for triple, _ in result.weighted)
            with open(temp[weights], "w", encoding="utf-8", newline="\n") as fh:
                for line, (_, weight) in zip(lines, result.weighted):
                    fh.write(f"{line}\t{weight:.6f}\n")
        for stale in (report, weights):
            with suppress(FileNotFoundError):
                os.remove(stale)
        for target in targets:
            os.replace(temp[target], target)
    except BaseException:
        for path in temp.values():
            with suppress(OSError):
                os.remove(path)
        raise


def cmd_transform(args: argparse.Namespace) -> int:
    try:
        config = _load_config(args)
    except ConfigError as exc:
        log.error("%s", exc)
        return EXIT_CONFIG

    counter = _DiagnosticCounter()
    try:
        with _open_source(args.input) as source:
            triples = iter_ntriples(source, on_diagnostic=counter, strict=args.strict)
            graph = build_index(triples, config.rules)
    except ParseError as exc:
        log.error("%s", exc)
        return EXIT_INPUT
    except OSError as exc:
        log.error("cannot read %s: %s", args.input, exc)
        return EXIT_INPUT
    if counter.count:
        log.warning("%d malformed lines skipped", counter.count)

    try:
        result = apply(graph, config)
    except ConfigError as exc:
        log.error("%s", exc)
        return EXIT_CONFIG
    except StrategyError as exc:
        log.error("%s", exc)
        return EXIT_STRATEGY

    try:
        _write_outputs(result, args.output, config.emit_weights)
    except SerializationError as exc:
        log.error("cannot serialize output: %s", exc)
        return EXIT_INPUT
    except OSError as exc:
        log.error("cannot write output: %s", exc)
        return EXIT_INPUT

    log.info(
        "wrote %d triples (%d minted statements, %d structural) to %s",
        len(result.triples),
        result.report.delta_statements_total,
        result.report.structural_total,
        args.output,
    )
    failed = [row for row in result.report.rows if row.verdict.startswith("fail")]
    for row in failed:
        log.error("%s [%s]: %s", row.predicate, row.modality, row.verdict)
    return EXIT_VERIFY if failed else EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    report_path = args.report or args.input + ".report.json"
    try:
        report = AugmentationReport.from_file(report_path)
    except (OSError, ValueError, KeyError) as exc:
        log.error("cannot load report %s: %s", report_path, exc)
        return EXIT_INPUT
    try:
        with _open_source(args.input) as source:
            triples = list(iter_ntriples(source, strict=True))
    except ParseError as exc:
        log.error("%s", exc)
        return EXIT_INPUT
    except OSError as exc:
        log.error("cannot read %s: %s", args.input, exc)
        return EXIT_INPUT

    problems = check_output(triples, report)
    verdict = {"ok": not problems, "problems": problems}
    if args.human:
        if problems:
            for problem in problems:
                print(problem)
        else:
            print("output consistent with report; all bounds hold")
    else:
        print(json.dumps(verdict, indent=2))
    return EXIT_OK if not problems else EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="literal-forge",
        description="Rewrite RDF graphs with literals into purely relational graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, output: bool = False) -> None:
        p.add_argument("--input", required=True, help="N-Triples file, '-' for stdin; .gz accepted")
        p.add_argument("--config", help="JSON configuration file")
        p.add_argument("--strict", action="store_true", help="fail on the first malformed line")
        p.add_argument("--human", action="store_true", help="human-readable output")
        if output:
            p.add_argument("--output", required=True, help="output N-Triples path")
            p.add_argument("--strategy", help="apply one strategy to every modality")
            p.add_argument("--seed", type=int, help="override the configured random seed")
            p.add_argument(
                "--workers", type=int, help="deprecated and ignored: groups run serially"
            )
            p.add_argument(
                "--emit-weights",
                action="store_true",
                help="write the edge-weight sidecar next to the output",
            )

    p_profile = sub.add_parser("profile", help="count entities, relations, and literal kinds")
    common(p_profile)
    p_profile.set_defaults(func=cmd_profile)

    p_transform = sub.add_parser("transform", help="rewrite literals into relational statements")
    common(p_transform, output=True)
    p_transform.set_defaults(func=cmd_transform)

    p_verify = sub.add_parser("verify", help="check a transform output against its report")
    common(p_verify)
    p_verify.add_argument(
        "--report", help="report JSON path (default: <input>.report.json)"
    )
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
