"""Rewrite RDF graphs with literal values into purely relational graphs.

Literal statements (numbers, dates, text, images) are replaced by links to
minted entities: value entities, bins, calendar features, topics, or image
labels. The relational part of the graph passes through untouched, so any
downstream graph embedding method can consume the result.
"""

from .terms import IRI, BlankNode, Literal, Triple, TermError
from .ntriples import (
    ParseDiagnostic,
    ParseError,
    SerializationError,
    format_triple,
    iter_ntriples,
    parse_ntriples,
    serialize_ntriples,
    write_ntriples,
)
from .graph import (
    GraphProfile,
    IndexedGraph,
    LiteralGroup,
    Modality,
    ModalityRules,
    build_index,
    profile_stream,
)
from .pipeline import (
    AugmentationReport,
    ConfigError,
    PipelineResult,
    StrategyConfig,
    StrategyError,
    apply,
    check_output,
    compose_combined,
    verify_bounds,
)

__version__ = "0.1.0"

__all__ = [
    "IRI",
    "BlankNode",
    "Literal",
    "Triple",
    "TermError",
    "ParseDiagnostic",
    "ParseError",
    "SerializationError",
    "format_triple",
    "iter_ntriples",
    "parse_ntriples",
    "serialize_ntriples",
    "write_ntriples",
    "GraphProfile",
    "IndexedGraph",
    "LiteralGroup",
    "Modality",
    "ModalityRules",
    "build_index",
    "profile_stream",
    "AugmentationReport",
    "ConfigError",
    "PipelineResult",
    "StrategyConfig",
    "StrategyError",
    "apply",
    "check_output",
    "compose_combined",
    "verify_bounds",
    "__version__",
]
