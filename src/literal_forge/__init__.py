"""Rewrite RDF graphs with literal values into purely relational graphs.

Literal statements (numbers, dates, text, images) are replaced by links to
minted entities: value entities, bins, calendar features, topics, or image
labels. The relational part of the graph passes through untouched, so any
downstream graph embedding method can consume the result.

The names of ``__all__`` are imported on first access (PEP 562), so importing
the package, as every CLI command does, loads none of its modules.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "terms": ("IRI", "BlankNode", "Literal", "Triple", "TermError"),
    "ntriples": (
        "ParseDiagnostic", "ParseError", "SerializationError", "format_triple",
        "iter_ntriples", "parse_ntriples", "serialize_ntriples", "write_ntriples",
    ),
    "graph": (
        "GraphProfile", "IndexedGraph", "LiteralGroup", "Modality", "ModalityRules",
        "build_index", "profile_stream",
    ),
    "report": ("AugmentationReport", "ConfigError", "StrategyError", "verify_bounds"),
    "pipeline": ("PipelineResult", "StrategyConfig", "apply", "check_output"),
    "plans": ("compose_combined",),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name: str) -> object:
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value  # later reads skip this function
    return value
