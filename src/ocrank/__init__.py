"""ocrank — certified order-type analysis of one-counter transductions.

A machine reads a well-bracketed input word (0 opens, 1 closes) and emits a
regular output language per edge.  This package computes the reachable
counter sets with certificates, builds the leveled normal form, classifies
its components, and turns the result into an ordinal bound on the Hausdorff
rank of the output language under the lexicographic order — or a concrete
witness that the order embeds the rationals.
"""

# What the package exports from each layer, the layers in import order: a
# module imports only from the layers before it.  ``import ocrank`` loads
# no layer; a name loads its layer on first use (PEP 562), so that
# ``python -m ocrank.cli`` does not find the command-line module imported.
_EXPORTS = {
    "words": ("Alphabet", "BINARY", "primitive_root"),
    "regular": ("Automaton", "QuasiDense", "Regex", "RegexSyntaxError", "Scattered",
                "compile_regex", "parse_regex", "regular_scattered"),
    "counterset": ("CertificationError", "NSetReport", "UPSet", "reach_sets", "render_upset"),
    "transducer": ("LevelingError", "Transducer", "TransducerError", "TransducerPrime",
                   "TypedState", "TypedTransition", "bounded_language_equal",
                   "bounded_outputs", "build_mprime", "check_run", "lift_run",
                   "make_transducer", "minimal_normalize"),
    "components": ("ComponentVerdict", "FullyCertified", "QuasiDenseWitness", "Scc",
                   "ZeroCertified", "certify_component", "condense"),
    "rank": ("NotScattered", "Ordinal", "RankBound", "RocAtom", "RocConcat", "RocExpr",
             "RocPlus", "Unknown", "analyze_machine", "enumerate_expr", "expr_rank_bound",
             "ord_add", "transducer_rank_bound"),
    "harness": ("accepting_runs", "probe_density", "upset_oracle"),
    "cli": ("Fixture", "FixtureError", "load_fixture_file", "parse_fixture", "render_fixture"),
}
_LAYER_OF = {name: layer for layer, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"
__all__ = [*_LAYER_OF, "__version__"]


def __getattr__(name: str):
    layer = name if name in _EXPORTS else _LAYER_OF.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    __import__(f"{__name__}.{layer}")  # binds the layer as an attribute here
    if layer == name:
        return globals()[name]
    value = globals()[name] = getattr(globals()[layer], name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *_LAYER_OF})
