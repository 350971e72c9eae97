"""ocrank — certified order-type analysis of one-counter transductions.

A machine reads a well-bracketed input word (0 opens, 1 closes) and emits a
regular output language per edge.  This package computes the reachable
counter sets with certificates, builds the leveled normal form, classifies
its components, and turns the result into an ordinal bound on the Hausdorff
rank of the output language under the lexicographic order — or a concrete
witness that the order embeds the rationals.
"""

from .words import Alphabet, BINARY, primitive_root
from .regular import (
    Automaton,
    QuasiDense,
    Regex,
    RegexSyntaxError,
    Scattered,
    compile_regex,
    parse_regex,
    regular_scattered,
)
from .counterset import (
    CertificationError,
    NSetReport,
    UPSet,
    reach_sets,
    render_upset,
)
from .transducer import (
    LevelingError,
    Transducer,
    TransducerError,
    TransducerPrime,
    TypedState,
    TypedTransition,
    bounded_language_equal,
    bounded_outputs,
    build_mprime,
    check_run,
    lift_run,
    make_transducer,
    minimal_normalize,
)
from .components import (
    ComponentVerdict,
    FullyCertified,
    QuasiDenseWitness,
    Scc,
    ZeroCertified,
    certify_component,
    condense,
)
from .rank import (
    NotScattered,
    Ordinal,
    RankBound,
    RocAtom,
    RocConcat,
    RocExpr,
    RocPlus,
    Unknown,
    analyze_machine,
    enumerate_expr,
    expr_rank_bound,
    ord_add,
    transducer_rank_bound,
)
from .harness import (
    DensityWitness,
    EnumerationResult,
    accepting_runs,
    probe_density,
    upset_oracle,
)

# The command-line module loads on first use, so that ``python -m ocrank.cli``
# does not find it imported already.
_CLI_EXPORTS = ("Fixture", "FixtureError", "load_fixture_file", "parse_fixture", "render_fixture")


def __getattr__(name: str):
    if name in _CLI_EXPORTS:
        from . import cli

        value = globals()[name] = getattr(cli, name)
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"

__all__ = [
    "Alphabet", "BINARY", "primitive_root",
    "Automaton", "QuasiDense", "Regex", "RegexSyntaxError", "Scattered",
    "compile_regex", "parse_regex", "regular_scattered",
    "CertificationError", "NSetReport", "UPSet", "reach_sets", "render_upset",
    "LevelingError", "Transducer", "TransducerError", "TransducerPrime",
    "TypedState", "TypedTransition", "bounded_language_equal", "bounded_outputs",
    "build_mprime", "check_run", "lift_run", "make_transducer", "minimal_normalize",
    "ComponentVerdict", "FullyCertified", "QuasiDenseWitness", "Scc",
    "ZeroCertified", "certify_component", "condense",
    "NotScattered", "Ordinal", "RankBound", "RocAtom", "RocConcat", "RocExpr",
    "RocPlus", "Unknown", "analyze_machine", "enumerate_expr", "expr_rank_bound",
    "ord_add", "transducer_rank_bound",
    "DensityWitness", "EnumerationResult", "accepting_runs", "probe_density",
    "upset_oracle",
    "Fixture", "FixtureError", "load_fixture_file", "parse_fixture",
    "render_fixture",
    "__version__",
]
