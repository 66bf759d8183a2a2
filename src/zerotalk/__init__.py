"""Secret key capacity at asymptotically zero discussion rate.

The library computes the maximum common function of a multiterminal source —
the richest value every user can derive from its own observation alone — and
its entropy, which is the secrecy rate achievable with vanishing public
discussion.  Closed-form engines cover hypergraphical and finite linear
models; a brute-force oracle covers any finite discrete model and
cross-checks the closed forms.  Partition and chain upper bounds, a two-user
linear-to-edge conversion, and a zero-discussion agreement simulator round
out the toolkit.
"""

__version__ = "0.1.0"

# the public names by defining module; each module loads on the first use of one
# of its names (PEP 562), so importing the package loads none of them
_EXPORTS = {
    "bounds": ("LaminationBound", "Partition", "all_partitions", "alpha", "best_partition",
               "chain_bound", "lamination_bound", "singleton_partition"),
    "errors": ("ExpansionTooLarge", "ModelError", "NotTwoUsers", "ParseError", "PartitionInvalid",
               "SubspaceNotContained", "UnsupportedModel", "WitnessInvalid", "ZerotalkError"),
    "gf": ("FieldOrder", "FiniteMatrix"),
    "mcf": ("CommonFunctionWitness", "EdgeSubsetWitness", "LabelingWitness", "SubspaceWitness",
            "common_function", "evaluate_witness", "gk_finite_linear", "gk_hypergraphical",
            "gk_oracle", "jgk"),
    "sim": ("KeyExtractor", "SimulationRun", "build_extractor", "run"),
    "sources": ("DiscreteSource", "Edge", "EntropyProfile", "FiniteLinearSource",
                "HypergraphicalSource", "entropy_profile", "expand_finite_linear",
                "expand_hypergraphical", "fls_to_hypergraphical", "shannon_bits", "to_discrete"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
