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

from .bounds import (
    LaminationBound,
    Partition,
    all_partitions,
    alpha,
    best_partition,
    chain_bound,
    lamination_bound,
    singleton_partition,
)
from .errors import (
    ExpansionTooLarge,
    ModelError,
    NotTwoUsers,
    ParseError,
    PartitionInvalid,
    SubspaceNotContained,
    UnsupportedModel,
    WitnessInvalid,
    ZerotalkError,
)
from .gf import FieldOrder, FiniteMatrix
from .mcf import (
    CommonFunctionWitness,
    EdgeSubsetWitness,
    LabelingWitness,
    SubspaceWitness,
    common_function,
    evaluate_witness,
    gk_finite_linear,
    gk_hypergraphical,
    gk_oracle,
    jgk,
)
from .sim import KeyExtractor, SimulationRun, build_extractor, run
from .sources import (
    DiscreteSource,
    Edge,
    EntropyProfile,
    FiniteLinearSource,
    HypergraphicalSource,
    entropy_profile,
    expand_finite_linear,
    expand_hypergraphical,
    fls_to_hypergraphical,
    shannon_bits,
    to_discrete,
)

__version__ = "0.1.0"

__all__ = [
    "CommonFunctionWitness",
    "DiscreteSource",
    "Edge",
    "EdgeSubsetWitness",
    "EntropyProfile",
    "ExpansionTooLarge",
    "FieldOrder",
    "FiniteLinearSource",
    "FiniteMatrix",
    "HypergraphicalSource",
    "KeyExtractor",
    "LabelingWitness",
    "LaminationBound",
    "ModelError",
    "NotTwoUsers",
    "ParseError",
    "Partition",
    "PartitionInvalid",
    "SimulationRun",
    "SubspaceNotContained",
    "SubspaceWitness",
    "UnsupportedModel",
    "WitnessInvalid",
    "ZerotalkError",
    "all_partitions",
    "alpha",
    "best_partition",
    "build_extractor",
    "chain_bound",
    "common_function",
    "entropy_profile",
    "evaluate_witness",
    "expand_finite_linear",
    "expand_hypergraphical",
    "fls_to_hypergraphical",
    "gk_finite_linear",
    "gk_hypergraphical",
    "gk_oracle",
    "jgk",
    "lamination_bound",
    "run",
    "shannon_bits",
    "singleton_partition",
    "to_discrete",
]
