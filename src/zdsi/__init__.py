"""Zero-delay lossy source coding with decoder side information.

Exact rate-distortion tradeoffs for instantaneous (self-delimiting given
side information) codes: optimal restricted-input protocols, scalar
quantizer envelopes, causal and multiterminal variants, plus bit-exact
streaming and Monte Carlo validation of the sequential prefix scheme.
"""

from .errors import (
    BelowMinimumDistortion,
    ConditionOnZero,
    DomainError,
    EmptyInput,
    InfeasibleProtocol,
    InvalidArgument,
    InvalidWitness,
    NegativeEntry,
    NoConvergence,
    ParseError,
    SuboptimalProtocol,
    SumNotOne,
    SyncLoss,
    TooLarge,
    ValidationError,
    ZdsiError,
)
from .graphs import (
    CharacteristicGraph,
    Coloring,
    build_characteristic_graph,
    chromatic_number,
    coloring_of_protocol,
    induced_graph,
    is_complete,
)
from .multiterminal import (
    AchievabilityResult,
    MTPoint,
    MTRegion,
    build_region,
    enumerate_mt_points,
    is_achievable,
    pareto_surface,
    simultaneous_points,
    verify_witness,
)
from .probability import (
    Alphabet,
    DistortionMatrix,
    JointPMF,
    TriplePMF,
    distortion_matrix,
    fully_connected,
    hamming,
    joint_pmf,
    marginal_si,
    marginal_source,
    conditional_given_si,
    normalized_support,
    sample_iid,
    triple_pmf,
    typewriter,
    validate,
)
from .quantizers import (
    DecoderRule,
    Partition,
    QuantizerPoint,
    RDCurve,
    RIInstance,
    causal_rd_curve,
    decoded_partitions,
    encoder_si_points,
    encoder_si_rd_curve,
    enumerate_partitions,
    lower_convex_envelope,
    optimal_decoder,
    rd_points,
)
from .ri_codes import (
    RIProtocol,
    avg_length,
    check_feasible,
    conditional_huffman,
    huffman,
    huffman_codes,
    solve_ri,
    solve_ri_conditional,
    solve_ri_weights,
    verify_ri,
)
from .sequential import (
    PrefixUniquenessEstimate,
    RateDistortionFunction,
    SchemeReport,
    SchemeResult,
    pc_lower_bound,
    rd_function,
    simulate_prefix_uniqueness,
    simulate_scheme,
    threshold_alpha,
)
from .streaming import (
    SimReport,
    StreamDecoder,
    StreamEncoder,
    TimeSharePlan,
    build_plan,
    run_simulation,
)

__version__ = "0.1.0"
