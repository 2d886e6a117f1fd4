"""Private computation of candidate functions on replicated databases.

Exact capacity bounds and achievable rates for privately retrieving one of mu
candidate functions of f messages stored at n noncolluding replicas, plus an
executable protocol: query-plan generation, database answers, decoding,
download charges, and privacy-structure verification, in symbolic
(entropy-charged) and concrete (fixed-length-coded) modes.
"""

from .candidates import (
    CandidateSet,
    EntropyProfile,
    FunctionTable,
    build_monomial,
    candidate_set_from_exponents,
    generate_nonparallel_monomials,
    monomial_candidate_set,
    order_by_entropy,
    table_entropy,
)
from .coding import (
    Codeword,
    FixedCode,
    decode_fixed,
    encode_fixed,
    sum_codewords,
    widen_codeword,
)
from .errors import (
    CodecError,
    DegenerateInstanceError,
    ProtocolError,
    ResourceLimitError,
    UsageError,
)
from .protocol import (
    MessageStore,
    QueryPlan,
    SimulationConfig,
    SimulationReport,
    answer_queries,
    decode,
    generate_query_plan,
    run_simulation,
    verify_privacy_structure,
)
from .rates import (
    RateReport,
    achievable_rate,
    asymptotic_rate,
    baseline_virtual_pir_rate,
    d_one,
    d_opt,
    outer_bound,
    pir_capacity,
    rate_lower_bound,
    rate_report,
    round_download,
)

__all__ = [
    "CandidateSet",
    "Codeword",
    "CodecError",
    "DegenerateInstanceError",
    "EntropyProfile",
    "FixedCode",
    "FunctionTable",
    "MessageStore",
    "ProtocolError",
    "QueryPlan",
    "RateReport",
    "ResourceLimitError",
    "SimulationConfig",
    "SimulationReport",
    "UsageError",
    "achievable_rate",
    "answer_queries",
    "asymptotic_rate",
    "baseline_virtual_pir_rate",
    "build_monomial",
    "candidate_set_from_exponents",
    "d_one",
    "d_opt",
    "decode",
    "decode_fixed",
    "encode_fixed",
    "generate_nonparallel_monomials",
    "generate_query_plan",
    "monomial_candidate_set",
    "order_by_entropy",
    "outer_bound",
    "pir_capacity",
    "rate_lower_bound",
    "rate_report",
    "round_download",
    "run_simulation",
    "sum_codewords",
    "table_entropy",
    "verify_privacy_structure",
    "widen_codeword",
]

__version__ = "0.1.0"
