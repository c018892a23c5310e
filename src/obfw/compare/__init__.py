from .accounting import (
    ROUNDS,
    alg4_online,
    alg4_step_bits,
    alg4_total,
    alg5_online,
    alg5_step_bits,
    alg5_total,
    alg6_total,
    alg7_constant_round_total,
)
from .malicious import (
    MaliciousOutcome,
    malicious_party,
    mult_fanin_party,
    run_malicious,
    run_mult_fanin,
)
from .params import (
    Claim1Trace,
    ComparisonParams,
    DomainOverflow,
    bits_lsb,
    circular_shift,
    circular_unshift,
    claim1_oracle,
    claim1_trace,
    select_n2,
    smallest_prime_above,
)
from .semi_honest import (
    CompareOutcome,
    ProtocolInvariantError,
    TapRecorder,
    build_programs,
    build_shared_programs,
    run_semi_honest,
    run_shared_inputs,
    share_bits_among,
)
