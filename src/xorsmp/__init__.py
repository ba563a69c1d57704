"""Public-coin SMP protocols for symmetric XOR functions f(x,y) = D(|x XOR y|).

A library plus CLI simulator: bit vectors, predicate profiles, shared
randomness, distance-threshold sketches, the partition-based promise
protocol and the full three-branch protocol, with bit-exact transcript
cost accounting and a Monte Carlo harness.
"""

from .bits import (
    BitVector,
    hamming_distance,
    parity,
    sample_pair_with_distance,
)
from .coins import CoinSource, Partition, c_of_k, sample_partition
from .gf2 import BchCode, bch_code
from .hamming import HDParams, HDShared, HDVerdict, hd_decide, hd_shared
from .predicate import (
    Predicate,
    Profile,
    compute_profile,
    family,
    oracle,
    violations,
)
from .protocol import (
    pk_party_messages,
    pk_referee,
    pk_shared,
    p_party_messages,
    p_referee,
    p_shared,
    p_total_cost,
    run_protocol,
    transcript_cost,
)

__version__ = "0.1.0"

__all__ = [
    "BitVector",
    "hamming_distance",
    "parity",
    "sample_pair_with_distance",
    "CoinSource",
    "Partition",
    "sample_partition",
    "c_of_k",
    "BchCode",
    "bch_code",
    "HDParams",
    "HDShared",
    "HDVerdict",
    "hd_shared",
    "hd_decide",
    "Predicate",
    "Profile",
    "violations",
    "compute_profile",
    "oracle",
    "family",
    "pk_shared",
    "pk_party_messages",
    "pk_referee",
    "p_shared",
    "p_party_messages",
    "p_referee",
    "p_total_cost",
    "run_protocol",
    "transcript_cost",
    "__version__",
]
