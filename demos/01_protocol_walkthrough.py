"""One protocol run, narrated end to end.

Alice holds x, Bob holds y, both read the same public coins.  Each builds
a message bundle from its own input alone; the referee reads the coins
and the XOR of the two bundles, which is the bundle of x XOR y, and
announces f(x, y) = D(|x XOR y|).
"""

import numpy as np

from xorsmp import (
    CoinSource,
    compute_profile,
    family,
    hamming_distance,
    oracle,
    sample_pair_with_distance,
)
from xorsmp.protocol import (
    ALICE,
    BOB,
    DIFFERENCE,
    Transcript,
    p_party_messages,
    p_referee,
    p_shared,
    p_transcript_entries,
    transcript_cost,
)

n = 128
pred = family("ham:5", n)  # f(x, y) = 1 iff the inputs differ in at most 5 places
profile = compute_profile(pred)
print(f"predicate: distance-at-most-5 on n={n}")
print(f"profile:   r0={profile.r0} r1={profile.r1} "
      f"(2-periodic middle answers t_even={profile.t_even}, t_odd={profile.t_odd})")

coins = CoinSource.from_seed(2024).derive("trial/0")
x, y = sample_pair_with_distance(n, 4, coins.derive("input"))
print(f"\ninputs at Hamming distance {hamming_distance(x, y)}")

# Public coins first: both parties materialize identical shared randomness.
shared = p_shared(pred, profile, "syndrome", coins)

# Each party sees only its own input.
bundle_a = p_party_messages(shared, x, ALICE)
bundle_b = p_party_messages(shared, y, BOB)
party_bits = shared.plan.party_bits  # fixed by the run shape, not by the inputs
print(f"Alice sends {party_bits} bits, Bob sends {party_bits} bits")

# Every message is GF(2)-linear in its sender's input, so the XOR of the two
# bundles is the bundle of x XOR y: the referee reads only that difference.
diff = p_party_messages(shared, x ^ y, DIFFERENCE)
print("the referee reads the bundle of x XOR y "
      f"(its parity bit is parity(x XOR y) = {diff.parity_bit})")

result = p_referee(shared, diff)
print(f"\nreferee branch taken: {result.branch} (recovered distance {result.sum_h})")
print(f"referee output: {result.output}, ground truth: {oracle(pred, x, y)}")

entries = p_transcript_entries(shared, bundle_a, bundle_b)
t = Transcript(header={}, entries=entries)
print(f"\ntranscript: {len(entries)} entries, {transcript_cost(t)} bits total; first few:")
for party, label, bits in list(zip(entries.parties, entries.labels, entries.sizes))[:5]:
    print(f"  {party:5s} {label:28s} {bits:4d} bits")

# Label by label, Alice's payload XOR Bob's is the difference bundle's.
diff_entries = p_transcript_entries(shared, diff, diff)
per = len(entries) // 2
print("\nAlice's payload XOR Bob's, against the difference bundle's:")
for i in (0, 1, 2, per - 1):
    both = entries.payloads([i]) ^ entries.payloads([per + i])
    same = np.array_equal(both, diff_entries.payloads([i]))
    print(f"  {entries.labels[i]:28s} {'equal' if same else 'DIFFERENT'}")
