"""The three distance-threshold sketches side by side.

raw ships the whole input, bucket ships hashed parities (quadratic in the
threshold), syndrome ships the BCH syndrome of those parities, the XOR of
each odd bucket's packed syndrome column (near-linear).  All three answer
"is |x XOR y| <= d?".
"""

from xorsmp import CoinSource, hd_decide, sample_pair_with_distance
from xorsmp.hamming import HDParams, hd_encode_shared, hd_shared

n = 256
root = CoinSource.from_seed(7)

print(f"{'d':>3} {'raw':>6} {'bucket':>7} {'syndrome':>9}   message bits at eps = 0.01, n = {n}")
for d in (0, 1, 2, 4, 8, 16):
    row = []
    for strategy in ("raw", "bucket", "syndrome"):
        params = HDParams(d=d, epsilon=0.01, strategy=strategy, length=n)
        row.append(params.payload_bits)
    print(f"{d:>3} {row[0]:>6} {row[1]:>7} {row[2]:>9}")

# Verdicts around the threshold: exact below it, wrong with tiny
# probability just above it.
d = 4
params = HDParams(d=d, epsilon=0.01, strategy="syndrome", length=n)
print(f"\nsyndrome verdicts at d={d} (LE means 'claims distance <= {d}'):")
for w in (2, 4, 5, 9):
    wrong = 0
    runs = 2000
    for i in range(runs):
        coins = root.derive(f"w{w}/{i}")
        x, y = sample_pair_with_distance(n, w, coins.derive("input"))
        shared = hd_shared(params, coins.derive("hd"))
        v = hd_decide(params, hd_encode_shared(shared, x), hd_encode_shared(shared, y))
        wrong += int(v.le != (w <= d))
    print(f"  true distance {w}: wrong verdicts {wrong}/{runs}")

# The messages are XOR-homomorphic: the referee only ever sees x XOR y.
params = HDParams(d=2, epsilon=0.05, strategy="syndrome", length=32)
coins = root.derive("lin")
shared = hd_shared(params, coins)
x, y = sample_pair_with_distance(32, 9, coins.derive("in"))
mx = hd_encode_shared(shared, x).block_payloads()[0]
my = hd_encode_shared(shared, y).block_payloads()[0]
mxy = hd_encode_shared(shared, x ^ y).block_payloads()[0]
print(f"\nencode(x) XOR encode(y) == encode(x XOR y): {bool(((mx ^ my) == mxy).all())}")
