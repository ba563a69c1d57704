"""Transcript cost as the predicate's tail length r grows.

The syndrome strategy tracks r * log2(r)^3 / log2 log2(r) up to bumps from
the discrete per-block cap; the bucket strategy's quadratic sketches pull
away visibly.  Message sizes are data-independent, so each cost is exact;
the trivial protocol (each party sends its input) costs 2n.
"""

from xorsmp.harness import sweep_r

n = 2048
rs = [4, 8, 16, 32, 64]

syn = sweep_r(rs, n, "syndrome")
buc = sweep_r(rs, n, "bucket")

print(f"trivial protocol: 2n = {syn[0].trivial_bits} bits\n")
print(f"{'r':>3} {'syndrome':>10} {'bucket':>10} {'bucket/syn':>11} "
      f"{'normalizer':>11} {'syn ratio':>10}")
for s, b in zip(syn, buc):
    print(
        f"{s.r:>3} {s.cost_bits:>10} {b.cost_bits:>10} "
        f"{b.cost_bits / s.cost_bits:>11.2f} "
        f"{s.normalizer:>11.1f} {s.ratio:>10.1f}"
    )

ratios = [s.ratio for s in syn]
print(f"\nsyndrome cost/normalizer spread over the sweep: "
      f"{max(ratios) / min(ratios):.2f}x "
      f"(max consecutive step {max(max(a, b) / min(a, b) for a, b in zip(ratios, ratios[1:])):.2f}x)")
