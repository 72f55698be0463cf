"""Evaluating K_s(z) by series, with honest convergence metadata.

Shows the terminating half-integer fast path, the slow oscillating tail of
the paper's sum at generic orders, the small-z corner that ``k_mcdonald``
answers by Temme's series instead, and the agreement between the raw and
rearranged forms of the expansion.

    python demos/03_mcdonald_series.py
"""

from fracbessel import (
    TruncationPolicy,
    k_mcdonald,
    k_oracle,
    k_series_m9,
    k_series_rearranged,
)

print("Half-integer orders terminate after exactly s + 1/2 outer terms:")
for m in range(5):
    s = m + 0.5
    approx = k_mcdonald(s, 2.0)
    ref = k_oracle(s, 2.0)
    print(
        f"  K_{m}+1/2(2) = {approx.value:.15g}  terms={approx.terms_used}  "
        f"rel vs oracle = {abs(approx.value - ref) / ref:.1e}"
    )

print("\nThe paper's sum truncates adaptively at generic orders; the default policy")
print("is conservative (its divergence heuristic trips on the slowly oscillating tail):")
for s, z in ((0.7, 1.0), (2.6, 1.0)):
    approx = k_series_rearranged(s, z)
    ref = k_oracle(s, z)
    print(
        f"  s={s} z={z}: {approx.stop_reason} after {approx.terms_used} terms, "
        f"partial sum off by {abs(approx.value - ref) / ref:.1e}"
    )

print("\nA wider window lets the tail run; at s=2.6 it reaches full precision:")
wide = TruncationPolicy(max_terms=200, divergence_window=10**6)
for s, z in ((0.7, 1.0), (2.6, 1.0)):
    approx = k_series_rearranged(s, z, wide)
    ref = k_oracle(s, z)
    print(
        f"  s={s} z={z}: {approx.stop_reason} after {approx.terms_used} terms, "
        f"rel = {abs(approx.value - ref) / ref:.1e}"
    )

print("\nk_mcdonald answers z <= 2 at orders up to 5 (half-integers aside) by Temme's series:")
for s, z in ((0.7, 1.0), (2.6, 1.0)):
    approx = k_mcdonald(s, z)
    ref = k_oracle(s, z)
    print(
        f"  s={s} z={z}: {approx.stop_reason} after {approx.terms_used} terms, "
        f"rel = {abs(approx.value - ref) / ref:.1e}"
    )

print("\nRaw vs rearranged form at equal term caps (same series, regrouped):")
pol = TruncationPolicy(max_terms=100, divergence_window=10**6)
raw = k_series_m9(0.7, 1.3, pol)
re = k_series_rearranged(0.7, 1.3, pol)
print(f"  raw        = {raw.value:.17g}")
print(f"  rearranged = {re.value:.17g}")
print(f"  rel diff   = {abs(raw.value - re.value) / abs(re.value):.1e}")

print("\nThe order is even: K_{-s} = K_s by symmetry reduction:")
print(f"  k_mcdonald(-1/2, 1) = {k_mcdonald(-0.5, 1.0).value:.15g}")
print(f"  k_mcdonald(+1/2, 1) = {k_mcdonald(0.5, 1.0).value:.15g}")
