"""The measure landscape of a biased coin.

Sweeps the probability of drawing a one from 0 to 1 and prints the
information I, emergence E, self-organization S, and complexity C of long
Bernoulli bit strings.  I (and hence E) peaks at a fair coin and vanishes at
the deterministic extremes; S mirrors E; C is largest where order and variety
balance, i.e. where I is near one half.
"""

import numpy as np

from infodyn import SymbolSequence, shannon_information, simplified_measures

LENGTH = 100_000
rng = np.random.default_rng(1)

print(f"{'P(1)':>5}  {'I':>8}  {'E':>8}  {'S':>8}  {'C':>8}")
for p in np.linspace(0.0, 1.0, 21):
    bits = SymbolSequence((rng.random(LENGTH) < p).astype(int), 1)
    ms = simplified_measures(bits)
    i = shannon_information(bits)
    print(
        f"{p:5.2f}  {i:8.4f}  {ms.emergence:8.4f}"
        f"  {ms.self_organization:8.4f}  {ms.complexity:8.4f}"
    )

print()
print("I is maximal for a fair coin and zero once the outcome is certain;")
print("C = 4*I*(1-I) peaks where I = 0.5, between order and randomness.")
