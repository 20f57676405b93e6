"""Search-space analysis: RL versus brute-force search (Sec. VI-A).

The paper estimates that finding one prime+probe sequence on an N-way set by
unguided sampling requires on average M = 2 (N+1)^(2N+1) / (N!)^2 candidate
sequences, each of which takes 2N+2 steps to evaluate — about 369 million
steps for N = 8, versus roughly one million steps for the RL agent.
"""

from __future__ import annotations

import math


def prime_probe_search_space(num_ways: int) -> float:
    """Expected number of random sequences before hitting a prime+probe attack."""
    if num_ways < 1:
        raise ValueError("num_ways must be >= 1")
    n = num_ways
    return 2.0 * (n + 1) ** (2 * n + 1) / (math.factorial(n) ** 2)


def brute_force_steps_estimate(num_ways: int) -> float:
    """Expected environment steps for the brute-force search (each try is 2N+2 steps)."""
    return prime_probe_search_space(num_ways) * (2 * num_ways + 2)
