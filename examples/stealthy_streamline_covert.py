#!/usr/bin/env python3
"""StealthyStreamline end to end: simulator correctness, stealth, and bit rates.

Reproduces the three parts of the paper's StealthyStreamline story:

1. transmit a random message through the LRU address-based, Streamline, and
   StealthyStreamline channels on the cache simulator, comparing bits per
   access and whether the sender (victim) ever misses (Figure 4);
2. estimate real-machine bit rates with the per-machine timing models for the
   four Intel processors of Table X / Figure 5;
3. mount a Spectre-v1 attack that exfiltrates a secret string through the
   StealthyStreamline channel (Section V-E).

Run with:  python examples/stealthy_streamline_covert.py
"""

from __future__ import annotations

import tempfile

import repro
from repro.attacks import run_spectre_demo
from repro.experiments import fig4, table10_fig5
from repro.experiments.common import format_table


def main() -> None:
    print("1. Covert channels on the cache simulator (8-way LRU set)")
    rows = [fig4.run_cell({"channel": name, "num_ways": 8, "message_bits": 2048})
            for name in fig4.CHANNEL_BUILDERS]
    print(format_table(rows, ["channel", "bits_per_symbol", "bits_per_access",
                              "error_rate", "victim_misses", "bypasses_miss_detection"]))

    print("\n2. Bit rates on the simulated real machines (Table X)")
    with tempfile.TemporaryDirectory() as out_dir:
        campaign = repro.run("table10", scale="smoke", out_dir=out_dir, catalog=False)
    print(campaign.format_results())

    print("\n3. Bit rate vs error rate (Figure 5, lowest-noise point per machine)")
    curves = table10_fig5.figure5_curves(message_bits=2048, trials=3)
    for machine, channels in curves.items():
        for channel, points in channels.items():
            point = points[0]
            print(f"  {machine:20s} {channel:22s} "
                  f"{point['bit_rate_mbps']:6.2f} Mbps at {point['error_rate_mean']:.3%} error")

    print("\n4. Spectre v1 through the StealthyStreamline channel")
    outcome = run_spectre_demo(secret=b"AutoCAT reproduction")
    print(f"  secret     : {outcome['secret']!r}")
    print(f"  recovered  : {outcome['recovered']!r}")
    print(f"  accuracy   : {outcome['byte_accuracy']:.2%}")
    print(f"  victim (sender) misses: {outcome['sender_misses']}  -> stealthy: {outcome['stealthy']}")


if __name__ == "__main__":
    main()
