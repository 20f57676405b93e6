"""Figure 4: the StealthyStreamline attack and µarch-statistics detection.

The figure's message has three parts, all reproduced on the simulator:

1. attacks that evict the victim's line (Streamline-style / flush-based) make
   the victim miss, so a performance-counter detector sees them;
2. the LRU-state attacks and StealthyStreamline never make the victim miss;
3. StealthyStreamline transmits more bits per access than the LRU
   address-based attack while staying stealthy.
"""

from __future__ import annotations

from typing import Dict, List

from repro.attacks.lru_attacks import LRUAddressBasedChannel
from repro.attacks.stealthy_streamline import StealthyStreamlineChannel
from repro.attacks.streamline import StreamlineChannel

CHANNEL_BUILDERS = {
    "lru_address_based": LRUAddressBasedChannel,
    "streamline": StreamlineChannel,
    "stealthy_streamline": StealthyStreamlineChannel,
}


def run_cell(params: Dict, scale=None, seed: int = 0, ctx=None) -> Dict:
    """One Figure 4 row: transmit a message through one covert channel."""
    builder = CHANNEL_BUILDERS[params["channel"]]
    channel = builder(num_ways=params.get("num_ways", 8), seed=seed)
    message = channel.random_message(params.get("message_bits", 512))
    result = channel.transmit(message)
    return {
        "channel": channel.name,
        "bits_per_symbol": channel.bits_per_symbol,
        "bits_per_access": result.bits_per_access,
        "measured_fraction": result.measured_fraction,
        "error_rate": result.error_rate,
        "victim_misses": result.sender_misses,
        "stealthy": result.stealthy,
        "bypasses_miss_detection": result.stealthy,
    }


def cache_state_walkthrough(num_ways: int = 8, seed: int = 0) -> List[Dict]:
    """Figure 4(d): per-symbol decode trace of the StealthyStreamline channel."""
    channel = StealthyStreamlineChannel(num_ways=num_ways, seed=seed)
    channel.cache.reset()
    channel._reset_counters()
    channel.prepare()
    rows: List[Dict] = []
    for symbol in range(4):
        decoded = channel.send_and_receive_symbol(symbol)
        rows.append({
            "victim_access": symbol,
            "decoded": decoded,
            "correct": decoded == symbol,
            "cache_contents": channel.cache.contents(),
            "replacement_state": channel.cache.replacement_state(0),
        })
    return rows
