"""Table X and Figure 5: covert-channel bit rates on (simulated) real machines.

Table X reports, for four Intel machines, the bit rate of the LRU
address-based channel and of StealthyStreamline at error rates below 5%, plus
the relative improvement (up to 24% on 8-way L1Ds and up to 71% on the 12-way
RocketLake L1Ds).  Figure 5 plots bit rate versus error rate for both channels
on each machine.  Real hardware is replaced by the per-machine timing model in
:mod:`repro.hardware.timing`; the structural driver of the result — the
fraction of accesses that must be timed per transmitted symbol — is preserved.
"""

from __future__ import annotations

from typing import Dict

from repro.hardware.machines import TABLE10_MACHINES, get_table10_machine
from repro.hardware.timing import CovertChannelTimingModel, TimingParameters

ERROR_TARGET = 0.05


def run_cell(params: Dict, scale=None, seed: int = 0, ctx=None) -> Dict:
    """One Table X row: both covert channels on one machine's timing model."""
    machine = get_table10_machine(params["machine"])
    message_bits = params.get("message_bits", 2048)
    model = CovertChannelTimingModel(machine, seed=seed)
    lru = TimingParameters.lru_address_based(machine.num_ways)
    stealthy = TimingParameters.stealthy_streamline(machine.num_ways)
    lru_run = model.simulate_transmission(lru, message_bits=message_bits)
    stealthy_run = model.simulate_transmission(stealthy, message_bits=message_bits)
    improvement = (stealthy_run["bit_rate_mbps"] - lru_run["bit_rate_mbps"]) / lru_run["bit_rate_mbps"]
    return {
        "cpu": machine.name,
        "microarchitecture": machine.microarchitecture,
        "l1d_config": f"{machine.l1d_size_kb}KB({machine.num_ways}way)",
        "os": machine.operating_system,
        "lru_bit_rate_mbps": lru_run["bit_rate_mbps"],
        "ss_bit_rate_mbps": stealthy_run["bit_rate_mbps"],
        "improvement": improvement,
        "lru_error_rate": lru_run["error_rate"],
        "ss_error_rate": stealthy_run["error_rate"],
        "meets_error_target": (lru_run["error_rate"] < ERROR_TARGET
                               and stealthy_run["error_rate"] < ERROR_TARGET),
    }


def figure5_curves(message_bits: int = 2048, seed: int = 0, trials: int = 5) -> Dict[str, Dict]:
    """Figure 5: bit-rate vs error-rate curves for both channels on every machine."""
    curves: Dict[str, Dict] = {}
    for machine in TABLE10_MACHINES:
        model = CovertChannelTimingModel(machine, seed=seed)
        lru = TimingParameters.lru_address_based(machine.num_ways)
        stealthy = TimingParameters.stealthy_streamline(machine.num_ways)
        curves[machine.name] = {
            "lru_address_based": model.bit_rate_error_curve(lru, message_bits=message_bits,
                                                            trials=trials),
            "stealthy_streamline": model.bit_rate_error_curve(stealthy, message_bits=message_bits,
                                                              trials=trials),
        }
    return curves
