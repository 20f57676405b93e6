"""Table VI: attacks against the random replacement policy.

With a (pseudo-)random replacement policy there is no single deterministic
attack sequence; the trained agent trades attack length against accuracy, and
the step reward controls that tradeoff: a larger per-step penalty pushes the
agent towards shorter, less reliable attacks.
"""

from __future__ import annotations

from typing import Dict

from repro.experiments.common import ScaleLike, resolve_scale, train_agent
from repro.scenarios import make_factory


def make_env_factory(step_reward: float, num_ways: int = 4, max_steps: int = 24):
    """Environment factory for the random-replacement study.

    Thin shim over the scenario registry: ``guessing/random-4way`` with the
    study's step-reward and episode-length overrides applied.
    """
    overrides = {"step_reward": step_reward,
                 "window_size": max_steps, "max_steps": max_steps}
    if num_ways != 4:
        overrides.update({"cache.num_ways": num_ways, "attacker_addr_e": num_ways})
    return make_factory("guessing/random-4way", **overrides)


def run_cell(params: Dict, scale: ScaleLike, seed: int = 0, ctx=None) -> Dict:
    """One Table VI row: train one agent at one step-reward setting."""
    scale = resolve_scale(scale)
    step_reward = params["step_reward"]
    num_ways = params.get("num_ways", 4)
    if scale.name == "smoke":
        num_ways = 2
    result = train_agent(make_env_factory(step_reward, num_ways=num_ways),
                         scale, seed=seed, target_accuracy=0.93, ctx=ctx)
    return {
        "step_reward": step_reward,
        "end_accuracy": result.final_accuracy,
        "episode_length": result.final_episode_length,
        "converged": result.converged,
        "env_steps": result.env_steps,
    }
