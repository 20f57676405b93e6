"""Table IX: bypassing the Cyclone-style SVM detector.

An SVM over per-interval cyclic-interference counts is trained on synthetic
benign workloads (standing in for SPEC2017) and on textbook prime+probe
traces, then used (a) to score the textbook and RL-baseline attackers — both
are detected — and (b) as a reward penalty while training the *RL SVM* agent,
which learns sequences that evade the detector at some bit-rate cost.
"""

from __future__ import annotations

import functools
from typing import Dict, List

import numpy as np

from repro.attacks.scripted import TextbookPrimeProbeAttacker, run_scripted_attacker
from repro.detection.cyclone import CycloneDetector
from repro.experiments.common import (
    ScaleLike,
    resolve_scale,
    train_agent_with_trainer,
)
from repro.experiments.table8_fig3 import (
    covert_env_config,
    covert_scenario_overrides,
    covert_sizes,
    evaluate_covert_policy,
    make_covert_env_factory,
)
from repro.scenarios import make_factory


def _detection_rate(detector: CycloneDetector, traces: List) -> float:
    if not traces:
        return 0.0
    return float(np.mean([detector.detection_rate(trace) for trace in traces]))


@functools.lru_cache(maxsize=8)
def train_detector(num_sets: int, episode_length: int, seed: int = 0,
                   benign_traces: int = 30) -> tuple:
    """Train the Cyclone SVM on benign workloads plus textbook attack traces.

    Deterministically seeded, so the result is cached per argument tuple:
    an in-process drain (one worker) trains the detector once for its three
    cells, while separate drainer processes each train their own identical
    copy.  Callers must treat the returned objects as read-only.
    """
    env = make_covert_env_factory(num_sets, episode_length)(seed)
    textbook_stats = run_scripted_attacker(env, TextbookPrimeProbeAttacker(env), episodes=4)
    detector = CycloneDetector.trained_on_synthetic_benign(
        covert_env_config(num_sets, episode_length, seed).cache,
        attack_traces=textbook_stats["traces"],
        num_benign=benign_traces, trace_length=4 * episode_length,
        interval=max(10, episode_length // 4), seed=seed)
    return detector, textbook_stats


def run_cell(params: Dict, scale: ScaleLike, seed: int = 0, ctx=None) -> Dict:
    """One Table IX row: textbook, RL baseline, or RL SVM.

    Every cell retrains the (deterministically seeded) Cyclone SVM, so cells
    stay independent and can run on separate workers while scoring against an
    identical detector.
    """
    scale = resolve_scale(scale)
    attack = params["attack"]
    eval_episodes = params.get("eval_episodes", 5)
    num_sets, episode_length = covert_sizes(scale)
    detector, textbook_stats = train_detector(num_sets, episode_length, seed=seed)

    if attack == "textbook":
        stats = textbook_stats
    elif attack == "RL baseline":
        baseline_factory = make_covert_env_factory(num_sets, episode_length)
        _result, trained = train_agent_with_trainer(baseline_factory, scale, seed=seed,
                                                    target_accuracy=0.97, ctx=ctx)
        stats = evaluate_covert_policy(baseline_factory, trained.policy,
                                       episodes=eval_episodes, seed=seed)
    elif attack == "RL SVM":
        svm_factory = make_factory("covert/prime-probe-svm", detector=detector,
                                   **covert_scenario_overrides(num_sets, episode_length))
        _result, trained = train_agent_with_trainer(svm_factory, scale, seed=seed + 1,
                                                    target_accuracy=0.97, ctx=ctx)
        plain_factory = make_covert_env_factory(num_sets, episode_length)
        stats = evaluate_covert_policy(plain_factory, trained.policy,
                                       episodes=eval_episodes, seed=seed + 1)
    else:
        raise KeyError(f"unknown Table IX attack {attack!r}")
    return {
        "attack": attack,
        "bit_rate": stats["bit_rate"],
        "guess_accuracy": stats["guess_accuracy"],
        "detection_rate": _detection_rate(detector, stats["traces"]),
        "svm_validation_accuracy": detector.validation_accuracy,
    }
