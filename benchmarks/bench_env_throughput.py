"""Environment throughput: the per-env object path vs the SoA batched engine.

Measures aggregate guessing-game steps/sec through :class:`repro.rl.vec_env.VecEnv`
for the two execution paths —

* ``object``  — per-env object-model caches, stepped in a Python loop
  (a plain factory callable, ``functools.partial(repro.make, scenario)``,
  takes this path);
* ``soa``     — the collapsed structure-of-arrays batched fast path;

under two workloads —

* ``random`` — uniform-random actions (an untrained agent; episodes end after
  ~4 steps because a quarter of the actions are guesses, so this workload is
  reset-dominated);
* ``replay`` — the canonical prime+probe attack schedule (what a converged
  agent plays): fill accesses, victim trigger, probe accesses, final guess at
  the episode-length limit.

A defended-scenario row (default ``defended/lru-4way-keyed-remap``, which
exercises the keyed-remap SoA kernel) is measured at the headline env count so
defense overhead lands in the trajectory alongside the plain-cache rows.

Appends one entry to the perf trajectory file ``BENCH_throughput.json`` at the
repo root, so successive PRs accumulate a throughput history.

Usage::

    PYTHONPATH=src python benchmarks/bench_env_throughput.py [--smoke]
        [--scenario guessing/lru-4way] [--num-envs 1 8 32]
        [--defended-scenario defended/lru-4way-keyed-remap]
        [--steps 4000] [--trials 3] [--output BENCH_throughput.json]
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from pathlib import Path

import numpy as np

import repro
from repro.env.actions import ActionKind

if __package__ in (None, ""):  # run as a script: make ``benchmarks`` importable
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from benchmarks._common import append_trajectory  # noqa: E402

DEFAULT_SCENARIO = "guessing/lru-4way"
DEFAULT_DEFENDED_SCENARIO = "defended/lru-4way-keyed-remap"
DEFAULT_NUM_ENVS = (1, 8, 32, 128)
HEADLINE_NUM_ENVS = 32


def replay_schedule(scenario: str) -> list:
    """A full-length attack episode: prime, trigger, probe, guess at the end."""
    env = repro.make(scenario)
    access = [i for i, a in enumerate(env.actions) if a.kind is ActionKind.ACCESS]
    trigger = env.actions.trigger_index
    guess = env.actions.guess_indices[0]
    length = env.max_steps
    schedule = []
    for step in range(length - 1):
        if step == len(access):
            schedule.append(trigger)
        else:
            schedule.append(access[step % len(access)])
    schedule.append(guess)
    return schedule


def _workload_actions(scenario: str, workload: str, steps: int,
                      num_envs: int, num_actions: int) -> np.ndarray:
    if workload == "random":
        rng = np.random.default_rng(0)
        return rng.integers(num_actions, size=(steps, num_envs))
    schedule = replay_schedule(scenario)
    actions = np.empty((steps, num_envs), dtype=np.int64)
    for i in range(steps):
        actions[i] = schedule[i % len(schedule)]
    return actions


def _time_one(vec, actions: np.ndarray) -> float:
    vec.reset()
    steps = actions.shape[0]
    start = time.perf_counter()
    for i in range(steps):
        vec.step(actions[i])
    return steps * vec.num_envs / (time.perf_counter() - start)


def measure(scenario: str, workload: str, num_envs: int,
            steps: int, trials: int) -> tuple:
    """Best-of-``trials`` aggregate env-steps/sec for (object, soa).

    The two paths are timed alternately within each trial so transient
    machine load hits both, not just one.  Both are chosen explicitly: the
    default rule would put every count below the batching threshold on the
    object path, muddying the comparison.
    """
    from repro.rl.vec_env import VecEnv

    vec_object = VecEnv(functools.partial(repro.make, scenario),
                        num_envs=num_envs)
    # batching_threshold=1 batches even below VecEnv's normal num_envs>=4
    # collapse rule, so the crossover stays measurable.
    vec_soa = VecEnv(scenario, num_envs=num_envs, batching_threshold=1)
    if not vec_soa.batched:
        raise RuntimeError(f"scenario {scenario!r} did not engage the batched path")
    actions = _workload_actions(scenario, workload, steps, num_envs,
                                vec_soa.num_actions)
    best_object = best_soa = 0.0
    for _ in range(trials):
        best_object = max(best_object, _time_one(vec_object, actions))
        best_soa = max(best_soa, _time_one(vec_soa, actions))
    return best_object, best_soa


def run(scenario: str = DEFAULT_SCENARIO, num_envs=DEFAULT_NUM_ENVS,
        steps: int = 4000, trials: int = 3,
        defended_scenario: str = DEFAULT_DEFENDED_SCENARIO) -> dict:
    """Measure all path/workload/num_envs combinations; return the entry."""
    def measure_rows(target_scenario, counts):
        rows = []
        for workload in ("random", "replay"):
            for count in counts:
                object_rate, soa_rate = measure(target_scenario, workload, count,
                                                steps, trials)
                row = {"scenario": target_scenario, "workload": workload,
                       "num_envs": count,
                       "object_steps_per_second": round(object_rate, 1),
                       "soa_steps_per_second": round(soa_rate, 1),
                       "speedup": round(soa_rate / object_rate, 2)}
                rows.append(row)
                print(f"{target_scenario:30s} {workload:6s} num_envs={count:3d}  "
                      f"object={row['object_steps_per_second']:10.0f}/s  "
                      f"soa={row['soa_steps_per_second']:10.0f}/s  "
                      f"speedup={row['speedup']:.2f}x")
        return rows

    results = measure_rows(scenario, num_envs)
    # Defense overhead row: the keyed-remap SoA kernel at the headline width.
    defended_results = (measure_rows(defended_scenario, (HEADLINE_NUM_ENVS,))
                        if defended_scenario else [])
    headline = [r for r in results
                if r["num_envs"] == HEADLINE_NUM_ENVS] or results[-1:]
    best = max(headline, key=lambda r: r["speedup"])
    entry = {
        "benchmark": "env_throughput",
        "scenario": scenario,
        "steps_per_measurement": steps,
        "trials": trials,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "results": results + defended_results,
        "headline_speedup": best["speedup"],
        "headline_num_envs": best["num_envs"],
    }
    if defended_results:
        entry["defended_scenario"] = defended_scenario
        entry["defended_headline_speedup"] = max(r["speedup"]
                                                 for r in defended_results)
    return entry


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--scenario", default=DEFAULT_SCENARIO)
    parser.add_argument("--defended-scenario", default=DEFAULT_DEFENDED_SCENARIO,
                        help="defended scenario measured at the headline env "
                             "count (empty string disables)")
    parser.add_argument("--num-envs", type=int, nargs="+",
                        default=list(DEFAULT_NUM_ENVS))
    parser.add_argument("--steps", type=int, default=4000)
    parser.add_argument("--trials", type=int, default=3)
    parser.add_argument("--smoke", action="store_true",
                        help="CI scale: fewer steps, one trial, 32 envs only")
    parser.add_argument("--output", default=None,
                        help="perf trajectory JSON (default: BENCH_throughput.json "
                             "at the repo root)")
    args = parser.parse_args()
    if args.smoke:
        args.steps = min(args.steps, 500)
        args.trials = 1
        args.num_envs = [HEADLINE_NUM_ENVS]
    entry = run(args.scenario, tuple(args.num_envs), args.steps, args.trials,
                defended_scenario=args.defended_scenario)
    if args.smoke:
        entry["scale"] = "smoke"
    output = Path(args.output) if args.output else \
        Path(__file__).resolve().parent.parent / "BENCH_throughput.json"
    append_trajectory(entry, output)
    print(f"headline speedup at num_envs={entry['headline_num_envs']}: "
          f"{entry['headline_speedup']:.2f}x -> {output}")


if __name__ == "__main__":
    main()
