"""Training throughput: the compiled/fused RL fast path vs the reference graph.

Measures PPO training on ``guessing/lru-4way`` (the tanh-MLP policy, default
``PPOConfig``) in three modes:

* ``graph``        — the reference graph: every minibatch runs
  :func:`repro.autodiff.reference.ppo_loss` and its ``backward()``, then the
  same gradient clip and Adam step as ``PPOUpdater.update()``.  (The
  persistent rollout buffer and in-place Adam are shared by every mode, so
  the reported speedup is a conservative lower bound on the improvement over
  a graph-only learner.)
* ``fast``         — the default path: graph-free compiled inference plans
  plus the fused PPO update kernel, float64 (bit-identical to ``graph``).
* ``fast-float32`` — the same fast path with the opt-in
  ``PPOConfig(dtype="float32")`` policy/optimizer mode.

Two metrics:

* **updates/sec**, every mode — repeated updates over one collected rollout
  (32 minibatch steps per update at the default config);
* **env-steps/sec (end-to-end)**, the two fast modes — a real ``train()``
  loop: rollout collection, updates, and periodic evaluation included.
  Training only runs on the fast path, so ``graph`` has no such row.

Plus a **telemetry overhead** measurement on the fast path: updates/sec of
the same ``train()`` loop with telemetry disabled vs enabled (the PR 10
acceptance budget is < 2% regression with ``REPRO_TELEMETRY=1``).  With one
trial per side (``--smoke``) the entry carries both rates but no overhead:
one short trial varies by far more than 2%.

Appends one entry to the perf trajectory file ``BENCH_train.json`` at the
repo root, so successive PRs accumulate a training-throughput history.

Usage::

    PYTHONPATH=src python benchmarks/bench_train_throughput.py [--smoke]
        [--scenario guessing/lru-4way] [--updates 5] [--trials 3]
        [--output BENCH_train.json]
"""

from __future__ import annotations

import argparse
import os
import platform
import statistics
import sys
import time
from pathlib import Path

from repro.autodiff import reference
from repro.rl.buffer import RolloutBuffer
from repro.rl.ppo import PPOConfig, PPOUpdater
from repro.rl.trainer import PPOTrainer

if __package__ in (None, ""):  # run as a script: make ``benchmarks`` importable
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from benchmarks._common import append_trajectory  # noqa: E402

DEFAULT_SCENARIO = "guessing/lru-4way"
MODES = ("graph", "fast", "fast-float32")
TRAIN_MODES = MODES[1:]


def _graph_update(updater: PPOUpdater, buffer: RolloutBuffer) -> None:
    """``updater.update(buffer)`` with each minibatch's loss on the graph."""
    config = updater.config
    optimizer = updater.optimizer
    for _ in range(config.update_epochs):
        for batch in buffer.iter_minibatches(config.minibatch_size, rng=updater.rng,
                                             normalize_advantages=config.normalize_advantages):
            optimizer.zero_grad()
            loss, _ = reference.ppo_loss(updater.policy, batch, config,
                                         updater.entropy_coefficient)
            loss.backward()
            optimizer.clip_grad_norm(config.max_grad_norm)
            optimizer.step()


def _update(mode: str, updater: PPOUpdater, buffer: RolloutBuffer) -> None:
    if mode == "graph":
        _graph_update(updater, buffer)
    else:
        updater.update(buffer)


def _make_trainer(mode: str, scenario: str, seed: int = 0) -> PPOTrainer:
    dtype = "float32" if mode == "fast-float32" else "float64"
    return PPOTrainer(scenario, seed=seed, ppo_config=PPOConfig(dtype=dtype))


def measure_updates(scenario: str, repeats: int, trials: int) -> dict:
    """PPO updates/sec of every trial per mode, over one fixed rollout.

    The modes are timed alternately within each trial so transient machine
    load hits all of them rather than biasing one.
    """
    states = {}
    for mode in MODES:
        trainer = _make_trainer(mode, scenario)
        observations = trainer.vec_env.reset()
        buffer, _ = trainer._collect_rollout(observations)
        _update(mode, trainer.updater, buffer)  # warm up workspaces/moments
        states[mode] = (trainer.updater, buffer)
    rates: dict = {mode: [] for mode in MODES}
    for _ in range(trials):
        for mode in MODES:
            updater, buffer = states[mode]
            start = time.perf_counter()
            for _ in range(repeats):
                _update(mode, updater, buffer)
            rates[mode].append(repeats / (time.perf_counter() - start))
    return rates


def measure_end_to_end(scenario: str, max_updates: int, trials: int) -> dict:
    """Aggregate env-steps/sec of full train() loops (rollout+update+eval).

    The fast modes alternate within each trial; every trial's rate per mode.
    """
    rates: dict = {mode: [] for mode in TRAIN_MODES}
    for _ in range(trials):
        for mode in TRAIN_MODES:
            trainer = _make_trainer(mode, scenario)
            start = time.perf_counter()
            # target_accuracy > 1 can never be reached, so the loop always
            # runs the full update budget however fast the agent learns.
            trainer.train(max_updates=max_updates, eval_every=5,
                          target_accuracy=2.0)
            elapsed = time.perf_counter() - start
            rates[mode].append(trainer.env_steps / elapsed)
    return rates


def measure_telemetry_overhead(scenario: str, max_updates: int,
                               trials: int) -> dict:
    """Updates/sec of the default fast path with telemetry off vs on.

    The PR 10 acceptance budget is < 2% regression with ``REPRO_TELEMETRY=1``.
    Handles sample the enabled flag at trainer construction, so each
    measurement builds a fresh trainer after ``telemetry.configure``; the
    process-wide override is restored (and the registry drained) afterwards
    so the bench leaves no telemetry state behind.

    ``overhead_pct`` compares the best rate of each side and is None with a
    single trial, whose noise dwarfs the 2% budget.
    """
    from repro import telemetry

    rates: dict = {False: [], True: []}
    try:
        for _ in range(trials):
            for enabled in (False, True):  # off first: cold-cache parity
                telemetry.configure(enabled=enabled, reset=True)
                trainer = _make_trainer("fast", scenario)
                start = time.perf_counter()
                trainer.train(max_updates=max_updates, eval_every=5,
                              target_accuracy=2.0)
                elapsed = time.perf_counter() - start
                rates[enabled].append(trainer.updates_done / elapsed)
    finally:
        telemetry.configure(enabled=None, reset=True)
    entry = {"trials": trials}
    entry.update(_spread("updates_per_second_off", rates[False], 2))
    entry.update(_spread("updates_per_second_on", rates[True], 2))
    entry["overhead_pct"] = None if trials < 2 else round(
        100.0 * (1.0 - max(rates[True]) / max(rates[False])), 2)
    return entry


def _spread(name: str, rates: list, digits: int) -> dict:
    """Best (the headline figure), median, worst and every trial of a rate."""
    return {name: round(max(rates), digits),
            f"{name}_median": round(statistics.median(rates), digits),
            f"{name}_min": round(min(rates), digits),
            f"{name}_trials": [round(rate, digits) for rate in rates]}


def fingerprint() -> dict:
    """Machine and build facts, including the effective BLAS thread count."""
    import numpy

    from repro._blas import blas_threads

    blas: dict = {}
    try:
        config = numpy.show_config(mode="dicts")
        blas = dict(config.get("Build Dependencies", {}).get("blas", {}))
    except (TypeError, ValueError):
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "blas": blas.get("name", "unknown"),
            "blas_version": blas.get("version", "unknown"),
            "blas_threads": blas_threads()}


def run(scenario: str = DEFAULT_SCENARIO, repeats: int = 5, trials: int = 3,
        train_updates: int = 10, train_trials: int = 2) -> dict:
    config = PPOConfig()
    update_rates = measure_updates(scenario, repeats, trials)
    step_rates = measure_end_to_end(scenario, train_updates, train_trials)
    telemetry_overhead = measure_telemetry_overhead(scenario, train_updates,
                                                    train_trials)
    results = []
    for mode in MODES:
        row = {"mode": mode,
               "dtype": "float32" if mode == "fast-float32" else "float64"}
        row.update(_spread("updates_per_second", update_rates[mode], 2))
        line = f"{mode:13s} {row['updates_per_second']:8.2f} updates/s"
        if mode in step_rates:
            row.update(_spread("env_steps_per_second", step_rates[mode], 1))
            line += f"  {row['env_steps_per_second']:9.0f} env-steps/s"
        results.append(row)
        print(line)
    baseline = results[0]
    speedups = {}
    for row in results[1:]:
        key = row["mode"].replace("-", "_")
        speedups[f"updates_{key}_vs_graph"] = round(
            row["updates_per_second"] / baseline["updates_per_second"], 2)
    return {
        "benchmark": "train_throughput",
        "scenario": scenario,
        "backbone": "mlp",
        "config": {"num_envs": config.num_envs, "horizon": config.horizon,
                   "minibatch_size": config.minibatch_size,
                   "update_epochs": config.update_epochs},
        "update_repeats": repeats,
        "trials": trials,
        "train_updates": train_updates,
        "train_trials": train_trials,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "fingerprint": fingerprint(),
        "results": results,
        "speedups": speedups,
        "telemetry": telemetry_overhead,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--scenario", default=DEFAULT_SCENARIO)
    parser.add_argument("--updates", type=int, default=5,
                        help="PPO updates per updates/sec measurement")
    parser.add_argument("--trials", type=int, default=3)
    parser.add_argument("--train-updates", type=int, default=10,
                        help="updates per end-to-end train() measurement")
    parser.add_argument("--train-trials", type=int, default=2)
    parser.add_argument("--smoke", action="store_true",
                        help="CI scale: fewer updates, one trial")
    parser.add_argument("--output", default=None,
                        help="perf trajectory JSON (default: BENCH_train.json "
                             "at the repo root)")
    args = parser.parse_args()
    if args.smoke:
        args.updates = min(args.updates, 2)
        args.trials = 1
        args.train_updates = min(args.train_updates, 4)
        args.train_trials = 1
    entry = run(args.scenario, args.updates, args.trials, args.train_updates,
                args.train_trials)
    if args.smoke:
        entry["scale"] = "smoke"
    output = Path(args.output) if args.output else \
        Path(__file__).resolve().parent.parent / "BENCH_train.json"
    append_trajectory(entry, output)
    overhead = entry["telemetry"]
    line = (f"telemetry off -> on: {overhead['updates_per_second_off']:.2f} -> "
            f"{overhead['updates_per_second_on']:.2f} updates/s")
    if overhead["overhead_pct"] is None:
        line += " (one trial per side: noise, not an overhead figure)"
    else:
        line += (f" ({overhead['overhead_pct']:+.2f}% overhead, best of "
                 f"{overhead['trials']})")
    print(line)
    speedups = entry["speedups"]
    print(f"updates/s vs graph: fast {speedups['updates_fast_vs_graph']:.2f}x, "
          f"float32 {speedups['updates_fast_float32_vs_graph']:.2f}x -> {output}")


if __name__ == "__main__":
    main()
