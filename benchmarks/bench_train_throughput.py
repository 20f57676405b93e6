"""Training throughput: the compiled/fused RL fast path vs the legacy graph path.

Measures PPO training on ``guessing/lru-4way`` (mlp backbone, default
``PPOConfig``) in three modes:

* ``graph``        — the legacy path under
  :func:`repro.autodiff.functional.composed_ops`: graph-based
  ``policy.act()`` and composed per-primitive autodiff kernels, i.e. the
  pre-fast-path execution model.  (The persistent rollout buffer and in-place Adam are
  active in every mode — they are bit-identical infrastructure — so the
  reported speedup is a conservative lower bound on the improvement over the
  true pre-PR code.)
* ``fast``         — the default path: graph-free compiled inference plans
  plus the fused PPO update kernel, float64 (bit-identical to ``graph``).
* ``fast-float32`` — the same fast path with the opt-in
  ``PPOConfig(dtype="float32")`` policy/optimizer mode.

Two metrics per mode:

* **updates/sec** — repeated ``PPOUpdater.update()`` calls over one collected
  rollout (32 minibatch steps per update at the default config);
* **env-steps/sec (end-to-end)** — a real ``train()`` loop: rollout
  collection, updates, and periodic evaluation included.

Plus a **telemetry overhead** measurement on the fast path: updates/sec of
the same ``train()`` loop with telemetry disabled vs enabled (the PR 10
acceptance budget is < 2% regression with ``REPRO_TELEMETRY=1``).

Appends one entry to the perf trajectory file ``BENCH_train.json`` at the
repo root, so successive PRs accumulate a training-throughput history.

Usage::

    PYTHONPATH=src python benchmarks/bench_train_throughput.py [--smoke]
        [--scenario guessing/lru-4way] [--updates 5] [--trials 3]
        [--output BENCH_train.json]
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import statistics
import time
from pathlib import Path

from repro.autodiff import functional as F
from repro.rl.ppo import PPOConfig
from repro.rl.trainer import PPOTrainer

DEFAULT_SCENARIO = "guessing/lru-4way"
MODES = ("graph", "fast", "fast-float32")


@contextlib.contextmanager
def _mode(mode: str):
    """Activate one execution mode for the duration of a measurement."""
    if mode == "graph":
        with F.composed_ops():
            yield
    else:
        yield


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
        with _mode(mode):
            trainer = _make_trainer(mode, scenario)
            observations = trainer.vec_env.reset()
            buffer, _ = trainer._collect_rollout(observations)
            trainer.updater.update(buffer)  # warm up workspaces/moments
            states[mode] = (trainer, buffer)
    rates: dict = {mode: [] for mode in MODES}
    for _ in range(trials):
        for mode in MODES:
            trainer, buffer = states[mode]
            with _mode(mode):
                start = time.perf_counter()
                for _ in range(repeats):
                    trainer.updater.update(buffer)
                rates[mode].append(repeats / (time.perf_counter() - start))
    return rates


def measure_end_to_end(scenario: str, max_updates: int, trials: int) -> dict:
    """Aggregate env-steps/sec of full train() loops (rollout+update+eval).

    Modes alternate within each trial; every trial's rate per mode.
    """
    rates: dict = {mode: [] for mode in MODES}
    for _ in range(trials):
        for mode in MODES:
            with _mode(mode):
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
    """
    from repro import telemetry

    best = {False: 0.0, True: 0.0}
    try:
        for _ in range(trials):
            for enabled in (False, True):  # off first: cold-cache parity
                telemetry.configure(enabled=enabled, reset=True)
                trainer = _make_trainer("fast", scenario)
                start = time.perf_counter()
                trainer.train(max_updates=max_updates, eval_every=5,
                              target_accuracy=2.0)
                elapsed = time.perf_counter() - start
                best[enabled] = max(best[enabled],
                                    trainer.updates_done / elapsed)
    finally:
        telemetry.configure(enabled=None, reset=True)
    overhead_pct = 100.0 * (1.0 - best[True] / best[False])
    return {"updates_per_second_off": round(best[False], 2),
            "updates_per_second_on": round(best[True], 2),
            "overhead_pct": round(overhead_pct, 2)}


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
        row.update(_spread("env_steps_per_second", step_rates[mode], 1))
        results.append(row)
        print(f"{mode:13s} {row['updates_per_second']:8.2f} updates/s  "
              f"{row['env_steps_per_second']:9.0f} env-steps/s")
    baseline = results[0]
    speedups = {}
    for row in results[1:]:
        key = row["mode"].replace("-", "_")
        speedups[f"updates_{key}_vs_graph"] = round(
            row["updates_per_second"] / baseline["updates_per_second"], 2)
        speedups[f"env_steps_{key}_vs_graph"] = round(
            row["env_steps_per_second"] / baseline["env_steps_per_second"], 2)
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


def append_trajectory(entry: dict, output: Path) -> None:
    """Append one entry to the perf trajectory JSON (a list of entries)."""
    history = []
    if output.exists():
        data = json.loads(output.read_text())
        history = data.get("entries", [])
    history.append(entry)
    output.write_text(json.dumps({"entries": history}, indent=2) + "\n")


def record_in_catalog(entry: dict, catalog_file: Path, source: str) -> None:
    """Mirror one trajectory entry into the campaign-service bench table."""
    from repro.store.catalog import Catalog
    from repro.store.ingest import record_bench_entry

    with Catalog(catalog_file) as catalog:
        rows = record_bench_entry(catalog, entry, source)
    print(f"recorded {rows} bench row(s) in {catalog_file}")


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
    parser.add_argument("--catalog", default=None,
                        help="also record this entry's metrics in the given "
                             "campaign-service catalogue (catalog.sqlite)")
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
    if args.catalog:
        record_in_catalog(entry, Path(args.catalog), output.name)
    overhead = entry["telemetry"]
    print(f"telemetry overhead: {overhead['updates_per_second_off']:.2f} -> "
          f"{overhead['updates_per_second_on']:.2f} updates/s "
          f"({overhead['overhead_pct']:+.2f}%)")
    speedups = entry["speedups"]
    print(f"fast vs graph: {speedups['updates_fast_vs_graph']:.2f}x updates/s, "
          f"{speedups['env_steps_fast_vs_graph']:.2f}x env-steps/s; "
          f"float32: {speedups['updates_fast_float32_vs_graph']:.2f}x / "
          f"{speedups['env_steps_fast_float32_vs_graph']:.2f}x -> {output}")


if __name__ == "__main__":
    main()
