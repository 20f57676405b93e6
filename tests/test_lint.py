"""Tests for repro.lint: per-rule fixture pairs, suppression/baseline
accounting, the registry-honesty pass, and the CLI gate."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.determinism import FALLBACK_SEED, fallback_rng, reset_fallback_rng
from repro.lint import run_lint
from repro.lint.config import DEFAULT_CONFIG, LintConfig
from repro.lint.engine import lint_file
from repro.lint.rules import rule_catalogue
from repro.lint.rules.honesty import check_registries
from repro.lint.suppressions import (BaselineEntry, check_baseline,
                                     load_baseline, parse_suppressions)
from repro.runs import register_experiment, unregister_experiment
from repro.scenarios import register, unregister

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"


def lint_snippet(tmp_path: Path, source: str,
                 rel: str = "src/repro/snippet.py"):
    """Write a snippet at a repo-relative path and run the AST rules on it."""
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    active, suppressed = lint_file(path, tmp_path, DEFAULT_CONFIG)
    return active, suppressed


def rules_of(findings):
    return {f.rule for f in findings}


# --------------------------------------------------------------- determinism
class TestDeterminismRules:
    def test_np_module_call_bad(self, tmp_path):
        active, _ = lint_snippet(tmp_path, (
            "import numpy as np\n"
            "def draw():\n"
            "    return np.random.rand(4)\n"))
        assert rules_of(active) == {"determinism.np-module-call"}

    def test_np_module_call_good_generator(self, tmp_path):
        active, _ = lint_snippet(tmp_path, (
            "import numpy as np\n"
            "def draw(seed):\n"
            "    rng = np.random.default_rng(seed)\n"
            "    return rng.random(4)\n"))
        assert not active

    def test_np_module_call_respects_alias(self, tmp_path):
        active, _ = lint_snippet(tmp_path, (
            "import numpy as xp\n"
            "def draw():\n"
            "    return xp.random.choice([1, 2])\n"))
        assert rules_of(active) == {"determinism.np-module-call"}

    def test_unseeded_rng_bad(self, tmp_path):
        active, _ = lint_snippet(tmp_path, (
            "import numpy as np\n"
            "rng = np.random.default_rng()\n"))
        assert rules_of(active) == {"determinism.unseeded-rng"}

    def test_unseeded_rng_good_when_seeded(self, tmp_path):
        active, _ = lint_snippet(tmp_path, (
            "import numpy as np\n"
            "rng = np.random.default_rng(7)\n"))
        assert not active

    def test_stdlib_random_bad(self, tmp_path):
        active, _ = lint_snippet(tmp_path, (
            "import random\n"
            "def pick(items):\n"
            "    return random.choice(items)\n"))
        assert rules_of(active) == {"determinism.stdlib-random"}

    def test_stdlib_random_from_import_bad(self, tmp_path):
        active, _ = lint_snippet(tmp_path, (
            "from random import shuffle\n"
            "def mix(items):\n"
            "    shuffle(items)\n"))
        assert rules_of(active) == {"determinism.stdlib-random"}

    def test_stdlib_seeded_instance_good(self, tmp_path):
        active, _ = lint_snippet(tmp_path, (
            "import random\n"
            "def pick(items, seed):\n"
            "    return random.Random(seed).choice(items)\n"))
        # random.Random(seed) is a seeded instance, not the global stream;
        # .choice on the instance is not a module-level call.
        assert not active

    def test_wall_clock_bad(self, tmp_path):
        active, _ = lint_snippet(tmp_path, (
            "import time\n"
            "def stamp():\n"
            "    return time.time()\n"))
        assert rules_of(active) == {"determinism.wall-clock"}

    def test_wall_clock_good_perf_counter(self, tmp_path):
        active, _ = lint_snippet(tmp_path, (
            "import time\n"
            "def duration():\n"
            "    return time.perf_counter()\n"))
        assert not active


# ------------------------------------------------------------------ hot path
class TestHotPathRules:
    def test_numpy_alloc_in_into_function_bad(self, tmp_path):
        active, _ = lint_snippet(tmp_path, (
            "import numpy as np\n"
            "def encode_into(out):\n"
            "    scratch = np.zeros(8)\n"
            "    out[:] = scratch\n"))
        assert rules_of(active) == {"hotpath.numpy-alloc"}

    def test_numpy_alloc_outside_hot_path_good(self, tmp_path):
        active, _ = lint_snippet(tmp_path, (
            "import numpy as np\n"
            "def build_buffers():\n"
            "    return np.zeros(8)\n"))
        assert not active

    def test_numpy_alloc_in_registered_kernel_bad(self, tmp_path):
        # The hot-path registry names kernels that do not use the *_into
        # naming convention, matched by module path suffix + qualname.
        active, _ = lint_snippet(tmp_path, (
            "import numpy as np\n"
            "class FusedPPOLoss:\n"
            "    def compute(self, batch):\n"
            "        return np.empty(4)\n"),
            rel="src/repro/rl/fused_loss.py")
        assert "hotpath.numpy-alloc" in rules_of(active)

    def test_numpy_alloc_inside_raise_exempt(self, tmp_path):
        active, _ = lint_snippet(tmp_path, (
            "import numpy as np\n"
            "def step_into(out, n):\n"
            "    if n < 0:\n"
            "        raise ValueError(f'bad n: {n}')\n"
            "    out[:] = n\n"))
        assert not active

    def test_matmul_operator_in_registered_kernel_bad(self, tmp_path):
        # ``a @ b`` returns a freshly allocated product array.
        active, _ = lint_snippet(tmp_path, (
            "class FusedPPOLoss:\n"
            "    def compute(self, grad, weight, out):\n"
            "        out += grad @ weight.T\n"),
            rel="src/repro/rl/fused_loss.py")
        assert rules_of(active) == {"hotpath.numpy-alloc"}

    def test_matmul_into_workspace_good(self, tmp_path):
        active, _ = lint_snippet(tmp_path, (
            "import numpy as np\n"
            "class FusedPPOLoss:\n"
            "    def compute(self, grad, weight, out, scratch):\n"
            "        np.matmul(grad, weight.T, out=scratch)\n"
            "        out += scratch\n"),
            rel="src/repro/rl/fused_loss.py")
        assert not active

    def test_container_in_loop_bad(self, tmp_path):
        active, _ = lint_snippet(tmp_path, (
            "def reset_into(out, envs):\n"
            "    for env in envs:\n"
            "        state = [env.a, env.b]\n"
            "        out[env.index] = state[0]\n"))
        assert rules_of(active) == {"hotpath.container-in-loop"}

    def test_container_outside_loop_good(self, tmp_path):
        active, _ = lint_snippet(tmp_path, (
            "def reset_into(out, envs):\n"
            "    order = [0, 1]\n"
            "    for env in envs:\n"
            "        out[env.index] = order[0]\n"))
        assert not active

    def test_str_format_bad(self, tmp_path):
        active, _ = lint_snippet(tmp_path, (
            "def step_into(out, n):\n"
            "    label = f'step {n}'\n"
            "    out.label = label\n"))
        assert rules_of(active) == {"hotpath.str-format"}

    def test_str_format_in_raise_good(self, tmp_path):
        active, _ = lint_snippet(tmp_path, (
            "def step_into(out, n):\n"
            "    if n < 0:\n"
            "        raise ValueError('bad n: {}'.format(n))\n"
            "    out[:] = n\n"))
        assert not active


# --------------------------------------------------------------------- specs
class TestSpecRules:
    def test_unfrozen_spec_bad(self, tmp_path):
        active, _ = lint_snippet(tmp_path, (
            "from dataclasses import dataclass\n"
            "@dataclass\n"
            "class WorkerSpec:\n"
            "    worker_id: str\n"))
        assert rules_of(active) == {"spec.not-frozen"}

    def test_frozen_spec_good(self, tmp_path):
        active, _ = lint_snippet(tmp_path, (
            "from dataclasses import dataclass\n"
            "@dataclass(frozen=True)\n"
            "class WorkerSpec:\n"
            "    worker_id: str\n"))
        assert not active

    def test_spec_mutation_bad(self, tmp_path):
        active, _ = lint_snippet(tmp_path, (
            "def rename(spec, name):\n"
            "    spec.scenario_id = name\n"
            "    return spec\n"))
        assert rules_of(active) == {"spec.mutation"}

    def test_spec_setattr_bypass_bad(self, tmp_path):
        active, _ = lint_snippet(tmp_path, (
            "def rename(spec, name):\n"
            "    object.__setattr__(spec, 'scenario_id', name)\n"
            "    return spec\n"))
        assert rules_of(active) == {"spec.mutation"}

    def test_spec_replace_good(self, tmp_path):
        active, _ = lint_snippet(tmp_path, (
            "import dataclasses\n"
            "def rename(spec, name):\n"
            "    return dataclasses.replace(spec, scenario_id=name)\n"))
        assert not active

    def test_post_init_setattr_inside_spec_class_good(self, tmp_path):
        active, _ = lint_snippet(tmp_path, (
            "from dataclasses import dataclass\n"
            "@dataclass(frozen=True)\n"
            "class WorkerSpec:\n"
            "    tags: tuple\n"
            "    def __post_init__(self):\n"
            "        object.__setattr__(self, 'tags', tuple(self.tags))\n"))
        assert not active


# -------------------------------------------------------------------- dtypes
class TestDtypeRules:
    def test_float_literal_in_strict_module_bad(self, tmp_path):
        active, _ = lint_snippet(tmp_path, (
            "import numpy as np\n"
            "def losses(x):\n"
            "    return x.astype(np.float64)\n"),
            rel="src/repro/rl/fused_loss.py")
        assert rules_of(active) == {"dtype.literal"}

    def test_dtype_string_in_strict_module_bad(self, tmp_path):
        active, _ = lint_snippet(tmp_path, (
            "import numpy as np\n"
            "def buffers(n):\n"
            "    return np.zeros(n, dtype='float32')\n"),
            rel="src/repro/nn/compiled.py")
        assert "dtype.literal" in rules_of(active)

    def test_config_dtype_in_strict_module_good(self, tmp_path):
        active, _ = lint_snippet(tmp_path, (
            "import numpy as np\n"
            "def buffers(n, dtype):\n"
            "    return np.zeros(n, dtype=dtype)\n"),
            rel="src/repro/nn/compiled.py")
        assert not active

    def test_float_literal_outside_strict_modules_good(self, tmp_path):
        active, _ = lint_snippet(tmp_path, (
            "import numpy as np\n"
            "def thresholds():\n"
            "    return np.float64(0.5)\n"))
        assert not active


# ----------------------------------------------------------------- artifacts
class TestArtifactRules:
    def test_write_text_in_runs_module_bad(self, tmp_path):
        active, _ = lint_snippet(tmp_path, (
            "def save(path, payload):\n"
            "    path.write_text(payload)\n"),
            rel="src/repro/runs/runner.py")
        assert rules_of(active) == {"artifacts.non-atomic-write"}

    def test_write_bytes_in_trainer_bad(self, tmp_path):
        active, _ = lint_snippet(tmp_path, (
            "def save_checkpoint(path, blob):\n"
            "    path.write_bytes(blob)\n"),
            rel="src/repro/rl/trainer.py")
        assert rules_of(active) == {"artifacts.non-atomic-write"}

    def test_pickle_dump_in_runs_module_bad(self, tmp_path):
        active, _ = lint_snippet(tmp_path, (
            "import pickle\n"
            "def save(obj, stream):\n"
            "    pickle.dump(obj, stream)\n"),
            rel="src/repro/runs/context.py")
        assert rules_of(active) == {"artifacts.non-atomic-write"}

    def test_json_dump_respects_alias(self, tmp_path):
        active, _ = lint_snippet(tmp_path, (
            "import json as j\n"
            "def save(obj, stream):\n"
            "    j.dump(obj, stream)\n"),
            rel="src/repro/runs/cli.py")
        assert rules_of(active) == {"artifacts.non-atomic-write"}

    def test_atomic_helpers_good(self, tmp_path):
        active, _ = lint_snippet(tmp_path, (
            "from repro.runs.artifacts import atomic_write_json\n"
            "def save(path, payload):\n"
            "    atomic_write_json(path, payload)\n"),
            rel="src/repro/runs/runner.py")
        assert not active

    def test_artifacts_module_itself_exempt(self, tmp_path):
        active, _ = lint_snippet(tmp_path, (
            "def raw(path, text):\n"
            "    path.write_text(text)\n"),
            rel="src/repro/runs/artifacts.py")
        assert not active

    def test_write_text_outside_artifact_modules_good(self, tmp_path):
        active, _ = lint_snippet(tmp_path, (
            "def save(path, text):\n"
            "    path.write_text(text)\n"))
        assert not active


# ------------------------------------------------------- store-connection
class TestStoreConnectionRule:
    def test_bare_sqlite_connect_bad(self, tmp_path):
        active, _ = lint_snippet(tmp_path, (
            "import sqlite3\n"
            "def open_db(path):\n"
            "    return sqlite3.connect(path)\n"),
            rel="src/repro/store/catalog.py")
        assert rules_of(active) == {"artifacts.store-connection"}

    def test_bare_connect_outside_store_bad(self, tmp_path):
        active, _ = lint_snippet(tmp_path, (
            "import sqlite3\n"
            "def peek(path):\n"
            "    return sqlite3.connect(path)\n"),
            rel="src/repro/runs/runner.py")
        assert rules_of(active) == {"artifacts.store-connection"}

    def test_from_import_connect_bad(self, tmp_path):
        active, _ = lint_snippet(tmp_path, (
            "from sqlite3 import connect\n"
            "def open_db(path):\n"
            "    return connect(path)\n"),
            rel="src/repro/store/query.py")
        assert rules_of(active) == {"artifacts.store-connection"}

    def test_connection_module_exempt(self, tmp_path):
        active, _ = lint_snippet(tmp_path, (
            "import sqlite3\n"
            "def open_db(path):\n"
            "    return sqlite3.connect(path)\n"),
            rel="src/repro/store/connection.py")
        assert not active

    def test_fstring_sql_bad(self, tmp_path):
        active, _ = lint_snippet(tmp_path, (
            "def fetch(conn, table):\n"
            "    return conn.execute(f'SELECT * FROM {table}')\n"),
            rel="src/repro/store/query.py")
        assert rules_of(active) == {"artifacts.store-connection"}

    def test_concatenated_sql_bad(self, tmp_path):
        active, _ = lint_snippet(tmp_path, (
            "def fetch(conn, key):\n"
            "    return conn.fetchall('SELECT * FROM metrics WHERE key = '"
            " + key)\n"),
            rel="src/repro/store/catalog.py")
        assert rules_of(active) == {"artifacts.store-connection"}

    def test_percent_format_sql_bad(self, tmp_path):
        active, _ = lint_snippet(tmp_path, (
            "def fetch(conn, run_id):\n"
            "    return conn.execute(\"SELECT * FROM runs WHERE run_id"
            " = '%s'\" % run_id)\n"),
            rel="src/repro/store/catalog.py")
        assert rules_of(active) == {"artifacts.store-connection"}

    def test_literal_sql_with_params_good(self, tmp_path):
        active, _ = lint_snippet(tmp_path, (
            "def fetch(conn, key):\n"
            "    return conn.fetchall(\n"
            "        'SELECT * FROM metrics WHERE key = ?', (key,))\n"),
            rel="src/repro/store/query.py")
        assert not active

    def test_module_constant_sql_good(self, tmp_path):
        active, _ = lint_snippet(tmp_path, (
            "DDL = 'CREATE TABLE IF NOT EXISTS t (x)'\n"
            "def apply(conn):\n"
            "    conn.executescript(DDL)\n"),
            rel="src/repro/store/schema.py")
        assert not active

    def test_literal_conditional_sql_good(self, tmp_path):
        active, _ = lint_snippet(tmp_path, (
            "def begin(conn, immediate):\n"
            "    conn.execute('BEGIN IMMEDIATE' if immediate else 'BEGIN')\n"),
            rel="src/repro/store/queue.py")
        assert not active

    def test_sql_strings_unchecked_outside_store(self, tmp_path):
        active, _ = lint_snippet(tmp_path, (
            "def fetch(conn, table):\n"
            "    return conn.execute(f'SELECT * FROM {table}')\n"),
            rel="src/repro/runs/runner.py")
        assert not active

    def test_store_package_obeys_rule_in_tree(self):
        """The real repro/store package must carry zero findings."""
        from repro.lint import run_lint

        report = run_lint([SRC / "repro" / "store"])
        assert not [f for f in report.findings
                    if f.rule == "artifacts.store-connection"]


# ------------------------------------------------------------ store-client
class TestStoreClientRule:
    def test_raw_urlopen_bad(self, tmp_path):
        active, _ = lint_snippet(tmp_path, (
            "import urllib.request\n"
            "def fetch(url):\n"
            "    return urllib.request.urlopen(url).read()\n"),
            rel="src/repro/runs/cli.py")
        assert rules_of(active) == {"artifacts.store-client"}

    def test_aliased_urlopen_bad(self, tmp_path):
        active, _ = lint_snippet(tmp_path, (
            "import urllib.request as ur\n"
            "def fetch(url):\n"
            "    return ur.urlopen(url).read()\n"),
            rel="src/repro/store/worker.py")
        assert rules_of(active) == {"artifacts.store-client"}

    def test_from_import_request_bad(self, tmp_path):
        active, _ = lint_snippet(tmp_path, (
            "from urllib.request import Request\n"
            "def build(url):\n"
            "    return Request(url, method='POST')\n"),
            rel="src/repro/store/worker.py")
        assert rules_of(active) == {"artifacts.store-client"}

    def test_http_client_connection_bad(self, tmp_path):
        active, _ = lint_snippet(tmp_path, (
            "import http.client\n"
            "def open_conn(host):\n"
            "    return http.client.HTTPConnection(host)\n"),
            rel="src/repro/store/server.py")
        assert rules_of(active) == {"artifacts.store-client"}

    def test_raw_socket_connection_bad(self, tmp_path):
        active, _ = lint_snippet(tmp_path, (
            "import socket\n"
            "def dial(addr):\n"
            "    return socket.create_connection(addr)\n"),
            rel="src/repro/store/server.py")
        assert rules_of(active) == {"artifacts.store-client"}

    def test_client_module_exempt(self, tmp_path):
        active, _ = lint_snippet(tmp_path, (
            "import urllib.request\n"
            "def fetch(url):\n"
            "    return urllib.request.urlopen(url).read()\n"),
            rel="src/repro/store/client.py")
        assert not active

    def test_chaos_proxy_module_exempt(self, tmp_path):
        active, _ = lint_snippet(tmp_path, (
            "import socket\n"
            "def dial(addr):\n"
            "    return socket.create_connection(addr)\n"),
            rel="src/repro/store/chaos.py")
        assert not active

    def test_store_client_usage_good(self, tmp_path):
        active, _ = lint_snippet(tmp_path, (
            "from repro.store.client import StoreClient\n"
            "def fetch(url):\n"
            "    return StoreClient(url).health()\n"),
            rel="src/repro/store/worker.py")
        assert not active

    def test_benign_socket_helpers_good(self, tmp_path):
        # Only request/connection construction is banned, not the rest of
        # the socket module.
        active, _ = lint_snippet(tmp_path, (
            "import socket\n"
            "def whoami():\n"
            "    return socket.gethostname()\n"),
            rel="src/repro/store/worker.py")
        assert not active

    def test_repo_tree_has_no_raw_network_calls(self):
        report = run_lint([SRC / "repro"])
        assert not [f for f in report.findings
                    if f.rule == "artifacts.store-client"]


# ----------------------------------------------------------------- telemetry
class TestTelemetryRules:
    REL = "src/repro/telemetry/snippet.py"

    def test_record_alloc_dict_bad(self, tmp_path):
        active, _ = lint_snippet(tmp_path, (
            "class Metric:\n"
            "    def record(self, value):\n"
            "        self.points = {'value': value}\n"), rel=self.REL)
        assert rules_of(active) == {"telemetry.record-alloc"}

    def test_record_alloc_numpy_bad(self, tmp_path):
        active, _ = lint_snippet(tmp_path, (
            "import numpy as np\n"
            "class Hist:\n"
            "    def record(self, value):\n"
            "        self.counts = np.zeros(16)\n"), rel=self.REL)
        assert rules_of(active) == {"telemetry.record-alloc"}

    def test_record_alloc_comprehension_in_inc_bad(self, tmp_path):
        active, _ = lint_snippet(tmp_path, (
            "class Counter:\n"
            "    def inc(self, amount=1.0):\n"
            "        self.log = [amount for _ in range(2)]\n"), rel=self.REL)
        assert rules_of(active) == {"telemetry.record-alloc"}

    def test_record_inplace_good(self, tmp_path):
        active, _ = lint_snippet(tmp_path, (
            "import numpy as np\n"
            "class Hist:\n"
            "    def __init__(self):\n"
            "        self.counts = np.zeros(16)\n"  # __init__ may allocate
            "    def record(self, value):\n"
            "        self.counts[int(np.searchsorted(self.counts, value))] += 1\n"
            "    def inc(self, amount=1.0):\n"
            "        self.value += amount\n"), rel=self.REL)
        assert not active

    def test_record_alloc_raise_path_exempt(self, tmp_path):
        active, _ = lint_snippet(tmp_path, (
            "class Metric:\n"
            "    def record(self, value):\n"
            "        if value < 0:\n"
            "            raise ValueError({'bad': value})\n"
            "        self.value += value\n"), rel=self.REL)
        assert not active

    def test_record_alloc_only_in_telemetry_package(self, tmp_path):
        # The same code outside repro/telemetry/ is not a record path.
        active, _ = lint_snippet(tmp_path, (
            "class Metric:\n"
            "    def record(self, value):\n"
            "        self.points = {'value': value}\n"),
            rel="src/repro/runs/snippet.py")
        assert "telemetry.record-alloc" not in rules_of(active)

    def test_datetime_now_bad(self, tmp_path):
        active, _ = lint_snippet(tmp_path, (
            "import datetime\n"
            "def stamp():\n"
            "    return datetime.datetime.now()\n"))
        assert rules_of(active) == {"telemetry.datetime-wall-clock"}

    def test_datetime_from_import_bad(self, tmp_path):
        active, _ = lint_snippet(tmp_path, (
            "from datetime import date, datetime\n"
            "def stamp():\n"
            "    return datetime.utcnow(), date.today()\n"))
        findings = [f for f in active
                    if f.rule == "telemetry.datetime-wall-clock"]
        assert len(findings) == 2

    def test_datetime_arithmetic_good(self, tmp_path):
        active, _ = lint_snippet(tmp_path, (
            "from datetime import datetime, timedelta\n"
            "def span(start, end):\n"
            "    return datetime.fromtimestamp(end) - timedelta(seconds=start)\n"))
        assert not active

    def test_repo_tree_has_no_wall_clock_datetimes(self):
        report = run_lint([SRC / "repro"])
        assert not [f for f in report.findings
                    if f.rule == "telemetry.datetime-wall-clock"]


# -------------------------------------------------------------- suppressions
class TestSuppressions:
    def test_parse_suppressions(self):
        lines = ["x = 1", "y = np.zeros(3)  # repro-lint: disable=hotpath.numpy-alloc",
                 "z = 2  # repro-lint: disable=hotpath, dtype.literal"]
        parsed = parse_suppressions(lines)
        assert parsed == {2: ("hotpath.numpy-alloc",),
                          3: ("hotpath", "dtype.literal")}

    def test_inline_suppression_silences_finding(self, tmp_path):
        active, suppressed = lint_snippet(tmp_path, (
            "import numpy as np\n"
            "def encode_into(out):\n"
            "    out[:] = np.zeros(8)  # repro-lint: disable=hotpath.numpy-alloc\n"))
        assert not active
        assert len(suppressed) == 1
        assert suppressed[0].finding.rule == "hotpath.numpy-alloc"

    def test_family_suppression_covers_member_rules(self, tmp_path):
        active, suppressed = lint_snippet(tmp_path, (
            "import numpy as np\n"
            "def encode_into(out):\n"
            "    out[:] = np.zeros(8)  # repro-lint: disable=hotpath\n"))
        assert not active
        assert len(suppressed) == 1

    def test_unsanctioned_suppression_flagged(self, tmp_path):
        src_dir = tmp_path / "src/repro"
        src_dir.mkdir(parents=True)
        (src_dir / "mod.py").write_text(
            "import numpy as np\n"
            "def encode_into(out):\n"
            "    out[:] = np.zeros(8)  # repro-lint: disable=hotpath.numpy-alloc\n")
        report = run_lint([src_dir], root=tmp_path, registry_pass=False,
                          baseline_path=tmp_path / "baseline.json")
        assert rules_of(report.findings) == {"lint.unsanctioned-suppression"}

    def test_baselined_suppression_sanctioned(self, tmp_path):
        src_dir = tmp_path / "src/repro"
        src_dir.mkdir(parents=True)
        (src_dir / "mod.py").write_text(
            "import numpy as np\n"
            "def encode_into(out):\n"
            "    out[:] = np.zeros(8)  # repro-lint: disable=hotpath.numpy-alloc\n")
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps({"suppressions": [
            {"path": "src/repro/mod.py", "rule": "hotpath.numpy-alloc",
             "count": 1, "reason": "test fixture"}]}))
        report = run_lint([src_dir], root=tmp_path, registry_pass=False,
                          baseline_path=baseline)
        assert report.ok

    def test_stale_baseline_flagged_on_full_run(self):
        stale = [BaselineEntry(path="src/repro/gone.py",
                               rule="hotpath.numpy-alloc", count=2,
                               reason="was fixed")]
        findings = check_baseline([], stale, full_run=True)
        assert rules_of(findings) == {"lint.stale-baseline"}
        # Partial runs cannot see every suppression, so no staleness check.
        assert check_baseline([], stale, full_run=False) == []

    def test_repo_baseline_loads_and_documents_reasons(self):
        entries = load_baseline(SRC / "repro/lint/baseline.json")
        assert entries, "the shipped baseline should not be empty"
        for entry in entries:
            assert entry.reason.strip(), f"{entry.path}:{entry.rule} needs a reason"


# ---------------------------------------------------------- registry honesty
class TestRegistryHonesty:
    def test_repo_registries_are_honest(self):
        assert check_registries() == []

    def test_broken_defense_id_caught(self):
        register(scenario_id="lint-test/broken-defense",
                 defense="no-such-defense-xyz")
        try:
            findings = check_registries()
            assert any(f.rule == "registry.defense-id"
                       and "lint-test/broken-defense" in f.message
                       for f in findings)
        finally:
            unregister("lint-test/broken-defense")

    def test_broken_experiment_scenario_caught(self):
        register_experiment(experiment_id="lint-test-exp",
                            driver="repro.experiments.table5",
                            grid=({"scenario": "no-such-scenario/xyz"},))
        try:
            findings = check_registries()
            assert any(f.rule == "registry.scenario-id"
                       and "lint-test-exp" in f.message
                       for f in findings)
        finally:
            unregister_experiment("lint-test-exp")

    def test_broken_driver_caught(self):
        register_experiment(experiment_id="lint-test-driver",
                            driver="repro.experiments.no_such_module",
                            grid=({"scenario": "guessing/lru-4way"},))
        try:
            findings = check_registries()
            assert any(f.rule == "registry.driver"
                       and "lint-test-driver" in f.message
                       for f in findings)
        finally:
            unregister_experiment("lint-test-driver")


# ----------------------------------------------------------------- fallback
class TestFallbackRng:
    def test_fallback_rng_is_reproducible(self):
        reset_fallback_rng()
        first = fallback_rng().random(4)
        reset_fallback_rng()
        second = fallback_rng().random(4)
        assert (first == second).all()

    def test_fallback_rng_is_shared(self):
        reset_fallback_rng()
        try:
            assert fallback_rng() is fallback_rng()
            # Consecutive draws differ: call sites sharing the fallback do
            # not all see the same values (e.g. two bare Linear layers).
            a = fallback_rng().random(4)
            b = fallback_rng().random(4)
            assert (a != b).any()
        finally:
            reset_fallback_rng()

    def test_seed_constant(self):
        import numpy as np
        reset_fallback_rng()
        try:
            expected = np.random.default_rng(FALLBACK_SEED).random(4)
            assert (fallback_rng().random(4) == expected).all()
        finally:
            reset_fallback_rng()


# ----------------------------------------------------------------------- CLI
class TestCli:
    def _run(self, *args, cwd=REPO_ROOT):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC)
        return subprocess.run([sys.executable, "-m", "repro.lint", *args],
                              capture_output=True, text=True, cwd=cwd, env=env)

    def test_repo_lints_clean(self):
        result = self._run()
        assert result.returncode == 0, result.stdout + result.stderr
        assert "clean" in result.stdout

    def test_seeded_violation_fails(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("import numpy as np\n"
                       "state = np.random.rand(3)\n")
        result = self._run(str(bad))
        assert result.returncode == 1
        assert "determinism.np-module-call" in result.stdout
        assert "bad.py:2" in result.stdout

    def test_json_format(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("import time\nstamp = time.time()\n")
        result = self._run("--format", "json", str(bad))
        assert result.returncode == 1
        payload = json.loads(result.stdout)
        assert payload["ok"] is False
        assert payload["findings"][0]["rule"] == "determinism.wall-clock"

    def test_list_rules(self):
        result = self._run("--list-rules")
        assert result.returncode == 0
        for rule in ("determinism.unseeded-rng", "hotpath.numpy-alloc",
                     "spec.not-frozen", "dtype.literal", "registry.soa-claim",
                     "artifacts.non-atomic-write",
                     "lint.unsanctioned-suppression"):
            assert rule in result.stdout

    def test_catalogue_has_seven_families(self):
        families = {rule.split(".")[0] for rule in rule_catalogue()}
        assert {"determinism", "hotpath", "spec", "dtype",
                "registry", "artifacts", "telemetry"} <= families


# ---------------------------------------------------------------------- mypy
@pytest.mark.skipif(
    subprocess.run([sys.executable, "-c", "import mypy"],
                   capture_output=True).returncode != 0,
    reason="mypy not installed (CI installs it)")
def test_mypy_strict_subset_passes():
    result = subprocess.run(
        [sys.executable, "-m", "mypy", "--config-file", "mypy.ini",
         "src/repro/scenarios/spec.py", "src/repro/scenarios/registry.py",
         "src/repro/defenses/spec.py", "src/repro/defenses/registry.py",
         "src/repro/runs/spec.py", "src/repro/runs/registry.py"],
        capture_output=True, text=True, cwd=REPO_ROOT)
    assert result.returncode == 0, result.stdout + result.stderr
