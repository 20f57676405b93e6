"""Per-path lint configuration.

The config answers three questions the rules cannot answer from a single
file's AST alone:

* **Which functions are hot paths?**  Any function named ``*_into`` is one by
  convention; :data:`LintConfig.hot_path_registry` adds the named SoA /
  compiled-forward / fused-loss kernels that do not follow the naming
  convention but carry the same allocation-free contract.
* **Where is dtype discipline strict?**  The fused numeric kernels
  (:mod:`repro.rl.fused_loss`, :mod:`repro.nn.compiled`) must take their
  float width from the policy/config, never from a hard-coded
  ``np.float32`` / ``np.float64`` literal.
* **What is in scope?**  ``python -m repro.lint`` with no arguments lints
  ``src/repro`` (benchmarks, tests, and examples are free to allocate and
  format strings; they still must not defeat determinism, but their
  randomness is seeded at their own entry points).

Timing exception, encoded here as doctrine rather than a knob: wall-clock
reads for durations use ``time.perf_counter()`` (monotonic, immune to NTP
clock steps) **everywhere**, including benchmarks; ``time.time()`` is banned
in ``src/repro`` outright.  There is deliberately no per-path escape hatch
for it — a justified exception goes through an inline suppression plus a
baseline entry, so it stays visible and counted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, Tuple


def repo_root() -> Path:
    """The repository root (``src/repro/lint/config.py`` -> three parents up)."""
    return Path(__file__).resolve().parents[3]


#: Non-``*_into`` functions that carry the hot-path allocation contract,
#: keyed by module path suffix.  Qualified names are ``Class.method`` or bare
#: function names, matched against the AST's enclosing-class chain.
DEFAULT_HOT_PATH_REGISTRY: Dict[str, FrozenSet[str]] = {
    "repro/cache/soa.py": frozenset({
        "SoACacheEngine.access",
        "SoACacheEngine.flush",
        "SoACacheEngine.warm_up",
        "SoACacheEngine._choose_victims",
        "SoACacheEngine._policy_victim",
        "SoACacheEngine._on_touch",
        "SoACacheEngine._touch_ages",
        "SoACacheEngine._touch_plru",
    }),
    "repro/nn/compiled.py": frozenset({
        "CompiledForward._features",
        "CompiledForward._heads",
        "CompiledForward._log_probs",
    }),
    "repro/rl/fused_loss.py": frozenset({
        "FusedPPOLoss.compute",
    }),
}

#: Module path suffixes where the dtype-discipline rule applies: fused
#: numeric kernels whose float width must come from the policy/config.
DEFAULT_DTYPE_STRICT: Tuple[str, ...] = (
    "repro/rl/fused_loss.py",
    "repro/nn/compiled.py",
)

#: Campaign-artifact code: every persistent file written here must go through
#: the atomic+checksum helpers in :mod:`repro.runs.artifacts` — a bare
#: ``write_text``/``write_bytes``/``pickle.dump`` can be torn by a crash and
#: poison resume.  Entries ending in ``/`` are directory prefixes; others are
#: file suffixes.
DEFAULT_ARTIFACT_STRICT: Tuple[str, ...] = (
    "repro/runs/",
    "repro/store/",
    "repro/rl/trainer.py",
)

#: The sanctioned implementation modules of the atomic write path itself.
DEFAULT_ARTIFACT_EXEMPT: Tuple[str, ...] = (
    "repro/runs/artifacts.py",
)

#: Campaign-service storage code: every SQL statement here must be a literal
#: string executed through the shared parameterized connection helper.
DEFAULT_STORE_STRICT: Tuple[str, ...] = (
    "repro/store/",
)

#: The sanctioned home of ``sqlite3.connect`` (pragmas applied exactly once).
DEFAULT_STORE_EXEMPT: Tuple[str, ...] = (
    "repro/store/connection.py",
)

#: The telemetry package: metric record paths (functions named ``record``,
#: ``inc``, ``set``, ``observe``, ``add``) carry the same zero-allocation
#: contract as the hot-path kernels, because instrumentation runs inside the
#: code it measures.
DEFAULT_TELEMETRY_STRICT: Tuple[str, ...] = (
    "repro/telemetry/",
)

#: The sanctioned homes of raw HTTP/socket request construction:
#: ``repro/store/client.py`` is where the deadline/retry/idempotency
#: contract lives (every worker request must inherit it), and
#: ``repro/store/chaos.py`` is the TCP chaos proxy, which needs raw sockets
#: by design.  Everywhere else under ``src/repro``, building requests with
#: ``urllib``/``http.client``/``socket`` directly is banned
#: (``artifacts.store-client``).
DEFAULT_NET_EXEMPT: Tuple[str, ...] = (
    "repro/store/client.py",
    "repro/store/chaos.py",
)


@dataclass(frozen=True)
class LintConfig:
    """Everything the engine and rules need beyond a single file's AST."""

    #: Directories (repo-relative) linted when no explicit paths are given.
    roots: Tuple[str, ...] = ("src/repro",)
    #: Hot-path naming convention: functions ending in this suffix.
    hot_path_suffix: str = "_into"
    #: Extra hot-path functions per module path suffix (see module docs).
    hot_path_registry: Dict[str, FrozenSet[str]] = field(
        default_factory=lambda: dict(DEFAULT_HOT_PATH_REGISTRY))
    #: Module path suffixes under strict dtype discipline.
    dtype_strict: Tuple[str, ...] = DEFAULT_DTYPE_STRICT
    #: Campaign-artifact code under the atomic-write contract.
    artifact_strict: Tuple[str, ...] = DEFAULT_ARTIFACT_STRICT
    #: Modules exempt from it (the atomic helpers themselves).
    artifact_exempt: Tuple[str, ...] = DEFAULT_ARTIFACT_EXEMPT
    #: Catalogue code under the literal-SQL / shared-connection contract.
    store_strict: Tuple[str, ...] = DEFAULT_STORE_STRICT
    #: Modules allowed to call ``sqlite3.connect`` (the helper itself).
    store_exempt: Tuple[str, ...] = DEFAULT_STORE_EXEMPT
    #: Modules allowed to build raw HTTP requests / sockets (the store
    #: client and the chaos proxy).
    net_exempt: Tuple[str, ...] = DEFAULT_NET_EXEMPT
    #: Telemetry code whose record paths must stay allocation-free.
    telemetry_strict: Tuple[str, ...] = DEFAULT_TELEMETRY_STRICT
    #: Checked-in suppressions baseline (repo-relative).
    baseline: str = "src/repro/lint/baseline.json"

    def hot_path_names(self, rel_path: str) -> FrozenSet[str]:
        """Registered hot-path qualified names for one module path."""
        for suffix, names in self.hot_path_registry.items():
            if rel_path.endswith(suffix):
                return names
        return frozenset()

    def dtype_strict_for(self, rel_path: str) -> bool:
        """Whether the dtype-discipline rule applies to this module."""
        return any(rel_path.endswith(suffix) for suffix in self.dtype_strict)

    def artifact_strict_for(self, rel_path: str) -> bool:
        """Whether the atomic-write contract applies to this module."""
        if any(rel_path.endswith(suffix) for suffix in self.artifact_exempt):
            return False
        return _path_matches(rel_path, self.artifact_strict)

    def store_strict_for(self, rel_path: str) -> bool:
        """Whether the literal-SQL store contract applies to this module."""
        if any(rel_path.endswith(suffix) for suffix in self.store_exempt):
            return False
        return _path_matches(rel_path, self.store_strict)

    def store_exempt_for(self, rel_path: str) -> bool:
        """Whether this module is the sanctioned sqlite3.connect site."""
        return any(rel_path.endswith(suffix) for suffix in self.store_exempt)

    def net_exempt_for(self, rel_path: str) -> bool:
        """Whether this module may build raw HTTP requests / sockets."""
        return any(rel_path.endswith(suffix) for suffix in self.net_exempt)

    def telemetry_strict_for(self, rel_path: str) -> bool:
        """Whether the alloc-free record-path contract applies here."""
        return _path_matches(rel_path, self.telemetry_strict)


def _path_matches(rel_path: str, entries: Tuple[str, ...]) -> bool:
    """Match a repo-relative path against ``dir/`` prefixes or file suffixes."""
    for entry in entries:
        if entry.endswith("/"):
            if entry in rel_path:
                return True
        elif rel_path.endswith(entry):
            return True
    return False


DEFAULT_CONFIG = LintConfig()
