"""Registry honesty: the whole-program cross-check pass.

Unlike the per-file AST rules, this pass imports the live registries and
verifies that what they *claim* is true:

* every registered scenario's ``defense`` id resolves in the defense
  registry (a typo here otherwise surfaces as a KeyError deep inside a
  training run);
* every registered experiment's driver module imports, and every scenario /
  defense id mentioned in its cell grid resolves (``"none"`` is the
  defense-matrix sentinel for "undefended");
* every ``supports_soa() = True`` claim is backed by an actual kernel: the
  scenario's compiled config must construct the
  :class:`~repro.env.batched_env.BatchedGuessingGame` that ``VecEnv`` builds,
  and every mechanism listed in the defense layer's ``_SOA_KERNELS`` table
  must compile into a fragment the SoA engine accepts for each replacement
  policy it claims.

Findings point at the registering module rather than a line (registration is
dynamic), so the line number is 1 with the id in the message.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.lint.findings import Finding

_RULE_DEFENSE = "registry.defense-id"
_RULE_SCENARIO = "registry.scenario-id"
_RULE_SOA = "registry.soa-claim"
_RULE_DRIVER = "registry.driver"

#: Rule ids this pass can emit, with the contract each protects (consumed by
#: ``--list-rules`` alongside the AST rule catalogue).
REGISTRY_RULES: Dict[str, str] = {
    _RULE_DEFENSE: ("every defense id referenced by a scenario or experiment "
                    "cell resolves in the defense registry"),
    _RULE_SCENARIO: ("every scenario id referenced by an experiment cell "
                     "resolves in the scenario registry"),
    _RULE_SOA: ("every supports_soa()=True claim maps to a config the SoA "
                "batched game actually accepts"),
    _RULE_DRIVER: "every registered experiment's driver module imports",
}

#: Cell-grid keys that name a scenario / a defense.
_SCENARIO_KEYS = ("scenario", "scenario_id")
_DEFENSE_KEYS = ("defense", "defense_id")
#: Grid sentinel meaning "no defense" (the defense-matrix baseline column).
_NO_DEFENSE = "none"


def check_registries() -> List[Finding]:
    """Run the whole-program honesty pass; returns findings (empty = honest)."""
    # Importing repro registers the built-in scenario/defense/experiment
    # catalogues as a side effect — that is the program under test.
    import repro  # noqa: F401
    from repro.defenses import registry as defenses
    from repro.runs import registry as runs
    from repro.scenarios import registry as scenarios

    findings: List[Finding] = []
    findings.extend(_check_scenarios(scenarios, defenses))
    findings.extend(_check_experiments(runs, scenarios, defenses))
    findings.extend(_check_soa_kernel_table())
    return sorted(set(findings))


def _finding(rule: str, message: str, hint: str = "",
             path: str = "src/repro") -> Finding:
    return Finding(path=path, line=1, rule=rule, message=message, hint=hint)


def _check_scenarios(scenarios, defenses) -> List[Finding]:
    findings: List[Finding] = []
    for sid in scenarios.list_scenarios():
        spec = scenarios.get_spec(sid)
        if isinstance(spec.defense, str):
            try:
                defenses.get_defense(spec.defense)
            except KeyError:
                findings.append(_finding(
                    _RULE_DEFENSE,
                    f"scenario {sid!r} names defense {spec.defense!r}, which "
                    "is not in the defense registry",
                    hint="register the defense or fix the id",
                    path="src/repro/scenarios"))
                continue
        findings.extend(_check_soa_claim(sid, spec))
    return findings


def _check_soa_claim(sid: str, spec) -> List[Finding]:
    """If the spec claims SoA support, its config must build the batched game
    that :class:`~repro.rl.vec_env.VecEnv` would build."""
    from repro.env.batched_env import BatchedGuessingGame

    try:
        if not spec.supports_soa():
            return []
        BatchedGuessingGame(spec.build_config(), 2)
    except Exception as exc:  # any failure falsifies the claim
        return [_finding(
            _RULE_SOA,
            f"scenario {sid!r} claims supports_soa() but the batched game "
            f"rejects its config: {exc}",
            hint="fix the capability hook or add the missing SoA kernel",
            path="src/repro/scenarios")]
    return []


def _check_experiments(runs, scenarios, defenses) -> List[Finding]:
    findings: List[Finding] = []
    for eid in runs.list_experiments():
        spec = runs.get_experiment(eid)
        try:
            spec.resolve_driver()
        except Exception as exc:
            findings.append(_finding(
                _RULE_DRIVER,
                f"experiment {eid!r} driver {spec.driver!r} does not import: "
                f"{exc}",
                hint="fix the driver dotted path",
                path="src/repro/runs"))
            continue
        try:
            cells = spec.cells("smoke")
        except Exception as exc:
            findings.append(_finding(
                _RULE_DRIVER,
                f"experiment {eid!r} cannot expand its smoke-scale grid: {exc}",
                hint="fix the driver's cells(scale)",
                path="src/repro/runs"))
            continue
        for cell in cells:
            findings.extend(_check_cell(eid, cell, scenarios, defenses))
    return findings


def _check_cell(eid: str, cell: Dict, scenarios, defenses) -> List[Finding]:
    findings: List[Finding] = []
    for key in _SCENARIO_KEYS:
        sid = cell.get(key)
        if isinstance(sid, str) and not scenarios.is_registered(sid):
            findings.append(_finding(
                _RULE_SCENARIO,
                f"experiment {eid!r} cell names scenario {sid!r}, which is "
                "not in the scenario registry",
                hint="register the scenario or fix the grid",
                path="src/repro/runs"))
    for key in _DEFENSE_KEYS:
        did = cell.get(key)
        if isinstance(did, str) and did != _NO_DEFENSE \
                and not defenses.is_defense_registered(did):
            findings.append(_finding(
                _RULE_DEFENSE,
                f"experiment {eid!r} cell names defense {did!r}, which is "
                "not in the defense registry",
                hint="register the defense or fix the grid",
                path="src/repro/runs"))
    return findings


def _check_soa_kernel_table() -> List[Finding]:
    """Every ``_SOA_KERNELS`` entry must compile to an engine-accepted config."""
    from repro.cache.config import CacheConfig
    from repro.cache.soa import SoACacheEngine
    from repro.defenses.spec import _SOA_KERNELS, DefenseSpec

    findings: List[Finding] = []
    for kind, policies in _SOA_KERNELS.items():
        probe = DefenseSpec(defense_id=f"__lint_probe_{kind}", kind=kind)
        compiled = probe.compile(None)
        for policy in (policies or ("lru",)):
            overrides: Dict = dict(compiled.cache_overrides)
            extra = dict(overrides.pop("extra", {}) or {})
            try:
                config = CacheConfig(rep_policy=policy, extra=extra, **overrides)
                SoACacheEngine(config, num_envs=2)
            except Exception as exc:
                findings.append(_finding(
                    _RULE_SOA,
                    f"defense kind {kind!r} is listed in _SOA_KERNELS for "
                    f"policy {policy!r} but the SoA engine rejects it: {exc}",
                    hint="implement the kernel or drop the table entry",
                    path="src/repro/defenses"))
    return findings
