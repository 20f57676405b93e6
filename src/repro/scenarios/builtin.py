"""The built-in scenario catalogue.

Registers every environment the experiments, examples, and benchmarks use:

* ``guessing/*`` — single-secret guessing games (Table V/VI/VII settings,
  the quickstart game);
* ``known/*`` — the Table I known-attack configurations;
* ``table4/cfg01`` .. ``table4/cfg17`` — the Table IV configuration sweep;
* ``covert/*`` — fixed-length multi-guess covert-channel episodes, with
  CC-Hunter / Cyclone detector wrappers as declarative variants;
* ``defended/*`` — curated base scenarios hardened with each built-in
  secure-cache defense (see :mod:`repro.defenses`);
* ``blackbox/*`` — one scenario per simulated machine (Tables III and X).

Importing :mod:`repro.scenarios` runs this module, so ``repro.make()`` always
sees the full catalogue.
"""

from __future__ import annotations

from repro.hardware.machines import MACHINES
from repro.scenarios.registry import register
from repro.scenarios.spec import ScenarioSpec


def machine_scenario_id(machine_key: str) -> str:
    """Registry id of the blackbox scenario for a machine key ("name:level")."""
    slug = machine_key.lower().replace(" ", "-").replace(":", "-")
    return f"blackbox/{slug}"


def _register_guessing_family() -> None:
    # Table V / VI setting: 4-way fully-associative set, attacker fills the
    # set (addresses 0..ways), victim accesses address 0 or nothing.
    for policy in ("lru", "plru", "rrip", "random"):
        register(ScenarioSpec(
            scenario_id=f"guessing/{policy}-4way",
            description=(f"4-way fully-associative {policy.upper()} set; victim "
                         "accesses 0 or nothing (Table V/VI setting)"),
            cache={"num_sets": 1, "num_ways": 4, "rep_policy": policy},
            env_kwargs={"attacker_addr_s": 0, "attacker_addr_e": 4,
                        "victim_addr_s": 0, "victim_addr_e": 0,
                        "victim_no_access_enable": True,
                        "window_size": 12, "max_steps": 12},
        ))

    # Table VII layout: disjoint attacker (1-5) / victim (0) ranges, so the
    # defenses below actually isolate something.  The PL-cache variant rides
    # the defense registry (defense="plcache" locks the victim range).
    register(ScenarioSpec(
        scenario_id="guessing/plcache-baseline-4way",
        description=("Table VII baseline: 4-way PLRU set, disjoint attacker "
                     "(1-5) / victim (0) ranges, no defense"),
        cache={"num_sets": 1, "num_ways": 4, "rep_policy": "plru"},
        env_kwargs={"attacker_addr_s": 1, "attacker_addr_e": 5,
                    "victim_addr_s": 0, "victim_addr_e": 0,
                    "victim_no_access_enable": True,
                    "window_size": 12, "max_steps": 12},
    ))
    register(base="guessing/plcache-baseline-4way",
             scenario_id="guessing/plcache-plru-4way",
             description=("4-way PLRU PL cache with victim line 0 pre-installed "
                          "and locked (Table VII defense setting)"),
             defense="plcache")
    register(base="guessing/plcache-baseline-4way",
             scenario_id="guessing/lru-4way-disjoint",
             description=("4-way fully-associative LRU set with disjoint "
                          "attacker (1-5) / victim (0) ranges"),
             **{"cache.rep_policy": "lru"})

    # Set-associative prime+probe setting with disjoint ranges: the multi-set
    # row of the defense matrix (set-index remapping only matters when there
    # is more than one set to remap).
    # The attacker owns 5 of 8 lines: a partial footprint, so set-index
    # remapping genuinely breaks its eviction sets (flooding the whole cache
    # would leak under any mapping).
    register(ScenarioSpec(
        scenario_id="guessing/sa-4set-2way",
        description=("4-set 2-way LRU cache; victim accesses 0 or nothing, "
                     "attacker owns 4-8 (set-associative prime+probe with a "
                     "partial cache footprint)"),
        cache={"num_sets": 4, "num_ways": 2},
        env_kwargs={"attacker_addr_s": 4, "attacker_addr_e": 8,
                    "victim_addr_s": 0, "victim_addr_e": 0,
                    "victim_no_access_enable": True,
                    "window_size": 16, "max_steps": 16},
    ))

    # The README / examples quickstart: smallest interesting guessing game.
    register(ScenarioSpec(
        scenario_id="guessing/quickstart",
        description=("2-set direct-mapped cache; victim's secret is address 0 "
                     "or 1, attacker owns 2-3 (minimal prime+probe game)"),
        cache={"num_sets": 2, "num_ways": 1},
        env_kwargs={"attacker_addr_s": 2, "attacker_addr_e": 3,
                    "victim_addr_s": 0, "victim_addr_e": 1,
                    "victim_no_access_enable": False,
                    "window_size": 8, "max_steps": 8},
    ))


def _register_known_attacks() -> None:
    # Table I: one configuration per known attack category.
    register(ScenarioSpec(
        scenario_id="known/prime-probe",
        description="Direct-mapped 4-set cache, disjoint attacker range (prime+probe)",
        cache={"num_sets": 4, "num_ways": 1},
        env_kwargs={"attacker_addr_s": 4, "attacker_addr_e": 7,
                    "victim_addr_s": 0, "victim_addr_e": 3,
                    "victim_no_access_enable": False,
                    "window_size": 24, "warmup_accesses": 0},
    ))
    register(ScenarioSpec(
        scenario_id="known/flush-reload",
        description="Shared attacker/victim range with clflush (flush+reload)",
        cache={"num_sets": 4, "num_ways": 1},
        env_kwargs={"attacker_addr_s": 0, "attacker_addr_e": 3,
                    "victim_addr_s": 0, "victim_addr_e": 3,
                    "victim_no_access_enable": False, "flush_enable": True,
                    "window_size": 24, "warmup_accesses": 0},
    ))
    register(ScenarioSpec(
        scenario_id="known/evict-reload",
        description="Attacker covers the victim's range without flush (evict+reload)",
        cache={"num_sets": 4, "num_ways": 1},
        env_kwargs={"attacker_addr_s": 0, "attacker_addr_e": 7,
                    "victim_addr_s": 0, "victim_addr_e": 3,
                    "victim_no_access_enable": False,
                    "window_size": 32, "warmup_accesses": 0},
    ))
    register(ScenarioSpec(
        scenario_id="known/lru-state",
        description="Fully-associative LRU set, address-based LRU-state attack",
        cache={"num_sets": 1, "num_ways": 4},
        env_kwargs={"attacker_addr_s": 0, "attacker_addr_e": 4,
                    "victim_addr_s": 0, "victim_addr_e": 0,
                    "victim_no_access_enable": True,
                    "window_size": 16, "warmup_accesses": 0},
    ))


def _register_table4() -> None:
    def env_kwargs(victim, attacker, flush, no_access, window, hierarchy=False):
        kwargs = {"attacker_addr_s": attacker[0], "attacker_addr_e": attacker[1],
                  "victim_addr_s": victim[0], "victim_addr_e": victim[1],
                  "flush_enable": flush, "victim_no_access_enable": no_access,
                  "window_size": window, "max_steps": window}
        if hierarchy:
            kwargs["hierarchy"] = True
        return kwargs

    dm = lambda sets, **kw: {"num_sets": sets, "num_ways": 1, **kw}
    fa = lambda ways, **kw: {"num_sets": 1, "num_ways": ways, **kw}
    sa = lambda sets, ways, **kw: {"num_sets": sets, "num_ways": ways, **kw}

    entries = [
        (1, "DM 4-set, victim 0-3, attacker 4-7",
         dm(4), None, env_kwargs((0, 3), (4, 7), False, False, 20)),
        (2, "DM 4-set + next-line prefetcher",
         dm(4, prefetcher="nextline"), None, env_kwargs((0, 3), (4, 7), False, False, 20)),
        (3, "DM 4-set, shared 0-3, flush",
         dm(4), None, env_kwargs((0, 3), (0, 3), True, False, 20)),
        (4, "DM 4-set, attacker 0-7, no flush",
         dm(4), None, env_kwargs((0, 3), (0, 7), False, False, 24)),
        (5, "FA 4-way, victim 0/E, attacker 4-7",
         fa(4), None, env_kwargs((0, 0), (4, 7), False, True, 14)),
        (6, "FA 4-way, victim 0/E, shared 0-3, flush",
         fa(4), None, env_kwargs((0, 0), (0, 3), True, True, 14)),
        (7, "FA 4-way, victim 0/E, attacker 0-7",
         fa(4), None, env_kwargs((0, 0), (0, 7), False, True, 16)),
        (8, "FA 4-way, victim 0-3, shared 0-3, flush",
         fa(4), None, env_kwargs((0, 3), (0, 3), True, False, 16)),
        (9, "FA 4-way, victim 0-3, attacker 0-7, flush",
         fa(4), None, env_kwargs((0, 3), (0, 7), True, False, 20)),
        (10, "DM 8-set, shared 0-7, flush",
         dm(8), None, env_kwargs((0, 7), (0, 7), True, False, 36)),
        (11, "FA 8-way, victim 0/E, shared 0-7, flush",
         fa(8), None, env_kwargs((0, 0), (0, 7), True, True, 24)),
        (12, "FA 8-way, victim 0/E, attacker 0-15",
         fa(8), None, env_kwargs((0, 0), (0, 15), False, True, 28)),
        (13, "FA 8-way + next-line prefetcher, attacker 0-15",
         fa(8, prefetcher="nextline"), None, env_kwargs((0, 0), (0, 15), False, True, 28)),
        (14, "FA 8-way + stream prefetcher, attacker 0-15",
         fa(8, prefetcher="stream"), None, env_kwargs((0, 0), (0, 15), False, True, 28)),
        (15, "SA 2-way 4-set, victim 0-3, attacker 4-11",
         sa(4, 2), None, env_kwargs((0, 3), (4, 11), False, False, 28)),
        (16, "2-level: private DM L1s, shared 2-way 4-set L2",
         dm(4), sa(4, 2), env_kwargs((0, 3), (4, 11), False, False, 28, hierarchy=True)),
        (17, "2-level: private DM L1s, shared 2-way 8-set L2",
         dm(8), sa(8, 2), env_kwargs((0, 7), (8, 23), False, False, 48, hierarchy=True)),
    ]
    for number, description, cache, l2_cache, kwargs in entries:
        register(ScenarioSpec(
            scenario_id=f"table4/cfg{number:02d}",
            description=f"Table IV config {number}: {description}",
            cache=cache, l2_cache=l2_cache, env_kwargs=kwargs,
        ))


def _register_covert_family() -> None:
    # Sec. V-D covert channel: prime+probe over a direct-mapped cache in
    # fixed-length multi-guess episodes.  The paper's setting is 4 sets and
    # 160-step episodes; experiments shrink both via overrides.
    register(ScenarioSpec(
        scenario_id="covert/prime-probe",
        env="covert",
        description=("Multi-guess covert channel: direct-mapped cache, disjoint "
                     "attacker/victim ranges, fixed 160-step episodes"),
        cache={"num_sets": 4, "num_ways": 1},
        env_kwargs={"attacker_addr_s": 4, "attacker_addr_e": 7,
                    "victim_addr_s": 0, "victim_addr_e": 3,
                    "victim_no_access_enable": False,
                    "window_size": 16},
        rewards={"step_reward": -0.01, "no_guess_reward": -1.0},
        episode_length=160,
    ))
    register(base="covert/prime-probe", scenario_id="covert/prime-probe-cchunter",
             description=("Covert channel with CC-Hunter's autocorrelation L2 "
                          "penalty in the reward"),
             wrappers=({"type": "autocorrelation_penalty", "penalty_scale": -2.0},))
    register(base="covert/prime-probe", scenario_id="covert/prime-probe-svm",
             description=("Covert channel with a Cyclone-style SVM detector in "
                          "the loop (pass the trained detector to make())"),
             wrappers=({"type": "svm_detection"},))


#: The curated defended/* grid: base-scenario slug -> (base id, defense ids).
DEFENDED_BASES = {
    "lru-4way": "guessing/lru-4way-disjoint",
    "plru-4way": "guessing/plcache-baseline-4way",
    "sa-4set-2way": "guessing/sa-4set-2way",
}
DEFENDED_DEFENSES = ("plcache", "keyed-remap", "skew", "way-partition",
                     "random-fill")


def _register_defended_family() -> None:
    # defended/<base>-<defense>: every curated base scenario crossed with
    # every built-in defense — the rows of the defense_matrix experiment.
    for base_slug, base_id in DEFENDED_BASES.items():
        for defense_id in DEFENDED_DEFENSES:
            register(base=base_id,
                     scenario_id=f"defended/{base_slug}-{defense_id}",
                     description=(f"{base_id} hardened with the {defense_id} "
                                  "defense (see repro.list_defenses())"),
                     defense=defense_id)


def _register_blackbox_machines() -> None:
    for key, spec in sorted(MACHINES.items()):
        # Tree PLRU (the hidden policy of the 12-way RocketLake L1Ds) only
        # instantiates for power-of-two associativity; those machines exist
        # for the covert-channel timing model, not as guessing-game targets.
        if spec.hidden_policy == "plru" and spec.num_ways & (spec.num_ways - 1):
            continue
        register(ScenarioSpec(
            scenario_id=machine_scenario_id(key),
            env="blackbox",
            machine=key,
            description=(f"Blackbox {spec.name} {spec.cache_level} "
                         f"({spec.num_ways} ways, hidden replacement policy, "
                         "measurement noise)"),
        ))


def register_builtin_scenarios() -> None:
    """Populate the registry (idempotent: skips when already registered)."""
    from repro.scenarios.registry import is_registered

    if is_registered("guessing/lru-4way"):
        return
    _register_guessing_family()
    _register_known_attacks()
    _register_table4()
    _register_covert_family()
    _register_defended_family()
    _register_blackbox_machines()


register_builtin_scenarios()
