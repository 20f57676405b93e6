"""Structure-of-arrays batched cache engine.

The object model in :mod:`repro.cache.cache` keeps one :class:`CacheBlock`
instance per line and one policy object per set — convenient for inspection,
but a Python-loop-per-access bottleneck when an RL trainer needs millions of
guessing-game steps.  This module keeps the state of **many independent cache
instances** (one per vectorized environment) as numpy arrays shaped
``[num_envs, num_sets, num_ways]`` and advances all of them with a handful of
array operations per call:

* hit detection is a broadcast tag compare (invalid lines carry tag -1, so no
  separate valid array is needed on the hot path);
* victim selection is a masked ``argmax``/``argmin`` per replacement policy
  (tree-PLRU walks its bit tree level-by-level, vectorized across envs);
* fills, flushes, and lock updates are fancy-indexed writes.

Bit-exact parity with the object model is a hard requirement (the vectorized
trainer must be a pure speedup, not a different simulator): every kernel
mirrors the corresponding object-path code, including tie-breaking order and —
for seeded-random replacement — the per-env ``Generator`` call sequence.  The
parity suite in ``tests/test_soa_parity.py`` drives both implementations with
identical traces and asserts identical hit/miss/eviction behavior.

Supported configurations: ``lru``, ``plru``, ``rrip``, ``random``, and ``mru``
replacement; ``modulo`` and ``random_permutation`` mappings; flushes and
PL-style lock/unlock.  Two defense fragments (``CacheConfig.extra["defense"]``,
compiled by :mod:`repro.defenses`) have vectorized kernels:

* ``keyed_remap`` — per-env keyed set-index hashing with a re-key epoch,
  mirroring :class:`repro.cache.defended.KeyedRemapCache` (same keyed hash,
  same per-env RNG draws for keys, same invalidate-on-epoch semantics);
* ``way_partition`` — victim/attacker way isolation with per-partition
  replacement metadata (lru/mru only), mirroring
  :class:`repro.cache.defended.WayPartitionCache`.

Prefetchers, multi-level hierarchies, and the other defenses stay on the
object path, as do PL-cache scenarios, because the batched game installs no
locks (see :func:`repro.env.batched_env.config_supports_batching`).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.cache.config import CacheConfig
from repro.cache.mapping import (
    ModuloMapping,
    keyed_set_index,
    keyed_set_index_array,
    make_mapping,
)

# Domain codes used in the ``domains`` array.
DOMAIN_NONE = -1
DOMAIN_ATTACKER = 0
DOMAIN_VICTIM = 1
DOMAIN_CODES = {"attacker": DOMAIN_ATTACKER, "victim": DOMAIN_VICTIM}
DOMAIN_NAMES = {DOMAIN_ATTACKER: "attacker", DOMAIN_VICTIM: "victim"}

#: Replacement policies with a vectorized kernel.
SOA_POLICIES = ("lru", "plru", "rrip", "random", "mru")

#: Set mappings the engine can precompute into lookup tables.
SOA_MAPPINGS = ("modulo", "mod", "random", "random_permutation", "rand_perm")


def domain_code(domain: Optional[str]) -> int:
    """Integer code for a domain name (unknown/None -> DOMAIN_NONE)."""
    if domain is None:
        return DOMAIN_NONE
    return DOMAIN_CODES.get(domain, DOMAIN_NONE)


def _subset(sets, mask):
    """Row-subset a per-access set-index vector (scalar under 1-set configs)."""
    return sets[mask] if isinstance(sets, np.ndarray) else sets


class SoACacheEngine:
    """``num_envs`` independent caches stored as structure-of-arrays state.

    All batched methods take an array of env indices plus one address (and
    optionally one domain code) per selected env; each env performs at most
    one operation per call, which is exactly the shape of a vectorized
    environment step.  Addresses must be non-negative (the environment's
    action space guarantees it; the check lives on the object path).  Per-env
    accounting (access/miss counters, RNG streams for random replacement)
    matches one object :class:`~repro.cache.cache.Cache` per env seeded the
    same way.
    """

    def __init__(self, config: CacheConfig, num_envs: int,
                 rngs: Optional[Sequence[np.random.Generator]] = None,
                 track_stats: bool = True, track_domains: bool = True):
        if num_envs < 1:
            raise ValueError("num_envs must be >= 1")
        policy = config.rep_policy.lower()
        if policy not in SOA_POLICIES:
            raise ValueError(f"no SoA kernel for replacement policy {config.rep_policy!r}; "
                             f"supported: {SOA_POLICIES}")
        if policy == "plru" and config.num_ways & (config.num_ways - 1):
            raise ValueError("tree PLRU requires a power-of-two number of ways")
        if config.prefetcher:
            raise ValueError("the SoA engine does not model prefetchers; "
                             "use the object Cache for prefetcher configs")
        fragment = dict((config.extra or {}).get("defense") or {})
        defense_kind = fragment.get("kind")
        if defense_kind not in (None, "keyed_remap", "way_partition"):
            raise ValueError(f"no SoA kernel for defense kind {defense_kind!r}; "
                             "use the object Cache (VecEnv falls back "
                             "automatically)")
        self._keyed = defense_kind == "keyed_remap"
        self._partitioned = defense_kind == "way_partition"
        if self._keyed and config.mapping.lower() not in ("modulo", "mod"):
            raise ValueError("the keyed-remap kernel replaces the set mapping; "
                             "configure the base cache with modulo mapping")
        if self._partitioned and policy not in ("lru", "mru"):
            raise ValueError("the way-partition SoA kernel supports lru/mru "
                             f"replacement only, not {config.rep_policy!r}")
        self.config = config
        self.num_envs = num_envs
        self.policy = policy
        if rngs is None:
            rngs = [np.random.default_rng(config.rng_seed) for _ in range(num_envs)]
        if len(rngs) != num_envs:
            raise ValueError("need one rng per env")
        self.rngs: List[np.random.Generator] = list(rngs)

        E, S, W = num_envs, config.num_sets, config.num_ways
        # Tag -1 marks an invalid line; real tags are >= 0 because addresses are.
        self.tags = np.full((E, S, W), -1, dtype=np.int64)
        self.domains = np.full((E, S, W), DOMAIN_NONE, dtype=np.int8)
        self.dirty = np.zeros((E, S, W), dtype=bool)
        self.locked = np.zeros((E, S, W), dtype=bool)
        self.access_count = np.zeros(E, dtype=np.int64)
        self.miss_count = np.zeros(E, dtype=np.int64)
        self._lockable = config.lockable
        # The env hot path opts out of per-access counters and per-line domain
        # codes (it never reads them); eviction collection needs domains.
        self._track_stats = track_stats
        self._track_domains = track_domains
        # Writes are rare in the guessing game; skip dirty-bit maintenance
        # until the first one happens.
        self._any_dirty = False
        self._all_ways = np.arange(W, dtype=np.int64)
        self._arange_cache = {}
        # Hot-path scratch: empty results for n == 0 early-outs, a constant
        # ones vector for the domain-less partition fallback, and a victim
        # buffer for the random-policy loop (all sliced to the call width, so
        # the steady-state access path never allocates).
        self._empty_bool = np.empty(0, dtype=bool)
        self._empty_i64 = np.empty(0, dtype=np.int64)
        self._ones_i64 = np.ones(E, dtype=np.int64)
        self._victim_scratch = np.empty(E, dtype=np.int64)

        # Way-partition defense: per-partition replacement metadata.  The
        # absolute ages array holds partition-relative ages (each partition is
        # an independent permutation of 0..size-1), so victim selection and
        # aging are masked to the accessing domain's partition.
        if self._partitioned:
            victim_ways = int(fragment["victim_ways"])
            if not 1 <= victim_ways < W:
                raise ValueError(f"victim_ways ({victim_ways}) must be in "
                                 f"[1, num_ways ({W}))")
            if config.lockable:
                raise ValueError("way partitioning cannot be combined with "
                                 "PL locking")
            self.victim_ways = victim_ways
            way_partition = np.array([0] * victim_ways + [1] * (W - victim_ways),
                                     dtype=np.int64)
            self._way_partition = way_partition
            self._partition_masks = np.stack([way_partition == 0,
                                              way_partition == 1])
            self._partition_ages = np.concatenate(
                [np.arange(victim_ways, dtype=np.int64),
                 np.arange(W - victim_ways, dtype=np.int64)])
        # Keyed-remap defense: one remap key per env, re-drawn from the env's
        # RNG every rekey_epoch accesses (and on reset), mirroring
        # KeyedRemapCache's stream consumption exactly.
        if self._keyed:
            self._rekey_epoch = int(fragment.get("rekey_epoch", 32))
            if self._rekey_epoch < 1:
                raise ValueError("rekey_epoch must be >= 1")
            if config.lockable:
                raise ValueError("keyed remapping cannot be combined with "
                                 "PL locking")
            self._keys = np.zeros(E, dtype=np.int64)
            self._rekey_counter = np.zeros(E, dtype=np.int64)

        # Replacement state, one flavour per policy.
        if policy in ("lru", "mru"):
            self.ages = np.empty((E, S, W), dtype=np.int64)
        elif policy == "plru":
            self.plru_bits = np.zeros((E, S, max(W - 1, 1)), dtype=np.int8)
            self._plru_paths()
        elif policy == "rrip":
            self.max_rrpv = (1 << 2) - 1
            self.insert_rrpv = self.max_rrpv - 1
            self.rrpv = np.empty((E, S, W), dtype=np.int64)

        # Address -> (set, tag) lookup tables, grown lazily; delegating to the
        # real mapping object guarantees parity with the object path
        # (including the random-permutation per-address hash).  Under modulo
        # mapping the address is recoverable as ``tag * num_sets + set``, so
        # no per-line address array is needed.
        self._mapping = make_mapping(config.mapping, S, seed=config.mapping_seed)
        self._addr_set_list: List[int] = []
        self._addr_tag_list: List[int] = []
        # Modulo set/tag are two integer ops; only the permuted mapping needs
        # the memoized lookup tables (and a per-line address array, since the
        # permuted set index is not invertible).  Keyed remapping hashes the
        # whole address per env key, so the address is its own tag and no
        # lookup table or address array applies.
        self._modulo = isinstance(self._mapping, ModuloMapping) and not self._keyed
        self._track_addresses = not self._modulo and not self._keyed
        if self._track_addresses:
            self.addresses = np.full((E, S, W), -1, dtype=np.int64)
        self._addr_set = np.empty(0, dtype=np.int64)
        self._addr_tag = np.empty(0, dtype=np.int64)

        self._all_envs = np.arange(E, dtype=np.intp)
        self.reset()

    # ------------------------------------------------------------------ state
    def _plru_paths(self) -> None:
        """Precompute per-way root-to-leaf paths of the PLRU bit tree."""
        W = self.config.num_ways
        depth = max(W.bit_length() - 1, 0)
        self._plru_path_nodes = np.zeros((W, depth), dtype=np.int64)
        self._plru_path_away = np.zeros((W, depth), dtype=np.int8)
        self._plru_path_pairs = [[] for _ in range(W)]
        for way in range(W):
            node, low, high = 0, 0, W
            for level in range(depth):
                mid = (low + high) // 2
                direction = 0 if way < mid else 1
                self._plru_path_nodes[way, level] = node
                # Touching a way points the bit away from it.
                self._plru_path_away[way, level] = 1 - direction
                self._plru_path_pairs[way].append((node, 1 - direction))
                node = 2 * node + 1 + direction
                if direction == 0:
                    high = mid
                else:
                    low = mid

    def _arange(self, n: int) -> np.ndarray:
        cached = self._arange_cache.get(n)
        if cached is None:
            cached = self._arange_cache[n] = np.arange(n)
        return cached

    def reset(self, env_indices: Optional[np.ndarray] = None) -> None:
        """Invalidate all lines and reset replacement state for the given envs."""
        e = self._all_envs if env_indices is None else np.asarray(env_indices, dtype=np.intp)
        self.tags[e] = -1
        self.domains[e] = DOMAIN_NONE
        if self._any_dirty:
            self.dirty[e] = False
        if self._lockable:
            self.locked[e] = False
        if self._track_addresses:
            self.addresses[e] = -1
        self.access_count[e] = 0
        self.miss_count[e] = 0
        self._reset_replacement_state(e)
        if self._keyed:
            # Same per-env draw (and stream position) as KeyedRemapCache:
            # reset draws a fresh key before any warm-up access.
            self._rekey_counter[e] = 0
            for env in e:
                self._keys[env] = self.rngs[env].integers(1 << 63)

    def _reset_replacement_state(self, e) -> None:
        if self.policy in ("lru", "mru"):
            self.ages[e] = self._partition_ages if self._partitioned else self._all_ways
        elif self.policy == "plru":
            self.plru_bits[e] = 0
        elif self.policy == "rrip":
            self.rrpv[e] = self.max_rrpv

    @property
    def valid(self) -> np.ndarray:
        """Validity mask derived from the tag array (tag -1 = invalid)."""
        return self.tags >= 0

    def _ensure_mapped(self, max_address: int) -> None:
        old = self._addr_set.shape[0]
        new = max(max_address + 1, 2 * old, 16)
        addr_set = np.empty(new, dtype=np.int64)
        addr_tag = np.empty(new, dtype=np.int64)
        addr_set[:old] = self._addr_set
        addr_tag[:old] = self._addr_tag
        for address in range(old, new):
            addr_set[address], addr_tag[address] = self._mapping.locate(address)
        self._addr_set = addr_set
        self._addr_tag = addr_tag
        # Python-int twins used by the scalar warm-up path.
        self._addr_set_list = addr_set.tolist()
        self._addr_tag_list = addr_tag.tolist()

    def _locate(self, addresses: np.ndarray, env_indices: np.ndarray) -> tuple:
        if self._keyed:
            # Per-env keyed hash; the address doubles as the tag.
            return keyed_set_index_array(addresses, self._keys[env_indices],
                                         self.config.num_sets), addresses
        if self._modulo:
            num_sets = self.config.num_sets
            if num_sets == 1:
                # Fully associative: one set, the address is the tag.
                return 0, addresses
            return addresses % num_sets, addresses // num_sets
        if addresses.size:
            max_address = int(addresses.max())
            if max_address >= self._addr_set.shape[0]:
                self._ensure_mapped(max_address)
        return self._addr_set[addresses], self._addr_tag[addresses]

    def _line_addresses(self, e: np.ndarray, s: np.ndarray,
                        w: np.ndarray, tags: np.ndarray) -> np.ndarray:
        """Addresses of the given lines (reconstructed from tags under modulo)."""
        if self._track_addresses:
            return self.addresses[e, s, w]
        if self._keyed:
            return tags
        return tags * self.config.num_sets + s

    # ----------------------------------------------------------------- access
    def access(self, env_indices: np.ndarray, addresses: np.ndarray,
               domains: Optional[np.ndarray] = None, write: bool = False,
               collect: bool = True) -> tuple:
        """One access per selected env; returns ``(hit, way, evicted_addr, evicted_domain)``.

        ``env_indices`` must not contain duplicates (one operation per env per
        call).  Eviction outputs are -1 / DOMAIN_NONE where nothing was
        evicted, and ``None`` when ``collect=False`` (the env hot path skips
        that bookkeeping).
        """
        e = np.asarray(env_indices, dtype=np.intp)
        a = np.asarray(addresses, dtype=np.int64)
        n = e.shape[0]
        if n == 0:
            empty = self._empty_i64
            return self._empty_bool, empty, empty, empty
        if collect and not self._track_domains:
            raise ValueError("collect=True requires track_domains=True")
        s, t = self._locate(a, e)
        if self._track_stats:
            self.access_count[e] += 1
        partition = None
        if self._partitioned:
            # Partition 0 is the victim's; everyone else fills partition 1.
            partition = (self._ones_i64[:n] if domains is None else
                         (np.asarray(domains) != DOMAIN_VICTIM).astype(np.int64))

        set_tags = self.tags[e, s]
        match = set_tags == t[:, None]
        hit = match.any(axis=1)
        way = match.argmax(axis=1)
        evicted_addr = evicted_dom = None

        all_hit = hit.all()
        if not all_hit:
            miss = ~hit
            me, ms, mt = e[miss], _subset(s, miss), t[miss]
            if self._track_stats:
                self.miss_count[me] += 1
            miss_tags = set_tags[miss]
            allowed = (None if partition is None
                       else self._partition_masks[partition[miss]])
            victim = self._choose_victims(me, ms, miss_tags, allowed)
            if collect:
                victim_tags = miss_tags[self._arange(me.shape[0]), victim]
                victim_valid = victim_tags >= 0
                # Eviction collection is the parity/bookkeeping path; the env
                # hot path passes collect=False and never reaches these.
                evicted_addr = np.full(n, -1, dtype=np.int64)  # repro-lint: disable=hotpath.numpy-alloc
                evicted_dom = np.full(n, DOMAIN_NONE, dtype=np.int8)  # repro-lint: disable=hotpath.numpy-alloc
                evicted_addr[miss] = np.where(
                    victim_valid,
                    self._line_addresses(me, ms, victim, victim_tags), -1)
                evicted_dom[miss] = np.where(
                    victim_valid, self.domains[me, ms, victim], DOMAIN_NONE)
            self.tags[me, ms, victim] = mt
            if self._track_domains:
                self.domains[me, ms, victim] = (
                    DOMAIN_NONE if domains is None
                    else np.asarray(domains, dtype=np.int8)[miss])
            if self._track_addresses:
                self.addresses[me, ms, victim] = a[miss]
            if not write and self._any_dirty:
                self.dirty[me, ms, victim] = False
            way[miss] = victim
        elif collect:
            evicted_addr = np.full(n, -1, dtype=np.int64)  # repro-lint: disable=hotpath.numpy-alloc
            evicted_dom = np.full(n, DOMAIN_NONE, dtype=np.int8)  # repro-lint: disable=hotpath.numpy-alloc
        if write:
            self.dirty[e, s, way] = True
            self._any_dirty = True
        # Every row is a distinct env, so hit touches and fill touches are
        # independent and can run as one combined update (victim selection
        # above already read the pre-touch state, as the object path does).
        self._on_touch(e, s, way, hit)
        if self._keyed:
            # The epoch-closing access completes first (its fill and touch are
            # visible above), then the due envs re-key and invalidate.
            self._rekey_counter[e] += 1
            due_envs = e[self._rekey_counter[e] >= self._rekey_epoch]
            if due_envs.shape[0]:
                self._rekey(due_envs)
        return hit, way, evicted_addr, evicted_dom

    def _rekey(self, e: np.ndarray) -> None:
        """Epoch boundary for the given envs: invalidate, fresh state, new key."""
        self.tags[e] = -1
        if self._track_domains:
            self.domains[e] = DOMAIN_NONE
        if self._any_dirty:
            self.dirty[e] = False
        self._reset_replacement_state(e)
        self._rekey_counter[e] = 0
        for env in e:
            self._keys[env] = self.rngs[env].integers(1 << 63)

    def warm_up(self, env_indices: np.ndarray, addresses: np.ndarray,
                domains: Optional[np.ndarray] = None) -> None:
        """Replay ``addresses[i, k]`` in k-order for each selected env ``i``."""
        for k in range(addresses.shape[1]):
            self.access(env_indices, addresses[:, k], domains, collect=False)

    def warm_up_from_empty(self, env: int, addresses: Sequence[int],
                           domain: int = DOMAIN_ATTACKER) -> None:
        """Warm one just-reset env with a scalar (non-numpy) replay.

        Auto-reset warms only the few envs whose episode just ended, so the
        vectorized kernels would run at batch width 1-2 where per-op numpy
        overhead dominates; replaying the trace with plain Python ints on the
        pulled-out set state is ~10x faster at that width.  Semantics mirror
        ``access()`` exactly (same victims, same RNG consumption for random
        replacement).  Requires a lock-free env, which a fresh reset
        guarantees.
        """
        if self._lockable and self.locked[env].any():
            raise RuntimeError("scalar warm-up assumes no locked lines; "
                               "use warm_up() after locking")
        keyed = self._keyed
        modulo = self._modulo
        num_sets = self.config.num_sets
        if keyed:
            key = int(self._keys[env])
            counter = int(self._rekey_counter[env])
        elif not modulo:
            if addresses and max(addresses) >= self._addr_set.shape[0]:
                self._ensure_mapped(max(addresses))
            addr_set, addr_tag = self._addr_set_list, self._addr_tag_list
        W = self.config.num_ways
        ways = range(W)
        if self._partitioned:
            # All accesses of one warm-up share the caller's domain, so the
            # fill partition is fixed for the whole replay.
            fill_lo, fill_hi = self._scalar_partition_bounds(
                0 if domain == DOMAIN_VICTIM else self.victim_ways)
        else:
            fill_lo, fill_hi = 0, W
        tags = self.tags[env].tolist()
        doms = self.domains[env].tolist() if self._track_domains else None
        addrs = self.addresses[env].tolist() if self._track_addresses else None
        state = self._scalar_state(env)
        misses = 0
        for address in addresses:
            if keyed:
                s = keyed_set_index(address, key, num_sets)
                t = address
            elif modulo:
                s = address % num_sets
                t = address // num_sets
            else:
                s = addr_set[address]
                t = addr_tag[address]
            row = tags[s]
            way = -1
            for w in ways:
                if row[w] == t:
                    way = w
                    break
            if way >= 0:
                self._scalar_on_hit(state, s, way)
            else:
                misses += 1
                way = self._scalar_victim(env, row, state, s, fill_lo, fill_hi)
                row[way] = t
                if doms is not None:
                    doms[s][way] = domain
                if addrs is not None:
                    addrs[s][way] = address
                self._scalar_on_fill(state, s, way)
            if keyed:
                counter += 1
                if counter >= self._rekey_epoch:
                    # Mid-warm-up epoch boundary, mirroring _rekey().
                    for set_tags in tags:
                        for w in ways:
                            set_tags[w] = -1
                    if doms is not None:
                        for set_doms in doms:
                            for w in ways:
                                set_doms[w] = DOMAIN_NONE
                    state = self._scalar_fresh_state()
                    counter = 0
                    key = int(self.rngs[env].integers(1 << 63))
        self.tags[env] = tags
        if doms is not None:
            self.domains[env] = doms
        if addrs is not None:
            self.addresses[env] = addrs
        if self.policy in ("lru", "mru"):
            self.ages[env] = state
        elif self.policy == "plru":
            self.plru_bits[env] = state
        elif self.policy == "rrip":
            self.rrpv[env] = state
        if keyed:
            self._keys[env] = key
            self._rekey_counter[env] = counter
        if self._track_stats:
            self.access_count[env] += len(addresses)
            self.miss_count[env] += misses

    # ------------------------------------------------- scalar warm-up helpers
    def _scalar_state(self, env: int):
        """The env's replacement state pulled out as nested Python lists."""
        if self.policy in ("lru", "mru"):
            return self.ages[env].tolist()
        if self.policy == "plru":
            return self.plru_bits[env].tolist()
        if self.policy == "rrip":
            return self.rrpv[env].tolist()
        return None

    def _scalar_fresh_state(self):
        """Freshly-reset replacement state as nested Python lists (re-key)."""
        S, W = self.config.num_sets, self.config.num_ways
        if self.policy in ("lru", "mru"):
            template = (self._partition_ages.tolist() if self._partitioned
                        else list(range(W)))
            return [list(template) for _ in range(S)]
        if self.policy == "plru":
            return [[0] * max(W - 1, 1) for _ in range(S)]
        if self.policy == "rrip":
            return [[self.max_rrpv] * W for _ in range(S)]
        return None

    def _scalar_partition_bounds(self, way: int) -> tuple:
        """[low, high) ways of the partition holding ``way`` (whole set if none)."""
        if not self._partitioned:
            return 0, self.config.num_ways
        if way < self.victim_ways:
            return 0, self.victim_ways
        return self.victim_ways, self.config.num_ways

    def _scalar_victim(self, env: int, row: list, state, s: int,
                       lo: int = 0, hi: Optional[int] = None) -> int:
        """Victim way for one lock-free set given as Python lists.

        ``[lo, hi)`` restricts candidates to the filling domain's way
        partition (the whole set without the way-partition defense).
        """
        if hi is None:
            hi = self.config.num_ways
        for w in range(lo, hi):
            if row[w] < 0:
                return w
        if self.policy == "lru":
            ages = state[s]
            return max(range(lo, hi), key=lambda w: ages[w])
        if self.policy == "mru":
            ages = state[s]
            return min(range(lo, hi), key=lambda w: ages[w])
        if self.policy == "rrip":
            rrpv = state[s]
            while True:
                for w in range(self.config.num_ways):
                    if rrpv[w] >= self.max_rrpv:
                        return w
                for w in range(self.config.num_ways):
                    rrpv[w] += 1
        if self.policy == "plru":
            bits = state[s]
            node, low, high = 0, 0, self.config.num_ways
            while high - low > 1:
                mid = (low + high) // 2
                direction = bits[node]
                node = 2 * node + 1 + direction
                if direction == 0:
                    high = mid
                else:
                    low = mid
            return low
        return int(self.rngs[env].choice(self._all_ways))

    def _scalar_on_hit(self, state, s: int, way: int) -> None:
        if self.policy in ("lru", "mru"):
            lo, hi = self._scalar_partition_bounds(way)
            self._scalar_touch_ages(state[s], way, lo, hi)
        elif self.policy == "plru":
            bits = state[s]
            for node, away in self._plru_path_pairs[way]:
                bits[node] = away
        elif self.policy == "rrip":
            state[s][way] = 0

    def _scalar_on_fill(self, state, s: int, way: int) -> None:
        if self.policy == "rrip":
            state[s][way] = self.insert_rrpv
        else:
            self._scalar_on_hit(state, s, way)

    @staticmethod
    def _scalar_touch_ages(ages: list, way: int, lo: int, hi: int) -> None:
        old = ages[way]
        for w in range(lo, hi):
            if ages[w] < old:
                ages[w] += 1
        ages[way] = 0

    # -------------------------------------------------------- victim selection
    def _choose_victims(self, e: np.ndarray, s: np.ndarray,
                        set_tags: np.ndarray,
                        allowed: Optional[np.ndarray] = None) -> np.ndarray:
        """Victim way per (env, set) row: first free way, else the policy pick.

        ``set_tags`` are the pre-gathered tag rows for these (env, set) pairs;
        ``allowed`` (way-partition defense) restricts candidates to the
        accessing domain's partition.
        """
        candidates = allowed
        if self._lockable:
            unlocked_rows = ~self.locked[e, s]
            candidates = (unlocked_rows if candidates is None
                          else candidates & unlocked_rows)
        free = (set_tags < 0) if candidates is None else (set_tags < 0) & candidates
        victim = free.argmax(axis=1)
        need_policy = ~free.any(axis=1)
        if need_policy.any():
            pe, ps = e[need_policy], _subset(s, need_policy)
            mask = None if candidates is None else candidates[need_policy]
            if self._lockable and mask is not None and not mask.any(axis=1).all():
                raise RuntimeError(
                    f"cannot choose a victim: all {self.config.num_ways} "
                    "ways are locked in at least one set")
            victim[need_policy] = self._policy_victim(pe, ps, mask)
        return victim

    def _policy_victim(self, e: np.ndarray, s: np.ndarray,
                       unlocked: Optional[np.ndarray]) -> np.ndarray:
        if self.policy == "lru":
            # First way with the maximal age among unlocked ways (ages are a
            # permutation, so ties cannot occur without locks).
            ages = self.ages[e, s]
            if unlocked is not None:
                ages = np.where(unlocked, ages, -1)
            return ages.argmax(axis=1)
        if self.policy == "mru":
            ages = self.ages[e, s]
            if unlocked is not None:
                ages = np.where(unlocked, ages, self.config.num_ways)
            return ages.argmin(axis=1)
        if self.policy == "rrip":
            return self._rrip_victim(e, s, unlocked)
        if self.policy == "plru":
            return self._plru_victim(e, s, unlocked)
        # random: must consume each env's generator exactly like
        # RandomPolicy._select_victim (rng.choice over the unlocked ways).
        victim = self._victim_scratch[:e.shape[0]]
        for i in range(e.shape[0]):
            candidates = (self._all_ways if unlocked is None
                          else np.flatnonzero(unlocked[i]))
            victim[i] = int(self.rngs[e[i]].choice(candidates))
        return victim

    def _rrip_victim(self, e: np.ndarray, s: np.ndarray,
                     unlocked: Optional[np.ndarray]) -> np.ndarray:
        rrpv = self.rrpv[e, s]
        masked = rrpv if unlocked is None else np.where(unlocked, rrpv, -1)
        # The object loop increments all candidates until one reaches
        # max_rrpv; that is a single += of the remaining deficit.
        deficit = np.maximum(self.max_rrpv - masked.max(axis=1), 0)
        if unlocked is None:
            rrpv = rrpv + deficit[:, None]
            masked = rrpv
        else:
            rrpv = np.where(unlocked, rrpv + deficit[:, None], rrpv)
            masked = np.where(unlocked, rrpv, -1)
        self.rrpv[e, s] = rrpv
        return (masked >= self.max_rrpv).argmax(axis=1)

    def _plru_victim(self, e: np.ndarray, s: np.ndarray,
                     unlocked: Optional[np.ndarray]) -> np.ndarray:
        n = e.shape[0]
        bits_rows = self.plru_bits[e, s]
        rows = self._arange(n)
        node = np.zeros(n, dtype=np.int64)
        low = np.zeros(n, dtype=np.int64)
        span = self.config.num_ways
        while span > 1:
            direction = bits_rows[rows, node].astype(np.int64)
            node = 2 * node + 1 + direction
            span //= 2
            low += direction * span
        victim = low
        if unlocked is not None:
            # A locked pseudo-LRU leaf falls back to the first unlocked way,
            # matching PLRUPolicy._select_victim.
            blocked = ~unlocked[rows, victim]
            if blocked.any():
                victim[blocked] = unlocked[blocked].argmax(axis=1)
        return victim

    # --------------------------------------------------- replacement updates
    def _touch_ages(self, e: np.ndarray, s: np.ndarray, w: np.ndarray) -> None:
        rows = self.ages[e, s]
        idx = self._arange(rows.shape[0])
        old = rows[idx, w]
        if self._partitioned:
            # Aging stays inside the touched way's partition (metadata
            # ownership follows the way, as in WayPartitionCache).
            rows += (rows < old[:, None]) & self._partition_masks[self._way_partition[w]]
        else:
            rows += rows < old[:, None]
        rows[idx, w] = 0
        self.ages[e, s] = rows

    def _touch_plru(self, e: np.ndarray, s, w: np.ndarray) -> None:
        if self._plru_path_nodes.shape[1] == 0:
            return
        sets = s if isinstance(s, int) else s[:, None]
        self.plru_bits[e[:, None], sets, self._plru_path_nodes[w]] = \
            self._plru_path_away[w]

    def _on_touch(self, e: np.ndarray, s, w: np.ndarray,
                  hit: np.ndarray) -> None:
        """Combined replacement update for one batch of hits and fills."""
        if self.policy in ("lru", "mru"):
            self._touch_ages(e, s, w)
        elif self.policy == "plru":
            self._touch_plru(e, s, w)
        elif self.policy == "rrip":
            # Hit promotion is RRPV 0, fill insertion is insert_rrpv.
            self.rrpv[e, s, w] = np.where(hit, 0, self.insert_rrpv)

    # ------------------------------------------------------------ flush/locks
    def flush(self, env_indices: np.ndarray, addresses: np.ndarray) -> np.ndarray:
        """clflush per selected env; returns the per-env residency mask."""
        e = np.asarray(env_indices, dtype=np.intp)
        a = np.asarray(addresses, dtype=np.int64)
        if e.shape[0] == 0:
            return self._empty_bool
        s, t = self._locate(a, e)
        match = self.tags[e, s] == t[:, None]
        resident = match.any(axis=1)
        if resident.any():
            re, rs = e[resident], _subset(s, resident)
            rw = match.argmax(axis=1)[resident]
            self.tags[re, rs, rw] = -1
            if self._track_domains:
                self.domains[re, rs, rw] = DOMAIN_NONE
            if self._lockable:
                self.locked[re, rs, rw] = False
            if self._any_dirty:
                self.dirty[re, rs, rw] = False
            if self._track_addresses:
                self.addresses[re, rs, rw] = -1
        return resident

    def lock(self, env_indices: np.ndarray, addresses: np.ndarray,
             domains: Optional[np.ndarray] = None) -> None:
        """Install (if needed) and pin one address per selected env."""
        if not self._lockable:
            raise RuntimeError("this cache configuration does not support locking")
        e = np.asarray(env_indices, dtype=np.intp)
        a = np.asarray(addresses, dtype=np.int64)
        if e.shape[0] == 0:
            return
        s, t = self._locate(a, e)
        match = self.tags[e, s] == t[:, None]
        resident = match.any(axis=1)
        way = match.argmax(axis=1)
        absent = ~resident
        if absent.any():
            dom = None if domains is None else np.asarray(domains, dtype=np.int8)[absent]
            _, filled_way, _, _ = self.access(e[absent], a[absent], dom, collect=False)
            way[absent] = filled_way
        self.locked[e, s, way] = True

    def unlock(self, env_indices: np.ndarray, addresses: np.ndarray) -> None:
        if not self._lockable:
            raise RuntimeError("this cache configuration does not support locking")
        e = np.asarray(env_indices, dtype=np.intp)
        a = np.asarray(addresses, dtype=np.int64)
        if e.shape[0] == 0:
            return
        s, t = self._locate(a, e)
        match = self.tags[e, s] == t[:, None]
        resident = match.any(axis=1)
        if resident.any():
            re, rs = e[resident], _subset(s, resident)
            self.locked[re, rs, match.argmax(axis=1)[resident]] = False

    # -------------------------------------------------------------- inspection
    @property
    def domain_sensitive(self) -> bool:
        """Whether accesses must carry domains (the way-partition defense)."""
        return self._partitioned

    def _locate_scalar(self, address: int, env: int = 0) -> tuple:
        if self._keyed:
            return keyed_set_index(address, int(self._keys[env]),
                                   self.config.num_sets), address
        if self._modulo:
            num_sets = self.config.num_sets
            return address % num_sets, address // num_sets
        if address >= self._addr_set.shape[0]:
            self._ensure_mapped(address)
        return self._addr_set_list[address], self._addr_tag_list[address]

    def lookup(self, env: int, address: int) -> Optional[int]:
        """Way holding ``address`` in env ``env``, or None (no side effects)."""
        s, t = self._locate_scalar(address, env)
        match = self.tags[env, s] == t
        if not match.any():
            return None
        return int(match.argmax())

    def contains(self, env: int, address: int) -> bool:
        return self.lookup(env, address) is not None

    def contents(self, env: int) -> List[int]:
        """All valid line addresses resident in env ``env`` (sorted)."""
        tags = self.tags[env]
        resident = tags >= 0
        if self._track_addresses:
            lines = self.addresses[env][resident]
        elif self._keyed:
            lines = tags[resident]  # full-address tags
        else:
            sets = np.broadcast_to(
                np.arange(self.config.num_sets)[:, None], tags.shape)
            lines = (tags * self.config.num_sets + sets)[resident]
        return sorted(int(x) for x in lines)

    def locked_ways(self, env: int, set_index: int) -> frozenset:
        """Ways holding locked valid lines (mirrors ``Cache.locked_ways``)."""
        mask = self.locked[env, set_index] & (self.tags[env, set_index] >= 0)
        return frozenset(int(w) for w in np.flatnonzero(mask))

    def replacement_state(self, env: int, set_index: int = 0) -> tuple:
        """Snapshot matching ``ReplacementPolicy.state_snapshot`` per policy."""
        if self.policy in ("lru", "mru"):
            return tuple(int(x) for x in self.ages[env, set_index])
        if self.policy == "plru":
            return tuple(int(x) for x in self.plru_bits[env, set_index])
        if self.policy == "rrip":
            return tuple(int(x) for x in self.rrpv[env, set_index])
        return ()

    def hit_rate(self, env: int) -> float:
        if self.access_count[env] == 0:
            return 0.0
        return 1.0 - float(self.miss_count[env]) / float(self.access_count[env])
