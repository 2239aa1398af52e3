"""Secondary hash indexes over relation supports (the join accelerator).

The guard-driven enumeration of :mod:`repro.core.valuations` joins a
sum-product body by extending partial valuations against each guard's
key set.  Done naïvely, every partial valuation re-scans the guard's
*entire* support — quadratic (or worse) in the support sizes, which is
what caps the benchmarks at toy sizes.  This module provides the data
structure that turns those scans into O(1) hash probes:

* :class:`KeyIndex` — one relation's key set plus lazily-built hash
  maps keyed by *bound-column masks*: for the mask ``(0, 2)`` the map
  sends ``(key[0], key[2])`` to the list of matching entries.  Masks
  are materialized on first probe and maintained incrementally by
  :meth:`KeyIndex.add`, so the semi-naïve engine can keep one index
  per IDB relation alive across iterations and merely feed it each
  applied delta.  Entries optionally **carry the relation's value**
  alongside the key (fed from a support ``Mapping``), so factor
  evaluation can ride the probe instead of paying a second hash lookup
  per factor — see ``FactorEvaluator.product_value``.
* :class:`IndexManager` — a versioned cache of named indexes, so
  evaluators share one index per EDB relation across every rule body
  and every fixpoint iteration (the support never changes), and can
  cheaply invalidate by bumping the version when it does.  Rebuilt
  indexes inherit (decayed) probe observations from their predecessor,
  keeping selectivity estimates adaptive across iterations.
* :class:`JoinStats` — probe/scan/fallback/pushdown counters for the
  join core, surfaced through ``EvalStats`` so benchmarks (E2, E12,
  E21, E23) can report the saving of indexed over naïve enumeration.

Selectivity estimates are **adaptive**: a built mask table knows its
true distinct count, every probe records its hit rate, and
:meth:`KeyIndex.estimate` prefers observed candidates-per-probe over
the static ``n / 4^bound`` guess the seed planner used.
"""

from __future__ import annotations

from collections.abc import Mapping as _Mapping
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

Key = Tuple[Any, ...]
#: A bound-column mask: the sorted tuple of key positions that are
#: known (bound) at probe time.  The empty mask means a full scan.
Mask = Tuple[int, ...]

#: Marks an entry whose key source carried no value (Boolean stores,
#: plain key iterables).  ``None`` is not usable — it is a legitimate
#: POPS value in principle.
NO_VALUE: Any = object()

#: An index entry: a 2-slot list ``[key, value]``.  Lists (not tuples)
#: so that a value update via :meth:`KeyIndex.add` is visible through
#: every mask bucket holding the entry, without rebuilds.
Entry = List  # [Key, Value]

#: Assumed per-bound-column branching factor used to estimate the
#: selectivity of a mask whose hash map has not been built yet (building
#: it just to rank candidate join orders would defeat the laziness).
_DEFAULT_FANOUT = 4

#: Probes observed on a mask before its hit rate outranks the distinct
#: count as the estimate (tiny samples are noise).
_MIN_OBSERVATIONS = 4

#: Largest index for which :meth:`KeyIndex.estimate` counts the exact
#: distinct projections of an *unbuilt* mask (one O(n) pass, cached)
#: instead of falling back to the static fanout guess.  The cost-based
#: join-order DP multiplies estimates across steps, so mixing observed
#: rates for one guard with static guesses for another skews the
#: comparison; exact counts keep small indexes — the common case —
#: consistent.
_EXACT_COUNT_LIMIT = 512


@dataclass
class JoinStats:
    """Work counters for the join core.

    ``keys_examined`` (= ``scanned_keys + probed_keys + fallback_candidates``)
    is the benchmarks' "join-core operations" metric: every candidate
    key the executor had to look at.  Indexed planning shrinks it by
    replacing support scans with hash probes that return only the
    matching bucket; condition pushdown shrinks it further by pruning
    fallback products before they complete.

    The pushdown/value-probe counters:

    * ``fallback_extensions`` — intermediate (non-final) candidates the
      incremental fallback loop touched;
    * ``pushdown_prunes`` — partial valuations rejected by a pushed
      filter before the leaf;
    * ``equality_bindings`` — fallback variables bound directly from an
      ``x = t`` conjunct instead of enumerating the domain;
    * ``arity_skips`` — keys dropped because their arity mismatched the
      guard's (previously an invisible ``continue``);
    * ``probe_hits`` / ``probe_misses`` — probes returning a non-empty /
      empty bucket (the planner's adaptive-selectivity signal);
    * ``value_probe_hits`` — factor evaluations served by a value that
      rode the probe (no secondary hash lookup);
    * ``factor_lookups`` — factor evaluations that did pay a store
      lookup (the metric the value-carrying path drives to zero on
      fully probed bodies);
    * ``rebuild_skips`` — per-iteration index refreshes skipped because
      the relation's store was untouched by the last delta (previously
      every IDB index was re-validated and rebuilt each iteration,
      whether or not the relation changed);
    * ``kernel_cache_hits`` — rule applications served by a batched
      kernel built in an earlier iteration (see
      :class:`repro.core.kernels.KernelCache`): the counter that proves
      kernels are built once per stratum and reused, not rebuilt per
      iteration.

    The batched-engine counters (see :mod:`repro.core.batched`):

    * ``batch_joins`` — probe/scan steps executed over a whole
      (non-empty) batch at once instead of candidate-at-a-time.  Under
      ``engine="batched"`` this is a *floor* in the regression gate: a
      drop means the columnar executor silently stopped being engaged;
    * ``batch_rows`` — rows that flowed out of batched join steps (the
      columnar analogue of candidates entering the next plan step);
    * ``vector_filter_prunes`` — rows removed by a vectorized filter
      mask (pushdown filters, residual ``Φ``-conjuncts).  Counted at
      the same events as ``pushdown_prunes`` — which the batched
      engine also increments, keeping cross-engine parity — but only
      by the mask-based executor, so the split is observable.

    The sharded-engine counters (see :mod:`repro.core.sharded`):

    * ``exchange_rounds`` — repartition exchanges the coordinator ran
      (one per semi-naïve iteration while the worker pool is live);
    * ``exchange_tuples`` — delta tuples shipped coordinator → workers
      across all exchanges (broadcast relations count once per
      receiving shard, routed relations once total).  Under
      ``engine_workers > 1`` this is a regression-gate *floor*: a drop
      means the exchange stopped shipping deltas — i.e. sharded
      evaluation silently stopped being engaged;
    * ``shard_fallbacks`` — sharded runs that exhausted the degradation
      ladder (restart → demote → single-process) and finished
      single-process;
    * ``shard_stall_fallbacks`` — the subset of ``shard_fallbacks``
      whose final triggering fault was a stall (a worker missing its
      heartbeat deadline) rather than a crash/corruption;
    * ``shard_restarts`` — dead/stalled/bad workers re-forked and
      replayed from the coordinator's master state (the self-healing
      rung that keeps the fixpoint byte-identical without falling
      back);
    * ``shard_demotions`` — pool rebuilds at a smaller width after the
      restart budget was exhausted (the middle rung of the ladder);
    * ``crc_retransmits`` — exchange payloads whose CRC check failed
      and were retransmitted once before declaring the worker bad.
    """

    probes: int = 0
    scans: int = 0
    probed_keys: int = 0
    scanned_keys: int = 0
    fallback_candidates: int = 0
    index_builds: int = 0
    fallback_extensions: int = 0
    pushdown_prunes: int = 0
    equality_bindings: int = 0
    arity_skips: int = 0
    probe_hits: int = 0
    probe_misses: int = 0
    value_probe_hits: int = 0
    factor_lookups: int = 0
    rebuild_skips: int = 0
    kernel_cache_hits: int = 0
    batch_joins: int = 0
    batch_rows: int = 0
    vector_filter_prunes: int = 0
    exchange_rounds: int = 0
    exchange_tuples: int = 0
    shard_fallbacks: int = 0
    shard_stall_fallbacks: int = 0
    shard_restarts: int = 0
    shard_demotions: int = 0
    crc_retransmits: int = 0

    @property
    def keys_examined(self) -> int:
        return self.probed_keys + self.scanned_keys + self.fallback_candidates

    def merge(self, other: "JoinStats") -> None:
        """Fold another counter set into this one (engine composition)."""
        self.probes += other.probes
        self.scans += other.scans
        self.probed_keys += other.probed_keys
        self.scanned_keys += other.scanned_keys
        self.fallback_candidates += other.fallback_candidates
        self.index_builds += other.index_builds
        self.fallback_extensions += other.fallback_extensions
        self.pushdown_prunes += other.pushdown_prunes
        self.equality_bindings += other.equality_bindings
        self.arity_skips += other.arity_skips
        self.probe_hits += other.probe_hits
        self.probe_misses += other.probe_misses
        self.value_probe_hits += other.value_probe_hits
        self.factor_lookups += other.factor_lookups
        self.rebuild_skips += other.rebuild_skips
        self.kernel_cache_hits += other.kernel_cache_hits
        self.batch_joins += other.batch_joins
        self.batch_rows += other.batch_rows
        self.vector_filter_prunes += other.vector_filter_prunes
        self.exchange_rounds += other.exchange_rounds
        self.exchange_tuples += other.exchange_tuples
        self.shard_fallbacks += other.shard_fallbacks
        self.shard_stall_fallbacks += other.shard_stall_fallbacks
        self.shard_restarts += other.shard_restarts
        self.shard_demotions += other.shard_demotions
        self.crc_retransmits += other.crc_retransmits

    def snapshot(self) -> Dict[str, int]:
        return {
            "probes": self.probes,
            "scans": self.scans,
            "probed_keys": self.probed_keys,
            "scanned_keys": self.scanned_keys,
            "fallback_candidates": self.fallback_candidates,
            "index_builds": self.index_builds,
            "fallback_extensions": self.fallback_extensions,
            "pushdown_prunes": self.pushdown_prunes,
            "equality_bindings": self.equality_bindings,
            "arity_skips": self.arity_skips,
            "probe_hits": self.probe_hits,
            "probe_misses": self.probe_misses,
            "value_probe_hits": self.value_probe_hits,
            "factor_lookups": self.factor_lookups,
            "rebuild_skips": self.rebuild_skips,
            "kernel_cache_hits": self.kernel_cache_hits,
            "batch_joins": self.batch_joins,
            "batch_rows": self.batch_rows,
            "vector_filter_prunes": self.vector_filter_prunes,
            "exchange_rounds": self.exchange_rounds,
            "exchange_tuples": self.exchange_tuples,
            "shard_fallbacks": self.shard_fallbacks,
            "shard_stall_fallbacks": self.shard_stall_fallbacks,
            "shard_restarts": self.shard_restarts,
            "shard_demotions": self.shard_demotions,
            "crc_retransmits": self.crc_retransmits,
            "keys_examined": self.keys_examined,
        }


_EMPTY: Tuple[Entry, ...] = ()


class KeyIndex:
    """A key set with lazily-built secondary hash indexes per mask.

    Keys keep insertion order (scans and probe buckets enumerate in the
    order keys were added, keeping plans deterministic).  Duplicate keys
    are dropped, matching set/dict-backed supports; re-adding an
    existing key with a value *updates* the carried value in place —
    the semi-naïve engine's hook for ``⊕``-merged deltas.

    Feed a ``Mapping`` (a relation support) to carry values; any other
    iterable builds a key-only index.
    """

    __slots__ = (
        "_entries",
        "_keys",
        "_pos",
        "_maps",
        "_observed",
        "_distinct",
        "stats",
        "has_values",
    )

    def __init__(
        self,
        keys: Union[Mapping[Key, Any], Iterable[Key]] = (),
        stats: Optional[JoinStats] = None,
    ):
        self._entries: List[Entry] = []
        self._keys: List[Key] = []
        self._pos: Dict[Key, int] = {}
        self._maps: Dict[Mask, Dict[Tuple[Hashable, ...], List[Entry]]] = {}
        #: Per-mask probe observations: mask -> [probes, entries returned].
        self._observed: Dict[Mask, List[int]] = {}
        #: Exact distinct projection counts for unbuilt masks (cleared
        #: whenever a new key lands — see :meth:`estimate`).
        self._distinct: Dict[Mask, int] = {}
        self.stats = stats
        self.has_values = False
        self.extend(keys)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def keys(self) -> Sequence[Key]:
        """Return every key (a scan — prefer :meth:`probe` when bound)."""
        return self._keys

    def entries(self) -> Sequence[Entry]:
        """Return every ``[key, value]`` entry (the value-aware scan)."""
        return self._entries

    def add(self, key: Key, value: Any = NO_VALUE) -> bool:
        """Insert one key, updating every built mask map incrementally.

        Returns whether the key was new.  Passing a value for an
        existing key updates the carried value in place (visible in
        every bucket — entries are shared).  This is the maintenance
        hook the semi-naïve engine calls when it applies a delta:
        O(#built masks) per new key instead of a rebuild.
        """
        key = tuple(key)
        pos = self._pos.get(key)
        if pos is not None:
            if value is not NO_VALUE:
                self._entries[pos][1] = value
                self.has_values = True
            return False
        entry: Entry = [key, value]
        self._pos[key] = len(self._entries)
        self._entries.append(entry)
        self._keys.append(key)
        if self._distinct:
            self._distinct.clear()
        if value is not NO_VALUE:
            self.has_values = True
        for mask, table in self._maps.items():
            if not mask or mask[-1] < len(key):
                proj = tuple(key[i] for i in mask)
                table.setdefault(proj, []).append(entry)
        return True

    def extend(self, keys: Union[Mapping[Key, Any], Iterable[Key]]) -> int:
        """Insert many keys (a ``Mapping`` carries values); count new ones."""
        if not self._entries and not self._maps:
            # Bulk load into an empty index: supports are dicts/sets of
            # already-frozen tuples, so the per-key membership and
            # mask-maintenance work of :meth:`add` can be skipped; any
            # non-tuple key or duplicate falls back to the add loop —
            # over the *materialized* entries, since ``keys`` may be a
            # one-shot iterable that the bulk attempt just consumed.
            if isinstance(keys, _Mapping):
                entries = [[key, value] for key, value in keys.items()]
            else:
                entries = [[key, NO_VALUE] for key in keys]
            if all(type(entry[0]) is tuple for entry in entries):
                self._keys = [entry[0] for entry in entries]
                self._pos = {key: i for i, key in enumerate(self._keys)}
                if len(self._pos) == len(self._keys):
                    self._entries = entries
                    self.has_values = isinstance(keys, _Mapping) and bool(entries)
                    return len(self._keys)
                self._keys, self._pos = [], {}
            return sum(
                1 for key, value in entries if self.add(key, value)
            )
        if isinstance(keys, _Mapping):
            return sum(1 for key, value in keys.items() if self.add(key, value))
        return sum(1 for key in keys if self.add(key))

    # ------------------------------------------------------------------
    def _table(self, mask: Mask) -> Dict[Tuple[Hashable, ...], List[Entry]]:
        table = self._maps.get(mask)
        if table is None:
            table = {}
            for entry in self._entries:
                key = entry[0]
                if mask and mask[-1] >= len(key):
                    continue  # arity-mismatched key; executor skips it
                proj = tuple(key[i] for i in mask)
                table.setdefault(proj, []).append(entry)
            self._maps[mask] = table
            if self.stats is not None:
                self.stats.index_builds += 1
        return table

    def mask_table(self, mask: Mask) -> Dict[Tuple[Hashable, ...], List[Entry]]:
        """The mask's hash table, built on demand.

        Compiled kernels bind its ``dict.get`` directly in their
        per-invocation prologue — the probe then skips the observation
        bookkeeping of :meth:`probe_entries`, which only exists to feed
        adaptive re-planning the frozen kernels never do.  The returned
        dict object is maintained in place by :meth:`add`, so holding
        it for the duration of one enumeration is safe.
        """
        return self._table(mask)

    def probe_entries(
        self, mask: Mask, values: Tuple[Hashable, ...]
    ) -> Sequence[Entry]:
        """Return the entries matching ``values`` on the mask's positions.

        The first probe of a mask builds its hash map (O(n)); every
        further probe is O(1) plus the bucket size.  Each probe feeds
        the mask's observed hit rate, which :meth:`estimate` prefers
        over static guesses once the sample is large enough.
        """
        if not mask:
            return self._entries
        bucket = self._table(mask).get(values, _EMPTY)
        observed = self._observed.get(mask)
        if observed is None:
            observed = self._observed[mask] = [0, 0]
        observed[0] += 1
        observed[1] += len(bucket)
        if self.stats is not None:
            if bucket:
                self.stats.probe_hits += 1
            else:
                self.stats.probe_misses += 1
        return bucket

    def probe(self, mask: Mask, values: Tuple[Hashable, ...]) -> Sequence[Key]:
        """Key-only view of :meth:`probe_entries` (compatibility shim)."""
        if not mask:
            return self._keys
        return [entry[0] for entry in self.probe_entries(mask, values)]

    def estimate(self, mask: Mask) -> float:
        """Estimated candidates per probe on ``mask`` (for plan ordering).

        Preference order: observed candidates-per-probe (once the mask
        has been probed enough), then the true distinct count of a
        built mask table, then — for indexes up to
        ``_EXACT_COUNT_LIMIT`` keys — the exact distinct projection
        count (one cached O(n) pass, no hash map built), then distinct
        counts of built *sub*-masks scaled by the default fanout, then
        the static ``n / fanout^bound`` guess.  Never builds a map.
        """
        n = len(self._entries)
        if not mask or n == 0:
            return float(n)
        observed = self._observed.get(mask)
        if observed is not None and observed[0] >= _MIN_OBSERVATIONS:
            return observed[1] / observed[0]
        table = self._maps.get(mask)
        if table is not None:
            return n / max(1, len(table))
        if n <= _EXACT_COUNT_LIMIT:
            distinct = self._distinct.get(mask)
            if distinct is None:
                top = mask[-1]
                distinct = max(
                    1,
                    len(
                        {
                            tuple(key[i] for i in mask)
                            for key in self._keys
                            if top < len(key)
                        }
                    ),
                )
                self._distinct[mask] = distinct
            return n / distinct
        mask_set = set(mask)
        divisor = float(_DEFAULT_FANOUT ** len(mask))
        for built, built_table in self._maps.items():
            if built and set(built) <= mask_set:
                scaled = len(built_table) * float(
                    _DEFAULT_FANOUT ** (len(mask) - len(built))
                )
                if scaled > divisor:
                    divisor = scaled
        return n / divisor

    def inherit_observations(self, previous: "KeyIndex") -> None:
        """Carry (decayed) probe observations over from a predecessor.

        Rebuilt indexes (per-iteration IDB snapshots) start with half
        the predecessor's sample so selectivity ordering stays adaptive
        across fixpoint iterations without trusting stale data forever.
        """
        for mask, (probes, returned) in previous._observed.items():
            mine = self._observed.setdefault(mask, [0, 0])
            mine[0] += probes // 2
            mine[1] += returned // 2

    def distinct_count(self, mask: Mask) -> Optional[int]:
        """True distinct count of a built mask table (None if unbuilt)."""
        table = self._maps.get(mask)
        return None if table is None else len(table)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        masks = sorted(self._maps)
        return (
            f"KeyIndex(n={len(self._entries)}, masks={masks}, "
            f"values={self.has_values})"
        )


@dataclass
class _Entry:
    index: KeyIndex
    version: Hashable


class IndexManager:
    """A versioned cache of named :class:`KeyIndex` objects.

    Evaluators register one index per key source (EDB relation, live
    IDB instance, …) under a hashable name.  ``get`` rebuilds only when
    the caller-supplied version changed — the rebuilt index inherits
    the predecessor's decayed probe observations, so estimates keep
    adapting across fixpoint iterations; ``extend`` maintains an entry
    incrementally (the semi-naïve delta hook) without touching the
    version.
    """

    def __init__(self, stats: Optional[JoinStats] = None):
        self._entries: Dict[Hashable, _Entry] = {}
        self.stats = stats

    def get(
        self,
        name: Hashable,
        keys: Union[
            Callable[[], Union[Mapping[Key, Any], Iterable[Key]]],
            Mapping[Key, Any],
            Iterable[Key],
        ],
        version: Hashable = None,
    ) -> KeyIndex:
        """Return the cached index for ``name``, (re)building on version
        change.  ``keys`` may be a mapping (values ride along), a plain
        iterable of keys, or a zero-arg callable returning either (late
        binding for stores that change between iterations)."""
        entry = self._entries.get(name)
        if entry is not None and entry.version == version:
            return entry.index
        material = keys() if callable(keys) else keys
        index = KeyIndex(material, stats=self.stats)
        if entry is not None:
            index.inherit_observations(entry.index)
        self._entries[name] = _Entry(index=index, version=version)
        return index

    def peek(self, name: Hashable) -> Optional[KeyIndex]:
        """Return the cached index without building (None when absent)."""
        entry = self._entries.get(name)
        return entry.index if entry is not None else None

    def extend(
        self, name: Hashable, keys: Union[Mapping[Key, Any], Iterable[Key]]
    ) -> int:
        """Incrementally add keys to a cached index (delta maintenance).

        Returns the number of new keys; raises ``KeyError`` when the
        index was never built (nothing to maintain).  A mapping updates
        carried values for existing keys too.
        """
        return self._entries[name].index.extend(keys)

    def invalidate(self, name: Hashable = None) -> None:
        """Drop one cached index (or all of them when ``name`` is None)."""
        if name is None:
            self._entries.clear()
        else:
            self._entries.pop(name, None)

    def __len__(self) -> int:
        return len(self._entries)
