"""The warm per-system state of the service: decoded systems and evaluators.

Almost every ``/analyse`` request names a system the server has seen
before, so the service keeps two things per system resident:

* :class:`SystemMemo` maps a system document's exact JSON text
  (``json.dumps`` of the decoded request field, used whole as the key,
  never a truncated digest) to its decoded
  :class:`~repro.model.system.System` and its
  :func:`~repro.io.serialization.system_fingerprint`.  A repeated
  document skips ``system_from_dict`` and the fingerprint's canonical
  re-encoding; a new one pays one extra ``json.dumps``.  The memo is
  LRU-bounded by the same ``pool_entries`` as the evaluators, and a
  document whose decode raises is never stored, so a malformed system
  gets its 400 on every request.
* :class:`EvaluatorPool` keeps one warm
  :class:`~repro.core.search.Evaluator` per ``(system fingerprint,
  options fingerprint)`` key: the per-system invariants and schedule
  caches of its :class:`~repro.analysis.context.AnalysisContext`, the
  backend's packed arrays, and the LRU result cache.  Repeated requests
  against the same system -- the heavy-traffic shape the service is
  built for -- ride warm caches instead of rebuilding them, and the
  evaluator's own result cache becomes a *shared cross-request result
  cache* for free.

With both warm, the analysis itself is most of a request's handler
time.

Concurrency model: an evaluator is **not** thread-safe, so each pool
entry carries a lock and :meth:`EvaluatorPool.lease` hands the caller
exclusive use for the duration of one request.  N threads hammering one
fingerprint therefore share a *single* warm evaluator, serialized at
the entry lock (the analysis is CPU-bound pure Python, so serializing
per system loses nothing to the GIL), while requests for different
fingerprints proceed concurrently on their own entries.  The memo's
decoded systems are shared read-only; its own lock guards only the
LRU bookkeeping, never a decode.

Eviction is LRU over distinct keys, bounded by ``max_entries``; evicted
evaluators are released through their context-manager :meth:`close` as
soon as the last lease on them drains.  All accounting -- hits, misses,
evictions, per-entry lease counts -- is surfaced by :meth:`stats` and
lands in service responses and ``/health``.
"""

from __future__ import annotations

import json
import threading
from collections import OrderedDict
from contextlib import contextmanager
from typing import Any, Dict, Iterator, Optional, Tuple

from repro.core.search import BusOptimisationOptions, Evaluator
from repro.io.serialization import system_fingerprint, system_from_dict
from repro.model.system import System

__all__ = ["EvaluatorPool", "PoolLease", "SystemMemo"]


class SystemMemo:
    """LRU memo of decoded system documents, keyed by their JSON text."""

    def __init__(self, max_entries: int = 8):
        if max_entries < 1:
            raise ValueError(f"max_entries={max_entries} must be >= 1")
        self.max_entries = max_entries
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, Tuple[System, str]]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def decode(self, doc: Any) -> Tuple[System, str]:
        """``(system, fingerprint)`` of a system document.

        A :class:`~repro.errors.SerializationError` from the decode
        propagates and leaves the memo unchanged.
        """
        key = json.dumps(doc)
        with self._lock:
            found = self._entries.get(key)
            if found is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                return found
        system = system_from_dict(doc)
        decoded = (system, system_fingerprint(system))
        with self._lock:
            self.misses += 1
            # A concurrent request may have stored the same document
            # meanwhile; keep that one, so every request shares it.
            decoded = self._entries.setdefault(key, decoded)
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
        return decoded

    def stats(self) -> dict:
        """Accounting snapshot for ``/health``."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "max_entries": self.max_entries,
                "hits": self.hits,
                "misses": self.misses,
            }


class _Entry:
    """One pooled evaluator plus its lock and lease accounting."""

    def __init__(self, evaluator: Evaluator):
        self.evaluator = evaluator
        self.lock = threading.Lock()
        self.leases = 0  # total leases ever granted on this entry
        self.active = 0  # leases currently held
        self.evicted = False  # close when the last active lease drains


class PoolLease:
    """What :meth:`EvaluatorPool.lease` yields: exclusive evaluator use.

    ``hit`` says whether the evaluator was already warm when this
    request arrived -- the pool-hit accounting the black-box tests
    assert on.
    """

    def __init__(self, key: Tuple[str, str], evaluator: Evaluator, hit: bool):
        self.key = key
        self.evaluator = evaluator
        self.hit = hit


class EvaluatorPool:
    """LRU pool of warm evaluators keyed by system fingerprint."""

    def __init__(self, max_entries: int = 8):
        if max_entries < 1:
            raise ValueError(f"max_entries={max_entries} must be >= 1")
        self.max_entries = max_entries
        self._lock = threading.Lock()
        self._entries: "Dict[Tuple[str, str], _Entry]" = {}
        self._order: list = []  # LRU order, least recent first
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @contextmanager
    def lease(
        self,
        fingerprint: str,
        options_key: str,
        system: System,
        options: Optional[BusOptimisationOptions] = None,
    ) -> Iterator[PoolLease]:
        """Exclusive use of the warm evaluator for one request.

        ``fingerprint`` identifies the system content
        (:func:`repro.io.serialization.system_fingerprint`) and
        ``options_key`` the analysis options; together they are the
        pool key.  The evaluator is created cold on the first lease of
        a key and kept warm for later ones; the entry lock is held for
        the whole ``with`` body.
        """
        key = (fingerprint, options_key)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self.hits += 1
                hit = True
                self._order.remove(key)
                self._order.append(key)
            else:
                self.misses += 1
                hit = False
                entry = _Entry(
                    Evaluator(system, options or BusOptimisationOptions())
                )
                self._entries[key] = entry
                self._order.append(key)
                self._evict_over_bound()
            entry.leases += 1
            entry.active += 1
        with entry.lock:
            try:
                yield PoolLease(key, entry.evaluator, hit)
            finally:
                with self._lock:
                    entry.active -= 1
                    if entry.evicted and entry.active == 0:
                        entry.evaluator.close()

    def _evict_over_bound(self) -> None:
        """Drop least-recently-used entries past the bound (lock held)."""
        while len(self._entries) > self.max_entries:
            key = self._order.pop(0)
            entry = self._entries.pop(key)
            self.evictions += 1
            entry.evicted = True
            if entry.active == 0:
                entry.evaluator.close()

    def stats(self) -> dict:
        """Accounting snapshot for responses and ``/health``."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "max_entries": self.max_entries,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "per_entry": {
                    "/".join(key): {
                        "leases": entry.leases,
                        "evaluations": entry.evaluator.evaluations,
                        "cache_hits": entry.evaluator.cache_hits,
                    }
                    for key, entry in self._entries.items()
                },
            }

    def close(self) -> None:
        """Release every pooled evaluator (idle entries immediately,
        leased ones when their lease drains)."""
        with self._lock:
            for entry in self._entries.values():
                entry.evicted = True
                if entry.active == 0:
                    entry.evaluator.close()
            self._entries.clear()
            self._order.clear()
