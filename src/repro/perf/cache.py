"""Two-tier cross-request schedule cache.

One cache behind the one compile driver, the compile service
(:mod:`repro.service`), which ``repro serve`` and ``repro batch``
(:mod:`repro.perf.batch`) both front: schedules are expensive
whole-procedure work (the paper's Figure 10 compile times), so once a
program has been compiled its schedule should be amortized across every
later request that hashes to the same :func:`repro.perf.batch.job_key`.
Every value the driver puts is a
:func:`~repro.service.payload.compile_payload` record, and it looks
values up through :func:`~repro.service.payload.is_payload`, so a
directory one front end warmed serves the other.

Two tiers:

* an **in-memory LRU** with a byte budget — values are charged their
  canonical-JSON encoding size, and least-recently-used entries are
  evicted once the budget is exceeded (an entry larger than the whole
  budget is never admitted to memory at all);
* an optional **content-addressed disk tier** under ``cache_dir`` —
  every durable put is written through as
  ``<cache_dir>/<key[:2]>/<key>.json`` (atomic tmp + rename), so a batch
  run warms the server cache and vice versa, and evicted memory entries
  remain one read away.

Disk entries carry their own key and a sha256 over the canonical value
encoding.  A corrupted or truncated entry — unparsable JSON, a key
mismatch, a checksum mismatch — is **treated as a miss**: the file is
unlinked, the ``corrupt`` counter bumps, and the next durable put
rewrites it.  So is a well-formed value the reader's ``valid`` check
rejects — a record an older version wrote, or a hand edit whose
checksum was recomputed.  A lookup therefore never returns a value for
the wrong key and never raises on bad disk state.

All operations are thread-safe (one reentrant lock); the cache is
shared between the asyncio event loop and executor callbacks.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Optional

#: Canonical JSON encoding: the byte-identity currency of the cache
#: (checksums, byte budgets, and the service's correctness checks all
#: hash exactly these bytes).
CANONICAL = {"sort_keys": True, "separators": (",", ":")}

DEFAULT_MEMORY_BUDGET = 64 * 1024 * 1024


def canonical_bytes(value: Any) -> bytes:
    """The canonical JSON encoding of a JSON-serializable value."""
    return json.dumps(value, **CANONICAL).encode()


@dataclass
class CacheStats:
    """Counters for both tiers; ``as_dict`` feeds the batch and service reports."""

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    puts: int = 0
    evictions: int = 0
    corrupt: int = 0

    @property
    def lookups(self) -> int:
        return self.memory_hits + self.disk_hits + self.misses

    @property
    def hit_rate(self) -> float:
        hits = self.memory_hits + self.disk_hits
        return hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict[str, Any]:
        return {
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "puts": self.puts,
            "evictions": self.evictions,
            "corrupt": self.corrupt,
            "hit_rate": round(self.hit_rate, 4),
        }


@dataclass
class _Entry:
    value: Any
    size: int = 0
    durable: bool = True


class ScheduleCache:
    """Content-hash keyed, byte-budgeted LRU with a disk write-through.

    ``memory_budget_bytes=None`` disables eviction (the batch driver's
    historical behavior); ``cache_dir=None`` disables the disk tier.
    Values must be JSON-serializable; they are returned as-is from the
    memory tier and as parsed JSON from the disk tier, so callers should
    treat cached values as immutable.
    """

    def __init__(
        self,
        memory_budget_bytes: Optional[int] = DEFAULT_MEMORY_BUDGET,
        cache_dir: "str | os.PathLike[str] | None" = None,
    ) -> None:
        if memory_budget_bytes is not None and memory_budget_bytes < 0:
            raise ValueError("memory_budget_bytes must be >= 0 or None")
        self.memory_budget_bytes = memory_budget_bytes
        self.cache_dir = os.fspath(cache_dir) if cache_dir is not None else None
        self.stats = CacheStats()
        self._lock = threading.RLock()
        self._memory: "OrderedDict[str, _Entry]" = OrderedDict()
        self._memory_bytes = 0

    # -- introspection --------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._memory)

    @property
    def memory_bytes(self) -> int:
        with self._lock:
            return self._memory_bytes

    def snapshot(self) -> dict[str, Any]:
        """The current memory tier as a plain dict (checkpointing)."""
        with self._lock:
            return {key: e.value for key, e in self._memory.items()}

    # -- lookups --------------------------------------------------------------

    def lookup(
        self, key: str, valid: Optional[Callable[[Any], bool]] = None
    ) -> tuple[Any, Optional[str]]:
        """``(value, tier)`` where tier is ``"memory"``, ``"disk"``, or
        ``None`` on a miss.  Disk hits are promoted into memory.

        A disk value ``valid`` rejects (a record the reader does not
        know) is a miss like a corrupt file: unlinked and counted under
        ``corrupt``, so the caller's next put rewrites it.  Memory hits
        are not re-checked: only the caller's own puts reach that tier."""
        with self._lock:
            entry = self._memory.get(key)
            if entry is not None:
                self._memory.move_to_end(key)
                self.stats.memory_hits += 1
                return entry.value, "memory"
            value = self._disk_read(key, valid)
            if value is not None:
                self.stats.disk_hits += 1
                self._admit(key, value, durable=True)
                return value, "disk"
            self.stats.misses += 1
            return None, None

    def get(self, key: str) -> Any:
        """The cached value for ``key``, or None."""
        return self.lookup(key)[0]

    def put(self, key: str, value: Any, durable: bool = True) -> None:
        """Insert ``value`` under ``key``.  ``durable=False`` keeps the
        entry out of the disk tier (transient failures, quarantine
        verdicts — anything another run should re-derive)."""
        with self._lock:
            self.stats.puts += 1
            self._admit(key, value, durable=durable)
            if durable:
                self._disk_write(key, value)

    def invalidate(self, key: str) -> None:
        """Drop ``key`` from both tiers (test/maintenance hook)."""
        with self._lock:
            entry = self._memory.pop(key, None)
            if entry is not None:
                self._memory_bytes -= entry.size
            path = self._path(key)
            if path is not None:
                try:
                    os.unlink(path)
                except OSError:
                    pass

    # -- memory tier ----------------------------------------------------------

    def _admit(self, key: str, value: Any, durable: bool) -> None:
        old = self._memory.pop(key, None)
        if old is not None:
            self._memory_bytes -= old.size
        try:
            size = len(canonical_bytes(value))
        except (TypeError, ValueError):
            size = 0  # non-JSON value: admit uncharged, never disk-backed
        budget = self.memory_budget_bytes
        if budget is not None and size > budget:
            return  # larger than the whole tier: disk-only
        self._memory[key] = _Entry(value, size=size, durable=durable)
        self._memory_bytes += size
        if budget is None:
            return
        while self._memory_bytes > budget and len(self._memory) > 1:
            _, evicted = self._memory.popitem(last=False)
            self._memory_bytes -= evicted.size
            self.stats.evictions += 1

    # -- disk tier ------------------------------------------------------------

    def _path(self, key: str) -> Optional[str]:
        if self.cache_dir is None or not key:
            return None
        return os.path.join(self.cache_dir, key[:2], f"{key}.json")

    def _disk_read(
        self, key: str, valid: Optional[Callable[[Any], bool]] = None
    ) -> Any:
        path = self._path(key)
        if path is None:
            return None
        try:
            with open(path, "rb") as fh:
                envelope = json.load(fh)
        except FileNotFoundError:
            return None
        except (OSError, ValueError):
            return self._quarantine_file(path)
        if not isinstance(envelope, dict):
            return self._quarantine_file(path)
        value = envelope.get("value")
        try:
            digest = hashlib.sha256(canonical_bytes(value)).hexdigest()
        except (TypeError, ValueError):
            return self._quarantine_file(path)
        if envelope.get("key") != key or envelope.get("sha256") != digest:
            return self._quarantine_file(path)
        if valid is not None and not valid(value):
            return self._quarantine_file(path)
        return value

    def _quarantine_file(self, path: str) -> None:
        """A corrupt/truncated entry is a miss; unlink it so the next
        durable put rewrites a clean one."""
        self.stats.corrupt += 1
        try:
            os.unlink(path)
        except OSError:
            pass
        return None

    def _disk_write(self, key: str, value: Any) -> None:
        path = self._path(key)
        if path is None:
            return
        try:
            body = canonical_bytes(value)
        except (TypeError, ValueError):
            return  # non-JSON value: memory-only
        envelope = {
            "key": key,
            "sha256": hashlib.sha256(body).hexdigest(),
            "value": value,
        }
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            tmp = f"{path}.tmp.{os.getpid()}.{threading.get_ident()}"
            with open(tmp, "w") as fh:
                json.dump(envelope, fh, **CANONICAL)
            os.replace(tmp, path)
        except OSError:
            pass  # a full/read-only disk degrades to memory-only
