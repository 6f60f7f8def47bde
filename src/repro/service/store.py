"""Disk-backed, content-addressed store of solved panel layouts.

The in-process :class:`~repro.engine.cache.SolutionCache` evaporates when the
CLI exits, so every new process re-anneals panels the previous run already
solved.  :class:`ResultStore` persists layouts on disk, keyed by the same
content signature (:func:`repro.engine.signature.panel_signature`), and plugs
in as the cache's second tier: a memory miss falls through to the store, a
store hit is promoted back into memory, and fills are written through.  The
same store holds the flow runner's stage artifacts; a stage whose artifact
is persisted runs with the cache in memory-only mode, so its panels are
stored once, inside that artifact, and never as per-panel blobs.

On-disk format (see DESIGN.md §"Service layer")::

    <root>/
        store.json            # {"format_version", "signature_version"}
        blobs/<sig[:2]>/<sig>.json

Each blob holds one layout as JSON (``null`` marks a shield track) together
with the signature scheme version it was hashed under.  Durability rules:

* **Atomic writes** — blobs and metadata are written to a temporary file in
  the same directory and ``os.replace``-d into place, so a crash mid-write
  can never leave a half-written blob where a reader finds it.
* **Corruption safety** — a blob that fails to parse or fails its integrity
  checks is dropped (and counted) rather than served; the solve simply
  happens again.
* **Versioning** — the store records both its own ``FORMAT_VERSION`` and the
  engine's :data:`~repro.catalog.SIGNATURE_VERSION`.  A store
  written under either older version is cleared on open: signatures hashed
  under another scheme can never be looked up again, so stale blobs are dead
  weight, and a cache may always be rebuilt from nothing.
* **LRU eviction** — blob mtimes are refreshed on every hit; when the store
  exceeds ``max_bytes`` the oldest blobs are evicted until it fits.  A
  capped store keeps a per-prefix-bucket byte account (seeded once at open,
  bumped per write), so its gc stats only the buckets eviction may actually
  touch — largest first — instead of re-walking the whole blob tree.

Multiple processes may share one store: writes are atomic renames, reads
tolerate concurrent eviction, content-addressing makes double-writes of the
same signature idempotent, and eviction re-checks each blob's mtime right
before the unlink so a blob a concurrent writer just (re)wrote or served a
hit from is never the one evicted (the cluster's N workers all write and
gc one store).
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple, Union

from repro.catalog import SIGNATURE_VERSION, STAGE_SIGNATURE_VERSION

#: Version of the on-disk layout described above; bump on incompatible change.
FORMAT_VERSION = 1

#: Name of the store metadata file at the root.
_META_NAME = "store.json"

#: Directory (under the store root) of per-session cumulative stats files.
_STATS_DIR_NAME = "stats"

Layout = Tuple[Optional[int], ...]


@dataclass(frozen=True)
class StoreStats:
    """Traffic and maintenance counters of a :class:`ResultStore`."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    evictions: int = 0
    corrupt_dropped: int = 0

    def __sub__(self, other: "StoreStats") -> "StoreStats":
        return StoreStats(
            hits=self.hits - other.hits,
            misses=self.misses - other.misses,
            writes=self.writes - other.writes,
            evictions=self.evictions - other.evictions,
            corrupt_dropped=self.corrupt_dropped - other.corrupt_dropped,
        )

    def __add__(self, other: "StoreStats") -> "StoreStats":
        return StoreStats(
            hits=self.hits + other.hits,
            misses=self.misses + other.misses,
            writes=self.writes + other.writes,
            evictions=self.evictions + other.evictions,
            corrupt_dropped=self.corrupt_dropped + other.corrupt_dropped,
        )

    def to_dict(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "evictions": self.evictions,
            "corrupt_dropped": self.corrupt_dropped,
        }

    def __str__(self) -> str:
        parts = f"{self.hits} hits, {self.misses} misses, {self.writes} writes"
        if self.evictions or self.corrupt_dropped:
            parts += f", {self.evictions} evicted, {self.corrupt_dropped} corrupt"
        return parts


_TMP_COUNTER = itertools.count()


def atomic_write_text(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` via a same-directory temp file + rename.

    The temp name embeds the pid *and* a process-wide counter, so
    concurrent writers of one path — other processes, or two threads of
    this one (a worker's execution and pulse threads both refresh its
    heartbeat) — never collide on the temp file either.
    """
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}.{next(_TMP_COUNTER)}")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def bucket_disk_usage(bucket_dir: Path) -> Tuple[int, int]:
    """(entry count, total bytes) of one prefix bucket (``blobs/<sig[:2]>/``)."""
    entries = 0
    total = 0
    for path in bucket_dir.glob("*.json") if bucket_dir.exists() else ():
        try:
            total += path.stat().st_size
        except OSError:
            continue
        entries += 1
    return entries, total


def blob_disk_usage(blobs_dir: Path) -> Tuple[int, int]:
    """(entry count, total bytes) under a blobs directory, one unsorted walk.

    Module-level so read-only callers (``repro status``) can measure a store
    without opening a :class:`ResultStore` — opening rewrites metadata and
    clears blobs on a version mismatch.
    """
    entries = 0
    total = 0
    for path in blobs_dir.glob("*/*.json") if blobs_dir.exists() else ():
        try:
            total += path.stat().st_size
        except OSError:
            continue
        entries += 1
    return entries, total


def read_cumulative_store_stats(store_root: Union[str, Path]) -> StoreStats:
    """Sum the per-session stats files under a store root — pure reads.

    Module-level so ``repro metrics`` can report a store's lifetime traffic
    without constructing a :class:`ResultStore` (opening one rewrites
    metadata and clears blobs on a version mismatch, which a read-only
    command must never do to a live worker's cache).  Unreadable or
    malformed session files are skipped, never raised.
    """
    total = StoreStats()
    stats_dir = Path(store_root) / _STATS_DIR_NAME
    for path in sorted(stats_dir.glob("*.json")) if stats_dir.exists() else []:
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            continue
        counters = payload.get("stats") if isinstance(payload, dict) else None
        if not isinstance(counters, dict):
            continue
        try:
            total = total + StoreStats(
                hits=int(counters.get("hits", 0)),
                misses=int(counters.get("misses", 0)),
                writes=int(counters.get("writes", 0)),
                evictions=int(counters.get("evictions", 0)),
                corrupt_dropped=int(counters.get("corrupt_dropped", 0)),
            )
        except (TypeError, ValueError):
            continue
    return total


def scan_bucket_blobs(bucket_dir: Path) -> Tuple[List[Tuple[int, Path, int]], int]:
    """Snapshot one prefix bucket — the same shape as :func:`scan_blobs`.

    The unit a capped store's gc works in: it stats the buckets its
    accounting says are worth evicting from and leaves the rest untouched.
    """
    entries: List[Tuple[int, Path, int]] = []
    total = 0
    for path in sorted(bucket_dir.glob("*.json")) if bucket_dir.exists() else []:
        try:
            stat = path.stat()
        except OSError:
            continue
        entries.append((stat.st_mtime_ns, path, stat.st_size))
        total += stat.st_size
    return entries, total


def scan_blobs(blobs_dir: Path) -> Tuple[List[Tuple[int, Path, int]], int]:
    """Snapshot ``(mtime_ns, path, size)`` of every blob plus the byte total.

    The mtime is captured at scan time so :func:`evict_scanned_blobs` can
    detect blobs touched by a concurrent process after the scan.
    """
    entries: List[Tuple[int, Path, int]] = []
    total = 0
    for bucket in sorted(blobs_dir.iterdir()) if blobs_dir.exists() else []:
        if not bucket.is_dir():
            continue
        bucket_entries, bucket_total = scan_bucket_blobs(bucket)
        entries.extend(bucket_entries)
        total += bucket_total
    return entries, total


def evict_scanned_blobs(
    entries: List[Tuple[int, Path, int]], total: int, max_bytes: int
) -> Tuple[int, int]:
    """Evict oldest-first from a :func:`scan_blobs` snapshot until it fits.

    **Multi-writer guard**: each candidate is re-stat'ed immediately before
    its unlink, and skipped when its mtime no longer matches the snapshot —
    a concurrent process served a hit from it (LRU refresh) or rewrote it
    since the scan, so it is recently used and must survive.  A blob that
    vanished meanwhile (a concurrent gc evicted it) just has its size
    discounted.  Returns ``(evicted, remaining_total)``.
    """
    entries = sorted(entries, key=lambda entry: (entry[0], entry[1].name))
    evicted = 0
    for mtime_ns, path, size in entries:
        if total <= max_bytes:
            break
        try:
            stat = path.stat()
        except OSError:
            total -= size  # already gone: it no longer occupies the store
            continue
        if stat.st_mtime_ns != mtime_ns:
            continue  # touched since the scan by a concurrent writer/reader
        try:
            path.unlink()
        except OSError:
            continue
        total -= size
        evicted += 1
    return evicted, total


def evict_lru_blobs(blobs_dir: Path, max_bytes: int) -> Tuple[int, int]:
    """Delete oldest-mtime blobs under ``blobs_dir`` until it fits ``max_bytes``.

    Pure file-level maintenance — no store metadata is read or written, so
    callers (``repro gc``) can shrink a store owned by *any* format or
    signature version without risking the version-mismatch clearing that
    opening a :class:`ResultStore` performs.  Safe against concurrent
    writers and other gc passes (see :func:`evict_scanned_blobs`).
    Returns ``(evicted, total)``: blobs removed and the remaining byte
    total.
    """
    entries, total = scan_blobs(blobs_dir)
    return evict_scanned_blobs(entries, total, max_bytes)


class ResultStore:
    """Persistent second cache tier for panel layouts.

    Implements the duck-typed store protocol :class:`SolutionCache` expects —
    :meth:`get_layout` / :meth:`put_layout` — plus the maintenance surface
    (:meth:`gc`, :meth:`total_bytes`, :meth:`signatures`) the service workers
    and the ``repro gc`` verb use.

    Parameters
    ----------
    root:
        Directory of the store; created (with metadata) if absent.
    max_bytes:
        Soft size cap.  Exceeding it on a write triggers LRU eviction down
        to the cap.  ``None`` never evicts on write (``gc`` may still be
        called with an explicit cap).
    """

    def __init__(self, root: Union[str, Path], max_bytes: Optional[int] = None) -> None:
        if max_bytes is not None and max_bytes < 1:
            raise ValueError(f"max_bytes must be positive, got {max_bytes}")
        self.root = Path(root)
        self.max_bytes = max_bytes
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._writes = 0
        self._evictions = 0
        self._corrupt = 0
        # One stats session per store instance: the uuid keeps two instances
        # of one pid (tests, worker restarts in-process) from sharing a file.
        self._session = f"{os.getpid()}-{uuid.uuid4().hex[:8]}"
        # Prefix buckets this instance has already created (see _write_blob);
        # two threads racing on one bucket at worst repeat an idempotent mkdir.
        self._made_buckets: Set[str] = set()
        self._open()
        # Running size estimate so capped writes stay O(1): scanned once at
        # open, bumped per write, resynced to exact by every gc() pass.  On
        # capped stores the estimate is kept *per prefix bucket*, so gc can
        # stat only the buckets worth evicting from.  Drift (corrupt drops,
        # concurrent evictors, same-signature rewrites) always leaves the
        # account an over-estimate, which at worst triggers gc early — the
        # safe direction — and each gc/disk_usage pass resyncs it to exact.
        self._bucket_bytes: Optional[Dict[str, int]] = {} if max_bytes is not None else None
        self._approx_bytes = self.total_bytes() if max_bytes is not None else 0

    # -- lifecycle ----------------------------------------------------------------

    def _open(self) -> None:
        """Create or validate the on-disk store, clearing incompatible ones."""
        blobs = self.root / "blobs"
        meta_path = self.root / _META_NAME
        blobs.mkdir(parents=True, exist_ok=True)
        meta = None
        if meta_path.exists():
            try:
                meta = json.loads(meta_path.read_text(encoding="utf-8"))
            except (OSError, json.JSONDecodeError):
                meta = None
        current = {
            "format_version": FORMAT_VERSION,
            "signature_version": SIGNATURE_VERSION,
        }
        if meta != current:
            if meta is not None:
                # Another format or signature scheme: every blob is dead weight.
                self._evictions += self._clear_blobs()
            atomic_write_text(meta_path, json.dumps(current, indent=2) + "\n")

    def _clear_blobs(self) -> int:
        removed = 0
        for path in self._blob_paths():
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    # -- paths --------------------------------------------------------------------

    def _blob_path(self, signature: str) -> Path:
        return self.root / "blobs" / signature[:2] / f"{signature}.json"

    def _blob_paths(self) -> List[Path]:
        return sorted((self.root / "blobs").glob("*/*.json"))

    # -- store protocol (used by SolutionCache) -----------------------------------

    def get_layout(self, signature: str) -> Optional[Layout]:
        """The stored layout for ``signature``, or ``None`` on a miss.

        Hits refresh the blob's mtime (the LRU clock).  Unreadable or
        inconsistent blobs are dropped and counted as corruption, never
        served.
        """
        path = self._blob_path(signature)
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            with self._lock:
                self._misses += 1
            return None
        except (OSError, json.JSONDecodeError):
            self._drop_corrupt(path)
            return None
        layout = self._validate_payload(signature, payload)
        if layout is None:
            self._drop_corrupt(path)
            return None
        try:
            os.utime(path)
        except OSError:
            pass  # concurrently evicted; the layout we read is still good
        with self._lock:
            self._hits += 1
        return layout

    def _validate_payload(self, signature: str, payload: object) -> Optional[Layout]:
        if not isinstance(payload, dict):
            return None
        if payload.get("signature") != signature:
            return None
        if payload.get("signature_version") != SIGNATURE_VERSION:
            return None
        layout = payload.get("layout")
        if not isinstance(layout, list):
            return None
        if not all(
            entry is None or (isinstance(entry, int) and not isinstance(entry, bool))
            for entry in layout
        ):
            return None
        return tuple(layout)

    def _drop_corrupt(self, path: Path) -> None:
        try:
            path.unlink()
        except OSError:
            pass
        with self._lock:
            self._misses += 1
            self._corrupt += 1

    def drop_layout(self, signature: str) -> None:
        """Remove a blob a caller found unusable despite passing our checks.

        The cache calls this when a stored layout fails to re-bind to its
        problem (content poisoned under a valid shape); counted as corrupt.
        """
        try:
            self._blob_path(signature).unlink()
        except OSError:
            pass
        with self._lock:
            self._corrupt += 1

    # -- artifact protocol (used by repro.flow.FlowRunner) -------------------------

    def get_artifact(self, signature: str) -> Optional[dict]:
        """The stored stage-artifact payload for ``signature``, or ``None``.

        Stage artifacts share the blob tree (and therefore the LRU clock,
        eviction and gc) with panel layouts; their signatures live in a
        different token namespace (:func:`repro.engine.signature
        .stage_signature`), so the two blob kinds can never collide.  A
        payload written under another stage-signature scheme version is a
        miss, not corruption — the signature itself could never be recomputed
        under the current scheme, so the blob is just dead weight awaiting
        eviction.
        """
        path = self._blob_path(signature)
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            with self._lock:
                self._misses += 1
            return None
        except (OSError, json.JSONDecodeError):
            self._drop_corrupt(path)
            return None
        if (
            not isinstance(payload, dict)
            or payload.get("signature") != signature
            or not isinstance(payload.get("artifact"), dict)
        ):
            self._drop_corrupt(path)
            return None
        if payload.get("stage_signature_version") != STAGE_SIGNATURE_VERSION:
            # Another scheme version is a plain miss, not corruption: the
            # blob is intact, just dead weight awaiting eviction.
            with self._lock:
                self._misses += 1
            return None
        try:
            os.utime(path)
        except OSError:
            pass  # concurrently evicted; the payload we read is still good
        with self._lock:
            self._hits += 1
        return payload["artifact"]

    def put_artifact(self, signature: str, artifact: dict) -> None:
        """Persist one stage-artifact payload (idempotent; atomic on disk)."""
        payload = {
            "signature": signature,
            "stage_signature_version": STAGE_SIGNATURE_VERSION,
            "artifact": artifact,
        }
        self._write_blob(signature, json.dumps(payload))

    def _write_blob(self, signature: str, text: str) -> None:
        """Atomic write + size accounting + over-cap gc, for both blob kinds.

        With a size cap, eviction is only attempted once the running size
        estimate exceeds it — a full directory scan per write would make a
        capped store quadratic.  A bucket directory is created on this
        store's first write to it (nothing here removes one); should it have
        vanished since, the write recreates it and retries once.
        """
        path = self._blob_path(signature)
        bucket = signature[:2]
        if bucket not in self._made_buckets:
            path.parent.mkdir(parents=True, exist_ok=True)
            self._made_buckets.add(bucket)
        try:
            atomic_write_text(path, text)
        except FileNotFoundError:
            path.parent.mkdir(parents=True, exist_ok=True)
            atomic_write_text(path, text)
        with self._lock:
            self._writes += 1
            self._approx_bytes += len(text)
            if self._bucket_bytes is not None:
                self._bucket_bytes[bucket] = self._bucket_bytes.get(bucket, 0) + len(text)
            over_cap = self.max_bytes is not None and self._approx_bytes > self.max_bytes
        if over_cap:
            self.gc(self.max_bytes)

    def put_layout(self, signature: str, layout: Layout) -> None:
        """Persist one layout (idempotent; atomic on disk; see ``_write_blob``)."""
        payload = {
            "signature": signature,
            "signature_version": SIGNATURE_VERSION,
            "layout": list(layout),
        }
        self._write_blob(signature, json.dumps(payload))

    # -- maintenance --------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._blob_paths())

    def __contains__(self, signature: str) -> bool:
        return self._blob_path(signature).exists()

    def signatures(self) -> List[str]:
        """Signatures of every stored blob (sorted)."""
        return sorted(path.stem for path in self._blob_paths())

    def total_bytes(self) -> int:
        """Total size of all blobs on disk."""
        return self.disk_usage()[1]

    def disk_usage(self) -> Tuple[int, int]:
        """(entry count, total bytes) in one unsorted directory walk.

        ``repro compare --store`` reports both; computing them together halves the I/O of the separate ``len`` / ``total_bytes``
        calls on large stores.  On a capped store the walk doubles as a
        full resync of the per-bucket byte account, so estimate drift
        never outlives one heartbeat cycle.
        """
        blobs = self.root / "blobs"
        if self._bucket_bytes is None:
            return blob_disk_usage(blobs)
        entries = 0
        sizes: Dict[str, int] = {}
        for bucket in sorted(blobs.iterdir()) if blobs.exists() else []:
            if not bucket.is_dir():
                continue
            count, size = bucket_disk_usage(bucket)
            entries += count
            if size:
                sizes[bucket.name] = size
        total = sum(sizes.values())
        with self._lock:
            self._bucket_bytes = sizes
            self._approx_bytes = total
        return entries, total

    def gc(self, max_bytes: Optional[int] = None) -> int:
        """Evict least-recently-used blobs until the store fits ``max_bytes``.

        Returns the number of blobs evicted.  ``max_bytes=None`` uses the
        store's configured cap and is a no-op when the store is uncapped.

        A capped store gc's through its per-bucket byte account and stats
        only the buckets eviction may touch; an uncapped store (gc'd with
        an explicit cap) has no account to consult and falls back to the
        full-tree scan, which also keeps its eviction order exactly
        global-LRU as it always was.
        """
        cap = self.max_bytes if max_bytes is None else max_bytes
        if cap is None:
            return 0
        if self._bucket_bytes is not None:
            return self._gc_buckets(cap)
        evicted, total = evict_lru_blobs(self.root / "blobs", cap)
        with self._lock:
            self._approx_bytes = total  # resync the estimate to exact
            if evicted:
                self._evictions += evicted
        return evicted

    def _gc_buckets(self, cap: int) -> int:
        """Bucket-aware eviction: stat only the buckets eviction may touch.

        Buckets are visited largest-accounted-first; scanning stops as soon
        as the *unscanned* buckets' accounted bytes fit under the cap,
        because only scanned buckets can be evicted from — on a store of B
        buckets just over its cap, that is one or two bucket stats instead
        of the whole tree.  Eviction itself is LRU across the scanned set
        with the usual multi-writer guard, and every scanned bucket's
        account is resynced to exact afterwards, so drift never accumulates
        past one gc pass.  The trade against the flat path is that an old
        blob in a small (unscanned) bucket can outlive a newer blob in a
        scanned one — approximate LRU, bounded by one bucket's span.
        """
        with self._lock:
            accounted = dict(self._bucket_bytes or {})
        if sum(accounted.values()) <= cap:
            return 0
        blobs = self.root / "blobs"
        unscanned = sum(accounted.values())
        scanned_names: List[str] = []
        scanned_sizes: Dict[str, int] = {}
        entries: List[Tuple[int, Path, int]] = []
        scanned_total = 0
        for name in sorted(accounted, key=lambda bucket: (-accounted[bucket], bucket)):
            if unscanned + scanned_total <= cap or unscanned <= cap:
                break
            bucket_entries, bucket_total = scan_bucket_blobs(blobs / name)
            unscanned -= accounted[name]
            scanned_total += bucket_total
            entries.extend(bucket_entries)
            scanned_names.append(name)
            scanned_sizes[name] = bucket_total
        evicted = 0
        if unscanned + scanned_total > cap:
            evicted, _remaining = evict_scanned_blobs(
                entries, scanned_total, max(0, cap - unscanned)
            )
        if evicted:
            # Re-stat just the evicted-from buckets for exact per-bucket
            # remainders (evict_scanned_blobs reports only the aggregate).
            for name in scanned_names:
                _count, scanned_sizes[name] = bucket_disk_usage(blobs / name)
        with self._lock:
            if self._bucket_bytes is not None:
                for name in scanned_names:
                    if scanned_sizes[name]:
                        self._bucket_bytes[name] = scanned_sizes[name]
                    else:
                        self._bucket_bytes.pop(name, None)
                self._approx_bytes = sum(self._bucket_bytes.values())
            if evicted:
                self._evictions += evicted
        return evicted

    def clear(self) -> int:
        """Drop every blob (counters kept); returns the number removed."""
        removed = self._clear_blobs()
        with self._lock:
            self._evictions += removed
            self._approx_bytes = 0
            if self._bucket_bytes is not None:
                self._bucket_bytes = {}
        return removed

    def stats(self) -> StoreStats:
        """Current counters as an immutable snapshot."""
        with self._lock:
            return StoreStats(
                hits=self._hits,
                misses=self._misses,
                writes=self._writes,
                evictions=self._evictions,
                corrupt_dropped=self._corrupt,
            )

    def persist_stats(self) -> None:
        """Flush this session's counters to ``stats/<session>.json`` (atomic).

        Each store instance owns one session file and rewrites it in place,
        so the N workers sharing a store each persist their own
        traffic and :func:`read_cumulative_store_stats` can sum lifetime
        totals across processes — including ones that have since exited.
        The service layer calls this on forced heartbeats (job completions
        and shutdown), so an idle process never touches the directory.
        """
        stats_dir = self.root / _STATS_DIR_NAME
        stats_dir.mkdir(parents=True, exist_ok=True)
        payload = {
            "session": self._session,
            "updated_at": time.time(),
            "stats": self.stats().to_dict(),
        }
        atomic_write_text(
            stats_dir / f"{self._session}.json", json.dumps(payload, indent=2) + "\n"
        )

    def cumulative_stats(self) -> StoreStats:
        """Lifetime counters summed over every session of this store.

        Persists this session's counters first, so the total includes live
        not-yet-flushed traffic alongside what previous processes left in
        ``stats/``.
        """
        self.persist_stats()
        return read_cumulative_store_stats(self.root)

    def __repr__(self) -> str:
        return f"ResultStore(root={str(self.root)!r}, entries={len(self)}, stats={self.stats()})"
