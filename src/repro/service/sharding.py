"""Sharded spool layout: N independent job shards under one service root.

The cluster layer (PR 5) serialises every claim, release and reclaim
through a single flat ``jobs/`` directory and a single ``leases/`` tree.
That is correct — the rename-based claim is atomic per directory entry —
but at high submit rates all workers contend on the same directory's
rename traffic and every spool scan walks one ever-growing listing.

This module splits the spool into N independent shards keyed by a stable
hash prefix of the job id::

    <root>/shards.json             # {"layout_version": 1, "shards": N}
    <root>/jobs/s00/<id>.json      # spool records of shard 0
    <root>/jobs/s00/<id>.cancel    # cancel markers live with their record
    <root>/leases/s00/<worker>/    # per-shard lease tree
    <root>/workers/<worker>.json   # heartbeats stay unsharded (per process)

Design rules:

* **Flat is shards=1.**  A one-shard layout *is* the legacy flat layout —
  ``jobs/<id>.json`` and ``leases/<worker>/<id>.json`` with no shard
  directories — so every pre-sharding root keeps working unchanged and
  the sharded code paths degrade to exactly the old behaviour.
* **Stable hash.**  Shard assignment uses ``blake2b(job_id)`` (never
  Python's ``hash()``, which is salted per process); the same job id maps
  to the same shard from any process, any Python version, any machine.
* **One marker, one version.**  ``shards.json`` records the shard count
  and :data:`SHARD_LAYOUT_VERSION`.  A missing marker means a flat
  (1-shard) root.  An unknown version is a hard error — never guess at
  someone else's layout.
* **Migration is a quiescent, rename-only rebucket.**  Changing the shard
  count moves every spool record, cancel marker and lease file to its new
  shard directory with ``os.rename`` — same filesystem, byte-for-byte,
  no copies — and refuses to run while any live worker heartbeat is
  present.  Claim/reclaim/cancel/gc semantics are unchanged
  *within* a shard; migration only changes which directory a job lives in.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, List, Optional, Tuple, Union

from repro.obs.events import event_log_for

#: Version of the on-disk shard layout; bump on incompatible change.
SHARD_LAYOUT_VERSION = 1

#: Name of the shard-layout marker file under a service root.
SHARD_MARKER_NAME = "shards.json"

#: Upper bound on the shard count (two-digit directory names, and past
#: ~64 directories the per-shard rename contention this layer removes is
#: no longer the bottleneck).
MAX_SHARDS = 64


def shard_index(job_id: str, shards: int) -> int:
    """Stable shard assignment of a job id for an ``shards``-way layout.

    Uses blake2b, not ``hash()``: the mapping must be identical across
    processes, interpreter restarts and Python versions, because any
    client may compute a spool path for a job another process submitted.
    """
    if shards <= 1:
        return 0
    digest = hashlib.blake2b(job_id.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") % shards


def shard_dir_name(index: int) -> str:
    """Directory name of one shard (``s00`` .. ``s63``)."""
    return f"s{index:02d}"


@dataclass(frozen=True)
class SpoolLayout:
    """Path arithmetic for a service root's (possibly sharded) spool.

    All spool-path decisions in the service layer go through this class;
    nothing else is allowed to assume where a job record or lease file
    lives.  A 1-shard layout reproduces the flat legacy paths exactly.
    """

    root: Path
    shards: int = 1

    def __post_init__(self) -> None:
        if not 1 <= self.shards <= MAX_SHARDS:
            raise ValueError(f"shards must be in 1..{MAX_SHARDS}, got {self.shards}")

    @property
    def sharded(self) -> bool:
        return self.shards > 1

    # -- assignment ---------------------------------------------------------------

    def shard_of(self, job_id: str) -> int:
        return shard_index(job_id, self.shards)

    def shard_name(self, index: int) -> str:
        return shard_dir_name(index)

    def shard_names(self) -> List[str]:
        return [shard_dir_name(index) for index in range(self.shards)]

    def shard_tag(self, job_id: str) -> Optional[str]:
        """Shard name for event tagging, or ``None`` on a flat root.

        Returning ``None`` (which :meth:`EventLog.emit` drops) keeps flat
        roots' event records byte-compatible with pre-sharding logs.
        """
        return shard_dir_name(self.shard_of(job_id)) if self.sharded else None

    # -- spool paths --------------------------------------------------------------

    def jobs_dir(self, shard: int = 0) -> Path:
        base = self.root / "jobs"
        return base / shard_dir_name(shard) if self.sharded else base

    def jobs_dirs(self) -> List[Path]:
        return [self.jobs_dir(index) for index in range(self.shards)]

    def job_path(self, job_id: str) -> Path:
        return self.jobs_dir(self.shard_of(job_id)) / f"{job_id}.json"

    def cancel_path(self, job_id: str) -> Path:
        return self.jobs_dir(self.shard_of(job_id)) / f"{job_id}.cancel"

    # -- lease paths --------------------------------------------------------------

    def leases_root(self) -> Path:
        return self.root / "leases"

    def leases_dir(self, shard: int = 0) -> Path:
        base = self.leases_root()
        return base / shard_dir_name(shard) if self.sharded else base

    def leases_dirs(self) -> List[Path]:
        return [self.leases_dir(index) for index in range(self.shards)]

    def worker_lease_dir(self, worker_id: str, shard: int = 0) -> Path:
        return self.leases_dir(shard) / worker_id

    def worker_lease_dirs(self, worker_id: str) -> List[Path]:
        return [self.worker_lease_dir(worker_id, index) for index in range(self.shards)]

    def lease_path(self, worker_id: str, job_id: str) -> Path:
        return self.worker_lease_dir(worker_id, self.shard_of(job_id)) / f"{job_id}.json"

    def lease_files(self, job_id: str) -> List[Path]:
        """Every worker's lease file for one job (at most one, normally)."""
        directory = self.leases_dir(self.shard_of(job_id))
        if not directory.exists():
            return []
        return sorted(directory.glob(f"*/{job_id}.json"))

    def iter_lease_files(
        self, include_temps: bool = False
    ) -> Iterator[Tuple[Path, str, int]]:
        """Yield ``(path, worker_id, shard)`` for every lease file.

        ``include_temps`` also yields ``.reclaim`` temp files stranded by
        a reclaimer that died mid-steal (migration must carry them along:
        until resolved, such a file is the only copy of its job record).
        """
        pattern = "*/*" if include_temps else "*/*.json"
        for shard in range(self.shards):
            directory = self.leases_dir(shard)
            if not directory.exists():
                continue
            for path in sorted(directory.glob(pattern)):
                if not path.is_file():
                    continue
                yield path, path.parent.name, shard

    def ensure_dirs(self) -> None:
        """Create every shard's jobs directory (leases are made on claim)."""
        for directory in self.jobs_dirs():
            directory.mkdir(parents=True, exist_ok=True)


# -- marker ------------------------------------------------------------------------


def _marker_path(root: Union[str, Path]) -> Path:
    return Path(root) / SHARD_MARKER_NAME


def write_shard_marker(root: Union[str, Path], shards: int) -> None:
    payload = {"layout_version": SHARD_LAYOUT_VERSION, "shards": int(shards)}
    path = _marker_path(root)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    tmp.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    os.replace(tmp, path)


def read_layout(root: Union[str, Path]) -> SpoolLayout:
    """The layout recorded at ``root`` (flat 1-shard when no marker exists).

    Read-only: safe for clients (``submit``, ``status``, ``events``) that
    must never mutate a root they merely inspect.
    """
    root = Path(root)
    try:
        payload = json.loads(_marker_path(root).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return SpoolLayout(root=root, shards=1)
    if not isinstance(payload, dict):
        return SpoolLayout(root=root, shards=1)
    version = payload.get("layout_version")
    if version != SHARD_LAYOUT_VERSION:
        raise RuntimeError(
            f"unsupported shard layout version {version!r} at {root} "
            f"(this build speaks version {SHARD_LAYOUT_VERSION})"
        )
    shards = payload.get("shards")
    if not isinstance(shards, int) or not 1 <= shards <= MAX_SHARDS:
        raise RuntimeError(f"corrupt shard marker at {root}: shards={shards!r}")
    return SpoolLayout(root=root, shards=shards)


def ensure_layout(root: Union[str, Path], shards: Optional[int] = None) -> SpoolLayout:
    """Open a root for service use, migrating to ``shards`` if requested.

    ``shards=None`` keeps whatever the marker says (flat when absent).
    A differing explicit count triggers the one-shot in-place migration;
    an equal one is a no-op beyond (re)stamping the marker.  Either way
    the marker is written, so the first sharded open of a flat root
    up-converts it and later marker-less readers cannot misroute jobs.
    """
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    current = read_layout(root)
    target = current.shards if shards is None else int(shards)
    layout = SpoolLayout(root=root, shards=target)
    if target != current.shards:
        migrate_layout(root, current, layout)
    elif not _marker_path(root).exists():
        write_shard_marker(root, target)
    layout.ensure_dirs()
    return layout


# -- migration ---------------------------------------------------------------------


def _live_processes(root: Path) -> List[str]:
    """Ids of live workers attached to this root (this process excluded)."""
    from repro.service.cluster import read_worker_heartbeats, worker_is_alive

    return [
        worker_id
        for worker_id, beat in read_worker_heartbeats(root).items()
        if worker_is_alive(beat) and beat.get("pid") != os.getpid()
    ]


def _prune_empty_shard_dirs(layout: SpoolLayout) -> None:
    """Best-effort rmdir of the old layout's now-empty directories."""
    candidates: List[Path] = []
    if layout.sharded:
        candidates.extend(layout.jobs_dirs())
        for directory in layout.leases_dirs():
            if directory.exists():
                candidates.extend(child for child in directory.iterdir() if child.is_dir())
            candidates.append(directory)
    else:
        leases = layout.leases_root()
        if leases.exists():
            candidates.extend(child for child in leases.iterdir() if child.is_dir())
    for directory in candidates:
        try:
            directory.rmdir()
        except OSError:
            pass  # not empty or already gone; harmless either way


def migrate_layout(root: Union[str, Path], old: SpoolLayout, new: SpoolLayout) -> int:
    """Rebucket a quiescent root from ``old`` to ``new`` shard count.

    Every spool record, cancel marker and lease file is moved with
    ``os.rename`` — byte-for-byte, no re-serialisation — to the directory
    its job id hashes to under the new layout.  Returns the number of
    files moved.  Raises :class:`RuntimeError` if any live worker
    heartbeat is attached to the root: resharding under a running
    fleet would race its claim renames.
    """
    root = Path(root)
    if old.shards == new.shards:
        return 0
    live = _live_processes(root)
    if live:
        raise RuntimeError(
            f"refusing to reshard {root} ({old.shards} -> {new.shards} shards): "
            f"live processes attached: {', '.join(sorted(live))}"
        )
    moved = 0
    for directory in old.jobs_dirs():
        if not directory.exists():
            continue
        for path in sorted(directory.iterdir()):
            if not path.is_file() or path.suffix not in (".json", ".cancel"):
                continue
            target = new.jobs_dir(new.shard_of(path.stem)) / path.name
            if target == path:
                continue
            target.parent.mkdir(parents=True, exist_ok=True)
            os.rename(path, target)
            moved += 1
    for path, worker_id, _shard in list(old.iter_lease_files(include_temps=True)):
        job_id = path.name.split(".", 1)[0]
        target = new.worker_lease_dir(worker_id, new.shard_of(job_id)) / path.name
        if target == path:
            continue
        target.parent.mkdir(parents=True, exist_ok=True)
        os.rename(path, target)
        moved += 1
    _prune_empty_shard_dirs(old)
    write_shard_marker(root, new.shards)
    event_log_for(root).emit(
        "resharded", shards=new.shards, previous=old.shards, moved=moved
    )
    return moved


def adopt_stray_records(layout: SpoolLayout) -> int:
    """Re-bucket records dropped into the *flat* paths of a sharded root.

    A submitter that read the layout an instant before the shard marker
    appeared writes its record (or ``.cancel`` marker) to the flat
    ``jobs/`` path — and the one-shot migration pass may already have
    scanned past it.  Every scanning process on a sharded root calls this
    before claiming, so such strays are adopted into their home shard
    within one poll instead of starving forever.  The adoption is the same
    atomic rename the migration uses; when several workers race, one wins
    and the losers' ``OSError`` is ignored, so a job is never duplicated.

    Flat layouts return 0 without touching the filesystem.
    """
    if not layout.sharded:
        return 0
    jobs_root = layout.root / "jobs"
    moved = 0
    try:
        entries = sorted(jobs_root.iterdir())
    except OSError:
        return 0
    for path in entries:
        if not path.is_file() or path.suffix not in (".json", ".cancel"):
            continue
        target = layout.jobs_dir(layout.shard_of(path.stem)) / path.name
        target.parent.mkdir(parents=True, exist_ok=True)
        try:
            os.rename(path, target)
        except OSError:
            continue  # a racing adopter won, or the record was purged
        moved += 1
    if moved:
        event_log_for(layout.root).emit("adopted", moved=moved, shards=layout.shards)
    return moved


__all__ = [
    "SHARD_LAYOUT_VERSION",
    "SHARD_MARKER_NAME",
    "MAX_SHARDS",
    "SpoolLayout",
    "shard_index",
    "shard_dir_name",
    "read_layout",
    "ensure_layout",
    "migrate_layout",
    "adopt_stray_records",
    "write_shard_marker",
]
