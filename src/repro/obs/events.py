"""Append-only JSONL event log of a service root.

Every lifecycle transition in the service/cluster layer — submitted,
claimed, released, reclaimed, cancel-requested, gc, worker start/stop,
periodic metrics snapshots, flow-stage materialisations — is appended as
one JSON line to ``<root>/events/``.  The log is the observability spine:
``repro events`` tails it, ``repro metrics`` aggregates its metric
snapshots, loadgen derives latency percentiles from it, and the typed
status snapshot (:mod:`repro.obs.snapshot`) can reconstruct per-job status
from it without re-scanning the spool.

On-disk layout::

    <root>/events/
        log.jsonl                        # current segment (all writers append)
        log-000001-<pid>-<nonce>.jsonl   # rotated segments, oldest first

Durability and concurrency rules:

* **Atomic line appends.**  Each record is serialised to one ``\\n``-
  terminated line and written with a single ``os.write`` on a descriptor
  opened ``O_APPEND`` — the kernel serialises the offset update, so
  concurrent writers (threads or processes) never interleave *within* a
  line.  No file locks, no daemons, no dependencies.
* **Monotonic per-writer sequence numbers.**  Every :class:`EventLog`
  instance counts its own emissions from 0; ``(writer, seq)`` is unique
  and gapless, so a reader can prove it lost nothing from any one writer.
* **Size-based rotation.**  A writer that finds the current segment over
  ``max_segment_bytes`` renames it to a fresh uniquely-named segment
  (atomic; concurrent rotators race the rename and exactly one wins) and
  appends to a new current file.  Readers take rotated segments in
  rotation-index order, current segment last; two segments sharing an
  index (see :meth:`EventLog._rotate`) are ordered by their first
  record's timestamp.
* **Corrupt-tail tolerance.**  A torn or garbage line (crash mid-write,
  disk-full truncation) is skipped and counted by readers, never fatal —
  the records before and after it are still served.  Writers self-heal a
  torn tail: an append that finds the file not ending in a newline
  prepends one, so the fragment becomes one skippable line instead of
  merging with (and poisoning) the next record.
* **Schema versioning.**  Every record carries ``"v":``
  :data:`EVENT_SCHEMA_VERSION`; readers skip records with an unknown
  version rather than misparse them (same spirit as the store's
  signature-version rules, see DESIGN.md §"Observability layer").
"""

from __future__ import annotations

import io
import json
import os
import threading
import time
import uuid
from collections import Counter
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Union

#: Version stamped into every record; bump on incompatible schema change.
EVENT_SCHEMA_VERSION = 1

#: Default segment size before rotation (events are ~200 bytes each).
DEFAULT_MAX_SEGMENT_BYTES = 4 * 1024 * 1024

#: Name of the events directory under a service root.
EVENTS_DIR_NAME = "events"

#: Name of the current (actively appended) segment.
_CURRENT_NAME = "log.jsonl"

Event = Dict[str, object]


def events_dir(root: Union[str, Path]) -> Path:
    """The events directory of a service root."""
    return Path(root) / EVENTS_DIR_NAME


def _rotation_index(path: Path) -> str:
    """The zero-padded index of a rotated segment (``log-<index>-…``)."""
    return path.name.split("-", 2)[1]


def _first_ts(path: Path) -> float:
    """Timestamp of a segment's first readable record (0.0 if it has none)."""
    try:
        with open(path, "rb") as handle:
            for line in handle:
                record = _parse_line(line.decode("utf-8", errors="replace"))
                if record is not None:
                    ts = record.get("ts")
                    return float(ts) if isinstance(ts, (int, float)) else 0.0
    except OSError:
        pass
    return 0.0


def _segment_paths(directory: Path) -> List[Path]:
    """Every log segment, oldest first: rotated segments, then the current one.

    Rotated segments go in rotation-index order.  Two rotators can pick
    the same index (see :meth:`EventLog._rotate`); only then is each tied
    segment's first line read, and the one whose first record is older
    goes first, because it was the current segment first.
    """
    if not directory.exists():
        return []
    rotated = sorted(directory.glob("log-*.jsonl"))
    ties = Counter(_rotation_index(path) for path in rotated)
    if len(ties) < len(rotated):
        # A stable sort: untied segments keep their name order.
        rotated.sort(
            key=lambda path: (
                _rotation_index(path),
                _first_ts(path) if ties[_rotation_index(path)] > 1 else 0.0,
            )
        )
    current = directory / _CURRENT_NAME
    return rotated + ([current] if current.exists() else [])


class EventLog:
    """One writer's handle on a root's append-only event log.

    Thread-safe: the sequence counter, rotation check and append all happen
    under one lock.  Every append opens/writes/closes the current segment,
    so rotation by a concurrent process is picked up immediately and no
    stale descriptor can resurrect a rotated file.

    ``nonce`` is this instance's start nonce: it rides every ``metrics``
    snapshot so aggregators can tell generations of a reused writer label
    apart instead of silently keeping only the latest.
    """

    def __init__(
        self,
        root: Union[str, Path],
        writer: Optional[str] = None,
        max_segment_bytes: int = DEFAULT_MAX_SEGMENT_BYTES,
    ) -> None:
        if max_segment_bytes < 1:
            raise ValueError(f"max_segment_bytes must be positive, got {max_segment_bytes}")
        self.root = Path(root)
        self.writer = writer or f"proc-{os.getpid()}-{uuid.uuid4().hex[:6]}"
        self.dir = events_dir(self.root)
        self.nonce = uuid.uuid4().hex[:8]
        self.max_segment_bytes = max_segment_bytes
        self._seq = 0
        self._lock = threading.Lock()

    @property
    def next_seq(self) -> int:
        """Sequence number the next emission will carry."""
        with self._lock:
            return self._seq

    def emit(self, event: str, **fields: object) -> Event:
        """Append one record; returns the record as written.

        ``fields`` must be JSON-serialisable.  Reserved keys (``v``,
        ``seq``, ``ts``, ``writer``, ``event``) cannot be overridden.
        """
        with self._lock:
            record: Event = {
                "v": EVENT_SCHEMA_VERSION,
                "seq": self._seq,
                "ts": round(time.time(), 6),
                "writer": self.writer,
                "event": event,
            }
            for key, value in fields.items():
                if key not in record and value is not None:
                    record[key] = value
            line = json.dumps(record, separators=(",", ":")) + "\n"
            self._append(line.encode("utf-8"))
            self._seq += 1
            return record

    # -- append + rotation (lock held) ---------------------------------------------

    def _append(self, data: bytes) -> None:
        current = self.dir / _CURRENT_NAME
        try:
            size = current.stat().st_size
        except OSError:
            size = 0
        if size >= self.max_segment_bytes:
            self._rotate(current)
        self.dir.mkdir(parents=True, exist_ok=True)
        fd = os.open(current, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o644)
        try:
            # Heal a torn tail (crash or disk-full mid-write left no trailing
            # newline): prepending "\n" in the same single write terminates
            # the fragment into one skippable garbage line instead of letting
            # it merge with — and poison — this record.  A racer appending
            # between the check and the write at worst costs an empty line,
            # which readers skip.
            end = os.fstat(fd).st_size
            if end and os.pread(fd, 1, end - 1) != b"\n":
                data = b"\n" + data
            os.write(fd, data)
        finally:
            os.close(fd)

    def _rotate(self, current: Path) -> None:
        """Rename the oversized current segment aside (exactly one racer wins).

        The target name embeds the next rotation index (for ordered
        reads), this pid and a random nonce, so two concurrent rotators can
        never rename onto each other's segment; the loser's rename fails
        with ``ENOENT`` (the source is gone) and it simply appends to the
        fresh current file.  A rotator that lists the segments, then loses
        the CPU while a peer rotates and appends, renames the peer's fresh
        segment under the same index as the peer's; readers break that tie
        by each segment's first timestamp (:func:`_segment_paths`).
        """
        rotated = sorted(self.dir.glob("log-*.jsonl"))
        index = len(rotated) + 1
        target = self.dir / f"log-{index:06d}-{os.getpid()}-{uuid.uuid4().hex[:6]}.jsonl"
        try:
            os.rename(current, target)
        except OSError:
            pass  # a concurrent writer rotated first; append to the new file


#: Process-wide client EventLog per root, so repeated ``submit_job`` calls
#: from one process share a writer (and its gapless sequence) instead of
#: spawning a writer id per call.
_CLIENT_LOGS: Dict[str, EventLog] = {}
_CLIENT_LOGS_LOCK = threading.Lock()


def _forget_client_logs() -> None:
    """A forked child starts with no client log: its events need their own
    ``client-<pid>-<nonce>`` writer and ``seq``, not a copy of its parent's."""
    global _CLIENT_LOGS_LOCK
    _CLIENT_LOGS.clear()
    _CLIENT_LOGS_LOCK = threading.Lock()


os.register_at_fork(after_in_child=_forget_client_logs)


def event_log_for(root: Union[str, Path]) -> EventLog:
    """The shared client-side :class:`EventLog` of this process for ``root``."""
    key = os.fspath(Path(root))
    with _CLIENT_LOGS_LOCK:
        log = _CLIENT_LOGS.get(key)
        if log is None:
            log = EventLog(root, writer=f"client-{os.getpid()}-{uuid.uuid4().hex[:6]}")
            _CLIENT_LOGS[key] = log
        return log


# -- reading -----------------------------------------------------------------------


def _parse_line(line: str) -> Optional[Event]:
    """One record from one line, or ``None`` for torn/foreign/future lines."""
    line = line.strip()
    if not line:
        return None
    try:
        record = json.loads(line)
    except json.JSONDecodeError:
        return None  # torn tail line or garbage; tolerated by contract
    if not isinstance(record, dict) or record.get("v") != EVENT_SCHEMA_VERSION:
        return None  # unknown schema version: skip, never misparse
    return record


def iter_events(
    root: Union[str, Path],
    job_id: Optional[str] = None,
    event: Optional[str] = None,
) -> Iterator[Event]:
    """Every readable event of a root in append order, optionally filtered.

    ``job_id`` keeps only records whose ``job`` field matches; ``event``
    keeps only records of one event type.  Unreadable lines are skipped.
    """
    for path in _segment_paths(events_dir(root)):
        try:
            text = path.read_text(encoding="utf-8")
        except OSError:
            continue
        for line in text.splitlines():
            record = _parse_line(line)
            if record is None:
                continue
            if job_id is not None and record.get("job") != job_id:
                continue
            if event is not None and record.get("event") != event:
                continue
            yield record


def read_events(
    root: Union[str, Path],
    job_id: Optional[str] = None,
    event: Optional[str] = None,
    tail: Optional[int] = None,
) -> List[Event]:
    """Events of a root as a list; ``tail=N`` keeps only the newest N."""
    records = list(iter_events(root, job_id=job_id, event=event))
    if tail is not None and tail >= 0:
        records = records[len(records) - min(tail, len(records)) :]
    return records


class EventCursor:
    """Incremental reader: each :meth:`poll` returns only new complete records.

    Offsets are tracked per file *inode*, so a segment rotated (renamed)
    between polls keeps its read position and is drained to its end, while
    the fresh current segment (a new inode) is read from 0 — no record is
    ever skipped or double-delivered across a rotation.  A partial last
    line (a write caught mid-flight) is left unconsumed until it gains its
    terminating newline.

    A poll lists the segments before it opens them, so a rotation in
    between hides the renamed segment from that poll (it opens the fresh
    current file instead).  The offset of an inode a poll did not see is
    therefore kept for one more poll, which finds the segment under its
    rotated name and resumes it there; an inode missing from two polls in
    a row is gone and forgotten.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.dir = events_dir(root)
        self._offsets: Dict[int, int] = {}
        self._missed: Dict[int, int] = {}  # offsets the previous poll did not see
        self.skipped = 0  # unreadable (torn/foreign) lines seen

    def poll(self) -> List[Event]:
        """All complete records appended since the previous poll."""
        records: List[Event] = []
        seen: Dict[int, int] = {}
        for path in _segment_paths(self.dir):
            try:
                with open(path, "rb") as handle:
                    inode = os.fstat(handle.fileno()).st_ino
                    offset = self._offsets.get(inode, self._missed.get(inode, 0))
                    handle.seek(offset)
                    data = handle.read()
            except OSError:
                continue
            end = data.rfind(b"\n")
            if end < 0:
                seen[inode] = offset
                continue  # nothing complete yet; keep waiting at this offset
            for line in io.BytesIO(data[: end + 1]):
                record = _parse_line(line.decode("utf-8", errors="replace"))
                if record is None:
                    self.skipped += 1
                    continue
                records.append(record)
            seen[inode] = offset + end + 1
        # Forget inodes missing from two polls (rotated segments later gc'd).
        self._missed = {
            inode: offset for inode, offset in self._offsets.items() if inode not in seen
        }
        self._offsets = seen
        return records


#: Ceiling of the idle backoff in :func:`follow_events`: a quiet fleet is
#: polled at most once a second however small the configured interval.
MAX_IDLE_POLL_INTERVAL = 1.0


def follow_events(
    root: Union[str, Path],
    poll_interval: float = 0.2,
    stop: Optional[Callable[[], bool]] = None,
    max_interval: Optional[float] = None,
) -> Iterator[Event]:
    """Yield events as they are appended (the ``repro events --follow`` loop).

    Replays the existing log first, then polls for new records until
    ``stop()`` returns True (or forever).

    Idle polls back off exponentially: every empty poll doubles the sleep,
    up to ``max_interval`` (default: the larger of ``poll_interval`` and
    :data:`MAX_IDLE_POLL_INTERVAL`), so tailing a quiet fleet costs ~1
    stat-walk per second instead of a busy loop; any activity snaps the
    interval back to ``poll_interval``.
    """
    if poll_interval <= 0:
        raise ValueError(f"poll_interval must be positive, got {poll_interval}")
    if max_interval is None:
        max_interval = max(poll_interval, MAX_IDLE_POLL_INTERVAL)
    cursor = EventCursor(root)
    delay = poll_interval
    while True:
        records = cursor.poll()
        for record in records:
            yield record
        if stop is not None and stop():
            return
        delay = poll_interval if records else min(max_interval, delay * 2.0)
        time.sleep(delay)


def format_event(record: Event) -> str:
    """One human-readable line per record (the ``repro events`` output)."""
    ts = float(record.get("ts", 0.0))
    clock = time.strftime("%H:%M:%S", time.localtime(ts)) + f".{int((ts % 1) * 1000):03d}"
    head = f"{clock} {record.get('writer', '?')}#{record.get('seq', '?')} {record.get('event')}"
    skip = {"v", "seq", "ts", "writer", "event", "metrics", "traceback"}
    parts = [
        f"{key}={json.dumps(value) if isinstance(value, (dict, list)) else value}"
        for key, value in record.items()
        if key not in skip
    ]
    if "metrics" in record:
        parts.append("metrics=<snapshot>")
    if "traceback" in record:
        parts.append("traceback=<see --json>")
    return " ".join([head] + parts)


__all__ = [
    "EVENT_SCHEMA_VERSION",
    "DEFAULT_MAX_SEGMENT_BYTES",
    "MAX_IDLE_POLL_INTERVAL",
    "Event",
    "EventLog",
    "EventCursor",
    "event_log_for",
    "events_dir",
    "iter_events",
    "read_events",
    "follow_events",
    "format_event",
]
