"""The durable log: write-ahead journal + compacted snapshots.

The paper's controller is *logically centralized* (§4.2), which is only
viable if it can die and come back without taking the data plane with
it; per-flow session storage (§3.4.2) has the same need. This module is
the one place that knows the durable-log format, and every durable
artefact in the repo is a :class:`StateJournal`: the controller journal,
its hot-standby replicas, and the OBI flow-state checkpoints. It has
four parts:

* an **append-only JSON-lines journal**: every state mutation is one
  self-describing record. Appends are batched to ``fsync`` every
  ``fsync_every`` records — the classic WAL throughput/durability trade,
  tunable down to 1 for strict durability;
* **one atomic segment swap** (:meth:`StateJournal.replace`): after
  ``compact_every`` appends the whole logical state is rewritten as a
  single ``snapshot`` record into a fresh file, atomically swapped in,
  so the journal never grows without bound and replay cost stays
  O(state), not O(history). Degraded-mode rebuilds and a standby's
  snapshot catch-up use the same swap;
* **one reader** (:meth:`StateJournal.replay`) that folds the records
  into any state object with an ``apply(record)`` method;
* **one degraded mode** (:meth:`StateJournal.shed` /
  :meth:`StateJournal.resume`) for owners that must outlive their disk.

Replay is deliberately forgiving (the fuzz suite exercises this):

* a **truncated or corrupt record** (half-written last line after a
  crash, or a well-formed record the fold rejects) stops replay at the
  longest valid prefix — everything before it is recovered;
* **duplicate records** (a crash between apply and fsync can replay a
  batch) fold idempotently — registering the same app or segment twice
  is a no-op, a deploy record overwrites the previous intent for that
  OBI.

What the controller journals is *intent*, not mechanism: per-OBI the
canonical digest of the intended graph plus its version epoch — enough
for the anti-entropy loop to tell a converged OBI from a stale one
without reserializing whole graphs into the log. Transaction-id
high-watermarks ride along so a recovered controller never re-issues an
xid a peer may still hold in its dedup cache, and the **controller
generation** (bumped and flushed durably on every recovery, before any
message is sent) is what lets OBIs fence off a stale predecessor
(split-brain guard).
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator

from repro.durable import LOCAL, Storage


@dataclass
class JournalState:
    """The logical controller state a journal encodes.

    This is the fold of a snapshot record plus every tail record after
    it; :meth:`StateJournal.replay` produces one and recovery consumes
    it. All values are plain JSON types.
    """

    #: Monotonically increasing controller generation (split-brain guard).
    generation: int = 0
    #: Registered application name -> {"priority": int}.
    apps: dict[str, dict[str, Any]] = field(default_factory=dict)
    #: Known segment paths, in discovery order.
    segments: list[str] = field(default_factory=list)
    #: obi_id -> {"segment", "callback_url", "digest", "graph_version"}.
    obis: dict[str, dict[str, Any]] = field(default_factory=dict)
    #: Highest transaction id known to have been allocated.
    xid_high: int = 0

    def to_dict(self) -> dict[str, Any]:
        return {
            "generation": self.generation,
            "apps": self.apps,
            "segments": list(self.segments),
            "obis": self.obis,
            "xid_high": self.xid_high,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "JournalState":
        data = dict(data)
        state = cls()
        state.generation = int(data.get("generation", 0))
        state.apps = {
            str(name): dict(info)
            for name, info in dict(data.get("apps", {})).items()
        }
        state.segments = [str(path) for path in data.get("segments", [])]
        state.obis = {
            str(obi_id): dict(info)
            for obi_id, info in dict(data.get("obis", {})).items()
        }
        state.xid_high = int(data.get("xid_high", 0))
        return state

    # -- record folding -------------------------------------------------
    def _obi(self, obi_id: str) -> dict[str, Any]:
        return self.obis.setdefault(
            obi_id, {"segment": "", "callback_url": "",
                     "digest": "", "graph_version": 0},
        )

    def apply(self, record: dict[str, Any]) -> None:
        """Fold one journal record into the state (idempotent).

        Every field is converted before anything is mutated, so a record
        with a bad field type raises (ending replay's valid prefix)
        without leaving the state half-folded.
        """
        kind = record.get("rec")
        # Any record may carry an xid high-watermark piggyback.
        xid_high = int(record.get("xid_high", 0))
        if kind == "snapshot":
            replacement = JournalState.from_dict(record.get("state", {}))
            self.__dict__.update(replacement.__dict__)
        elif kind == "generation":
            self.generation = max(self.generation, int(record.get("generation", 0)))
        elif kind == "app":
            name = str(record.get("name", ""))
            if record.get("op") == "unregister":
                self.apps.pop(name, None)
            elif name:
                self.apps[name] = {"priority": int(record.get("priority", 100))}
        elif kind == "segment":
            path = str(record.get("path", ""))
            if path and path not in self.segments:
                self.segments.append(path)
        elif kind == "obi":
            obi_id = str(record.get("obi_id", ""))
            if obi_id:
                entry = self._obi(obi_id)
                entry["segment"] = str(record.get("segment", entry["segment"]))
                if record.get("callback_url"):
                    entry["callback_url"] = str(record["callback_url"])
        elif kind == "obi_forgotten":
            self.obis.pop(str(record.get("obi_id", "")), None)
        elif kind == "deploy":
            obi_id = str(record.get("obi_id", ""))
            if obi_id:
                digest = str(record.get("digest", ""))
                version = int(record.get("graph_version", 0))
                entry = self._obi(obi_id)
                entry["digest"], entry["graph_version"] = digest, version
        self.xid_high = max(self.xid_high, xid_high)


@dataclass(frozen=True)
class JournalCursor:
    """A replication position: (segment, record offset within it).

    A journal's **segment** is its compaction incarnation: every
    compaction (or degraded-mode rebuild) rewrites the file and bumps the
    segment number, invalidating record offsets taken against the
    previous file.
    A follower whose cursor names an older segment cannot be served a
    delta — the bytes it was tailing no longer exist — so it is caught
    up with a **snapshot**: the entire current file (whose first record
    is a state snapshot) plus a fresh cursor. ``segment`` -1 is the
    null cursor ("never synced"), which always takes the snapshot path.
    """

    segment: int = -1
    offset: int = 0

    def to_dict(self) -> dict[str, int]:
        return {"segment": self.segment, "offset": self.offset}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "JournalCursor":
        return cls(
            segment=int(data.get("segment", -1)),
            offset=int(data.get("offset", 0)),
        )


@dataclass
class StreamBatch:
    """What :meth:`StateJournal.read_since` produced for one follower."""

    #: Records after the cursor (or the whole file on a snapshot).
    records: list[dict[str, Any]] = field(default_factory=list)
    #: Position after applying :attr:`records`.
    cursor: JournalCursor = field(default_factory=JournalCursor)
    #: True when the batch replaces the follower's journal wholesale
    #: (cursor named a compacted-away segment, or was the null cursor).
    snapshot: bool = False


@dataclass
class ReplayResult:
    """What :meth:`StateJournal.replay` reconstructed."""

    #: The fold: a :class:`JournalState` unless the caller supplied
    #: another state object (anything with ``apply(record)``).
    state: Any
    #: Records folded into the state.
    records: int = 0
    #: True when replay stopped early at a corrupt/truncated line or a
    #: record the fold rejected; the state is the fold of the longest
    #: valid prefix.
    truncated: bool = False
    #: The offending line (repr-safe excerpt), for diagnostics.
    bad_line: str = ""


class JournalError(Exception):
    """Raised for misuse (e.g. appending to a closed journal)."""


def _line(record: dict[str, Any]) -> str:
    return json.dumps(record, separators=(",", ":")) + "\n"


class StateJournal:
    """Append-only, fsync-batched, self-compacting JSON-lines journal."""

    def __init__(
        self,
        path: str | os.PathLike[str],
        fsync_every: int = 8,
        compact_every: int = 256,
        storage: Storage | None = None,
    ) -> None:
        if fsync_every < 1:
            raise ValueError("fsync_every must be >= 1")
        if compact_every < 1:
            raise ValueError("compact_every must be >= 1")
        self.path = os.fspath(path)
        self.fsync_every = fsync_every
        self.compact_every = compact_every
        #: Durable-storage backend; every write-side syscall goes through
        #: it so the chaos engine can inject ENOSPC/EIO/lying fsyncs.
        self.storage = storage or LOCAL
        # A crash mid-swap can leave the temp file behind; the journal
        # itself is intact (the replace never happened), so the stale
        # attempt is simply discarded.
        self.storage.remove(self.path + ".compact")
        # Learn the replication position of an existing file before
        # opening it for append. Journal files are compaction-bounded,
        # so this scan is O(state), not O(history).
        self.segment, self.record_count = self._position(
            self.read_records(self.path)
        )
        self._file = self.storage.open(self.path, "a")
        self._unsynced = 0
        self._appends_since_compact = 0
        self.appended = 0
        self.fsyncs = 0
        #: Failed append writes / failed fsyncs (storage refused); the
        #: affected records were never counted as present or durable.
        self.append_failures = 0
        self.sync_failures = 0
        self.compactions = 0
        #: Fresh segments started by :meth:`rebuild` (degraded-mode resume).
        self.rebuilds = 0
        #: Shed-and-rebuild mode (:meth:`shed`): True once storage refused
        #: a shed-mode write, until :meth:`resume` rebuilds the file.
        self.degraded = False
        #: Why the journal degraded (the refusing error), for alerts.
        self.degraded_reason = ""
        #: Shed-mode writes refused or skipped (drop accounting).
        self.dropped_records = 0
        self._closed = False

    @staticmethod
    def _position(records: Iterable[dict[str, Any]]) -> tuple[int, int]:
        """(segment, record count) of a file holding ``records``; the
        segment rides in the head snapshot record (0 without one)."""
        segment = count = 0
        for record in records:
            if count == 0 and record.get("rec") == "snapshot":
                segment = record.get("segment", 0)
            count += 1
        return segment, count

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def append(self, record: dict[str, Any]) -> None:
        """Append one record; durable after at most ``fsync_every`` appends."""
        if self._closed:
            raise JournalError("journal is closed")
        try:
            self._file.write(_line(record))
        except (OSError, ValueError):
            # The record may be absent or torn on disk; replay's
            # longest-valid-prefix tolerance absorbs either form. It is
            # NOT counted into record_count — replication cursors must
            # only ever count records that parse.
            self.append_failures += 1
            raise
        self.appended += 1
        self.record_count += 1
        self._unsynced += 1
        self._appends_since_compact += 1
        if self._unsynced >= self.fsync_every:
            self.flush()

    def flush(self) -> None:
        """Force buffered appends to stable storage (fsync).

        Durability accounting is honest: ``_unsynced`` is only reset —
        and ``fsyncs`` only incremented — after the fsync *succeeded*.
        A refused barrier re-surfaces on the next flush instead of
        silently marking the batch durable.
        """
        if self._closed:
            return
        try:
            self.storage.fsync(self._file)
        except OSError:
            self.sync_failures += 1
            raise
        if self._unsynced:
            self.fsyncs += 1
        self._unsynced = 0

    def replace(self, records: list[dict[str, Any]]) -> None:
        """Atomically swap the journal file for one holding ``records``.

        The one path that rewrites a journal: written to the ``.compact``
        sibling, fsynced, then ``replace``d over the journal, so a crash
        leaves the old file or the new one, never a torn mix. On failure
        the old file stays authoritative (temp removed, handle usable,
        error raised, position unchanged); on success the position comes
        from the installed file's head record, as in the constructor.
        """
        if self._closed:
            raise JournalError("journal is closed")
        tmp_path = self.path + ".compact"
        try:
            with self.storage.open(tmp_path, "w") as tmp:
                for record in records:
                    tmp.write(_line(record))
                self.storage.fsync(tmp)
            # After an outage the old handle may be dead; it is replaced.
            with contextlib.suppress(OSError, ValueError):
                self._file.close()
            self.storage.replace(tmp_path, self.path)
        except OSError:
            self.storage.remove(tmp_path)
            if getattr(self._file, "closed", False):
                with contextlib.suppress(OSError):
                    self._file = self.storage.open(self.path, "a")
            raise
        self._file = self.storage.open(self.path, "a")
        self._appends_since_compact = 0
        self._unsynced = 0
        # Offsets taken against the old file are now meaningless:
        # followers behind this point catch up via the snapshot path.
        self.segment, self.record_count = self._position(records)

    def _snapshot(self, state: Any) -> list[dict[str, Any]]:
        """The one-record file that starts the next segment from ``state``."""
        return [{"rec": "snapshot", "state": state.to_dict(),
                 "segment": self.segment + 1}]

    @property
    def should_compact(self) -> bool:
        return self._appends_since_compact >= self.compact_every

    def compact(self, state: Any) -> None:
        """Rewrite the journal as one snapshot of ``state`` (``to_dict``).

        Everything the snapshot summarizes must be durable first: a
        refused flush aborts the compaction before any file is touched.
        """
        self.flush()
        self.replace(self._snapshot(state))
        self.compactions += 1

    def maybe_compact(self, state: Any) -> bool:
        """Compact if the tail has grown past ``compact_every`` appends."""
        if self.should_compact:
            self.compact(state)
            return True
        return False

    def rebuild(self, state: Any) -> None:
        """Start a fresh segment from ``state`` (degraded resume).

        Unlike :meth:`compact`, the known-stale tail is *not* flushed
        first: the broken handle may not even accept a flush, and the
        in-memory ``state`` is the authority.
        """
        self.replace(self._snapshot(state))
        self.rebuilds += 1

    def truncate(self, records: int) -> None:
        """Cut the file back to its first ``records`` valid records.

        Records appended behind a damaged one are invisible to replay (a
        torn half-line even swallows the next append), so recovery cuts
        the damage off before it writes. The segment number is kept.
        """
        self.replace(list(itertools.islice(self.read_records(self.path), records)))

    def close(self) -> None:
        if not self._closed:
            # Best-effort durability on the way out: a dying disk must
            # not leave the handle open/leaked behind a raised flush.
            with contextlib.suppress(OSError):
                self.flush()
            with contextlib.suppress(OSError, ValueError):
                self._file.close()
            self._closed = True

    # ------------------------------------------------------------------
    # Shed-and-rebuild mode (graceful storage degradation)
    # ------------------------------------------------------------------
    def shed(self, write: Callable[..., object], *args: Any) -> bool:
        """Run a write step (``append``, ``flush``, ``compact`` or a
        sequence of them) for an owner whose memory is the authority.

        A refusal (``OSError``, or ``ValueError`` from a handle a failed
        swap closed) enters degraded mode instead of raising; while
        degraded, steps are skipped. Either way the step is counted in
        :attr:`dropped_records` and False returned; :meth:`resume` ends
        the mode. :meth:`append` itself keeps raising, for writers that
        must not acknowledge a failed write (a standby).
        """
        if not self.degraded:
            try:
                write(*args)
                return True
            except (OSError, ValueError) as exc:
                self.degrade(exc)
        self.dropped_records += 1
        return False

    def degrade(self, error: BaseException) -> bool:
        """Enter degraded mode because of ``error``; True if newly entered."""
        if self.degraded:
            return False
        self.degraded = True
        self.degraded_reason = str(error) or type(error).__name__
        return True

    def resume(self, state: Any) -> bool:
        """Leave degraded mode by rebuilding the file from ``state``.

        The live ``state`` absorbed every step shed while degraded, so
        one successful :meth:`rebuild` makes the journal whole again.
        Returns False (still degraded) while storage keeps refusing.
        """
        try:
            self.rebuild(state)
        except OSError:
            return False
        self.degraded = False
        return True

    # ------------------------------------------------------------------
    # Streaming replication (PROTOCOL.md §12)
    # ------------------------------------------------------------------
    def cursor(self) -> JournalCursor:
        """The current end-of-journal position (for a caught-up follower)."""
        return JournalCursor(segment=self.segment, offset=self.record_count)

    def read_since(self, cursor: JournalCursor) -> StreamBatch:
        """Records a follower at ``cursor`` is missing.

        Durability before visibility: the journal is flushed first, so a
        record a follower acknowledges can never be one the leader would
        lose in a crash (the replica would otherwise be *ahead* of its
        leader's own disk). A cursor from a compacted-away segment (or
        the null cursor) takes the catch-up snapshot path: the whole
        current file, flagged so the follower replaces its copy instead
        of appending.
        """
        if self._closed:
            raise JournalError("journal is closed")
        self.flush()
        records = list(self.read_records(self.path))
        snapshot = cursor.segment != self.segment or cursor.offset > len(records)
        return StreamBatch(
            records=records if snapshot else records[cursor.offset:],
            cursor=JournalCursor(self.segment, len(records)),
            snapshot=snapshot,
        )

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    @staticmethod
    def _scan(path: str | os.PathLike[str],
              result: ReplayResult) -> Iterator[dict[str, Any]]:
        """The one journal reader: yield the valid prefix of ``path``.

        Each record is folded into ``result.state`` (when there is one)
        and counted before it is yielded. A line that fails to parse, a
        snapshot whose segment (the cursor's base) is not a number, or a
        record the fold rejects ends the prefix and marks ``result``
        truncated.
        """
        try:
            # A torn tail may hold arbitrary bytes; decode errors become
            # replacement characters, which fail JSON parsing and stop
            # the scan like any other corruption (instead of raising).
            handle = open(
                os.fspath(path), "r", encoding="utf-8", errors="replace"
            )
        except FileNotFoundError:
            return
        with handle:
            for line in handle:
                stripped = line.strip()
                if not stripped:
                    continue
                try:
                    record = json.loads(stripped)
                    if not isinstance(record, dict) or "rec" not in record:
                        raise ValueError("not a journal record")
                    if record["rec"] == "snapshot" and not isinstance(
                        record.get("segment", 0), int
                    ):
                        raise ValueError("snapshot segment is not a number")
                    if result.state is not None:
                        result.state.apply(record)
                except (KeyError, TypeError, ValueError):
                    result.truncated = True
                    result.bad_line = stripped[:120]
                    return
                result.records += 1
                yield record

    @staticmethod
    def read_records(path: str | os.PathLike[str]) -> Iterator[dict[str, Any]]:
        """Yield valid records up to the first corrupt/truncated line."""
        return StateJournal._scan(path, ReplayResult(state=None))

    @classmethod
    def replay(cls, path: str | os.PathLike[str],
               state: Any = None) -> ReplayResult:
        """Fold snapshot + tail into ``state`` (a fresh :class:`JournalState`
        by default; any object with ``apply(record)`` works).

        Stops at the first invalid line (longest-valid-prefix recovery);
        duplicate records fold idempotently, so an at-least-once writer
        is safe.
        """
        result = ReplayResult(state=JournalState() if state is None else state)
        for _ in cls._scan(path, result):
            pass
        return result
