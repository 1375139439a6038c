"""Resilient per-flow NF state: bounded, versioned, crash-safe.

SessionStorage's original backing store was a best-effort dict: it died
with the OBI process, was migrated only by hand, and had no defense
against state-table exhaustion. This module is the hardened replacement
(the "Stateful Forwarding Abstraction" argument: per-flow state must be
a first-class, bounded, recoverable table for software NFs to scale).
Four layers:

* **Exhaustion defense** (:class:`FlowStateTable`) — a hard entry cap
  with per-source-prefix budgets, early-TTL eviction of idle embryonic
  entries under pressure, LRU eviction of unprotected entries, and a
  strict guarantee that *protected* entries (established connections)
  are never displaced: when only protected entries remain, new state is
  refused instead. Every eviction and refusal is counted by reason.
* **Versioned entries** — every session write or state transition bumps
  the flow's version and fires :attr:`FlowStateTable.on_state_change`,
  which the OBI wires to per-flow fast-path invalidation (so a state
  transition flushes exactly one flow's cached decision, not the whole
  cache).
* **Crash-safe checkpoints** (:class:`FlowStateCheckpointer`) — durable
  state changes append delta records to an fsync-batched JSON-lines
  journal (the exact format of :class:`repro.controller.journal.StateJournal`,
  which is reused directly), periodically compacted into a snapshot
  record. :func:`load_checkpoint` restores the longest valid prefix
  after a crash, tolerating a torn tail.
* **Generation fencing** — each restore bumps the table's
  ``state_generation``; handoff consumers reject checkpoints from a
  generation older than one already imported, so a ghost OBI's stale
  state can never overwrite a survivor's newer view.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.controller.journal import StateJournal
from repro.durable import Storage
from repro.net.flow import FiveTuple, Flow, FlowTable
from repro.net.packet import Packet


@dataclass
class FlowStatePolicy:
    """Exhaustion-defense knobs for a :class:`FlowStateTable`.

    The defaults match the old SessionStorage bound (one million flows)
    with pressure policies that only engage near the cap, so existing
    deployments behave identically until they approach exhaustion.
    """

    #: Hard cap on table entries; insertion beyond it evicts per the
    #: policy below or refuses the new entry.
    max_entries: int = 1_000_000
    #: Source-address prefix length (bits) used for per-prefix budgets.
    prefix_bits: int = 16
    #: Largest fraction of the table one source prefix may occupy
    #: (0 disables budgets). A spoofed flood confined to few prefixes
    #: exhausts its budget long before it exhausts the table.
    prefix_share: float = 0.25
    #: Occupancy fraction at which pressure mode starts: idle
    #: *unprotected* entries become evictable after ``early_ttl``
    #: instead of the full idle timeout.
    pressure_watermark: float = 0.85
    #: Occupancy fraction at which the OBI reports degradation
    #: (feeds ``EngineRobustness.state_pressure`` → ``obi_degraded``).
    degradation_watermark: float = 0.95
    #: Idle seconds after which an unprotected entry may be reclaimed
    #: under pressure (embryonic handshakes age out fast in a flood).
    early_ttl: float = 5.0
    #: Entries examined per early-TTL sweep (amortized per insertion).
    sweep_limit: int = 64

    def __post_init__(self) -> None:
        if self.max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        if not 0 <= self.prefix_bits <= 32:
            raise ValueError("prefix_bits must be in [0, 32]")


@dataclass
class CheckpointRestore:
    """What :func:`load_checkpoint` reconstructed from a journal."""

    #: Surviving flow entries (export_entries schema), post-fold.
    entries: list[dict[str, Any]] = field(default_factory=list)
    #: Highest state generation recorded in the journal.
    generation: int = 0
    #: Records folded (snapshot + deltas).
    records: int = 0
    #: True when the scan stopped at a corrupt/truncated line; the
    #: entries are the fold of the longest valid prefix.
    truncated: bool = False


def _entry_key(entry: dict[str, Any]) -> tuple:
    key = entry["key"]
    return (
        int(key["src_ip"]), int(key["dst_ip"]),
        int(key["src_port"]), int(key["dst_port"]), int(key["proto"]),
    )


def load_checkpoint(path: str | os.PathLike[str]) -> CheckpointRestore:
    """Fold a flow-state journal into the surviving entry set.

    Longest-valid-prefix semantics, mirroring
    :meth:`repro.controller.journal.StateJournal.replay`: a torn tail
    (half-written last line after SIGKILL) stops the fold; everything
    before it is recovered. Duplicate ``flow`` records fold
    idempotently (last write wins), ``flow_gone`` records delete.
    """
    result = CheckpointRestore()
    by_key: dict[tuple, dict[str, Any]] = {}
    try:
        handle = open(os.fspath(path), "r", encoding="utf-8", errors="replace")
    except FileNotFoundError:
        return result
    with handle:
        for line in handle:
            stripped = line.strip()
            if not stripped:
                continue
            try:
                record = json.loads(stripped)
                if not isinstance(record, dict) or "rec" not in record:
                    raise ValueError("not a journal record")
            except ValueError:
                result.truncated = True
                break
            kind = record.get("rec")
            try:
                if kind == "snapshot":
                    state = record.get("state", {})
                    result.generation = max(
                        result.generation, int(state.get("generation", 0))
                    )
                    by_key = {
                        _entry_key(entry): entry
                        for entry in state.get("entries", [])
                    }
                elif kind == "flow":
                    entry = record["entry"]
                    by_key[_entry_key(entry)] = entry
                elif kind == "flow_gone":
                    by_key.pop(_entry_key({"key": record["key"]}), None)
                elif kind == "state_generation":
                    result.generation = max(
                        result.generation, int(record.get("generation", 0))
                    )
                # Unknown kinds are skipped, not fatal: a newer OBI's
                # journal replays on an older one minus what it cannot
                # understand.
            except (KeyError, TypeError, ValueError):
                result.truncated = True
                break
            result.records += 1
    result.entries = list(by_key.values())
    return result


class _CheckpointImage:
    """Duck-typed state for :meth:`StateJournal.compact` (``to_dict``)."""

    def __init__(self, generation: int, entries: list[dict[str, Any]]) -> None:
        self.generation = generation
        self.entries = entries

    def to_dict(self) -> dict[str, Any]:
        return {"generation": self.generation, "entries": self.entries}


class FlowStateCheckpointer:
    """Crash-safe persistence for a :class:`FlowStateTable`.

    Reuses :class:`~repro.controller.journal.StateJournal` wholesale:
    durable state changes append ``{"rec": "flow", ...}`` delta records
    (fsync-batched), removals append ``flow_gone``, and after
    ``snapshot_every`` appends the whole table is compacted into one
    atomic ``snapshot`` record — so restore cost is O(state), not
    O(history), and a crash at any point leaves a replayable file.

    Only flows that have reached a *durable* state (an established
    connection, a session verdict) are journaled: a SYN flood's
    embryonic entries never touch the disk, which keeps the journal
    write rate proportional to real sessions, not attack packets.

    **Storage degradation**: persistence is an *enhancement* of the
    in-memory table, never a dependency — when the disk starts refusing
    writes (ENOSPC, EIO) the checkpointer sheds to in-memory-only
    operation instead of letting an OSError reach the packet path.
    Every shed record is counted (:attr:`dropped_records`), and every
    ``resume_every`` sheds the disk is probed with a full-table
    :meth:`StateJournal.rebuild`: on success the journal is a fresh
    fsync'd snapshot of the *live* table (nothing dropped while
    degraded is lost — the table itself is the authority) and delta
    journaling resumes.
    """

    def __init__(
        self,
        path: str | os.PathLike[str],
        fsync_every: int = 8,
        snapshot_every: int = 256,
        storage: Storage | None = None,
        resume_every: int = 32,
    ) -> None:
        self.journal = StateJournal(
            path, fsync_every=fsync_every, compact_every=snapshot_every,
            storage=storage,
        )
        #: Keys present in the journal (snapshot or delta): removals of
        #: never-journaled flows are skipped so flood-evicted embryonic
        #: entries cost no journal traffic on the way out either.
        self._journaled: set[FiveTuple] = set()
        #: True while shedding to in-memory-only (storage refused a write).
        self.degraded = False
        #: Durable-state records shed while degraded (drop accounting).
        self.dropped_records = 0
        #: Successful returns from degraded mode (fresh rebuilt segment).
        self.resumes = 0
        #: Probe the disk for recovery after this many sheds.
        self.resume_every = max(1, resume_every)
        self._sheds_since_probe = 0

    @property
    def path(self) -> str:
        return self.journal.path

    def _shed(self) -> None:
        self.degraded = True
        self.dropped_records += 1
        self._sheds_since_probe += 1

    def record_entry(self, key: FiveTuple, entry: dict[str, Any]) -> None:
        if self.degraded:
            self._shed()
            return
        try:
            self.journal.append({"rec": "flow", "entry": entry})
        except OSError:
            self._shed()
            return
        self._journaled.add(key)

    def record_remove(self, key: FiveTuple) -> None:
        if key not in self._journaled:
            return
        if self.degraded:
            self._shed()
            return
        self._journaled.discard(key)
        try:
            self.journal.append({"rec": "flow_gone", "key": key.to_dict()})
        except OSError:
            self._shed()

    def record_generation(self, generation: int) -> None:
        if self.degraded:
            self._shed()
            return
        try:
            self.journal.append(
                {"rec": "state_generation", "generation": generation}
            )
            self.journal.flush()
        except OSError:
            self._shed()

    def snapshot(
        self, generation: int, entries: list[dict[str, Any]],
        keys: set[FiveTuple],
    ) -> None:
        try:
            self.journal.compact(_CheckpointImage(generation, entries))
        except OSError:
            self._shed()
            return
        self._journaled = set(keys)

    def maybe_snapshot(
        self, generation: int,
        image: Callable[[], tuple[list[dict[str, Any]], set[FiveTuple]]],
    ) -> bool:
        """Compact when the delta tail has outgrown ``snapshot_every``.

        While degraded, doubles as the resume probe: every
        ``resume_every`` sheds, :meth:`try_resume` tests whether the
        storage has healed.
        """
        if self.degraded:
            if self._sheds_since_probe >= self.resume_every:
                self._sheds_since_probe = 0
                return self.try_resume(generation, image)
            return False
        if not self.journal.should_compact:
            return False
        entries, keys = image()
        self.snapshot(generation, entries, keys)
        return not self.degraded

    def try_resume(
        self, generation: int,
        image: Callable[[], tuple[list[dict[str, Any]], set[FiveTuple]]],
    ) -> bool:
        """Attempt to leave degraded mode with a fresh rebuilt segment.

        The live table image is the authority — everything shed while
        degraded is inside it — so one successful
        :meth:`StateJournal.rebuild` makes the journal whole again.
        """
        if not self.degraded:
            return True
        entries, keys = image()
        try:
            self.journal.rebuild(_CheckpointImage(generation, entries))
        except OSError:
            return False
        self._journaled = set(keys)
        self.degraded = False
        self._sheds_since_probe = 0
        self.resumes += 1
        return True

    def flush(self) -> None:
        if self.degraded:
            return
        try:
            self.journal.flush()
        except OSError:
            self.degraded = True

    def close(self) -> None:
        self.journal.close()


class FlowStateTable(FlowTable):
    """A :class:`FlowTable` hardened against exhaustion and crashes.

    Entries are strictly bounded by :attr:`FlowStatePolicy.max_entries`
    with a tiered reclamation order on insertion pressure:

    1. idle-timeout expiry (normal TTL);
    2. early-TTL reclaim of idle *unprotected* entries (pressure only);
    3. LRU eviction of the least-recently-touched unprotected entry;
    4. refusal of the new entry — protected entries are never evicted.

    Per-source-prefix budgets cap how much of the table one
    ``/prefix_bits`` source aggregate may hold, so a spoofed flood from
    few networks starves itself, not the table. All reclamation and
    refusal is counted by reason (``eviction_reasons``/``drop_reasons``)
    for the ``_obi`` handles and the telemetry gauges.
    """

    def __init__(
        self,
        idle_timeout: float = 60.0,
        bidirectional: bool = True,
        policy: FlowStatePolicy | None = None,
    ) -> None:
        self.policy = policy or FlowStatePolicy()
        super().__init__(
            idle_timeout=idle_timeout,
            bidirectional=bidirectional,
            max_flows=self.policy.max_entries,
        )
        #: Approximate-LRU queue of unprotected keys (oldest first);
        #: touching a flow moves its key to the end, protecting removes
        #: it, so eviction is an O(1) pop of the head.
        self._unprotected: dict[FiveTuple, None] = {}
        #: key -> source prefix (of the packet that created the entry).
        self._prefix_of: dict[FiveTuple, int] = {}
        self._prefix_counts: dict[int, int] = {}
        self.protected_count = 0
        #: Incarnation counter: bumped on every checkpoint restore so
        #: downstream consumers (failover handoff) can fence stale state.
        self.state_generation = 0
        self.eviction_reasons: dict[str, int] = {}
        self.drop_reasons: dict[str, int] = {}
        #: New entries refused (table full of protected entries, or
        #: prefix budget exhausted with nothing reclaimable).
        self.drops = 0
        #: Called with ``(canonical_key, reason)`` on every version bump
        #: *and* entry removal; the OBI wires this to per-flow fast-path
        #: invalidation.
        self.on_state_change: Callable[[FiveTuple, str], None] | None = None
        #: Attached :class:`FlowStateCheckpointer`; None disables
        #: persistence entirely (zero hot-path cost).
        self.checkpoint: FlowStateCheckpointer | None = None

    # ------------------------------------------------------------------
    # Occupancy / pressure
    # ------------------------------------------------------------------
    @property
    def occupancy(self) -> float:
        return len(self._flows) / self.policy.max_entries

    @property
    def under_pressure(self) -> bool:
        return self.occupancy >= self.policy.pressure_watermark

    @property
    def under_degradation(self) -> bool:
        return self.occupancy >= self.policy.degradation_watermark

    def _prefix(self, src_ip: int) -> int:
        bits = self.policy.prefix_bits
        return src_ip >> (32 - bits) if bits else 0

    def _prefix_budget(self) -> int:
        share = self.policy.prefix_share
        if share <= 0:
            return 0
        return max(1, int(share * self.policy.max_entries))

    # ------------------------------------------------------------------
    # Bookkeeping primitives
    # ------------------------------------------------------------------
    def _insert(self, flow: Flow, prefix: int) -> None:
        self._flows[flow.key] = flow
        self._prefix_of[flow.key] = prefix
        self._prefix_counts[prefix] = self._prefix_counts.get(prefix, 0) + 1
        if flow.protected:
            self.protected_count += 1
        else:
            self._unprotected[flow.key] = None

    def _delete(self, key: FiveTuple, reason: str) -> Flow | None:
        flow = self._flows.pop(key, None)
        if flow is None:
            return None
        self._unprotected.pop(key, None)
        prefix = self._prefix_of.pop(key, None)
        if prefix is not None:
            remaining = self._prefix_counts.get(prefix, 1) - 1
            if remaining > 0:
                self._prefix_counts[prefix] = remaining
            else:
                self._prefix_counts.pop(prefix, None)
        if flow.protected:
            self.protected_count = max(0, self.protected_count - 1)
        if reason != "removed":
            self.evictions += 1
            self.eviction_reasons[reason] = (
                self.eviction_reasons.get(reason, 0) + 1
            )
        if self.checkpoint is not None:
            self.checkpoint.record_remove(key)
        if self.on_state_change is not None:
            self.on_state_change(key, f"gone:{reason}")
        return flow

    def _touch_lru(self, key: FiveTuple) -> None:
        if self._unprotected.pop(key, False) is None:
            self._unprotected[key] = None

    def _drop(self, reason: str) -> None:
        self.drops += 1
        self.drop_reasons[reason] = self.drop_reasons.get(reason, 0) + 1

    # ------------------------------------------------------------------
    # Admission (the exhaustion defense)
    # ------------------------------------------------------------------
    def _sweep_early_ttl(self, now: float) -> int:
        """Reclaim idle unprotected entries under pressure (bounded)."""
        reclaimed = 0
        early = self.policy.early_ttl
        for key in list(self._unprotected)[: self.policy.sweep_limit]:
            flow = self._flows.get(key)
            if flow is None:
                self._unprotected.pop(key, None)
                continue
            if now - flow.last_seen > early:
                self._delete(key, "early-ttl")
                reclaimed += 1
            else:
                # The queue is LRU-ordered: the first fresh entry means
                # everything behind it is fresher still.
                break
        return reclaimed

    def _evict_lru_unprotected(
        self, reason: str, prefix: int | None = None
    ) -> bool:
        """Evict the least-recently-touched unprotected entry.

        With ``prefix`` given, only an entry created from that source
        prefix qualifies (budget enforcement reclaims from the
        offending aggregate, never from innocent bystanders).
        """
        for key in self._unprotected:
            if prefix is not None and self._prefix_of.get(key) != prefix:
                continue
            self._delete(key, reason)
            return True
        return False

    def _admit(self, prefix: int, now: float) -> bool:
        """May a new entry from ``prefix`` be inserted at ``now``?"""
        budget = self._prefix_budget()
        if budget and self._prefix_counts.get(prefix, 0) >= budget:
            # The aggregate pays for itself: reclaim its own oldest
            # unprotected entry or refuse — never touch other prefixes.
            if not self._evict_lru_unprotected("prefix-budget", prefix):
                self._drop("prefix-budget")
                return False
        if self.under_pressure:
            self._sweep_early_ttl(now)
        if len(self._flows) >= self.policy.max_entries:
            # One slot is needed; the LRU head is the least-recently
            # touched unprotected entry, so it is both the best LRU
            # victim and the likeliest to be TTL-expired. Checking only
            # it keeps admission O(1) — a full expiry scan here would
            # turn every flood packet into an O(table) walk.
            head = next(iter(self._unprotected), None)
            if head is None:
                # Only protected (established) entries remain: refuse
                # the newcomer rather than break a live session.
                self._drop("table-full")
                return False
            victim = self._flows.get(head)
            expired = (
                victim is not None
                and now - victim.last_seen > self.idle_timeout
            )
            self._delete(head, "ttl" if expired else "lru")
        return True

    # ------------------------------------------------------------------
    # FlowTable API (policy-aware overrides)
    # ------------------------------------------------------------------
    def observe(self, packet: Packet, now: float) -> Flow | None:
        """Account ``packet`` to its flow, creating the flow if admitted.

        Unlike the base table, a new flow may be *refused* under
        exhaustion (None is returned and the refusal counted): stateful
        elements treat a refused flow as "no state", which under a
        flood means new connections degrade while established ones —
        whose entries are protected — keep their state and verdicts.
        """
        tuple5 = FiveTuple.of(packet)
        if tuple5 is None:
            return None
        key = self._key_for(tuple5)
        flow = self._flows.get(key)
        if flow is None:
            prefix = self._prefix(tuple5.src_ip)
            if not self._admit(prefix, now):
                return None
            flow = Flow(key=key, created_at=now, last_seen=now)
            self._insert(flow, prefix)
        flow.touch(packet, now)
        if not flow.protected:
            self._touch_lru(key)
        return flow

    def install(self, flow: Flow) -> bool:
        """Insert a pre-built entry (state import/migration/restore).

        Subject to the same admission policy as live traffic — an
        import can not blow through the cap — but an already-present
        key replaces in place without re-admission.
        """
        key = self._key_for(flow.key)
        if key != flow.key:
            flow = Flow(
                key=key, created_at=flow.created_at, last_seen=flow.last_seen,
                packets=flow.packets, bytes=flow.bytes,
                fin_seen=flow.fin_seen, rst_seen=flow.rst_seen,
                session=flow.session, version=flow.version,
                protected=flow.protected,
            )
        if key in self._flows:
            self._delete(key, "removed")
        prefix = self._prefix(key.src_ip)
        if not self._admit(prefix, flow.last_seen):
            return False
        self._insert(flow, prefix)
        return True

    def expire(self, now: float) -> list[Flow]:
        expired = [
            flow for flow in self._flows.values()
            if now - flow.last_seen > self.idle_timeout
        ]
        return [
            gone for flow in expired
            if (gone := self._delete(flow.key, "ttl")) is not None
        ]

    def remove(self, key: FiveTuple) -> Flow | None:
        return self._delete(self._key_for(key), "removed")

    def _evict_oldest(self) -> None:  # pragma: no cover - superseded
        self._evict_lru_unprotected("lru")

    # ------------------------------------------------------------------
    # Versioning, protection, durability
    # ------------------------------------------------------------------
    def note_state_change(
        self,
        flow: Flow,
        reason: str,
        *,
        protected: bool | None = None,
        durable: bool = False,
    ) -> int:
        """Record a state mutation on ``flow``: bump its version, adjust
        protection, journal it if ``durable``, and fire the per-flow
        invalidation hook. Returns the new version."""
        flow.version += 1
        if protected is not None and protected != flow.protected:
            flow.protected = protected
            if protected:
                self._unprotected.pop(flow.key, None)
                self.protected_count += 1
            else:
                self._unprotected[flow.key] = None
                self.protected_count = max(0, self.protected_count - 1)
        if durable and self.checkpoint is not None:
            self.checkpoint.record_entry(flow.key, self.export_entry(flow))
            self.checkpoint.maybe_snapshot(self.state_generation, self._image)
        if self.on_state_change is not None:
            self.on_state_change(flow.key, reason)
        return flow.version

    # ------------------------------------------------------------------
    # Serialization / checkpointing
    # ------------------------------------------------------------------
    @staticmethod
    def export_entry(flow: Flow, now: float | None = None) -> dict[str, Any]:
        entry: dict[str, Any] = {
            "key": flow.key.to_dict(),
            "session": dict(flow.session),
            "created_at": flow.created_at,
            "last_seen": flow.last_seen,
            "packets": flow.packets,
            "bytes": flow.bytes,
            "version": flow.version,
            "protected": flow.protected,
        }
        if now is not None:
            # The exporter's idea of entry age: importers on other
            # machines cannot compare raw clocks, but an age survives
            # the transfer.
            entry["age"] = max(0.0, now - flow.last_seen)
        return entry

    def _image(self) -> tuple[list[dict[str, Any]], set[FiveTuple]]:
        """(entries, keys) of every *durable* flow, for a snapshot."""
        entries: list[dict[str, Any]] = []
        keys: set[FiveTuple] = set()
        for flow in self._flows.values():
            if flow.version > 0:
                entries.append(self.export_entry(flow))
                keys.add(flow.key)
        return entries, keys

    def force_snapshot(self) -> None:
        """Compact the checkpoint journal to the current table state."""
        if self.checkpoint is None:
            return
        entries, keys = self._image()
        self.checkpoint.snapshot(self.state_generation, entries, keys)

    def restore(self, result: CheckpointRestore, now: float) -> int:
        """Install a :func:`load_checkpoint` fold; returns entries kept.

        The table's generation becomes one past the journal's highest —
        the restored incarnation supersedes everything the dead one
        exported — and the journal is immediately compacted so the next
        crash replays one snapshot, not the predecessor's whole tail.
        """
        installed = 0
        for entry in result.entries:
            try:
                flow = Flow(
                    key=self._key_for(FiveTuple.from_dict(entry["key"])),
                    created_at=float(entry.get("created_at", now)),
                    last_seen=now,
                    packets=int(entry.get("packets", 0)),
                    bytes=int(entry.get("bytes", 0)),
                    session=dict(entry.get("session", {})),
                    version=int(entry.get("version", 0)),
                    protected=bool(entry.get("protected", False)),
                )
            except (KeyError, TypeError, ValueError):
                continue
            if self.install(flow):
                installed += 1
        self.state_generation = result.generation + 1
        if self.checkpoint is not None:
            self.checkpoint.record_generation(self.state_generation)
            self.force_snapshot()
        return installed
