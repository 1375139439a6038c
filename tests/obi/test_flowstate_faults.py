"""Flow-state checkpointing under storage faults: shed, count, resume.

Persistence is an *enhancement* of the in-memory table, never a
dependency: when the disk refuses writes the checkpointer sheds to
in-memory-only operation (no OSError ever reaches the packet path),
counts every dropped record, and periodically probes the disk; on heal
one :meth:`StateJournal.rebuild` snapshots the live table — the
authority — so nothing shed while degraded is lost.
"""

import os

import pytest

from repro.chaos.storage import FaultyStorage
from repro.net.builder import make_tcp_packet
from repro.obi.flowstate import (
    FlowStateCheckpointer,
    FlowStatePolicy,
    FlowStateTable,
    load_checkpoint,
)


def packet(sport=1000, dport=80):
    return make_tcp_packet("10.0.0.1", "192.168.0.9", sport, dport)


def checkpointed_table(tmp_path, storage, resume_every=4):
    table = FlowStateTable(
        idle_timeout=60.0, policy=FlowStatePolicy(max_entries=64)
    )
    table.checkpoint = FlowStateCheckpointer(
        tmp_path / "flows.journal", fsync_every=1, storage=storage,
        resume_every=resume_every,
    )
    return table


def durable_flow(table, sport, now=0.0):
    flow = table.observe(packet(sport=sport), now=now)
    table.note_state_change(flow, "est", protected=True, durable=True)
    return flow


class TestShedding:
    def test_storage_failure_never_reaches_the_packet_path(self, tmp_path):
        storage = FaultyStorage()
        table = checkpointed_table(tmp_path, storage)
        durable_flow(table, sport=1)
        storage.fail_fsync(error="ENOSPC")
        # No OSError escapes note_state_change — the hot path is sacred.
        flow = durable_flow(table, sport=2)
        assert flow is not None
        checkpoint = table.checkpoint
        assert checkpoint.degraded
        assert checkpoint.dropped_records >= 1

    def test_every_shed_record_is_counted(self, tmp_path):
        storage = FaultyStorage()
        table = checkpointed_table(tmp_path, storage, resume_every=100)
        storage.fail_fsync(error="ENOSPC")
        durable_flow(table, sport=1)  # trips degraded (counted)
        before = table.checkpoint.dropped_records
        for sport in range(2, 5):
            durable_flow(table, sport=sport)
        assert table.checkpoint.dropped_records == before + 3

    def test_removals_shed_too_but_only_for_journaled_keys(self, tmp_path):
        storage = FaultyStorage()
        table = checkpointed_table(tmp_path, storage)
        flow = durable_flow(table, sport=1)
        storage.fail_fsync(error="ENOSPC")
        durable_flow(table, sport=2)  # degrade
        dropped = table.checkpoint.dropped_records
        table.remove(flow.key)  # journaled key: shed counted
        assert table.checkpoint.dropped_records == dropped + 1
        embryonic = table.observe(packet(sport=9), now=0.0)
        table.remove(embryonic.key)  # never journaled: free
        assert table.checkpoint.dropped_records == dropped + 1


class TestResume:
    def degrade(self, tmp_path, resume_every=3):
        storage = FaultyStorage()
        table = checkpointed_table(tmp_path, storage,
                                   resume_every=resume_every)
        durable_flow(table, sport=1)
        storage.fail_fsync(error="ENOSPC")
        durable_flow(table, sport=2)
        assert table.checkpoint.degraded
        return storage, table

    def test_maybe_snapshot_probes_after_resume_every_sheds(self, tmp_path):
        storage, table = self.degrade(tmp_path, resume_every=3)
        storage.heal()
        # One more shed (the degrading record itself was the first):
        # below the probe threshold, still degraded.
        durable_flow(table, sport=3)
        assert table.checkpoint.degraded
        # The third shed since the last probe triggers try_resume.
        durable_flow(table, sport=4)
        assert not table.checkpoint.degraded
        assert table.checkpoint.resumes == 1

    def test_resume_fails_while_storage_is_still_broken(self, tmp_path):
        storage, table = self.degrade(tmp_path, resume_every=2)
        for sport in range(3, 8):
            durable_flow(table, sport=sport)  # probes fire, disk is dead
        assert table.checkpoint.degraded
        assert table.checkpoint.resumes == 0

    def test_probes_fire_once_per_resume_every_sheds(self, tmp_path):
        storage, table = self.degrade(tmp_path, resume_every=3)
        journal = table.checkpoint.journal
        probes = []
        resume = journal.resume
        journal.resume = lambda state: probes.append(state) or resume(state)
        for sport in range(3, 12):
            durable_flow(table, sport=sport)  # the disk stays dead
        assert table.checkpoint.dropped_records == 10
        assert len(probes) == 3  # at the 3rd, 6th and 9th shed
        assert table.checkpoint.degraded

    def test_rebuilt_journal_holds_everything_shed_while_degraded(
        self, tmp_path
    ):
        storage, table = self.degrade(tmp_path, resume_every=1)
        durable_flow(table, sport=3)  # shed; probe fails (still broken)
        storage.heal()
        durable_flow(table, sport=4)  # shed; probe succeeds → rebuild
        checkpoint = table.checkpoint
        assert not checkpoint.degraded
        # The rebuilt segment snapshots the *live* table: flows 1-4 all
        # present, including those the dead disk never accepted.
        restored = load_checkpoint(checkpoint.path)
        ports = {entry["key"]["src_port"] for entry in restored.entries}
        assert ports == {1, 2, 3, 4}
        assert checkpoint.journal.rebuilds == 1
        assert checkpoint.journal.segment >= 1

    def test_delta_journaling_resumes_after_rebuild(self, tmp_path):
        storage, table = self.degrade(tmp_path, resume_every=1)
        storage.heal()
        durable_flow(table, sport=3)  # probe → rebuild
        durable_flow(table, sport=4)  # a normal post-resume delta
        restored = load_checkpoint(table.checkpoint.path)
        ports = {entry["key"]["src_port"] for entry in restored.entries}
        assert 4 in ports

    def test_explicit_try_resume_is_idempotent_when_healthy(self, tmp_path):
        storage = FaultyStorage()
        table = checkpointed_table(tmp_path, storage)
        durable_flow(table, sport=1)
        assert table.checkpoint.try_resume(table._image) is True
        assert table.checkpoint.resumes == 0  # was never degraded


class TestSnapshotFaults:
    def test_failed_snapshot_replace_sheds_and_leaves_no_temp(self, tmp_path):
        storage = FaultyStorage()
        table = checkpointed_table(tmp_path, storage)
        durable_flow(table, sport=1)
        storage.fail_replace(count=1)
        table.force_snapshot()
        checkpoint = table.checkpoint
        assert checkpoint.degraded  # the torn swap counts as storage loss
        assert not os.path.exists(checkpoint.path + ".compact")
        # The pre-snapshot journal is untouched and still replays.
        restored = load_checkpoint(checkpoint.path)
        assert {e["key"]["src_port"] for e in restored.entries} == {1}

    def test_snapshot_segment_numbering_is_monotonic(self, tmp_path):
        storage = FaultyStorage()
        table = checkpointed_table(tmp_path, storage)
        durable_flow(table, sport=1)
        table.force_snapshot()
        first = table.checkpoint.journal.segment
        table.force_snapshot()
        assert table.checkpoint.journal.segment == first + 1

    def test_crash_between_snapshots_replays_latest_durable_state(
        self, tmp_path
    ):
        storage = FaultyStorage()
        table = checkpointed_table(tmp_path, storage)
        durable_flow(table, sport=1)
        table.force_snapshot()
        durable_flow(table, sport=2)
        storage.crash(torn_tail=True)
        restored = load_checkpoint(table.checkpoint.path)
        # fsync_every=1: both records were honestly durable pre-crash;
        # the torn smear never poisons the valid prefix.
        assert {e["key"]["src_port"] for e in restored.entries} == {1, 2}


class TestObiHandles:
    def test_checkpoint_degradation_visible_through_obi_handles(self, tmp_path):
        from repro.obi.instance import ObiConfig, OpenBoxInstance

        storage = FaultyStorage()
        obi = OpenBoxInstance(
            ObiConfig(
                obi_id="obi-1",
                state_checkpoint_path=str(tmp_path / "obi.state"),
                state_checkpoint_fsync_every=1,
            ),
            state_storage=storage,
        )
        assert obi.read_obi_handle("state_checkpoint_degraded") is False
        storage.fail_fsync(error="ENOSPC")
        table = obi.session.flow_table
        flow = table.observe(packet(sport=7), now=0.0)
        table.note_state_change(flow, "est", protected=True, durable=True)
        assert obi.read_obi_handle("state_checkpoint_degraded") is True
        assert obi.read_obi_handle("state_checkpoint_dropped") >= 1
        assert obi.read_obi_handle("state_checkpoint_resumes") == 0
