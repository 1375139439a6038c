"""Round-trip properties of the durable artefacts (PROTOCOL.md §10-§12).

Every durable artefact is a StateJournal, so each property writes a
random record sequence with random compaction points and checks that
what comes back from disk is exactly the live fold that was written:

* a leader journal replays to its live state;
* a standby fed by ``read_since`` (delta and snapshot catch-up, also
  across leader compactions) replays to the same state and acks the
  leader's cursor;
* a flow-state checkpoint loads back to the fold it was built from.
"""

import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.controller.journal import JournalCursor, JournalState, StateJournal
from repro.controller.replication import StandbyController
from repro.net.flow import FiveTuple
from repro.obi.flowstate import (
    CheckpointRestore,
    FlowStateCheckpointer,
    load_checkpoint,
)
from repro.protocol.messages import JournalStream, ReplicaAck

names = st.sampled_from(["fw", "ips", "lb", "nat"])
obi_ids = st.sampled_from(["obi-1", "obi-2", "obi-3"])
small = st.integers(min_value=0, max_value=50)

controller_records = st.one_of(
    st.builds(lambda g: {"rec": "generation", "generation": g}, small),
    st.builds(
        lambda n, p: {"rec": "app", "op": "register", "name": n, "priority": p},
        names, small,
    ),
    st.builds(lambda n: {"rec": "app", "op": "unregister", "name": n}, names),
    st.builds(lambda p: {"rec": "segment", "path": p},
              st.sampled_from(["corp", "dmz", "corp/eng"])),
    st.builds(
        lambda o, x: {"rec": "obi", "obi_id": o, "segment": "corp",
                      "callback_url": f"http://127.0.0.1:9/{o}", "xid_high": x},
        obi_ids, small,
    ),
    st.builds(lambda o: {"rec": "obi_forgotten", "obi_id": o}, obi_ids),
    st.builds(
        lambda o, v, x: {"rec": "deploy", "obi_id": o, "digest": f"sha256:{v}",
                         "graph_version": v, "xid_high": x},
        obi_ids, small, small,
    ),
)

#: (record, compact after it, sync the standby after it)
leader_steps = st.lists(
    st.tuples(controller_records, st.booleans(), st.booleans()),
    min_size=1, max_size=30,
)

ROUNDTRIP = settings(max_examples=40, deadline=None)


def assert_replay_round_trips(path, live):
    result = StateJournal.replay(path)
    assert not result.truncated
    assert result.state == live
    return result


class TestLeaderJournal:
    @ROUNDTRIP
    @given(steps=leader_steps, fsync_every=st.integers(1, 4))
    def test_replay_equals_live_fold(self, steps, fsync_every):
        with tempfile.TemporaryDirectory() as root:
            journal = StateJournal(
                Path(root) / "leader.journal", fsync_every=fsync_every
            )
            live = JournalState()
            for record, compact, _ in steps:
                journal.append(record)
                live.apply(record)
                if compact:
                    journal.compact(live)
            journal.close()
            result = assert_replay_round_trips(journal.path, live)
            reopened = StateJournal(journal.path)
            assert reopened.cursor() == JournalCursor(
                journal.segment, result.records
            )
            reopened.close()


def sync(leader, standby, cursor):
    batch = leader.read_since(cursor)
    ack = standby.handle_message(JournalStream(
        leader_id="c1", epoch=1, snapshot=batch.snapshot,
        segment=batch.cursor.segment, offset=batch.cursor.offset,
        records=batch.records,
    ))
    assert isinstance(ack, ReplicaAck)
    return JournalCursor(ack.segment, ack.offset)


class TestStandbyReplica:
    @ROUNDTRIP
    @given(steps=leader_steps)
    def test_replica_replays_to_the_leader_state(self, steps):
        with tempfile.TemporaryDirectory() as root:
            standby = StandbyController("r1", Path(root) / "replica.journal")
            cursor = JournalCursor()
            leader = StateJournal(Path(root) / "leader.journal", fsync_every=1)
            live = JournalState()
            for record, compact, sync_now in steps:
                leader.append(record)
                live.apply(record)
                if compact:
                    leader.compact(live)
                if sync_now:
                    cursor = sync(leader, standby, cursor)
            cursor = sync(leader, standby, cursor)
            assert cursor == leader.cursor() == standby.cursor()
            assert standby.snapshots_received >= 1  # first contact
            assert standby.state() == live
            assert_replay_round_trips(leader.path, live)
            leader.close()

    @ROUNDTRIP
    @given(before=leader_steps, after=leader_steps)
    def test_catch_up_after_leader_compaction(self, before, after):
        with tempfile.TemporaryDirectory() as root:
            standby = StandbyController("r1", Path(root) / "replica.journal")
            leader = StateJournal(Path(root) / "leader.journal", fsync_every=1)
            live = JournalState()
            cursor = JournalCursor()
            for record, _, _ in before:
                leader.append(record)
                live.apply(record)
            cursor = sync(leader, standby, cursor)
            leader.compact(live)
            for record, _, _ in after:
                leader.append(record)
                live.apply(record)
            snapshots = standby.snapshots_received
            cursor = sync(leader, standby, cursor)
            assert standby.snapshots_received == snapshots + 1
            assert cursor == leader.cursor()
            assert standby.state() == live
            # A delta round after the catch-up lands on the new segment.
            leader.append({"rec": "segment", "path": "tail"})
            live.apply({"rec": "segment", "path": "tail"})
            cursor = sync(leader, standby, cursor)
            assert standby.snapshots_received == snapshots + 1
            assert cursor == leader.cursor()
            assert standby.state() == live
            leader.close()


keys = st.builds(
    lambda port: FiveTuple(0x0A000001, 0xC0A80009, port, 80, 6),
    st.integers(min_value=1, max_value=6),
)
checkpoint_steps = st.lists(
    st.one_of(
        st.tuples(st.just("flow"), keys, small),
        st.tuples(st.just("gone"), keys, small),
        st.tuples(st.just("generation"), keys, small),
        st.tuples(st.just("snapshot"), keys, small),
    ),
    min_size=1, max_size=30,
)


class TestFlowStateCheckpoint:
    @ROUNDTRIP
    @given(steps=checkpoint_steps, fsync_every=st.integers(1, 4))
    def test_checkpoint_loads_back_to_its_fold(self, steps, fsync_every):
        with tempfile.TemporaryDirectory() as root:
            checkpoint = FlowStateCheckpointer(
                Path(root) / "flows.journal", fsync_every=fsync_every
            )
            live = CheckpointRestore()
            for kind, key, value in steps:
                if kind == "flow":
                    entry = {"key": key.to_dict(), "version": value,
                             "session": {"ct_state": f"s{value}"},
                             "protected": value % 2 == 0}
                    checkpoint.record_entry(key, entry)
                    live.apply({"rec": "flow", "entry": entry})
                elif kind == "gone":
                    checkpoint.record_remove(key)
                    live.apply({"rec": "flow_gone", "key": key.to_dict()})
                elif kind == "generation":
                    checkpoint.record_generation(value)
                    live.apply({"rec": "state_generation", "generation": value})
                else:
                    assert checkpoint.snapshot(live)
            checkpoint.close()
            assert checkpoint.dropped_records == 0
            restored = load_checkpoint(checkpoint.path)
            assert not restored.truncated
            assert restored.generation == live.generation
            assert restored.by_key == live.by_key
