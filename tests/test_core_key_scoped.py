"""Regression tests for key-scoped interning on the decision path.

Conflicts are per key, so every bitmask the ordering core builds (predecessor
sets, WAIT blocker/witness sets, the delivered set) describes commands of one
key, and each key numbers its own commands.  These tests pin what that buys:

* a fresh key's masks are as wide as the key's own history, however many
  commands the node has seen on other keys;
* a STABLE on one key costs O(1) history lookups however many stable
  commands are pending on another key;
* a key's numbering survives its bucket being emptied by the history GC, so
  a late message naming a collected command still resolves to its bit.
"""

from __future__ import annotations

from repro.consensus.ballots import Ballot
from repro.consensus.timestamps import LogicalTimestamp
from repro.core.delivery import DeliveryManager, HistoryCompactor
from repro.core.history import CommandHistory, CommandStatus
from repro.core.messages import Stable
from repro.core.predecessors import WaitManager, compute_predecessor_mask
from tests.conftest import build_caesar_cluster, make_command

BALLOT = Ballot.initial(0)


def ts(counter: int, node: int = 0) -> LogicalTimestamp:
    return LogicalTimestamp(counter, node)


class TestMaskWidth:
    def test_fresh_key_masks_stay_bucket_sized_after_long_history(self):
        history = CommandHistory()
        waits = WaitManager(history, lambda: 0.0)
        delivery = DeliveryManager(history, lambda command: None)
        for seq in range(20_000):
            other = make_command(1, seq, key=f"other-{seq % 100}")
            history.update(other, ts(seq + 1), 0, CommandStatus.STABLE, BALLOT)
            delivery.on_stable(other)
        assert delivery.delivered_count == 20_000

        # Four pending writes on a fresh key, each after the previous one.
        fresh = [make_command(2, seq, key="fresh") for seq in range(4)]
        masks = {}
        for offset, command in enumerate(fresh):
            stamp = ts(30_000 + 10 * offset)
            masks[command.command_id] = compute_predecessor_mask(history, command, stamp)
            history.update(command, stamp, masks[command.command_id],
                           CommandStatus.FAST_PENDING, BALLOT)
        assert [history.get(c.command_id).index for c in fresh] == [0, 1, 2, 3]
        assert history.get(fresh[-1].command_id).pred_mask == 0b0111

        # A late proposal parks behind all four; its blocker mask is 4 bits.
        late = make_command(3, 0, key="fresh")
        outcomes = []
        waits.evaluate(late, ts(29_999), lambda ok, waited: outcomes.append(ok))
        assert waits.has_parked("fresh") and outcomes == []
        parked = waits._parked_by_key["fresh"][0]
        bucket_size = 5  # four writes + the interned late proposal
        assert parked.blocker_mask.bit_length() <= bucket_size

        # The four stabilize (without listing the late proposal) and deliver.
        for command in fresh:
            entry = history.get(command.command_id)
            entry = history.update(command, entry.timestamp, masks[command.command_id],
                                   CommandStatus.STABLE, BALLOT)
            waits.notify_entry(entry)
            delivery.on_stable(command)
        assert outcomes == [False]  # NACKed by the stable witnesses
        for command in fresh:
            assert history.get(command.command_id).pred_mask.bit_length() <= bucket_size
            assert delivery.is_delivered("fresh", command.command_id)
        assert delivery._delivered["fresh"].bit_length() <= bucket_size


class TestKeyLocalDelivery:
    def test_stable_on_other_key_does_not_scan_pending(self):
        history = CommandHistory()
        delivery = DeliveryManager(history, lambda command: None)
        blocker = make_command(1, 0, key="a")  # never becomes stable
        for seq in range(1_000):
            waiting = make_command(2, seq, key="a")
            history.update(waiting, ts(seq + 10), {blocker.command_id},
                           CommandStatus.STABLE, BALLOT)
            assert delivery.on_stable(waiting) == []
        assert delivery.pending_count() == 1_000

        calls = []
        original_get = history.get

        def counting_get(command_id):
            calls.append(command_id)
            return original_get(command_id)

        history.get = counting_get
        other = make_command(3, 0, key="b")
        history.update(other, ts(5_000), (), CommandStatus.STABLE, BALLOT)
        delivered = delivery.on_stable(other)
        assert [c.command_id for c in delivered] == [other.command_id]
        assert len(calls) <= 4, f"{len(calls)} history lookups for one STABLE"
        assert delivery.pending_count() == 1_000


class TestInternerOutlivesCollection:
    def test_late_stable_names_collected_command_by_its_original_bit(self):
        sim, _, replicas = build_caesar_cluster(seed=3)
        first = make_command(0, 0, key="x", origin=0)
        second = make_command(0, 1, key="x", origin=0)
        for command in (first, second):
            replicas[0].submit(command)
            assert sim.run_until(
                lambda c=command: all(r.has_executed(c.command_id) for r in replicas),
                deadline=60_000)
        replica = replicas[1]
        first_bit = 1 << replica.history.get(first.command_id).index

        compactor = HistoryCompactor(replicas, lambda delay, callback: None,
                                     interval_ms=100.0)
        assert compactor.collect() == 2
        assert replica.history.get(first.command_id) is None
        assert replica.history.bucket("x").entries == []

        # A late STABLE for a third command lists the collected first one.
        late = make_command(4, 0, key="x", origin=4)
        replica._on_stable(4, Stable(command=late, ballot=Ballot.initial(4),
                                     timestamp=ts(10_000, 4),
                                     predecessors=frozenset({first.command_id})))
        assert replica.history.get(late.command_id).pred_mask == first_bit
        assert replica.history.index_of("x", late.command_id) == 2
        assert replica.has_executed(late.command_id)
