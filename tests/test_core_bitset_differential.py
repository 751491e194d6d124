"""Differential test: optimized decision path vs the naive reference.

Hypothesis generates random command streams (proposals, retries/status
changes, garbage collection) and drives the optimized stack
(:class:`~repro.core.history.CommandHistory` + bitset
``compute_predecessor_mask`` + incremental
:class:`~repro.core.predecessors.WaitManager`) and the naive reference stack
(:mod:`repro.core.reference`) through the *same* sequence, the way a CAESAR
acceptor would: compute predecessors, UPDATE, notify the wait condition,
evaluate proposals.  At every step both stacks must agree on

* the computed predecessor set of every proposal,
* every WAIT outcome (park vs immediate, OK vs NACK, resolution order),
* the parked bookkeeping (count, per-key flags),
* GC behaviour (removal, and predecessor sets afterwards), and
* the key-scoped interning: every key numbers the ids it has seen densely
  from 0, an entry's predecessor mask round-trips through its key's
  interner to the reference set, and no mask is wider than its key's
  interner.

This equivalence is what makes the interned-bitset representation
trustworthy: the reference is the executable specification.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.consensus.ballots import Ballot
from repro.consensus.command import Command
from repro.consensus.timestamps import LogicalTimestamp
from repro.core.history import CommandHistory, CommandStatus
from repro.core.predecessors import WaitManager, compute_predecessors
from repro.core.reference import (ReferenceCommandHistory, ReferenceWaitManager,
                                  reference_compute_predecessors)

BALLOT = Ballot.initial(0)

KEYS = ("alpha", "beta")

#: Statuses a later step may move an existing command to (a retry raises the
#: timestamp and re-computes predecessors, mirroring the protocol).
BUMP_STATUSES = (CommandStatus.SLOW_PENDING, CommandStatus.ACCEPTED,
                 CommandStatus.REJECTED, CommandStatus.STABLE)

#: One step: (kind, command slot 0-11, timestamp counter 1-30, selector).
#: kind 0 = propose (UPDATE + WAIT), 1 = status bump / retry, 2 = remove.
steps_strategy = st.lists(
    st.tuples(st.integers(0, 2), st.integers(0, 11), st.integers(1, 30),
              st.integers(0, 3)),
    min_size=1, max_size=40)


class DualStack:
    """The optimized and reference stacks driven in lock step."""

    def __init__(self) -> None:
        self.optimized = CommandHistory()
        self.reference = ReferenceCommandHistory()
        self.opt_outcomes = []
        self.ref_outcomes = []
        self.clock = 0.0
        self.opt_wait = WaitManager(self.optimized, lambda: self.clock)
        self.ref_wait = ReferenceWaitManager(self.reference, lambda: self.clock)
        self.commands = {}

    def command_for(self, slot: int) -> Command:
        command = self.commands.get(slot)
        if command is None:
            # Slot determines identity, key and read/write flavour, so
            # repeated steps on one slot model retries of one command.
            command = Command(command_id=(slot, 0), key=KEYS[slot % len(KEYS)],
                              operation="get" if slot % 4 == 3 else "put",
                              value=f"v{slot}", origin=0)
            self.commands[slot] = command
        return command

    def compute_both(self, command: Command, timestamp: LogicalTimestamp):
        opt = compute_predecessors(self.optimized, command, timestamp, None)
        ref = reference_compute_predecessors(self.reference, command, timestamp, None)
        assert opt == ref, (command, timestamp, opt, ref)
        return opt

    def update_both(self, command, timestamp, predecessors, status):
        entry = self.optimized.update(command, timestamp, predecessors, status, BALLOT)
        self.reference.update(command, timestamp, predecessors, status, BALLOT)
        self.opt_wait.notify_entry(entry)
        self.ref_wait.notify_change(command.key)

    def check_agreement(self) -> None:
        assert self.opt_outcomes == self.ref_outcomes
        assert self.opt_wait.parked_count() == self.ref_wait.parked_count()
        for key in KEYS:
            assert self.opt_wait.has_parked(key) == self.ref_wait.has_parked(key)
        assert len(self.optimized) == len(self.reference)
        for key in KEYS:
            bucket = self.optimized.bucket(key)
            if bucket is not None:
                assert sorted(bucket.index_of.values()) == list(range(len(bucket.id_of)))
        for slot, command in self.commands.items():
            opt_entry = self.optimized.get(command.command_id)
            ref_entry = self.reference.get(command.command_id)
            assert (opt_entry is None) == (ref_entry is None)
            if opt_entry is not None:
                key = command.key
                assert set(opt_entry.predecessors) == set(ref_entry.predecessors)
                assert (self.optimized.mask_from_ids(key, ref_entry.predecessors)
                        == opt_entry.pred_mask)
                assert self.optimized.index_of(key, command.command_id) == opt_entry.index
                assert (opt_entry.pred_mask.bit_length()
                        <= len(self.optimized.bucket(key).id_of))
                assert opt_entry.timestamp == ref_entry.timestamp
                assert opt_entry.status is ref_entry.status
            assert (self.optimized.predecessors_of(command.command_id)
                    == frozenset(self.reference.predecessors_of(command.command_id)))


def drive(steps) -> DualStack:
    stack = DualStack()
    for kind, slot, counter, selector in steps:
        command = stack.command_for(slot)
        # Unique total order: the slot doubles as the timestamp's node id.
        timestamp = LogicalTimestamp(counter, slot)
        if kind == 0:
            # Propose: UPDATE with computed predecessors, then WAIT — the
            # acceptor's fast-propose path.
            predecessors = stack.compute_both(command, timestamp)
            stack.update_both(command, timestamp, predecessors,
                              CommandStatus.FAST_PENDING)
            stack.opt_wait.evaluate(
                command, timestamp,
                lambda ok, waited, c=command: stack.opt_outcomes.append(
                    (c.command_id, ok, waited)))
            stack.ref_wait.evaluate(
                command, timestamp,
                lambda ok, waited, c=command: stack.ref_outcomes.append(
                    (c.command_id, ok, waited)))
        elif kind == 1:
            # Status bump / retry of a command both histories already hold.
            if stack.optimized.get(command.command_id) is None:
                continue
            status = BUMP_STATUSES[selector % len(BUMP_STATUSES)]
            predecessors = stack.compute_both(command, timestamp)
            stack.opt_wait.drop_command(command.command_id, command.key)
            stack.ref_wait.drop_command(command.command_id, command.key)
            stack.update_both(command, timestamp, predecessors, status)
        else:
            # GC: remove only when present and the key has nothing parked,
            # the same deferral rule HistoryCompactor applies.
            if stack.optimized.get(command.command_id) is None:
                continue
            if stack.opt_wait.has_parked(command.key):
                continue
            stack.optimized.remove(command.command_id)
            stack.reference.remove(command.command_id)
        stack.clock += 1.0
        stack.check_agreement()
    return stack


class TestBitsetDifferential:
    @settings(max_examples=200, deadline=None)
    @given(steps=steps_strategy)
    def test_random_streams_agree(self, steps):
        drive(steps)

    def test_park_then_resolve_sequence_agrees(self):
        # A deterministic stream that forces parking: a proposal behind two
        # pending conflicting writes, which then finalize one by one.  Each
        # finalize recomputes predecessors, so the stabilized blockers
        # whitelist the parked proposal and it resolves OK.
        steps = [
            (0, 0, 10, 0),   # write alpha @10
            (0, 2, 20, 0),   # write alpha @20
            (0, 4, 5, 0),    # write alpha @5 — parked behind both
            (1, 0, 10, 3),   # slot 0 -> STABLE, whitelists slot 4
            (1, 2, 20, 3),   # slot 2 -> STABLE, blocker mask empties -> OK
        ]
        stack = drive(steps)
        ok, waited = next((ok, waited) for cid, ok, waited in stack.opt_outcomes
                          if cid == (4, 0))
        assert ok is True and waited > 0  # parked, then released OK

    def test_late_proposal_behind_stable_suffix_nacks(self):
        # A conflicting command stabilized *before* the proposal existed does
        # not whitelist it, so the late small-timestamp proposal NACKs
        # immediately — on both stacks.
        steps = [
            (0, 0, 10, 0),   # write alpha @10
            (1, 0, 10, 3),   # slot 0 -> STABLE; predecessors exclude slot 4
            (0, 4, 5, 0),    # write alpha @5 arrives late
        ]
        stack = drive(steps)
        ok, waited = next((ok, waited) for cid, ok, waited in stack.opt_outcomes
                          if cid == (4, 0))
        assert ok is False and waited == 0  # immediate NACK

    def test_gc_after_delivery_agrees(self):
        steps = [
            (0, 0, 3, 0),
            (0, 2, 7, 0),
            (1, 0, 3, 3),    # slot 0 stable
            (2, 0, 0, 0),    # remove slot 0
            (0, 6, 9, 0),    # new proposal no longer sees the removed command
        ]
        stack = drive(steps)
        assert stack.optimized.get((0, 0)) is None
        entry = stack.optimized.get((6, 0))
        assert entry is not None
        assert (0, 0) not in entry.predecessors
