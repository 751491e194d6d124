"""Naive reference implementations of the decision-path data structures.

These are the pre-optimization ``CommandHistory`` / ``compute_predecessors`` /
``WaitManager`` implementations, kept verbatim as an executable specification:
plain ``Set[CommandId]`` predecessor sets, an unordered per-key index, and a
wait condition that re-scans every parked proposal on every history change.

The production implementations in :mod:`repro.core.history` and
:mod:`repro.core.predecessors` replace the sets with integer bitsets over a
per-key interner (a command's bit is numbered within its key), the per-key
index with timestamp-sorted buckets, and the full re-scan with incremental
blocker bookkeeping.  The differential test
(``tests/test_core_bitset_differential.py``) drives both against random
command streams and asserts identical predecessor sets, park/OK/NACK
outcomes and GC behaviour — which is what makes the optimized structures
trustworthy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Iterable, Iterator, List, Optional, Set

from repro.consensus.ballots import Ballot
from repro.consensus.command import Command, CommandId
from repro.consensus.timestamps import LogicalTimestamp
from repro.core.history import CommandStatus


@dataclass(slots=True)
class ReferenceHistoryEntry:
    """One row of ``H_i`` in the naive representation."""

    command: Command
    timestamp: LogicalTimestamp
    predecessors: Set[CommandId]
    status: CommandStatus
    ballot: Ballot
    forced: bool = False

    @property
    def command_id(self) -> CommandId:
        """Id of the command this entry describes."""
        return self.command.command_id


class ReferenceCommandHistory:
    """Set-based command history with an unordered per-key index."""

    def __init__(self) -> None:
        self._entries: Dict[CommandId, ReferenceHistoryEntry] = {}
        self._by_key: Dict[str, Set[CommandId]] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, command_id: CommandId) -> bool:
        return command_id in self._entries

    def get(self, command_id: CommandId) -> Optional[ReferenceHistoryEntry]:
        return self._entries.get(command_id)

    def update(self, command: Command, timestamp: LogicalTimestamp,
               predecessors: Iterable[CommandId], status: CommandStatus,
               ballot: Ballot, forced: bool = False) -> ReferenceHistoryEntry:
        entry = self._entries.get(command.command_id)
        if entry is None:
            entry = ReferenceHistoryEntry(command=command, timestamp=timestamp,
                                          predecessors=set(predecessors), status=status,
                                          ballot=ballot, forced=forced)
            self._entries[command.command_id] = entry
            self._by_key.setdefault(command.key, set()).add(command.command_id)
        else:
            entry.command = command
            entry.timestamp = timestamp
            entry.predecessors = set(predecessors)
            entry.status = status
            entry.ballot = ballot
            entry.forced = forced
        return entry

    def remove(self, command_id: CommandId) -> None:
        entry = self._entries.pop(command_id, None)
        if entry is not None:
            bucket = self._by_key.get(entry.command.key)
            if bucket is not None:
                bucket.discard(command_id)
                if not bucket:
                    del self._by_key[entry.command.key]

    def entries(self) -> Iterator[ReferenceHistoryEntry]:
        return iter(self._entries.values())

    def conflicting_with(self, command: Command) -> Iterator[ReferenceHistoryEntry]:
        for command_id in self._by_key.get(command.key, ()):  # same key = candidate conflict
            if command_id == command.command_id:
                continue
            entry = self._entries[command_id]
            if entry.command.conflicts_with(command):
                yield entry

    def predecessors_of(self, command_id: CommandId) -> Set[CommandId]:
        entry = self._entries.get(command_id)
        if entry is None:
            return set()
        return set(entry.predecessors)

    def status_of(self, command_id: CommandId) -> Optional[CommandStatus]:
        entry = self._entries.get(command_id)
        return entry.status if entry is not None else None


def reference_compute_predecessors(history: ReferenceCommandHistory, command: Command,
                                   timestamp: LogicalTimestamp,
                                   whitelist: Optional[FrozenSet[CommandId]]) -> Set[CommandId]:
    """COMPUTEPREDECESSORS over the naive history (Figure 3)."""
    predecessors: Set[CommandId] = set()
    for entry in history.conflicting_with(command):
        if whitelist is None:
            if entry.timestamp < timestamp:
                predecessors.add(entry.command_id)
        else:
            if entry.command_id in whitelist:
                predecessors.add(entry.command_id)
            elif entry.status.survived_proposal and entry.timestamp < timestamp:
                predecessors.add(entry.command_id)
    return predecessors


@dataclass
class _ReferenceParked:
    """A proposal whose reply is delayed by the wait condition."""

    command: Command
    timestamp: LogicalTimestamp
    on_resolved: Callable[[bool, float], None]
    parked_at: float


class ReferenceWaitManager:
    """WAIT implemented as a full re-scan of every parked proposal."""

    def __init__(self, history: ReferenceCommandHistory, now: Callable[[], float],
                 enabled: bool = True) -> None:
        self._history = history
        self._now = now
        self._enabled = enabled
        self._parked_by_key: Dict[str, List[_ReferenceParked]] = {}
        self.total_waits = 0
        self.total_wait_ms = 0.0

    def _scan(self, command: Command, timestamp: LogicalTimestamp) -> tuple:
        blockers: List = []
        witnesses: List = []
        command_id = command.command_id
        for entry in self._history.conflicting_with(command):
            if entry.timestamp <= timestamp:
                continue
            if command_id in entry.predecessors:
                continue
            if entry.status.is_finalizing:
                witnesses.append(entry)
            else:
                blockers.append(entry)
        return blockers, witnesses

    def evaluate(self, command: Command, timestamp: LogicalTimestamp,
                 on_resolved: Callable[[bool, float], None]) -> None:
        blockers, witnesses = self._scan(command, timestamp)
        if blockers and self._enabled:
            parked = _ReferenceParked(command=command, timestamp=timestamp,
                                      on_resolved=on_resolved, parked_at=self._now())
            self._parked_by_key.setdefault(command.key, []).append(parked)
            return
        if blockers and not self._enabled:
            # Ablation mode: a proposal that would have waited is rejected outright.
            on_resolved(False, 0.0)
            return
        on_resolved(not witnesses, 0.0)

    def notify_change(self, key: str) -> None:
        parked_list = self._parked_by_key.get(key)
        if not parked_list:
            return
        still_parked: List[_ReferenceParked] = []
        resolved: List[tuple] = []
        for parked in parked_list:
            blockers, witnesses = self._scan(parked.command, parked.timestamp)
            if blockers:
                still_parked.append(parked)
                continue
            waited = self._now() - parked.parked_at
            resolved.append((parked, not witnesses, waited))
        if still_parked:
            self._parked_by_key[key] = still_parked
        else:
            self._parked_by_key.pop(key, None)
        for parked, ok, waited in resolved:
            self.total_waits += 1
            self.total_wait_ms += waited
            parked.on_resolved(ok, waited)

    def parked_count(self) -> int:
        return sum(len(v) for v in self._parked_by_key.values())

    def has_parked(self, key: str) -> bool:
        return key in self._parked_by_key

    def drop_command(self, command_id: CommandId, key: str) -> None:
        parked_list = self._parked_by_key.get(key)
        if not parked_list:
            return
        remaining = [p for p in parked_list if p.command.command_id != command_id]
        if remaining:
            self._parked_by_key[key] = remaining
        else:
            self._parked_by_key.pop(key, None)
