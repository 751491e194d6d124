"""Delivery of stable commands (stable phase, Figure 3 lines 9-17).

Once a command is stable locally it may only be executed after every command
in its predecessor set has been executed.  Because predecessor sets are
computed against *proposed* timestamps (which a retry can later raise), two
stable commands can reference each other; BREAKLOOP removes the edge that
contradicts the final timestamp order, so the remaining precedence graph is
acyclic and delivery always makes progress.

The delivered set is one bitmask per key, numbered by that key's interner
(see :mod:`repro.core.history`), so DELIVERABLE is a single mask test on a
mask no wider than the key's history.  Pending stable commands are indexed
by key too.  A command's predecessors are all on its own key (conflicts are
per key), so a pending command becomes deliverable only when a same-key
command is delivered or BREAKLOOP edits its mask — and BREAKLOOP only
reconciles the newly stable command with same-key pending commands.  A
STABLE therefore reconciles and drains only its own key: the delivery order
is the one a scan of every pending command would produce, at a cost that no
longer grows with the number of commands pending on other keys.  (A
restarted replica that is still catching up can hold thousands: about 2,900
in the crash-restart benchmark, where rescanning all of them on every STABLE
took about half of the run's time under cProfile, and keying the drain
roughly doubled the commands completed per second.)

:class:`HistoryCompactor` is the (opt-in) garbage collector: once a command
has been delivered by *every* replica it can never influence another
decision, so each replica's history entry for it is removed — long overload
runs stop scanning dead entries.  This is a cluster-level oracle and is
therefore driven from the harness, not from the protocol.
"""

from __future__ import annotations

from collections import defaultdict
from operator import itemgetter
from typing import Callable, DefaultDict, Dict, Iterable, List, Optional, Sequence, Set

from repro.consensus.command import Command, CommandId
from repro.core.history import CommandHistory, CommandStatus, HistoryEntry


class DeliveryManager:
    """Per-replica executor of stable commands in predecessor order.

    Args:
        history: the replica's command history (shared, mutated by BREAKLOOP).
        execute: callback that applies a command to the state machine.
        on_delivered: optional hook invoked after each delivery (used by the
            replica to unblock waiting proposals and record metrics).
    """

    def __init__(self, history: CommandHistory, execute: Callable[[Command], None],
                 on_delivered: Optional[Callable[[Command], None]] = None) -> None:
        self._history = history
        self._execute = execute
        self._on_delivered = on_delivered
        #: key -> bitmask of the key's delivered commands.
        self._delivered: DefaultDict[str, int] = defaultdict(int)
        #: key -> that key's stable commands still waiting, in arrival order.
        #: A key is dropped as soon as nothing on it is pending, so the map is
        #: empty exactly when nothing is pending.
        self._pending: DefaultDict[str, Dict[CommandId, Command]] = defaultdict(dict)
        self.delivered_order: List[CommandId] = []

    @property
    def delivered_count(self) -> int:
        """Number of commands executed by this replica so far."""
        return len(self.delivered_order)

    def is_delivered(self, key: str, command_id: CommandId) -> bool:
        """Whether the command (on ``key``) has been executed locally."""
        index = self._history.index_of(key, command_id)
        return index is not None and (self._delivered[key] >> index) & 1 == 1

    def pending_count(self) -> int:
        """Stable commands still waiting for their predecessors."""
        return sum(len(pending) for pending in self._pending.values())

    def missing_predecessors(self) -> Set[CommandId]:
        """Predecessors blocking pending commands that are not stable locally.

        These are the commands whose STABLE message this replica has not seen
        (lost, or decided while it was crashed/partitioned) — exactly what a
        catch-up request should ask peers for.  Predecessors that are stable
        locally but undelivered are excluded: delivery will reach them.
        """
        missing: Set[CommandId] = set()
        history = self._history
        for key, pending in self._pending.items():
            delivered = self._delivered[key]
            for command_id in pending:
                entry = history.get(command_id)
                if entry is None:
                    continue
                for pred in history.iter_mask(key, entry.pred_mask & ~delivered):
                    pred_entry = history.get(pred)
                    if pred_entry is None or pred_entry.status is not CommandStatus.STABLE:
                        missing.add(pred)
        return missing

    # --------------------------------------------------------------- helpers

    def _break_loop(self, entry: HistoryEntry) -> None:
        """BREAKLOOP from Figure 3: reconcile mutual predecessor references.

        For the newly stable command ``c`` and every *stable* command ``c̄`` in
        its predecessor set: if ``c̄`` has a smaller final timestamp, ``c`` must
        not appear among ``c̄``'s predecessors; if ``c̄`` has a larger final
        timestamp, ``c̄`` must not appear among ``c``'s predecessors.
        """
        history = self._history
        key = entry.command.key
        my_bit = 1 << entry.index
        my_key = entry.ts_key()
        mask = entry.pred_mask
        remove = 0
        remaining = mask
        while remaining:
            low = remaining & -remaining
            remaining ^= low
            pred_entry = history.entry_at(key, low.bit_length() - 1)
            if pred_entry is None or pred_entry.status is not CommandStatus.STABLE:
                continue
            if pred_entry.ts_key() < my_key:
                pred_entry.pred_mask &= ~my_bit
            else:
                remove |= low
        if remove:
            entry.pred_mask = mask & ~remove

    # -------------------------------------------------------------- main API

    def on_stable(self, command: Command) -> List[Command]:
        """Register a newly stable command and deliver everything now possible.

        Only ``command.key`` is reconciled and drained: every other key's
        pending commands were already drained as far as they go, and nothing
        here touches them.  Returns the list of commands delivered as a
        result (in order).
        """
        command_id = command.command_id
        key = command.key
        history = self._history
        delivered = self._delivered[key]
        entry = history.get(command_id)
        index = entry.index if entry is not None else history.index_of(key, command_id)
        if index is not None and (delivered >> index) & 1:
            return []
        if not self._pending:
            # Fast path for the overwhelmingly common case: nothing else is
            # waiting and every predecessor has already been delivered, so
            # the command can be executed without the loop-breaking or
            # ready-list machinery (which would reach the same conclusion).
            # "Nothing" means on any key: BREAKLOOP may still drop delivered
            # later-timestamp predecessors from this command's mask, which
            # catch-up and recovery replies show, so it keeps running
            # exactly when it always has.
            if (entry is not None and entry.status is CommandStatus.STABLE
                    and entry.pred_mask & ~delivered == 0):
                self._deliver(command, entry.index)
                return [command]
        pending = self._pending[key]
        pending[command_id] = command
        if entry is not None and entry.status is CommandStatus.STABLE:
            self._break_loop(entry)
            # The new command may also unblock older stable commands whose
            # predecessor sets reference it; exactly those pairs are
            # re-reconciled (every other pending pair is unchanged since the
            # stable event that last reconciled it).
            bit = 1 << entry.index
            my_key = entry.ts_key()
            for other_id in pending:
                if other_id == command_id:
                    continue
                other = history.get(other_id)
                if (other is None or other.status is not CommandStatus.STABLE
                        or not other.pred_mask & bit):
                    continue
                if my_key < other.ts_key():
                    entry.pred_mask &= ~(1 << other.index)
                else:
                    other.pred_mask &= ~bit
        return self._drain((key,))

    def _deliver(self, command: Command, index: int) -> None:
        self._delivered[command.key] |= 1 << index
        self.delivered_order.append(command.command_id)
        self._execute(command)
        if self._on_delivered is not None:
            self._on_delivered(command)

    def _drain(self, keys: Iterable[str]) -> List[Command]:
        """Deliver pending stable commands on ``keys`` until none is deliverable."""
        delivered_now: List[Command] = []
        history = self._history
        all_pending = self._pending
        progress = True
        while progress:
            progress = False
            # Deliver in timestamp order so conflicting commands follow the
            # agreed order; non-conflicting ties are broken deterministically.
            ready: List[tuple] = []
            for key in keys:
                if key not in all_pending:
                    continue
                pending = all_pending[key]
                delivered_mask = self._delivered[key]
                for command_id, command in pending.items():
                    entry = history.get(command_id)
                    if entry is not None and entry.pred_mask & ~delivered_mask == 0:
                        ready.append((entry.ts_key(), command_id, command, entry, pending))
            ready.sort(key=itemgetter(0))
            for _, command_id, command, entry, pending in ready:
                if command_id not in pending:
                    continue
                del pending[command_id]
                if not pending:
                    del all_pending[command.key]
                self._deliver(command, entry.index)
                delivered_now.append(command)
                progress = True
        return delivered_now

    def retry_pending(self) -> List[Command]:
        """Re-attempt delivery on every key (after external history mutations)."""
        return self._drain(list(self._pending))


class HistoryCompactor:
    """Cluster-level garbage collection of histories (opt-in).

    Watches every replica's ``delivered_order`` through a cursor; once a
    command has been delivered by all replicas it is removed from each
    replica's :class:`~repro.core.history.CommandHistory` via the (previously
    unused) ``remove`` path.  Removal at a replica is deferred while any
    proposal is parked on the command's key there, so the incremental wait
    bookkeeping never sees an entry vanish from under it.

    Collection changes subsequent predecessor sets (collected commands no
    longer appear), which is safe — a command delivered everywhere is ordered
    before anything proposed later at every replica — but it does change
    message bytes relative to a non-collected run.  It is therefore *off by
    default* and only enabled explicitly (``--history-gc`` on long overload
    runs), never for figure reproduction.
    """

    def __init__(self, replicas: Sequence[object], set_timer: Callable,
                 interval_ms: float) -> None:
        self._replicas = [r for r in replicas
                          if hasattr(r, "history") and hasattr(r, "delivery")]
        self._set_timer = set_timer
        self.interval_ms = interval_ms
        self._cursors = [0] * len(self._replicas)
        self._seen: Dict[CommandId, int] = {}
        self._deferred: List[CommandId] = []
        self.commands_removed = 0

    def start(self) -> None:
        """Arm the periodic collection timer."""
        self._set_timer(self.interval_ms, self._tick)

    def _tick(self) -> None:
        self.collect()
        self._set_timer(self.interval_ms, self._tick)

    def collect(self) -> int:
        """Run one collection pass; returns how many commands were removed."""
        full = len(self._replicas)
        if full == 0:
            return 0
        ready: List[CommandId] = self._deferred
        self._deferred = []
        seen = self._seen
        for i, replica in enumerate(self._replicas):
            order = replica.delivery.delivered_order
            cursor = min(self._cursors[i], len(order))
            for command_id in order[cursor:]:
                count = seen.get(command_id, 0) + 1
                if count == full:
                    seen.pop(command_id, None)
                    ready.append(command_id)
                else:
                    seen[command_id] = count
            self._cursors[i] = len(order)
        removed = 0
        for command_id in ready:
            if self._remove_everywhere(command_id):
                removed += 1
            else:
                self._deferred.append(command_id)
        self.commands_removed += removed
        return removed

    def _remove_everywhere(self, command_id: CommandId) -> bool:
        """Remove one command's entry at every replica, or defer entirely."""
        entries = []
        for replica in self._replicas:
            entry = replica.history.get(command_id)
            if entry is None:
                continue
            wait_manager = getattr(replica, "wait_manager", None)
            if wait_manager is not None and wait_manager.has_parked(entry.command.key):
                return False
            entries.append((replica, entry))
        for replica, _ in entries:
            replica.history.remove(command_id)
        return True
