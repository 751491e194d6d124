"""The per-node command history ``H_i`` (Section V-A of the paper).

``H_i`` maps every command a node has heard about to a tuple
``<c, T, Pred, status, ballot, forced>``.  Two representation choices make
the decision path cheap:

* **Key-scoped interned ids.**  Two commands conflict only when they touch
  the same key, so a command's predecessors, the commands that block its
  WAIT and the commands it waits for at delivery are all on its own key.
  Each key's bucket therefore owns a ``CommandId -> dense int`` interner,
  and predecessor sets are Python int bitmasks numbered within the key
  (bit ``k`` set = the key's ``k``-th interned command is a predecessor).
  A mask is then as wide as the key's history, not the node's: the cost of
  ``&``, ``~`` and a bit walk on a Python int grows with its width, so a
  node-wide numbering made every mask operation pay for every command the
  node had ever seen (on CPython 3.11, ``a & ~b`` takes 0.73 µs at the
  5.7k bits one replica reaches in a 14 s run at 30% conflicts, against
  0.11 µs at the 27 bits its busiest key reaches).  The wire format is
  untouched: messages still carry ``FrozenSet[CommandId]``, translated at
  the codec boundary with :meth:`CommandHistory.mask_from_ids` /
  :meth:`CommandHistory.ids_from_mask`, which take the key of the command
  whose predecessors they translate.
  :func:`repro.core.invariants.check_same_key_predecessors` checks the
  same-key property this rests on.
* **Timestamp-ordered per-key buckets.**  The per-key index keeps entries
  sorted by timestamp, so the predecessor computation takes the ``<
  timestamp`` prefix by binary search (as a precomputed bucket mask minus a
  usually-empty suffix) and the wait condition scans only the ``> timestamp``
  suffix.

Interner indices are *never* recycled, even when :meth:`CommandHistory.remove`
garbage-collects an entry, and a bucket (with its interner) is kept when its
last entry is removed — a late retransmission referencing a collected
command must keep resolving to the same bit so delivered-set bitmasks stay
valid.
"""

from __future__ import annotations

import enum
from bisect import bisect_left, bisect_right
from collections import defaultdict
from typing import DefaultDict, Dict, FrozenSet, Iterable, Iterator, List, Optional, Tuple, Union

from repro.consensus.ballots import Ballot
from repro.consensus.command import Command, CommandId
from repro.consensus.timestamps import LogicalTimestamp

#: Shared empty frozenset returned whenever a mask materializes to nothing.
_EMPTY_IDS: FrozenSet[CommandId] = frozenset()


class CommandStatus(enum.Enum):
    """Lifecycle of a command inside ``H_i``."""

    FAST_PENDING = "fast-pending"
    SLOW_PENDING = "slow-pending"
    ACCEPTED = "accepted"
    REJECTED = "rejected"
    STABLE = "stable"

    @property
    def is_finalizing(self) -> bool:
        """Statuses that release the wait condition (accepted or stable)."""
        return self in (CommandStatus.ACCEPTED, CommandStatus.STABLE)

    @property
    def survived_proposal(self) -> bool:
        """Statuses beyond the (rejectable) proposal phases."""
        return self in (CommandStatus.SLOW_PENDING, CommandStatus.ACCEPTED, CommandStatus.STABLE)


class HistoryEntry:
    """One row of ``H_i``: the node's knowledge about a single command.

    ``pred_mask`` is the predecessor set as a bitmask in the interner of
    the command's key; the :attr:`predecessors` view materializes it to a
    ``frozenset`` of ids on demand (cached until the mask changes) for
    cold-path readers such as recovery, catch-up supply and the invariant
    checks.
    """

    __slots__ = ("command", "timestamp", "status", "ballot", "forced",
                 "index", "_bucket", "_pred_mask", "_pred_ids")

    def __init__(self, command: Command, timestamp: LogicalTimestamp,
                 pred_mask: int, status: CommandStatus, ballot: Ballot,
                 forced: bool, index: int, bucket: "_KeyBucket") -> None:
        self.command = command
        self.timestamp = timestamp
        self.status = status
        self.ballot = ballot
        self.forced = forced
        #: This command's index in its key's interner (``1 << index`` is its bit).
        self.index = index
        self._bucket = bucket
        self._pred_mask = pred_mask
        self._pred_ids: Optional[FrozenSet[CommandId]] = None

    @property
    def command_id(self) -> CommandId:
        """Id of the command this entry describes."""
        return self.command.command_id

    @property
    def pred_mask(self) -> int:
        """Predecessor set as an interned bitmask."""
        return self._pred_mask

    @pred_mask.setter
    def pred_mask(self, mask: int) -> None:
        if mask != self._pred_mask:
            self._pred_mask = mask
            self._pred_ids = None

    @property
    def predecessors(self) -> FrozenSet[CommandId]:
        """The predecessor set as command ids (cached until the mask changes)."""
        ids = self._pred_ids
        if ids is None:
            ids = self._bucket.ids_from_mask(self._pred_mask)
            self._pred_ids = ids
        return ids

    def ts_key(self) -> Tuple[int, int]:
        """Sort key equivalent to the timestamp's total order."""
        timestamp = self.timestamp
        return (timestamp.counter, timestamp.node_id)


class _KeyBucket:
    """Entries for one key, kept sorted by timestamp, and the key's interner.

    ``keys`` and ``entries`` are parallel lists; ``keys[i]`` is
    ``(counter, node_id, index)`` for ``entries[i]`` (the index component
    makes keys unique, so removal never needs an equality scan).  ``all_mask``
    / ``write_mask`` are the bitmask of every entry / every *writing* entry in
    the bucket — the predecessor computation takes the whole-bucket mask and
    strips the (usually tiny) ``>= timestamp`` suffix instead of scanning the
    prefix.  ``index_of`` / ``id_of`` number every id ever referenced on this
    key, live entry or not, in order of first sight.
    """

    __slots__ = ("keys", "entries", "all_mask", "write_mask", "index_of", "id_of")

    def __init__(self) -> None:
        self.keys: List[Tuple[int, int, int]] = []
        self.entries: List[HistoryEntry] = []
        self.all_mask = 0
        self.write_mask = 0
        self.index_of: Dict[CommandId, int] = {}
        self.id_of: List[CommandId] = []

    def intern(self, command_id: CommandId) -> int:
        """Index of a command id on this key, assigning one on first sight."""
        index = self.index_of.get(command_id)
        if index is None:
            index = self.index_of[command_id] = len(self.id_of)
            self.id_of.append(command_id)
        return index

    def mask_from_ids(self, ids: Iterable[CommandId]) -> int:
        """Bitmask for a collection of command ids (interning as needed)."""
        index_of = self.index_of
        id_of = self.id_of
        mask = 0
        for command_id in ids:
            index = index_of.get(command_id)
            if index is None:
                index = index_of[command_id] = len(id_of)
                id_of.append(command_id)
            mask |= 1 << index
        return mask

    def ids_from_mask(self, mask: int) -> FrozenSet[CommandId]:
        """The command ids whose bits are set in ``mask``."""
        if not mask:
            return _EMPTY_IDS
        id_of = self.id_of
        ids = []
        while mask:
            low = mask & -mask
            ids.append(id_of[low.bit_length() - 1])
            mask ^= low
        return frozenset(ids)

    def insert(self, entry: HistoryEntry) -> None:
        timestamp = entry.timestamp
        key = (timestamp.counter, timestamp.node_id, entry.index)
        position = bisect_left(self.keys, key)
        self.keys.insert(position, key)
        self.entries.insert(position, entry)
        bit = 1 << entry.index
        self.all_mask |= bit
        if entry.command.is_write:
            self.write_mask |= bit

    def discard(self, entry: HistoryEntry, timestamp: LogicalTimestamp) -> None:
        """Remove ``entry``, which is currently filed under ``timestamp``."""
        key = (timestamp.counter, timestamp.node_id, entry.index)
        position = bisect_left(self.keys, key)
        if position < len(self.keys) and self.keys[position] == key:
            del self.keys[position]
            del self.entries[position]
            bit = 1 << entry.index
            self.all_mask &= ~bit
            self.write_mask &= ~bit

    def suffix_start(self, timestamp: LogicalTimestamp) -> int:
        """Index of the first entry with a timestamp strictly greater."""
        return bisect_right(self.keys, (timestamp.counter, timestamp.node_id, 1 << 62))

    def prefix_mask(self, timestamp: LogicalTimestamp, writes_only: bool) -> int:
        """Bitmask of entries with a timestamp strictly smaller.

        Computed as the whole-bucket mask minus the ``>= timestamp`` suffix;
        at propose time new timestamps are usually the largest in the bucket,
        so the suffix loop rarely runs.
        """
        mask = self.write_mask if writes_only else self.all_mask
        keys = self.keys
        position = bisect_left(keys, (timestamp.counter, timestamp.node_id))
        if position < len(keys):
            entries = self.entries
            for i in range(position, len(keys)):
                mask &= ~(1 << entries[i].index)
        return mask


class CommandHistory:
    """Mutable map from command id to :class:`HistoryEntry`, with interning.

    Besides the history proper, this object owns the per-key
    ``CommandId -> dense int`` interners used by the wait condition and the
    delivery manager: every bitmask on one node that describes commands of
    key ``k`` draws from ``k``'s index space, so every interner method takes
    the key.
    """

    def __init__(self) -> None:
        self._entries: Dict[CommandId, HistoryEntry] = {}
        #: Subscripting creates a key's bucket on first use; ``get`` does not.
        self._by_key: DefaultDict[str, _KeyBucket] = defaultdict(_KeyBucket)

    # ------------------------------------------------------------- interning

    def intern(self, key: str, command_id: CommandId) -> int:
        """Index of a command id on ``key``, assigning one on first sight."""
        return self._by_key[key].intern(command_id)

    def index_of(self, key: str, command_id: CommandId) -> Optional[int]:
        """Index of an id already interned on ``key``, ``None`` if never seen."""
        bucket = self._by_key.get(key)
        return None if bucket is None else bucket.index_of.get(command_id)

    def entry_at(self, key: str, index: int) -> Optional[HistoryEntry]:
        """The live entry interned at ``index`` on ``key``, ``None`` when absent."""
        return self._entries.get(self._by_key[key].id_of[index])

    def mask_from_ids(self, key: str, ids: Iterable[CommandId]) -> int:
        """Bitmask on ``key`` for a collection of command ids (interning as needed)."""
        return self._by_key[key].mask_from_ids(ids)

    def ids_from_mask(self, key: str, mask: int) -> FrozenSet[CommandId]:
        """The command ids whose bits are set in a mask on ``key``."""
        if not mask:
            return _EMPTY_IDS
        return self._by_key[key].ids_from_mask(mask)

    def iter_mask(self, key: str, mask: int) -> Iterator[CommandId]:
        """Iterate the command ids whose bits are set in a mask on ``key``."""
        if mask:
            id_of = self._by_key[key].id_of
            while mask:
                low = mask & -mask
                yield id_of[low.bit_length() - 1]
                mask ^= low

    # ------------------------------------------------------------ collection

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, command_id: CommandId) -> bool:
        return command_id in self._entries

    def get(self, command_id: CommandId) -> Optional[HistoryEntry]:
        """The entry for a command, or ``None`` if the node has never seen it."""
        return self._entries.get(command_id)

    def bucket(self, key: str) -> Optional[_KeyBucket]:
        """The timestamp-sorted bucket for ``key`` (``None`` if never seen)."""
        return self._by_key.get(key)

    def update(self, command: Command, timestamp: LogicalTimestamp,
               predecessors: Union[int, Iterable[CommandId]], status: CommandStatus,
               ballot: Ballot, forced: bool = False) -> HistoryEntry:
        """Insert or update the entry for ``command`` (the UPDATE of Section V-A).

        ``predecessors`` is either a bitmask on ``command.key`` (the hot
        path — stored as-is, no copy) or any iterable of command ids
        (interned on the key's interner on the way in).  An existing entry
        is mutated in place rather than replaced, so concurrent holders of
        the entry (e.g. the delivery manager's loop breaking) always observe
        the node's latest knowledge.
        """
        entry = self._entries.get(command.command_id)
        bucket = self._by_key[command.key] if entry is None else entry._bucket
        if isinstance(predecessors, int):
            mask = predecessors
        else:
            mask = bucket.mask_from_ids(predecessors)
        if entry is None:
            entry = HistoryEntry(command=command, timestamp=timestamp,
                                 pred_mask=mask, status=status, ballot=ballot,
                                 forced=forced, index=bucket.intern(command.command_id),
                                 bucket=bucket)
            self._entries[command.command_id] = entry
            bucket.insert(entry)
        else:
            if entry.timestamp != timestamp:
                bucket.discard(entry, entry.timestamp)
                entry.timestamp = timestamp
                bucket.insert(entry)
            entry.command = command
            entry.pred_mask = mask
            entry.status = status
            entry.ballot = ballot
            entry.forced = forced
        return entry

    def remove(self, command_id: CommandId) -> None:
        """Forget a command (garbage collection once stable everywhere).

        The bucket and its interner are kept, even once empty, so the
        command's bit stays valid in any surviving bitmask (delivered sets,
        other entries' predecessors, a late message naming it).
        """
        entry = self._entries.pop(command_id, None)
        if entry is not None:
            entry._bucket.discard(entry, entry.timestamp)

    def entries(self) -> Iterator[HistoryEntry]:
        """Iterate over every entry (order unspecified)."""
        return iter(self._entries.values())

    def conflicting_with(self, command: Command) -> Iterator[HistoryEntry]:
        """Entries for commands that conflict with ``command`` (excluding itself).

        Yields in timestamp order (the bucket order); callers that care about
        order get it for free, callers that do not are unaffected.
        """
        bucket = self._by_key.get(command.key)
        if bucket is None:
            return
        command_id = command.command_id
        for entry in bucket.entries:
            if entry.command_id == command_id:
                continue
            if entry.command.conflicts_with(command):
                yield entry

    def predecessors_of(self, command_id: CommandId) -> FrozenSet[CommandId]:
        """The GETPREDECESSORS accessor; empty set when the command is unknown.

        Returns the entry's cached immutable view — callers must not expect
        a private copy (none of them mutate it; the previous per-call
        ``set()`` copy existed only to protect against that).
        """
        entry = self._entries.get(command_id)
        if entry is None:
            return _EMPTY_IDS
        return entry.predecessors

    def predecessor_mask_of(self, command_id: CommandId) -> int:
        """Bitmask variant of :meth:`predecessors_of` (no allocation at all)."""
        entry = self._entries.get(command_id)
        return entry.pred_mask if entry is not None else 0

    def status_of(self, command_id: CommandId) -> Optional[CommandStatus]:
        """Status of a command, or ``None`` if unknown."""
        entry = self._entries.get(command_id)
        return entry.status if entry is not None else None

    def stable_entries(self) -> Iterator[HistoryEntry]:
        """Entries currently marked stable."""
        for entry in self._entries.values():
            if entry.status is CommandStatus.STABLE:
                yield entry
