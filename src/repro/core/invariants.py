"""Runtime checkers for CAESAR's correctness invariants.

The paper proves Consistency via two theorems (Section V-F), which its TLA+
specification states as ``GraphInvariant`` and ``Agreement``.  This module
re-states those invariants over a *running cluster* so tests and long
simulations can check them continuously:

* :func:`check_graph_invariant` — for any two conflicting commands that are
  stable on some node, the one with the smaller final timestamp appears in
  the predecessor set of the other (before loop-breaking adjusts edges of
  already-delivered commands, the delivered order is used as the witness).
* :func:`check_agreement` — no two nodes hold stable entries for the same
  command with different timestamps.
* :func:`check_execution_consistency` — conflicting commands are executed in
  the same relative order on every replica (the end-to-end observable
  property of Generalized Consensus).
* :func:`check_timestamp_order` — on every replica, conflicting commands are
  executed in increasing final-timestamp order.
* :func:`check_same_key_predecessors` — every predecessor a replica records
  is a command on the same key.  Conflicts are per key, so this always holds
  for the protocol; the history's key-scoped interning relies on it (a
  predecessor on another key would be numbered in the wrong interner and
  never be seen delivered).

Each checker returns a list of human-readable violation descriptions; an
empty list means the invariant holds.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.core.caesar import CaesarReplica
from repro.core.history import CommandStatus


def check_agreement(replicas: Sequence[CaesarReplica]) -> List[str]:
    """No two replicas decided the same command at different timestamps."""
    violations: List[str] = []
    decided_timestamps = {}
    for replica in replicas:
        if replica.crashed:
            continue
        for entry in replica.history.stable_entries():
            known = decided_timestamps.get(entry.command_id)
            if known is None:
                decided_timestamps[entry.command_id] = (replica.node_id, entry.timestamp)
            elif known[1] != entry.timestamp:
                violations.append(
                    f"command {entry.command_id} stable at {entry.timestamp} on node "
                    f"{replica.node_id} but at {known[1]} on node {known[0]}")
    return violations


def check_graph_invariant(replicas: Sequence[CaesarReplica]) -> List[str]:
    """Conflicting stable commands are ordered by timestamp on every replica.

    The delivered order is the observable witness: if both commands were
    executed by a replica, the smaller-timestamp one must have been executed
    first (BREAKLOOP may have pruned the explicit predecessor edge once both
    sides are stable, so the predecessor set alone is not the right witness).
    """
    violations: List[str] = []
    for replica in replicas:
        if replica.crashed:
            continue
        stable_entries = list(replica.history.stable_entries())
        for i, first in enumerate(stable_entries):
            for second in stable_entries[i + 1:]:
                if not first.command.conflicts_with(second.command):
                    continue
                earlier, later = ((first, second) if first.timestamp < second.timestamp
                                  else (second, first))
                pos_earlier = replica.execution_log.position(earlier.command_id)
                pos_later = replica.execution_log.position(later.command_id)
                if pos_earlier is None or pos_later is None:
                    # Not executed yet on this replica; the predecessor edge
                    # must still be present so delivery happens in order.
                    if (pos_later is None and pos_earlier is None
                            and earlier.command_id not in later.predecessors):
                        violations.append(
                            f"node {replica.node_id}: {earlier.command_id} "
                            f"(ts {earlier.timestamp}) missing from predecessors of "
                            f"{later.command_id} (ts {later.timestamp})")
                    continue
                if pos_earlier > pos_later:
                    violations.append(
                        f"node {replica.node_id}: executed {later.command_id} "
                        f"(ts {later.timestamp}) before {earlier.command_id} "
                        f"(ts {earlier.timestamp})")
    return violations


def check_execution_consistency(replicas: Sequence) -> List[str]:
    """Conflicting commands appear in the same relative order on every replica.

    Works for any protocol (it only relies on the execution logs), so the
    baselines are checked with the same function as CAESAR.
    """
    violations: List[str] = []
    live = [replica for replica in replicas if not replica.crashed]
    for i, first in enumerate(live):
        for second in live[i + 1:]:
            for pair in first.execution_log.conflicting_order_violations(second.execution_log):
                violations.append(
                    f"nodes {first.node_id}/{second.node_id} disagree on the order of "
                    f"{pair[0]} and {pair[1]}")
    return violations


def check_timestamp_order(replicas: Sequence[CaesarReplica]) -> List[str]:
    """Execution order of conflicting commands follows their final timestamps."""
    violations: List[str] = []
    for replica in replicas:
        if replica.crashed:
            continue
        executed = [command for command in replica.execution_log]
        for i, first in enumerate(executed):
            first_entry = replica.history.get(first.command_id)
            if first_entry is None or first_entry.status is not CommandStatus.STABLE:
                continue
            for second in executed[i + 1:]:
                if not first.conflicts_with(second):
                    continue
                second_entry = replica.history.get(second.command_id)
                if second_entry is None or second_entry.status is not CommandStatus.STABLE:
                    continue
                if first_entry.timestamp > second_entry.timestamp:
                    violations.append(
                        f"node {replica.node_id}: executed {first.command_id} "
                        f"(ts {first_entry.timestamp}) before {second.command_id} "
                        f"(ts {second_entry.timestamp}) despite larger timestamp")
    return violations


def check_same_key_predecessors(replicas: Sequence[CaesarReplica]) -> List[str]:
    """Every history entry's predecessors are commands on the entry's key.

    A predecessor the replica holds no entry for (never seen, or collected)
    has no key to compare and is skipped.
    """
    violations: List[str] = []
    for replica in replicas:
        if replica.crashed:
            continue
        history = replica.history
        for entry in history.entries():
            key = entry.command.key
            for pred in entry.predecessors:
                pred_entry = history.get(pred)
                if pred_entry is not None and pred_entry.command.key != key:
                    violations.append(
                        f"node {replica.node_id}: {entry.command_id} (key {key!r}) has "
                        f"predecessor {pred} on key {pred_entry.command.key!r}")
    return violations


def check_all(replicas: Sequence[CaesarReplica]) -> List[str]:
    """Run every CAESAR invariant checker and concatenate the violations."""
    violations: List[str] = []
    violations.extend(check_agreement(replicas))
    violations.extend(check_graph_invariant(replicas))
    violations.extend(check_execution_consistency(replicas))
    violations.extend(check_timestamp_order(replicas))
    violations.extend(check_same_key_predecessors(replicas))
    return violations
