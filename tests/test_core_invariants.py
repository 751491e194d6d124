"""Tests for the runtime invariant checkers (TLA+ GraphInvariant / Agreement)."""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.consensus.ballots import Ballot
from repro.consensus.timestamps import LogicalTimestamp
from repro.core.history import CommandStatus
from repro.core.invariants import (
    check_agreement,
    check_all,
    check_execution_consistency,
    check_graph_invariant,
    check_same_key_predecessors,
    check_timestamp_order,
)
from tests.conftest import build_caesar_cluster, make_command


def run_conflicting_workload(n_commands_per_node: int = 4, seed: int = 1,
                             wait_condition: bool = True):
    sim, _, replicas = build_caesar_cluster(seed=seed, wait_condition=wait_condition)
    commands = [(i, make_command(i, k, key=f"hot-{k % 2}", origin=i))
                for i in range(5) for k in range(n_commands_per_node)]
    for origin, command in commands:
        replicas[origin].submit(command)
    ids = [c.command_id for _, c in commands]
    finished = sim.run_until(
        lambda: all(r.has_executed(cid) for r in replicas for cid in ids),
        deadline=200000)
    assert finished
    return replicas


class TestCheckersOnHealthyRuns:
    def test_all_invariants_hold_after_conflicting_workload(self):
        replicas = run_conflicting_workload()
        assert check_all(replicas) == []

    def test_all_invariants_hold_without_wait_condition(self):
        replicas = run_conflicting_workload(wait_condition=False, seed=3)
        assert check_all(replicas) == []

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_invariants_hold_across_seeds(self, seed):
        replicas = run_conflicting_workload(n_commands_per_node=3, seed=seed)
        assert check_all(replicas) == []


class TestCheckersDetectViolations:
    def test_agreement_violation_detected(self):
        """Two replicas holding different stable timestamps for one command."""
        _, _, replicas = build_caesar_cluster()
        command = make_command(0, 0, key="x")
        replicas[0].history.update(command, LogicalTimestamp(1, 0), set(),
                                   CommandStatus.STABLE, Ballot.initial(0))
        replicas[1].history.update(command, LogicalTimestamp(9, 0), set(),
                                   CommandStatus.STABLE, Ballot.initial(0))
        violations = check_agreement(replicas)
        assert len(violations) == 1
        assert "stable at" in violations[0]

    def test_graph_invariant_violation_detected(self):
        """A stable later command missing its earlier conflicting predecessor."""
        _, _, replicas = build_caesar_cluster()
        replica = replicas[0]
        early = make_command(0, 0, key="x")
        late = make_command(1, 0, key="x")
        replica.history.update(early, LogicalTimestamp(1, 0), set(),
                               CommandStatus.STABLE, Ballot.initial(0))
        replica.history.update(late, LogicalTimestamp(5, 1), set(),
                               CommandStatus.STABLE, Ballot.initial(1))
        violations = check_graph_invariant([replica])
        assert len(violations) == 1
        assert "missing from predecessors" in violations[0]

    def test_graph_invariant_execution_order_violation_detected(self):
        _, _, replicas = build_caesar_cluster()
        replica = replicas[0]
        early = make_command(0, 0, key="x")
        late = make_command(1, 0, key="x")
        replica.history.update(early, LogicalTimestamp(1, 0), set(),
                               CommandStatus.STABLE, Ballot.initial(0))
        replica.history.update(late, LogicalTimestamp(5, 1), {early.command_id},
                               CommandStatus.STABLE, Ballot.initial(1))
        # Execute them in the wrong order directly.
        replica.execution_log.append(late)
        replica.execution_log.append(early)
        violations = check_graph_invariant([replica])
        assert any("before" in violation for violation in violations)

    def test_execution_consistency_violation_detected(self):
        _, _, replicas = build_caesar_cluster()
        first = make_command(0, 0, key="x")
        second = make_command(1, 0, key="x")
        replicas[0].execution_log.append(first)
        replicas[0].execution_log.append(second)
        replicas[1].execution_log.append(second)
        replicas[1].execution_log.append(first)
        violations = check_execution_consistency(replicas)
        assert len(violations) == 1
        assert "disagree" in violations[0]

    def test_timestamp_order_violation_detected(self):
        _, _, replicas = build_caesar_cluster()
        replica = replicas[0]
        early = make_command(0, 0, key="x")
        late = make_command(1, 0, key="x")
        replica.history.update(early, LogicalTimestamp(7, 0), set(),
                               CommandStatus.STABLE, Ballot.initial(0))
        replica.history.update(late, LogicalTimestamp(2, 1), set(),
                               CommandStatus.STABLE, Ballot.initial(1))
        replica.execution_log.append(early)
        replica.execution_log.append(late)
        violations = check_timestamp_order([replica])
        assert len(violations) == 1

    def test_cross_key_predecessor_detected(self):
        _, _, replicas = build_caesar_cluster()
        replica = replicas[0]
        other = make_command(0, 0, key="y")
        command = make_command(1, 0, key="x")
        replica.history.update(other, LogicalTimestamp(1, 0), set(),
                               CommandStatus.STABLE, Ballot.initial(0))
        replica.history.update(command, LogicalTimestamp(5, 1), {other.command_id},
                               CommandStatus.STABLE, Ballot.initial(1))
        violations = check_same_key_predecessors([replica])
        assert len(violations) == 1
        assert "on key 'y'" in violations[0]

    def test_crashed_replicas_are_skipped(self):
        _, _, replicas = build_caesar_cluster()
        command = make_command(0, 0, key="x")
        replicas[0].history.update(command, LogicalTimestamp(1, 0), set(),
                                   CommandStatus.STABLE, Ballot.initial(0))
        replicas[1].history.update(command, LogicalTimestamp(9, 0), set(),
                                   CommandStatus.STABLE, Ballot.initial(0))
        replicas[1].crashed = True
        assert check_agreement(replicas) == []
