"""The CAESAR replica: multi-leader Generalized Consensus by timestamp agreement.

One :class:`CaesarReplica` instance plays both roles the paper describes:

* **command leader** for the commands its co-located clients submit — it runs
  the fast proposal phase, and when needed the slow proposal and retry
  phases, before broadcasting the STABLE decision;
* **acceptor** for every command in the system — it evaluates proposals
  against its history ``H``, enforces the wait condition, and delivers stable
  commands in predecessor order.

The phase structure, message names and decision rules follow the pseudocode
of Figures 3-5 of the paper; the recovery phase lives in
:mod:`repro.core.recovery`.  Dispatch, quorum tracking, ballot bookkeeping
and the failure detector come from the runtime kernel
(:mod:`repro.runtime.kernel`) — this module contains protocol logic only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Optional, Set

from repro.consensus.ballots import Ballot
from repro.consensus.command import Command, CommandId
from repro.consensus.interface import DecisionKind
from repro.consensus.quorums import QuorumSystem
from repro.consensus.timestamps import LogicalTimestamp, TimestampGenerator
from repro.core.config import CaesarConfig
from repro.core.delivery import DeliveryManager
from repro.core.history import CommandHistory, CommandStatus
from repro.core.messages import (
    FastPropose,
    FastProposeReply,
    Recovery,
    RecoveryReply,
    Retry,
    RetryReply,
    SlowPropose,
    SlowProposeReply,
    Stable,
)
from repro.core.predecessors import WaitManager, compute_predecessor_mask
from repro.core.recovery import RecoveryManager
from repro.kvstore.state_machine import StateMachine
from repro.runtime.kernel import BallotRegister, ProtocolKernel, QuorumTracker, handles
from repro.sim.costs import CostModel
from repro.sim.network import Network
from repro.sim.simulator import Simulator

#: Leader-side phases a command can be in.
PHASE_FAST = "fast_proposal"
PHASE_SLOW = "slow_proposal"
PHASE_RETRY = "retry"
PHASE_DONE = "done"

#: Shared instance for the (very common) empty predecessor set carried by
#: wire messages, so the hot path does not allocate a fresh frozenset per
#: broadcast at low conflict rates.
_EMPTY_FROZENSET: FrozenSet = frozenset()


def _freeze(ids) -> FrozenSet:
    """Frozen copy of ``ids``, reusing one shared object when empty."""
    return frozenset(ids) if ids else _EMPTY_FROZENSET


@dataclass
class LeaderState:
    """Book-keeping the command leader keeps while driving one command."""

    command: Command
    ballot: Ballot
    phase: str
    timestamp: LogicalTimestamp
    whitelist: Optional[FrozenSet[CommandId]]
    votes: QuorumTracker = field(default_factory=QuorumTracker.unreachable)
    predecessors: Set[CommandId] = field(default_factory=set)
    timer: Any = None  # the clock's handle (``cancel()`` / ``cancelled``)
    started_at: float = 0.0
    phase_started_at: float = 0.0
    went_slow: bool = False
    recovered: bool = False


class CaesarReplica(ProtocolKernel):
    """A CAESAR node (command leader + acceptor) on the simulated substrate.

    Args:
        node_id: index of this replica in the cluster.
        sim: shared simulator.
        network: shared network.
        quorums: quorum sizes (classic and fast) for the cluster size.
        state_machine: local replicated state machine.
        config: protocol configuration.
        cost_model: CPU cost model.
    """

    protocol_name = "caesar"

    def __init__(self, node_id: int, sim: Simulator, network: Network, quorums: QuorumSystem,
                 state_machine: StateMachine, config: Optional[CaesarConfig] = None,
                 cost_model: Optional[CostModel] = None) -> None:
        super().__init__(node_id, sim, network, quorums, state_machine, cost_model)
        self.config = config or CaesarConfig()
        self.timestamps = TimestampGenerator(node_id)
        self.history = CommandHistory()
        self.wait_manager = WaitManager(self.history, lambda: self.sim.now,
                                        enabled=self.config.wait_condition_enabled)
        self.delivery = DeliveryManager(self.history, self._execute_stable,
                                        on_delivered=self._after_delivery)
        self.leader_states: Dict[CommandId, LeaderState] = {}
        self.ballots = BallotRegister()
        self.wait_time_samples: List[float] = []
        self.recovery = RecoveryManager(self)
        if self.config.recovery_enabled:
            self.use_failure_detector(self.config.heartbeat_every_ms,
                                      self.config.suspect_after_ms,
                                      self.recovery.on_suspect)

    # ----------------------------------------------------------- client path

    def propose(self, command: Command) -> None:
        """Become the leader of ``command`` and start its fast proposal phase."""
        timestamp = self.timestamps.next_timestamp()
        ballot = Ballot.initial(self.node_id)
        self.ballots.setdefault(command.command_id, ballot)
        self._start_fast_proposal(command, ballot, timestamp, whitelist=None)

    # ------------------------------------------------------- leader: phases

    def _start_fast_proposal(self, command: Command, ballot: Ballot,
                             timestamp: LogicalTimestamp,
                             whitelist: Optional[FrozenSet[CommandId]],
                             recovered: bool = False) -> None:
        """FASTPROPOSALPHASE (Figure 4, lines P1-P10)."""
        state = LeaderState(command=command, ballot=ballot, phase=PHASE_FAST,
                            timestamp=timestamp, whitelist=whitelist,
                            votes=QuorumTracker(self.quorums.fast),
                            started_at=self.sim.now, phase_started_at=self.sim.now,
                            recovered=recovered)
        self.leader_states[command.command_id] = state
        state.timer = self.set_timer(self.config.fast_proposal_timeout_ms,
                                     lambda: self._on_fast_proposal_timeout(command.command_id))
        proposal = FastPropose(command=command, ballot=ballot, timestamp=timestamp,
                               whitelist=whitelist)
        self.broadcast(proposal, size_bytes=64 + command.payload_size)
        self.track_retransmit(("lead", command.command_id), proposal,
                              size_bytes=64 + command.payload_size,
                              tracker=state.votes,
                              done=lambda s=state: s.phase == PHASE_DONE)

    def _start_slow_proposal(self, state: LeaderState) -> None:
        """SLOWPROPOSALPHASE (Figure 4, lines P21-P30), after a fast-quorum timeout."""
        self.stats.slow_proposals += 1
        state.phase = PHASE_SLOW
        state.votes = QuorumTracker(self.quorums.classic)
        state.phase_started_at = self.sim.now
        state.went_slow = True
        proposal = SlowPropose(command=state.command, ballot=state.ballot,
                               timestamp=state.timestamp,
                               predecessors=_freeze(state.predecessors))
        self.broadcast(proposal, size_bytes=64 + state.command.payload_size)
        self.track_retransmit(("lead", state.command.command_id), proposal,
                              size_bytes=64 + state.command.payload_size,
                              tracker=state.votes,
                              done=lambda s=state: s.phase == PHASE_DONE)

    def _start_retry(self, state: LeaderState) -> None:
        """RETRYPHASE (Figure 4, lines R1-R4)."""
        self.stats.retries += 1
        state.phase = PHASE_RETRY
        state.votes = QuorumTracker(self.quorums.classic)
        state.went_slow = True
        command_id = state.command.command_id
        self.record_phase_time(command_id, "propose", self.sim.now - state.phase_started_at)
        state.phase_started_at = self.sim.now
        retry = Retry(command=state.command, ballot=state.ballot,
                      timestamp=state.timestamp,
                      predecessors=_freeze(state.predecessors))
        self.broadcast(retry, size_bytes=64 + state.command.payload_size)
        self.track_retransmit(("lead", command_id), retry,
                              size_bytes=64 + state.command.payload_size,
                              tracker=state.votes,
                              done=lambda s=state: s.phase == PHASE_DONE)

    def _start_stable(self, state: LeaderState) -> None:
        """STABLEPHASE (Figure 4, lines S1): broadcast the final decision."""
        command_id = state.command.command_id
        if state.phase == PHASE_RETRY:
            self.record_phase_time(command_id, "retry", self.sim.now - state.phase_started_at)
        else:
            self.record_phase_time(command_id, "propose", self.sim.now - state.phase_started_at)
        if state.timer is not None:
            state.timer.cancel()
        state.phase = PHASE_DONE
        self.resolve_retransmit(("lead", command_id))
        if state.recovered:
            kind = DecisionKind.RECOVERED
        elif state.went_slow:
            kind = DecisionKind.SLOW
        else:
            kind = DecisionKind.FAST
        if kind is DecisionKind.FAST:
            self.stats.fast_decisions += 1
        else:
            self.stats.slow_decisions += 1
        self.record_decided(command_id, kind)
        self.record_phase_time(command_id, "deliver_start", 0.0)
        self.decisions.get(command_id)  # ensure record exists for local proposals
        self.broadcast(Stable(command=state.command, ballot=state.ballot,
                              timestamp=state.timestamp,
                              predecessors=_freeze(state.predecessors)),
                       size_bytes=64 + state.command.payload_size)

    def _on_fast_proposal_timeout(self, command_id: CommandId) -> None:
        """Fall back to the slow proposal phase when a fast quorum is unavailable."""
        state = self.leader_states.get(command_id)
        if state is None or state.phase != PHASE_FAST:
            return
        replies = state.votes.payloads()
        if len(replies) < self.quorums.classic:
            # Not even a classic quorum yet: keep waiting (the cluster may have
            # more than f slow/crashed nodes right now).
            state.timer = self.set_timer(self.config.fast_proposal_timeout_ms,
                                         lambda: self._on_fast_proposal_timeout(command_id))
            return
        self._merge_fast_replies(state)
        if any(not reply.ok for reply in replies):
            self._start_retry(state)
        else:
            self._start_slow_proposal(state)

    def _merge_fast_replies(self, state: LeaderState) -> List[FastProposeReply]:
        """Aggregate reply timestamps/predecessors (Figure 4, lines P3-P4)."""
        replies = state.votes.payloads()
        timestamps = [reply.timestamp for reply in replies]
        if timestamps:
            state.timestamp = max(timestamps + [state.timestamp])
        for reply in replies:
            state.predecessors.update(reply.predecessors)
        state.predecessors.discard(state.command.command_id)
        return replies

    # -------------------------------------------------- acceptor: proposals

    @handles(FastPropose)
    def _on_fast_propose(self, src: int, message: FastPropose) -> None:
        """Acceptor side of the fast proposal phase (Figure 4, lines P11-P20)."""
        command = message.command
        command_id = command.command_id
        if not self.ballots.allows(command_id, message.ballot):
            return
        existing = self.history.get(command_id)
        if existing is not None and existing.status is CommandStatus.STABLE:
            # Already decided (e.g. a recovery finished first); nothing to do.
            return
        if (existing is not None and existing.status is CommandStatus.ACCEPTED
                and not message.ballot > existing.ballot):
            # A retransmitted proposal at the same ballot must not downgrade
            # the entry a later retry already promoted to ACCEPTED.
            return
        self.ballots[command_id] = message.ballot
        self.timestamps.observe(message.timestamp)
        whitelist_mask = (None if message.whitelist is None
                          else self.history.mask_from_ids(command.key, message.whitelist))
        predecessors = compute_predecessor_mask(self.history, command, message.timestamp,
                                                whitelist_mask)
        self.consume_cpu(self.cost_model.dependency_cost(predecessors.bit_count()))
        entry = self.history.update(command, message.timestamp, predecessors,
                                    CommandStatus.FAST_PENDING, message.ballot,
                                    forced=message.whitelist is not None)
        self.wait_manager.notify_entry(entry)

        def resolved(ok: bool, waited_ms: float) -> None:
            self._answer_proposal(src, command, message.ballot, message.timestamp,
                                  predecessors, ok, waited_ms, fast=True)

        self.wait_manager.evaluate(command, message.timestamp, resolved)

    @handles(SlowPropose)
    def _on_slow_propose(self, src: int, message: SlowPropose) -> None:
        """Acceptor side of the slow proposal phase (Figure 4, lines P31-P39)."""
        command = message.command
        command_id = command.command_id
        if not self.ballots.allows(command_id, message.ballot):
            return
        existing = self.history.get(command_id)
        if existing is not None and existing.status is CommandStatus.STABLE:
            return
        if (existing is not None and existing.status is CommandStatus.ACCEPTED
                and not message.ballot > existing.ballot):
            # See _on_fast_propose: never downgrade ACCEPTED on a resend.
            return
        self.ballots[command_id] = message.ballot
        self.timestamps.observe(message.timestamp)
        predecessors = compute_predecessor_mask(self.history, command, message.timestamp)
        predecessors |= self.history.mask_from_ids(command.key, message.predecessors)
        self_index = self.history.index_of(command.key, command_id)
        if self_index is not None:
            predecessors &= ~(1 << self_index)
        self.consume_cpu(self.cost_model.dependency_cost(predecessors.bit_count()))
        entry = self.history.update(command, message.timestamp, predecessors,
                                    CommandStatus.SLOW_PENDING, message.ballot)
        self.wait_manager.notify_entry(entry)

        def resolved(ok: bool, waited_ms: float) -> None:
            self._answer_proposal(src, command, message.ballot, message.timestamp,
                                  predecessors, ok, waited_ms, fast=False)

        self.wait_manager.evaluate(command, message.timestamp, resolved)

    def _answer_proposal(self, leader: int, command: Command, ballot: Ballot,
                         timestamp: LogicalTimestamp, predecessors: int,
                         ok: bool, waited_ms: float, fast: bool) -> None:
        """Send the (possibly delayed) OK/NACK answer for a proposal.

        ``predecessors`` is the bitmask on ``command.key`` computed when the
        proposal was evaluated; it is translated back to wire-format command
        ids only at the send below.
        """
        command_id = command.command_id
        if waited_ms > 0:
            self.wait_time_samples.append(waited_ms)
        if not self.ballots.allows(command_id, ballot):
            # A higher ballot took over while this proposal was parked.
            return
        entry = self.history.get(command_id)
        if entry is not None and entry.status in (CommandStatus.ACCEPTED, CommandStatus.STABLE):
            # A retry or stable overtook the parked proposal; the leader no
            # longer needs this answer.
            return
        if ok:
            reply_ts = timestamp
            reply_pred = predecessors
            status = CommandStatus.FAST_PENDING if fast else CommandStatus.SLOW_PENDING
            entry = self.history.update(command, timestamp, reply_pred, status, ballot,
                                        forced=entry.forced if entry is not None else False)
        else:
            self.stats.nacks_sent += 1
            reply_ts = self.timestamps.suggestion_greater_than(timestamp)
            reply_pred = compute_predecessor_mask(self.history, command, reply_ts)
            entry = self.history.update(command, reply_ts, reply_pred,
                                        CommandStatus.REJECTED, ballot)
        self.wait_manager.notify_entry(entry)
        reply_cls = FastProposeReply if fast else SlowProposeReply
        self.send(leader, reply_cls(command_id=command_id, ballot=ballot, timestamp=reply_ts,
                                    predecessors=self.history.ids_from_mask(command.key,
                                                                            reply_pred),
                                    ok=ok))

    # ------------------------------------------------------- leader: replies

    @handles(FastProposeReply)
    def _on_fast_propose_reply(self, src: int, message: FastProposeReply) -> None:
        """Leader side of fast-proposal reply aggregation (Figure 4, lines P2-P10)."""
        state = self.leader_states.get(message.command_id)
        if state is None or state.phase != PHASE_FAST or state.ballot != message.ballot:
            return
        if not state.votes.vote(src, message):
            if self._fast_quorum_unreachable(state):
                self._on_fast_proposal_timeout(message.command_id)
            return
        replies = self._merge_fast_replies(state)
        if any(not reply.ok for reply in replies):
            self._start_retry(state)
        else:
            self._start_stable(state)

    def _fast_quorum_unreachable(self, state: LeaderState) -> bool:
        """True when every node the detector still trusts has already voted.

        The missing fast-quorum votes can then only come from suspected
        nodes, so waiting out the full proposal timer is pointless; the
        leader falls back immediately.  Requires a classic quorum of actual
        votes so the timeout handler can complete the slow fallback.
        """
        detector = self.failure_detector
        if detector is None or not detector.suspected:
            return False
        if state.votes.count < self.quorums.classic:
            return False
        voters = set(state.votes.voters())
        return all(node_id in voters or node_id in detector.suspected
                   for node_id in self.network.node_ids)

    @handles(SlowProposeReply)
    def _on_slow_propose_reply(self, src: int, message: SlowProposeReply) -> None:
        """Leader side of slow-proposal reply aggregation (Figure 4, lines P22-P30)."""
        state = self.leader_states.get(message.command_id)
        if state is None or state.phase != PHASE_SLOW or state.ballot != message.ballot:
            return
        if not state.votes.vote(src, message):
            return
        replies = state.votes.payloads()
        timestamps = [reply.timestamp for reply in replies]
        state.timestamp = max(timestamps + [state.timestamp])
        for reply in replies:
            state.predecessors.update(reply.predecessors)
        state.predecessors.discard(message.command_id)
        if any(not reply.ok for reply in replies):
            self._start_retry(state)
        else:
            self._start_stable(state)

    @handles(Retry)
    def _on_retry(self, src: int, message: Retry) -> None:
        """Acceptor side of the retry phase (Figure 4, lines R5-R8): never rejects."""
        command = message.command
        command_id = command.command_id
        if not self.ballots.allows(command_id, message.ballot):
            return
        existing = self.history.get(command_id)
        if existing is not None and existing.status is CommandStatus.STABLE:
            return
        self.ballots[command_id] = message.ballot
        self.timestamps.observe(message.timestamp)
        entry = self.history.update(command, message.timestamp, message.predecessors,
                                    CommandStatus.ACCEPTED, message.ballot)
        extra = compute_predecessor_mask(self.history, command, message.timestamp)
        self.consume_cpu(self.cost_model.dependency_cost(extra.bit_count()))
        self.wait_manager.drop_command(command_id, command.key)
        self.wait_manager.notify_entry(entry)
        self.send(src, RetryReply(command_id=command_id, ballot=message.ballot,
                                  timestamp=message.timestamp,
                                  predecessors=self.history.ids_from_mask(command.key,
                                                                          extra)))

    @handles(RetryReply)
    def _on_retry_reply(self, src: int, message: RetryReply) -> None:
        """Leader side of retry aggregation (Figure 4, lines R2-R4)."""
        state = self.leader_states.get(message.command_id)
        if state is None or state.phase != PHASE_RETRY or state.ballot != message.ballot:
            return
        if not state.votes.vote(src, message):
            return
        for reply in state.votes.payloads():
            state.predecessors.update(reply.predecessors)
        state.predecessors.discard(message.command_id)
        self._start_stable(state)

    # --------------------------------------------------------- stable phase

    @handles(Stable)
    def _on_stable(self, src: int, message: Stable) -> None:
        """Acceptor side of the stable phase (Figure 4, lines S2-S7)."""
        command = message.command
        command_id = command.command_id
        existing = self.history.get(command_id)
        if existing is not None and existing.status is CommandStatus.STABLE:
            return
        self.ballots.observe(command_id, message.ballot)
        self.timestamps.observe(message.timestamp)
        predecessors = self.history.mask_from_ids(command.key, message.predecessors)
        self_index = self.history.index_of(command.key, command_id)
        if self_index is not None:
            predecessors &= ~(1 << self_index)
        entry = self.history.update(command, message.timestamp, predecessors,
                                    CommandStatus.STABLE, message.ballot)
        self.wait_manager.drop_command(command_id, command.key)
        self.wait_manager.notify_entry(entry)
        self.consume_cpu(self.cost_model.dependency_cost(predecessors.bit_count()))
        self.delivery.on_stable(command)
        self.note_progress_gap()

    # --------------------------------------------------------------- catch-up

    def catchup_need(self):
        """Stuck when pending stable commands wait on unknown predecessors."""
        if self.delivery.pending_count() == 0:
            return None
        missing = self.delivery.missing_predecessors()
        if not missing:
            return None
        tokens = tuple(f"{a}:{b}" for a, b in sorted(missing)[:32])
        return (0, tokens)

    def catchup_supply(self, cursor, want):
        """Replay Stable messages for the requested commands known stable here."""
        supplies = []
        for token in want:
            first, _, second = token.partition(":")
            try:
                command_id = (int(first), int(second))
            except ValueError:
                continue
            entry = self.history.get(command_id)
            if entry is None or entry.status is not CommandStatus.STABLE:
                continue
            supplies.append(Stable(command=entry.command, ballot=entry.ballot,
                                   timestamp=entry.timestamp,
                                   predecessors=entry.predecessors))
        return supplies

    # ------------------------------------------------------------- recovery

    @handles(Recovery)
    def _on_recovery(self, src: int, message: Recovery) -> None:
        """Acceptor side of the recovery prepare (delegated to the manager)."""
        self.recovery.on_recovery_message(src, message)

    @handles(RecoveryReply)
    def _on_recovery_reply(self, src: int, message: RecoveryReply) -> None:
        """Recovering-leader side of recovery replies (delegated to the manager)."""
        self.recovery.on_recovery_reply(src, message)

    def _execute_stable(self, command: Command) -> None:
        """Callback from the delivery manager: apply the command locally."""
        decision = self.decisions.get(command.command_id)
        self.execute_command(command)
        if decision is not None and decision.decided_at is not None:
            self.record_phase_time(command.command_id, "deliver",
                                   self.sim.now - decision.decided_at)

    def _after_delivery(self, command: Command) -> None:
        """Hook run after each delivery: waiting proposals may now resolve."""
        entry = self.history.get(command.command_id)
        if entry is not None:
            self.wait_manager.notify_entry(entry)

    # ------------------------------------------------------------- telemetry

    def slow_path_ratio(self) -> Optional[float]:
        """Fraction of locally proposed, completed commands decided on the slow path."""
        ratio = self.fast_path_ratio()
        if ratio is None:
            return None
        return 1.0 - ratio

    def average_wait_ms(self) -> float:
        """Mean time proposals spent parked in the wait condition on this node."""
        if not self.wait_time_samples:
            return 0.0
        return sum(self.wait_time_samples) / len(self.wait_time_samples)
