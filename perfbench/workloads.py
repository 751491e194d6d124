"""The benchmark's workloads: one repetition of each, timed in phases.

Every repetition builds its system through the public harness API
(``repro.harness.experiment``, ``repro.harness.cluster``,
``repro.net.loopback``, ``repro.net.client``, ``repro.workload``), times the
set-up phase (build to first submit) and the run phase separately, then
checks the outputs.  The run phase of a simulator workload is the
``Cluster.run`` calls; that of the TCP workload is first submit to last
reply.  Checks and teardown are timed apart from both.

A repetition returns a :class:`Rep`: wall-clock timings, the client-side
latency samples, a *fingerprint* of everything that must be identical for a
given seed (simulator workloads only), correctness failures, and the
per-layer counts read from the program's own statistics afterwards.
"""

from __future__ import annotations

import asyncio
import gc
import heapq
import threading
import time
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.consensus.interface import DecisionKind
from repro.harness.cluster import Cluster
from repro.harness.experiment import (ExperimentConfig, ExperimentResult, attach_clients,
                                      build_experiment_cluster, per_site_latency_summaries,
                                      summarize_experiment)
from repro.metrics.collector import MetricsCollector
from repro.net.client import RemoteReplica
from repro.net.clock import WallClock
from repro.net.loopback import LoopbackCluster
from repro.sim.failures import ScheduledCrash
from repro.sim.random import DeterministicRandom
from repro.workload.clients import ClientPool, ClosedLoopClient
from repro.workload.generator import ConflictWorkload, WorkloadConfig

#: Conflict rate of every workload (the paper's Fig. 6 headline setting).
CONFLICTS = 0.3
#: Simulated closed-loop workloads: virtual ms of warm-up + measurement.
SIM_WARMUP_MS = 2000.0
SIM_DURATION_MS = 10000.0
#: Run-phase split points: the run is timed in this many equal chunks, so
#: the completion rate of the last chunk can be compared with the first.
QUARTERS = 4
#: The run phase is timed in short steps (virtual ms in the simulator,
#: replies over TCP), each right after a run of the calibration kernel, and
#: every step's time is scaled by the machine speed the kernel measured.
STEP_MS = 250
STEP_CMDS = 100
#: Iterations of the calibration kernel.
CAL_ITERATIONS = 1000
#: The kernel's time with the machine at its fastest (2-vCPU Intel Xeon
#: 2.1 GHz virtual machine, Python 3.11.7).  Wall-clock figures are scaled
#: to the machine speed at which the kernel takes this long.
CAL_REF_S = 0.0012
#: Crash workload: open-loop clients on every site; the victim's fail over.
CRASH_DURATION_MS = 9000.0
CRASH_DRAIN_MS = 3000.0
CRASH_VICTIM = 2                 # frankfurt, on most fast quorums
CRASH_CLIENTS_PER_SITE = 4
CRASH_RATE_PER_CLIENT = 25.0
#: TCP workload: closed-loop command budget of one repetition.
TCP_REPLICAS = 3
TCP_CLIENTS = 2
TCP_COMMANDS = 2000
TCP_TIMEOUT_S = 60.0
TCP_DRAIN_S = 20.0


@dataclass
class Rep:
    """Measurements and checks of one repetition."""

    setup_s: float
    #: calibration time measured just before the set-up.
    setup_cal_s: float = CAL_REF_S
    run_s: float = 0.0
    attempted: int = 0
    completed: int = 0
    #: commands never answered or rejected.
    failed: int = 0
    #: the failed commands submitted to the crashed replica and never executed
    #: there: their reply died with it (crash workload only).
    lost_at_crash: int = 0
    #: client latency samples in ms (virtual in the simulator, wall over TCP).
    latencies: List[float] = field(default_factory=list)
    #: scaled run seconds and completed commands at each run-phase split point.
    marks: List[tuple] = field(default_factory=list)
    #: wall seconds of each step of the run phase (they sum to ``run_s``),
    #: and the calibration time measured just before each step.
    steps_s: List[float] = field(default_factory=list)
    cal_s: List[float] = field(default_factory=list)
    check_s: float = 0.0
    failures: List[str] = field(default_factory=list)
    #: values that must be identical across repetitions of one seed
    #: (simulator only).
    fingerprint: Dict[str, object] = field(default_factory=dict)
    #: per-layer counts read after the run.
    counts: Dict[str, float] = field(default_factory=dict)
    #: summarize_experiment() of the phase-split run (sim closed loop only).
    summary: Optional[Dict[str, object]] = None

    @property
    def cmds_per_s(self) -> float:
        """Completed commands per second of the run phase, at the reference speed."""
        return self.completed / sum(self.scaled_steps_s())

    @property
    def wall_cmds_per_s(self) -> float:
        """Completed commands per wall second of the run phase, unscaled."""
        return self.completed / self.run_s

    @property
    def scaled_setup_s(self) -> float:
        return scaled(self.setup_s, self.setup_cal_s)

    def scaled_steps_s(self) -> List[float]:
        """Each step's time at the reference machine speed."""
        return [scaled(t, c) for t, c in zip(self.steps_s, self.cal_s)]

    def scaled_latencies(self) -> List[float]:
        """Wall-clock latency samples (TCP), scaled like the step each completed in."""
        last = len(self.cal_s) - 1      # a timed-out run ends in a partial step
        return [scaled(v, self.cal_s[min(i // STEP_CMDS, last)])
                for i, v in enumerate(self.latencies)]

    def tail_over_head_rate(self) -> float:
        """Completion rate of the last run chunk over that of the first."""
        if len(self.marks) < 3:
            return 0.0
        (t0, c0), (t1, c1) = self.marks[0], self.marks[1]
        (t2, c2), (t3, c3) = self.marks[-2], self.marks[-1]
        return ((c3 - c2) / (t3 - t2)) / ((c1 - c0) / (t1 - t0))


class _Token:
    __slots__ = ("number", "value", "name")

    def __init__(self, number: int, value: int, name: str) -> None:
        self.number = number
        self.value = value
        self.name = name


def calibrate() -> float:
    """Wall time of a fixed pure-Python job: heap, dict and small-object churn.

    On a shared machine other load slows the interpreter by up to 1.8x for
    seconds at a time.  The kernel's time, measured next to each step, says
    how fast the machine ran just then.
    """
    start = time.perf_counter()
    heap: list = []
    table: dict = {}
    x = 12345
    for i in range(CAL_ITERATIONS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        heapq.heappush(heap, (x % 1000, i, _Token(i, x, str(i))))
        if len(heap) > 64:
            token = heapq.heappop(heap)[2]
            table[token.name] = table.get(token.name, 0) + token.number
        if i % 7 == 0:
            table.pop(str(i - 70), None)
    return time.perf_counter() - start


def scaled(seconds: float, cal_s: float) -> float:
    """``seconds`` measured at calibration time ``cal_s``, at the reference speed."""
    return seconds * CAL_REF_S / cal_s


# ----------------------------------------------------------------- simulator

def sim_config(protocol: str, seed: int) -> ExperimentConfig:
    """Closed loop, ``ec2_five_sites``, 10 clients a site, 30% conflicts."""
    return ExperimentConfig(protocol=protocol, conflict_rate=CONFLICTS, clients_per_site=10,
                            duration_ms=SIM_DURATION_MS, warmup_ms=SIM_WARMUP_MS, seed=seed)


def crash_config(seed: int) -> ExperimentConfig:
    """Open loop with recovery; the victim is crashed and restarted mid-run."""
    return ExperimentConfig(protocol="caesar", conflict_rate=CONFLICTS, open_loop=True,
                            clients_per_site=CRASH_CLIENTS_PER_SITE,
                            arrival_rate_per_client=CRASH_RATE_PER_CLIENT,
                            duration_ms=CRASH_DURATION_MS, warmup_ms=0.0,
                            drain_ms=CRASH_DRAIN_MS, recovery=True, seed=seed)


def _log_crc(replica) -> int:
    """CRC of a replica's execution order (a cheap exact fingerprint)."""
    crc = 0
    for command in replica.execution_log:
        crc = zlib.crc32(repr(command.command_id).encode(), crc)
    return crc


def run_sim(config: ExperimentConfig, crash: bool = False, setup_only: bool = False,
            tracer=None) -> Rep:
    """One simulator repetition (``setup_only`` stops after the set-up phase).

    With a ``tracer`` (whose wrappers are already installed) the run phase is
    traced and profiled, with a profile snapshot at every split point.
    """
    gc.collect()
    setup_cal_s = calibrate()
    start = time.perf_counter()
    cluster = build_experiment_cluster(config)
    metrics = MetricsCollector(warmup_ms=config.warmup_ms)
    pool = attach_clients(cluster, config, metrics)
    if crash:
        third = config.duration_ms / 3
        cluster.crash_injector.schedule(ScheduledCrash(CRASH_VICTIM, third, 2 * third))
    cluster.start()
    rep = Rep(setup_s=time.perf_counter() - start, setup_cal_s=setup_cal_s)
    if setup_only:
        return rep

    quarter_steps = _steps((config.warmup_ms + config.duration_ms) / QUARTERS)
    rep.marks.append((0.0, 0))
    events_before = cluster.sim.steps_executed
    if tracer is not None:
        tracer.begin_run()
    pool.start_all()
    for _ in range(QUARTERS):
        _run_steps(cluster, quarter_steps, rep)
        rep.marks.append((sum(rep.scaled_steps_s()), pool.total_completed))
        if tracer is not None:
            tracer.mark()
    pool.stop_all()
    _run_steps(cluster, _steps(config.drain_ms), rep)
    if tracer is not None:
        tracer.end_run()
    rep.run_s = sum(rep.steps_s)
    rep.completed = pool.total_completed
    # Every generated command was submitted; one not completed is unanswered
    # or rejected.
    rep.attempted = sum(client.workload.generated for client in pool.clients)
    rep.failed = rep.attempted - rep.completed
    if crash:
        rep.lost_at_crash = len(_lost_at_crash(cluster))

    check_start = time.perf_counter()
    _check_sim(cluster, rep, crash)
    rep.check_s = time.perf_counter() - check_start

    rep.latencies = metrics.latencies()
    _sim_counts(cluster, rep, events_before, crash)
    if not crash:
        rep.summary = summarize_experiment(_experiment_result(config, cluster, metrics, rep))
    return rep


def _steps(duration_ms: float) -> int:
    """Number of ``STEP_MS`` steps in ``duration_ms`` (which they must divide).

    Whole steps keep every boundary an exact float, so the stepped run
    advances the clock to the same instants as one ``Cluster.run`` call.
    """
    steps, rest = divmod(duration_ms, STEP_MS)
    if rest:
        raise ValueError(f"{duration_ms} ms is not a whole number of {STEP_MS} ms steps")
    return int(steps)


def _run_steps(cluster: Cluster, steps: int, rep: Rep) -> None:
    """Advance the simulation ``steps`` steps, calibrating before and timing each."""
    for _ in range(steps):
        rep.cal_s.append(calibrate())
        start = time.perf_counter()
        cluster.run(STEP_MS)
        rep.steps_s.append(time.perf_counter() - start)


def _lost_at_crash(cluster: Cluster) -> List:
    """Commands submitted to the crashed replica that it never executed.

    A replica answers its client when it executes the command, so the reply
    to each of these died with the replica, whatever the survivors did with
    the command.
    """
    victim = cluster.replica(CRASH_VICTIM)
    return [d.command_id for d in victim.decisions.values()
            if d.proposer == CRASH_VICTIM and d.executed_at is None]


def _recovered_cmds(cluster: Cluster) -> int:
    """Commands lost at the crash that the survivors executed all the same."""
    survivor = next(r for r in cluster.replicas if r.node_id != CRASH_VICTIM)
    return sum(survivor.has_executed(i) for i in _lost_at_crash(cluster))


def _check_sim(cluster: Cluster, rep: Rep, crash: bool) -> None:
    """Every live replica executed every command; no conflict-order violation."""
    if crash:
        survivors = [r for r in cluster.replicas if r.node_id != CRASH_VICTIM]
        victim = cluster.replica(CRASH_VICTIM)
        ids = {c.command_id for r in survivors for c in r.execution_log}
        for replica in survivors:
            if replica.crashed or not all(replica.has_executed(i) for i in ids):
                rep.failures.append(f"survivor {replica.node_id} missed executions")
        if victim.crashed:
            rep.failures.append("victim did not restart")
        if any(c.command_id not in ids for c in victim.execution_log):
            rep.failures.append("restarted replica executed a command no survivor did")
    else:
        ids = {c.command_id for r in cluster.replicas for c in r.execution_log}
        if not cluster.all_executed(ids):
            rep.failures.append("a live replica missed an executed command")
    if len(ids) < rep.completed:
        rep.failures.append(f"{rep.completed} completions but {len(ids)} executions")
    violations = cluster.check_consistency()
    if violations:
        rep.failures.append(f"{len(violations)} conflict-order violations")


def replica_counts(replicas) -> Dict[str, float]:
    """Per-layer counts read from the replicas' own statistics after a run."""
    stats = [r.stats for r in replicas]
    fast = slow = 0
    for replica in replicas:
        for decision in replica.completed_decisions():
            if decision.kind is DecisionKind.FAST:
                fast += 1
            elif decision.kind is not None:
                slow += 1
    waits = [w for r in replicas for w in getattr(r, "wait_time_samples", ())]
    return {
        "retransmits": sum(s.retransmissions_sent for s in stats),
        "catchup_replies": sum(s.catchup_replies for s in stats),
        "fast": fast,
        "slow": slow,
        "useful_fast": sum(s.fast_decisions for s in stats),
        "useful_all": sum(s.fast_decisions + s.slow_decisions + s.retries for s in stats),
        "wait_ms": sum(waits) / len(waits) if waits else 0.0,
        "history_entries_end": sum(len(r.history) for r in replicas if hasattr(r, "history")),
        "log_entries_end": sum(len(r.execution_log) for r in replicas),
    }


def _sim_counts(cluster: Cluster, rep: Rep, events_before: int, crash: bool) -> None:
    replicas = cluster.replicas
    executed = [r.commands_executed for r in replicas]
    rep.counts = {"events": cluster.sim.steps_executed - events_before,
                  "msgs": cluster.network.stats.messages_sent,
                  **replica_counts(replicas)}
    if crash:
        survivors = [n for i, n in enumerate(executed) if i != CRASH_VICTIM]
        rep.counts["catchup_lag_cmds"] = max(survivors) - executed[CRASH_VICTIM]
        rep.counts["recovered_cmds"] = _recovered_cmds(cluster)
    rep.fingerprint = {
        "attempted": rep.attempted, "completed": rep.completed, "failed": rep.failed,
        "lost_at_crash": rep.lost_at_crash,
        "latency_crc": zlib.crc32(repr(rep.latencies).encode()),
        "executed": executed, "log_crc": [_log_crc(r) for r in replicas], **rep.counts,
    }


def _experiment_result(config: ExperimentConfig, cluster: Cluster,
                       metrics: MetricsCollector, rep: Rep) -> ExperimentResult:
    """The :class:`ExperimentResult` ``run_experiment`` would build."""
    return ExperimentResult(
        config=config, cluster=cluster, metrics=metrics,
        measured_duration_ms=config.duration_ms,
        per_site_latency=per_site_latency_summaries(cluster.topology, metrics),
        overall_latency=metrics.summary(),
        throughput_per_second=metrics.throughput(config.duration_ms),
        fast_decisions=rep.counts["fast"], slow_decisions=rep.counts["slow"],
        consistency_violations=len(cluster.check_consistency()))


# ----------------------------------------------------------------------- TCP

class _ReplyClock(MetricsCollector):
    """Collector that also times the run phase in steps of ``STEP_CMDS`` replies.

    The last reply closes the run phase.  Before every step the calibration
    kernel runs inside the event loop.  Its time is left out of the steps;
    only the one command per client then in flight waits for it.
    """

    def __init__(self, expected: int, tracer=None) -> None:
        super().__init__(warmup_ms=0.0)
        self.expected = expected
        self.tracer = tracer
        self._quarters = {(expected * q) // QUARTERS for q in range(1, QUARTERS + 1)}
        self.replies = 0
        self.steps_s: List[float] = []
        self.cal_s: List[float] = []
        self._step_start = 0.0
        self.done = asyncio.Event()

    def begin_step(self) -> None:
        self.cal_s.append(calibrate())
        self._step_start = time.perf_counter()

    def record_command(self, origin: int, proposer: int, latency_ms: float,
                       completed_at: float, key: str) -> None:
        super().record_command(origin=origin, proposer=proposer, latency_ms=latency_ms,
                               completed_at=completed_at, key=key)
        self.replies += 1
        if self.replies % STEP_CMDS and self.replies < self.expected:
            return
        self.steps_s.append(time.perf_counter() - self._step_start)
        if self.tracer is not None and self.replies in self._quarters:
            self.tracer.mark()
        if self.replies >= self.expected:
            self.done.set()
        else:
            self.begin_step()


def tcp_clients(nproc: int) -> int:
    """Closed-loop clients (one connection each): never more than ``nproc``."""
    return max(1, min(TCP_CLIENTS, nproc))


def run_tcp(seed: int, clients: int, setup_only: bool = False, tracer=None) -> Rep:
    """One TCP repetition: 3 caesar replicas in one event loop over localhost."""
    gc.collect()
    rep = asyncio.run(_run_tcp(seed, clients, setup_only, tracer))
    if threading.active_count() != 1:
        rep.failures.append(f"{threading.active_count()} threads alive (expected 1)")
    return rep


async def _run_tcp(seed: int, clients: int, setup_only: bool, tracer) -> Rep:
    loop = asyncio.get_running_loop()
    per_client = TCP_COMMANDS // clients
    expected = per_client * clients
    setup_cal_s = calibrate()
    start = time.perf_counter()
    cluster = LoopbackCluster("caesar", replicas=TCP_REPLICAS, seed=seed)
    remotes: List[RemoteReplica] = []
    try:
        await cluster.start()
        clock = WallClock(seed=seed, loop=loop)
        metrics = _ReplyClock(expected, tracer)
        base_rng = DeterministicRandom(seed)
        replica_ids = sorted(cluster.peers)
        pool = ClientPool()
        workload_config = WorkloadConfig(conflict_rate=CONFLICTS)
        for client_id in range(clients):
            replica_id = replica_ids[client_id % len(replica_ids)]
            host, port = cluster.peers[replica_id]
            remote = RemoteReplica(replica_id, host, port, client_id=client_id)
            await remote.connect()
            remotes.append(remote)
            workload = ConflictWorkload(client_id=client_id, origin=replica_id,
                                        config=workload_config,
                                        rng=base_rng.fork(f"client-{client_id}"))
            pool.add(ClosedLoopClient(client_id, remote, workload, clock, metrics,
                                      max_commands=per_client))
        rep = Rep(setup_s=time.perf_counter() - start, setup_cal_s=setup_cal_s)
        if setup_only:
            return rep

        if tracer is not None:
            tracer.begin_run()
        metrics.begin_step()
        pool.start_all()
        try:
            await asyncio.wait_for(metrics.done.wait(), TCP_TIMEOUT_S)
        except asyncio.TimeoutError:
            rep.failures.append(f"only {pool.total_completed}/{expected} answered "
                                f"within {TCP_TIMEOUT_S:.0f}s")
        rep.steps_s, rep.cal_s = metrics.steps_s, metrics.cal_s[:len(metrics.steps_s)]
        rep.run_s = sum(rep.steps_s)
        rep.attempted = expected
        rep.completed = pool.total_completed
        rep.failed = expected - rep.completed
        steps = rep.scaled_steps_s()
        bounds = [(len(steps) * q) // QUARTERS for q in range(QUARTERS + 1)]
        rep.marks = [(sum(steps[:k]), min(k * STEP_CMDS, rep.completed)) for k in bounds]

        check_start = time.perf_counter()
        await _drain_tcp(cluster, rep, frozenset(
            (c, s) for c in range(clients) for s in range(per_client)), tracer)
        rep.check_s = time.perf_counter() - check_start

        rep.latencies = metrics.latencies()
        replicas = [server.replica for server in cluster.servers.values()]
        links = [r.transport.connection(dst) for r in replicas for dst in cluster.peers]
        rep.counts = {**replica_counts(replicas),
                      "reconnects": sum(max(0, link.connects - 1)
                                        for link in links if link is not None)}
        return rep
    finally:
        for remote in remotes:
            await remote.close()
        await cluster.stop()


async def _drain_tcp(cluster: LoopbackCluster, rep: Rep, expected_ids: frozenset,
                     tracer) -> None:
    """Wait until every replica executed every command, then compare logs.

    Tracing stops once the replicas are drained, before the comparison.
    """
    loop = asyncio.get_running_loop()
    deadline = loop.time() + TCP_DRAIN_S
    servers = cluster.servers.values()
    while loop.time() < deadline:
        if all(s.replica.commands_executed >= rep.completed for s in servers):
            break
        await asyncio.sleep(0.002)
    if tracer is not None:
        tracer.end_run()
    run = cluster.snapshot(rep.completed)
    if any(ids != expected_ids for ids in run.executed_sets.values()):
        rep.failures.append("a replica's executed set differs from the submitted commands")
    if run.violations:
        rep.failures.append(f"{run.violations} conflict-order violations")
