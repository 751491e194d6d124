"""Microbenchmark of the decision-path data structures.

Times the three operations the ordering layer performs per proposal —
predecessor computation, wait-condition evaluation/notification, and the
history UPDATE — at several per-key bucket sizes, for both the optimized
implementations (key-scoped interned bitsets, timestamp-sorted buckets,
incremental wait bookkeeping; :mod:`repro.core.history` /
:mod:`repro.core.predecessors`) and the naive reference implementations
kept in :mod:`repro.core.reference`.

A *long history* sample repeats the three operations at bucket
``LONG_HISTORY_BUCKET`` on a history that already holds
``FOREIGN_COMMANDS`` commands on other keys.  With key-scoped interning the
masks stay as wide as the bucket, so the ops/second should stay close to
the fresh-history sample of the same bucket size; a node-wide numbering
would make every mask operation pay for the foreign commands.  Its wall
clock is reported, not asserted.

Because both variants run interleaved in the same process on the same data,
the reported speedups are meaningful even on noisy shared hosts (each
sample is a best-of-``REPS`` minimum).  The optimized ops/second land in
``BENCH_micro_decision_path.json`` and are regression-gated by
``compare_perf.py`` alongside the sweep benchmark; the per-size speedup
table is written to ``benchmarks/out/micro_decision_path.txt``.
"""

from __future__ import annotations

import time
from typing import Callable, Dict

import pytest

from repro.consensus.ballots import Ballot
from repro.consensus.command import Command
from repro.consensus.timestamps import LogicalTimestamp
from repro.core.history import CommandHistory, CommandStatus
from repro.core.predecessors import WaitManager, compute_predecessor_mask
from repro.core.reference import (ReferenceCommandHistory, ReferenceWaitManager,
                                  reference_compute_predecessors)
from repro.metrics.perf import PerfRecord, write_record

from bench_utils import RESULTS_DIR

#: Per-key bucket sizes the operations are timed at.
BUCKET_SIZES = (64, 256, 1024)

#: Best-of-N repetitions per sample (defends against scheduler noise).
REPS = 3

#: Parked proposals / finalized entries in the wait-path sample.
PARKED = 8
NOTIFIES = 64

#: The long-history sample: commands on other keys filled in first, and the
#: bucket size the three operations then run at.
FOREIGN_COMMANDS = 20_000
LONG_HISTORY_BUCKET = 64

BALLOT = Ballot.initial(0)


def ts(counter: int, node: int = 0) -> LogicalTimestamp:
    return LogicalTimestamp(counter, node)


def make_commands(count: int, key: str = "hot") -> list:
    return [Command(command_id=(0, seq), key=key, operation="put",
                    value=f"v{seq}", origin=0) for seq in range(count)]


def fill(history, commands, status=CommandStatus.FAST_PENDING) -> None:
    """Insert ``commands`` with timestamps 1..N on their shared key."""
    for offset, command in enumerate(commands):
        history.update(command, ts(offset + 1), set(), status, BALLOT)


def new_history(cls, foreign: int):
    """A fresh history of class ``cls`` holding ``foreign`` commands spread
    over 200 keys other than the benchmarked one."""
    history = cls()
    for seq in range(foreign):
        command = Command(command_id=(9, seq), key=f"foreign-{seq % 200}",
                          operation="put", value="f", origin=0)
        history.update(command, ts(seq + 1), set(), CommandStatus.STABLE, BALLOT)
    return history


def best_of(prepare: Callable[[], object], fn: Callable[[object], int]) -> tuple:
    """Run ``fn(prepare())`` (``fn`` returns an op count) REPS times, timing
    only ``fn``; (ops, min seconds)."""
    ops = 0
    best = float("inf")
    for _ in range(REPS):
        state = prepare()
        started = time.perf_counter()
        ops = fn(state)
        elapsed = time.perf_counter() - started
        best = min(best, elapsed)
    return ops, best


def sample(optimized: tuple, reference: tuple) -> Dict[str, float]:
    """Best-of timings of both variants as one sample."""
    ops, seconds = best_of(*optimized)
    ref_ops, ref_seconds = best_of(*reference)
    return {"optimized": ops / seconds, "reference": ref_ops / ref_seconds,
            "ops": ops, "seconds": seconds}


# ----------------------------------------------------------- the three shapes

def time_compute_predecessors(size: int, foreign: int = 0) -> Dict[str, float]:
    """Predecessors of a fresh command proposed after ``size`` bucket entries."""
    commands = make_commands(size)
    probe = Command(command_id=(1, 0), key="hot", operation="put", value="p",
                    origin=0)
    probe_ts = ts(size + 1)
    iterations = 2000

    def prepare_optimized() -> CommandHistory:
        history = new_history(CommandHistory, foreign)
        fill(history, commands)
        history.intern(probe.key, probe.command_id)
        return history

    def run_optimized(history: CommandHistory) -> int:
        for _ in range(iterations):
            compute_predecessor_mask(history, probe, probe_ts)
        return iterations

    def prepare_reference() -> ReferenceCommandHistory:
        history = new_history(ReferenceCommandHistory, foreign)
        fill(history, commands)
        return history

    def run_reference(history: ReferenceCommandHistory) -> int:
        for _ in range(iterations):
            reference_compute_predecessors(history, probe, probe_ts, None)
        return iterations

    return sample((prepare_optimized, run_optimized), (prepare_reference, run_reference))


def time_history_update(size: int, foreign: int = 0) -> Dict[str, float]:
    """Cost of growing one key's bucket from empty to ``size`` entries."""
    commands = make_commands(size)

    def run(history) -> int:
        fill(history, commands)
        return size

    return sample((lambda: new_history(CommandHistory, foreign), run),
                  (lambda: new_history(ReferenceCommandHistory, foreign), run))


def time_wait_notify(size: int, foreign: int = 0) -> Dict[str, float]:
    """Wait-condition bookkeeping: park PARKED proposals on a bucket of
    ``size`` blockers, then finalize NOTIFIES of them one by one.

    The optimized manager reclassifies just the changed entry per
    notification; the reference manager re-scans every parked proposal's
    whole bucket — the gap grows with the bucket size.
    """
    commands = make_commands(size)
    proposals = [Command(command_id=(2, seq), key="hot", operation="put",
                         value="w", origin=0) for seq in range(PARKED)]
    notifies = min(NOTIFIES, size)

    def run_optimized(history: CommandHistory) -> int:
        fill(history, commands)
        manager = WaitManager(history, lambda: 0.0)
        for proposal in proposals:
            manager.evaluate(proposal, ts(0, 1), lambda ok, waited: None)
        assert manager.parked_count() == PARKED
        for command in commands[:notifies]:
            entry = history.update(command, history.get(command.command_id).timestamp,
                                   set(), CommandStatus.STABLE, BALLOT)
            manager.notify_entry(entry)
        return PARKED + notifies

    def run_reference(history: ReferenceCommandHistory) -> int:
        fill(history, commands)
        manager = ReferenceWaitManager(history, lambda: 0.0)
        for proposal in proposals:
            manager.evaluate(proposal, ts(0, 1), lambda ok, waited: None)
        assert manager.parked_count() == PARKED
        for command in commands[:notifies]:
            history.update(command, history.get(command.command_id).timestamp,
                           set(), CommandStatus.STABLE, BALLOT)
            manager.notify_change(command.key)
        return PARKED + notifies

    return sample((lambda: new_history(CommandHistory, foreign), run_optimized),
                  (lambda: new_history(ReferenceCommandHistory, foreign), run_reference))


OPERATIONS = {
    "compute_predecessors": time_compute_predecessors,
    "history_update": time_history_update,
    "wait_evaluate_notify": time_wait_notify,
}


@pytest.mark.benchmark(group="micro")
def test_decision_path_microbench(benchmark, save_result):
    """Ops/second of the decision-path operations, optimized vs reference."""

    def run_all():
        samples: Dict[str, Dict[int, Dict[str, float]]] = {}
        long_history: Dict[str, Dict[str, float]] = {}
        for name, timer in OPERATIONS.items():
            samples[name] = {size: timer(size) for size in BUCKET_SIZES}
            long_history[name] = timer(LONG_HISTORY_BUCKET, FOREIGN_COMMANDS)
        return samples, long_history

    samples, long_history = benchmark.pedantic(run_all, rounds=1, iterations=1)

    total_ops = sum(cell["ops"] for sizes in samples.values()
                    for cell in sizes.values())
    total_seconds = sum(cell["seconds"] for sizes in samples.values()
                        for cell in sizes.values())
    record = PerfRecord(
        name="micro_decision_path",
        wall_seconds=total_seconds,
        events_executed=int(total_ops),
        events_per_second=(total_ops / total_seconds) if total_seconds else 0.0,
        extra={
            "bucket_sizes": list(BUCKET_SIZES),
            "ops_per_second": {
                name: {str(size): round(cell["optimized"], 1)
                       for size, cell in sizes.items()}
                for name, sizes in samples.items()},
            "reference_ops_per_second": {
                name: {str(size): round(cell["reference"], 1)
                       for size, cell in sizes.items()}
                for name, sizes in samples.items()},
            "long_history": {
                "foreign_commands": FOREIGN_COMMANDS,
                "bucket": LONG_HISTORY_BUCKET,
                "ops_per_second": {name: round(cell["optimized"], 1)
                                   for name, cell in long_history.items()},
                "reference_ops_per_second": {name: round(cell["reference"], 1)
                                             for name, cell in long_history.items()},
            },
        })
    write_record(record, RESULTS_DIR)

    lines = [f"{'operation':<24} {'bucket':>6} {'optimized/s':>14} "
             f"{'reference/s':>14} {'speedup':>8}"]
    for name, sizes in samples.items():
        for size, cell in sizes.items():
            speedup = cell["optimized"] / cell["reference"]
            lines.append(f"{name:<24} {size:>6} {cell['optimized']:>14,.0f} "
                         f"{cell['reference']:>14,.0f} {speedup:>7.1f}x")
    lines.append("")
    lines.append(f"long history: bucket {LONG_HISTORY_BUCKET} after {FOREIGN_COMMANDS:,} "
                 f"commands on other keys (wall clock, not asserted)")
    lines.append(f"{'operation':<24} {'optimized/s':>14} {'reference/s':>14} "
                 f"{'vs fresh':>8}")
    for name, cell in long_history.items():
        fresh = samples[name][LONG_HISTORY_BUCKET]["optimized"]
        lines.append(f"{name:<24} {cell['optimized']:>14,.0f} {cell['reference']:>14,.0f} "
                     f"{cell['optimized'] / fresh:>7.2f}x")
    save_result("micro_decision_path", "\n".join(lines))

    # The algorithmic wins must show at the largest bucket size: predecessor
    # computation is O(suffix) instead of O(bucket), and a wait notification
    # is O(parked) bit operations instead of a full per-proposal re-scan.
    largest = BUCKET_SIZES[-1]
    for name in ("compute_predecessors", "wait_evaluate_notify"):
        cell = samples[name][largest]
        assert cell["optimized"] > 2.0 * cell["reference"], (
            f"{name} at bucket={largest}: optimized {cell['optimized']:,.0f}/s "
            f"not clearly faster than reference {cell['reference']:,.0f}/s")
    # The update path keeps sorted-bucket + interner bookkeeping, so parity
    # (not speedup) is the requirement against the naive dict/set insert.
    update = samples["history_update"][largest]
    assert update["optimized"] > 0.3 * update["reference"]
