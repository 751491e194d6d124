"""Repository benchmark: CAESAR and Multi-Paxos in the simulator and over TCP.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sim-caesar-c30 --seed 1 --seconds 15 --trace 0

One process, no threads.  A run repeats one seeded workload until
``--seconds`` of run-phase wall time are measured (at least twice), checks
every repetition, and prints a human-readable report line followed by one
JSON result line (the last line of standard output).  Wall-clock figures
are scaled to a reference machine speed, measured by a calibration kernel
run next to every timed step (see ``perfbench/README.md``).

* ``--trace 0`` reports the end-to-end metrics.  Nothing is installed in
  the program: the repetitions run exactly as the harness builds them.
* ``--trace 1`` repeats the untraced measurement, then runs one traced and
  profiled repetition of the same seed and reports the per-layer metrics
  (see ``perfbench/README.md``).  Its spans are written to
  ``.perfbench_out/`` at the end.

A failed check (missed execution, conflict-order violation, a simulator
repetition that is not bit-identical to the first, or a phase-split run that
differs from ``run_experiment``) makes the run incorrect: the result line
says ``"correct": false`` and the exit code is 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = ("sim-caesar-c30", "sim-multipaxos-c30", "tcp-caesar-c30", "sim-caesar-crash")
#: Repetitions every run makes at least (the determinism check needs two).
MIN_REPS = 2
#: Set-ups timed per run (repetitions plus set-up-only builds).
SETUPS = 41
#: Second seed of the phase-split versus ``run_experiment`` check.
SECOND_SEED_OFFSET = 7919
#: Wall-clock cap on the measured repetitions, well inside the 180 s limit.
MAX_MEASURE_S = 90.0


def _commit() -> str:
    """The git commit, or a hash of ``src/`` when the tree is not a repository."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, check=False)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha1()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return f"src-sha1:{digest.hexdigest()}"


def _median(values):
    return statistics.median(values) if values else 0.0


class Runner:
    """Runs one workload's repetitions and the checks around them."""

    def __init__(self, workload: str, seed: int, seconds: float) -> None:
        import workloads as wl

        self.wl = wl
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.nproc = os.cpu_count() or 1
        self.failures = []

    def rep(self, setup_only: bool = False, tracer=None, seed=None):
        wl = self.wl
        seed = self.seed if seed is None else seed
        if self.workload == "tcp-caesar-c30":
            return wl.run_tcp(seed, wl.tcp_clients(self.nproc), setup_only, tracer)
        if self.workload == "sim-caesar-crash":
            return wl.run_sim(wl.crash_config(seed), True, setup_only, tracer)
        protocol = "caesar" if self.workload == "sim-caesar-c30" else "multipaxos"
        return wl.run_sim(wl.sim_config(protocol, seed), False, setup_only, tracer)

    def measure(self):
        """Untraced repetitions until ``seconds`` of run phase are measured.

        Returns the repetitions, the set-up times and the peak resident
        memory in MB, read before any check builds another cluster.
        """
        # The first repetition only warms up (imports, lazy registrations,
        # the interpreter's specialised bytecode); it is checked, not timed.
        warm_up = self.rep()
        self.failures.extend(warm_up.failures)
        reps = []
        started = time.perf_counter()
        while (len(reps) < MIN_REPS or sum(r.run_s for r in reps) < self.seconds) \
                and time.perf_counter() - started < MAX_MEASURE_S:
            rep = self.rep()
            reps.append(rep)
            self.failures.extend(rep.failures)
        setups = [r.scaled_setup_s for r in reps]
        while len(setups) < SETUPS:
            setups.append(self.rep(setup_only=True).scaled_setup_s)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        self._check_determinism([warm_up] + reps)
        return reps, setups, peak_rss_mb

    def _check_determinism(self, reps) -> None:
        first = reps[0].fingerprint
        for index, rep in enumerate(reps[1:], start=1):
            if rep.fingerprint != first:
                diff = sorted(k for k in first if rep.fingerprint.get(k) != first[k])
                self.failures.append(f"repetition {index} differs from the first in {diff}")

    def check_phase_split(self, reps) -> None:
        """The phase-split run reproduces ``run_experiment`` (two seeds)."""
        from repro.harness.experiment import run_experiment, summarize_experiment

        pairs = [(self.seed, reps[0].summary)]
        second = self.seed + SECOND_SEED_OFFSET
        pairs.append((second, self.rep(seed=second).summary))
        for seed, split in pairs:
            config = self.wl.sim_config("caesar", seed)
            reference = summarize_experiment(run_experiment(config))
            if split != reference:
                diff = sorted(k for k in reference if split.get(k) != reference[k])
                self.failures.append(f"seed {seed}: phase-split run differs from "
                                     f"run_experiment in {diff}")


def cmds_per_s(reps) -> float:
    """Completed commands per second of the run phase, at the reference speed.

    Every repetition of a seed runs the same steps: the same virtual-time
    slices of the same simulation, or the same hundred replies over TCP.
    Each step counts with the median of its scaled times over the
    repetitions, which damps what the scaling leaves of other load on the
    machine better than a median over whole repetitions.
    """
    steps = [rep.scaled_steps_s() for rep in reps]
    count = min(map(len, steps))
    run_s = sum(statistics.median(s[k] for s in steps) for k in range(count))
    return min(rep.completed for rep in reps) / run_s


def latency(reps, wall: bool):
    """Client latency percentiles (median over repetitions) and the sample count.

    Over TCP (``wall``) each sample is scaled to the reference machine speed
    like the step it completed in.  In the simulator every repetition has
    the same virtual-time samples.
    """
    from repro.metrics.stats import percentile

    samples = [rep.scaled_latencies() if wall else rep.latencies for rep in reps]
    result = {name: _median([percentile(values, q) for values in samples])
              for name, q in (("p50", 0.5), ("p95", 0.95), ("p99", 0.99))}
    result["samples"] = sum(map(len, samples)) if wall else len(samples[0])
    return result


def end_to_end(runner: Runner, reps, setups, peak_rss_mb):
    lat = latency(reps, runner.workload.startswith("tcp-"))
    return {
        "cmds_per_s": (cmds_per_s(reps), "1/s"),
        "setup_s": (_median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "p50_ms": (lat["p50"], "ms"),
    }


def per_layer(runner: Runner, reps, traced, tracer):
    """Per-layer metrics of the traced repetition (units per completed command)."""
    from tracing import package_self_seconds

    cmds = traced.completed
    spans = tracer.summary()
    prof = package_self_seconds(tracer.profile)
    counts = traced.counts

    def span_us(name):
        return spans[name]["self_s"] * 1e6 / cmds

    def prof_us(bucket):
        return prof.get(bucket, 0.0) * 1e6 / cmds

    tcp = runner.workload.startswith("tcp-")
    lat = latency(reps, tcp)
    core_q = [0.0] + [q.get("core", 0.0) for q in tracer.quarters]
    core_head = core_q[1] if len(core_q) > 2 else 0.0
    core_tail = core_q[-1] - core_q[-2] if len(core_q) > 2 else 0.0
    # Unscaled: the profiler also slows the calibration kernel.
    untraced = _median([r.wall_cmds_per_s for r in reps])
    fast, slow = counts.get("fast", 0), counts.get("slow", 0)
    sim_caesar = runner.workload in ("sim-caesar-c30", "sim-caesar-crash")
    metrics = {
        "sim.events_per_cmd": (counts.get("events", 0) / cmds, "count/cmd"),
        "sim.msgs_per_cmd": (counts.get("msgs", 0) / cmds, "count/cmd"),
        "sim.loop_self_us_per_cmd": (span_us("sim.Simulator.run"), "us/cmd"),
        "sim.network_us_per_cmd": (span_us("sim.Network.send"), "us/cmd"),
        "sim.node_us_per_cmd": (span_us("sim.Node.receive"), "us/cmd"),
        "runtime.dispatch_us_per_cmd": (prof_us("runtime"), "us/cmd"),
        "runtime.codec_calls_per_cmd": (
            (spans["runtime.MessageRegistry.encode"]["calls"]
             + spans["runtime.MessageRegistry.decode_one"]["calls"]) / cmds, "count/cmd"),
        "runtime.codec_us_per_cmd": (span_us("runtime.MessageRegistry.encode")
                                     + span_us("runtime.MessageRegistry.decode_one"), "us/cmd"),
        "runtime.codec_bytes_per_cmd": (tracer.codec_bytes / cmds, "B/cmd"),
        "runtime.retransmits_per_cmd": (counts.get("retransmits", 0) / cmds, "count/cmd"),
        "runtime.catchup_replies": (counts.get("catchup_replies", 0), "count"),
        "core.self_us_per_cmd": (prof_us("core"), "us/cmd"),
        "core.tail_over_head": (core_tail / core_head if core_head > 0 else 0.0, "ratio"),
        "core.history_entries_end": (counts.get("history_entries_end", 0), "count"),
        "kvstore.log_entries_end": (counts.get("log_entries_end", 0), "count"),
        "core.wait_ms_per_cmd": (counts.get("wait_ms", 0.0), "ms"),
        "core.useful_ratio": (counts["useful_fast"] / counts["useful_all"]
                              if counts.get("useful_all") else 0.0, "ratio"),
        "baselines.self_us_per_cmd": (prof_us("baselines"), "us/cmd"),
        "consensus.self_us_per_cmd": (prof_us("consensus"), "us/cmd"),
        "consensus.check_s": (_median([r.check_s for r in reps]), "s"),
        "net.frames_per_cmd": (spans["net.encode_frame"]["calls"] / cmds, "count/cmd"),
        "net.bytes_per_cmd": (tracer.frame_bytes / cmds, "B/cmd"),
        "net.self_us_per_cmd": (prof_us("net"), "us/cmd"),
        "net.asyncio_us_per_cmd": (prof_us("asyncio"), "us/cmd"),
        "net.reconnects": (counts.get("reconnects", 0), "count"),
        "workload.us_per_cmd": (span_us("workload.ConflictWorkload.next_command"), "us/cmd"),
        "metrics.us_per_cmd": (span_us("metrics.MetricsCollector.record_command"), "us/cmd"),
        "kvstore.us_per_cmd": (span_us("kvstore.KeyValueStore.apply"), "us/cmd"),
        "harness.tail_over_head_rate": (_median([r.tail_over_head_rate() for r in reps]),
                                        "ratio"),
        "harness.latency_samples": (lat["samples"], "count"),
        "p95_ms": (lat["p95"], "ms"),
        "p99_ms": (lat["p99"] if tcp else 0.0, "ms"),
        "sim_p50_ms": (0.0 if tcp else lat["p50"], "ms"),
        "sim_p99_ms": (0.0 if tcp else lat["p99"], "ms"),
        "trace.overhead_frac": (1.0 - traced.wall_cmds_per_s / untraced, "ratio"),
        "fast_path_ratio": (fast / (fast + slow) if sim_caesar and fast + slow else 0.0,
                            "ratio"),
        "catchup_lag_cmds": (counts.get("catchup_lag_cmds", 0), "count"),
        "core.recovered_cmds": (counts.get("recovered_cmds", 0), "count"),
        "failed_frac": (sum(r.failed for r in reps) / sum(r.attempted for r in reps),
                        "ratio"),
    }
    return metrics


def traced_rep(runner: Runner, reps, out_dir: Path):
    """One traced, profiled repetition of the run's seed; spans written to disk."""
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        traced = runner.rep(tracer=tracer)
    finally:
        tracer.uninstall()
    runner.failures.extend(traced.failures)
    if traced.fingerprint != reps[0].fingerprint:
        runner.failures.append("the traced repetition differs from the untraced ones")
    tracer.write(str(out_dir / f"spans-{runner.workload}.tsv"))
    return traced, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))

    runner = Runner(args.workload, args.seed, args.seconds)
    reps, setups, peak_rss_mb = runner.measure()
    if args.workload == "sim-caesar-c30":
        runner.check_phase_split(reps)
    if args.trace:
        traced, tracer = traced_rep(runner, reps, ROOT / ".perfbench_out")
        metrics = per_layer(runner, reps, traced, tracer)
    else:
        metrics = end_to_end(runner, reps, setups, peak_rss_mb)

    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "nproc": runner.nproc, "python": platform.python_version(), "commit": _commit(),
        "reps": len(reps), "rep_cmds_per_s": [round(r.cmds_per_s, 1) for r in reps],
        "rep_wall_cmds_per_s": [round(r.wall_cmds_per_s, 1) for r in reps],
        "setups": len(setups),
        "latency_samples": latency(reps, args.workload.startswith("tcp-"))["samples"],
        "lost_at_crash": sum(r.lost_at_crash for r in reps),
        "failures": runner.failures,
        "metrics": {name: f"{value:.6g} {unit}" for name, (value, unit) in metrics.items()},
    }
    print("report " + json.dumps(report))
    # Commands whose replica crashed under them are the injected fault's
    # expected loss; they count in `failed_frac`, not as failed operations.
    result = {
        "correct": not runner.failures,
        "attempted": sum(r.attempted for r in reps),
        "failed": sum(r.failed - r.lost_at_crash for r in reps),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
