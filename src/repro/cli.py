"""Command-line interface for running experiments and regenerating figures.

Installed as the ``repro`` console script::

    repro run --protocol caesar --conflicts 30 --clients 10
    repro compare --conflicts 0 10 30
    repro figure 6
    repro figure 9 --quick
    repro sweep 9 --workers 4
    repro sweep all --workers auto --quick
    repro shard --shards 1 2 4 --skew 0 0.99 --sites 20
    repro chaos --protocol caesar --nemesis minority-partition --seed 3
    repro chaos --matrix --quick
    repro serve --protocol caesar --replicas 3
    repro loadgen --launch 3 --clients 3 --commands 10
    repro overload --offered 200 600 1200 --admission deadline:200 --store
    repro profile 9 --quick --cells 'fig9/caesar/*'
    repro report --label overload
    repro topology

The CLI is a thin wrapper over :mod:`repro.api`: argument parsing lives here,
every config is built through its ``from_args`` classmethod, and everything
the CLI prints can also be produced programmatically (see ``examples/``).
Flags shared by several subcommands (``--protocol``, ``--seed``,
``--clients``, ``--conflicts``, ``--duration``) are declared once in
:func:`shared_flags` parent parsers, with per-subcommand defaults.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
import time
from typing import Optional, Sequence

from repro.harness import figures
from repro.harness.experiment import ExperimentConfig, run_experiment
from repro.harness.report import format_protocol_stats, format_series
from repro.metrics.perf import TIMING_EXTRA_KEY, PerfRecord, write_record
from repro.sim.topology import EC2_SHORT_LABELS, EC2_SITES, ec2_five_sites

#: Every registered protocol name, in CLI display order.
PROTOCOL_CHOICES = ["caesar", "epaxos", "multipaxos", "mencius", "m2paxos"]

#: Maps ``figure <n>`` / ``sweep <n>`` to the driver that regenerates it.
FIGURE_DRIVERS = {
    "6": figures.figure6_latency_vs_conflicts,
    "7": figures.figure7_single_leader_comparison,
    "8": figures.figure8_client_scaling,
    "9": figures.figure9_throughput,
    "9b": figures.figure9_throughput_batching,
    "10": figures.figure10_slow_paths,
    "11": figures.figure11_breakdown,
    "12": figures.figure12_failure_timeline,
    "ablation": figures.ablation_wait_condition,
    "shard": figures.shard_scaling,
}

#: Scaled-down parameters used with ``--quick`` so every figure finishes fast.
QUICK_OVERRIDES = {
    "6": dict(conflict_rates=(0.0, 0.1, 0.3), clients_per_site=5, duration_ms=4000.0,
              warmup_ms=1000.0),
    "7": dict(clients_per_site=5, duration_ms=4000.0, warmup_ms=1000.0),
    "8": dict(client_counts=(5, 50, 250), duration_ms=3000.0, warmup_ms=1000.0),
    "9": dict(conflict_rates=(0.0, 0.1, 0.3), clients_per_site=40, duration_ms=3000.0,
              warmup_ms=1000.0),
    "9b": dict(conflict_rates=(0.0, 0.1, 0.3), clients_per_site=40, duration_ms=2500.0,
               warmup_ms=1000.0),
    "10": dict(conflict_rates=(0.0, 0.1, 0.3), clients_per_site=15, duration_ms=3000.0,
               warmup_ms=1000.0),
    "11": dict(conflict_rates=(0.0, 0.1, 0.3), clients_per_site=5, duration_ms=4000.0,
               warmup_ms=1000.0),
    "12": dict(clients_per_site=10, crash_at_ms=5000.0, total_ms=12000.0),
    "ablation": dict(conflict_rates=(0.1, 0.3), clients_per_site=10, duration_ms=2500.0,
                     warmup_ms=500.0),
    "shard": dict(shard_counts=(1, 2), skews=(0.0, 1.2), sites=6, replicas_per_site=1,
                  clients=4, commands_per_client=3, key_space=64, hot_keys=4),
}


def _figure_order(key: str):
    """Sort figure keys numerically, with non-numeric suffixes/names last."""
    return (0, int(key), "") if key.isdigit() else (1, 0, key)


def shared_flags(protocol: Optional[str] = None, seed: int = 1,
                 clients: Optional[int] = None,
                 conflicts: Optional[object] = None,
                 duration: Optional[float] = None) -> argparse.ArgumentParser:
    """Build a parent parser with the flags shared across subcommands.

    Each subcommand passes the defaults it wants (and ``None`` to omit a
    flag entirely), so the flag *vocabulary* — names, types, help strings —
    is declared exactly once.  ``conflicts`` may be a float (single rate) or
    a list (``nargs='+'``, as ``compare`` uses).
    """
    parent = argparse.ArgumentParser(add_help=False)
    if protocol is not None:
        parent.add_argument("--protocol", default=protocol, choices=PROTOCOL_CHOICES)
    parent.add_argument("--seed", type=int, default=seed)
    if clients is not None:
        parent.add_argument("--clients", type=int, default=clients,
                            help="clients per site")
    if conflicts is not None:
        if isinstance(conflicts, (list, tuple)):
            parent.add_argument("--conflicts", type=float, nargs="+",
                                default=list(conflicts),
                                help="percentages of conflicting commands (0-100)")
        else:
            parent.add_argument("--conflicts", type=float, default=conflicts,
                                help="percentage of conflicting commands (0-100)")
    if duration is not None:
        parent.add_argument("--duration", type=float, default=duration,
                            help="measured duration in simulated ms")
    return parent


def add_admission_flag(parser: argparse.ArgumentParser) -> None:
    """Add the admission-control flag (same spec syntax on every subcommand)."""
    parser.add_argument("--admission", default=None, metavar="SPEC",
                        help="admission-control policy on every replica's submit "
                             "path: 'none' (counting baseline), 'inflight:K', "
                             "'deadline:MS' (default: no admission hook)")


def add_history_gc_flag(parser: argparse.ArgumentParser) -> None:
    """Add the history-GC flag (same semantics on every subcommand)."""
    parser.add_argument("--history-gc", type=float, default=None, metavar="MS",
                        help="collect history entries delivered by every replica "
                             "on this virtual-ms cadence (off by default; changes "
                             "wire bytes, so never used for figure reproduction)")


def add_store_flags(parser: argparse.ArgumentParser,
                    label: Optional[str] = None) -> None:
    """Add the results-store flags (``--store`` appends the run to SQLite)."""
    from repro.metrics.store import DEFAULT_STORE_PATH

    parser.add_argument("--store", nargs="?", const=str(DEFAULT_STORE_PATH),
                        default=None, metavar="DB",
                        help="append this run to the SQLite results store "
                             "(default path: %(const)s)")
    if label is not None:
        parser.add_argument("--label", default=label,
                            help="label the stored run is grouped under in "
                                 "'repro report' (default: %(default)s)")


def build_parser() -> argparse.ArgumentParser:
    """Create the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of CAESAR (Speeding up Consensus by Chasing Fast "
                    "Decisions, DSN 2017) on a simulated geo-replicated substrate "
                    "and over real TCP sockets.")
    subparsers = parser.add_subparsers(dest="command", required=True)

    run_parser = subparsers.add_parser(
        "run", help="run one protocol on one workload",
        parents=[shared_flags(protocol="caesar", seed=1, clients=10,
                              conflicts=0.0, duration=8000.0)])
    run_parser.add_argument("--batching", action="store_true",
                            help="enable network message batching")
    run_parser.add_argument("--throughput", action="store_true",
                            help="use the saturation CPU cost model (throughput study)")
    add_admission_flag(run_parser)
    add_history_gc_flag(run_parser)
    add_store_flags(run_parser, label="run")

    subparsers.add_parser(
        "compare", help="compare all protocols at given conflict rates",
        parents=[shared_flags(seed=1, clients=10, conflicts=[0.0, 10.0, 30.0],
                              duration=6000.0)])

    figure_parser = subparsers.add_parser("figure", help="regenerate one figure of the paper")
    figure_parser.add_argument("number", choices=sorted(FIGURE_DRIVERS, key=_figure_order),
                               help="paper figure number")
    figure_parser.add_argument("--quick", action="store_true",
                               help="use scaled-down parameters (fast, coarser numbers)")

    sweep_parser = subparsers.add_parser(
        "sweep",
        help="run figure sweeps through the parallel orchestrator and write "
             "figure tables + BENCH perf records")
    sweep_parser.add_argument("figures", nargs="+",
                              choices=sorted(FIGURE_DRIVERS, key=_figure_order) + ["all"],
                              metavar="figure",
                              help="figure sweeps to run (%(choices)s)")
    sweep_parser.add_argument("--workers", default=None,
                              help="worker processes per sweep: a count, or 'auto' for one "
                                   "per CPU (default: $REPRO_SWEEP_WORKERS, else serial)")
    sweep_parser.add_argument("--serial", action="store_true",
                              help="force serial in-process execution (same output bytes "
                                   "as any --workers value)")
    sweep_parser.add_argument("--cells", nargs="+", default=None, metavar="PATTERN",
                              help="only run cells whose key matches one of these globs, "
                                   "e.g. 'fig9/caesar/*' (unmatched cells report '-')")
    sweep_parser.add_argument("--list-cells", action="store_true",
                              help="print the resolved cell grid (with --cells matches "
                                   "marked) and exit without running anything")
    sweep_parser.add_argument("--quick", action="store_true",
                              help="use scaled-down parameters (fast, coarser numbers)")
    sweep_parser.add_argument("--out", type=pathlib.Path,
                              default=pathlib.Path("benchmarks/results"),
                              help="directory for sweep_<name>.txt tables and "
                                   "BENCH_sweep_<name>.json records (default: %(default)s)")
    sweep_parser.add_argument("--stable-records", action="store_true",
                              help="omit wall-clock fields from BENCH records so identical "
                                   "sweeps serialize byte-identically")
    add_store_flags(sweep_parser)

    shard_parser = subparsers.add_parser(
        "shard",
        help="run the sharded-keyspace study: protocol x shards x zipf skew "
             "over independent consensus groups (exit code 1 unless every "
             "command decided with 0 conflict-order violations)",
        parents=[shared_flags(protocol="caesar", seed=21)])
    shard_parser.add_argument("--shards", type=int, nargs="+", default=[1, 2, 4],
                              metavar="N", help="shard counts to sweep")
    shard_parser.add_argument("--skew", type=float, nargs="+", default=[0.0, 0.99],
                              metavar="S",
                              help="zipf exponents to sweep (0 = uniform)")
    shard_parser.add_argument("--sites", type=int, default=20,
                              help="WAN sites per consensus group")
    shard_parser.add_argument("--replicas-per-site", type=int, default=1,
                              help="co-located replicas per site (group size = "
                                   "sites x this)")
    shard_parser.add_argument("--clients", type=int, default=8,
                              help="clients whose streams are split across shards")
    shard_parser.add_argument("--commands", type=int, default=4,
                              help="commands per client stream")
    shard_parser.add_argument("--key-space", type=int, default=1000,
                              help="distinct keys in the zipf key space")
    shard_parser.add_argument("--hot-keys", type=int, default=10,
                              help="size of the hot-key pool (reporting only)")
    shard_parser.add_argument("--workers", default=None,
                              help="worker processes for the sweep grid: a count, or "
                                   "'auto' (default: $REPRO_SWEEP_WORKERS, else serial)")
    shard_parser.add_argument("--serial", action="store_true",
                              help="force serial execution (same output bytes as any "
                                   "--workers value)")
    add_store_flags(shard_parser, label="shard")

    chaos_parser = subparsers.add_parser(
        "chaos",
        help="run a protocol under a nemesis fault schedule and check the "
             "client history for linearizability",
        parents=[shared_flags(protocol="caesar", seed=1, clients=2,
                              conflicts=50.0)])
    chaos_parser.add_argument("--nemesis", default="minority-partition",
                              help="named nemesis schedule (see --list-schedules)")
    chaos_parser.add_argument("--fault-at", type=float, default=None,
                              help="virtual ms at which the faults begin "
                                   "(default: 1000, or 500 with --quick)")
    chaos_parser.add_argument("--hold", type=float, default=None,
                              help="virtual ms until the schedule has fully healed "
                                   "(default: 2000, or 1000 with --quick)")
    chaos_parser.add_argument("--recovery", action="store_true",
                              help="run failure detectors / recovery machinery")
    chaos_parser.add_argument("--no-retransmit", action="store_true",
                              help="disable the runtime retransmission + catch-up layer "
                                   "(reproduces the pre-retransmission safe-but-not-live "
                                   "split under lossy schedules)")
    chaos_parser.add_argument("--matrix", action="store_true",
                              help="run the protocols x schedules conformance matrix "
                                   "(exit code 1 when any cell fails)")
    chaos_parser.add_argument("--protocols", nargs="+", default=None, metavar="PROTO",
                              help="protocols for --matrix (default: all five)")
    chaos_parser.add_argument("--schedules", nargs="+", default=None, metavar="NAME",
                              help="schedules for --matrix (default: the full "
                                   "conformance library, lossy schedules included)")
    chaos_parser.add_argument("--random", type=int, default=None, metavar="N",
                              help="run N generated random schedules instead of a "
                                   "named one")
    chaos_parser.add_argument("--include-lossy", action="store_true",
                              help="let --random draw message-loss and crash faults")
    chaos_parser.add_argument("--list-schedules", action="store_true",
                              help="print the named schedule library and exit")
    chaos_parser.add_argument("--quick", action="store_true",
                              help="scaled-down fault window (fast smoke run)")

    serve_parser = subparsers.add_parser(
        "serve",
        help="run replicas as real processes speaking the wire format over TCP",
        parents=[shared_flags(protocol="caesar", seed=0)])
    serve_parser.add_argument("--replicas", type=int, default=3,
                              help="cluster size for single-host mode")
    serve_parser.add_argument("--host", default="127.0.0.1",
                              help="bind address for auto-allocated ports")
    serve_parser.add_argument("--peer", action="append", default=None,
                              metavar="ID=HOST:PORT",
                              help="explicit peer map entry (repeat per replica; "
                                   "required for multi-host mode)")
    serve_parser.add_argument("--node-id", type=int, default=None,
                              help="run only this replica in the foreground "
                                   "(multi-host mode; requires --peer entries)")
    serve_parser.add_argument("--recovery", action="store_true",
                              help="run failure detectors / recovery machinery")
    serve_parser.add_argument("--no-retransmit", action="store_true",
                              help="disable the runtime retransmission + catch-up "
                                   "layer (not recommended over real sockets)")
    add_admission_flag(serve_parser)

    loadgen_parser = subparsers.add_parser(
        "loadgen",
        help="drive a live cluster with the seeded workload over TCP",
        parents=[shared_flags(protocol="caesar", seed=0, clients=3,
                              conflicts=2.0)])
    loadgen_parser.add_argument("--endpoint", action="append", default=None,
                                metavar="ID=HOST:PORT",
                                help="replica endpoint (repeat per replica)")
    loadgen_parser.add_argument("--launch", type=int, default=None, metavar="N",
                                help="launch an N-replica local cluster first, "
                                     "drive it, then tear it down")
    loadgen_parser.add_argument("--commands", type=int, default=10,
                                help="closed-loop commands per client")
    loadgen_parser.add_argument("--open-loop", action="store_true",
                                help="Poisson open-loop injection instead of "
                                     "closed loop")
    loadgen_parser.add_argument("--rate", type=float, default=50.0,
                                help="open-loop rate per client (commands/s)")
    loadgen_parser.add_argument("--duration", type=float, default=2000.0,
                                help="open-loop injection window (real ms)")
    loadgen_parser.add_argument("--warmup-ms", type=float, default=0.0,
                                help="discard latency samples completing within "
                                     "this many real ms after start")
    loadgen_parser.add_argument("--timeout", type=float, default=60.0,
                                help="overall wall-clock budget (seconds)")
    loadgen_parser.add_argument("--json", action="store_true",
                                help="print the report as JSON")
    add_admission_flag(loadgen_parser)
    add_store_flags(loadgen_parser, label="loadgen")

    overload_parser = subparsers.add_parser(
        "overload",
        help="sweep open-loop offered load past the saturation knee and "
             "report goodput + latency tail per point",
        parents=[shared_flags(protocol="caesar", seed=1, clients=4,
                              conflicts=2.0, duration=4000.0)])
    overload_parser.add_argument("--offered", type=float, nargs="+", default=None,
                                 metavar="RATE",
                                 help="total offered loads to sweep, in commands/s "
                                      "across the cluster (default: 200 400 800 1600)")
    overload_parser.add_argument("--substrate", choices=["sim", "tcp"], default="sim",
                                 help="run on the simulator or over real sockets")
    overload_parser.add_argument("--warmup-ms", type=float, default=1000.0,
                                 help="per-point warm-up window (samples discarded)")
    overload_parser.add_argument("--replicas", type=int, default=3,
                                 help="tcp-substrate cluster size")
    overload_parser.add_argument("--workers", default=None,
                                 help="sweep worker processes for the sim substrate "
                                      "(a count or 'auto')")
    overload_parser.add_argument("--json", action="store_true",
                                 help="print the sweep as JSON")
    add_admission_flag(overload_parser)
    add_history_gc_flag(overload_parser)
    add_store_flags(overload_parser, label="overload")

    profile_parser = subparsers.add_parser(
        "profile",
        help="profile a figure sweep under cProfile and summarize where the "
             "simulator spends its time")
    profile_parser.add_argument("number", nargs="?", default="9",
                                choices=sorted(FIGURE_DRIVERS, key=_figure_order),
                                help="figure sweep to profile (default: %(default)s)")
    profile_parser.add_argument("--quick", action="store_true",
                                help="use scaled-down parameters (fast, coarser numbers)")
    profile_parser.add_argument("--cells", nargs="+", default=None, metavar="PATTERN",
                                help="only run cells whose key matches one of these "
                                     "globs, e.g. 'fig9/caesar/*'")
    profile_parser.add_argument("--top", type=int, default=20,
                                help="functions to show in the hot-spot table "
                                     "(default: %(default)s)")
    profile_parser.add_argument("--sort", default="cumulative",
                                choices=["cumulative", "tottime", "calls"],
                                help="pstats sort order (default: %(default)s)")
    add_store_flags(profile_parser, label="profile")

    report_parser = subparsers.add_parser(
        "report",
        help="render run listings and cross-commit trend tables from the "
             "results store")
    from repro.metrics.store import DEFAULT_STORE_PATH

    report_parser.add_argument("--store", default=str(DEFAULT_STORE_PATH), metavar="DB",
                               help="results store to read (default: %(default)s)")
    report_parser.add_argument("--kind", default=None,
                               help="only runs of this kind (experiment, sweep, "
                                    "loadgen, overload, bench)")
    report_parser.add_argument("--label", default=None,
                               help="only runs with this label")
    report_parser.add_argument("--limit", type=int, default=20,
                               help="newest runs per label to include")
    report_parser.add_argument("--points", action="store_true",
                               help="also render each overload run's per-load-point "
                                    "saturation curve")

    subparsers.add_parser("topology", help="print the simulated five-site EC2 topology")
    return parser


def _open_store(args: argparse.Namespace):
    """Open the results store when ``--store`` was given (``None`` otherwise)."""
    path = getattr(args, "store", None)
    if path is None:
        return None
    from repro.metrics.store import ResultsStore

    return ResultsStore(pathlib.Path(path))


def _run(args: argparse.Namespace) -> str:
    result = run_experiment(ExperimentConfig.from_args(args))
    lines = [f"protocol:           {args.protocol}",
             f"conflict rate:      {args.conflicts:.0f}%",
             f"commands completed: {result.metrics.count}",
             f"throughput:         {result.throughput_per_second:.1f} commands/s"]
    if result.overall_latency is not None:
        lines.append(f"mean latency:       {result.overall_latency.mean:.1f} ms "
                     f"(p95 {result.overall_latency.p95:.1f} ms)")
    ratio = result.slow_path_ratio
    if ratio is not None:
        lines.append(f"slow decisions:     {ratio * 100.0:.1f}%")
    lines.append("per-site mean latency (ms):")
    for site in EC2_SITES:
        mean = result.site_mean_latency(site)
        if mean is not None:
            lines.append(f"  {EC2_SHORT_LABELS[site]:<3} {mean:7.1f}")
    lines.append(f"consistency violations: {result.consistency_violations}")
    compactor = result.cluster.compactor
    if compactor is not None:
        live = sum(len(replica.history) for replica in result.cluster.replicas
                   if hasattr(replica, "history"))
        lines.append(f"history GC:         {compactor.commands_removed} commands "
                     f"collected, {live} entries still live")
    # The unified runtime stats record means no per-protocol formatting here:
    # whatever counters moved are reported, regardless of the protocol.
    counters = format_protocol_stats([replica.stats for replica in result.cluster.replicas])
    if counters:
        lines.append(counters)
    store = _open_store(args)
    if store is not None:
        from repro.harness.experiment import summarize_experiment

        with store:
            run_id = store.record_run(
                "experiment", args.label, protocol=args.protocol, substrate="sim",
                seed=args.seed,
                config={"conflicts": args.conflicts, "clients": args.clients,
                        "duration_ms": args.duration, "admission": args.admission,
                        "batching": args.batching, "throughput": args.throughput},
                metrics=summarize_experiment(result))
        lines.append(f"[stored as run {run_id} in {args.store}]")
    return "\n".join(lines)


def _compare(args: argparse.Namespace) -> str:
    latency = {}
    slow = {}
    for protocol in ("caesar", "epaxos", "m2paxos", "mencius", "multipaxos"):
        latency[protocol] = {}
        slow[protocol] = {}
        for conflicts in args.conflicts:
            result = run_experiment(ExperimentConfig.from_args(
                args, protocol=protocol, conflict_rate=conflicts / 100.0))
            key = f"{conflicts:.0f}%"
            overall = result.overall_latency
            latency[protocol][key] = overall.mean if overall else None
            ratio = result.slow_path_ratio
            slow[protocol][key] = ratio * 100.0 if ratio is not None else None
    return (format_series("Mean latency (ms) across sites", latency, "conflict")
            + "\n\n"
            + format_series("Slow-path share (%)", slow, "conflict"))


def _figure(args: argparse.Namespace) -> str:
    driver = FIGURE_DRIVERS[args.number]
    overrides = QUICK_OVERRIDES[args.number] if args.quick else {}
    result = driver(**overrides)
    return result.table


def _sweeps_behind(result) -> list:
    """The SweepResults behind one FigureResult (two for Figure 9b)."""
    if "sweep" in result.extra:
        return [result.extra["sweep"]]
    return [result.extra[key].extra["sweep"]
            for key in ("without", "with_batching") if key in result.extra]


def _combined_record(name: str, sweeps, wall_seconds: float) -> PerfRecord:
    """One BENCH record aggregating every sweep a figure driver ran.

    ``wall_seconds`` is the observed wall time across all of them, so the
    merged events/second and speedup estimate describe the whole figure
    regeneration, not just the first sub-sweep.
    """
    events = sum(sweep.events_executed for sweep in sweeps)
    cells = sum(len(sweep.outcomes) for sweep in sweeps)
    cell_wall = sum(sweep.cell_wall_seconds for sweep in sweeps)
    skipped = sum(sweep.skipped for sweep in sweeps)
    timing = {
        "parts": cells,
        "cell_wall_seconds": round(cell_wall, 3),
        "workers": max(sweep.workers for sweep in sweeps),
        "cpus": os.cpu_count(),
    }
    if wall_seconds > 0:
        timing["parallel_speedup_estimate"] = round(cell_wall / wall_seconds, 2)
    extra = {"cells": cells, TIMING_EXTRA_KEY: timing}
    if skipped:
        extra["cells_skipped"] = skipped
    return PerfRecord(
        name=name, wall_seconds=wall_seconds, events_executed=events,
        events_per_second=(events / wall_seconds) if wall_seconds > 0 else 0.0,
        extra=extra)


def _list_cells(args: argparse.Namespace, targets: list) -> str:
    """Resolve every target's cell grid without running any experiment."""
    from repro.harness.sweep import planning_sweeps

    outputs = []
    for target in targets:
        driver = FIGURE_DRIVERS[target]
        overrides = dict(QUICK_OVERRIDES[target]) if args.quick else {}
        with planning_sweeps() as plan:
            driver(serial=True, cell_filter=args.cells, **overrides)
        selected = len(plan.selected)
        lines = [f"sweep {target} — {len(plan.cells)} cells, "
                 f"{selected} selected, {len(plan.cells) - selected} filtered out"]
        lines.extend(f"  {'*' if chosen else '-'} {key}" for key, chosen in plan.cells)
        outputs.append("\n".join(lines))
    return "\n\n".join(outputs)


def _sweep(args: argparse.Namespace) -> str:
    targets = list(FIGURE_DRIVERS) if "all" in args.figures else list(args.figures)
    # Preserve figure order, drop duplicates.
    targets = sorted(set(targets), key=_figure_order)
    if args.list_cells:
        return _list_cells(args, targets)
    store = _open_store(args)
    outputs = []
    for target in targets:
        driver = FIGURE_DRIVERS[target]
        overrides = dict(QUICK_OVERRIDES[target]) if args.quick else {}
        started = time.perf_counter()
        result = driver(workers=args.workers, serial=args.serial,
                        cell_filter=args.cells, **overrides)
        wall = time.perf_counter() - started
        name = driver.__name__

        record = _combined_record(f"sweep_{name}", _sweeps_behind(result), wall)
        record.series = {label: {str(x): y for x, y in points.items()}
                         for label, points in result.series.items()}

        args.out.mkdir(parents=True, exist_ok=True)
        table_path = args.out / f"sweep_{name}.txt"
        table_path.write_text(result.table + "\n")
        record_path = write_record(record, args.out, stable=args.stable_records)
        stored = ""
        if store is not None:
            # The store row carries the same payload as the BENCH file and is
            # keyed by its exact name, so the perf gate can use the latest
            # stored row per record as its baseline.
            run_id = store.record_run(
                "bench", record_path.name, substrate="sim",
                config={"figure": target, "quick": args.quick},
                metrics=record.to_json())
            stored = f"; stored as run {run_id}"
        outputs.append(f"{result.table}\n\n"
                       f"[sweep {target}: {len(record.series)} series, "
                       f"{record.extra['cells']} cells, wall {wall:.1f}s; "
                       f"wrote {table_path} and {record_path}{stored}]")
    if store is not None:
        store.close()
    return "\n\n".join(outputs)


def _shard(args: argparse.Namespace) -> tuple:
    """Run the sharded-keyspace study; returns ``(output, exit_code)``.

    Exit code 1 unless every submitted command was decided on every live
    replica of its shard and no shard saw a conflict-order violation — the
    same hard gate the sharded CI smoke relies on.
    """
    result = figures.shard_scaling(
        protocols=(args.protocol,), shard_counts=tuple(args.shards),
        skews=tuple(args.skew), sites=args.sites,
        replicas_per_site=args.replicas_per_site, clients=args.clients,
        commands_per_client=args.commands, key_space=args.key_space,
        hot_keys=args.hot_keys, seed=args.seed, workers=args.workers,
        serial=args.serial)
    violations = result.extra["total_violations"]
    undecided = result.extra["total_undecided"]
    lines = [result.table, "",
             f"conflict-order violations: {violations}",
             f"undecided commands:        {undecided}"]
    store = _open_store(args)
    if store is not None:
        with store:
            run_id = store.record_run(
                "sweep", args.label, protocol=args.protocol, substrate="sim",
                seed=args.seed,
                config={"shards": list(args.shards), "skew": list(args.skew),
                        "sites": args.sites,
                        "replicas_per_site": args.replicas_per_site,
                        "clients": args.clients, "commands": args.commands},
                metrics={"series": {label: {str(x): y for x, y in points.items()}
                                    for label, points in result.series.items()},
                         "total_violations": violations,
                         "total_undecided": undecided})
        lines.append(f"[stored as run {run_id} in {args.store}]")
    ok = violations == 0 and undecided == 0
    lines.append(f"verdict: {'PASS' if ok else 'FAIL'}")
    return "\n".join(lines), 0 if ok else 1


def _chaos_single(result) -> str:
    """Render one ChaosResult in full detail."""
    lines = [result.plan.describe(), ""]
    lines.append("nemesis log:")
    lines.extend(f"  t={when:>7.0f}ms  {what}" for when, what in result.nemesis_log)
    stats = result.client_stats
    lines.append("")
    lines.append(f"client operations:  {stats.total} taped, {stats.completed} completed, "
                 f"{stats.pending} pending, {stats.keys} keys")
    lines.append(f"decisions:          {result.fast_decisions} fast, "
                 f"{result.slow_decisions} slow, {result.recoveries} recoveries")
    if result.fault_stats:
        lines.append("fault plane:        "
                     + ", ".join(f"{k}={v}" for k, v in sorted(result.fault_stats.items())))
    lines.append(f"progress after heal: {result.probes_completed}/{result.probes_submitted}"
                 f" probes completed")
    lines.append(f"linearizability:    {result.report.describe()}")
    if result.internal_violations:
        lines.append(f"internal divergence: {len(result.internal_violations)} violations")
    lines.append("")
    lines.append(f"verdict: {result.verdict()}")
    return "\n".join(lines)


def _chaos(args: argparse.Namespace) -> tuple:
    """Run the chaos subcommand; returns ``(output, exit_code)``."""
    from repro.chaos.nemesis import NEMESIS_SCHEDULES, random_plan
    from repro.harness.chaos import (ChaosConfig, default_conformance_schedules,
                                     format_matrix, run_chaos, run_conformance_matrix)
    from repro.sim.random import DeterministicRandom

    if args.list_schedules:
        from repro.chaos.nemesis import CONFORMANCE_SCHEDULES

        lines = ["named nemesis schedules ('*' = in the conformance set):"]
        for name, builder in sorted(NEMESIS_SCHEDULES.items()):
            marker = "*" if name in CONFORMANCE_SCHEDULES else " "
            lines.append(f"  {marker} {name:22s} {(builder.__doc__ or '').strip()}")
        return "\n".join(lines), 0

    kwargs = ChaosConfig.kwargs_from_args(args)
    if args.matrix:
        protocols = args.protocols or ["caesar", "epaxos", "m2paxos", "mencius",
                                       "multipaxos"]
        schedules = args.schedules or default_conformance_schedules()
        results = run_conformance_matrix(protocols, schedules, **kwargs)
        ok = all(result.ok for result in results)
        return format_matrix(results), 0 if ok else 1

    if args.random is not None:
        root = DeterministicRandom(args.seed)
        outputs = []
        failures = 0
        for index in range(args.random):
            rng = root.fork_cell(("chaos-random", args.seed, index))
            plan = random_plan(rng, 5, kwargs["fault_at_ms"], kwargs["fault_hold_ms"],
                               include_lossy=args.include_lossy)
            result = run_chaos(ChaosConfig(protocol=args.protocol, plan=plan, **kwargs))
            failures += 0 if result.ok else 1
            outputs.append(f"[{index}] {result.verdict():24s} "
                           f"{len(plan.faults)} faults, "
                           f"{result.client_stats.completed} ops, "
                           f"probes {result.probes_completed}/{result.probes_submitted}")
        outputs.append(f"{args.random - failures}/{args.random} random schedules passed")
        return "\n".join(outputs), 0 if failures == 0 else 1

    result = run_chaos(ChaosConfig.from_args(args))
    return _chaos_single(result), 0 if result.ok else 1


def _serve(args: argparse.Namespace) -> int:
    """Run the serve subcommand; blocks until interrupted."""
    from repro.net.cluster import ServeConfig, serve_cluster
    from repro.net.replica import ReplicaConfig, serve_replica

    config = ServeConfig.from_args(args)
    if args.node_id is not None:
        # Multi-host mode: one replica in the foreground of this process.
        if config.peers is None:
            print("serve --node-id requires an explicit --peer map", file=sys.stderr)
            return 2
        import asyncio

        replica_config = ReplicaConfig(
            node_id=args.node_id, peers=config.peers, protocol=config.protocol,
            seed=config.seed, retransmit=config.retransmit, recovery=config.recovery,
            admission=config.admission)
        host, port = config.peers[args.node_id]
        print(f"replica {args.node_id} ({config.protocol}) listening on {host}:{port}")
        try:
            asyncio.run(serve_replica(replica_config))
        except KeyboardInterrupt:
            pass
        return 0

    cluster = serve_cluster(config)
    try:
        print(f"{config.protocol} cluster up — {len(cluster.peers)} replicas:")
        for node_id, (host, port) in sorted(cluster.peers.items()):
            print(f"  --endpoint {node_id}={host}:{port}")
        print("press Ctrl-C to stop")
        for process in cluster.processes.values():
            process.join()
        return 0
    except KeyboardInterrupt:
        return 0
    finally:
        cluster.stop()


def _loadgen(args: argparse.Namespace) -> int:
    """Run the loadgen subcommand; exit code 1 on missing decisions."""
    from repro.net.client import LoadgenConfig, run_loadgen
    from repro.net.cluster import ServeConfig, parse_peers, serve_cluster

    cluster = None
    if args.launch is not None:
        cluster = serve_cluster(ServeConfig.from_args(args, replicas=args.launch,
                                                      peers=None))
        endpoints = cluster.peers
    else:
        endpoints = parse_peers(args.endpoint or [])
        if not endpoints:
            print("loadgen needs --endpoint entries or --launch N", file=sys.stderr)
            return 2
    try:
        report = run_loadgen(LoadgenConfig.from_args(args, endpoints))
    finally:
        if cluster is not None:
            cluster.stop()
    store = _open_store(args)
    if store is not None:
        metrics = {key: value for key, value in report.as_dict().items()
                   if key != "per_replica"}
        with store:
            run_id = store.record_run(
                "loadgen", args.label, protocol=args.protocol, substrate="tcp",
                seed=args.seed,
                config={"clients": args.clients, "commands": args.commands,
                        "open_loop": args.open_loop, "rate": args.rate,
                        "duration_ms": args.duration, "warmup_ms": args.warmup_ms,
                        "admission": args.admission},
                metrics=metrics)
        print(f"[stored as run {run_id} in {args.store}]", file=sys.stderr)
    if args.json:
        print(json.dumps(report.as_dict(), indent=2))
    else:
        lines = [f"completed:  {report.completed}/{report.submitted} commands "
                 f"in {report.wall_seconds:.1f}s "
                 f"({report.throughput_per_second:.1f}/s)"]
        if report.mean_latency_ms is not None:
            lines.append(f"latency:    mean {report.mean_latency_ms:.1f} ms, "
                         f"p99 {report.p99_latency_ms:.1f} ms")
        for node_id, stats in sorted(report.per_replica.items()):
            executed = stats.get("commands_executed", "n/a")
            lines.append(f"replica {node_id}:  executed {executed}, "
                         f"handled {stats.get('messages_handled', 'n/a')} messages")
        lines.append("result:     " + ("ok" if report.ok else "FAILED"))
        lines.extend(f"  - {failure}" for failure in report.failures)
        print("\n".join(lines))
    return 0 if report.ok else 1


def _overload(args: argparse.Namespace) -> str:
    """Run the overload subcommand (offered-load sweep + optional store)."""
    from repro.harness.overload import (OverloadConfig, run_overload_sweep,
                                        store_overload_result)

    config = OverloadConfig.from_args(args)
    result = run_overload_sweep(config)
    if args.json:
        output = json.dumps({"config": {"protocol": config.protocol,
                                        "substrate": config.substrate,
                                        "admission": config.admission,
                                        "offered_loads": list(config.offered_loads)},
                             "summary": result.summary_metrics(),
                             "points": [point.as_dict() for point in result.points]},
                            indent=2)
    else:
        output = result.table()
    store = _open_store(args)
    if store is not None:
        with store:
            run_id = store_overload_result(store, result, label=args.label)
        output += f"\n[stored as run {run_id} in {args.store}]"
    return output


#: Decision-path modules summarized by ``repro profile`` (path fragments
#: matched against pstats entries).
DECISION_PATH_MODULES = ("repro/core/history", "repro/core/predecessors",
                         "repro/core/delivery", "repro/core/caesar")


def _profile(args: argparse.Namespace) -> str:
    """Run the profile subcommand: cProfile one figure sweep and summarize it.

    Prints the pstats top-N table plus a decision-path section (call counts
    and ops/second for the history / predecessor / wait / delivery layers).
    Wall-clock numbers are measured *under the profiler*, which inflates
    call-heavy code — use them to compare shapes, not as absolute throughput.
    """
    import cProfile
    import io
    import pstats

    from repro.metrics.perf import PerfTracker

    driver = FIGURE_DRIVERS[args.number]
    overrides = dict(QUICK_OVERRIDES[args.number]) if args.quick else {}
    profiler = cProfile.Profile()
    with PerfTracker(f"profile_{driver.__name__}") as tracker:
        profiler.enable()
        try:
            driver(serial=True, cell_filter=args.cells, **overrides)
        finally:
            profiler.disable()
    record = tracker.record

    stream = io.StringIO()
    stats = pstats.Stats(profiler, stream=stream)
    stats.sort_stats(args.sort).print_stats(args.top)

    # Decision-path summary: every profiled function in the core modules,
    # by cumulative time.  pstats keys are (file, line, function) and values
    # start with (primitive_calls, total_calls, tottime, cumtime, ...).
    wall = record.wall_seconds
    decision_rows = []
    for (filename, _line, function), row in stats.stats.items():
        normalized = filename.replace("\\", "/")
        if any(fragment in normalized for fragment in DECISION_PATH_MODULES):
            calls, tottime, cumtime = row[1], row[2], row[3]
            decision_rows.append((cumtime, calls, tottime, normalized, function))
    decision_rows.sort(reverse=True)

    lines = [f"profiled {driver.__name__}"
             + (f" (cells: {' '.join(args.cells)})" if args.cells else "")
             + (" [--quick]" if args.quick else ""),
             f"wall {wall:.2f}s under cProfile, "
             f"{record.events_executed:,} simulator events "
             f"({record.events_per_second:,.0f} events/s profiled)",
             "",
             f"top {args.top} by {args.sort}:",
             stream.getvalue().rstrip(),
             "",
             "decision path (repro/core/*), by cumulative time:"]
    decision_path_metrics = {}
    for cumtime, calls, tottime, filename, function in decision_rows[:15]:
        module = filename.rsplit("/", 1)[-1]
        ops = calls / wall if wall > 0 else 0.0
        lines.append(f"  {module + ':' + function:<44} {calls:>9,} calls "
                     f"{ops:>12,.0f} ops/s  tot {tottime:6.2f}s  cum {cumtime:6.2f}s")
        decision_path_metrics[f"{module}:{function}"] = {
            "calls": calls, "ops_per_second": round(ops, 1),
            "tottime_s": round(tottime, 3), "cumtime_s": round(cumtime, 3)}

    store = _open_store(args)
    if store is not None:
        with store:
            run_id = store.record_run(
                "bench", args.label, substrate="sim",
                config={"figure": args.number, "quick": args.quick,
                        "cells": args.cells},
                metrics={"wall_seconds": round(wall, 3),
                         "events_executed": record.events_executed,
                         "events_per_second": round(record.events_per_second, 1),
                         "decision_path": decision_path_metrics})
        lines.append(f"\n[stored as run {run_id} in {args.store}]")
    return "\n".join(lines)


def _report(args: argparse.Namespace) -> str:
    """Run the report subcommand (read-only over the results store)."""
    from repro.metrics.report import render_report
    from repro.metrics.store import ResultsStore

    path = pathlib.Path(args.store)
    if not path.exists():
        return (f"no results store at {path} — run a subcommand with --store "
                "first (e.g. 'repro overload --store')")
    with ResultsStore(path) as store:
        return render_report(store, kind=args.kind, label=args.label,
                             limit=args.limit, points=args.points)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "run":
        output = _run(args)
    elif args.command == "compare":
        output = _compare(args)
    elif args.command == "figure":
        output = _figure(args)
    elif args.command == "sweep":
        output = _sweep(args)
    elif args.command == "shard":
        output, code = _shard(args)
        print(output)
        return code
    elif args.command == "chaos":
        output, code = _chaos(args)
        print(output)
        return code
    elif args.command == "serve":
        return _serve(args)
    elif args.command == "loadgen":
        return _loadgen(args)
    elif args.command == "overload":
        output = _overload(args)
    elif args.command == "profile":
        output = _profile(args)
    elif args.command == "report":
        output = _report(args)
    elif args.command == "topology":
        output = ec2_five_sites().describe()
    else:  # pragma: no cover - argparse enforces the choices
        parser.error(f"unknown command {args.command!r}")
        return 2
    print(output)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
