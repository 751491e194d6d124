"""CI perf-regression gate over BENCH_*.json records.

Compares freshly generated benchmark records (``benchmarks/out/``, where a
benchmark run writes them) against a baseline directory (the records
committed in ``benchmarks/results/``, which a run never rewrites) and fails
when either

* a record's ``events_per_second`` dropped by more than ``--max-drop``, or
* a record's codec-measured ``codec_bytes_per_decision`` (written by the
  message-footprint benchmark under ``extra``) grew by more than
  ``--max-bytes-growth`` for any protocol — catching wire-format bloat the
  same way the events/second floor catches slowdowns.

This is what turns the perf records PR 1 introduced into an enforced floor
instead of a number someone has to eyeball.

Usage (what ``.github/workflows/ci.yml`` runs)::

    pytest benchmarks/test_protocol_microbench.py benchmarks/test_sweep_orchestrator.py
    python benchmarks/compare_perf.py --baseline benchmarks/results \
        --current benchmarks/out --max-drop 0.30 --max-bytes-growth 0.10

The committed baselines change only through an explicit
``pytest benchmarks --update-baselines`` (see ``benchmarks/conftest.py``).

Exit codes: 0 = within budget, 1 = regression detected, 2 = usage error
(no comparable records found).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Dict, List, Optional, Sequence


def load_record(path: pathlib.Path) -> dict:
    """Parse one BENCH_*.json record."""
    return json.loads(path.read_text())


def events_per_second(record: dict) -> Optional[float]:
    """The record's ``events_per_second``, ``None`` when absent.

    Records written with ``--stable-records`` omit the field on purpose;
    they carry no timing information to gate on.  A present-but-zero value
    is returned as 0.0 so a run that collapsed to zero events *fails* the
    gate instead of being skipped.
    """
    value = record.get("events_per_second")
    return float(value) if value is not None else None


def bytes_per_decision(record: dict) -> Optional[Dict[str, float]]:
    """The record's per-protocol codec-measured bytes, ``None`` when absent."""
    extra = record.get("extra")
    if not isinstance(extra, dict):
        return None
    value = extra.get("codec_bytes_per_decision")
    if not isinstance(value, dict):
        return None
    return {name: float(size) for name, size in value.items()}


def compare_records(baseline_dir: pathlib.Path, current_dir: pathlib.Path,
                    max_drop: float, names: Sequence[str] = ("BENCH_*.json",),
                    max_bytes_growth: float = 0.10, out=sys.stdout) -> int:
    """Compare every matching record pair; returns the process exit code."""
    compared = 0
    regressions: List[str] = []
    baselines = sorted({path for pattern in names
                        for path in baseline_dir.glob(pattern)})
    for baseline_path in baselines:
        current_path = current_dir / baseline_path.name
        if not current_path.exists():
            print(f"SKIP {baseline_path.name}: not regenerated by this run", file=out)
            continue
        baseline_record = load_record(baseline_path)
        current_record = load_record(current_path)

        baseline = events_per_second(baseline_record)
        current = events_per_second(current_record)
        if baseline is None or current is None or baseline == 0:
            print(f"SKIP {baseline_path.name}: no events/second to compare", file=out)
        else:
            compared += 1
            change = (current - baseline) / baseline
            status = "OK  "
            if change < -max_drop:
                status = "FAIL"
                regressions.append(baseline_path.name)
            print(f"{status} {baseline_path.name}: {baseline:,.0f} -> {current:,.0f} "
                  f"events/s ({change:+.1%}, floor {-max_drop:.0%})", file=out)

        baseline_bytes = bytes_per_decision(baseline_record)
        current_bytes = bytes_per_decision(current_record)
        if baseline_bytes and not current_bytes:
            # The baseline was gated on wire bytes but the fresh record lost
            # them: failing loudly beats silently disabling the bytes gate.
            regressions.append(f"{baseline_path.name}:codec_bytes_per_decision missing")
            print(f"FAIL {baseline_path.name}: baseline has codec_bytes_per_decision "
                  f"but the current record does not (wire accounting broken?)", file=out)
        if baseline_bytes and current_bytes:
            for name in sorted(baseline_bytes):
                if baseline_bytes[name] == 0:
                    continue
                if name not in current_bytes:
                    regressions.append(f"{baseline_path.name}:{name} missing")
                    print(f"FAIL {baseline_path.name} [{name}]: protocol missing from "
                          f"the current record's codec_bytes_per_decision", file=out)
                    continue
                compared += 1
                growth = (current_bytes[name] - baseline_bytes[name]) / baseline_bytes[name]
                status = "OK  "
                if growth > max_bytes_growth:
                    status = "FAIL"
                    regressions.append(f"{baseline_path.name}:{name}")
                print(f"{status} {baseline_path.name} [{name}]: "
                      f"{baseline_bytes[name]:,.0f} -> {current_bytes[name]:,.0f} "
                      f"bytes/decision ({growth:+.1%}, ceiling +{max_bytes_growth:.0%})",
                      file=out)

    if not compared:
        print(f"error: no comparable BENCH records between {baseline_dir} and "
              f"{current_dir}", file=out)
        return 2
    if regressions:
        print(f"\nperf gate FAILED: {len(regressions)} measurement(s) out of budget "
              f"(>{max_drop:.0%} events/s drop or >{max_bytes_growth:.0%} "
              f"bytes/decision growth): {', '.join(regressions)}", file=out)
        return 1
    print(f"\nperf gate passed: {compared} measurement(s) within budget", file=out)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", type=pathlib.Path, required=True,
                        help="directory with the baseline BENCH_*.json records")
    parser.add_argument("--current", type=pathlib.Path,
                        default=pathlib.Path(__file__).parent / "out",
                        help="directory with the freshly generated records "
                             "(default: %(default)s)")
    parser.add_argument("--max-drop", type=float, default=0.30,
                        help="maximum tolerated fractional drop in events/second "
                             "(default: %(default)s)")
    parser.add_argument("--max-bytes-growth", type=float, default=0.10,
                        help="maximum tolerated fractional growth in codec-measured "
                             "bytes per decision (default: %(default)s)")
    parser.add_argument("--names", nargs="+", default=["BENCH_*.json"],
                        metavar="GLOB", help="record filename globs to compare")
    args = parser.parse_args(argv)
    return compare_records(args.baseline, args.current, args.max_drop, args.names,
                           max_bytes_growth=args.max_bytes_growth)


if __name__ == "__main__":
    sys.exit(main())
