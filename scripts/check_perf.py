#!/usr/bin/env python3
"""Perf-regression gate over `reproduce -- <id> --json` output.

Usage:
    check_perf.py BASELINE.json FRESH.json [--tolerance N] [--id EXP]

Both files are arrays of experiment reports as emitted by
`cargo run -p bdbms-bench --release --bin reproduce -- e13 --json`
(or `-- e14 --json` with `--id e14`).  For every query row of the gated
experiment present in both files, the fresh speedup (the "speedup"
column, e.g. "12000.5x") must be at least `baseline / N` (default
N = 5): only a more-than-N-fold drop fails the gate, so noisy CI
runners never flake it, while a collapse — a prepared statement
re-planning on every call, a pathological undo-log replay — trips it.
Every row compares two legs of the same engine; plan regressions (an
index probe degrading to a full scan, a LIMIT that stops terminating
the pipeline) are caught by the `benchmark/` workloads and by the
absolute `ExecStats` values the test suite pins, not here.

A few workloads additionally carry an *absolute* floor (see
ABSOLUTE_FLOOR): e14's group-commit rows gate the paper-repro
acceptance numbers — >= 4x aggregate commit throughput over sequential
commits and >= 4 commits per fsync — regardless of what the baseline
happened to measure.

Rows whose ratio is a cost rather than a gain carry an absolute
*ceiling* instead (see ABSOLUTE_CEILING): e13's cold-vs-warm checksummed
read must stay at or below 2x.

The two files must also agree on the *set* of workload keys: a workload
missing from the fresh run (renamed or deleted) and a workload present
only in the fresh run (newly added) both fail the gate.  Either way the
baseline no longer describes the benchmark and must be regenerated —
silently passing would leave the new workload ungated (or the old one
unmeasured) forever.

Exit code 0 = pass, 1 = regression / workload-key drift / malformed input.
"""

import json
import sys

# Per-workload tolerance overrides.  The default tolerance assumes the
# measured ratio is hardware-stable (algorithmic speedups are); a few
# workloads measure something hardware-dependent instead and only gate
# against outright collapse.
WORKLOAD_TOLERANCE = {
    # Full/NoSync = the price of the commit fsync barrier, which swings
    # with the filesystem and disk (tmpfs CI runners vs laptops vs SSDs).
    # A collapse to ~baseline/50 would still mean commits stopped
    # syncing; anything milder is machine variance, not a regression.
    "commit durability (Full vs NoSync)": 50.0,
    # e14: group-commit gains scale with fsync latency (a slow disk makes
    # the win huge, tmpfs makes it modest), so gate the relative drop
    # loosely — the ABSOLUTE_FLOOR entries below still hold the line.
    "sequential commits (wire)": 50.0,
    "group commit": 50.0,
    "commits per fsync": 50.0,
    # Concurrent point reads funnel through the single engine thread; the
    # ratio over sequential reads is scheduling-dependent, so only gate
    # against outright collapse.
    "point reads": 50.0,
    # e15: the ratio leans on I/O (COPY parses a file and checkpoints;
    # the INSERT side pays per-statement WAL appends), so the measured
    # multiple swings with the filesystem.  The ABSOLUTE_FLOOR entry
    # below carries the acceptance criterion.
    "bulk load (COPY vs row INSERTs)": 50.0,
}

# Absolute minimum speedups, enforced on the fresh run regardless of the
# baseline.  These encode acceptance criteria rather than trajectories.
ABSOLUTE_FLOOR = {
    # 16 concurrent committing clients must beat 16 sequential
    # single-session commits by >= 4x in aggregate throughput...
    "group commit": 4.0,
    # ...and one fsync must cover >= 4 acknowledged commits on average
    # (i.e. <= 0.25 fsyncs per acknowledged commit).
    "commits per fsync": 4.0,
    # e15 acceptance: COPY of a 50k-record FASTA dump must load >= 10x
    # faster than the same rows as row-at-a-time INSERT statements...
    "bulk load (COPY vs row INSERTs)": 10.0,
    # ...and filling an SBC sequence index from existing rows in bulk (one
    # sort + bottom-up loads: CREATE SEQUENCE INDEX, every open) must beat
    # growing it one insert at a time >= 2x (ISSUE 14; measured 4-6x).
    # Pure CPU, both legs in one process, so a hard floor is safe.
    "sequence index build (bulk vs incremental)": 2.0,
    # Observability acceptance (ISSUE 10): always-on metric counters may
    # cost at most ~5% on the hottest page-fetch path.  The row's ratio
    # is (metrics off) / (metrics on), so 0.95 means the instrumented
    # leg runs no more than ~5% slower than the uninstrumented one.
    "instrumentation overhead (metrics on vs off)": 0.95,
}

# Absolute maximum ratios — the inverse of ABSOLUTE_FLOOR, for rows whose
# "speedup" column is a *cost* (slow leg / fast leg of the same engine),
# so lower is better and a relative floor against the baseline would gate
# the wrong direction.  Such a row passes iff fresh <= ceiling.
ABSOLUTE_CEILING = {
    # Cold/warm = what a scan pays to re-read and CRC-verify every page
    # (ISSUE 13).  With the table-driven checksum a pool miss costs about
    # a page copy, and the ratio sits at 1.1–1.2x; the bit-at-a-time CRC it
    # replaced put it at 2.2x.  A cold scan costing more than twice a
    # warm one means a slow checksum (or a per-miss allocation) is back.
    "checksummed read (cold vs warm)": 2.0,
}


def speedups(path, exp_id):
    """Map query label -> speedup ratio from the `exp_id` report."""
    with open(path) as f:
        reports = json.load(f)
    for report in reports:
        if report.get("id") != exp_id:
            continue
        headers = report["headers"]
        qi = headers.index("query")
        si = headers.index("speedup")
        out = {}
        for row in report["rows"]:
            ratio = row[si].rstrip("x")
            try:
                out[row[qi]] = float(ratio)
            except ValueError:
                continue  # "-" (unmeasurable) rows are not gated
        return out
    raise SystemExit(f"error: no {exp_id} report found in {path}")


def main(argv):
    tolerance = 5.0
    exp_id = "e13"
    args = []
    i = 0
    while i < len(argv):
        if argv[i] == "--tolerance":
            tolerance = float(argv[i + 1])
            i += 2
        elif argv[i] == "--id":
            exp_id = argv[i + 1]
            i += 2
        else:
            args.append(argv[i])
            i += 1
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 1
    base = speedups(args[0], exp_id)
    fresh = speedups(args[1], exp_id)
    failed = False
    print(f"{'query':<24} {'baseline':>10} {'fresh':>10} {'floor':>10}  verdict")
    for label, base_s in sorted(base.items()):
        if label not in fresh:
            print(f"{label:<24} {base_s:>10.1f} {'missing':>10} {'':>10}  FAIL")
            failed = True
            continue
        fresh_s = fresh[label]
        if label in ABSOLUTE_CEILING:
            ceiling = ABSOLUTE_CEILING[label]
            verdict = "ok" if fresh_s <= ceiling else "FAIL"
            bound = f"<={ceiling:.1f}"
        else:
            floor = base_s / WORKLOAD_TOLERANCE.get(label, tolerance)
            floor = max(floor, ABSOLUTE_FLOOR.get(label, 0.0))
            verdict = "ok" if fresh_s >= floor else "FAIL"
            bound = f"{floor:.1f}"
        failed = failed or verdict == "FAIL"
        print(f"{label:<24} {base_s:>10.1f} {fresh_s:>10.1f} {bound:>10}  {verdict}")
    for label in sorted(set(fresh) - set(base)):
        print(f"{label:<24} {'(absent)':>10} {fresh[label]:>10.1f} {'':>10}  FAIL")
        failed = True
    if failed:
        print(
            f"\nperf gate FAILED: a speedup regressed by more than {tolerance}x, "
            "fell below an absolute floor, rose above an absolute ceiling, or "
            "the workload keys drifted (a row "
            f"added to or removed from the {exp_id} table), against "
            f"bench/baseline_{exp_id}.json.\nIf the change is intended, "
            "regenerate the baseline with:\n"
            f"  cargo run -p bdbms-bench --release --bin reproduce -- {exp_id} "
            f"--json > bench/baseline_{exp_id}.json"
        )
        return 1
    print("\nperf gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
