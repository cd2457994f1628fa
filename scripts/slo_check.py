#!/usr/bin/env python3
"""Validate bench_serve_slo JSONL output (the CI slo-smoke artifact).

Usage: slo_check.py JSONL_PATH [--min-points=N] [--require-ledger]
                               [--expect-quarantine] [--expect-escalation]

Checks, stdlib only:
- at least --min-points (default 3) serve_slo records with DISTINCT offered
  rates — the committed BENCH_serve_slo.json must be a real sweep, not one
  point repeated;
- every record carries the required fields (rate, offered, shed, shed_rate,
  latency and per-stage percentiles, burn figures);
- quantiles are ordered (p50 <= p95 <= p99) and non-negative;
- shed_rate is a fraction in [0, 1] and consistent with shed/offered;
- per-stage p95s are non-negative and the solve stage is not identically
  zero across the sweep (a zero solve stage means timelines were never
  stamped — the instrumentation is dead);
- the fault-tolerance ledger balances in every record that carries it:
  offered == completed + shed + failed + deadline_shed, i.e. zero lost
  futures (DESIGN.md §12). --require-ledger makes the ledger fields
  mandatory (the chaos-smoke CI step); --expect-quarantine additionally
  demands that at least one record saw a shard quarantine trip;
- the engine-router split is consistent in every record that carries it:
  completed == completed_admm + completed_ipm, and completed_ipm +
  ipm_failures <= ipm_attempts (DESIGN.md §13).
  --expect-escalation (the escalation-smoke CI step) makes the split fields
  mandatory and additionally demands at least one IPM rescue somewhere in
  the sweep — proof the stress tenant really defeated ADMM and the
  MiniIPM rung caught it.

Exits non-zero listing every violation.
"""

import json
import sys

REQUIRED = [
    "rate",
    "offered",
    "shed",
    "shed_rate",
    "p50_ms",
    "p95_ms",
    "p99_ms",
    "slo_healthy",
    "latency_burn_fast",
    "latency_burn_slow",
]
STAGES = ["queue", "dispatch", "form", "stage", "solve", "extract", "ipm", "fulfill"]
LEDGER = ["completed", "failed", "deadline_shed", "retries", "quarantine_transitions"]
ENGINES = ["completed_admm", "completed_ipm", "ipm_attempts", "ipm_failures"]


def main():
    args = [a for a in sys.argv[1:] if not a.startswith("--")]
    min_points = 3
    require_ledger = "--require-ledger" in sys.argv[1:]
    expect_quarantine = "--expect-quarantine" in sys.argv[1:]
    expect_escalation = "--expect-escalation" in sys.argv[1:]
    for arg in sys.argv[1:]:
        if arg.startswith("--min-points="):
            min_points = int(arg.split("=", 1)[1])
    if len(args) != 1:
        print(__doc__)
        return 2

    records = []
    with open(args[0], encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line.startswith("{"):
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError:
                continue
            if rec.get("bench") == "serve_slo":
                records.append(rec)

    errors = []
    rates = {rec.get("rate") for rec in records}
    if len(rates) < min_points:
        errors.append(
            f"need >= {min_points} distinct offered-load points, found {len(rates)}: "
            f"{sorted(r for r in rates if r is not None)}"
        )

    any_solve_time = False
    for i, rec in enumerate(records):
        where = f"record {i} (rate={rec.get('rate')})"
        for field in REQUIRED:
            if field not in rec:
                errors.append(f"{where}: missing field '{field}'")
        for stage in STAGES:
            field = f"stage_{stage}_p95_us"
            if field not in rec:
                errors.append(f"{where}: missing field '{field}'")
            elif rec[field] < 0:
                errors.append(f"{where}: {field} is negative ({rec[field]})")
        if rec.get("stage_solve_p95_us", 0) > 0:
            any_solve_time = True

        p50, p95, p99 = (rec.get(k, 0) for k in ("p50_ms", "p95_ms", "p99_ms"))
        if not 0 <= p50 <= p95 <= p99:
            errors.append(f"{where}: quantiles disordered: p50={p50} p95={p95} p99={p99}")

        shed_rate = rec.get("shed_rate", 0)
        if not 0.0 <= shed_rate <= 1.0:
            errors.append(f"{where}: shed_rate {shed_rate} outside [0, 1]")
        offered, shed = rec.get("offered", 0), rec.get("shed", 0)
        if offered > 0 and abs(shed_rate - shed / offered) > 1e-6:
            errors.append(
                f"{where}: shed_rate {shed_rate} inconsistent with shed/offered "
                f"{shed}/{offered}"
            )

        # Fault-tolerance ledger: every offered request must be accounted for
        # exactly once — a completed value, a capacity shed, a typed failure,
        # or a deadline shed. Anything else is a lost future.
        if require_ledger:
            for field in LEDGER:
                if field not in rec:
                    errors.append(f"{where}: missing ledger field '{field}'")
        if all(field in rec for field in ("completed", "failed", "deadline_shed")):
            accounted = (
                rec["completed"] + shed + rec["failed"] + rec["deadline_shed"]
            )
            if accounted != offered:
                errors.append(
                    f"{where}: ledger imbalance — offered {offered} != completed "
                    f"{rec['completed']} + shed {shed} + failed {rec['failed']} + "
                    f"deadline_shed {rec['deadline_shed']} (lost futures: "
                    f"{offered - accounted})"
                )

        # Engine-router split: every completion is attributed to exactly one
        # ladder rung, and rescues never exceed attempts.
        if expect_escalation:
            for field in ENGINES:
                if field not in rec:
                    errors.append(f"{where}: missing engine-split field '{field}'")
        if all(f in rec for f in ("completed_admm", "completed_ipm")):
            split = rec["completed_admm"] + rec["completed_ipm"]
            if "completed" in rec and split != rec["completed"]:
                errors.append(
                    f"{where}: engine split {split} != completed {rec['completed']} "
                    f"(admm {rec['completed_admm']} + ipm {rec['completed_ipm']})"
                )
            if "ipm_attempts" in rec and rec["completed_ipm"] + rec.get(
                "ipm_failures", 0
            ) > rec["ipm_attempts"]:
                errors.append(
                    f"{where}: ipm rescues {rec['completed_ipm']} + failures "
                    f"{rec.get('ipm_failures', 0)} exceed attempts {rec['ipm_attempts']}"
                )

    if expect_quarantine and not any(
        rec.get("shard_quarantines", 0) > 0 or rec.get("quarantine_transitions", 0) > 0
        for rec in records
    ):
        errors.append(
            "--expect-quarantine: no record saw a shard quarantine trip "
            "(shard_quarantines and quarantine_transitions are zero everywhere)"
        )

    if expect_escalation and not any(rec.get("completed_ipm", 0) > 0 for rec in records):
        errors.append(
            "--expect-escalation: no record saw an IPM rescue (completed_ipm is zero "
            "everywhere) — the stress tenant never exercised the fallback engine"
        )

    if records and not any_solve_time:
        errors.append(
            "stage_solve_p95_us is zero in every record: stage timelines were never stamped"
        )

    if errors:
        print(f"slo check: {len(errors)} violation(s) in {args[0]}:")
        for error in errors:
            print(f"  - {error}")
        return 1
    print(f"slo check: OK ({len(records)} records, {len(rates)} offered-load points)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
