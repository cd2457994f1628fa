#!/usr/bin/env python3
"""Perf guard: fail CI when fresh bench records regress against the committed baseline.

Usage: perf_guard.py FRESH_JSONL BASELINE_JSONL

Compares the smoke-mode bench records produced by the current build against
the BENCH_scenario_batch.json committed at the repo root (the first real
consumer of the benchmark trajectory). Two checks, both over the
intersection of record keys — records only one side has are ignored, so the
baseline may carry extra full-protocol evidence records:

- kernel_breakdown "total" records, keyed by (case, S): the branch phase's
  share of the fused loop must not exceed the baseline share by more than
  BRANCH_SHARE_TOLERANCE (absolute). Shares are time ratios, so they are
  robust to machine-speed differences between CI runners and the box the
  baseline was recorded on.
- scenario_batch batched records, keyed by (case, S, shards):
  scenarios/second must stay above SCEN_PER_SEC_RATIO x the baseline
  figure. The ratio is deliberately loose
  (CI runners vary widely) — it catches structural regressions such as
  losing the branch fast path or the fused launch geometry, not percent
  drift.
- serve_slo records, keyed by (rate, case_mix, shards): end-to-end p99 must
  stay below SLO_P99_RATIO x baseline p99 + SLO_P99_SLACK_MS (the slack
  absorbs timer noise on near-zero smoke latencies), and the shed rate must
  not exceed the baseline's by more than SLO_SHED_TOLERANCE (absolute).
  Catches serving-path regressions the throughput figures can't see:
  queueing pathologies, lost micro-batch coalescing, admission bugs.

Exits non-zero, listing every violation, if any check fails or if the
record intersection is empty (a guard that compares nothing guards nothing).
"""

import json
import sys

BRANCH_SHARE_TOLERANCE = 0.08  # absolute share points
SCEN_PER_SEC_RATIO = 0.4       # fresh must be >= this fraction of baseline
SLO_P99_RATIO = 5.0            # fresh p99 ceiling, as a multiple of baseline
SLO_P99_SLACK_MS = 20.0        # plus this absolute slack (timer noise floor)
SLO_SHED_TOLERANCE = 0.15      # absolute shed-rate points


def load_records(path):
    records = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line.startswith("{"):
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError:
                continue
    return records


def breakdown_totals(records):
    out = {}
    for rec in records:
        if rec.get("bench") != "kernel_breakdown" or rec.get("phase") != "total":
            continue
        key = (rec.get("case"), rec.get("S"))
        out[key] = rec
    return out


def batched_throughput(records):
    out = {}
    for rec in records:
        if rec.get("bench") != "scenario_batch" or rec.get("engine") != "batched":
            continue
        key = (rec.get("case"), rec.get("S"), rec.get("shards", 1))
        out[key] = rec
    return out


def serve_slo_points(records):
    out = {}
    for rec in records:
        if rec.get("bench") != "serve_slo":
            continue
        key = (rec.get("rate"), rec.get("case_mix"), rec.get("shards", 1))
        out[key] = rec
    return out


def main():
    if len(sys.argv) != 3:
        print(__doc__)
        return 2
    fresh = load_records(sys.argv[1])
    baseline = load_records(sys.argv[2])

    violations = []
    compared = 0

    fresh_totals = breakdown_totals(fresh)
    base_totals = breakdown_totals(baseline)
    for key in sorted(set(fresh_totals) & set(base_totals)):
        fresh_share = fresh_totals[key].get("branch_share")
        base_share = base_totals[key].get("branch_share")
        if fresh_share is None or base_share is None:
            continue  # pre-attribution baseline record: nothing was compared
        compared += 1
        if fresh_share > base_share + BRANCH_SHARE_TOLERANCE:
            violations.append(
                f"branch share regressed for {key}: {fresh_share:.3f} vs baseline "
                f"{base_share:.3f} (+{BRANCH_SHARE_TOLERANCE} allowed)"
            )

    fresh_scen = batched_throughput(fresh)
    base_scen = batched_throughput(baseline)
    for key in sorted(set(fresh_scen) & set(base_scen)):
        compared += 1
        fresh_rate = fresh_scen[key].get("scenarios_per_second", 0.0)
        base_rate = base_scen[key].get("scenarios_per_second", 0.0)
        if base_rate <= 0.0:
            continue
        if fresh_rate < SCEN_PER_SEC_RATIO * base_rate:
            violations.append(
                f"batched scen/s regressed for {key}: {fresh_rate:.2f} vs baseline "
                f"{base_rate:.2f} (floor {SCEN_PER_SEC_RATIO:.0%})"
            )

    fresh_slo = serve_slo_points(fresh)
    base_slo = serve_slo_points(baseline)
    for key in sorted(set(fresh_slo) & set(base_slo)):
        compared += 1
        fresh_p99 = fresh_slo[key].get("p99_ms", 0.0)
        base_p99 = base_slo[key].get("p99_ms", 0.0)
        ceiling = SLO_P99_RATIO * base_p99 + SLO_P99_SLACK_MS
        if base_p99 > 0.0 and fresh_p99 > ceiling:
            violations.append(
                f"serve_slo p99 regressed for {key}: {fresh_p99:.2f} ms vs baseline "
                f"{base_p99:.2f} ms (ceiling {ceiling:.2f} ms)"
            )
        fresh_shed = fresh_slo[key].get("shed_rate", 0.0)
        base_shed = base_slo[key].get("shed_rate", 0.0)
        if fresh_shed > base_shed + SLO_SHED_TOLERANCE:
            violations.append(
                f"serve_slo shed rate regressed for {key}: {fresh_shed:.3f} vs baseline "
                f"{base_shed:.3f} (+{SLO_SHED_TOLERANCE} allowed)"
            )

    if compared == 0:
        print("perf guard: no comparable records between fresh output and baseline")
        return 1
    if violations:
        print(f"perf guard: {len(violations)} regression(s) across {compared} comparisons:")
        for violation in violations:
            print(f"  - {violation}")
        return 1
    print(f"perf guard: OK ({compared} comparisons, no regressions)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
