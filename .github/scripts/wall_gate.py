#!/usr/bin/env python3
"""Soft wall-time regression gate for the reproduce-quick CI job.

Compares a freshly measured `reproduce --timings` JSON against the
committed reference (BENCH_15_quick.json). CI hardware varies run to run,
so this is a *soft* gate: a >15 % total-wall regression emits a GitHub
warning annotation (and per-experiment detail for the worst offenders)
but never fails the job — the hard numbers ride in the uploaded artifact
for anyone chasing a real regression.

Usage: wall_gate.py <reference.json> <measured.json> [threshold]
"""

import json
import os
import sys


def main() -> int:
    if len(sys.argv) < 3:
        print(f"usage: {sys.argv[0]} <reference.json> <measured.json> [threshold]")
        return 2
    threshold = float(sys.argv[3]) if len(sys.argv) > 3 else 0.15
    if not os.path.exists(sys.argv[1]):
        print(
            "::warning title=wall-time gate skipped::committed reference "
            f"{sys.argv[1]} not found; regenerate it with `reproduce --quick "
            "--timings` and commit it"
        )
        return 0
    with open(sys.argv[1]) as f:
        ref = json.load(f)
    with open(sys.argv[2]) as f:
        got = json.load(f)

    if ref.get("quick") != got.get("quick"):
        print(
            "::warning title=wall-time gate skipped::reference and measured "
            f"timings use different profiles (quick={ref.get('quick')} vs "
            f"quick={got.get('quick')}); not comparable"
        )
        return 0

    if ref.get("jobs") != got.get("jobs"):
        print(
            "::warning title=wall-time gate skipped::reference and measured "
            f"timings use different worker counts (jobs={ref.get('jobs')} vs "
            f"jobs={got.get('jobs')}); not comparable"
        )
        return 0

    ref_total = ref["total_wall_seconds"]
    got_total = got["total_wall_seconds"]
    ratio = got_total / ref_total if ref_total > 0 else float("inf")
    print(
        f"wall-time gate: measured {got_total:.1f}s vs reference "
        f"{ref_total:.1f}s ({(ratio - 1) * 100:+.1f}%, threshold +{threshold * 100:.0f}%)"
    )
    if ratio <= 1 + threshold:
        return 0

    ref_by_name = {e["name"]: e["wall_seconds"] for e in ref.get("experiments", [])}
    worst = sorted(
        (
            (e["wall_seconds"] / ref_by_name[e["name"]], e["name"], e["wall_seconds"])
            for e in got.get("experiments", [])
            if ref_by_name.get(e["name"], 0) > 0
        ),
        reverse=True,
    )[:5]
    detail = ", ".join(f"{name} {r:.2f}x ({s:.1f}s)" for r, name, s in worst)
    print(
        "::warning title=reproduce wall-time regression::total "
        f"{got_total:.1f}s is {(ratio - 1) * 100:.1f}% over the committed "
        f"reference {ref_total:.1f}s; worst experiments: {detail}. "
        "Full timings are in the reproduce-metrics-quick artifact."
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
