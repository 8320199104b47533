#!/usr/bin/env python3
"""Checks a freshly produced bench_service JSON against the checked-in
BENCH_service.json.

The CI bench-smoke job runs a small fixed workload and uploads its JSON as
an artifact; this script makes output drift fail the job instead of
silently shipping a broken artifact. Always checked, per the reference:

  1. sections   — the set of "bench" section names matches exactly
                  (a dropped or renamed section is a bench regression);
  2. row keys   — every row of a section carries exactly the keys the
                  reference rows of that section carry;
  3. sanity     — for every key whose value is a positive number in ALL
                  reference rows of the section, the candidate's value must
                  be a positive number too (a zeroed qps/mean_ms means the
                  bench silently measured nothing). Keys that are
                  legitimately zero in some runs (stddev with --runs=1,
                  raced/migration counters) exempt themselves by being zero
                  somewhere in the reference, or by the explicit list below.

With --compare, a perf-trajectory gate runs on top: each candidate row is
matched to the reference row with the same identity (string-valued keys
plus the sweep parameters in IDENTITY_NUMERIC_KEYS), and the performance
keys below must not regress past --max-ratio:

  * higher-is-better (qps, ops_per_sec, achieved_qps):
        fail when  got < ref / ratio
  * lower-is-better (mean_ms, us_per_op):
        fail when  got > ref * ratio + slack_ms

The additive --slack-ms keeps sub-millisecond latencies (reactive wake-up
means of ~0.05 ms) from tripping the relative gate on scheduler noise — a
real regression clears both bars easily. Candidate rows with no identity
match in the reference are skipped: CI sweeps fewer points than the
checked-in trajectory on purpose. Row *counts* are never compared for the
same reason.

Usage:
  check_bench_json.py <reference.json> <candidate.json>
      [--compare] [--max-ratio=R] [--slack-ms=S]
  check_bench_json.py --self-test
"""

import json
import numbers
import sys

# Volatile by construction: zero under --runs=1 or on quiet runs even
# though the checked-in trajectory happens to have them non-zero.
VOLATILE_KEYS = {
    "stddev_ms",
    "shared_stddev_ms",
    "copied_stddev_ms",
    "raced",
    "migrations",
    # How many notifies coalesce depends on scheduler interleaving; a
    # hypothetical run where the shard always outpaces the writers would
    # legitimately report 0.
    "coalesced",
    # Tracing overhead is a ratio against the "off" baseline: it is zero
    # for the baseline row itself and can go mildly negative on a noisy
    # run where the traced variant happens to finish faster.
    "overhead_ratio",
    # Prepare-bench hit rate is 0 by construction in the cold rows and
    # depends on warmup timing in the cached rows.
    "hit_rate",
    # Open-loop groups that missed the drain deadline; 0 on every healthy
    # run, nonzero only under CI-runner pressure.
    "failed",
}

# Sweep parameters that identify which point a row measures (as opposed to
# what it measured). Together with the string-valued keys they form the row
# identity --compare matches on.
IDENTITY_NUMERIC_KEYS = {
    "shards",
    "batch_size",
    "threads",
    "rows_per_table",
    "rows",
    "k",
    "offered_qps",
    "write_qps",
    "zipf_theta",
    "seed",
}

# Perf keys the --compare gate watches, by direction. Deliberately only
# size-insensitive metrics: total_ms scales with --pairs, so a smaller CI
# sweep would "regress" it without anything being slower.
HIGHER_BETTER_KEYS = {"qps", "ops_per_sec", "achieved_qps"}
LOWER_BETTER_KEYS = {"mean_ms", "us_per_op"}


def positive_number(v):
    return (
        isinstance(v, numbers.Number)
        and not isinstance(v, bool)
        and v > 0
    )


def rows_by_section(rows, path):
    out = {}
    for i, row in enumerate(rows):
        if "bench" not in row:
            raise SystemExit(f"{path}: row {i} has no 'bench' key")
        out.setdefault(row["bench"], []).append(row)
    return out


def row_identity(row):
    """Hashable identity: the string-valued keys plus sweep parameters."""
    parts = []
    for k in sorted(row):
        v = row[k]
        if isinstance(v, str) or k in IDENTITY_NUMERIC_KEYS:
            parts.append((k, v))
    return tuple(parts)


def check_schema(ref, got, ref_path):
    """Sections, row keys, positivity. Returns a list of error strings."""
    errors = []

    missing = sorted(set(ref) - set(got))
    extra = sorted(set(got) - set(ref))
    if missing:
        errors.append(f"missing sections: {missing}")
    if extra:
        errors.append(f"unexpected sections: {extra}")

    for section in sorted(set(ref) & set(got)):
        ref_rows, got_rows = ref[section], got[section]
        ref_keys = set(ref_rows[0])
        for i, row in enumerate(ref_rows[1:], 1):
            if set(row) != ref_keys:
                errors.append(
                    f"{ref_path}: section '{section}' row {i} keys disagree "
                    f"with row 0 — fix the reference first"
                )
        # Keys required to be positive: positive in EVERY reference row and
        # not known-volatile.
        required_positive = {
            k
            for k in ref_keys
            if k not in VOLATILE_KEYS
            and all(positive_number(r[k]) for r in ref_rows)
        }
        for i, row in enumerate(got_rows):
            if set(row) != ref_keys:
                errors.append(
                    f"section '{section}' row {i}: keys "
                    f"{sorted(set(row) ^ ref_keys)} differ from the "
                    f"reference schema"
                )
                continue
            for k in sorted(required_positive):
                if not positive_number(row[k]):
                    errors.append(
                        f"section '{section}' row {i}: '{k}' = {row[k]!r} "
                        f"(expected a positive number)"
                    )

    return errors


def check_compare(ref, got, max_ratio, slack_ms):
    """Perf-trajectory gate. Returns (errors, compared, skipped)."""
    errors = []
    compared = 0
    skipped = 0

    for section in sorted(set(ref) & set(got)):
        # A reference identity can legitimately map to several rows (the
        # trajectory keeps historical repeats); gate against the most
        # lenient one so runner variance between archived runs never turns
        # into a false positive.
        by_identity = {}
        for r in ref[section]:
            by_identity.setdefault(row_identity(r), []).append(r)

        for row in got[section]:
            matches = by_identity.get(row_identity(row))
            if not matches:
                skipped += 1
                continue
            watched = [
                k
                for k in sorted(row)
                if k in (HIGHER_BETTER_KEYS | LOWER_BETTER_KEYS)
                and k not in VOLATILE_KEYS
                and isinstance(row.get(k), numbers.Number)
            ]
            point = ", ".join(
                f"{k}={v}" for k, v in row_identity(row) if k != "bench"
            )
            for k in watched:
                refs = [
                    m[k] for m in matches
                    if isinstance(m.get(k), numbers.Number)
                ]
                if not refs:
                    continue
                compared += 1
                gv = row[k]
                if k in HIGHER_BETTER_KEYS:
                    bar = min(refs) / max_ratio
                    if gv < bar:
                        errors.append(
                            f"section '{section}' ({point}): '{k}' = "
                            f"{gv:g} regressed more than {max_ratio:g}x "
                            f"below the reference {min(refs):g}"
                        )
                else:
                    bar = max(refs) * max_ratio + slack_ms
                    if gv > bar:
                        errors.append(
                            f"section '{section}' ({point}): '{k}' = "
                            f"{gv:g} regressed past the reference "
                            f"{max(refs):g} (limit {bar:g} = "
                            f"{max_ratio:g}x + {slack_ms:g}ms slack)"
                        )
    return errors, compared, skipped


# --------------------------------------------------------------- self-test --

SELF_TEST_REF = [
    {"bench": "service_scaling", "workload": "social", "shards": 2,
     "qps": 40000.0, "total_ms": 100.0, "answered": 4000},
    {"bench": "service_scaling", "workload": "social", "shards": 4,
     "qps": 70000.0, "total_ms": 60.0, "answered": 4000},
    {"bench": "reactive", "path": "wakeup", "mean_ms": 0.05,
     "rounds": 200, "raced": 3},
    {"bench": "workload", "workload": "kway", "k": 3,
     "offered_qps": 800.0, "achieved_qps": 790.0, "mean_ms": 0.4,
     "failed": 0, "seed": 42},
]


def _clone(rows):
    return json.loads(json.dumps(rows))


def self_test():
    """Negative fixtures: the checker must fail on each seeded defect and
    pass on a clean candidate. Mirrors check_docs.py --self-test."""
    failures = []

    def expect(name, want_errors, errors):
        ok = bool(errors) == want_errors
        if not ok:
            failures.append(name)
        status = "ok" if ok else "FAILED"
        detail = f" ({errors[0]})" if errors else ""
        print(f"  self-test {name}: {status}{detail}")

    ref = rows_by_section(_clone(SELF_TEST_REF), "<ref>")

    # Clean candidate passes both modes.
    clean = rows_by_section(_clone(SELF_TEST_REF), "<got>")
    expect("clean-schema-passes", False, check_schema(ref, clean, "<ref>"))
    expect("clean-compare-passes", False,
           check_compare(ref, clean, 2.0, 2.0)[0])

    # Dropped section.
    rows = [r for r in _clone(SELF_TEST_REF) if r["bench"] != "reactive"]
    expect("missing-section-fails", True,
           check_schema(ref, rows_by_section(rows, "<got>"), "<ref>"))

    # Dropped key on one row.
    rows = _clone(SELF_TEST_REF)
    del rows[0]["qps"]
    expect("missing-key-fails", True,
           check_schema(ref, rows_by_section(rows, "<got>"), "<ref>"))

    # Zeroed metric that is positive in every reference row.
    rows = _clone(SELF_TEST_REF)
    rows[1]["qps"] = 0
    expect("zeroed-metric-fails", True,
           check_schema(ref, rows_by_section(rows, "<got>"), "<ref>"))

    # Volatile key at zero stays legal.
    rows = _clone(SELF_TEST_REF)
    rows[2]["raced"] = 0
    expect("volatile-zero-passes", False,
           check_schema(ref, rows_by_section(rows, "<got>"), "<ref>"))

    # Compare: qps regression beyond the ratio fails ...
    rows = _clone(SELF_TEST_REF)
    rows[0]["qps"] = 15000.0  # ref 40000, ratio 2 -> bar 20000
    expect("qps-regression-fails", True,
           check_compare(ref, rows_by_section(rows, "<got>"), 2.0, 2.0)[0])

    # ... while one within the ratio passes.
    rows = _clone(SELF_TEST_REF)
    rows[0]["qps"] = 25000.0
    expect("qps-within-ratio-passes", False,
           check_compare(ref, rows_by_section(rows, "<got>"), 2.0, 2.0)[0])

    # Compare: latency regression past ratio + slack fails ...
    rows = _clone(SELF_TEST_REF)
    rows[3]["mean_ms"] = 3.5  # ref 0.4, bar = 0.8 + 2.0 = 2.8
    expect("latency-regression-fails", True,
           check_compare(ref, rows_by_section(rows, "<got>"), 2.0, 2.0)[0])

    # ... but the slack absorbs sub-millisecond noise.
    rows = _clone(SELF_TEST_REF)
    rows[2]["mean_ms"] = 0.5  # 10x the 0.05 ref, still under the 2ms slack
    expect("slack-absorbs-noise", False,
           check_compare(ref, rows_by_section(rows, "<got>"), 2.0, 2.0)[0])

    # Compare: achieved_qps collapse (saturation regression) fails.
    rows = _clone(SELF_TEST_REF)
    rows[3]["achieved_qps"] = 100.0
    expect("achieved-qps-collapse-fails", True,
           check_compare(ref, rows_by_section(rows, "<got>"), 2.0, 2.0)[0])

    # Compare: a row with no identity match is skipped, not failed.
    rows = _clone(SELF_TEST_REF)
    rows[3]["k"] = 7
    rows[3]["achieved_qps"] = 1.0
    errors, _, skipped = check_compare(
        ref, rows_by_section(rows, "<got>"), 2.0, 2.0)
    expect("unmatched-row-skipped", False, errors)
    if skipped != 1:
        failures.append("unmatched-row-skip-count")
        print(f"  self-test unmatched-row-skip-count: FAILED ({skipped})")

    if failures:
        print(f"self-test FAILED: {failures}")
        return 1
    print("self-test OK")
    return 0


def main():
    argv = sys.argv[1:]
    if argv == ["--self-test"]:
        return self_test()

    compare = False
    max_ratio = 2.0
    slack_ms = 2.0
    paths = []
    for a in argv:
        if a == "--compare":
            compare = True
        elif a.startswith("--max-ratio="):
            max_ratio = float(a[len("--max-ratio="):])
        elif a.startswith("--slack-ms="):
            slack_ms = float(a[len("--slack-ms="):])
        else:
            paths.append(a)
    if len(paths) != 2 or max_ratio < 1.0:
        raise SystemExit(__doc__)

    ref_path, got_path = paths
    with open(ref_path) as f:
        ref = rows_by_section(json.load(f), ref_path)
    with open(got_path) as f:
        got = rows_by_section(json.load(f), got_path)

    errors = check_schema(ref, got, ref_path)
    note = ""
    if compare:
        cmp_errors, compared, skipped = check_compare(
            ref, got, max_ratio, slack_ms)
        errors += cmp_errors
        note = (f"; perf gate: {compared} comparisons"
                f" ({skipped} rows without a reference point skipped)")

    if errors:
        print(f"bench JSON check FAILED ({got_path} vs {ref_path}):")
        for e in errors:
            print(f"  - {e}")
        return 1
    sections = ", ".join(sorted(got))
    print(f"bench JSON check OK: sections [{sections}] match the "
          f"reference{note}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
