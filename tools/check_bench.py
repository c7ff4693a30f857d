#!/usr/bin/env python3
"""Validates the schema of the BENCH_*.json perf-trajectory files, and
optionally gates them against a committed baseline.

The perf trajectory is only useful if every PR's BENCH_*.json stays
machine-readable with stable semantics; CI runs this after each harness and
fails the build on drift. The `bench` field selects the schema:

  micro_scan         kernel x thread full-scan sweep       (BENCH_scan.json)
  micro_lifecycle    view churn + eviction ablation        (BENCH_lifecycle.json)
  micro_concurrent   client scaling + shared-scan batching (BENCH_concurrent.json)
  micro_persistence  restart recovery + fsync sweep        (BENCH_persistence.json)
  micro_tiering      arena release, in memory vs durable   (BENCH_tiering.json)
  micro_shard        shard-per-core scale-out              (BENCH_shard.json)
  micro_view_life    map/hit/unmap cost per view, payback  (BENCH_view_life.json)

Regression gate (--baseline): compares each produced file against the
committed baseline of the same bench. The gate is deliberately GENEROUS —
CI machines differ wildly from the baseline box — so it fails only on
  - schema drift (either file failing its schema check, or bench mismatch),
  - a durable bench run on another filesystem than its baseline
    (`persist_fs`: its disk writes would time the disk, not the code),
  - a wall-time metric regressing by more than --max-regression (default
    5x) after per-page normalization (pages differ between CI and baseline
    runs).
Metrics present in only one file (e.g. thread counts the CI box lacks) are
skipped; an empty intersection fails, since that means the files no longer
measure the same things.

Usage: check_bench.py [--baseline BASE.json] [--max-regression X] <path>...
"""

import argparse
import json
import math
import sys

SCHEMA_VERSION = 1

KNOWN_KERNELS = {"scalar", "avx2", "avx512"}


def fail(msg):
    print(f"check_bench: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def expect_type(obj, field, want, where):
    if field not in obj:
        fail(f"{where}: missing field '{field}'")
    value = obj[field]
    # ints are acceptable where floats are expected (JSON number).
    if want is float and isinstance(value, int) and not isinstance(value, bool):
        return value
    if not isinstance(value, want) or (want is not bool and isinstance(value, bool)):
        fail(f"{where}: field '{field}' is {type(value).__name__}, want {want.__name__}")
    return value


def expect_fields(obj, fields, where):
    for field, want in fields.items():
        expect_type(obj, field, want, where)


def expect_nullable_number(obj, field, where):
    """dTLB counters are null where perf_event_open is unavailable —
    STRUCTURALLY null, not absent, so schema drift still fails loudly."""
    if field not in obj:
        fail(f"{where}: missing field '{field}'")
    value = obj[field]
    if value is None:
        return None
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        fail(f"{where}: field '{field}' is {type(value).__name__}, "
             f"want number or null")
    return value


def check_rep_array(cfg, field, reps, where):
    if len(cfg[field]) != reps:
        fail(f"{where}: {len(cfg[field])} {field} entries, want reps={reps}")
    if any(not isinstance(ms, (int, float)) or isinstance(ms, bool) or ms <= 0
           for ms in cfg[field]):
        fail(f"{where}: {field} entries must be positive numbers")


# ---------------------------------------------------------------------------
# micro_scan (BENCH_scan.json)

SCAN_TOP_LEVEL_FIELDS = {
    "pages": int,
    "values_per_page": int,
    "reps": int,
    "query_selectivity": float,
    "distribution": str,
    "seed": int,
    "hardware_concurrency": int,
    "default_kernel": str,
    "dtlb_available": bool,
    "configs": list,
}

SCAN_CONFIG_FIELDS = {
    "kernel": str,
    "threads": int,
    "median_ms": float,
    "pages_per_s": float,
    "gb_per_s": float,
    "rep_ms": list,
}

# perf_event_open counters: numbers where the group opened, null where the
# machine refuses perf (containers commonly do) — structural either way.
SCAN_DTLB_FIELDS = ("dtlb_load_misses", "dtlb_loads", "cycles",
                    "dtlb_miss_per_1k_loads")


def check_micro_scan(doc, path):
    expect_fields(doc, SCAN_TOP_LEVEL_FIELDS, path)
    if doc["pages"] <= 0 or doc["reps"] <= 0:
        fail(f"{path}: pages/reps must be positive")
    if doc["default_kernel"] not in KNOWN_KERNELS:
        fail(f"{path}: unknown default_kernel '{doc['default_kernel']}'")
    configs = doc["configs"]
    if not configs:
        fail(f"{path}: configs is empty")

    seen = set()
    kernels = set()
    for i, cfg in enumerate(configs):
        where = f"{path}: configs[{i}]"
        if not isinstance(cfg, dict):
            fail(f"{where}: not an object")
        expect_fields(cfg, SCAN_CONFIG_FIELDS, where)
        if cfg["kernel"] not in KNOWN_KERNELS:
            fail(f"{where}: unknown kernel '{cfg['kernel']}'")
        if cfg["threads"] <= 0:
            fail(f"{where}: threads must be positive")
        key = (cfg["kernel"], cfg["threads"])
        if key in seen:
            fail(f"{where}: duplicate configuration {key}")
        seen.add(key)
        kernels.add(cfg["kernel"])
        if cfg["median_ms"] <= 0 or cfg["pages_per_s"] <= 0 or cfg["gb_per_s"] <= 0:
            fail(f"{where}: throughput fields must be positive")
        check_rep_array(cfg, "rep_ms", doc["reps"], where)
        for field in SCAN_DTLB_FIELDS:
            value = expect_nullable_number(cfg, field, where)
            if doc["dtlb_available"]:
                if value is None or value < 0:
                    fail(f"{where}: {field} must be a non-negative number "
                         f"when dtlb_available")
            elif value is not None:
                fail(f"{where}: {field} must be null when !dtlb_available")
        # Derived-throughput consistency: pages_per_s must follow from
        # median_ms within rounding tolerance.
        derived = doc["pages"] / (cfg["median_ms"] / 1000.0)
        if not math.isclose(derived, cfg["pages_per_s"], rel_tol=1e-3):
            fail(f"{where}: pages_per_s {cfg['pages_per_s']} inconsistent "
                 f"with median_ms (expected ~{derived:.1f})")
    if "scalar" not in kernels:
        fail(f"{path}: no scalar baseline configuration present")
    return f"{len(configs)} configurations, kernels: {', '.join(sorted(kernels))}"


# ---------------------------------------------------------------------------
# micro_lifecycle (BENCH_lifecycle.json)

LIFECYCLE_TOP_LEVEL_FIELDS = {
    "pages": int,
    "values_per_page": int,
    "reps": int,
    "seed": int,
    "hardware_concurrency": int,
    "default_kernel": str,
    "threads": int,
    "churn": dict,
    "eviction": dict,
}

CHURN_FIELDS = {
    # Member pages after every other page was swap-removed.
    "view_pages": int,
    "remove_ms": float,
    "churned_median_ms": float,
    "churned_rep_ms": list,
    # Arena file mappings from /proc/self/maps (0 where it is unavailable):
    # after the churn, and after the release and remap from the bitmap.
    "churned_vmas": int,
    "remap_ms": float,
    "first_scan_ms": float,
    "remapped_median_ms": float,
    "remapped_rep_ms": list,
    "remapped_vmas": int,
}

EVICTION_FIELDS = {
    "max_views": int,
    "selectivity": float,
    "distribution": str,
    "workload_seed": int,
    "scenarios": list,
}

SCENARIO_FIELDS = {
    "scenario": str,
    "phases": int,
    "queries": int,
    "speedup_vs_drop_newest": float,
    "policies": list,
}

KNOWN_SCENARIOS = {"fig5_static", "fig5_phase_shift"}

POLICY_FIELDS = {
    "policy": str,
    "accumulated_ms": float,
    "scanned_pages": int,
    "views_created": int,
    "views_evicted": int,
    "candidates_dropped": int,
    "pages_saved_ratio": float,
}

KNOWN_POLICIES = {"drop_newest", "cost_aware"}


def check_micro_lifecycle(doc, path):
    expect_fields(doc, LIFECYCLE_TOP_LEVEL_FIELDS, path)
    if doc["pages"] <= 0 or doc["reps"] <= 0:
        fail(f"{path}: pages/reps must be positive")
    if doc["default_kernel"] not in KNOWN_KERNELS:
        fail(f"{path}: unknown default_kernel '{doc['default_kernel']}'")

    churn = doc["churn"]
    where = f"{path}: churn"
    expect_fields(churn, CHURN_FIELDS, where)
    if churn["view_pages"] <= 0:
        fail(f"{where}: view_pages must be positive")
    for field in ("remove_ms", "churned_median_ms", "remap_ms",
                  "first_scan_ms", "remapped_median_ms"):
        if churn[field] <= 0:
            fail(f"{where}: {field} must be positive")
    check_rep_array(churn, "churned_rep_ms", doc["reps"], where)
    check_rep_array(churn, "remapped_rep_ms", doc["reps"], where)
    # A remap maps the bitmap's runs ascending, the fewest file mappings
    # the page set allows; the churned arena can only have as many or more.
    if 0 < churn["churned_vmas"] < churn["remapped_vmas"]:
        fail(f"{where}: remapped arena has more VMAs "
             f"({churn['remapped_vmas']}) than the churned one "
             f"({churn['churned_vmas']})")

    ev = doc["eviction"]
    where = f"{path}: eviction"
    expect_fields(ev, EVICTION_FIELDS, where)
    if ev["max_views"] <= 0:
        fail(f"{where}: max_views must be positive")
    if not 0 < ev["selectivity"] <= 1:
        fail(f"{where}: selectivity out of (0, 1]")
    scenarios = {}
    for si, scenario in enumerate(ev["scenarios"]):
        swhere = f"{where}: scenarios[{si}]"
        if not isinstance(scenario, dict):
            fail(f"{swhere}: not an object")
        expect_fields(scenario, SCENARIO_FIELDS, swhere)
        if scenario["scenario"] not in KNOWN_SCENARIOS:
            fail(f"{swhere}: unknown scenario '{scenario['scenario']}'")
        if scenario["scenario"] in scenarios:
            fail(f"{swhere}: duplicate scenario '{scenario['scenario']}'")
        if scenario["queries"] <= 0 or scenario["phases"] <= 0:
            fail(f"{swhere}: queries/phases must be positive")
        policies = {}
        for i, p in enumerate(scenario["policies"]):
            pwhere = f"{swhere}: policies[{i}]"
            if not isinstance(p, dict):
                fail(f"{pwhere}: not an object")
            expect_fields(p, POLICY_FIELDS, pwhere)
            if p["policy"] not in KNOWN_POLICIES:
                fail(f"{pwhere}: unknown policy '{p['policy']}'")
            if p["policy"] in policies:
                fail(f"{pwhere}: duplicate policy '{p['policy']}'")
            if p["accumulated_ms"] <= 0:
                fail(f"{pwhere}: accumulated_ms must be positive")
            if not -1.0 <= p["pages_saved_ratio"] <= 1.0:
                fail(f"{pwhere}: pages_saved_ratio out of range")
            policies[p["policy"]] = p
        if set(policies) != KNOWN_POLICIES:
            fail(f"{swhere}: need exactly policies {sorted(KNOWN_POLICIES)}, "
                 f"got {sorted(policies)}")
        if policies["drop_newest"]["views_evicted"] != 0:
            fail(f"{swhere}: drop_newest must never evict")
        derived = (policies["drop_newest"]["accumulated_ms"] /
                   policies["cost_aware"]["accumulated_ms"])
        if not math.isclose(derived, scenario["speedup_vs_drop_newest"],
                            rel_tol=1e-3):
            fail(f"{swhere}: speedup_vs_drop_newest "
                 f"{scenario['speedup_vs_drop_newest']} inconsistent "
                 f"(expected ~{derived:.4f})")
        scenarios[scenario["scenario"]] = scenario
    if set(scenarios) != KNOWN_SCENARIOS:
        fail(f"{where}: need exactly scenarios {sorted(KNOWN_SCENARIOS)}, "
             f"got {sorted(scenarios)}")
    shift = scenarios["fig5_phase_shift"]["speedup_vs_drop_newest"]
    return (f"churn {churn['view_pages']} pages, {churn['churned_vmas']} -> "
            f"{churn['remapped_vmas']} VMAs; "
            f"eviction {shift:.2f}x vs drop_newest on the phase-shift workload")


# ---------------------------------------------------------------------------
# micro_concurrent (BENCH_concurrent.json)

CONCURRENT_TOP_LEVEL_FIELDS = {
    "pages": int,
    "values_per_page": int,
    "queries": int,
    "reps": int,
    "seed": int,
    "workload_seed": int,
    "selectivity": float,
    "distribution": str,
    "hardware_concurrency": int,
    "default_kernel": str,
    "threads": int,
    "scaling": dict,
    "batch": dict,
}

SCALING_POINT_FIELDS = {
    "clients": int,
    "readers_only_qps": float,
    "readers_only_wall_ms": float,
    "readers_rep_qps": list,
    "readers_writer_qps": float,
    "readers_writer_wall_ms": float,
    "writer_updates": int,
    "writer_flushes": int,
}

BATCH_FIELDS = {
    "queries": int,
    "overlap_groups": int,
    "individual_scanned_pages": int,
    "batch_scanned_pages": int,
    "page_reduction": float,
    "identical_results": bool,
    "individual_ms": float,
    "batch_ms": float,
    "view_answered": int,
    "base_answered": int,
}


def check_micro_concurrent(doc, path):
    expect_fields(doc, CONCURRENT_TOP_LEVEL_FIELDS, path)
    if doc["pages"] <= 0 or doc["reps"] <= 0 or doc["queries"] <= 0:
        fail(f"{path}: pages/reps/queries must be positive")
    if doc["default_kernel"] not in KNOWN_KERNELS:
        fail(f"{path}: unknown default_kernel '{doc['default_kernel']}'")
    if not 0 < doc["selectivity"] <= 1:
        fail(f"{path}: selectivity out of (0, 1]")

    points = doc["scaling"].get("client_counts")
    if not isinstance(points, list) or not points:
        fail(f"{path}: scaling.client_counts missing or empty")
    prev_clients = 0
    for i, p in enumerate(points):
        where = f"{path}: scaling.client_counts[{i}]"
        if not isinstance(p, dict):
            fail(f"{where}: not an object")
        expect_fields(p, SCALING_POINT_FIELDS, where)
        if p["clients"] <= prev_clients:
            fail(f"{where}: clients must be strictly increasing")
        prev_clients = p["clients"]
        if p["readers_only_qps"] <= 0 or p["readers_writer_qps"] <= 0:
            fail(f"{where}: throughput fields must be positive")
        check_rep_array(p, "readers_rep_qps", doc["reps"], where)
    if points[0]["clients"] != 1:
        fail(f"{path}: scaling must include the 1-client baseline first")

    batch = doc["batch"]
    where = f"{path}: batch"
    expect_fields(batch, BATCH_FIELDS, where)
    if batch["identical_results"] is not True:
        fail(f"{where}: batch execution diverged from individual results")
    if batch["batch_scanned_pages"] <= 0:
        fail(f"{where}: batch_scanned_pages must be positive")
    if batch["batch_scanned_pages"] > batch["individual_scanned_pages"]:
        fail(f"{where}: batch scanned MORE pages than individual execution")
    if batch["view_answered"] + batch["base_answered"] != batch["queries"]:
        fail(f"{where}: view_answered + base_answered != queries")
    derived = batch["individual_scanned_pages"] / batch["batch_scanned_pages"]
    if not math.isclose(derived, batch["page_reduction"], rel_tol=1e-3):
        fail(f"{where}: page_reduction {batch['page_reduction']} inconsistent "
             f"(expected ~{derived:.4f})")

    top = points[-1]
    return (f"{len(points)} client counts (1->{top['clients']}: "
            f"{points[0]['readers_only_qps']:.0f} -> "
            f"{top['readers_only_qps']:.0f} qps); batch scans "
            f"{batch['page_reduction']:.2f}x fewer pages, bit-identical")


# ---------------------------------------------------------------------------
# micro_persistence (BENCH_persistence.json)

PERSISTENCE_TOP_LEVEL_FIELDS = {
    "pages": int,
    "values_per_page": int,
    "queries": int,
    "reps": int,
    "seed": int,
    "workload_seed": int,
    "selectivity": float,
    "distribution": str,
    "hardware_concurrency": int,
    "default_kernel": str,
    "threads": int,
    # The filesystem under VMSV_PERSIST_DIR, from its statfs magic: tmpfs,
    # ext4, overlayfs, else the magic in hex.
    "persist_fs": str,
    "restart": dict,
    "fsync": dict,
    "group_commit": dict,
    "pool_edit": dict,
}

RESTART_FIELDS = {
    "views_persisted": int,
    "identical_results": bool,
    "rebuild_median_ms": float,
    "rebuild_rep_ms": list,
    "cold_open_median_ms": float,
    "cold_open_rep_ms": list,
    "open_recover_median_ms": float,
    "open_recover_rep_ms": list,
    "warm_median_ms": float,
    "warm_rep_ms": list,
    "cold_vs_rebuild_speedup": float,
}

FSYNC_POLICY_FIELDS = {
    "policy": str,
    "flush_median_ms": float,
    "rep_ms": list,
}

KNOWN_FSYNC_POLICIES = {"none", "async", "sync"}

GROUP_COMMIT_MODE_FIELDS = {
    "mode": str,
    "batch": int,
    "fsyncs_per_rep": int,
    "wall_median_ms": float,
    "rep_ms": list,
    "per_update_us": float,
}

# Part D: the manifest I/O of each durable 1%-view insert, in microseconds.
POOL_EDIT_FIELDS = {
    "selectivity": float,
    "edits": int,
    "median_us": float,
    "iqr_us": float,
    "edit_us": list,
}

# mode name -> expected batch size (0 = fdatasync on every update).
KNOWN_GROUP_COMMIT_MODES = {
    "sync_every_update": 0,
    "group_commit_8": 8,
    "group_commit_32": 32,
}


def check_micro_persistence(doc, path):
    expect_fields(doc, PERSISTENCE_TOP_LEVEL_FIELDS, path)
    if doc["pages"] <= 0 or doc["reps"] <= 0 or doc["queries"] <= 0:
        fail(f"{path}: pages/reps/queries must be positive")
    if not doc["persist_fs"]:
        fail(f"{path}: persist_fs is empty")
    if doc["default_kernel"] not in KNOWN_KERNELS:
        fail(f"{path}: unknown default_kernel '{doc['default_kernel']}'")
    if not 0 < doc["selectivity"] <= 1:
        fail(f"{path}: selectivity out of (0, 1]")

    restart = doc["restart"]
    where = f"{path}: restart"
    expect_fields(restart, RESTART_FIELDS, where)
    if restart["identical_results"] is not True:
        fail(f"{where}: restart diverged from pre-restart results")
    if restart["views_persisted"] <= 0:
        fail(f"{where}: no views survived the restart")
    for field in ("rebuild_median_ms", "cold_open_median_ms", "warm_median_ms"):
        if restart[field] <= 0:
            fail(f"{where}: {field} must be positive")
    # open_recover is PART of cold_open, so it can never exceed it.
    if restart["open_recover_median_ms"] < 0:
        fail(f"{where}: open_recover_median_ms negative")
    if restart["open_recover_median_ms"] > restart["cold_open_median_ms"]:
        fail(f"{where}: open_recover exceeds the cold open that contains it")
    for field in ("rebuild_rep_ms", "cold_open_rep_ms", "warm_rep_ms"):
        check_rep_array(restart, field, doc["reps"], where)
    if len(restart["open_recover_rep_ms"]) != doc["reps"]:
        fail(f"{where}: open_recover_rep_ms entry count != reps")
    derived = restart["rebuild_median_ms"] / restart["cold_open_median_ms"]
    if not math.isclose(derived, restart["cold_vs_rebuild_speedup"],
                        rel_tol=1e-3):
        fail(f"{where}: cold_vs_rebuild_speedup "
             f"{restart['cold_vs_rebuild_speedup']} inconsistent "
             f"(expected ~{derived:.4f})")

    fsync = doc["fsync"]
    where = f"{path}: fsync"
    if not isinstance(fsync.get("updates_per_flush"), int) or \
            fsync["updates_per_flush"] <= 0:
        fail(f"{where}: updates_per_flush must be a positive int")
    policies = {}
    for i, p in enumerate(fsync.get("policies", [])):
        pwhere = f"{where}: policies[{i}]"
        if not isinstance(p, dict):
            fail(f"{pwhere}: not an object")
        expect_fields(p, FSYNC_POLICY_FIELDS, pwhere)
        if p["policy"] not in KNOWN_FSYNC_POLICIES:
            fail(f"{pwhere}: unknown policy '{p['policy']}'")
        if p["policy"] in policies:
            fail(f"{pwhere}: duplicate policy '{p['policy']}'")
        if p["flush_median_ms"] <= 0:
            fail(f"{pwhere}: flush_median_ms must be positive")
        check_rep_array(p, "rep_ms", doc["reps"], pwhere)
        policies[p["policy"]] = p
    if set(policies) != KNOWN_FSYNC_POLICIES:
        fail(f"{where}: need exactly policies {sorted(KNOWN_FSYNC_POLICIES)}, "
             f"got {sorted(policies)}")

    gc = doc["group_commit"]
    where = f"{path}: group_commit"
    updates = gc.get("updates_per_rep")
    if not isinstance(updates, int) or updates <= 0:
        fail(f"{where}: updates_per_rep must be a positive int")
    modes = {}
    for i, m in enumerate(gc.get("modes", [])):
        mwhere = f"{where}: modes[{i}]"
        if not isinstance(m, dict):
            fail(f"{mwhere}: not an object")
        expect_fields(m, GROUP_COMMIT_MODE_FIELDS, mwhere)
        if m["mode"] not in KNOWN_GROUP_COMMIT_MODES:
            fail(f"{mwhere}: unknown mode '{m['mode']}'")
        if m["mode"] in modes:
            fail(f"{mwhere}: duplicate mode '{m['mode']}'")
        if m["batch"] != KNOWN_GROUP_COMMIT_MODES[m["mode"]]:
            fail(f"{mwhere}: batch {m['batch']} does not match mode")
        if m["wall_median_ms"] <= 0 or m["per_update_us"] <= 0:
            fail(f"{mwhere}: timings must be positive")
        check_rep_array(m, "rep_ms", doc["reps"], mwhere)
        # The fsync counts are DETERMINISTIC — per-update mode syncs every
        # append, group commit syncs exactly at multiple-of-batch LSNs — so
        # unlike wall time they can be gated exactly on any machine.
        batch = max(m["batch"], 1)
        expected_fsyncs = (updates + batch - 1) // batch
        if m["fsyncs_per_rep"] != expected_fsyncs:
            fail(f"{mwhere}: {m['fsyncs_per_rep']} fsyncs per rep, expected "
                 f"ceil({updates}/{batch}) = {expected_fsyncs}")
        modes[m["mode"]] = m
    if set(modes) != set(KNOWN_GROUP_COMMIT_MODES):
        fail(f"{where}: need exactly modes "
             f"{sorted(KNOWN_GROUP_COMMIT_MODES)}, got {sorted(modes)}")
    # The acceptance contract: batch >= 8 must reduce the per-update sync
    # cost versus the committed per-update-fsync baseline.
    if modes["group_commit_8"]["fsyncs_per_rep"] >= \
            modes["sync_every_update"]["fsyncs_per_rep"]:
        fail(f"{where}: group commit at batch 8 does not reduce fsyncs "
             f"({modes['group_commit_8']['fsyncs_per_rep']} vs "
             f"{modes['sync_every_update']['fsyncs_per_rep']})")

    pool = doc["pool_edit"]
    where = f"{path}: pool_edit"
    expect_fields(pool, POOL_EDIT_FIELDS, where)
    if pool["edits"] <= 0 or len(pool["edit_us"]) != pool["edits"]:
        fail(f"{where}: edits must be positive and match edit_us")
    if any(not isinstance(us, (int, float)) or isinstance(us, bool) or us <= 0
           for us in pool["edit_us"]):
        fail(f"{where}: edit_us entries must be positive numbers")
    if pool["median_us"] <= 0 or pool["iqr_us"] < 0:
        fail(f"{where}: median_us must be positive, iqr_us non-negative")
    ordered = sorted(pool["edit_us"])
    if not ordered[0] <= pool["median_us"] <= ordered[-1]:
        fail(f"{where}: median_us outside the range of edit_us")

    return (f"{restart['views_persisted']} views persisted, cold open "
            f"{restart['cold_vs_rebuild_speedup']:.2f}x faster than rebuild, "
            f"sync flush {policies['sync']['flush_median_ms']:.2f} ms, "
            f"group commit x8 cuts fsyncs "
            f"{modes['sync_every_update']['fsyncs_per_rep']} -> "
            f"{modes['group_commit_8']['fsyncs_per_rep']}, "
            f"pool edit {pool['median_us']:.1f} us on {doc['persist_fs']}")


# ---------------------------------------------------------------------------
# micro_tiering (BENCH_tiering.json)

TIERING_TOP_LEVEL_FIELDS = {
    "pages": int,
    "values_per_page": int,
    "reps": int,
    "seed": int,
    "hardware_concurrency": int,
    "default_kernel": str,
    "threads": int,
    "tiering": dict,
}

TIERING_FIELDS = {
    "selectivity": float,
    "phases": int,
    "epochs": int,
    "distribution": str,
    "workload_seed": int,
    "queries": int,
    "budgets": list,
}

TIERING_BUDGET_FIELDS = {
    "max_views": int,
    "pools": list,
}

TIERING_POOL_FIELDS = {
    "pool": str,
    "hit_rate": float,
    "accumulated_ms": float,
    "scanned_pages": int,
    "pages_saved_ratio": float,
    "views_created": int,
    "views_evicted": int,
    "views_demoted": int,
    "views_promoted": int,
    "candidates_dropped": int,
    "rep_ms": list,
}

KNOWN_TIERING_POOLS = {"in_memory", "durable"}

# What the two pool kinds must agree on exactly: a view has an arena or
# not, whatever the pool kind, so only the timings may differ.
TIERING_AGREEING_FIELDS = ("hit_rate", "scanned_pages", "pages_saved_ratio",
                           "views_created", "views_evicted", "views_demoted",
                           "views_promoted", "candidates_dropped")


def check_micro_tiering(doc, path):
    expect_fields(doc, TIERING_TOP_LEVEL_FIELDS, path)
    if doc["pages"] <= 0 or doc["reps"] <= 0:
        fail(f"{path}: pages/reps must be positive")
    if doc["default_kernel"] not in KNOWN_KERNELS:
        fail(f"{path}: unknown default_kernel '{doc['default_kernel']}'")

    tiering = doc["tiering"]
    where = f"{path}: tiering"
    expect_fields(tiering, TIERING_FIELDS, where)
    if not 0 < tiering["selectivity"] <= 1:
        fail(f"{where}: selectivity out of (0, 1]")
    if tiering["phases"] <= 1 or tiering["epochs"] < 2:
        fail(f"{where}: need a drifting workload (phases > 1) replayed at "
             f"least twice (epochs >= 2) for revisits to exist")
    if tiering["queries"] <= 0:
        fail(f"{where}: queries must be positive")
    if not tiering["budgets"]:
        fail(f"{where}: no budget points")

    budgets_seen = set()
    for bi, point in enumerate(tiering["budgets"]):
        bwhere = f"{where}: budgets[{bi}]"
        if not isinstance(point, dict):
            fail(f"{bwhere}: not an object")
        expect_fields(point, TIERING_BUDGET_FIELDS, bwhere)
        if point["max_views"] <= 0:
            fail(f"{bwhere}: max_views must be positive")
        if point["max_views"] in budgets_seen:
            fail(f"{bwhere}: duplicate budget {point['max_views']}")
        budgets_seen.add(point["max_views"])
        pools = {}
        for i, p in enumerate(point["pools"]):
            pwhere = f"{bwhere}: pools[{i}]"
            if not isinstance(p, dict):
                fail(f"{pwhere}: not an object")
            expect_fields(p, TIERING_POOL_FIELDS, pwhere)
            if p["pool"] not in KNOWN_TIERING_POOLS:
                fail(f"{pwhere}: unknown pool '{p['pool']}'")
            if p["pool"] in pools:
                fail(f"{pwhere}: duplicate pool '{p['pool']}'")
            if not 0.0 <= p["hit_rate"] <= 1.0:
                fail(f"{pwhere}: hit_rate out of [0, 1]")
            if p["accumulated_ms"] <= 0:
                fail(f"{pwhere}: accumulated_ms must be positive")
            if not -1.0 <= p["pages_saved_ratio"] <= 1.0:
                fail(f"{pwhere}: pages_saved_ratio out of range")
            check_rep_array(p, "rep_ms", doc["reps"], pwhere)
            pools[p["pool"]] = p
        if set(pools) != KNOWN_TIERING_POOLS:
            fail(f"{bwhere}: need exactly pools "
                 f"{sorted(KNOWN_TIERING_POOLS)}, got {sorted(pools)}")
        for field in TIERING_AGREEING_FIELDS:
            if pools["in_memory"][field] != pools["durable"][field]:
                fail(f"{bwhere}: in_memory and durable disagree on {field} "
                     f"({pools['in_memory'][field]} vs "
                     f"{pools['durable'][field]})")
    # The agreement above is about arena release; a run that released
    # nothing shows none of it.
    if not any(p["views_demoted"] > 0 for point in tiering["budgets"]
               for p in point["pools"]):
        fail(f"{where}: no budget released an arena (views_demoted 0 "
             f"everywhere), so the pools' agreement shows nothing")

    tight = tiering["budgets"][0]["pools"][0]
    return (f"{len(tiering['budgets'])} budget points, in_memory == durable "
            f"at each; tightest budget hit rate {tight['hit_rate']:.4f}, "
            f"{tight['views_demoted']} arenas released, "
            f"{tight['views_promoted']} mapped")


# ---------------------------------------------------------------------------
# micro_shard (BENCH_shard.json)

SHARD_TOP_LEVEL_FIELDS = {
    "pages": int,
    "values_per_page": int,
    "queries": int,
    "reps": int,
    "seed": int,
    "workload_seed": int,
    "selectivity": float,
    "distribution": str,
    "hardware_concurrency": int,
    "default_kernel": str,
    "threads": int,
    "shard": dict,
}

SHARD_FIELDS = {
    "clients": int,
    "partition": str,
    "identical_results": bool,
    "best_multi_shard_speedup": float,
    "shard_counts": list,
}

SHARD_POINT_FIELDS = {
    "shards": int,
    "readers_only_qps": float,
    "readers_only_wall_ms": float,
    "readers_rep_qps": list,
    "readers_writer_qps": float,
    "readers_writer_wall_ms": float,
    "rw_rep_qps": list,
    "writer_updates": int,
    "writer_flushes": int,
}

KNOWN_PARTITIONS = {"range"}


def check_micro_shard(doc, path):
    expect_fields(doc, SHARD_TOP_LEVEL_FIELDS, path)
    if doc["pages"] <= 0 or doc["reps"] <= 0 or doc["queries"] <= 0:
        fail(f"{path}: pages/reps/queries must be positive")
    if doc["default_kernel"] not in KNOWN_KERNELS:
        fail(f"{path}: unknown default_kernel '{doc['default_kernel']}'")
    if not 0 < doc["selectivity"] <= 1:
        fail(f"{path}: selectivity out of (0, 1]")

    shard = doc["shard"]
    where = f"{path}: shard"
    expect_fields(shard, SHARD_FIELDS, where)
    if shard["partition"] not in KNOWN_PARTITIONS:
        fail(f"{where}: unknown partition '{shard['partition']}'")
    if shard["clients"] <= 0:
        fail(f"{where}: clients must be positive")
    # The non-negotiable contract: every shard count answered the probe set
    # bit-identically to the 1-shard oracle.
    if shard["identical_results"] is not True:
        fail(f"{where}: sharded answers diverged from the 1-shard oracle")

    points = shard["shard_counts"]
    if not points:
        fail(f"{where}: shard_counts missing or empty")
    prev_shards = 0
    for i, p in enumerate(points):
        pwhere = f"{where}.shard_counts[{i}]"
        if not isinstance(p, dict):
            fail(f"{pwhere}: not an object")
        expect_fields(p, SHARD_POINT_FIELDS, pwhere)
        if p["shards"] <= prev_shards:
            fail(f"{pwhere}: shards must be strictly increasing")
        prev_shards = p["shards"]
        if p["readers_only_qps"] <= 0 or p["readers_writer_qps"] <= 0:
            fail(f"{pwhere}: throughput fields must be positive")
        check_rep_array(p, "readers_rep_qps", doc["reps"], pwhere)
        check_rep_array(p, "rw_rep_qps", doc["reps"], pwhere)
    if points[0]["shards"] != 1:
        fail(f"{where}: shard_counts must include the 1-shard oracle first")
    # The readers+writer points compare shard counts only under equal write
    # work: the writer runs a fixed budget of update bursts.
    budget = (points[0]["writer_updates"], points[0]["writer_flushes"])
    if budget[0] <= 0:
        fail(f"{where}: the 1-shard point applied no writer updates")
    for p in points[1:]:
        if (p["writer_updates"], p["writer_flushes"]) != budget:
            fail(f"{where}: {p['shards']} shards applied "
                 f"{p['writer_updates']} writer updates in "
                 f"{p['writer_flushes']} flushes, 1 shard {budget[0]} in "
                 f"{budget[1]}: the writer budget must not depend on the "
                 f"shard count")

    single = points[0]["readers_only_qps"]
    best_multi = max((p["readers_only_qps"] for p in points if p["shards"] > 1),
                     default=single)
    derived = max(1.0, best_multi / single) if single > 0 else 1.0
    if not math.isclose(derived, shard["best_multi_shard_speedup"],
                        rel_tol=1e-3):
        fail(f"{where}: best_multi_shard_speedup "
             f"{shard['best_multi_shard_speedup']} inconsistent "
             f"(expected ~{derived:.4f})")

    # The scale-out floor: on a multi-core host, serving through shards must
    # not LOSE readers-only throughput vs the unsharded point (the 0.9
    # factor absorbs closed-loop scheduling noise; the committed baseline
    # shows the actual climb). A 1-vCPU container cannot scale by
    # construction — parity is allowed and the floor is skipped.
    host_cpus = doc["hardware_concurrency"]
    if host_cpus >= 2 and len(points) > 1 and best_multi < 0.9 * single:
        fail(f"{where}: best multi-shard readers qps {best_multi:.1f} is "
             f"below 0.9x the 1-shard point {single:.1f} on a "
             f"{host_cpus}-cpu host")

    floor = ("floor enforced" if host_cpus >= 2
             else "1 vCPU: parity allowed, floor skipped")
    return (f"{len(points)} shard counts (1->{points[-1]['shards']}), best "
            f"multi-shard speedup {shard['best_multi_shard_speedup']:.2f}x, "
            f"bit-identical; {floor}")


# ---------------------------------------------------------------------------
# micro_view_life (BENCH_view_life.json)

VIEW_LIFE_TOP_LEVEL_FIELDS = {
    "pages": int,
    "values_per_page": int,
    "reps": int,
    "seed": int,
    "hardware_concurrency": int,
    "default_kernel": str,
    "threads": int,
    "view_life": dict,
}

VIEW_LIFE_FIELDS = {
    "selectivity": float,
    "views_per_series": int,
    "materialize_after_hits_default": int,
    "series": list,
}

# Per-view and per-series timings, in ms.
VIEW_LIFE_PARTS = ("map_ms", "first_hit_ms", "warm_arena_ms", "warm_base_ms",
                   "unmap_ms")

VIEW_LIFE_SERIES_FIELDS = {
    "distribution": str,
    "threads": int,
    "answers_match": bool,
    "views": list,
    **{f"median_{part}": float for part in VIEW_LIFE_PARTS},
}

VIEW_LIFE_VIEW_FIELDS = {
    "pages": int,
    "file_runs": int,
    **{part: float for part in VIEW_LIFE_PARTS},
}

KNOWN_VIEW_LIFE_DISTRIBUTIONS = {"sine", "linear", "sparse", "uniform"}
KNOWN_VIEW_LIFE_THREADS = {1, 4}


def check_micro_view_life(doc, path):
    expect_fields(doc, VIEW_LIFE_TOP_LEVEL_FIELDS, path)
    if doc["pages"] <= 0 or doc["reps"] <= 0:
        fail(f"{path}: pages/reps must be positive")
    if doc["default_kernel"] not in KNOWN_KERNELS:
        fail(f"{path}: unknown default_kernel '{doc['default_kernel']}'")
    life = doc["view_life"]
    where = f"{path}: view_life"
    expect_fields(life, VIEW_LIFE_FIELDS, where)
    if not 0 < life["selectivity"] <= 1 or life["views_per_series"] <= 0:
        fail(f"{where}: selectivity and views_per_series out of range")
    if life["materialize_after_hits_default"] < 1:
        fail(f"{where}: materialize_after_hits_default must be >= 1")
    seen = set()
    for i, s in enumerate(life["series"]):
        swhere = f"{where}: series[{i}]"
        if not isinstance(s, dict):
            fail(f"{swhere}: not an object")
        expect_fields(s, VIEW_LIFE_SERIES_FIELDS, swhere)
        key = (s["distribution"], s["threads"])
        if s["distribution"] not in KNOWN_VIEW_LIFE_DISTRIBUTIONS:
            fail(f"{swhere}: unknown distribution '{s['distribution']}'")
        if key in seen:
            fail(f"{swhere}: duplicate series {key}")
        seen.add(key)
        # The harness aborts on a wrong answer; a false here is a forged or
        # truncated file.
        if not s["answers_match"]:
            fail(f"{swhere}: answers differ from the full scan")
        payback = expect_nullable_number(s, "median_payback_hits", swhere)
        if payback is not None and payback < 1:
            fail(f"{swhere}: median_payback_hits must be >= 1 or null")
        if len(s["views"]) != life["views_per_series"]:
            fail(f"{swhere}: {len(s['views'])} views, want "
                 f"{life['views_per_series']}")
        for vi, v in enumerate(s["views"]):
            vwhere = f"{swhere}: views[{vi}]"
            if not isinstance(v, dict):
                fail(f"{vwhere}: not an object")
            expect_fields(v, VIEW_LIFE_VIEW_FIELDS, vwhere)
            if any(v[part] < 0 for part in VIEW_LIFE_PARTS):
                fail(f"{vwhere}: negative timing")
            if v["file_runs"] > v["pages"]:
                fail(f"{vwhere}: more file runs than pages")
            hits = expect_nullable_number(v, "payback_hits", vwhere)
            if hits is not None and hits < 1:
                fail(f"{vwhere}: payback_hits must be >= 1 or null")
    want = {(d, t) for d in KNOWN_VIEW_LIFE_DISTRIBUTIONS
            for t in KNOWN_VIEW_LIFE_THREADS}
    if seen != want:
        fail(f"{where}: need series {sorted(want)}, got {sorted(seen)}")
    sine = next(s for s in life["series"]
                if s["distribution"] == "sine" and s["threads"] == 4)
    return (f"{len(seen)} series x {life['views_per_series']} views, answers "
            f"match; sine x4 warm hit {sine['median_warm_arena_ms']:.3f} ms "
            f"arena vs {sine['median_warm_base_ms']:.3f} ms base, map "
            f"{sine['median_map_ms']:.3f} ms")


CHECKERS = {
    "micro_scan": check_micro_scan,
    "micro_lifecycle": check_micro_lifecycle,
    "micro_concurrent": check_micro_concurrent,
    "micro_persistence": check_micro_persistence,
    "micro_tiering": check_micro_tiering,
    "micro_shard": check_micro_shard,
    "micro_view_life": check_micro_view_life,
}


def check_file(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path}: {e}")

    expect_type(doc, "bench", str, path)
    expect_type(doc, "schema_version", int, path)
    if doc["schema_version"] != SCHEMA_VERSION:
        fail(f"{path}: schema_version {doc['schema_version']} != {SCHEMA_VERSION}")
    checker = CHECKERS.get(doc["bench"])
    if checker is None:
        fail(f"{path}: unknown bench '{doc['bench']}' "
             f"(known: {', '.join(sorted(CHECKERS))})")
    summary = checker(doc, path)
    print(f"check_bench: OK: {path} ({summary})")
    return doc


# ---------------------------------------------------------------------------
# Regression gate
#
# Each extractor returns {metric_name: wall_ms}. Only metrics present in
# BOTH files are compared against the (generous) regression factor —
# machine differences are expected, order-of-magnitude collapses are not.
# Scan-shaped metrics are normalized per page (CI columns are smaller than
# baseline ones); metrics whose cost does NOT scale with the column (the
# per-flush fsync sweep: journal records + manifest, not data pages) are
# listed in FLAT_METRIC_PREFIXES and compared raw.

FLAT_METRIC_PREFIXES = ("fsync/", "group_commit/")


def scan_metrics(doc):
    return {f"scan/{c['kernel']}x{c['threads']}": c["median_ms"]
            for c in doc["configs"]}


def lifecycle_metrics(doc):
    churn = doc["churn"]
    out = {
        "churn/remove": churn["remove_ms"],
        "churn/churned_scan": churn["churned_median_ms"],
        "churn/remap": churn["remap_ms"],
        "churn/remapped_scan": churn["remapped_median_ms"],
    }
    for scenario in doc["eviction"]["scenarios"]:
        for p in scenario["policies"]:
            out[f"eviction/{scenario['scenario']}/{p['policy']}"] = \
                p["accumulated_ms"]
    return out


def concurrent_metrics(doc):
    out = {}
    for p in doc["scaling"]["client_counts"]:
        out[f"scaling/{p['clients']}_readers"] = p["readers_only_wall_ms"]
        out[f"scaling/{p['clients']}_rw"] = p["readers_writer_wall_ms"]
    out["batch/individual"] = doc["batch"]["individual_ms"]
    out["batch/batch"] = doc["batch"]["batch_ms"]
    return out


def persistence_metrics(doc):
    out = {
        "restart/rebuild": doc["restart"]["rebuild_median_ms"],
        "restart/cold_open": doc["restart"]["cold_open_median_ms"],
        "restart/warm": doc["restart"]["warm_median_ms"],
    }
    for p in doc["fsync"]["policies"]:
        out[f"fsync/{p['policy']}"] = p["flush_median_ms"]
    for m in doc["group_commit"]["modes"]:
        out[f"group_commit/{m['mode']}"] = m["wall_median_ms"]
    # pool_edit is reported and schema-checked, not gated: its noise on
    # other runners is unmeasured.
    return out


def tiering_metrics(doc):
    out = {}
    for point in doc["tiering"]["budgets"]:
        for p in point["pools"]:
            out[f"tiering/b{point['max_views']}_{p['pool']}"] = \
                p["accumulated_ms"]
    return out


def shard_metrics(doc):
    out = {}
    for p in doc["shard"]["shard_counts"]:
        out[f"shard/{p['shards']}_readers"] = p["readers_only_wall_ms"]
        out[f"shard/{p['shards']}_rw"] = p["readers_writer_wall_ms"]
    return out


def view_life_metrics(doc):
    out = {}
    for s in doc["view_life"]["series"]:
        for part in VIEW_LIFE_PARTS:
            out[f"view_life/{s['distribution']}_x{s['threads']}/{part}"] = \
                s[f"median_{part}"]
    return out


METRIC_EXTRACTORS = {
    "micro_scan": scan_metrics,
    "micro_lifecycle": lifecycle_metrics,
    "micro_concurrent": concurrent_metrics,
    "micro_persistence": persistence_metrics,
    "micro_tiering": tiering_metrics,
    "micro_shard": shard_metrics,
    "micro_view_life": view_life_metrics,
}


def gate_against_baseline(baseline_doc, baseline_path, doc, path,
                          max_regression):
    if doc["bench"] != baseline_doc["bench"]:
        fail(f"{path}: bench '{doc['bench']}' does not match baseline "
             f"'{baseline_doc['bench']}' ({baseline_path})")
    if doc.get("persist_fs") != baseline_doc.get("persist_fs"):
        fail(f"{path}: ran on {doc.get('persist_fs')}, but {baseline_path} "
             f"on {baseline_doc.get('persist_fs')} — its disk writes would "
             f"time the filesystem, not the code")
    extractor = METRIC_EXTRACTORS[doc["bench"]]
    produced = extractor(doc)
    baseline = extractor(baseline_doc)
    shared = sorted(set(produced) & set(baseline))
    if not shared:
        fail(f"{path}: no metrics overlap with {baseline_path} — the files "
             f"no longer measure the same things (schema drift?)")
    regressions = []
    for name in shared:
        if name.startswith(FLAT_METRIC_PREFIXES):
            got, want = produced[name], baseline[name]
        else:
            # Normalize per page: CI runs use smaller columns than baselines.
            got = produced[name] / doc["pages"]
            want = baseline[name] / baseline_doc["pages"]
        ratio = got / want if want > 0 else float("inf")
        if ratio > max_regression:
            regressions.append(f"{name}: {ratio:.1f}x slower per page "
                               f"({produced[name]:.3f} ms vs baseline "
                               f"{baseline[name]:.3f} ms)")
    skipped = (set(produced) | set(baseline)) - set(shared)
    note = f", {len(skipped)} non-overlapping skipped" if skipped else ""
    if regressions:
        for r in regressions:
            print(f"check_bench: REGRESSION: {path}: {r}", file=sys.stderr)
        fail(f"{path}: {len(regressions)} metric(s) regressed more than "
             f"{max_regression}x vs {baseline_path}")
    print(f"check_bench: GATE OK: {path} vs {baseline_path} "
          f"({len(shared)} metrics within {max_regression}x{note})")


def main():
    parser = argparse.ArgumentParser(
        description="Schema-check BENCH_*.json files; optionally gate "
                    "against a committed baseline.")
    parser.add_argument("--baseline", metavar="BASE.json",
                        help="committed baseline to gate every given file "
                             "against (same bench required)")
    parser.add_argument("--max-regression", type=float, default=5.0,
                        help="fail when a shared wall metric is more than "
                             "this many times slower per page (default 5)")
    parser.add_argument("paths", nargs="+", metavar="BENCH.json")
    args = parser.parse_args()

    baseline_doc = None
    if args.baseline:
        baseline_doc = check_file(args.baseline)
    for path in args.paths:
        doc = check_file(path)
        if baseline_doc is not None:
            gate_against_baseline(baseline_doc, args.baseline, doc, path,
                                  args.max_regression)


if __name__ == "__main__":
    main()
