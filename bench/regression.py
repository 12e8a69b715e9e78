#!/usr/bin/env python3
"""Compare a fresh bench/sim_hotpath report against the committed baseline.

Usage:
    python3 bench/regression.py --baseline BENCH_sim.json \
        --current /tmp/current.json [--max-drop 0.20] [--absolute]

Exit status 0 = within budget, 1 = regression, 2 = bad input.

What is gated, and why
----------------------
1. `queue_speedup` (always): bucketed-queue events/sec divided by the
   frozen legacy-heap events/sec *measured in the same binary on the same
   machine*. The ratio cancels out host speed, so it is the portable proxy
   for "did the DES hot path regress". A drop > --max-drop fails.

2. `sim_exec_ns` (always): the simulated exec time for a fixed (dataset,
   scale, walks, seed) is bit-deterministic — it must EQUAL the baseline
   on any machine. A mismatch means either a determinism bug or an
   intentional timing-model change; for the latter, refresh the baseline
   in the same PR with `bench/bench_sim.sh` (see docs/MODELING.md, "The
   DES kernel").

3. `bucketed_events_per_sec` (only with --absolute): raw throughput is
   only comparable on the machine that produced the baseline, so this
   check is opt-in for local tuning runs; CI uses the speedup gate.

4. `service_mix` (when the baseline carries the section): every mix's
   simulated makespan_ns is deterministic and must EQUAL the baseline
   (same refresh rule as sim_exec_ns), and uniform equal-priority mixes
   must hold the weighted-fair scheduler's <= 2x fairness bound. The
   section's per-model block is gated too: `deterministic` must be true
   for EVERY registered walk model (new models included — this is the
   check_models gate), and models marked `legacy` (pre-plugin,
   byte-identity-pinned) must reproduce the baseline makespan exactly.

5. `parallel` (when the current report carries the section, i.e. the
   bench ran with --parallel): `determinism_ok` must be true — identical
   checksums and event counts across 1/2/4/8 workers are the whole
   contract of the conservative-lookahead design. The 8-worker speedup
   floor (--parallel-floor, default 3.0x over the serial sharded
   baseline) is gated only when the *current* machine reports
   `hw_threads >= 8`; on smaller hosts real parallel speedup is
   physically unobservable, so the number prints as informational.

6. `engine_parallel` (same trigger as 5): the full FlashWalker engine at
   1/2/4/8 DES workers. `determinism_ok` (identical sim_exec_ns / hop /
   walk totals across worker counts) and `sim_exec_ns` (equal to the
   baseline) are gated unconditionally — they hold even on a single-core
   host. The 8-worker walks/sec speedup floor
   (--engine-floor, default 2.5x over the 1-worker run) is gated only
   when `hw_threads >= 8`, like the raw-DES floor.

7. `array_scaling` (multi-SSD array): every number in the section is
   simulated, so all of it is gated on every host. `determinism_ok`
   (byte-identical array reports across --sim-threads 1/8 at every device
   count), each point's `exec_ns`, `forwarded_walks`, `windows` (DES
   barrier rounds) and `shard_passes` (shard drain passes that executed an
   event), and `scaling_4dev` must EQUAL the baseline, and `scaling_4dev`
   (the 4-device aggregate walks/sec over the single-device run) must also
   clear --array-floor (default 2.84, the ratio the array had when it
   landed), so a regression cannot be hidden by re-recording the baseline.

8. `board_hub` (same trigger as 5): the shard-audit breakdown of the
   board-shard serial hub — event share, windowed handoff batches,
   cross-shard sends per hop. `determinism_ok` (the audit stream itself
   identical across 1/2/4/8 workers) and the simulated counts (events,
   cross-shard sends, batches, batched ops — equal to the baseline) are
   gated unconditionally; the share prints as an informational trend line. With --serial-floor N the
   1-worker concurrent-engine walks/sec is also gated as an absolute
   same-machine floor, so parallel speedup cannot be bought by slowing
   the serial path.

Missing-section rule: a section the BASELINE carries is a promise — if
the candidate report lacks it, that is a FAILURE (a silently skipped
gate), not a skip. Sections absent from both reports are skipped with a
notice.

Parameter rule: the recorded run parameters (preset, seed, event count;
each section's dataset, scale, walks, seed) must be identical in both
reports. Deterministic numbers recorded under different parameters are
incomparable, so a mismatch FAILS instead of skipping the comparison.
Record both reports with `bench/bench_sim.sh`, which runs the benches
with CI's exact flags.

Reports must declare `"schema": "fw-bench-sim/2"`; unknown or missing
versions are rejected (exit 2) instead of silently parsed.
"""

import argparse
import json
import sys

SCHEMA = "fw-bench-sim/2"
FAIRNESS_BOUND = 2.0


def load(path):
    try:
        with open(path) as f:
            report = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"regression: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    if report.get("schema") != SCHEMA:
        print(f"regression: {path}: unexpected schema {report.get('schema')!r} "
              f"(this tool understands {SCHEMA!r})", file=sys.stderr)
        sys.exit(2)
    return report


# Recorded run parameters per section (None = the report's top level).
PARAMS = {
    None: ("preset", "seed", "events"),
    "e2e": ("dataset", "scale", "walks"),
    "service_mix": ("dataset", "scale", "seed"),
    "array_scaling": ("dataset", "walks", "seed"),
}


def check_params(base, cur, failures):
    """Parameter rule: both reports must record identical run parameters.
    A section missing from either side is left to the missing-section
    rule."""
    for section, keys in PARAMS.items():
        b = base if section is None else base.get(section)
        c = cur if section is None else cur.get(section)
        if b is None or c is None:
            continue
        for key in keys:
            name = key if section is None else f"{section}.{key}"
            if b.get(key) != c.get(key):
                print(f"params.{name}: baseline {b.get(key)!r}  current "
                      f"{c.get(key)!r}  [MISMATCH]")
                failures.append(f"params.{name}")


def gate_equal(label, base_v, cur_v, failures, key=None):
    """Exact gate for a simulated (deterministic) number; a mismatch is
    recorded as `key` (default: the printed label)."""
    verdict = "ok" if base_v == cur_v else "MISMATCH"
    print(f"{label}: baseline {base_v}  current {cur_v}  [{verdict}]")
    if base_v != cur_v:
        failures.append(key or label)


def section_or_fail(name, base, cur, failures):
    """Missing-section rule: a section the baseline carries must exist in the
    candidate (else a gate silently vanishes — that is a failure, not a
    skip). Returns the candidate section, or None when checks should stop."""
    if name not in base:
        print(f"{name}: no section in baseline report, checks skipped")
        return None
    if name not in cur:
        print(f"{name}: baseline has the section but the current report "
              f"does not [MISSING]")
        failures.append(f"{name}.missing")
        return None
    return cur[name]


def check_service_mix(base, cur, failures):
    """Gate the walk-service section: deterministic makespans + fairness."""
    if section_or_fail("service_mix", base, cur, failures) is None:
        return
    cur_mixes = {m["name"]: m for m in cur["service_mix"].get("mixes", [])}
    for bm in base["service_mix"].get("mixes", []):
        name = bm["name"]
        cm = cur_mixes.get(name)
        if cm is None:
            print(f"service_mix[{name}]: missing from current report [MISSING]")
            failures.append(f"service_mix.{name}")
            continue
        gate_equal(f"service_mix[{name}].makespan_ns", bm["makespan_ns"],
                   cm["makespan_ns"], failures,
                   key=f"service_mix.{name}.makespan_ns")
        if cm.get("uniform"):
            ratio = cm["fairness_ratio"]
            verdict = "ok" if ratio <= FAIRNESS_BOUND else "UNFAIR"
            print(f"service_mix[{name}].fairness_ratio: {ratio:.3g} "
                  f"(bound {FAIRNESS_BOUND}) [{verdict}]")
            if ratio > FAIRNESS_BOUND:
                failures.append(f"service_mix.{name}.fairness_ratio")
    check_models(base, cur, failures)


def check_models(base, cur, failures):
    """Gate the per-model block inside service_mix: every model the bench
    ran must be deterministic across DES worker counts (gated always, new
    models included), and the legacy (pre-plugin, byte-identity-pinned)
    models must reproduce the baseline makespan exactly. A model the
    baseline carries must not vanish from the candidate."""
    cur_models = {m["name"]: m for m in cur["service_mix"].get("models", [])}
    base_models = {m["name"]: m for m in base["service_mix"].get("models", [])}
    if not cur_models and not base_models:
        print("service_mix.models: no per-model block in either report, "
              "checks skipped")
        return
    for name, cm in sorted(cur_models.items()):
        ok = cm.get("deterministic")
        verdict = "ok" if ok else "NONDETERMINISTIC"
        print(f"service_mix.models[{name}].deterministic: {ok}  [{verdict}]")
        if not ok:
            failures.append(f"service_mix.models.{name}.deterministic")
    for name, bm in sorted(base_models.items()):
        cm = cur_models.get(name)
        if cm is None:
            print(f"service_mix.models[{name}]: missing from current report "
                  "[MISSING]")
            failures.append(f"service_mix.models.{name}")
            continue
        if bm.get("legacy"):
            gate_equal(f"service_mix.models[{name}].makespan_ns",
                       bm["makespan_ns"], cm["makespan_ns"], failures,
                       key=f"service_mix.models.{name}.makespan_ns")


def check_parallel(base, cur, floor, failures):
    """Gate the parallel-DES section: hard determinism, conditional speedup."""
    par = section_or_fail("parallel", base, cur, failures)
    if par is None:
        return
    ok = par.get("determinism_ok")
    verdict = "ok" if ok else "NONDETERMINISTIC"
    print(f"parallel.determinism_ok: {ok}  [{verdict}]")
    if not ok:
        failures.append("parallel.determinism_ok")

    speedup = par.get("speedup_8w", 0.0)
    hw = par.get("hw_threads", 0)
    if hw >= 8:
        verdict = "ok" if speedup >= floor else "REGRESSION"
        print(f"parallel.speedup_8w: {speedup:.3g} (floor {floor}, "
              f"hw_threads {hw}) [{verdict}]")
        if speedup < floor:
            failures.append("parallel.speedup_8w")
    else:
        # Fewer hardware threads than workers: the barrier protocol still
        # proves determinism, but speedup cannot manifest. Report, don't gate.
        print(f"parallel.speedup_8w: {speedup:.3g} (hw_threads {hw} < 8) "
              "[informational]")


def check_engine_parallel(base, cur, floor, serial_floor, max_drop, failures):
    """Gate the concurrent-engine section: hard determinism, conditional
    speedup, and (opt-in) a serial-throughput floor so parallel wins cannot
    be bought by slowing the 1-worker path down."""
    par = section_or_fail("engine_parallel", base, cur, failures)
    if par is None:
        return
    ok = par.get("determinism_ok")
    verdict = "ok" if ok else "NONDETERMINISTIC"
    print(f"engine_parallel.determinism_ok: {ok}  [{verdict}]")
    if not ok:
        failures.append("engine_parallel.determinism_ok")
    gate_equal("engine_parallel.sim_exec_ns",
               base["engine_parallel"].get("sim_exec_ns"), par.get("sim_exec_ns"),
               failures)

    speedup = par.get("speedup_8w", 0.0)
    hw = par.get("hw_threads", 0)
    if hw >= 8:
        verdict = "ok" if speedup >= floor else "REGRESSION"
        print(f"engine_parallel.speedup_8w: {speedup:.3g} (floor {floor}, "
              f"hw_threads {hw}) [{verdict}]")
        if speedup < floor:
            failures.append("engine_parallel.speedup_8w")
    else:
        print(f"engine_parallel.speedup_8w: {speedup:.3g} (hw_threads {hw} < 8) "
              "[informational]")

    serial = cur.get("engine_parallel", {}).get(
        "workers_walks_per_sec", {}).get("1", 0)
    if serial_floor is not None:
        # Explicit absolute floor: same-machine runs only (like --absolute).
        verdict = "ok" if serial >= serial_floor else "REGRESSION"
        print(f"engine_parallel.workers_walks_per_sec[1]: {serial} "
              f"(floor {serial_floor}) [{verdict}]")
        if serial < serial_floor:
            failures.append("engine_parallel.serial_floor")
    else:
        base_serial = base.get("engine_parallel", {}).get(
            "workers_walks_per_sec", {}).get("1", 0)
        print(f"engine_parallel.workers_walks_per_sec[1]: baseline {base_serial}  "
              f"current {serial}  [informational]")


def check_board_hub(base, cur, failures):
    """Gate the board-hub breakdown: the audit stream must be identical
    across worker counts (determinism_ok), and its simulated counts (events,
    cross-shard sends, batches) must equal the baseline."""
    hub = section_or_fail("board_hub", base, cur, failures)
    if hub is None:
        return
    ok = hub.get("determinism_ok")
    verdict = "ok" if ok else "NONDETERMINISTIC"
    print(f"board_hub.determinism_ok: {ok}  [{verdict}]")
    if not ok:
        failures.append("board_hub.determinism_ok")
    for key in ("events", "cross_sends", "board_batches", "board_batched_ops"):
        gate_equal(f"board_hub.{key}", base["board_hub"].get(key), hub.get(key),
                   failures)

    share = hub.get("board_share_ppm", 0)
    print(f"board_hub.board_share_ppm: {share} "
          f"(baseline {base['board_hub'].get('board_share_ppm', 0)}) "
          "[informational]")


def check_array(base, cur, floor, failures):
    """Gate the multi-SSD array section. Every number in it is simulated, so
    all of it is gated on every host: determinism, each point's exec_ns,
    forwarded_walks, windows and shard_passes, and scaling_4dev exactly,
    plus the scaling floor."""
    arr = section_or_fail("array_scaling", base, cur, failures)
    if arr is None:
        return
    ok = arr.get("determinism_ok")
    verdict = "ok" if ok else "NONDETERMINISTIC"
    print(f"array_scaling.determinism_ok: {ok}  [{verdict}]")
    if not ok:
        failures.append("array_scaling.determinism_ok")

    base_arr = base["array_scaling"]
    cur_points = {p["devices"]: p for p in arr.get("points", [])}
    for bp in base_arr.get("points", []):
        name = f"array_scaling.points[{bp['devices']}dev]"
        cp = cur_points.get(bp["devices"])
        if cp is None:
            print(f"{name}: missing from current report [MISSING]")
            failures.append(name)
            continue
        for key in ("exec_ns", "forwarded_walks", "windows", "shard_passes"):
            gate_equal(f"{name}.{key}", bp.get(key), cp.get(key), failures)

    scaling = arr.get("scaling_4dev", 0.0)
    gate_equal("array_scaling.scaling_4dev", base_arr.get("scaling_4dev"),
               scaling, failures)
    verdict = "ok" if scaling >= floor else "REGRESSION"
    print(f"array_scaling.scaling_4dev: {scaling:.3g} (floor {floor}) "
          f"[{verdict}]")
    if scaling < floor:
        failures.append("array_scaling.scaling_4dev.floor")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--baseline", required=True)
    ap.add_argument("--current", required=True)
    ap.add_argument("--max-drop", type=float, default=0.20,
                    help="allowed fractional drop in gated rates (default 0.20)")
    ap.add_argument("--absolute", action="store_true",
                    help="also gate raw bucketed_events_per_sec (same-machine runs only)")
    ap.add_argument("--parallel-floor", type=float, default=3.0,
                    help="minimum 8-worker speedup over the serial sharded "
                         "baseline, gated only on hosts with >= 8 hardware "
                         "threads (default 3.0)")
    ap.add_argument("--engine-floor", type=float, default=2.5,
                    help="minimum 8-worker concurrent-engine walks/sec speedup "
                         "over the 1-worker run, gated only on hosts with >= 8 "
                         "hardware threads (default 2.5)")
    ap.add_argument("--array-floor", type=float, default=2.84,
                    help="minimum simulated 4-device array walks/sec ratio "
                         "over the single-device run, gated on every host "
                         "(default 2.84)")
    ap.add_argument("--serial-floor", type=float, default=None,
                    help="absolute floor on the 1-worker concurrent-engine "
                         "walks/sec (same-machine runs only, like --absolute); "
                         "guards against buying parallel speedup by slowing "
                         "the serial path. Off by default.")
    args = ap.parse_args()

    base = load(args.baseline)
    cur = load(args.current)
    failures = []

    def gate_rate(name, base_v, cur_v):
        floor = base_v * (1.0 - args.max_drop)
        verdict = "ok" if cur_v >= floor else "REGRESSION"
        print(f"{name}: baseline {base_v:.4g}  current {cur_v:.4g}  "
              f"floor {floor:.4g}  [{verdict}]")
        if cur_v < floor:
            failures.append(name)

    gate_rate("queue_speedup", base["queue_speedup"], cur["queue_speedup"])

    if args.absolute:
        gate_rate("bucketed_events_per_sec", base["bucketed_events_per_sec"],
                  cur["bucketed_events_per_sec"])
    else:
        print(f"bucketed_events_per_sec: baseline {base['bucketed_events_per_sec']}  "
              f"current {cur['bucketed_events_per_sec']}  [informational]")

    check_params(base, cur, failures)
    gate_equal("sim_exec_ns", base["e2e"]["sim_exec_ns"], cur["e2e"]["sim_exec_ns"],
               failures)
    if "sim_exec_ns" in failures:
        print("  simulated time diverged: either a determinism bug or an\n"
              "  intentional model change. If intentional, regenerate the\n"
              "  baseline with bench/bench_sim.sh and commit it with the\n"
              "  change.", file=sys.stderr)

    check_service_mix(base, cur, failures)
    check_parallel(base, cur, args.parallel_floor, failures)
    check_engine_parallel(base, cur, args.engine_floor, args.serial_floor,
                          args.max_drop, failures)
    check_board_hub(base, cur, failures)
    check_array(base, cur, args.array_floor, failures)

    if failures:
        print(f"regression: FAILED ({', '.join(failures)})", file=sys.stderr)
        return 1
    print("regression: all checks within budget")
    return 0


if __name__ == "__main__":
    sys.exit(main())
