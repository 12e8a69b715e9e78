#!/usr/bin/env bash
# Write a complete fw-bench-sim/2 report with the exact flags CI gates.
#
# Usage:
#   bench/bench_sim.sh [OUT] [BUILD_DIR]
#
# OUT defaults to BENCH_sim.json (regenerate the committed baseline after an
# intentional timing-model change); CI writes current_BENCH_sim.json and
# compares it against the baseline with bench/regression.py. Both go through
# this one script, so the baseline and the candidate can never be recorded
# with different walks, scales or presets (regression.py also refuses to
# compare reports whose recorded parameters differ).
#
# Sections, in order:
#   sim_hotpath --quick --parallel  queue microbench, parallel DES, the
#                                   concurrent engine at 1/2/4/8 workers,
#                                   the board-hub audit, and the e2e point;
#   service_mix                     walk-service mixes and per-model blocks;
#   array_scaling                   the multi-SSD array at 1/2/4/8 devices
#                                   (default 50k walks), every point
#                                   byte-compared across sim-thread counts.
set -euo pipefail

out="${1:-BENCH_sim.json}"
build="${2:-build}"

"$build/bench/sim_hotpath" --quick --parallel --out "$out"
"$build/bench/service_mix" --merge-into "$out"
"$build/bench/array_scaling" --merge-into "$out"
