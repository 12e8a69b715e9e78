#!/usr/bin/env python3
"""FlashWalker benchmark: build fwbench, run workloads, check, report.

Run from the repository root:

    python3 perfbench/run.py                      # every workload, untraced + traced
    python3 perfbench/run.py --workload fs_deepwalk_4w --seed 7 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test          # fwbench's checks catch broken outputs

The first call configures and builds perfbench/ (CMake, Release) into
.bench_build/ at the repository root. Each workload runs in its own
process. With --trace 0 the result carries the end-to-end metrics of
BENCHMARK.json, with --trace 1 its per-layer metrics (and the traced run's
spans are written to .bench_build/spans/). The last line of stdout is the
result: {"correct", "attempted", "failed", "metrics"}. The exit code is
non-zero when a correctness check fails or the build or a run breaks.

perfbench/ledger.json records why each workload exists, which end-to-end
metric each per-layer metric should move, and the paper's reference values.
"""
import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
BINARY = BUILD / "fwbench"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def load_json(path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def build():
    """Configure once, then build incrementally. Serialised by a lock file."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"simulator sources not found under {ROOT / 'src'}")
    BUILD.mkdir(parents=True, exist_ok=True)
    log = BUILD / "build.log"
    with open(BUILD / ".lock", "w") as lock, open(log, "w") as out:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(BUILD), "-j", "4", "--target", "fwbench"])
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                fail(f"build step {cmd[:2]} failed: {e}")
            if rc != 0:
                out.flush()
                tail = log.read_text().splitlines()[-30:]
                fail("build failed:\n" + "\n".join(tail))


def source_digest():
    """sha256 over the sources fwbench is built from (checkouts need not be git)."""
    h = hashlib.sha256()
    files = sorted(p for d in ("src", "perfbench") for p in (ROOT / d).rglob("*") if p.is_file())
    files += [ROOT / "bench" / "bench_common.hpp", ROOT / "bench" / "bench_common.cpp"]
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    try:
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return r.stdout.strip() if r.returncode == 0 else None


def run_fwbench(args):
    try:
        proc = subprocess.run([str(BINARY)] + args, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"fwbench timed out after {RUN_TIMEOUT_S} s", 1
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]), None, proc.returncode
    except (IndexError, ValueError):
        return None, f"fwbench exited {proc.returncode} without a result", proc.returncode


def fmt(v):
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def print_metrics(title, metrics, spec):
    print(f"  {title}:")
    for name in sorted(metrics):
        m = metrics[name]
        better = spec.get(name, {}).get("better", "-")
        spread = ""
        if len(m.get("values", [])) > 1:
            spread = f" range={fmt(min(m['values']))}..{fmt(max(m['values']))}"
        print(f"    {name:44s} {fmt(m['value']):>14s} {m['unit']:8s} "
              f"better={better:6s} samples={int(m['samples'])}{spread}")


def run_workload(name, seed, seconds, trace, bench, ledger):
    """One fwbench process; returns (result line dict, exit code)."""
    args = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    if trace:
        spans = BUILD / "spans"
        spans.mkdir(exist_ok=True)
        args += ["--spans-out", str(spans / f"{name}-seed{seed}.json")]
    out, err, rc = run_fwbench(args)
    if out is None:
        print(f"perfbench: {name}: {err}", file=sys.stderr)
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}, 1

    prov = dict(out["provenance"])
    prov["git_commit"] = git_commit() or "unknown (not a git checkout)"
    prov["source_digest"] = source_digest()
    print(f"{name} seed={seed} trace={trace} provenance: {json.dumps(prov)}")
    key = "per_layer" if trace else "end_to_end"
    spec = {m["name"]: m for m in bench.get(key, [])}
    print_metrics(key, out[key], spec)
    if not trace:
        ref = ledger.get("paper_reference", {})
        for metric in ("speedup_vs_gw", "traffic_reduction_vs_gw"):
            if metric in ref:
                print(f"    paper {metric}: {json.dumps(ref[metric])} (information only, "
                      "model unvalidated against hardware)")
    for e in out["errors"]:
        print(f"  CHECK FAILED: {e}")

    metrics = {}
    for m in bench.get(key, []):
        got = out[key].get(m["name"])
        if got is None:
            out["errors"].append(f"metric {m['name']} missing")
            continue
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    correct = bool(out["correct"]) and not out["errors"]
    result = {"correct": correct, "attempted": int(out["attempted"]),
              "failed": int(out["failed"]), "metrics": metrics}
    return result, (0 if correct and rc == 0 else 1)


def main():
    bench = load_json(ROOT / "BENCHMARK.json")
    ledger = load_json(HERE / "ledger.json")
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=names, help="one workload (default: all)")
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=int, default=bench.get("run_seconds", 10))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=None,
                    help="0: end-to-end metrics, 1: the traced run's per-layer metrics "
                         "(default: 0 with --workload, both without)")
    ap.add_argument("--self-test", action="store_true",
                    help="only check that fwbench's checks reject broken outputs")
    a = ap.parse_args()
    if a.seed < 0 or a.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    build()
    if a.self_test:
        out, err, rc = run_fwbench(["--self-test"])
        print(json.dumps(out) if out else err)
        sys.exit(0 if out and rc == 0 else 1)

    if a.workload:
        result, rc = run_workload(a.workload, a.seed, a.seconds, a.trace or 0, bench, ledger)
        print(json.dumps(result))
        sys.exit(rc)

    # Every workload: the untraced run (end-to-end) then the traced run (per layer).
    rc = 0
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        for t in ([a.trace] if a.trace is not None else [0, 1]):
            result, code = run_workload(name, a.seed, a.seconds, t, bench, ledger)
            rc = rc or code
            total["correct"] = total["correct"] and result["correct"]
            total["attempted"] += result["attempted"]
            total["failed"] += result["failed"]
            for k, v in result["metrics"].items():
                total["metrics"][f"{name}.{k}"] = v
    print(json.dumps(total))
    sys.exit(rc)


if __name__ == "__main__":
    main()
