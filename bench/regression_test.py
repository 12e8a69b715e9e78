#!/usr/bin/env python3
"""Unit tests for bench/regression.py gating logic.

Runs the checker as a subprocess over synthetic reports, pinning the
missing-section rule (a gated section present in the baseline but absent
from the candidate must FAIL, not silently skip), the parameter rule
(reports recorded with different walks, scale or preset must FAIL), and
the array_scaling gates (determinism, exact simulated numbers and the
scaling floor, on every host).
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

REGRESSION = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "regression.py")


def minimal_report(**extra):
    report = {
        "schema": "fw-bench-sim/2",
        "queue_speedup": 5.0,
        "bucketed_events_per_sec": 1e6,
        "seed": 42,
        "e2e": {"dataset": "TT", "scale": "test", "walks": 1000,
                "sim_exec_ns": 12345},
    }
    report.update(extra)
    return report


def array_section(determinism_ok=True, scaling_4dev=3.0, hw_threads=8,
                  exec_4dev=1000, walks=50000, windows_4dev=40,
                  passes_4dev=90):
    return {
        "dataset": "TT",
        "walks": walks,
        "seed": 42,
        "hw_threads": hw_threads,
        "determinism_ok": determinism_ok,
        "scaling_4dev": scaling_4dev,
        "points": [
            {"devices": 1, "exec_ns": 3000, "forwarded_walks": 0,
             "windows": 30, "shard_passes": 60},
            {"devices": 4, "exec_ns": exec_4dev, "forwarded_walks": 77,
             "windows": windows_4dev, "shard_passes": passes_4dev},
        ],
    }


def run_checker(base, cur, *args):
    with tempfile.TemporaryDirectory() as d:
        bpath = os.path.join(d, "base.json")
        cpath = os.path.join(d, "cur.json")
        with open(bpath, "w") as f:
            json.dump(base, f)
        with open(cpath, "w") as f:
            json.dump(cur, f)
        proc = subprocess.run(
            [sys.executable, REGRESSION, "--baseline", bpath,
             "--current", cpath, *args],
            capture_output=True, text=True)
    return proc


class MissingSectionTest(unittest.TestCase):
    def test_section_in_baseline_missing_from_candidate_fails(self):
        base = minimal_report(array_scaling=array_section())
        cur = minimal_report()
        proc = run_checker(base, cur)
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertIn("[MISSING]", proc.stdout)
        self.assertIn("array_scaling.missing", proc.stderr)

    def test_every_gated_section_obeys_the_missing_rule(self):
        for section, payload in [
            ("service_mix", {"dataset": "TT", "scale": "test", "seed": 42,
                             "mixes": []}),
            ("parallel", {"determinism_ok": True, "speedup_8w": 4.0,
                          "hw_threads": 8}),
            ("engine_parallel", {"determinism_ok": True, "speedup_8w": 3.0,
                                 "hw_threads": 8}),
            ("array_scaling", array_section()),
        ]:
            with self.subTest(section=section):
                base = minimal_report(**{section: payload})
                proc = run_checker(base, minimal_report())
                self.assertEqual(proc.returncode, 1,
                                 proc.stdout + proc.stderr)
                self.assertIn(f"{section}.missing", proc.stderr)

    def test_section_absent_from_both_skips(self):
        proc = run_checker(minimal_report(), minimal_report())
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("checks skipped", proc.stdout)


def mix_section(models=None):
    return {
        "dataset": "TT",
        "scale": "test",
        "seed": 42,
        "mixes": [],
        "models": models if models is not None else [],
    }


def model_entry(name, legacy=False, deterministic=True, makespan_ns=1000):
    return {"name": name, "legacy": legacy, "deterministic": deterministic,
            "makespan_ns": makespan_ns, "steps": 500}


class CheckModelsTest(unittest.TestCase):
    def test_passing_model_block(self):
        sect = mix_section([model_entry("deepwalk", legacy=True),
                            model_entry("metapath")])
        proc = run_checker(minimal_report(service_mix=sect),
                           minimal_report(service_mix=sect))
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("service_mix.models[deepwalk].makespan_ns", proc.stdout)
        self.assertIn("service_mix.models[metapath].deterministic", proc.stdout)

    def test_new_model_nondeterminism_fails_even_without_baseline_entry(self):
        base = minimal_report(service_mix=mix_section([]))
        cur = minimal_report(service_mix=mix_section(
            [model_entry("metapath", deterministic=False)]))
        proc = run_checker(base, cur)
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertIn("service_mix.models.metapath.deterministic", proc.stderr)

    def test_legacy_makespan_drift_fails(self):
        base = minimal_report(service_mix=mix_section(
            [model_entry("ppr", legacy=True, makespan_ns=1000)]))
        cur = minimal_report(service_mix=mix_section(
            [model_entry("ppr", legacy=True, makespan_ns=1001)]))
        proc = run_checker(base, cur)
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertIn("service_mix.models.ppr.makespan_ns", proc.stderr)

    def test_new_model_makespan_drift_is_not_gated(self):
        base = minimal_report(service_mix=mix_section(
            [model_entry("autoreg", makespan_ns=1000)]))
        cur = minimal_report(service_mix=mix_section(
            [model_entry("autoreg", makespan_ns=2000)]))
        proc = run_checker(base, cur)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)

    def test_model_vanishing_from_candidate_fails(self):
        base = minimal_report(service_mix=mix_section(
            [model_entry("metapath")]))
        cur = minimal_report(service_mix=mix_section([]))
        proc = run_checker(base, cur)
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertIn("service_mix.models.metapath", proc.stderr)


class ArrayScalingTest(unittest.TestCase):
    def test_passing_section(self):
        base = minimal_report(array_scaling=array_section())
        cur = minimal_report(array_scaling=array_section())
        proc = run_checker(base, cur)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("array_scaling.determinism_ok: True", proc.stdout)

    def test_nondeterminism_always_fails(self):
        base = minimal_report(array_scaling=array_section())
        cur = minimal_report(
            array_scaling=array_section(determinism_ok=False, hw_threads=2))
        proc = run_checker(base, cur)
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertIn("array_scaling.determinism_ok", proc.stderr)

    def test_scaling_floor_gated_on_every_host(self):
        # A baseline re-recorded at the regressed value must still fail the
        # floor, whatever the host's thread count.
        for hw in (1, 4, 8):
            with self.subTest(hw_threads=hw):
                low = minimal_report(array_scaling=array_section(
                    scaling_4dev=1.2, hw_threads=hw))
                proc = run_checker(low, low)
                self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
                self.assertIn("array_scaling.scaling_4dev.floor", proc.stderr)

    def test_array_floor_flag_overrides(self):
        low = minimal_report(array_scaling=array_section(scaling_4dev=1.2))
        proc = run_checker(low, low, "--array-floor", "1.0")
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)

    def test_des_counts_missing_from_candidate_fail(self):
        # A candidate recorded without the window counts must not pass the
        # exact gate by omission.
        base = minimal_report(array_scaling=array_section())
        cur = array_section()
        for p in cur["points"]:
            del p["windows"], p["shard_passes"]
        proc = run_checker(base, minimal_report(array_scaling=cur))
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertIn("array_scaling.points[1dev].windows", proc.stderr)
        self.assertIn("array_scaling.points[4dev].shard_passes", proc.stderr)

    def test_simulated_numbers_gated_exactly(self):
        base = minimal_report(array_scaling=array_section())
        for name, cur in [
            ("array_scaling.points[4dev].exec_ns",
             array_section(exec_4dev=1001, hw_threads=1)),
            ("array_scaling.scaling_4dev", array_section(scaling_4dev=3.5)),
            ("array_scaling.points[4dev].windows",
             array_section(windows_4dev=39)),
            ("array_scaling.points[4dev].shard_passes",
             array_section(passes_4dev=91)),
        ]:
            with self.subTest(name=name):
                proc = run_checker(base, minimal_report(array_scaling=cur))
                self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
                self.assertIn(name, proc.stderr)


class BoardHubTest(unittest.TestCase):
    def test_simulated_counts_gated_exactly(self):
        hub = {"determinism_ok": True, "events": 100, "cross_sends": 10,
               "board_batches": 5, "board_batched_ops": 8}
        base = minimal_report(board_hub=hub)
        cur = minimal_report(board_hub=dict(hub, cross_sends=11))
        proc = run_checker(base, cur)
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertIn("board_hub.cross_sends", proc.stderr)


class ParameterRuleTest(unittest.TestCase):
    def test_differing_parameters_fail(self):
        base_e2e = minimal_report()["e2e"]
        for name, base, cur in [
            ("params.e2e.walks", minimal_report(),
             minimal_report(e2e=dict(base_e2e, walks=5000))),
            ("params.e2e.scale", minimal_report(),
             minimal_report(e2e=dict(base_e2e, scale="small"))),
            ("params.preset", minimal_report(preset="quick"),
             minimal_report(preset="full")),
            ("params.array_scaling.walks",
             minimal_report(array_scaling=array_section()),
             minimal_report(array_scaling=array_section(walks=5000))),
        ]:
            with self.subTest(name=name):
                proc = run_checker(base, cur)
                self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
                self.assertIn(name, proc.stderr)


if __name__ == "__main__":
    unittest.main()
