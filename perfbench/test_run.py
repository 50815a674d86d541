#!/usr/bin/env python3
"""Self-tests of the benchmark's own arithmetic and parsing.

    python3 perfbench/test_run.py

The last test builds perfbench_driver (as run.py does) and checks the trace
parsing on a tiny traced run of the simulator.
"""

import json
import math
import os
import shutil
import tempfile
import unittest

import run


def record(app, tech, rnd=0, traced=False, dataset=0, **kw):
    r = {"kind": "run", "round": rnd, "traced": traced, "app": app,
         "tech": tech, "dataset": dataset, "threads": 2, "wall_s": 1.0,
         "cycles": 100, "instructions": 50, "loads": 10, "stores": 5,
         "load_latency": 20.0, "events": 1000, "valid": True,
         "fell_back": False, "error": "", "trace_json": "", "trace_csv": ""}
    r.update(kw)
    return r


def records_of(runs, setups=(0.5, 0.3, 0.4)):
    return ([{"kind": "setup", "s": s} for s in setups] + runs
            + [{"kind": "end", "peak_rss_mb": 24.0}])


class Arithmetic(unittest.TestCase):
    def test_geomean(self):
        self.assertAlmostEqual(run.geomean([1.0, 4.0]), 2.0)
        self.assertAlmostEqual(run.geomean(x for x in (2.0, 8.0, 4.0)), 4.0)
        with self.assertRaises(ValueError):
            run.geomean([])
        with self.assertRaises(ValueError):
            run.geomean([1.0, 0.0])

    def test_log_error_is_symmetric(self):
        self.assertAlmostEqual(run.log_error(3.0, 1.5), math.log(2))
        self.assertAlmostEqual(run.log_error(0.75, 1.5), math.log(2))
        self.assertEqual(run.log_error(1.51, 1.51), 0.0)

    def test_paper_err_is_mean_log_error(self):
        ratios = {"fig.lima_x": 1.73 * math.e, "fig.maple_over_desc_x": 1.72}
        self.assertAlmostEqual(run.paper_err(ratios), 0.5)
        self.assertEqual(run.paper_err({}), 0.0)
        table = run.paper_table(ratios)
        self.assertIn("fig.lima_x", table)
        self.assertIn("fig.paper_err", table)


class Counting(unittest.TestCase):
    def test_every_run_is_an_operation_and_failures_are_counted(self):
        runs = []
        for rnd in (0, 1):
            runs += [record("a", "doall", rnd),
                     record("b", "doall", rnd, valid=False),
                     record("c", "doall", rnd, valid=False, cycles=0,
                            error="DeadlockError: stuck\nreport")]
        problems = []
        s = run.summarize("tiny", records_of(runs), problems)
        self.assertEqual(problems, [])
        self.assertEqual((s["attempted"], s["failed"]), (6, 4))
        self.assertEqual(s["failures"],
                         ["b/doall/d0", "c/doall/d0: DeadlockError: stuck"])
        self.assertEqual(s["end_to_end"]["setup_s"], 0.4)
        self.assertEqual(s["end_to_end"]["wall_s"], 3.0)
        self.assertAlmostEqual(s["end_to_end"]["sim_mips"], 150 / 3.0 / 1e6)

    def test_properties_fail_with_a_failed_run_of_their_round(self):
        runs = []
        for d in (0, 1):
            for app in ("sdhp", "spmm", "spmv", "bfs"):
                for tech in ("doall", "droplet", "desc", "maple-decouple"):
                    runs.append(record(app, tech, dataset=d,
                                       valid=(app, tech) != ("bfs", "desc")))
        problems = []
        s = run.summarize("prior_hw", records_of(runs), problems)
        self.assertEqual(problems, [])
        props = len(run.PROPERTIES["prior_hw"])
        self.assertEqual(s["attempted"], 32 + props)
        self.assertEqual(s["failed"], 2 + props)
        self.assertEqual(s["per_layer"]["fig.maple_over_desc_x"], 0.0)

    def test_prior_hw_shape_from_cycles(self):
        cycles = {"doall": 1000, "droplet": 800, "desc": 600,
                  "maple-decouple": 500}
        runs = [record(app, tech, dataset=d, cycles=cycles[tech],
                       fell_back=(app == "spmm" and tech in ("desc", "maple-decouple")))
                for d in (0, 1) for app in ("sdhp", "spmm", "spmv", "bfs")
                for tech in cycles]
        ratios, props = run.paper_shape("prior_hw", runs)
        self.assertAlmostEqual(ratios["fig.maple_over_desc_x"], 1.2)
        self.assertAlmostEqual(ratios["fig.maple_over_droplet_x"], 1.6)
        self.assertEqual(list(props), run.PROPERTIES["prior_hw"])
        self.assertTrue(props["fig12.spmm_falls_back"])
        self.assertFalse(props["fig12.desc_above_maple_on_spmv"])
        self.assertTrue(props["fig12.desc_below_maple_on_bfs"])

    def test_exact_counts_must_repeat_across_rounds(self):
        runs = [record("a", "doall", 0), record("a", "doall", 1, events=1001),
                record("a", "doall", 2, traced=True, cycles=101)]
        for r in runs[2:]:
            r["stalls"] = dict.fromkeys(run.STALLS.values(), 0)
            r["probes"] = {"rows": 1, "flits": 1.0, "llc_mshrs": 0.0,
                           "dir_busy": 0.0, "dir_rows": 0}
        problems = []
        run.summarize("tiny", records_of(runs), problems)
        self.assertEqual(len(problems), 2)
        self.assertIn("events", problems[0])
        self.assertIn("cycles", problems[1])
        self.assertIn("(traced)", problems[1])


class Parsing(unittest.TestCase):
    def setUp(self):
        os.makedirs(run.build_dir(), exist_ok=True)
        self.dir = tempfile.mkdtemp(dir=run.build_dir())

    def tearDown(self):
        shutil.rmtree(self.dir)

    def test_stall_attribution_after_a_long_event_list(self):
        path = os.path.join(self.dir, "t.json")
        stalls = {"queue_full": 7, "queue_empty": 0, "dram": 12345678901}
        with open(path, "w") as f:
            f.write('{"traceEvents":[')
            f.write(",\n".join('{"ph":"X","name":"load","ts":%d}' % i
                               for i in range(20000)))
            f.write('\n],\n"stallAttribution":' + json.dumps(stalls)
                    + ',\n"metadata":{"sampleIntervalCycles":1000}}\n')
        self.assertGreater(os.path.getsize(path), 1 << 16)
        self.assertEqual(run.parse_stalls(path), stalls)

    def test_probe_csv(self):
        path = os.path.join(self.dir, "t.csv")
        with open(path, "w") as f:
            f.write("cycle,llc.mshrs,l1.0.mshrs,noc.flits,dir.0.entries,"
                    "dir.0.busy,dir.1.busy\n"
                    "1000,2,1,10,5,1,0\n"
                    "2000,4,0,999999,6,2,3\n"
                    "3000,0,0,8.47362e+06,6,0,0\n")
        p = run.parse_probes(path)
        self.assertEqual(p["rows"], 3)
        self.assertEqual(p["flits"], 8473620.0)
        self.assertEqual(p["llc_mshrs"], 6.0)
        self.assertEqual((p["dir_busy"], p["dir_rows"]), (6.0, 3))

    def test_probe_csv_without_directory(self):
        path = os.path.join(self.dir, "t.csv")
        with open(path, "w") as f:
            f.write("cycle,llc.mshrs,noc.flits\n1000,1,3\n")
        p = run.parse_probes(path)
        self.assertEqual((p["dir_busy"], p["dir_rows"], p["flits"]), (0.0, 0, 3.0))

    def test_not_a_probe_csv(self):
        path = os.path.join(self.dir, "t.csv")
        with open(path, "w") as f:
            f.write("time,x\n1,2\n")
        with self.assertRaises(ValueError):
            run.parse_probes(path)


class TinyTracedRun(unittest.TestCase):
    def test_traced_run_parses_and_matches_untraced(self):
        driver = run.build()
        self.assertIsNotNone(driver, "perfbench_driver failed to build")
        trace_dir = tempfile.mkdtemp(dir=run.build_dir())
        try:
            records = run.run_driver(driver, "tiny", 1, 0, trace_dir)
            self.assertEqual(os.listdir(trace_dir), [])
        finally:
            shutil.rmtree(trace_dir)
        traced = [r for r in records if r["kind"] == "run" and r["traced"]]
        self.assertEqual(len(traced), 8)
        for r in traced:
            self.assertTrue(set(run.STALLS.values()) <= set(r["stalls"]))
            self.assertGreater(r["probes"]["rows"], 0)
            self.assertGreater(r["probes"]["flits"], 0)
        maple = [r for r in traced if r["tech"] == "maple-decouple"
                 and not r["fell_back"]]
        self.assertTrue(any(r["stalls"]["queue_empty"] + r["stalls"]["queue_full"]
                            for r in maple))
        problems = []
        s = run.summarize("tiny", records, problems)
        self.assertEqual(problems, [])
        self.assertEqual((s["attempted"], s["failed"]), (16, 0))
        layer = s["per_layer"]
        self.assertEqual(set(layer), set(run.metric_units("per_layer")))
        self.assertEqual(set(s["end_to_end"]), set(run.metric_units("end_to_end")))
        self.assertGreater(layer["noc.flits"], 0)
        self.assertGreater(layer["trace.overhead_x"], 0)
        self.assertEqual(layer["mem.dir_busy_mean"], 0.0)


if __name__ == "__main__":
    unittest.main()
