"""Self-tests of the benchmark.  Run from the root of the repository:

    python3 perfbench/test_bench.py

The request-sequence test also runs the probe when it has been built
(python3 perfbench/run.py builds it).
"""

import json
import os
import sys
import unittest

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
os.chdir(os.path.dirname(HERE))

import common  # noqa: E402
import metrics  # noqa: E402
import serve  # noqa: E402
import spans  # noqa: E402


def fake_programs(n):
    return [{"source": f"int main() {{ return {i}; }}", "return": str(i), "output": []}
            for i in range(n)]


class Catalogue(unittest.TestCase):
    def test_names_unique_and_valid(self):
        names = [m[0] for m in metrics.END_TO_END + metrics.PER_LAYER]
        names += list(metrics.WORKLOADS)
        self.assertEqual(len(names), len(set(names)))
        for n in names:
            self.assertRegex(n, metrics.NAME_RE)
        for m in metrics.END_TO_END + metrics.PER_LAYER:
            self.assertRegex(m[1], metrics.UNIT_RE)
            self.assertIn(m[2], ("lower", "higher"))

    def test_benchmark_json_matches_catalogue(self):
        with open("BENCHMARK.json") as f:
            doc = json.load(f)
        self.assertEqual(doc, metrics.benchmark_json(doc["run_seconds"]))
        self.assertIn({"name": "setup_s", "unit": "s", "better": "lower",
                       "bound": max(m[3] for m in metrics.END_TO_END)},
                      doc["end_to_end"])
        for m in doc["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
        for w in doc["workloads"]:
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])


class Sequence(unittest.TestCase):
    def test_same_seed_same_sequence(self):
        a, ea = serve.generate(7, 3000, fake_programs)
        b, eb = serve.generate(7, 3000, fake_programs)
        self.assertEqual(serve.digest(a), serve.digest(b))
        self.assertEqual(ea, eb)
        c, _ = serve.generate(8, 3000, fake_programs)
        self.assertNotEqual(serve.digest(a), serve.digest(c))

    def test_every_block_holds_the_mix(self):
        seq, _ = serve.generate(1, 1000, fake_programs)
        for start in range(0, len(seq), 100):
            block = [m for m, _ in seq[start:start + 100]]
            for method, share in serve.MIX:
                self.assertEqual(block.count(method), round(share * 100))

    @unittest.skipUnless(os.path.exists(common.binary("perfbench/probe.exe")),
                         "probe not built")
    def test_same_seed_same_programs(self):
        a, ea = serve.generate(3, 400, serve.probe_programs(3))
        b, eb = serve.generate(3, 400, serve.probe_programs(3))
        self.assertEqual(serve.digest(a), serve.digest(b))
        self.assertEqual(ea, eb)
        runs = [p["source"] for m, p in a if m == "run"]
        self.assertEqual(len(runs), len(set(runs)))


class Reference(unittest.TestCase):
    def test_query_cells_of_the_report(self):
        vals = serve.reference_values(common.reference())
        benches = serve.paper_workloads(common.reference())
        self.assertEqual(len(benches), 11)
        # Figure 6-2: 3 pipelines x 2 latencies; Table 6-3: 2; Figure 6-4: 1
        self.assertEqual(len(vals), len(benches) * (6 + 2 + 1))

    def test_warm_grid_covers_the_sequence(self):
        benches = serve.paper_workloads(common.reference())
        grid = {json.dumps(r, sort_keys=True) for r in serve.warm_grid(benches)}
        seq, _ = serve.generate(5, 3000, fake_programs)
        for method, params in seq:
            if method in ("query", "why", "validate"):
                self.assertIn(json.dumps([method, params], sort_keys=True), grid)
        self.assertEqual(serve.rid_seq("r4242-17"), 17)

    def test_diff_report(self):
        ref = common.reference()
        self.assertEqual(common.diff_report(json.loads(json.dumps(ref)), ref), [])
        bad = json.loads(json.dumps(ref))
        bad["artefacts"][4]["tables"][0]["rows"][0]["cells"][1] += 1e-12
        self.assertEqual(common.diff_report(bad, ref), [ref["artefacts"][4]["name"]])


def event(name, ts, dur, tid=0):
    return {"name": name, "ph": "X", "ts": ts, "dur": dur, "tid": tid}


class Tiling(unittest.TestCase):
    TRACE = {"traceEvents": [
        event("cell:a/2/SPEC/summary", 0.0, 100.0),
        event("stage:spd", 10.0, 30.0),
        event("stage:profile", 15.0, 10.0),
        event("cell:a/2/NAIVE/cycles/fus5", 50.0, 40.0),
        event("stage:simulate", 55.0, 20.0),
        event("cell:b/2/SPEC/summary", 5.0, 60.0, tid=1),
        event("stage:spd", 200.0, 7.0),
    ]}

    def test_self_times_tile_each_cell(self):
        ss = spans.load(self.TRACE)
        spans.check_tiling(ss)
        b = spans.breakdown(ss)
        self.assertEqual(b["cells"], 3)
        self.assertEqual(b["cell_ms"], (100.0 + 60.0) / 1e3)
        self.assertEqual(b["main_cell_ms"], 100.0 / 1e3)
        # cell a: 100 - 30 - 40; nested cell: 40 - 20; cell b: 60
        self.assertAlmostEqual(b["cell_other_ms"], (30.0 + 20.0 + 60.0) / 1e3)
        self.assertEqual(b["stage_ms"], {"spd": (20.0 + 7.0) / 1e3,
                                         "profile": 10.0 / 1e3,
                                         "simulate": 20.0 / 1e3})
        stage_in_cells = b["cell_ms"] - b["cell_other_ms"]
        self.assertAlmostEqual(stage_in_cells, (20.0 + 10.0 + 20.0) / 1e3)

    def test_overrun_is_rejected(self):
        bad = {"traceEvents": [event("cell:x", 0.0, 10.0), event("stage:spd", 5.0, 10.0)]}
        with self.assertRaises(spans.TilingError):
            spans.load(bad)


class Failures(unittest.TestCase):
    def test_exit_reasons(self):
        self.assertEqual(
            common.exit_reason(125, "spd: internal error, uncaught exception:\n"
                                    "     CamlinternalLazy.Undefined\n"),
            "exit 125: uncaught CamlinternalLazy.Undefined")
        self.assertEqual(
            common.exit_reason(2, '{"event":"engine.cell.fail","key":"k",'
                                  '"error":"Not_found"}\n'),
            "exit 2: cell failed: Not_found")
        self.assertEqual(common.exit_reason(-9, ""), "signal 9")


if __name__ == "__main__":
    unittest.main()
