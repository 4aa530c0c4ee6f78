"""BENCHMARK.json against its schema and against perfbench's catalogue.

Run with `python3 perfbench/run.py --test`, or directly with
`python3 -m unittest discover -s perfbench/tests` once perfbench is built.
"""

import json
import os
import re
import subprocess
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_.\-/]{1,200}$")


def load():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class BenchmarkJsonTest(unittest.TestCase):
    def test_keys_and_limits(self):
        spec = load()
        self.assertEqual(set(spec), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end",
                                     "per_layer"})
        self.assertLessEqual(
            os.path.getsize(os.path.join(ROOT, "BENCHMARK.json")), 65536)
        self.assertTrue(1 <= spec["run_seconds"] <= 60)
        self.assertTrue(1 <= len(spec["paths"]) <= 16)
        for path in spec["paths"]:
            self.assertRegex(path, PATH)
            self.assertFalse(path.startswith("/") or ".." in path)
        self.assertTrue(1 <= len(spec["command"]) <= 32)
        self.assertTrue(2 <= len(spec["workloads"]) <= 8)
        for w in spec["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])

    def test_metric_names_and_units(self):
        spec = load()
        names = [w["name"] for w in spec["workloads"]]
        for m in spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25, m["name"])
        for m in spec["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in spec["end_to_end"] + spec["per_layer"]:
            names.append(m["name"])
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(len(names), len(set(names)), "names must be unique")
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]),
                         ("s", "lower"))
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in spec["end_to_end"]))

    def test_matches_the_binary_catalogue(self):
        target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
        binary = os.path.join(ROOT, target, "perfbench", "perfbench")
        if not os.path.exists(binary):
            self.skipTest("perfbench is not built")
        out = subprocess.run([binary, "--list-metrics"], check=True,
                             capture_output=True, text=True).stdout
        listed = {"end_to_end": [], "per_layer": []}
        for line in out.splitlines():
            kind, name, unit = line.split()
            listed[kind].append((name, unit))
        spec = load()
        for kind in listed:
            self.assertEqual(listed[kind],
                             [(m["name"], m["unit"]) for m in spec[kind]])


if __name__ == "__main__":
    unittest.main()
