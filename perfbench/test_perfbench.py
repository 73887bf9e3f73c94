"""Tests of the end-to-end allocation benchmark itself.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Run from the repository root. The record tests drive perfbench/run.py on
every declared workload at its real size in both modes, one pass each
(--seconds 0), so the whole file takes about a minute after the build.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402  (perfbench/run.py: build() and BINARY)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def run_bench(workload, trace, seed=3, cwd=ROOT):
    """Runs one workload through run.py; returns (exit code, stdout lines)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "0",
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=900)
    return proc.returncode, proc.stdout.splitlines()


def info(lines, key):
    for line in lines:
        words = line.split()
        if words[:2] == ["info", key]:
            return " ".join(words[2:])
    return None


class NamesTest(unittest.TestCase):
    def test_names_are_well_formed_and_unique(self):
        names = [w["name"] for w in SPEC["workloads"]]
        names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        for name in names:
            self.assertRegex(name, NAME.pattern + r"\Z")
            self.assertLessEqual(len(name), 64)
        self.assertEqual(len(names), len(set(names)))


class RecordTest(unittest.TestCase):
    def test_every_metric_is_printed_with_its_unit(self):
        for w in SPEC["workloads"]:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=w["name"], trace=trace):
                    code, lines = run_bench(w["name"], trace)
                    self.assertEqual(code, 0, "\n".join(lines))
                    result = json.loads(lines[-1])
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    printed = {n: v["unit"]
                               for n, v in result["metrics"].items()}
                    declared = {m["name"]: m["unit"] for m in SPEC[key]}
                    self.assertEqual(printed, declared)
                    for fact in ("nproc", "compiler", "build_type",
                                 "loadavg_start", "loadavg_end", "git",
                                 "settings", "result_digest"):
                        self.assertIsNotNone(info(lines, fact), fact)
                    if trace:
                        self.assertEqual(info(lines, "replica_faithful"), "1")

    def test_same_seed_same_result_digest(self):
        digests = []
        for seed in (3, 3):
            code, lines = run_bench("dag5k", 0, seed=seed)
            self.assertEqual(code, 0)
            digests.append(info(lines, "result_digest"))
        self.assertEqual(digests[0], digests[1])

    def test_fails_without_the_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            code, lines = run_bench("paper", 0, cwd=tmp)
        self.assertNotEqual(code, 0)
        self.assertFalse(lines and lines[-1].startswith("{"))


class SelftestTest(unittest.TestCase):
    def test_selftest(self):
        run.build()
        proc = subprocess.run([run.BINARY, "--selftest"], capture_output=True,
                              text=True, timeout=600)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        checks = dict(line.split()[1:3] for line in proc.stdout.splitlines()
                      if line.startswith("selftest "))
        for name in ("cascade.same_seed_same_design_digest",
                     "cascade.other_seed_other_design_digest",
                     "dag.same_seed_same_design_digest",
                     "dag.other_seed_other_design_digest",
                     "clean_stream_passes",
                     "corrupted_stream_counted_failed"):
            self.assertEqual(checks.get(name), "ok", name)


if __name__ == "__main__":
    unittest.main()
