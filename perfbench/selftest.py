"""Self-tests of the benchmark harness (not of gammaq).

Run from the repository root:  python3 perfbench/selftest.py

The traced-run test sends each workload's request list once with the layers
wrapped; the whole file takes about a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from itertools import product

import workloads

workloads.import_gammaq()

import run  # noqa: E402
import tracer  # noqa: E402
from gammaq import cli, partitions, qkostka, spingreen, vertexops  # noqa: E402
from gammaq.tpoly import TPoly  # noqa: E402

DIGESTS = run._load_digests()


def _table_seed() -> int:
    """The first seed whose table draw has every expand family/basis pair."""
    for seed in range(1000):
        pairs = {(r[2], r[6]) for r in workloads.table_requests(seed) if r[0] == "expand"}
        if pairs == set(product(workloads.FAMILIES, workloads.BASES)):
            return seed
    raise AssertionError("no seed draws every expand family/basis pair")


class ColdReset(unittest.TestCase):
    def test_reset_empties_every_memo(self):
        dicts, lrus = workloads.memos()
        found = [d for _, d in dicts] + [f for _, f in lrus]
        for memo in (
            partitions.enumerate_partitions, partitions.enumerate_strict, partitions.enumerate_odd,
            qkostka._l_memo, spingreen._y_memo, vertexops._creation_memo, vertexops._vacuum_memo,
        ):
            self.assertTrue(any(m is memo for m in found), memo)
        for request in (["spin-green", "--n", "8"], ["lkostka", "--n", "9"],
                        ["expand", "--family", "G", "--lambda", "5,3,1", "--basis", "p"]):
            rc, _, _, error = workloads.call_cli(request + ["--no-cache"])
            self.assertEqual((rc, error), (0, ""))
        partitions.enumerate_partitions(6)  # exported, but no command calls it
        self.assertTrue(all(len(d) for _, d in dicts))
        self.assertTrue(all(f.cache_info().currsize for _, f in lrus))
        workloads.reset()
        for name, d in dicts:
            self.assertEqual(len(d), 0, name)
        for name, f in lrus:
            self.assertEqual(f.cache_info().currsize, 0, name)

    def test_in_process_request_matches_fresh_process(self):
        env = dict(os.environ, PYTHONPATH=str(workloads.SRC))
        env.pop("GAMMA_CACHE_DIR", None)
        workloads.call_cli(["spin-green", "--n", "10", "--no-cache"])  # leave memos behind
        for request in (
            ["spin-green", "--n", "9", "--format", "latex"],
            ["spin-char", "--n", "9", "--format", "markdown"],
            ["lkostka", "--n", "14", "--format", "csv"],
            ["expand", "--family", "G", "--lambda", "7,4,2", "--basis", "p", "--format", "json"],
        ):
            outcome = workloads.run_request(request, ["--no-cache"], DIGESTS)
            self.assertTrue(outcome.ok, outcome.reason)
            fresh = subprocess.run(
                [sys.executable, "-m", "gammaq.cli"] + request + ["--no-cache"],
                capture_output=True, env=env, cwd=workloads.ROOT, timeout=120, check=True,
            )
            self.assertEqual(outcome.stdout.encode("utf-8"), fresh.stdout, request)

    def test_default_cache_is_never_touched(self):
        run.TMP_DIR.mkdir(exist_ok=True)
        tmp = tempfile.mkdtemp(dir=run.TMP_DIR)
        saved = {k: os.environ.get(k) for k in ("GAMMA_CACHE_DIR", "XDG_CACHE_HOME", "HOME")}
        try:
            os.environ.update(GAMMA_CACHE_DIR=f"{tmp}/env", XDG_CACHE_HOME=f"{tmp}/xdg", HOME=f"{tmp}/home")
            requests = [["spin-green", "--n", "8", "--format", "json"], ["lkostka", "--n", "14", "--format", "csv"]]
            for flags in (["--no-cache"], ["--cache-dir", f"{tmp}/private"]):
                outcomes, _ = workloads.run_list(requests, flags, DIGESTS)
                self.assertTrue(all(o.ok for o in outcomes))
            self.assertEqual(os.listdir(tmp), ["private"])
        finally:
            for k, v in saved.items():
                if v is None:
                    os.environ.pop(k, None)
                else:
                    os.environ[k] = v
            shutil.rmtree(tmp)


class Digests(unittest.TestCase):
    def test_digests_cover_the_whole_pool(self):
        pool = {workloads.key(r) for r in workloads.request_pool()}
        self.assertEqual(set(DIGESTS), pool)
        for seed in range(50):
            for workload in workloads.WORKLOADS:
                for r in workloads.requests_for(workload, seed):
                    self.assertIn(workloads.key(r), pool)

    def test_request_mix_has_fixed_size(self):
        for workload in workloads.WORKLOADS:
            sizes = {len(workloads.requests_for(workload, seed)) for seed in range(20)}
            self.assertEqual(len(sizes), 1, workload)

    def test_only_flags_that_survive_the_roadmap(self):
        allowed = {"--n", "--format", "--suite", "--max-n", "--family", "--lambda", "--basis"}
        for seed in range(20):
            for workload in workloads.WORKLOADS:
                for r in workloads.requests_for(workload, seed):
                    self.assertLessEqual({a for a in r if a.startswith("--")}, allowed)

    def test_verify_timings_are_masked(self):
        request = ["verify", "--suite", "tables", "--max-n", "4"]
        a = "suite tables: 2 checks, 2 passed, 0 failed, 0 diagnostics flagged (0.01s)\n"
        b = a.replace("(0.01s)", "(12.34s)")
        self.assertEqual(workloads.digest(request, a), workloads.digest(request, b))

    def test_failures_are_counted_and_the_run_goes_on(self):
        good = ["spin-green", "--n", "8", "--format", "json"]
        original = cli.cmd_lkostka

        def broken(args):
            raise RuntimeError("boom")

        cli.cmd_lkostka = broken
        try:
            outcomes, _ = workloads.run_list(
                [["lkostka", "--n", "14", "--format", "json"], ["spin-green", "--n", "0", "--format", "json"], good],
                ["--no-cache"], dict(DIGESTS, **{workloads.key(good): "0" * 64}),
            )
        finally:
            cli.cmd_lkostka = original
        self.assertEqual([o.ok for o in outcomes], [False, False, False])
        self.assertIn("RuntimeError: boom", outcomes[0].reason)
        self.assertTrue(outcomes[1].reason.startswith("exit 2"))
        self.assertIn("digest", outcomes[2].reason)


class BenchmarkJson(unittest.TestCase):
    def test_matches_the_harness(self):
        with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            spec = json.load(fh)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))
        self.assertEqual(
            [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]], run.END_TO_END
        )
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]], tracer.PER_LAYER)


class TracedRun(unittest.TestCase):
    """Every wrapped function is reached on the workload that should exercise
    it, and traced outputs still match the untraced digests."""

    def test_interception(self):
        originals = (TPoly.__mul__, spingreen._y_rec, spingreen.inv_z_t, qkostka.horizontal_strips)
        calls = {}
        for workload in workloads.WORKLOADS:
            seed = _table_seed() if workload.startswith("tables") else 0
            requests = workloads.requests_for(workload, seed)
            cache_dir = None
            flags = ["--no-cache"]
            if workload == "tables-warm":
                run.TMP_DIR.mkdir(exist_ok=True)
                cache_dir = tempfile.mkdtemp(dir=run.TMP_DIR)
                self.assertEqual(run.prime_cache(cache_dir, seed)["failed"], 0)
                flags = ["--cache-dir", cache_dir]
            t = tracer.Tracer()
            t.install()
            try:
                outcomes, _ = workloads.run_list(requests, flags, DIGESTS, hooks=t)
            finally:
                t.uninstall()
                if cache_dir:
                    shutil.rmtree(cache_dir)
            self.assertEqual([o.reason for o in outcomes if not o.ok], [], workload)
            self.assertEqual(set(t.records), set(tracer.EXERCISED_BY))
            self.assertEqual(set(t.metrics(1.0)), {name for name, _, _ in tracer.PER_LAYER})
            calls[workload] = t.calls()
        for key, workload in tracer.EXERCISED_BY.items():
            self.assertGreater(calls[workload][key], 0, f"{key} on {workload}")
        self.assertEqual(
            originals, (TPoly.__mul__, spingreen._y_rec, spingreen.inv_z_t, qkostka.horizontal_strips)
        )


if __name__ == "__main__":
    unittest.main()
