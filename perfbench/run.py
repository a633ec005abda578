"""gammaq benchmark: one closed-loop client driving `gammaq.cli.main` in process.

Usage, from the repository root:

    python3 perfbench/run.py --workload tables-cold --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Workloads are tables-cold, tables-warm and verify-sweep (see README.md in
this directory); ``all`` runs the three, each in its own process.  A run
measures set-up, then repeats the seeded request list for about --seconds
(at least once), resetting every memo before each request and
checking each stdout against the reference digests.  With --trace 1 it then
makes one more pass with the layers wrapped and reports the per-layer
metrics instead of the end-to-end ones.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  A results file with the environment, every
request latency and, when traced, the spans is written under
.perfbench-results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import workloads
from workloads import ROOT, SRC

# (name, unit, better, bound) of every end-to-end metric, in BENCHMARK.json order.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("request_p50_s", "s", "lower", 0.25),
    ("request_max_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.25),
]
SETUPS_PER_PASS = 2
# The calibration kernel's fastest time on a 2-core Intel Xeon (KVM) under
# CPython 3.11.  Request latencies are scaled to this host speed; see
# corrected() below.
REFERENCE_CALIBRATION_S = 0.0032
PRIMINGS = 3
CHILD_TIMEOUT_S = 170
RESULTS_DIR = ROOT / ".perfbench-results"
TMP_DIR = ROOT / ".perfbench-tmp"

_SETUP_CODE = "import sys; sys.path.insert(0, sys.argv[1]); import gammaq.cli; gammaq.cli.build_parser()"


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("GAMMA_CACHE_DIR", None)
    return env


def correct(seconds: float, calibration: float) -> float:
    """A time measured while the calibration kernel took `calibration`
    seconds, scaled to the reference host speed.

    A shared host's speed drifts by half and more, for stretches longer than
    a whole run, and the drift moves a fixed stdlib loop (the calibration
    kernel, timed just before and just after the measured work) in step with
    the work.  Scaling by reference / measured kernel time removes the
    host's speed and keeps the program's: a change to gammaq moves the
    measured time but never the kernel.
    """
    return seconds * REFERENCE_CALIBRATION_S / calibration


def corrected(outcome) -> float:
    """A request's latency at the reference host speed."""
    return correct(outcome.seconds, outcome.calibration)


def measure_setup() -> float:
    """Fresh interpreter to first request: import gammaq and build the
    parser; corrected to the reference host speed."""
    before = workloads.calibrate()
    start = time.perf_counter()
    # communicate() returns at the child's exit; Popen.wait(timeout) would
    # poll in steps of up to 50 ms and quantize the measurement.
    with subprocess.Popen(
        [sys.executable, "-c", _SETUP_CODE, str(SRC)], stdout=subprocess.PIPE, env=_child_env(), cwd=ROOT
    ) as proc:
        try:
            proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child exited {proc.returncode}")
    seconds = time.perf_counter() - start
    return correct(seconds, (before + workloads.calibrate()) / 2)


def prime_cache(cache_dir: str, seed: int) -> dict:
    """Fill the warm cache with one cold pass of the list in a child process.
    Its wall_s is the sum of the pass's corrected request latencies."""
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", "tables-warm", "--seed", str(seed), "--prime", cache_dir],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, env=_child_env(), cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"priming pass exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ------------------------------------------------------------ environment


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return f"unknown ({ref})"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    sources = hashlib.sha256()
    for path in sorted((SRC / "gammaq").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "seed": seed,
        "commit": _git_commit(),
        "source_sha256": sources.hexdigest(),
    }


# ---------------------------------------------------------------- running


def _load_digests() -> dict:
    with open(workloads.DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)


def run_prime(args, digests) -> int:
    # Every request rewrites the whole cache, so the order of the list sets
    # the cost of filling it though not what it holds; a fixed order keeps
    # the seed's shuffle out of set-up time.
    requests = sorted(workloads.requests_for(args.workload, args.seed), key=workloads.key)
    outcomes, _ = workloads.run_list(requests, ["--cache-dir", args.prime], digests)
    failures = [f"{o.key}: {o.reason}" for o in outcomes if not o.ok]
    for line in failures:
        print(f"prime failure: {line}", file=sys.stderr)
    wall = sum(corrected(o) for o in outcomes)
    print(json.dumps({"wall_s": wall, "attempted": len(outcomes), "failed": len(failures)}))
    return 0


def run_workload(args, digests) -> int:
    requests = workloads.requests_for(args.workload, args.seed)
    warm = args.workload == "tables-warm"
    traced = bool(args.trace)
    result: dict = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace}
    result["environment"] = environment(args.seed)
    attempted = failed = 0
    failures: list[str] = []
    log: list[dict] = []

    def record(outcomes, traced_pass=False):
        nonlocal attempted, failed
        attempted += len(outcomes)
        for o in outcomes:
            log.append({"key": o.key, "seconds": o.seconds, "calibration_s": o.calibration,
                        "ok": o.ok, "reason": o.reason, "traced": traced_pass})
            if not o.ok:
                failed += 1
                failures.append(f"{o.key}: {o.reason}")

    TMP_DIR.mkdir(exist_ok=True)
    cache_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=TMP_DIR) if warm else None
    try:
        prime_s = 0.0
        if warm:
            # Priming is set-up too: it runs several times, each into an empty
            # directory, and its median counts; the first cache is the one used.
            primes = []
            for i in range(PRIMINGS):
                target = cache_dir if i == 0 else tempfile.mkdtemp(prefix="prime-", dir=TMP_DIR)
                try:
                    prime = prime_cache(target, args.seed)
                finally:
                    if target != cache_dir:
                        shutil.rmtree(target, ignore_errors=True)
                attempted += prime["attempted"]
                failed += prime["failed"]
                if prime["failed"]:
                    failures.append(f"priming pass: {prime['failed']} failed request(s)")
                primes.append(prime["wall_s"])
            prime_s = statistics.median(primes)
            result["prime_wall_s"] = primes
        flags = ["--cache-dir", cache_dir] if warm else ["--no-cache"]

        # Every pass repeats the same inputs from the same cold state: each
        # request's latency is the median over the passes of its corrected
        # latency, and the list's wall time is the sum of those.  A pass starts
        # only if at least half of it fits in --seconds, so a run ends near it.
        # Set-up is sampled before every pass, so that its median spans the
        # run rather than one moment of it.
        walls: list[float] = []
        passes: list[list[float]] = []
        setups: list[float] = []
        start = time.perf_counter()
        while not walls or time.perf_counter() - start + walls[-1] / 2 < args.seconds:
            if not traced:
                setups += [measure_setup() for _ in range(SETUPS_PER_PASS)]
            outcomes, wall = workloads.run_list(requests, flags, digests)
            record(outcomes)
            walls.append(wall)
            passes.append([corrected(o) for o in outcomes])
        latencies = [statistics.median(times) for times in zip(*passes)]

        if traced:
            from tracer import PER_LAYER, Tracer

            tracer = Tracer()
            tracer.install()
            try:
                outcomes, traced_wall = workloads.run_list(requests, flags, digests, hooks=tracer)
            finally:
                tracer.uninstall()
            record(outcomes, traced_pass=True)
            values = tracer.metrics(sum(map(corrected, outcomes)) / sum(latencies))
            metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}
            result.update(
                traced_wall_s=traced_wall, calls=tracer.calls(),
                request_keys=tracer.request_keys, spans=tracer.spans(),
            )
        else:
            result["setup_runs_s"] = setups
            result["reference_calibration_s"] = REFERENCE_CALIBRATION_S
            result["request_latency_s"] = dict(zip(map(workloads.key, requests), latencies))
            values = {
                "setup_s": statistics.median(setups) + prime_s,
                "wall_s": sum(latencies),
                "request_p50_s": statistics.median(latencies),
                "request_max_s": max(latencies),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            metrics = {name: {"value": values[name], "unit": unit} for name, unit, _, _ in END_TO_END}
    finally:
        if cache_dir:
            shutil.rmtree(cache_dir, ignore_errors=True)

    failed_frac = failed / attempted
    result.update(
        passes=len(walls), pass_wall_s=walls, attempted=attempted, failed=failed,
        failed_frac=failed_frac, failures=failures, metrics=metrics, requests=log,
    )
    RESULTS_DIR.mkdir(exist_ok=True)
    out_path = RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)

    print(f"{args.workload} seed {args.seed}: {len(requests)} requests x {len(walls)} pass(es)"
          f"{' + 1 traced pass' if traced else ''}; results in {out_path.relative_to(ROOT)}")
    for line in failures[:20]:
        print(f"  FAILED {line}")
    print(f"  {'failed_frac':<48} {failed_frac:.6g} ({failed}/{attempted})")
    for name, m in metrics.items():
        print(f"  {name:<48} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Run every workload, each in its own process, and combine the results."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=3 * CHILD_TIMEOUT_S, cwd=ROOT,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"error: {workload} exited {proc.returncode}: {proc.stderr.strip()[-500:]}", file=sys.stderr)
            return 1
        child = json.loads(lines[-1])
        total["correct"] &= child["correct"]
        total["attempted"] += child["attempted"]
        total["failed"] += child["failed"]
        for name, m in child["metrics"].items():
            total["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--prime", metavar="CACHE_DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        workloads.import_gammaq()
        digests = _load_digests()
    except (ImportError, OSError, ValueError) as exc:
        print(f"error: cannot set up the benchmark: {exc}", file=sys.stderr)
        return 2
    if args.prime:
        return run_prime(args, digests)
    return run_workload(args, digests)


if __name__ == "__main__":
    sys.exit(main())
