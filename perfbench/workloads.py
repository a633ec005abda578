"""Request pools, seeded request lists, the cold reset and the in-process runner.

A request is the argument list of one `gammaq` CLI call without its cache
flag, e.g. ``["spin-green", "--n", "12", "--format", "latex"]``.  Its key,
the arguments joined by spaces, indexes the reference digests.  Every
request the benchmark sends carries either ``--no-cache`` or a private
``--cache-dir``, so the default cache directory is never touched.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import random
import re
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DIGESTS = Path(__file__).resolve().parent / "reference_digests.json"

WORKLOADS = ("tables-cold", "tables-warm", "verify-sweep")

FORMATS = ("json", "csv", "latex", "markdown")
# Sizes are capped so that no request takes much over a second on a 2-core
# Xeon: even corrected for the host's speed, a latency sample scatters by
# several per cent, so a run must repeat every request often enough for a
# steady median.
SPIN_GREEN_N = tuple(range(6, 11))
SPIN_CHAR_N = (8, 9, 10)
LKOSTKA_N = (14, 16, 18)
EXPAND_WEIGHTS = tuple(range(12, 17))
EXPAND_MIN_PARTS = 3
FAMILIES = ("G", "Q")
BASES = ("Q", "p")
VERIFY_SUITES = (("operators", 3), ("lkostka", 11), ("spingreen", 9), ("tables", 7))

# verify prints per-suite wall times such as "(8.15s)"; they are masked
# before digesting so that the digest only covers the verdicts.
_TIMING = re.compile(r"\(\d+\.\d+s\)")


def import_gammaq():
    """Import the package from this checkout's src/, never from elsewhere."""
    if not (SRC / "gammaq" / "cli.py").is_file():
        raise ImportError(f"no gammaq sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import gammaq
    import gammaq.cli

    if Path(gammaq.__file__).resolve().parent != SRC / "gammaq":
        raise ImportError(f"gammaq imported from {gammaq.__file__}, not {SRC}")
    return gammaq


# ---------------------------------------------------------------- requests


def _strict_partitions(n: int, cap: int):
    if n == 0:
        yield ()
        return
    for k in range(min(n, cap), 0, -1):
        for rest in _strict_partitions(n - k, k - 1):
            yield (k,) + rest


def expand_lambdas() -> list[tuple[int, ...]]:
    """Strict partitions of weight 12..16 with at least three parts."""
    return [
        lam
        for n in EXPAND_WEIGHTS
        for lam in _strict_partitions(n, n)
        if len(lam) >= EXPAND_MIN_PARTS
    ]


def _table(cmd: str, n: int, fmt: str) -> list[str]:
    return [cmd, "--n", str(n), "--format", fmt]


def _expand(family: str, lam, basis: str, fmt: str) -> list[str]:
    parts = ",".join(map(str, lam))
    return ["expand", "--family", family, "--lambda", parts, "--basis", basis, "--format", fmt]


def _verify(suite: str, max_n: int) -> list[str]:
    return ["verify", "--suite", suite, "--max-n", str(max_n)]


def table_requests(seed: int) -> list[list[str]]:
    """The seeded table mix: fixed commands and sizes, drawn formats, drawn
    expand partitions for a fixed set of family/basis pairs, drawn order."""
    rng = random.Random(seed)
    lambdas = expand_lambdas()
    out = [_table("spin-green", n, rng.choice(FORMATS)) for n in SPIN_GREEN_N]
    out += [_table("spin-char", n, rng.choice(FORMATS)) for n in SPIN_CHAR_N]
    out += [_table("lkostka", n, rng.choice(FORMATS)) for n in LKOSTKA_N]
    # One expand per (family, basis) pair: the pair sets an expand's cost
    # tenfold, so drawing it would make the work depend on the seed.
    for family in FAMILIES:
        for basis in BASES:
            out.append(_expand(family, rng.choice(lambdas), basis, rng.choice(FORMATS)))
    rng.shuffle(out)
    return out


def verify_requests(seed: int) -> list[list[str]]:
    rng = random.Random(seed)
    out = [_verify(suite, max_n) for suite, max_n in VERIFY_SUITES]
    rng.shuffle(out)
    return out


def requests_for(workload: str, seed: int) -> list[list[str]]:
    if workload == "verify-sweep":
        return verify_requests(seed)
    if workload in ("tables-cold", "tables-warm"):
        return table_requests(seed)
    raise ValueError(f"unknown workload {workload}")


def request_pool() -> list[list[str]]:
    """Every request any seed can draw; the reference digests cover them all."""
    out = []
    for fmt in FORMATS:
        out += [_table("spin-green", n, fmt) for n in SPIN_GREEN_N]
        out += [_table("spin-char", n, fmt) for n in SPIN_CHAR_N]
        out += [_table("lkostka", n, fmt) for n in LKOSTKA_N]
        for lam in expand_lambdas():
            for family in FAMILIES:
                for basis in BASES:
                    out.append(_expand(family, lam, basis, fmt))
    out += [_verify(suite, max_n) for suite, max_n in VERIFY_SUITES]
    return out


def key(request: list[str]) -> str:
    return " ".join(request)


def digest(request: list[str], stdout: str) -> str:
    if request[0] == "verify":
        stdout = _TIMING.sub("(*s)", stdout)
    return hashlib.sha256(stdout.encode("utf-8")).hexdigest()


# ------------------------------------------------------------- cold reset


def gammaq_modules() -> list[tuple[str, object]]:
    """(name, module) of the package and each of its loaded submodules."""
    return [
        (name, mod)
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "gammaq" or name.startswith("gammaq."))
    ]


def memos() -> tuple[list, list]:
    """Every in-process memo of the loaded gammaq modules.

    Returns (dicts, lru_functions): module-level dicts named ``*_memo`` and
    ``functools.lru_cache`` wrappers, each listed once even when several
    modules bind it.
    """
    dicts, lrus, seen = [], [], set()
    for name, mod in gammaq_modules():
        for attr, value in vars(mod).items():
            if id(value) in seen:
                continue
            if isinstance(value, dict) and attr.endswith("_memo"):
                seen.add(id(value))
                dicts.append((f"{name}.{attr}", value))
            elif callable(getattr(value, "cache_clear", None)) and hasattr(value, "cache_info"):
                seen.add(id(value))
                lrus.append((f"{name}.{attr}", value))
    return dicts, lrus


def reset() -> None:
    """Return the process to the memo state of a fresh `gammaq` process."""
    for _, mod in gammaq_modules():
        if hasattr(mod, "clear_memos"):
            mod.clear_memos()
    dicts, lrus = memos()
    for _, d in dicts:
        d.clear()
    for _, fn in lrus:
        fn.cache_clear()
    gc.collect()


# ------------------------------------------------------------ calibration


def _calibration_kernel() -> int:
    """A fixed stdlib-only loop in the style of gammaq's hot code: Fraction
    arithmetic, tuple-keyed dicts and small-int work.  It never touches
    gammaq, so a change to gammaq cannot change its time."""
    coeffs: dict = {}
    total = Fraction(0)
    for i in range(1, 700):
        k = (i % 37, i % 11, i % 5)
        coeffs[k] = coeffs.get(k, 0) + i
        total += Fraction(i, i % 13 + 1)
    s = 0
    for i in range(30000):
        s += i * i % 7
    return s + len(coeffs) + total.numerator % 7


CALIBRATION_REPEATS = 3


def calibrate() -> float:
    """Seconds the calibration kernel takes now: the host's current speed.

    The fastest of a few back-to-back runs, so that an interrupt landing in
    one run does not read as a slow host."""
    best = float("inf")
    for _ in range(CALIBRATION_REPEATS):
        start = time.perf_counter()
        _calibration_kernel()
        best = min(best, time.perf_counter() - start)
    return best


class Sampler:
    """Times the calibration kernel every SAMPLE_INTERVAL_S while a request
    runs, from a SIGALRM handler, so that the host's speed is known during a
    long request and not only at its ends.  `spent` is the time the handler
    took, which is not the request's."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0

    def _handler(self, signum, frame) -> None:
        start = time.perf_counter()
        _calibration_kernel()
        end = time.perf_counter()
        self.samples.append(end - start)
        self.spent += time.perf_counter() - start

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


SAMPLE_INTERVAL_S = 0.1


# ----------------------------------------------------------------- runner


@dataclass
class Outcome:
    key: str
    seconds: float
    ok: bool
    reason: str
    stdout: str
    calibration: float  # the kernel's median time around and during the request


def call_cli(argv: list[str]) -> tuple[int, str, str, str]:
    """Run `gammaq.cli.main(argv)` in process: (exit code, stdout, stderr, error)."""
    from gammaq import cli

    out, err = io.StringIO(), io.StringIO()
    error = ""
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a raising request is a failed request; the run goes on
            rc, error = 1, f"{type(exc).__name__}: {exc}"
    return rc, out.getvalue(), err.getvalue(), error


def run_request(request: list[str], cache_flags: list[str], digests: dict, hooks=None) -> Outcome:
    """Reset the memos, send one request and check its output.  The
    calibration kernel runs just before and just after the request and, on
    an untraced request, every SAMPLE_INTERVAL_S during it."""
    reset()
    k = key(request)
    before = calibrate()
    if hooks:
        hooks.begin_request(k)
    # The tracer times every layer, so it must not see the sampler's work.
    with contextlib.nullcontext(Sampler()) if hooks else Sampler() as sampler:
        start = time.perf_counter()
        rc, stdout, stderr, error = call_cli(request + cache_flags)
        seconds = time.perf_counter() - start - sampler.spent
    if hooks:
        hooks.end_request(seconds, stdout)
    calibration = statistics.median([before, calibrate()] + sampler.samples)
    if error:
        reason = error
    elif rc != 0:
        reason = f"exit {rc}: {stderr.strip()[:200]}"
    elif request[0] == "verify" and "[FAIL]" in stdout:
        reason = "verify reported [FAIL]"
    elif digests.get(k) != digest(request, stdout):
        reason = "stdout does not match the reference digest"
    else:
        reason = ""
    return Outcome(k, seconds, not reason, reason, stdout, calibration)


def run_list(requests, cache_flags, digests, hooks=None) -> tuple[list[Outcome], float]:
    """One closed-loop pass over the request list: (outcomes, wall seconds)."""
    start = time.perf_counter()
    outcomes = [run_request(r, cache_flags, digests, hooks) for r in requests]
    return outcomes, time.perf_counter() - start
