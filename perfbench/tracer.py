"""Per-layer tracing of gammaq from outside the package.

`Tracer.install()` replaces the public functions of each layer with timing
wrappers; `uninstall()` puts the originals back.  Nothing under src/ is
edited.  Modules bind helpers with ``from .x import y``, so a function is
replaced in every gammaq module (and class) that binds it, not only where it
is defined.  The recursions ``_l_rec``, ``_y_rec`` and ``_modes_on_vacuum``
call themselves through their module globals, so replacing the module
attribute also catches the recursive calls.

Every wrapped call adds to an aggregate record: calls, inclusive time and
self time (inclusive minus the time of wrapped calls made inside it).  Coarse
boundaries also record spans (request -> command -> cache load / compute /
cache save / render, and suite -> check inside verify), each with its
request id and parent, kept in memory and returned by `spans()`.
"""

from __future__ import annotations

import os
import sys
import time

VERIFY_SUITES = ("operators", "lkostka", "spingreen", "tables")
VERIFY_CHECKS = (
    "clifford", "vacuum", "quadratic", "mixed_relations", "gstar_on_schur",
    "gstar_powersum", "powersum_adjoint_on_g", "pieri", "adjointness",
    "l_oracle", "l_support", "l_top_row", "l_degree", "l_divisibility",
    "l_prefix", "l_stability", "l_two_row", "diagnostic_l_positivity",
    "y_routes", "y_degree", "y_one_row", "y_two_row", "y_reconstruction",
    "frobenius", "char_integrality", "diagnostic_y_positivity",
)  # fmt: skip

# (name, unit, better) of every per-layer metric, in BENCHMARK.json order.
PER_LAYER = [
    ("tpoly.mul.calls", "count", "lower"),
    ("tpoly.mul.coeff_products", "count", "lower"),
    ("tpoly.mul.int_operand_ratio", "ratio", "higher"),
    ("tpoly.mul.self_s", "s", "lower"),
    ("tpoly.add.calls", "count", "lower"),
    ("tpoly.add.self_s", "s", "lower"),
    ("tpoly.inv_z_t.calls", "count", "lower"),
    ("tpoly.inv_z_t.distinct_ratio", "ratio", "higher"),
    ("partitions.enumerate.hit_ratio", "ratio", "higher"),
    ("partitions.index_subpartitions.calls", "count", "lower"),
    ("partitions.index_subpartitions.items", "count", "lower"),
    ("partitions.index_subpartitions.distinct_ratio", "ratio", "higher"),
    ("partitions.index_subpartitions.self_s", "s", "lower"),
    ("partitions.horizontal_strips.calls", "count", "lower"),
    ("partitions.horizontal_strips.items", "count", "lower"),
    ("partitions.horizontal_strips.self_s", "s", "lower"),
    ("spingreen.y_rec.calls", "count", "lower"),
    ("spingreen.y_rec.hit_ratio", "ratio", "higher"),
    ("spingreen.y_rec.entries", "count", "lower"),
    ("spingreen.y_table.s", "s", "lower"),
    ("spingreen.y_direct.s", "s", "lower"),
    ("spingreen.y_via_l.s", "s", "lower"),
    ("qkostka.l_rec.calls", "count", "lower"),
    ("qkostka.l_rec.hit_ratio", "ratio", "higher"),
    ("qkostka.l_rec.entries", "count", "lower"),
    ("qkostka.l_table.s", "s", "lower"),
    ("qkostka.l_direct.s", "s", "lower"),
    ("gamma.mul.calls", "count", "lower"),
    ("gamma.mul.term_products", "count", "lower"),
    ("gamma.mul.self_s", "s", "lower"),
    ("gamma.add.self_s", "s", "lower"),
    ("gamma.d_dp.calls", "count", "lower"),
    ("gamma.d_dp.self_s", "s", "lower"),
    ("gamma.pair.calls", "count", "lower"),
    ("gamma.pair.self_s", "s", "lower"),
    ("vertexops.apply_component.calls", "count", "lower"),
    ("vertexops.apply_component.self_s", "s", "lower"),
    ("vertexops.vacuum.calls", "count", "lower"),
    ("vertexops.vacuum.hit_ratio", "ratio", "higher"),
    ("vertexops.vacuum.entries", "count", "lower"),
    ("vertexops.creation.hit_ratio", "ratio", "higher"),
    ("cache.load.s", "s", "lower"),
    ("cache.save.s", "s", "lower"),
    ("cache.bytes_read", "B", "lower"),
    ("cache.bytes_written", "B", "lower"),
    ("cache.entries_loaded", "count", "lower"),
    ("cli.render.s", "s", "lower"),
    ("cli.output_bytes", "B", "lower"),
    ("cli.compute.s", "s", "lower"),
]
PER_LAYER += [(f"verify.{s}.s", "s", "lower") for s in VERIFY_SUITES]
PER_LAYER += [(f"verify.check.{c}.s", "s", "lower") for c in VERIFY_CHECKS]
PER_LAYER += [("trace.overhead_ratio", "ratio", "lower")]

# The workload on which each wrapped function must be called at least once;
# the interception self-test holds the tracer to it.
EXERCISED_BY = {
    "tpoly.mul": "tables-cold",
    "tpoly.add": "tables-cold",
    "tpoly.inv_z_t": "tables-cold",
    "partitions.index_subpartitions": "tables-cold",
    "partitions.horizontal_strips": "tables-cold",
    "spingreen.y_rec": "tables-cold",
    "spingreen.y_table": "tables-cold",
    "spingreen.spin_char_table": "tables-cold",
    "spingreen.y_direct": "verify-sweep",
    "spingreen.y_via_l": "verify-sweep",
    "qkostka.l_rec": "tables-cold",
    "qkostka.l_table": "tables-cold",
    "qkostka.expand_g_in_q": "tables-cold",
    "qkostka.l_direct": "verify-sweep",
    "gamma.mul": "verify-sweep",
    "gamma.add": "verify-sweep",
    "gamma.d_dp": "verify-sweep",
    "gamma.pair": "verify-sweep",
    "vertexops.apply_component": "verify-sweep",
    "vertexops.vacuum": "verify-sweep",
    "vertexops.creation": "verify-sweep",
    "vertexops.qhl": "tables-cold",
    "vertexops.schur_q": "tables-cold",
    "cache.load": "tables-warm",
    "cache.save": "tables-warm",
    "cli.cmd_lkostka": "tables-cold",
    "cli.cmd_spin_green": "tables-cold",
    "cli.cmd_spin_char": "tables-cold",
    "cli.cmd_expand": "tables-cold",
    "cli.cmd_verify": "verify-sweep",
    "cli.render": "tables-cold",
    "verify.run_suite": "verify-sweep",
}
EXERCISED_BY.update({f"verify.{s}": "verify-sweep" for s in VERIFY_SUITES})
EXERCISED_BY.update({f"verify.check.{c}": "verify-sweep" for c in VERIFY_CHECKS})

# Span levels: a span is recorded only inside a span of a lower level, so a
# compute function called from another compute function adds to its record
# but opens no span of its own.
REQUEST, COMMAND, PHASE, SUITE, CHECK = range(5)

_MEMO_ENTRIES = {
    "spingreen.y_rec.entries": ("gammaq.spingreen", "_y_memo"),
    "qkostka.l_rec.entries": ("gammaq.qkostka", "_l_memo"),
    "vertexops.vacuum.entries": ("gammaq.vertexops", "_vacuum_memo"),
}
_ENUMERATORS = ("enumerate_partitions", "enumerate_strict", "enumerate_odd")


def _nterms(element) -> int:
    return len(element._terms)


def _dir_files(directory: str) -> dict[str, tuple[int, int]]:
    """name -> (size, mtime_ns) of the regular files in a cache directory."""
    try:
        entries = list(os.scandir(directory))
    except OSError:
        return {}
    out = {}
    for entry in entries:
        if entry.is_file():
            st = entry.stat()
            out[entry.name] = (st.st_size, st.st_mtime_ns)
    return out


class Tracer:
    """Wraps gammaq's layers and aggregates per-layer counters and spans."""

    def __init__(self):
        # key -> [calls, inclusive s, self s, extra_a, extra_b]
        self.records: dict[str, list] = {}
        self.counters: dict[str, float] = {}
        self._stack: list[float] = []  # wrapped-child time of each open call
        self._spans: list[list] = []  # [request, name, start, end, parent]
        self._open: list[tuple[int, int]] = []  # (span index, level)
        self._patches: list[tuple] = []
        self._request_id = -1
        self.request_keys: list[str] = []
        self._inv_z_args: set = set()

    # ------------------------------------------------------------ wrapping

    def _record(self, key: str) -> list:
        return self.records.setdefault(key, [0, 0.0, 0.0, 0, 0])

    def _hot(self, key, fn, before=None, after=None):
        """Counter-only wrapper for functions called millions of times."""
        rec = self._record(key)
        stack = self._stack
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            enter = perf()
            if before is not None:
                before(rec, args)
            stack.append(0.0)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - stack.pop()
            if after is not None:
                after(rec, args, result)
            if stack:
                # hook time is charged to neither this call nor its caller's self time
                stack[-1] += perf() - enter
            return result

        return wrapper

    def _span(self, key, fn, level, before=None, after=None):
        """Wrapper that also records a span when called at a coarse boundary."""
        inner = self._hot(key, fn, before, after)
        spans, opened = self._spans, self._open
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            if opened and opened[-1][1] >= level:
                return inner(*args, **kwargs)
            parent = opened[-1][0] if opened else None
            spans.append([self._request_id, key, perf(), None, parent])
            opened.append((len(spans) - 1, level))
            try:
                return inner(*args, **kwargs)
            finally:
                index, _ = opened.pop()
                spans[index][3] = perf()

        return wrapper

    def _replace(self, owners, original, replacement) -> None:
        """Rebind every attribute of `owners` that is `original`."""
        n = 0
        for owner in owners:
            for name, value in list(vars(owner).items()):
                if value is original:
                    setattr(owner, name, replacement)
                    self._patches.append((owner, name, original))
                    n += 1
        if not n:
            raise RuntimeError(f"nothing binds {original!r}")

    def install(self) -> None:
        from gammaq import cache, cli, gamma, partitions, qkostka, spingreen, tpoly, verify, vertexops
        from gammaq.gamma import GammaElement
        from gammaq.tpoly import TPoly

        from workloads import gammaq_modules, memos

        owners = [mod for _, mod in gammaq_modules()] + [TPoly, GammaElement, cache.Cache]

        def hot(key, fn, **hooks):
            self._replace(owners, fn, self._hot(key, fn, **hooks))

        def span(key, fn, level, **hooks):
            self._replace(owners, fn, self._span(key, fn, level, **hooks))

        def memo_hit(memo, make_key):
            def before(rec, args):
                if make_key(*args) in memo:
                    rec[3] += 1
            return before

        # tpoly
        def mul_before(rec, args):
            a, b = args
            ac = a.coeffs
            if isinstance(b, TPoly):
                bc = b.coeffs
                rec[3] += len(ac) * len(bc)
                ints = all(c.denominator == 1 for c in ac) and all(c.denominator == 1 for c in bc)
            else:
                rec[3] += len(ac)
                ints = all(c.denominator == 1 for c in ac) and getattr(b, "denominator", 1) == 1
            if ints:
                rec[4] += 1

        hot("tpoly.mul", TPoly.__mul__, before=mul_before)
        hot("tpoly.add", TPoly.__add__)
        hot("tpoly.inv_z_t", tpoly.inv_z_t, before=lambda rec, args: self._inv_z_args.add(tuple(args[0])))

        # partitions
        def count_items(rec, args, result):
            rec[3] += len(result)

        def count_distinct(rec, args, result):
            rec[3] += len(result)
            rec[4] += len(set(result))

        hot("partitions.index_subpartitions", partitions.index_subpartitions, after=count_distinct)
        hot("partitions.horizontal_strips", partitions.horizontal_strips, after=count_items)

        # spingreen, qkostka
        hot("spingreen.y_rec", spingreen._y_rec, before=memo_hit(spingreen._y_memo, lambda lam, mu: (lam, mu)))
        span("spingreen.y_table", spingreen.y_table, PHASE)
        span("spingreen.spin_char_table", spingreen.spin_char_table, PHASE)
        hot("spingreen.y_direct", spingreen.y_direct)
        hot("spingreen.y_via_l", spingreen.y_via_l)
        hot("qkostka.l_rec", qkostka._l_rec, before=memo_hit(qkostka._l_memo, lambda lam, mu: (lam, mu)))
        span("qkostka.l_table", qkostka.l_table, PHASE)
        span("qkostka.expand_g_in_q", qkostka.expand_g_in_q, PHASE)
        hot("qkostka.l_direct", qkostka.l_direct)

        # gamma
        def gmul_before(rec, args):
            a, b = args
            rec[3] += _nterms(a) * (_nterms(b) if isinstance(b, GammaElement) else 1)

        hot("gamma.mul", GammaElement.__mul__, before=gmul_before)
        hot("gamma.add", GammaElement.__add__)
        hot("gamma.d_dp", gamma.d_dp)
        hot("gamma.pair", gamma.pair)

        # vertexops
        hot("vertexops.apply_component", vertexops.apply_component)
        hot(
            "vertexops.vacuum",
            vertexops._modes_on_vacuum,
            before=memo_hit(vertexops._vacuum_memo, lambda spec, modes: (spec.key, modes)),
        )
        hot(
            "vertexops.creation",
            vertexops._creation_term,
            before=memo_hit(vertexops._creation_memo, lambda spec, r: (spec.key, r)),
        )
        span("vertexops.qhl", vertexops.qhl, PHASE)
        span("vertexops.schur_q", vertexops.schur_q, PHASE)

        # cache
        def load_before(rec, args):
            c = args[0]
            if c.enabled:
                rec[3] += sum(size for size, _ in _dir_files(c.directory).values())

        def load_after(rec, args, result):
            dicts, _ = memos()
            rec[4] += sum(len(d) for _, d in dicts)

        saved_before: dict = {}

        def save_before(rec, args):
            saved_before.clear()
            if args[0].enabled:
                saved_before.update(_dir_files(args[0].directory))

        def save_after(rec, args, result):
            if args[0].enabled:
                after = _dir_files(args[0].directory)
                rec[3] += sum(st[0] for name, st in after.items() if saved_before.get(name) != st)

        span("cache.load", cache.Cache.load, PHASE, before=load_before, after=load_after)
        span("cache.save", cache.Cache.save, PHASE, before=save_before, after=save_after)

        # cli
        for name in ("cmd_lkostka", "cmd_spin_green", "cmd_spin_char", "cmd_expand", "cmd_verify"):
            span(f"cli.{name}", getattr(cli, name), COMMAND)
        for name in ("_render_poly_table", "_render_int_table", "_render_expansion"):
            span("cli.render", getattr(cli, name), PHASE)

        # verify: run_suite, each suite through the SUITES table, each check
        span("verify.run_suite", verify.run_suite, PHASE)
        for name, fn in list(verify.SUITES.items()):
            verify.SUITES[name] = self._span(f"verify.{name}", fn, SUITE)
            self._patches.append((verify.SUITES, name, fn))
        for name, fn in list(vars(verify).items()):
            if callable(fn) and (name.startswith("check_") or name.startswith("diagnostic_")):
                short = name[len("check_"):] if name.startswith("check_") else name
                span(f"verify.check.{short}", fn, CHECK)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[name] = original
            else:
                setattr(owner, name, original)
        self._patches.clear()

    # ------------------------------------------------------ request hooks

    def begin_request(self, request_key: str) -> None:
        self._request_id += 1
        self._inv_z_args.clear()
        self._spans.append([self._request_id, "request", time.perf_counter(), None, None])
        self._open.append((len(self._spans) - 1, REQUEST))
        self.request_keys.append(request_key)

    def end_request(self, seconds: float, stdout: str) -> None:
        index, _ = self._open.pop()
        self._spans[index][3] = time.perf_counter()
        c = self.counters
        c["request_s"] = c.get("request_s", 0.0) + seconds
        c["cli.output_bytes"] = c.get("cli.output_bytes", 0) + len(stdout.encode("utf-8"))
        c["inv_z_t.distinct"] = c.get("inv_z_t.distinct", 0) + len(self._inv_z_args)
        for metric, (module, attr) in _MEMO_ENTRIES.items():
            memo = getattr(sys.modules.get(module), attr, {})
            c[metric] = max(c.get(metric, 0), len(memo))
        partitions = sys.modules["gammaq.partitions"]
        for name in _ENUMERATORS:
            info = getattr(partitions, name).cache_info()
            c["enumerate.hits"] = c.get("enumerate.hits", 0) + info.hits
            c["enumerate.misses"] = c.get("enumerate.misses", 0) + info.misses

    # ------------------------------------------------------------ results

    def spans(self) -> list[dict]:
        t0 = self._spans[0][2] if self._spans else 0.0
        return [
            {"request": r, "name": name, "start_s": start - t0, "end_s": end - t0, "parent": parent}
            for r, name, start, end, parent in self._spans
        ]

    def calls(self) -> dict[str, int]:
        return {key: rec[0] for key, rec in self.records.items()}

    def metrics(self, overhead_ratio: float) -> dict[str, float]:
        r, c = self.records, self.counters

        def rec(key):
            return r.get(key, [0, 0.0, 0.0, 0, 0])

        def ratio(num, den):
            return num / den if den else 0.0

        m = {}
        for layer in ("tpoly.mul", "tpoly.add", "tpoly.inv_z_t", "partitions.index_subpartitions",
                      "partitions.horizontal_strips", "spingreen.y_rec", "qkostka.l_rec", "gamma.mul",
                      "gamma.d_dp", "gamma.pair", "vertexops.apply_component", "vertexops.vacuum"):
            m[f"{layer}.calls"] = rec(layer)[0]
        for layer in ("tpoly.mul", "tpoly.add", "partitions.index_subpartitions", "partitions.horizontal_strips",
                      "gamma.mul", "gamma.add", "gamma.d_dp", "gamma.pair", "vertexops.apply_component"):
            m[f"{layer}.self_s"] = rec(layer)[2]
        m["tpoly.mul.coeff_products"] = rec("tpoly.mul")[3]
        m["tpoly.mul.int_operand_ratio"] = ratio(rec("tpoly.mul")[4], rec("tpoly.mul")[0])
        m["tpoly.inv_z_t.distinct_ratio"] = ratio(c.get("inv_z_t.distinct", 0), rec("tpoly.inv_z_t")[0])
        hits, misses = c.get("enumerate.hits", 0), c.get("enumerate.misses", 0)
        m["partitions.enumerate.hit_ratio"] = ratio(hits, hits + misses)
        m["partitions.index_subpartitions.items"] = rec("partitions.index_subpartitions")[3]
        m["partitions.index_subpartitions.distinct_ratio"] = ratio(
            rec("partitions.index_subpartitions")[4], rec("partitions.index_subpartitions")[3]
        )
        m["partitions.horizontal_strips.items"] = rec("partitions.horizontal_strips")[3]
        for layer in ("spingreen.y_rec", "qkostka.l_rec", "vertexops.vacuum", "vertexops.creation"):
            m[f"{layer}.hit_ratio"] = ratio(rec(layer)[3], rec(layer)[0])
        for metric in _MEMO_ENTRIES:
            m[metric] = c.get(metric, 0)
        for key in ("spingreen.y_table", "spingreen.y_direct", "spingreen.y_via_l", "qkostka.l_table",
                    "qkostka.l_direct", "cache.load", "cache.save", "cli.render"):
            m[f"{key}.s"] = rec(key)[1]
        m["gamma.mul.term_products"] = rec("gamma.mul")[3]
        m["cache.bytes_read"] = rec("cache.load")[3]
        m["cache.entries_loaded"] = rec("cache.load")[4]
        m["cache.bytes_written"] = rec("cache.save")[3]
        m["cli.output_bytes"] = c.get("cli.output_bytes", 0)
        m["cli.compute.s"] = c.get("request_s", 0.0) - m["cache.load.s"] - m["cache.save.s"] - m["cli.render.s"]
        for suite in VERIFY_SUITES:
            m[f"verify.{suite}.s"] = rec(f"verify.{suite}")[1]
        for check in VERIFY_CHECKS:
            m[f"verify.check.{check}.s"] = rec(f"verify.check.{check}")[1]
        m["trace.overhead_ratio"] = overhead_ratio
        return m
