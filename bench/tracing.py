"""Traced run: per-layer metrics of one workload.

The workload's CLI command runs in-process through ``cli.main`` while
wrappers installed from here record a span around every call into the
public functions of each layer: name, start, end, the enclosing span and
``ru_maxrss`` at the end.  A layer's time is its self time, the span
durations minus the part covered by child spans (a table built lazily
inside ``series.scan`` counts for the table, not the scan).  Spans stay
in memory and are summarised when the run ends.

After the command, extra calls time what the command itself does not
show: on every workload the sieve build and save that set-up does; on
``cyclo-1e7`` the command's scans again at 1 and at 2 threads (tables
warm); on ``cubic-1e6`` and ``quintic-2e5`` a fixed-sample probe of the
fieldpoly routine their classifier uses.

The result carries every per-layer metric of BENCHMARK.json.  A metric
that ONLY_ON reserves for other workloads reads 0 on this one and is named
in the detail line's ``not_applicable``.

Stage tracing inside the program (a ``--profile`` flag) is not part of
this benchmark yet; every span here wraps a call from outside.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import os
import resource
import statistics
import subprocess
import sys
import time

from artinsums import cli, duality, fieldpoly, series
from artinsums.galois import GaloisContext
from artinsums.sieve import FactorSieve

# (owner, attribute, layer name)
TRACED = (
    (FactorSieve, "load", "sieve.load"),
    (FactorSieve, "mu_table", "sieve.mu_omega"),
    (FactorSieve, "omega_table", "sieve.mu_omega"),
    (FactorSieve, "P1_table", "sieve.P1"),
    (FactorSieve, "P2_strict_table", "sieve.P2_rep"),
    (FactorSieve, "repeated_P1_table", "sieve.P2_rep"),
    (GaloisContext, "class_code_array", "galois.codes"),
    (series, "scan", "series.scan"),
    (series, "_segment_partials", "series.segment"),
    (series, "count_P2_in_class", "series.p2_counts"),
    (series, "count_P2_ramified", "series.p2_counts"),
    (series, "count_repeated_P1", "series.p2_counts"),
    (series, "partition_audit", "series.audit"),
    (series, "splitting_check", "series.audit"),
    (duality, "check_all_identities", "duality.identities"),
    (duality, "check_inversion", "duality.inversion"),
    (duality, "hyperbola_check", "duality.hyperbola"),
)
TABLE_LAYERS = ("sieve.mu_omega", "sieve.P1", "sieve.P2_rep")

# metrics measured only on the workloads named; elsewhere they read 0
ONLY_ON = {
    "fieldpoly.count_roots_us": ("cubic-1e6",),
    "fieldpoly.ddf_us": ("quintic-2e5",),
    "series.state_bytes": ("cyclo-1e7",),
    "series.thread_speedup": ("cyclo-1e7",),
    "series.audit_s": ("verify-5000",),
    "series.exact_scan_s": ("verify-5000",),
    "duality.identities_s": ("verify-5000",),
    "duality.identity_instances": ("verify-5000",),
    "duality.inversion_s": ("verify-5000",),
    "duality.hyperbola_s": ("verify-5000",),
}

# fieldpoly probe: every prime in this range
PROBE_PRIMES = (100_000, 120_000)
CUBIC = (1, 1, 0, 1)  # x^3 + x + 1, S3
QUINTIC = (-1, -1, 0, 0, 0, 1)  # x^5 - x - 1, S5
STARTUP_REPEATS = 3
OVERHEAD_CALLS = 20_000  # wrapped no-op calls that price one span


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Span:
    __slots__ = ("name", "start", "end", "parent", "rss_mb", "args", "kwargs", "size")

    def __init__(self, name, parent, args, kwargs):
        self.name = name
        self.parent = parent
        self.args = args
        self.kwargs = kwargs
        self.size = 0
        self.start = time.perf_counter()


class Tracer:
    """Records spans around wrapped calls; single-threaded use only."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[Span] = []
        self.missing: list[str] = []

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            span = Span(name, self._open[-1] if self._open else None, args, kwargs)
            self.spans.append(span)
            self._open.append(span)
            try:
                result = fn(*args, **kwargs)
                if isinstance(result, list):
                    span.size = len(result)
                return result
            finally:
                self._open.pop()
                span.end = time.perf_counter()
                span.rss_mb = _rss_mb()

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every TRACED function that exists; a missing one leaves its
        layer without spans (listed in `missing`, which fails the run)."""
        saved = []
        self.missing = [f"{owner.__name__}.{attr}" for owner, attr, _ in TRACED if attr not in owner.__dict__]
        try:
            for owner, attr, name in TRACED:
                orig = owner.__dict__.get(attr)
                if orig is None:
                    continue
                saved.append((owner, attr, orig))
                if isinstance(orig, classmethod):
                    setattr(owner, attr, classmethod(self.wrap(name, orig.__func__)))
                else:
                    setattr(owner, attr, self.wrap(name, orig))
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)

    def named(self, *names) -> list[Span]:
        return [s for s in self.spans if s.name in names]

    def self_time(self, *names) -> float:
        """Summed self time of the spans with these names."""
        child = {}
        for s in self.spans:
            if s.parent is not None:
                child[id(s.parent)] = child.get(id(s.parent), 0.0) + (s.end - s.start)
        return sum((s.end - s.start) - child.get(id(s), 0.0) for s in self.named(*names))

    def root_time(self) -> float:
        return sum(s.end - s.start for s in self.spans if s.parent is None)

    def summary(self) -> dict:
        out = {}
        for name in dict.fromkeys(name for _, _, name in TRACED):
            spans = self.named(name)
            if spans:
                out[name] = {"calls": len(spans), "self_s": self.self_time(name)}
        return out


def startup_s() -> float:
    """Median wall time of a fresh interpreter importing artinsums.cli."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    times = []
    for _ in range(STARTUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import artinsums.cli"], env=env, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def call_args(fn, span: Span) -> dict:
    """The arguments of a recorded call of `fn`, by parameter name."""
    bound = inspect.signature(fn).bind(*span.args, **span.kwargs)
    bound.apply_defaults()
    return bound.arguments


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return time.perf_counter() - t0, out


def fieldpoly_probe(fn, poly) -> float:
    """Microseconds per prime of `fn` on `poly` reduced mod every prime of
    the fixed sample."""
    primes = FactorSieve(PROBE_PRIMES[1]).prime_array()
    reduced = [fieldpoly.reduce_poly(poly, p) for p in primes.tolist() if p > PROBE_PRIMES[0]]
    t, _ = _timed(lambda: [fn(f) for f in reduced])
    return 1e6 * t / len(reduced)


def span_cost_s() -> float:
    """Seconds one span adds to a call: a wrapped no-op against a bare one."""
    def noop():
        return None

    wrapped = Tracer().wrap("noop", noop)
    t_bare, _ = _timed(lambda: [noop() for _ in range(OVERHEAD_CALLS)])
    t_wrapped, _ = _timed(lambda: [wrapped() for _ in range(OVERHEAD_CALLS)])
    return (t_wrapped - t_bare) / OVERHEAD_CALLS


def run(w, argv: list[str], cache, work, untraced_wall: float) -> dict:
    """Per-layer metrics of workload `w` (see the module docstring)."""
    problems: list[str] = []
    notes: dict[str, str] = {}
    m: dict[str, float] = {}
    m["cli.startup_s"] = startup_s()

    tracer = Tracer()
    saved_env = os.environ.get(cli.CACHE_DIR_ENV)
    os.environ[cli.CACHE_DIR_ENV] = str(cache)
    out = io.StringIO()
    try:
        with tracer.installed(), contextlib.redirect_stdout(out):
            t0 = time.perf_counter()
            rc = cli.main(argv)
            main_wall = time.perf_counter() - t0
    finally:
        if saved_env is None:
            del os.environ[cli.CACHE_DIR_ENV]
        else:
            os.environ[cli.CACHE_DIR_ENV] = saved_env
    if tracer.missing:
        problems.append("untraced functions (renamed or moved?): " + ", ".join(tracer.missing))
    stdout = out.getvalue()
    applies = {name for name, workloads in ONLY_ON.items() if w.name in workloads}

    m["sieve.cache_load_s"] = tracer.self_time("sieve.load")
    m["sieve.mu_omega_s"] = tracer.self_time("sieve.mu_omega")
    m["sieve.P1_s"] = tracer.self_time("sieve.P1")
    m["sieve.P2_rep_s"] = tracer.self_time("sieve.P2_rep")
    # tables are built on the first call of each accessor; later calls are lookups
    built_rss = [tracer.named(name)[0].rss_mb for name in TABLE_LAYERS if tracer.named(name)]
    m["sieve.tables_peak_rss_mb"] = max(built_rss, default=0.0)

    built = {}  # class codes are cached per (context, limit): count each once
    for span in tracer.named("galois.codes"):
        a = call_args(GaloisContext.class_code_array, span)
        sieve = a["sieve"]
        limit = sieve.limit if a["limit"] is None else min(a["limit"], sieve.limit)
        built[id(a["self"]), limit] = len(sieve.prime_array(limit))
    scans = [call_args(series.scan, span) for span in tracer.named("series.scan")]
    classified = sum(built.values())
    useful = sum(len(a["sieve"].prime_array(a["x_max"])) for a in scans)
    m["galois.codes_s"] = tracer.self_time("galois.codes")
    m["galois.primes_classified"] = classified
    m["galois.us_per_prime"] = 1e6 * m["galois.codes_s"] / max(classified, 1)
    m["galois.useful_frac"] = useful / max(classified, 1)

    # segment spans nest in the scan; the scan's time includes them
    m["series.scan_s"] = tracer.self_time("series.scan", "series.segment")
    m["series.scan_peak_rss_mb"] = max((s.rss_mb for s in tracer.named("series.scan")), default=0.0)
    m["series.segments"] = len(tracer.named("series.segment"))
    m["series.p2_counts_s"] = tracer.self_time("series.p2_counts")
    m["cli.output_bytes"] = len(stdout.encode())
    # time inside cli.main outside every traced call: parsing, output, glue
    m["cli.residual_s"] = main_wall - tracer.root_time()
    m["trace.overhead_s"] = len(tracer.spans) * span_cost_s()
    notes["trace.overhead_s"] = f"{len(tracer.spans)} spans"

    m["series.audit_s"] = tracer.self_time("series.audit")
    m["series.exact_scan_s"] = m["series.scan_s"]  # verify scans in exact mode only
    m["duality.identities_s"] = tracer.self_time("duality.identities")
    m["duality.identity_instances"] = sum(s.size for s in tracer.named("duality.identities"))
    m["duality.inversion_s"] = tracer.self_time("duality.inversion")
    m["duality.hyperbola_s"] = tracer.self_time("duality.hyperbola")
    if "series.state_bytes" in applies:
        m["series.state_bytes"] = (work / "scan.state").stat().st_size
    if "series.thread_speedup" in applies:
        # the command's scans again with warm tables, at 1 and at 2 threads
        t_threads = {1: 0.0, 2: 0.0}
        for threads in t_threads:
            for a in scans:
                kwargs = dict(a, threads=threads, state_path=str(work / "rerun.state"))
                t_threads[threads] += _timed(series.scan, **kwargs)[0]
        m["series.thread_speedup"] = t_threads[1] / t_threads[2]
        notes["series.thread_speedup"] = f"warm scan {t_threads[1]:.3f} s at 1 thread / {t_threads[2]:.3f} s at 2"
    if "fieldpoly.count_roots_us" in applies:
        m["fieldpoly.count_roots_us"] = fieldpoly_probe(fieldpoly.count_roots, CUBIC)
        notes["fieldpoly.count_roots_us"] = f"x^3+x+1, every prime in {PROBE_PRIMES}"
    if "fieldpoly.ddf_us" in applies:
        m["fieldpoly.ddf_us"] = fieldpoly_probe(fieldpoly.distinct_degree_factorization, QUINTIC)
        notes["fieldpoly.ddf_us"] = f"x^5-x-1, every prime in {PROBE_PRIMES}"

    sieve_path = work / "spf.sieve"
    m["sieve.spf_build_s"], sieve = _timed(FactorSieve, w.limit)
    m["sieve.cache_save_s"], _ = _timed(sieve.save, sieve_path)
    m["sieve.cache_bytes"] = sieve_path.stat().st_size
    m["sieve.primes"] = len(sieve.prime_array())

    not_applicable = sorted(set(ONLY_ON) - applies)
    for name in not_applicable:
        m[name] = 0
        notes[name] = "not applicable on this workload"
    return {
        "values": m,
        "notes": notes,
        "returncode": rc,
        "stdout": stdout,
        "problems": problems,
        "not_applicable": not_applicable,
        "spans": tracer.summary(),
        "untraced_functions": tracer.missing,
        "traced_main_s": main_wall,
        # the run-to-run noise of both runs is in this difference
        "traced_minus_untraced_s": m["cli.startup_s"] + main_wall - untraced_wall,
    }
