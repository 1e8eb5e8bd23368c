#!/usr/bin/env python3
"""End-to-end benchmark of the artinsums CLI.

    python3 bench/run.py --workload cyclo-1e7 --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the program is used straight from
``src/`` (pure Python, nothing to build).  The loop is closed with one
client: one single-threaded CLI child at a time, the next started only
after the previous one exited.

``--trace 0``: set-up (``sieve-build`` into a fresh ARTINSUMS_CACHE_DIR)
is timed SETUP_REPEATS times, then the workload command is repeated
while another run fits in ``--seconds`` (at least once).  Every run's output is
checked (see checks.py).  Prints wall_s, cpu_s, peak_rss_mb, setup_s and
pass_frac.  ``--trace 1``: one untraced run plus an in-process traced
run that times each module's public functions (see tracing.py) and
prints the per-layer metrics.

The last stdout line is the JSON result; the lines before it are a
readable report and a JSON ``detail`` record with the seed, the exact
flags, every sample and the provenance.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import checks

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SPEC = ROOT / "BENCHMARK.json"  # metric names, units and order
ENV_CACHE = "ARTINSUMS_CACHE_DIR"

SETUP_REPEATS = 9


@dataclass(frozen=True)
class Workload:
    name: str
    limit: int  # sieve limit the command needs; built in set-up
    context: tuple[str, ...] = ()  # context flags of a scan; () for verify
    state: bool = False  # scan keeps a --state file

    @property
    def is_scan(self) -> bool:
        return bool(self.context)


# Why each workload exists is recorded in BENCHMARK.json and bench/README.md.
# x^5-x-1 goes in as --poly=...: argparse reads a separate leading "-1,..."
# as a flag.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("cyclo-1e7", 10_000_000, ("--cyclotomic", "4"), state=True),
        Workload("cubic-1e6", 1_000_000, ("--poly", "1,1,0,1")),
        Workload("quintic-2e5", 200_000, ("--poly=-1,-1,0,0,0,1",)),
        Workload("verify-5000", 5_000),
    )
}


def scan_checkpoints(x_max: int, seed: int) -> tuple[int, ...]:
    """10^4, two seeded interior points and x_max.  The interior pair sums
    to x_max, so the checkpoint passes (each costs time linear in its x)
    cost the same for every seed."""
    a = random.Random(seed).randrange(x_max // 10, x_max // 2)
    return (checks.ORACLE_X, a, x_max - a, x_max)


def command(w: Workload, seed: int, state_path: Path) -> list[str]:
    """The artinsums arguments of one timed run."""
    if not w.is_scan:
        return ["verify", "--nmax", str(w.limit), "--seed", str(seed)]
    cps = ",".join(str(c) for c in scan_checkpoints(w.limit, seed))
    argv = ["scan", *w.context, "--xmax", str(w.limit), "--checkpoints", cps]
    if w.state:
        argv += ["--state", str(state_path)]
    return argv


@dataclass
class Sample:
    returncode: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str


def run_cli(argv: list[str], cache_dir: Path | None, work: Path) -> Sample:
    """Run `artinsums <argv>` as a child; times from spawn to reap, with
    the child's rusage from wait4."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop(ENV_CACHE, None)
    if cache_dir is not None:
        env[ENV_CACHE] = str(cache_dir)
    out_path, err_path = work / "stdout", work / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "artinsums.cli", *argv], stdout=out, stderr=err, env=env
        )
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(
        proc.returncode,
        wall,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss / 1024,  # Linux reports KiB
        out_path.read_text(),
        err_path.read_text(),
    )


@contextlib.contextmanager
def work_dir():
    """A fresh scratch directory under the checkout, removed afterwards."""
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK))
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it


def set_up(w: Workload, work: Path, repeats: int) -> tuple[Path, list[float]]:
    """Build the sieve cache into a fresh directory `repeats` times; returns
    the last directory (the one the timed runs load) and the wall times."""
    times = []
    cache = None
    for i in range(repeats):
        if cache is not None:
            shutil.rmtree(cache)
        cache = work / f"cache{i}"
        cache.mkdir()
        s = run_cli(["sieve-build", "--limit", str(w.limit)], cache, work)
        if s.returncode != 0:
            raise SystemExit(f"set-up failed: sieve-build exited {s.returncode}")
        times.append(s.wall_s)
    return cache, times


def oracle(w: Workload, work: Path) -> dict | None:
    """Exact values at x = 10^4 from an untimed exact-mode scan."""
    s = run_cli(
        ["scan", "--mode", "exact", *w.context, "--xmax", str(checks.ORACLE_X)], None, work
    )
    return checks.oracle_values(s.returncode, s.stdout)


def check(w: Workload, seed: int, returncode: int, stdout: str, oracle_vals) -> list[str]:
    if w.is_scan:
        return checks.check_scan(returncode, stdout, scan_checkpoints(w.limit, seed), oracle_vals)
    return checks.check_verify(returncode, stdout)


def timed_runs(w, seed, seconds, cache, work, oracle_vals):
    """Closed loop, one client: run the command once, then again while the
    next run, as long as the last one, still ends within `seconds`.
    Returns the samples and each one's problems."""
    state_path = work / "scan.state"
    argv = command(w, seed, state_path)
    out = []
    start = time.perf_counter()
    while True:
        state_path.unlink(missing_ok=True)
        s = run_cli(argv, cache, work)
        out.append((s, check(w, seed, s.returncode, s.stdout, oracle_vals)))
        if time.perf_counter() - start + s.wall_s > seconds:
            return argv, out


def tail_percentile(values: list[float]):
    """(percentile, value) of the highest percentile with at least ten
    samples above it, or None with fewer than 11 samples."""
    n = len(values)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def provenance() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": importlib.metadata.version("numpy"),
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
        "loadavg_at_start": os.getloadavg(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout, or None where it is not a git work tree."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
    except OSError:
        return None
    return out.stdout.strip() or None


def src_digest() -> str:
    """sha256 over src/ file names and contents: identifies the measured
    code where there is no git metadata."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def with_units(values: dict, kind: str) -> dict:
    """The metrics of BENCHMARK.json's `kind` list, in its order, as
    {name: {"value", "unit"}}."""
    spec = json.loads(SPEC.read_text())
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[kind]}


def report(name, m, note=""):
    value = m["value"]
    text = f"{value:>14d}" if isinstance(value, int) else f"{value:>14.6g}"
    print(f"  {name:<28} {text} {m['unit']:<6} {note}".rstrip())


def end_to_end(w, seed, seconds, work, prov) -> dict:
    cache, setup_times = set_up(w, work, SETUP_REPEATS)
    oracle_vals = oracle(w, work) if w.is_scan else None
    argv, runs = timed_runs(w, seed, seconds, cache, work, oracle_vals)
    walls = [s.wall_s for s, _ in runs]
    failed = sum(1 for _, problems in runs if problems)
    for i, (s, problems) in enumerate(runs):
        status = "ok" if not problems else "FAILED: " + "; ".join(problems[:5])
        if problems and s.stderr:
            status += " | stderr: " + s.stderr.strip().splitlines()[-1]
        print(
            f"sample {i}: wall {s.wall_s:.3f} s cpu {s.cpu_s:.3f} s "
            f"rss {s.peak_rss_mb:.1f} MB exit {s.returncode} {status}"
        )
    metrics = with_units(
        {
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(s.cpu_s for s, _ in runs),
            "peak_rss_mb": statistics.median(s.peak_rss_mb for s, _ in runs),
            "setup_s": statistics.median(setup_times),
            "pass_frac": (len(runs) - failed) / len(runs),
        },
        "end_to_end",
    )
    tail = tail_percentile(walls)
    tail_note = (
        f"p{tail[0]:.0f} = {tail[1]:.4f} s"
        if tail
        else "no percentile has ten samples beyond it"
    )
    print(f"metrics ({w.name}, seed {seed}, closed loop, 1 client):")
    report("wall_s", metrics["wall_s"], f"median of {len(walls)}; {tail_note}")
    report("cpu_s", metrics["cpu_s"], "median, user+sys of the child")
    report("peak_rss_mb", metrics["peak_rss_mb"], "median ru_maxrss of the child")
    report("setup_s", metrics["setup_s"], f"median of {len(setup_times)} sieve-builds")
    report("pass_frac", metrics["pass_frac"], f"fail_frac = {failed}/{len(runs)}")
    detail = {
        "workload": w.name,
        "seed": seed,
        "argv": argv,
        "samples": [
            {
                "wall_s": s.wall_s,
                "cpu_s": s.cpu_s,
                "peak_rss_mb": s.peak_rss_mb,
                "returncode": s.returncode,
                "output_bytes": len(s.stdout.encode()),
                "problems": problems,
            }
            for s, problems in runs
        ],
        "setup_s": setup_times,
        "wall_s_tail": tail,
        "fail_frac": failed / len(runs),
        "provenance": prov,
    }
    print(json.dumps({"detail": detail}))
    return {"correct": failed == 0, "attempted": len(runs), "failed": failed, "metrics": metrics}


def traced(w, seed, work, prov) -> dict:
    sys.path.insert(0, str(SRC))
    import tracing

    cache, _ = set_up(w, work, 1)
    oracle_vals = oracle(w, work) if w.is_scan else None
    state_path = work / "scan.state"
    argv = command(w, seed, state_path)
    s = run_cli(argv, cache, work)
    results = [check(w, seed, s.returncode, s.stdout, oracle_vals)]
    state_path.unlink(missing_ok=True)
    layer = tracing.run(w, argv, cache, work, s.wall_s)
    results.append(
        layer.pop("problems")
        + check(w, seed, layer.pop("returncode"), layer.pop("stdout"), oracle_vals)
    )
    failed = sum(1 for problems in results if problems)
    metrics = with_units(layer.pop("values"), "per_layer")
    print(f"per-layer metrics ({w.name}, seed {seed}; untraced wall {s.wall_s:.3f} s):")
    for name, m in metrics.items():
        report(name, m, layer["notes"].get(name, ""))
    for label, problems in zip(("untraced run", "traced run"), results):
        if problems:
            print(f"{label} FAILED: " + "; ".join(problems[:5]))
    detail = {"workload": w.name, "seed": seed, "argv": argv, "provenance": prov, **layer}
    print(json.dumps({"detail": detail}, default=str))
    return {"correct": failed == 0, "attempted": len(results), "failed": failed, "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "artinsums" / "cli.py").is_file():
        print(f"error: no artinsums source under {SRC}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    prov = provenance()
    with work_dir() as work:
        if args.trace:
            result = traced(w, args.seed, work, prov)
        else:
            result = end_to_end(w, args.seed, args.seconds, work, prov)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
