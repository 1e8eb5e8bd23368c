"""Single-pass, checkpointed accumulation of the class-restricted partial
sums: for each n <= x the term is routed to the bucket of the Frobenius
class of its smallest prime factor (or to the per-prime ramified bucket),
alongside an unconditional aggregate, so the decomposition

    sum over class buckets + sum over ramified slices = unconditional sum

can be audited at every checkpoint.  Each checkpoint's Snapshot lists
its buckets in output order (``Snapshot.buckets``); the CLI's rows and
both audits walk that list, and the audits return (ok, rows).

A scan streams: it holds no table of length x.  Each segment gets its
mu, omega, P2s and "P1 repeats" from ``sieve.factor_block`` and its spf
from ``sieve.block_spf``, which read only the primes up to isqrt(x), so
a scan takes O(sqrt(x) + segment) memory and x may reach X_MAX = 2^32 - 1.  Class codes come from the
context's code array over [0, isqrt(x)], which holds the spf of every
composite n and the strict P2 of every n; the primes above isqrt(x) are
the squarefree n of a segment whose spf lies above it, and the kernel
classifies them there, one batch per segment, so no table of them is
ever held.

A scan runs on up to `threads` processes (``_run_segments``), and on
at most one per 200,000 integers left (``_processes``): the scan process
and children forked once the codes and primes exist, each taking every
threads-th segment of the same walk.  A child sends each segment's
cells, pickled and in order, through its own pipe and leaves through
os._exit; the scan process adds every segment's cells in order, so the
checkpoints, state writes and memory bound are those of one process.
Threads did not pay, as the kernel's time is mostly numpy call overhead
under the GIL.  On a 2-core VM two processes took the Q(i) scan to 10^7
(four checkpoints and a state file) from 1.10-1.49 s to 0.74-1.05 s, and
the one to 10^8 from 7.9-10.0 s to 4.2-5.5 s, for about 15 % more CPU
and the same peak RSS.

A scan makes one pass per segment, in one kernel (``_segment_partials``).
It gathers the squarefree n of the segment (every other term is 0), gives
each a bucket key once (uint8 up to 255 buckets, uint16 past), puts them
in key order with one stable argsort, and forms from them, grouped by
bucket, the per-n kinds and, for every checkpoint x not yet reached, the
checkpoint kinds (floor_weighted, frac_weighted) at x, which wait in
pending cells until the scan reaches x.  Each kind's sum per bucket is one
``np.add.reduceat`` over the bucket bounds, which one ``np.bincount`` of
the keys gives.  The same pass counts n by the class of their strict
second-largest prime factor, and the n whose largest prime factor repeats.
It returns keyed cells, which the scan adds to its running state: one
dict, laid out by ``_layout`` alone, whose cells are the entries of the
state file (format v3) in file order.  The state file is written at every
checkpoint, and between checkpoints at most once per _STATE_INTERVAL_S
seconds; it records the next segment start, so a resume from any write is
exact.

A segment's fixed cost is factor_block's loop over the sieving primes up
to isqrt(x), which grows with x; its cost per integer grows with the
segment once the block's arrays leave the cache.  So the default segment
(``default_segment_size``) grows with x: 2^16 up to x = 10^6, doubled at
each of 10^6, 10^7 and 10^8 that x passes.  Kernel CPU per integer, in ns,
medians over 24 segments spread across [2, x] (2-core VM under load,
Python 3.11, numpy 2.4; the chosen size starred):

    x         2^16   2^17   2^18   2^19   2^20
    3 10^6    110    106*   117    121    136
    10^7      130    112*   126    131    138
    10^8      207    149    138*   141    149
    10^9      338    218    181    169*   170
    4 10^9           355    251    203*   191

An earlier run on a quieter VM, about 30 % faster throughout, picked the
same sizes and had 2^19 and 2^20 level at 4 10^9.  Above 10^9 the size
stays at 2^19: 2^20 gained at most 6 % there and doubles factor_block's
arrays.  End to end, scan --cyclotomic 4 --xmax 10^9 took 99 s at 45 MB of peak
RSS (2^19); the earlier kernel, one bincount per bucketed sum, took 251 s
at 2^16 and 183 s at 2^20.  Only factor_block's arrays, 16 bytes an
integer, grow with the segment (2.1 MB at 2^17, 8.4 MB at 2^19): the rest
is summed in passes of at most 2^16 integers.  Two reducers sum the
buckets:

* ``exact``       -- rational sums: a pass sums each bucket's terms as a
                     pairwise tree of integer pairs (N, D), one D for
                     every kind, on int64 lanes near the leaves; each
                     bucket's sum is one Fraction, the total their sum.
                     Capped at x <= EXACT_X_CAP = 10^4 (see there).
                     Serves as an oracle.
* ``compensated`` -- the exact sum of the float terms via integer limbs,
                     rounded once per checkpoint: each term is rounded to
                     a float once, split exactly into three 30-bit limbs,
                     and each limb is summed per bucket in float64, exact
                     below 2^53; integer kinds are summed in int64.
                     Segment sums are merged as Fractions, so the result
                     does not depend on the segment order, the process
                     count or the resume point.
"""

from __future__ import annotations

import os
import pickle
import signal
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from itertools import islice, zip_longest
from math import fsum, isqrt
from typing import NamedTuple

import numpy as np

from .errors import IntegrityError
from .galois import RAMIFIED_CODE, UNCLASSIFIED_CODE, GaloisContext
from .sieve import X_MAX, FactorSieve, block_spf, factor_block

# the exact state at x = 10^4 already holds integers of 4298 digits (the
# primorial of 10^4), just below the 4300 that int <-> str converts by
# default; a larger cap needs the state and output formats to change
EXACT_X_CAP = 10_000
# a reduceat of at most 2^22 limbs below 2^30 stays below 2^52, so is exact
MAX_SEGMENT = 1 << 22
# integers per pass of the accumulation: a larger segment is summed in passes
# of this many, so only factor_block's arrays grow with the segment
_PASS = 1 << 16
# seconds between state writes, besides the one at each checkpoint
_STATE_INTERVAL_S = 10.0

PER_N_KINDS = ("mu_omega_over_n", "mu_over_n", "mu_omega_minus1_over_n", "mu_omega_raw")
CHECKPOINT_KINDS = ("floor_weighted", "frac_weighted")
ALL_KINDS = PER_N_KINDS + CHECKPOINT_KINDS

_INT_KINDS = {"mu_omega_raw", "floor_weighted"}


# A compensated term is a float t = num/n, num = mu(n) w with |w| <= 9n, as
# omega(n) <= 9 for n <= X_MAX.  So t = 0 or 2^-32 < 1/n <= |t| < 16: t is
# an integer multiple of 2^-84, and t 2^86 splits exactly into three signed
# limbs below 2^30.
_LIMB_SHIFTS = (26, 30, 30)


def check_x_max(x_max: int) -> None:
    if not 2 <= x_max <= X_MAX:
        raise ValueError(f"x_max = {x_max} outside [2, {X_MAX}]")


def default_segment_size(x_max: int) -> int:
    """The segment size of a scan to x_max that names none: 2^16, doubled
    for each of 10^6, 10^7 and 10^8 that x_max exceeds (see the module
    docstring for the measurements behind it)."""
    return 1 << (16 + sum(x_max > 10**e for e in (6, 7, 8)))


def _bounds(counts):
    """The bounds of terms in bucket order, counts[b] of them in bucket b:
    the buckets that hold terms, where each starts, and the number of
    buckets, the last one thrown away."""
    live = np.flatnonzero(counts)
    return live, (np.cumsum(counts) - counts)[live], len(counts)


def _reduced(a, bounds, dtype) -> list[int]:
    """The sums of the terms a, in bucket order, per bucket of `bounds` but
    the last, then over all of a, as ints: one np.add.reduceat in dtype,
    which must hold each sum exactly, over the starts of the buckets that
    hold terms."""
    live, starts, size = bounds
    cells = np.zeros(size, dtype=dtype)
    if len(a):
        cells[live] = np.add.reduceat(a, starts, dtype=dtype)
    cells = [int(v) for v in cells.tolist()]
    return [*cells[:-1], sum(cells)]


def _limb_sums(r, bounds) -> list[Fraction]:
    """As ``_reduced``, the exact sums of the float terms r as Fractions; r
    is used up.  Each term is split exactly into three 30-bit limbs, each
    formed in one buffer and summed in float64."""
    limb = np.empty_like(r)
    sums = [0] * bounds[2]
    for shift in _LIMB_SHIFTS:
        r *= 2.0**shift
        np.trunc(r, out=limb)
        sums = [(s << shift) + v for s, v in zip(sums, _reduced(limb, bounds, np.float64))]
        r -= limb
    if np.any(r):
        raise IntegrityError("a float term is not a multiple of 2^-84")
    return [Fraction(s, 1 << sum(_LIMB_SHIFTS)) for s in sums]


def _pairwise(D, N, lens):
    """Each run of lens[b] > 0 terms N[:, t]/D[t] summed as a pairwise tree
    to one node (N[:, b], D[b]), D shared by every row of N: (N1, D1) +
    (N2, D2) = (N1 D2/g + N2 D1/g, D1/g D2), g = gcd(D1, D2), an odd node
    carried as it is; int64 lanes while every node stays below 2^62."""
    while len(D) > len(lens):
        rel = np.arange(len(D)) - np.repeat(np.cumsum(lens) - lens, lens)
        i = np.flatnonzero(rel % 2 == 0)
        carry = rel[i] + 1 == np.repeat(lens, (lens + 1) // 2)
        j = np.minimum(i + 1, len(D) - 1)
        # a, c <= max D, so a node stays below max(max D, 2 max |N|) max D
        if D.dtype != object and max(top := int(D.max()), 2 * int(abs(N).max())) * top >= 2**62:
            D, N = D.astype(object), N.astype(object)
        g = np.gcd(D[i], D[j])
        a, c = np.where(carry, 1, D[j] // g), np.where(carry, 0, D[i] // g)
        N, Nj = N[:, i] * a, N[:, j]
        Nj *= c
        N += Nj
        D, lens = D[i] * a, (lens + 1) // 2
    return D, N


def _exact_sums(counts, n, nums) -> dict:
    """{key: the sums of nums[key]/n, n and nums in bucket order with
    counts[b] terms in bucket b, per bucket but the last, then over all
    buckets, as Fractions}, exact: each bucket's by ``_pairwise``, made
    into one Fraction; the total is the sum of every bucket's."""
    live = np.flatnonzero(counts)
    D, N = _pairwise(n.astype(np.int64), np.array([*nums.values()], dtype=np.int64), counts[live])
    cells = np.full((len(nums), len(counts)), Fraction(0), dtype=object)
    cells[:, live] = [list(map(Fraction, row, D.tolist())) for row in N.tolist()]
    return {key: [*row[:-1], sum(row)] for key, row in zip(nums, cells.tolist())}


# ---------------------------------------------------------------------------
# scan


@dataclass
class Snapshot:
    classes: dict  # label -> {kind: value}
    ramified: dict  # prime -> {kind: value}
    total: dict  # kind -> value
    n2_classes: dict  # label -> int
    n2_ramified: int
    repeat_count: int

    def buckets(self):
        """(name, {kind: value}) of every bucket, in output order: the
        classes by label, "ramified:<p>" with p increasing, then "total"."""
        yield from sorted(self.classes.items())
        for p, vals in sorted(self.ramified.items()):
            yield f"ramified:{p}", vals
        yield "total", self.total


@dataclass
class SeriesScan:
    mode: str
    snapshots: dict[int, Snapshot]  # checkpoint -> snapshot, x increasing


def scan(
    ctx: GaloisContext,
    x_max: int,
    checkpoints=None,
    mode: str = "compensated",
    sieve: FactorSieve | None = None,
    threads: int = 1,
    segment_size: int | None = None,
    state_path=None,
    resume: bool = False,
) -> SeriesScan:
    """Scan [2, x_max]; `sieve` needs a limit of at least isqrt(x_max):
    only its primes up to there are read.  With no segment_size, a resume
    takes the size its state file records, and any other scan
    default_segment_size(x_max).  The segments run on at most `threads`
    processes (see ``_processes``); the result does not depend on it."""
    if sieve is None:
        raise ValueError("a FactorSieve is required")
    check_x_max(x_max)
    root = isqrt(x_max)
    if sieve.limit < root:
        raise ValueError(f"sieve limit {sieve.limit} is below isqrt(x_max) = {root}")
    if mode not in ("exact", "compensated"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "exact" and x_max > EXACT_X_CAP:
        raise ValueError(f"exact mode is capped at x = {EXACT_X_CAP}")
    if resume and state_path is None:
        raise ValueError("resume needs a state_path")
    resuming = resume and os.path.exists(state_path)
    if segment_size is None:
        segment_size = (resuming and _recorded_segment_size(state_path)) or default_segment_size(x_max)
    if not 1 <= segment_size <= MAX_SEGMENT:
        raise ValueError(f"segment_size = {segment_size} outside [1, {MAX_SEGMENT}]")
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    cps = tuple(sorted({*(checkpoints or ()), x_max}))
    if cps[0] < 2 or cps[-1] > x_max:
        raise ValueError("checkpoints must lie in [2, x_max]")

    labels = ctx.labels()
    # the primes up to isqrt(x_max) are the smallest prime factor of every
    # composite n <= x_max and the strict P2 of every n; each segment's
    # kernel classifies the segment's primes above
    codes = ctx.class_code_array(sieve, root)
    primes = sieve.prime_array(root)
    ram_primes = ctx.ramified_primes(codes, x_max)
    buckets = _buckets(labels, codes, ctx._class_codes, ram_primes)
    layout = partial(_layout, labels, ram_primes, cps, mode=mode)
    header = {
        "context": ctx.spec_string(),
        "mode": mode,
        "segment_size": str(segment_size),
        "x_max": str(x_max),
        "checkpoints": ",".join(str(c) for c in cps),
    }
    if resuming:
        is_start = partial(_is_segment_start, lo=2, hi=x_max, size=segment_size, checkpoints=cps)
        state, start_lo = _load_state(state_path, header, is_start, layout)
    else:
        state, start_lo = layout(2), 2

    snapshots = {x: _snapshot(state, x, labels, ram_primes) for x in cps if x < start_lo}
    result = SeriesScan(mode, snapshots)
    # the segments from a segment start are those of the whole scan
    todo = _segments(start_lo, x_max, segment_size, cps)
    saved = time.monotonic()

    def run(seg):
        lo, hi = seg
        xs = [x for x in cps if x >= hi]
        return hi, _segment_partials(buckets, primes, lo, hi, mode, xs)

    def consume(hi, delta):
        nonlocal state, saved
        for key, v in delta.items():
            state[key] += v
        if hi in cps:
            state = _reach(state, hi, layout(hi + 1))
            snapshots[hi] = _snapshot(state, hi, labels, ram_primes)
        if state_path is not None and (hi in cps or time.monotonic() - saved >= _STATE_INTERVAL_S):
            _save_state(state_path, header, hi + 1, state)
            saved = time.monotonic()

    processes = _processes(threads, x_max + 1 - start_lo, _segments(start_lo, x_max, segment_size, cps))
    _run_segments(run, consume, todo, processes)
    return result


def usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity outside Linux
        return os.cpu_count() or 1


# the fewest integers a scan process is planned for, the measured
# break-even of a second one: it costs 15-35 ms of CPU (a fork, pipe and
# reap of 3.2-3.9 ms, about 5k more minor faults at 3.6-3.8 us each).
# series.scan alone, medians of 9 alternating pairs on a 2-core VM, in ms
# of wall / CPU on 1 -> 2 processes: at 2 10^5 integers 32/32 -> 35/48
# for Q(i) and 65/65 -> 59/87 for x^5-x-1, at 4 10^5 65/65 -> 51/77 and
# 140/140 -> 116/162, at 10^6 117/116 -> 79/136 and 336/323 -> 256/375
_PROCESS_INTEGERS = 200_000


def _processes(threads: int, integers: int, segments) -> int:
    """How many processes scan `segments` of `integers` integers: at most
    `threads`, one per usable CPU, segment and _PROCESS_INTEGERS integers;
    one where os.fork is missing or other threads run, which a fork would
    leave stopped mid-work in the child."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    most = min(threads, usable_cpus(), integers // _PROCESS_INTEGERS)
    return max(1, min(most, sum(1 for _ in islice(segments, most))))


def _run_segments(run, consume, segments, processes):
    """consume(*run(seg)) for every segment, in order.  On several
    processes, child i of 1 .. processes - 1 runs the segments i, i +
    processes, ... and sends each result through its own pipe, while this
    process runs the segments 0, processes, ... and consumes every result
    in turn.  On success or failure every child is reaped before this
    returns; on failure each is killed first."""
    children = []  # (pid, read end of its pipe)
    try:
        for i in range(1, processes):
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:
                _child(run, islice(segments, i, None, processes), w)
            children.append((pid, os.fdopen(r, "rb")))
            os.close(w)
        pipes = [None, *(pipe for _, pipe in children)]
        for i, seg in enumerate(segments):
            consume(*(_receive(pipes[i % processes]) if i % processes else run(seg)))
    except BaseException:
        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, pipe in children:
            pipe.close()
            os.waitpid(pid, 0)


def _child(run, segments, fd):
    """The body of a forked child: run(seg) of each segment, pickled into
    the pipe fd as (True, result), or the first exception as (False, exc).
    It leaves through os._exit on every path, so never returns into the
    scan nor writes stdout or the state file; a result it cannot send
    leaves the pipe short, which ``_receive`` reports."""
    try:
        with os.fdopen(fd, "wb") as out:
            try:
                for seg in segments:
                    pickle.dump((True, run(seg)), out, pickle.HIGHEST_PROTOCOL)
                    out.flush()
            except BaseException as exc:
                pickle.dump((False, exc), out, pickle.HIGHEST_PROTOCOL)
    finally:
        os._exit(0)


def _receive(pipe):
    """The next result a child sent through `pipe`; an exception it sent is
    raised here."""
    try:
        ok, value = pickle.load(pipe)
    except EOFError:
        raise ChildProcessError("a scan process ended before its last segment") from None
    if not ok:
        raise value
    return value


def _segments(lo: int, hi: int, size: int, checkpoints):
    """The segments (start, end) of [lo, hi], in order and one at a time:
    [lo, hi] cut after every multiple of size and every checkpoint."""
    start = lo
    for cut in sorted({c for c in checkpoints if lo <= c <= hi} | {hi}):
        while start <= cut:
            end = min(-(-start // size) * size, cut)
            yield start, end
            start = end + 1


def _is_segment_start(n: int, lo: int, hi: int, size: int, checkpoints) -> bool:
    """Whether n starts a segment of ``_segments(lo, hi, size,
    checkpoints)``, or is hi + 1, where the last one ends."""
    return n == lo or lo < n <= hi + 1 and ((n - 1) % size == 0 or n - 1 in checkpoints or n == hi + 1)


class _Buckets(NamedTuple):
    """What routes a scan's terms to buckets; class i of `labels` is code
    i.  `codes` are the class codes over [0, r], r = isqrt(x_max);
    `classify` maps an array of primes above r to their codes; keymap[p]
    is the bucket key of a term with smallest prime factor p up to r, and
    names[key] the name of bucket key."""

    labels: list
    codes: np.ndarray
    classify: object
    ram_primes: list
    keymap: np.ndarray
    names: list


def _buckets(labels, codes, classify, ram_primes) -> _Buckets:
    """The _Buckets of a scan, built once for all its segments."""
    keymap = _bucket_key(codes, np.arange(len(codes)), ram_primes, len(labels))
    return _Buckets(labels, codes, classify, ram_primes, keymap, _bucket_names(labels, ram_primes))


def _segment_partials(buckets, primes, lo, hi, mode, xs):
    """All that the block lo <= n <= hi adds to a scan, in one pass, keyed
    as the cells of ``_layout``: the per-bucket sums of the per-n kinds
    ("acc." cells); the per-bucket sums of the checkpoint kinds at each x
    of `xs`, every x >= hi ("pending.<x>." cells); and the block's counts
    by the class of the strict P2 and of repeated P1 ("count." cells).

    `primes` holds the primes up to r = isqrt(x_max); `buckets` routes
    the terms (``_Buckets``).  The one place where terms are formed and
    routed to buckets.  The block is factored at once and summed in
    passes of at most _PASS integers (``_pass_sums``)."""
    labels, codes = buckets.labels, buckets.codes
    block = factor_block(primes, lo, hi + 1)
    rep = block.pop("rep")
    # P2s(n)^2 < n, so codes covers it; an n with P2s = 1 or a repeated P1
    # counts at 1 or 0, whose code is UNCLASSIFIED_CODE (-2), and the codes
    # run from there through RAMIFIED_CODE (-1) to len(labels) - 1
    by_p2 = np.bincount(block.pop("P2s") * ~rep, minlength=len(codes))
    by_code = np.bincount(codes - UNCLASSIFIED_CODE, weights=by_p2, minlength=len(labels) - UNCLASSIFIED_CODE)
    by_code = by_code.astype(np.int64).tolist()
    delta = {f"count.n2:{lab}": by_code[i - UNCLASSIFIED_CODE] for i, lab in enumerate(labels)}
    delta["count.n2_ramified"] = by_code[RAMIFIED_CODE - UNCLASSIFIED_CODE]
    delta["count.repeat_count"] = int(np.count_nonzero(rep))
    block["spf"] = block_spf(primes, lo, hi + 1)
    for a in range(0, hi + 1 - lo, _PASS):
        for key, vals in _pass_sums(block, a, lo, buckets, mode, xs).items():
            prefix, kind = key.rsplit(".", 1)
            for name, v in zip(buckets.names, vals):
                cell = f"{prefix}.{name}.{kind}"
                delta[cell] = delta.get(cell, 0) + v
    return delta


def _pass_sums(block, a, lo, buckets, mode, xs) -> dict:
    """{cell prefix.kind: its sums per bucket, then over all terms} of the
    integers lo + a <= n < lo + a + _PASS of `block`, their factor data
    from lo on, routed by `buckets`.  Terms are formed for squarefree n only: every other
    term is 0, and the sums are exact sums of the terms.  Each n gets its
    bucket key once; mu, omega and n are gathered in bucket order, so every
    kind is formed grouped by bucket and summed by ``_reduced``."""
    part = slice(a, a + _PASS)
    mu = block["mu"][part]
    sf = np.flatnonzero(mu != 0)  # 3x faster than on int8
    sp = block["spf"][part].take(sf)
    key = buckets.keymap.take(sp, mode="clip")
    # a squarefree n is composite with spf <= r, or a prime: an spf above
    # r is the prime n itself, classified here
    big = np.flatnonzero(sp >= len(buckets.keymap))
    sp = sp.take(big)
    key[big] = _bucket_key(buckets.classify(sp), sp, buckets.ram_primes, len(buckets.labels))
    # one count per key; the last key's bucket is thrown away, and its
    # name's place holds the total
    counts = np.bincount(key, minlength=len(buckets.names))
    bounds = _bounds(counts)
    sf = sf[np.argsort(key, kind="stable")]
    mu = mu[sf]
    om = block["omega"][part][sf]
    n = sf.astype(np.uint32)
    n += lo + a
    del sf
    nf = n.astype(np.float64)
    muom = mu * om

    def kinds():
        """(cell prefix.kind, numerator, whether over n) of every kind,
        one x at a time; |floor_weighted| <= 9 x/n, x < 2^32: a pass's sum
        of it is at most 9 x (1/2 + ln 2^31) < 2^40, exact in int64."""
        yield "acc.mu_omega_over_n", muom, True
        yield "acc.mu_over_n", mu, True
        yield "acc.mu_omega_minus1_over_n", mu * (om - 1), True
        yield "acc.mu_omega_raw", muom, False
        for x in xs:
            q, rem = np.divmod(np.uint32(x), n)
            yield f"pending.{x}.floor_weighted", muom * q, False
            yield f"pending.{x}.frac_weighted", muom * rem, True

    sums, exact = {}, {}
    for cell, num, over_n in kinds():
        if not over_n:
            sums[cell] = _reduced(num, bounds, np.int64)
        elif mode == "exact":
            exact[cell] = num  # summed below, over one common denominator
        else:
            sums[cell] = _limb_sums(num / nf, bounds)
    if exact:
        sums.update(_exact_sums(counts, n, exact))
    return sums


def _bucket_key(c, sp, ram_primes, n_classes):
    """The bucket of every term whose smallest prime factor sp has class
    code c, in the narrowest unsigned type that holds them: the code when
    it is a class; n_classes + j for the other terms with sp the ramified
    prime ram_primes[j]; and n_classes + len(ram_primes), the bucket
    thrown away, for the rest (UNCLASSIFIED_CODE)."""
    size = n_classes + len(ram_primes)
    key = c.astype(np.min_scalar_type(size))
    neg = np.flatnonzero(c < 0)
    key[neg] = size
    if ram_primes:
        ram, spn = np.array(ram_primes), sp[neg]
        j = np.searchsorted(ram, spn)
        hit = ram.take(j, mode="clip") == spn
        key[neg[hit]] = n_classes + j[hit]
    return key


def _bucket_names(labels, ram_primes) -> list[str]:
    """The name of each bucket, by bucket id."""
    return [*(f"class:{lab}" for lab in labels), *(f"ram:{p}" for p in ram_primes), "total"]


def _layout(labels, ram_primes, cps, next_lo, mode) -> dict:
    """The running state of a scan over [2, next_lo), all zeros: one cell
    per entry of its state file, keyed and ordered as format v3 writes
    them, each zero of the type of the cell's values.  The per-n sums
    ("acc.<bucket>.<kind>") and counts ("count.<name>") of [2, next_lo);
    the checkpoint kinds at each checkpoint x not yet reached
    ("pending.<x>.<bucket>.<kind>"); and every cell of each reached x
    ("snap.<x>.<bucket>.<kind>", "snap.<x>.<count name>"), floats in
    compensated mode."""
    names = sorted(_bucket_names(labels, ram_primes))
    counts = sorted([*(f"n2:{lab}" for lab in labels), "n2_ramified", "repeat_count"])

    def cells(prefix, kinds, ratio=Fraction(0)):
        return {f"{prefix}.{b}.{k}": 0 if k in _INT_KINDS else ratio for b in names for k in kinds}

    state = {**cells("acc", PER_N_KINDS), **{f"count.{c}": 0 for c in counts}}
    for x in (x for x in cps if x >= next_lo):
        state.update(cells(f"pending.{x}", CHECKPOINT_KINDS))
    for x in (x for x in cps if x < next_lo):
        state.update(cells(f"snap.{x}", sorted(ALL_KINDS), Fraction(0) if mode == "exact" else 0.0))
        state.update({f"snap.{x}.{c}": 0 for c in counts})
    return state


def _reach(state, x, layout) -> dict:
    """The state at checkpoint x: the cells of `layout`, the layout past
    x, taken from `state`, where each new snap.<x> cell takes the value
    over [2, x] of the running cell of the same name."""
    out = {}
    for key, zero in layout.items():
        if key in state:
            out[key] = state[key]
        else:
            name = key.removeprefix(f"snap.{x}.")
            running = next(k for k in (f"acc.{name}", f"count.{name}", f"pending.{x}.{name}") if k in state)
            out[key] = type(zero)(state[running])
    return out


def _snapshot(state, x, labels, ram_primes) -> Snapshot:
    """The snapshot at checkpoint x, read out of the snap.<x> cells."""

    def cell(name):
        return {kind: state[f"snap.{x}.{name}.{kind}"] for kind in ALL_KINDS}

    return Snapshot(
        classes={lab: cell(f"class:{lab}") for lab in labels},
        ramified={p: cell(f"ram:{p}") for p in ram_primes},
        total=cell("total"),
        n2_classes={lab: state[f"snap.{x}.n2:{lab}"] for lab in labels},
        n2_ramified=state[f"snap.{x}.n2_ramified"],
        repeat_count=state[f"snap.{x}.repeat_count"],
    )


# ---------------------------------------------------------------------------
# partition audit

_PARTITION_RTOL = 1e-12
_SPLIT_RTOL = 1e-9


def partition_audit(scan_result: SeriesScan):
    """(ok, rows), a row (x, kind, total, recombined, diff, good) per
    checkpoint and sum kind: whether the class buckets plus the ramified
    slices reproduce the unconditional sum.  Exact in exact mode and for
    the integer kinds; relative tolerance _PARTITION_RTOL otherwise."""
    rows = []
    for x, snap in scan_result.snapshots.items():
        buckets = [vals for _, vals in snap.buckets()]
        for kind in ALL_KINDS:
            *parts, total = (vals[kind] for vals in buckets)
            if scan_result.mode == "exact" or kind in _INT_KINDS:
                recombined = sum(parts)
                good = recombined == total
                diff = recombined - total
            else:
                recombined = fsum(parts)
                diff = recombined - float(total)
                good = abs(diff) <= _PARTITION_RTOL * max(1.0, abs(float(total)))
            rows.append((x, kind, total, recombined, diff, good))
    return all(row[5] for row in rows), rows


def splitting_check(scan_result: SeriesScan):
    """(ok, rows), a row (x, bucket, lhs, rhs, good) per checkpoint and
    bucket: whether floor_weighted + frac_weighted = x * mu_omega_over_n.
    Exact in exact mode; relative tolerance _SPLIT_RTOL otherwise."""
    rows = []
    for x, snap in scan_result.snapshots.items():
        for name, vals in snap.buckets():
            lhs = vals["floor_weighted"] + vals["frac_weighted"]
            rhs = x * vals["mu_omega_over_n"]
            if scan_result.mode == "exact":
                good = lhs == rhs
            else:
                good = abs(lhs - rhs) <= _SPLIT_RTOL * max(1.0, abs(rhs))
            rows.append((x, name, lhs, rhs, good))
    return all(row[4] for row in rows), rows


# ---------------------------------------------------------------------------
# standalone counting / summing operations


def count_P2_in_class(ctx: GaloisContext, label: str, x: int, sieve: FactorSieve) -> int:
    """#{n <= x : second-largest prime factor (strict) is in the class},
    excluding n whose largest prime factor repeats.  A scan forms these
    counts in its segment pass; this full pass over [2, x] is their oracle."""
    return _count_P2_with_code(ctx, ctx.code_of(label), x, sieve)


def count_P2_ramified(ctx: GaloisContext, x: int, sieve: FactorSieve) -> int:
    """As count_P2_in_class, for a ramified second-largest prime factor."""
    return _count_P2_with_code(ctx, RAMIFIED_CODE, x, sieve)


def _count_P2_with_code(ctx: GaloisContext, code: int, x: int, sieve: FactorSieve) -> int:
    # a strict P2 has P2^2 < n <= x, so codes over [0, isqrt(x)] cover it
    codes = ctx.class_code_array(sieve, isqrt(x))
    sl = slice(2, x + 1)
    P2 = sieve.P2_strict_table()[sl]
    rep = sieve.repeated_P1_table()[sl]
    return int(np.count_nonzero((P2 > 1) & ~rep & (codes[P2] == code)))


def count_repeated_P1(x: int, sieve: FactorSieve) -> int:
    """#{n <= x : P1(n)^2 | n}."""
    return int(np.count_nonzero(sieve.repeated_P1_table()[2 : x + 1]))


def psi_smooth(x: int, ys, sieve: FactorSieve) -> list[int]:
    """#{n <= x : largest prime factor <= y} for each y of the sequence
    ys, in order; n = 1 counts.  One walk over factor_block blocks counts
    them all from the primes up to isqrt(x), with no table of length x."""
    check_x_max(x)
    if not all(1 <= y <= x for y in ys):
        raise ValueError(f"need 1 <= y <= x = {x} for every y, got {ys}")
    if sieve.limit < isqrt(x):
        raise ValueError(f"sieve limit {sieve.limit} is below isqrt(x) = {isqrt(x)}")
    primes = sieve.prime_array(isqrt(x))
    counts = [1] * len(ys)
    step = default_segment_size(x)
    for lo in range(2, x + 1, step):
        P1 = factor_block(primes, lo, min(lo + step, x + 1), P1=True)["P1"]
        counts = [c + int(np.count_nonzero(P1 <= y)) for c, y in zip(counts, ys)]
    return counts


# ---------------------------------------------------------------------------
# Dickman rho

_RHO_STEPS_PER_UNIT = 10_000
RHO_MAX = 20


@lru_cache(maxsize=1)
def _dickman_values() -> tuple[float, ...]:
    """rho on a uniform grid of step 1e-4 over [0, 20], via the delay
    integral form a rho(a) = integral_{a-1}^{a} rho(t) dt.

    The unit-window integral I(a) is advanced with a sliding trapezoid
    update and re-summed from scratch at every integer boundary; all
    quantities involved are positive and of the same scale as rho(a)
    itself, so the error stays *relative* and rho remains positive and
    strictly decreasing all the way down to rho(20) ~ 1e-29 (a naive ODE
    march of rho' = -rho(a-1)/a loses to absolute rounding noise there).
    """
    S = _RHO_STEPS_PER_UNIT
    h = 1.0 / S
    vals = [1.0] * (S + 1)
    window = fsum(vals[:S]) * h + (vals[S] - vals[0]) * h / 2  # I(1) = 1
    for i in range(S, RHO_MAX * S):
        a1 = (i + 1) / S
        # trapezoid update of I over [a1 - 1, a1]; the new endpoint value
        # rho(a1) = I(a1)/a1 appears on both sides -- solve for it.
        partial = window + h / 2 * vals[i] - h / 2 * (vals[i - S] + vals[i + 1 - S])
        nxt = partial / (a1 - h / 2)
        vals.append(nxt)
        window = partial + h / 2 * nxt
        if (i + 1) % S == 0:
            window = fsum(vals[i + 2 - S : i + 1]) * h
            window += (vals[i + 1 - S] + vals[i + 1]) * h / 2
    return tuple(vals)


def dickman_rho(alpha: float) -> float:
    """Dickman's rho: 1 on [0, 1], then the solution of the delay
    integral equation rho(a) = 1 - integral_1^a rho(u-1)/u du."""
    if not 0 <= alpha <= RHO_MAX:  # NaN fails too
        raise ValueError(f"alpha must lie in [0, {RHO_MAX}], got {alpha}")
    if alpha <= 1:
        return 1.0
    S = _RHO_STEPS_PER_UNIT
    vals = _dickman_values()
    pos = alpha * S
    i = int(pos)
    if i >= len(vals) - 1:
        return vals[-1]
    frac = pos - i
    return vals[i] * (1 - frac) + vals[i + 1] * frac


# ---------------------------------------------------------------------------
# scan state persistence (resume support)

_STATE_HEADER = "artinsums-scan v3"


def _fmt_value(v) -> str:
    if isinstance(v, Fraction):
        return f"frac {v.numerator}/{v.denominator}"
    if isinstance(v, float):
        return f"float {v.hex()}"
    return f"int {v}"


def _sha256(text: str) -> str:
    """The hex SHA-256 of text in UTF-8, from the interpreter's built-in
    module where there is one: hashlib's loads OpenSSL, 3.6 MB of RSS."""
    try:
        from _sha2 import sha256  # Python 3.12 on
    except ImportError:
        try:
            from _sha256 import sha256  # Python 3.10 and 3.11
        except ImportError:
            from hashlib import sha256
    return sha256(text.encode()).hexdigest()


def _save_state(path, header, next_lo, state):
    """Write the state to a temporary file beside `path`, then rename it
    over `path`, so an interrupted write leaves the previous state whole."""
    lines = [
        _STATE_HEADER,
        *(f"{k} = {v}" for k, v in header.items()),
        f"next_lo = {next_lo}",
        *(f"{k} = {_fmt_value(v)}" for k, v in state.items()),
    ]
    body = "\n".join(lines) + "\n"
    digest = _sha256(body)
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        fh.write(body)
        fh.write(f"sha256 = {digest}\n")
    os.replace(tmp, path)


def _parse_value(text, zero):
    """The value of a cell with zero `zero` from its state-file text, which
    must carry the tag of that type; ValueError otherwise."""
    tag, _, rest = text.partition(" ")
    if tag != _fmt_value(zero).partition(" ")[0]:
        raise ValueError(text)
    if tag == "frac":
        num, den = rest.split("/")
        return Fraction(int(num), int(den))
    return float.fromhex(rest) if tag == "float" else int(rest)


def _recorded_segment_size(path) -> int | None:
    """The segment size in the header of a state file, if it records one
    in [1, MAX_SEGMENT]; ``_load_state`` checks the file."""
    with open(path, encoding="utf-8", errors="replace") as fh:
        header = dict(line.rstrip("\n").partition(" = ")[::2] for line in islice(fh, 8))
    size = header.get("segment_size", "")
    return int(size) if size.isdecimal() and 1 <= int(size) <= MAX_SEGMENT else None


def _load_state(path, header, is_start, layout):
    """(state, next segment start) from a state file.  The file must hold
    `header`, a next_lo for which `is_start` holds, then exactly the cells of
    layout(next_lo), in order, each a value of its zero's type; anything
    else raises IntegrityError."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError:
        raise IntegrityError(f"{path}: state file is not UTF-8 text") from None
    body, _, tail = text.rpartition("sha256 = ")
    digest = tail.strip()
    if _sha256(body) != digest:
        raise IntegrityError(f"{path}: state hash mismatch")
    lines = body.splitlines()
    if not lines or lines[0] != _STATE_HEADER:
        raise IntegrityError(f"{path}: unrecognized state header (expected {_STATE_HEADER!r})")
    entries = [line.partition(" = ")[::2] for line in lines[1:]]
    kv = dict(entries)
    for k, want in header.items():
        if kv.get(k) != want:
            raise IntegrityError(f"{path}: state {k} mismatch (file {kv.get(k)!r}, requested {want!r})")
    try:
        next_lo = int(kv["next_lo"])
    except (KeyError, ValueError):
        raise IntegrityError(f"{path}: state lacks a valid next_lo") from None
    if not is_start(next_lo):
        raise IntegrityError(f"{path}: next_lo = {next_lo} is not a segment start")
    state = layout(next_lo)
    want = [*header, "next_lo", *state]
    for got, key in zip_longest((k for k, _ in entries), want):
        if got != key:
            raise IntegrityError(f"{path}: state entry {got!r} where {key!r} belongs")
    for key, text in entries[len(header) + 1 :]:
        try:
            state[key] = _parse_value(text, state[key])
        except (ValueError, ZeroDivisionError, OverflowError):
            raise IntegrityError(f"{path}: bad state value {key} = {text!r}") from None
    return state, next_lo
