"""Single-pass, checkpointed accumulation of the class-restricted partial
sums: for each n <= x the term is routed to the bucket of the Frobenius
class of its smallest prime factor (or to the per-prime ramified bucket),
alongside an unconditional aggregate, so the decomposition

    sum over class buckets + sum over ramified slices = unconditional sum

can be audited at every checkpoint.  Each checkpoint's Snapshot lists
its buckets in output order (``Snapshot.buckets``); the CLI's rows and
both audits walk that list, and the audits return (ok, rows).

A scan streams: it holds no table of length x.  Each segment gets its
mu, omega, spf, P2s and "P1 repeats" from ``sieve.factor_block``, which
reads only the primes up to isqrt(x), so a scan takes O(sqrt(x) + segment)
memory and x may reach X_MAX = 2^32 - 1.  Class codes come from the
context's code array over [0, isqrt(x)], which holds the spf of every
composite n and the strict P2 of every n; the primes above isqrt(x) are
the squarefree n of a segment whose spf lies above it, and the kernel
classifies them there, one batch per segment (in the worker threads when
there are several), so no table of them is ever held.

A scan makes one pass per segment, in one kernel (``_segment_partials``).
It gathers the squarefree n of the segment (every other term is 0), gives
each a bucket id once, and forms from them the per-n kinds and, for every
checkpoint x not yet reached, the checkpoint kinds (floor_weighted,
frac_weighted) at x, which wait in pending cells until the scan reaches x.
The same pass counts n by the class of their strict second-largest prime
factor, and the n whose largest prime factor repeats.  It returns keyed
cells, which the scan adds to its running state: one dict, laid out by
``_layout`` alone, whose cells are the entries of the state file (format
v3) in file order.  The state file is written at every checkpoint, and
between checkpoints at most once per _STATE_INTERVAL_S seconds; it records
the next segment start, so a resume from any write is exact.  Two reducers
sum the buckets:

* ``exact``       -- rational sums: each segment's sums of a kind are
                     integers over one common denominator L, the lcm of
                     its squarefree n, each made into one Fraction; one
                     loop over the n forms L // n once for every kind.
                     Capped at x <= EXACT_X_CAP = 10^4, where the state's
                     integers reach the 4,300-digit limit of int <-> str
                     conversion (see EXACT_X_CAP).  Serves as an oracle.
* ``compensated`` -- the exact sum of the float terms via integer limbs,
                     rounded once per checkpoint: each term is rounded to
                     a float once, split exactly into three 30-bit limbs,
                     and each limb is summed per bucket by ``np.bincount``.
                     Segment sums are merged as Fractions, so the result
                     does not depend on the segment order, the thread
                     count or the resume point.
"""

from __future__ import annotations

import os
import time
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from itertools import zip_longest
from math import fsum, isqrt, lcm

import numpy as np

from .errors import IntegrityError
from .galois import RAMIFIED_CODE, UNCLASSIFIED_CODE, GaloisContext
from .sieve import X_MAX, FactorSieve, factor_block

# the exact state at x = 10^4 already holds integers of 4298 digits (the
# primorial of 10^4), just below the 4300 that int <-> str converts by
# default; a larger cap needs the state and output formats to change
EXACT_X_CAP = 10_000
DEFAULT_SEGMENT = 65_536
# a bincount of at most 2^22 limbs below 2^30 stays below 2^52, so is exact
MAX_SEGMENT = 1 << 22
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


def _binned(ids, w, size):
    """Integer sums of the integer weights w per bucket id below `size`,
    then over all of w (the discarded bucket `size` too); exact while the
    sum of |w| stays below 2^53."""
    bins = [int(v) for v in np.bincount(ids, weights=w, minlength=size + 1).tolist()]
    return [*bins[:size], sum(bins)]


def _limb_sums(ids, size, r):
    """The exact sums of the float terms r per bucket id below `size`,
    then over all of r, as Fractions; r is used up.  Each term is split
    exactly into three 30-bit limbs, each limb summed by ``_binned``."""
    limb = np.empty_like(r)
    sums = [0] * (size + 1)
    for shift in _LIMB_SHIFTS:
        r *= 2.0**shift
        np.trunc(r, out=limb)
        sums = [(s << shift) + v for s, v in zip(sums, _binned(ids, limb, size))]
        r -= limb
    if np.any(r):
        raise IntegrityError("a float term is not a multiple of 2^-84")
    return [Fraction(s, 1 << sum(_LIMB_SHIFTS)) for s in sums]


def _lcm_tree(ns: list[int]) -> int:
    """lcm of ns (1 for none), pairwise: operands grow evenly, which is
    3x faster than math.lcm(*ns) over a segment of squarefree n."""
    while len(ns) > 1:
        ns = [lcm(*ns[i : i + 2]) for i in range(0, len(ns), 2)]
    return ns[0] if ns else 1


def _exact_sums(ids, size, n, nums) -> dict:
    """{key: the sums of nums[key]/n per bucket id below `size`, then over
    all terms, as Fractions}, exact.  Every cell is one integer sum over
    L = lcm(n), which Fraction brings to lowest terms; each L // n is
    formed once, for all the keys, and not kept."""
    L = _lcm_tree(n.tolist())
    cols = [v.tolist() for v in nums.values()]
    sums = [[0] * (size + 1) for _ in cols]
    for b, m, *row in zip(ids.tolist(), n.tolist(), *cols):
        q = L // m
        for a, cells in zip(row, sums):
            if a:
                cells[b] += a * q
    return {
        key: [*(Fraction(v, L) for v in cells[:size]), Fraction(sum(cells), L)]
        for key, cells in zip(nums, sums)
    }


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
    segment_size: int = DEFAULT_SEGMENT,
    state_path=None,
    resume: bool = False,
) -> SeriesScan:
    """Scan [2, x_max]; `sieve` needs a limit of at least isqrt(x_max):
    only its primes up to there are read."""
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
    if not 1 <= segment_size <= MAX_SEGMENT:
        raise ValueError(f"segment_size = {segment_size} outside [1, {MAX_SEGMENT}]")
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    cps = sorted(set(checkpoints)) if checkpoints else []
    if cps and (cps[0] < 2 or cps[-1] > x_max):
        raise ValueError("checkpoints must lie in [2, x_max]")
    if x_max not in cps:
        cps.append(x_max)
    cps = tuple(cps)

    labels = ctx.labels()
    # the primes up to isqrt(x_max) are the smallest prime factor of every
    # composite n <= x_max and the strict P2 of every n; each segment's
    # kernel classifies the segment's primes above
    codes = ctx.class_code_array(sieve, root)
    primes = sieve.prime_array(root)
    ram_primes = ctx.ramified_primes(codes, x_max)
    layout = partial(_layout, labels, ram_primes, cps, mode=mode)
    header = {
        "context": ctx.spec_string(),
        "mode": mode,
        "segment_size": str(segment_size),
        "x_max": str(x_max),
        "checkpoints": ",".join(str(c) for c in cps),
    }
    if resume and state_path is not None and os.path.exists(state_path):
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
        return hi, _segment_partials(labels, primes, codes, ctx._class_codes, ram_primes, lo, hi, mode, xs)

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

    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=threads) if threads > 1 else nullcontext() as pool:
        for hi, delta in _in_order(pool, run, todo, 2 * threads) if pool else map(run, todo):
            consume(hi, delta)
    return result


def _in_order(pool, fn, items, ahead):
    """fn over items on `pool`, the results in order, with at most `ahead`
    calls submitted and not yet consumed: Executor.map would submit every
    segment of the scan at once."""
    futures = deque()
    for item in items:
        futures.append(pool.submit(fn, item))
        if len(futures) >= ahead:
            yield futures.popleft().result()
    while futures:
        yield futures.popleft().result()


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


def _segment_partials(labels, primes, codes, classify, ram_primes, lo, hi, mode, xs):
    """All that the block lo <= n <= hi adds to a scan, in one pass, keyed
    as the cells of ``_layout``: the per-bucket sums of the per-n kinds
    ("acc." cells); the per-bucket sums of the checkpoint kinds at each x
    of `xs`, every x >= hi ("pending.<x>." cells); and the block's counts
    by the class of the strict P2 and of repeated P1 ("count." cells).

    `primes` holds the primes up to r = isqrt(x_max), whose class codes
    are `codes`, over [0, r]; `classify` maps an array of the block's
    primes above r to their codes.  The one place where terms are formed
    and routed to buckets; class i of `labels` is code i.  Terms are
    formed for squarefree n only: every other term is 0, and the sums are
    exact sums of the terms."""
    block = factor_block(primes, lo, hi + 1)
    mu = block["mu"]
    sf = np.flatnonzero(mu)
    mu = mu[sf]
    om = block["omega"][sf]
    n = sf + lo
    muom = mu * om
    # a squarefree n is composite with spf <= r, or a prime: an spf above
    # r is the prime n itself
    sp = block["spf"][sf]
    c = codes.take(sp, mode="clip")
    big = sp >= len(codes)
    c[big] = classify(sp[big])
    ids = _route(c, ram_primes, sp, len(labels))
    size = len(labels) + len(ram_primes)

    def kinds():
        """(cell prefix.kind, numerator, whether over n) of every kind,
        one x at a time; |floor_weighted| <= 9 x/n, x < 2^32: a segment's
        sum of it is at most 9 x (1/2 + ln 2^31) < 2^40, exact in _binned."""
        yield "acc.mu_omega_over_n", muom, True
        yield "acc.mu_over_n", mu, True
        yield "acc.mu_omega_minus1_over_n", mu * (om - 1), True
        yield "acc.mu_omega_raw", muom, False
        for x in xs:
            q, r = np.divmod(x, n)
            yield f"pending.{x}.floor_weighted", muom * q, False
            yield f"pending.{x}.frac_weighted", muom * r, True

    sums, exact = {}, {}
    for key, num, over_n in kinds():
        if not over_n:
            sums[key] = _binned(ids, num, size)
        elif mode == "exact":
            exact[key] = num  # summed below, over one common denominator
        else:
            sums[key] = _limb_sums(ids, size, num / n)
    if exact:
        sums.update(_exact_sums(ids, size, n, exact))
    names = _bucket_names(labels, ram_primes)
    delta = {}
    for key, vals in sums.items():
        prefix, kind = key.rsplit(".", 1)
        for name, v in zip(names, vals):
            delta[f"{prefix}.{name}.{kind}"] = v
    rep = block["rep"]
    # P2s(n)^2 < n, so codes covers it; an n with P2s = 1 or a repeated P1
    # reads codes[1] or codes[0], UNCLASSIFIED_CODE (-2), and the codes run
    # from there through RAMIFIED_CODE (-1) to len(labels) - 1
    by_code = np.bincount(
        codes.take(block["P2s"] * ~rep) - UNCLASSIFIED_CODE, minlength=len(labels) - UNCLASSIFIED_CODE
    ).tolist()
    for i, lab in enumerate(labels):
        delta[f"count.n2:{lab}"] = by_code[i - UNCLASSIFIED_CODE]
    delta["count.n2_ramified"] = by_code[RAMIFIED_CODE - UNCLASSIFIED_CODE]
    delta["count.repeat_count"] = int(np.count_nonzero(rep))
    return delta


def _route(c, ram_primes, sp, n_classes):
    """Bucket id of every term with smallest prime factor sp and class
    code c of sp: the code, n_classes + j for the ramified prime
    ram_primes[j], and a last bucket, thrown away, for UNCLASSIFIED_CODE
    (never a negative id, which would wrap around).  The ids are intp:
    each of the many bincounts of them would first convert narrower ids."""
    ids = np.where(c >= 0, c, np.intp(n_classes + len(ram_primes)))
    for j, p in enumerate(ram_primes):
        np.copyto(ids, n_classes + j, where=sp == p)
    return ids


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


def psi_smooth(x: int, y: int, sieve: FactorSieve) -> int:
    """#{n <= x : largest prime factor <= y}; n = 1 counts."""
    if not 1 <= y <= x:
        raise ValueError(f"need 1 <= y <= x, got y={y}, x={x}")
    if x > sieve.limit:
        raise ValueError(f"x = {x} exceeds sieve limit {sieve.limit}")
    return int(np.count_nonzero(sieve.P1_table()[1 : x + 1] <= y))


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


def _save_state(path, header, next_lo, state):
    """Write the state to a temporary file beside `path`, then rename it
    over `path`, so an interrupted write leaves the previous state whole."""
    import hashlib  # imported here: its OpenSSL costs every command 3.6 MB

    lines = [
        _STATE_HEADER,
        *(f"{k} = {v}" for k, v in header.items()),
        f"next_lo = {next_lo}",
        *(f"{k} = {_fmt_value(v)}" for k, v in state.items()),
    ]
    body = "\n".join(lines) + "\n"
    digest = hashlib.sha256(body.encode()).hexdigest()
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


def _load_state(path, header, is_start, layout):
    """(state, next segment start) from a state file.  The file must hold
    `header`, a next_lo for which `is_start` holds, then exactly the cells of
    layout(next_lo), in order, each a value of its zero's type; anything
    else raises IntegrityError."""
    import hashlib

    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError:
        raise IntegrityError(f"{path}: state file is not UTF-8 text") from None
    body, _, tail = text.rpartition("sha256 = ")
    digest = tail.strip()
    if hashlib.sha256(body.encode()).hexdigest() != digest:
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
