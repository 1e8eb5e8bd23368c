"""Single-pass, checkpointed accumulation of the class-restricted partial
sums: for each n <= x the term is routed to the bucket of the Frobenius
class of its smallest prime factor (or to the per-prime ramified bucket),
alongside an unconditional aggregate, so the decomposition

    sum over class buckets + sum over ramified slices = unconditional sum

can be audited at every checkpoint.

A scan makes one pass per segment, in one kernel (``_segment_partials``).
It gathers the squarefree n of the segment (every other term is 0), gives
each a bucket id once, and forms from them the per-n kinds and, for every
checkpoint x not yet reached, the checkpoint kinds (floor_weighted,
frac_weighted) at x, which wait in pending cells until the scan reaches x.
The same pass counts n by the class of their strict second-largest prime
factor, and the n whose largest prime factor repeats, so a snapshot only
assembles running sums.  Two reducers sum the buckets:

* ``exact``       -- big-rational accumulation; capped at x <= 10^4
                     because the running lcm denominator growth makes it
                     infeasible beyond desk scale.  Serves as an oracle.
* ``compensated`` -- the exact sum of the float terms via integer limbs,
                     rounded once per checkpoint: each term is rounded to
                     a float once, split exactly into three 30-bit limbs,
                     and each limb is summed per bucket by ``np.bincount``.
                     Segment sums are merged as Fractions, so the result
                     does not depend on the segment order, the thread
                     count or the resume point.
"""

from __future__ import annotations

import hashlib
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import fsum

import numpy as np

from .errors import IntegrityError
from .galois import RAMIFIED_CODE, UNCLASSIFIED_CODE, GaloisContext
from .sieve import FactorSieve

EXACT_X_CAP = 10_000
DEFAULT_SEGMENT = 65_536
# a bincount of at most 2^22 limbs below 2^30 stays below 2^52, so is exact
MAX_SEGMENT = 1 << 22

PER_N_KINDS = ("mu_omega_over_n", "mu_over_n", "mu_omega_minus1_over_n", "mu_omega_raw")
CHECKPOINT_KINDS = ("floor_weighted", "frac_weighted")
ALL_KINDS = PER_N_KINDS + CHECKPOINT_KINDS

_INT_KINDS = {"mu_omega_raw", "floor_weighted"}


def _pairwise_sum(vals: list[Fraction]) -> Fraction:
    """Tree-shaped Fraction sum; keeps the giant-denominator additions to
    O(log n) instead of O(n)."""
    if not vals:
        return Fraction(0)
    work = list(vals)
    while len(work) > 1:
        work = [
            work[i] + work[i + 1] if i + 1 < len(work) else work[i]
            for i in range(0, len(work), 2)
        ]
    return work[0]


# A compensated term is a float t = num/n, num = mu(n) w with |w| <= 9n, as
# omega(n) <= 9 for n <= limit < 2^32 (spf is uint32).  So t = 0 or 2^-32 <
# 1/n <= |t| < 16: t is an integer multiple of 2^-84, and t 2^86 splits
# exactly into three signed limbs below 2^30.
_LIMB_SHIFTS = (26, 30, 30)


def _binned(ids, w, size):
    """Integer sums of the integer weights w per bucket id below `size`,
    then over all of w (the discarded bucket `size` too); exact while the
    sum of |w| stays below 2^53."""
    bins = [int(v) for v in np.bincount(ids, weights=w, minlength=size + 1).tolist()]
    return [*bins[:size], sum(bins)]


def _bucket_sums(ids, size, num, den, mode):
    """Sums of num/den (of num, as ints, when den is None) per bucket id
    below `size`, then over all terms, those of the discarded bucket too:
    a term routed to no bucket breaks the audit.  Compensated sums are the
    exact sums of the float terms."""
    if den is None:
        # |num| <= 9 x/n for floor_weighted, x < 2^32: a segment's sum of
        # |num| is at most 9 x (1/2 + ln 2^31) < 2^40
        return _binned(ids, num, size)
    if mode == "exact":
        live = num != 0
        terms = [Fraction(a, d) for a, d in zip(num[live].tolist(), den[live].tolist())]
        groups = [[] for _ in range(size + 1)]
        for b, t in zip(ids[live].tolist(), terms):
            groups[b].append(t)
        return [_pairwise_sum(g) for g in groups[:size]] + [_pairwise_sum(terms)]
    r = num / den
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


# ---------------------------------------------------------------------------
# scan


@dataclass
class Snapshot:
    x: int
    classes: dict  # label -> {kind: value}
    ramified: dict  # prime -> {kind: value}
    total: dict  # kind -> value
    n2_classes: dict  # label -> int
    n2_ramified: int
    repeat_count: int


@dataclass
class SeriesScan:
    ctx: GaloisContext
    x_max: int
    mode: str
    checkpoints: tuple[int, ...]
    snapshots: dict[int, Snapshot] = field(default_factory=dict)


@dataclass
class _Acc:
    """Running sums of a scan over [2, next_lo): the per-n kinds per
    bucket; the checkpoint kinds per bucket at every checkpoint not yet
    reached; and the counts ("n2:<label>", "n2_ramified", "repeat_count")."""

    sums: dict
    pending: dict  # x -> bucket -> checkpoint kind -> value
    counts: dict

    def add(self, partial) -> None:
        sums, cells, counts = partial
        _merge(self.sums, sums)
        for x, cell in cells.items():
            _merge(self.pending[x], cell)
        for name, v in counts.items():
            self.counts[name] += v


def _count_names(labels) -> list[str]:
    return [*(f"n2:{lab}" for lab in labels), "n2_ramified", "repeat_count"]


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
    if sieve is None:
        raise ValueError("a FactorSieve is required")
    if x_max < 2 or x_max > sieve.limit:
        raise ValueError(f"x_max = {x_max} outside [2, {sieve.limit}]")
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
    ram_primes = sorted(p for p in ctx.ramified if p <= x_max)
    codes = ctx.class_code_array(sieve, x_max)
    buckets = [("class", lab) for lab in labels]
    buckets += [("ram", p) for p in ram_primes]
    buckets.append(("total", None))

    segments = _segments(2, x_max, segment_size, cps)
    if resume and state_path is not None and os.path.exists(state_path):
        acc, snapshots, start_lo = _load_state(
            state_path, ctx, mode, segment_size, x_max, cps, buckets
        )
    else:
        acc = _Acc(
            _zeros(buckets, PER_N_KINDS),
            {x: _zeros(buckets, CHECKPOINT_KINDS) for x in cps},
            dict.fromkeys(_count_names(labels), 0),
        )
        snapshots, start_lo = {}, 2

    result = SeriesScan(ctx, x_max, mode, cps, snapshots)
    todo = [(lo, hi) for lo, hi in segments if lo >= start_lo]

    def run(seg):
        lo, hi = seg
        xs = [x for x in cps if x >= hi]
        return _segment_partials(labels, sieve, codes, ram_primes, lo, hi, mode, xs)

    def consume(seg, partial):
        hi = seg[1]
        acc.add(partial)
        if hi in acc.pending:
            snapshots[hi] = _snapshot(hi, mode, labels, acc.sums, acc.pending.pop(hi), acc.counts)
        if state_path is not None:
            _save_state(state_path, ctx, mode, segment_size, x_max, cps, hi + 1, acc, snapshots)

    if threads == 1 or not todo:
        for seg in todo:
            consume(seg, run(seg))
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            for seg, partial in zip(todo, pool.map(run, todo)):
                consume(seg, partial)
    return result


def _segments(lo: int, hi: int, size: int, checkpoints) -> list[tuple[int, int]]:
    cuts = {k * size for k in range(1, hi // size + 1)}
    cuts.update(c for c in checkpoints if lo <= c <= hi)
    cuts.add(hi)
    out = []
    start = lo
    for c in sorted(cuts):
        if c < start:
            continue
        out.append((start, c))
        start = c + 1
    return out


def _zeros(buckets, kinds):
    return {b: {k: 0 if k in _INT_KINDS else Fraction(0) for k in kinds} for b in buckets}


def _segment_partials(labels, sieve, codes, ram_primes, lo, hi, mode, xs=()):
    """All that the block lo <= n <= hi adds to a scan, in one pass:
    per-bucket sums of the per-n kinds; per-bucket sums of the checkpoint
    kinds at each x of `xs` (every x >= hi); and, given `codes`, the
    block's counts by the class of the strict P2 and of repeated P1.

    The one place where terms are formed and routed to buckets; class i
    of `labels` is code i.  Terms are formed for squarefree n only: every
    other term is 0, and the sums are exact sums of the terms."""
    sl = slice(lo, hi + 1)
    mu = sieve.mu_table()[sl]
    sf = np.flatnonzero(mu)
    mu = mu[sf]
    om = sieve.omega_table()[sl][sf]
    n = sf + lo
    muom = mu * om
    ids = _route(codes, ram_primes, sieve.spf[sl][sf], len(labels))
    size = len(labels) + len(ram_primes)
    keys = [*(("class", lab) for lab in labels), *(("ram", p) for p in ram_primes), ("total", None)]

    def cells(terms):
        sums = {kind: _bucket_sums(ids, size, num, den, mode) for kind, (num, den) in terms.items()}
        return {key: {kind: s[i] for kind, s in sums.items()} for i, key in enumerate(keys)}

    per_n = cells({
        "mu_omega_over_n": (muom, n),
        "mu_over_n": (mu, n),
        "mu_omega_minus1_over_n": (mu * (om - 1), n),
        "mu_omega_raw": (muom, None),
    })
    at_x = {}
    for x in xs:
        q, r = np.divmod(x, n)
        at_x[x] = cells({"floor_weighted": (muom * q, None), "frac_weighted": (muom * r, n)})
    counts = {}
    if codes is not None:
        P2 = sieve.P2_strict_table()[sl]
        rep = sieve.repeated_P1_table()[sl]
        # codes run from UNCLASSIFIED_CODE (-2) through RAMIFIED_CODE (-1) to len(labels) - 1
        by_code = np.bincount(
            codes[P2[(P2 > 1) & ~rep]] - UNCLASSIFIED_CODE, minlength=len(labels) - UNCLASSIFIED_CODE
        ).tolist()
        counts = {f"n2:{lab}": by_code[i - UNCLASSIFIED_CODE] for i, lab in enumerate(labels)}
        counts["n2_ramified"] = by_code[RAMIFIED_CODE - UNCLASSIFIED_CODE]
        counts["repeat_count"] = int(np.count_nonzero(rep))
    return per_n, at_x, counts


def _route(codes, ram_primes, sp, n_classes):
    """Bucket id of every term with smallest prime factor sp: its class
    code, n_classes + j for the ramified prime ram_primes[j], and a last
    bucket, thrown away, for UNCLASSIFIED_CODE (never a negative id, which
    would wrap around)."""
    discard = n_classes + len(ram_primes)
    ids = np.full(len(sp), discard, dtype=np.intp)
    if codes is not None:
        c = codes[sp]
        np.copyto(ids, c, where=c >= 0)
    for j, p in enumerate(ram_primes):
        np.copyto(ids, n_classes + j, where=sp == p)
    return ids


def _merge(acc, partial):
    for key, cell in partial.items():
        for kind, val in cell.items():
            acc[key][kind] += val


def _snapshot(x, mode, labels, sums, cells, counts) -> Snapshot:
    """The snapshot at checkpoint x from the running per-n sums, the
    checkpoint cells at x and the running counts, all over [2, x]."""
    classes, ramified = {}, {}
    for key, cell in sums.items():
        cell = {**cell, **cells[key]}
        if mode == "compensated":
            cell = {k: v if k in _INT_KINDS else float(v) for k, v in cell.items()}
        if key[0] == "class":
            classes[key[1]] = cell
        elif key[0] == "ram":
            ramified[key[1]] = cell
        else:
            total = cell
    return Snapshot(
        x=x,
        classes=classes,
        ramified=ramified,
        total=total,
        n2_classes={lab: counts[f"n2:{lab}"] for lab in labels},
        n2_ramified=counts["n2_ramified"],
        repeat_count=counts["repeat_count"],
    )


# ---------------------------------------------------------------------------
# partition audit


def partition_audit(scan_result: SeriesScan, tol: float = 1e-12, raise_on_failure: bool = True):
    """Check, at every checkpoint and for every sum kind, that the class
    buckets plus the ramified slices reproduce the unconditional sum.
    Exact equality in exact mode (and for the integer-valued kinds in any
    mode); relative tolerance `tol` otherwise."""
    rows = []
    ok = True
    for x, snap in sorted(scan_result.snapshots.items()):
        for kind in ALL_KINDS:
            parts = [snap.classes[lab][kind] for lab in sorted(snap.classes)]
            parts += [snap.ramified[p][kind] for p in sorted(snap.ramified)]
            total = snap.total[kind]
            if scan_result.mode == "exact" or kind in _INT_KINDS:
                recombined = sum(parts)
                good = recombined == total
                diff = recombined - total
            else:
                recombined = fsum(parts)
                diff = recombined - float(total)
                good = abs(diff) <= tol * max(1.0, abs(float(total)))
            rows.append((x, kind, total, recombined, diff, good))
            ok = ok and good
    if not ok and raise_on_failure:
        bad = [r for r in rows if not r[5]]
        raise IntegrityError(f"partition audit failed: {bad[0]}", bad)
    return ok, rows


def splitting_check(scan_result: SeriesScan, tol: float = 1e-9, raise_on_failure: bool = False):
    """Check floor_weighted + frac_weighted = x * mu_omega_over_n for every
    bucket at every checkpoint.  Exact equality in exact mode."""
    rows = []
    ok = True
    for x, snap in sorted(scan_result.snapshots.items()):
        cells = [(lab, snap.classes[lab]) for lab in sorted(snap.classes)]
        cells += [(f"ramified:{p}", snap.ramified[p]) for p in sorted(snap.ramified)]
        cells.append(("total", snap.total))
        for name, vals in cells:
            lhs = vals["floor_weighted"] + vals["frac_weighted"]
            rhs = x * vals["mu_omega_over_n"]
            if scan_result.mode == "exact":
                good = lhs == rhs
            else:
                good = abs(lhs - rhs) <= tol * max(1.0, abs(rhs))
            rows.append((x, name, lhs, rhs, good))
            ok = ok and good
    if not ok and raise_on_failure:
        bad = [r for r in rows if not r[4]]
        raise IntegrityError(f"floor/frac splitting check failed: {bad[0]}", bad)
    return ok, rows


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
    codes = ctx.class_code_array(sieve, x)
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


def dickman_grid() -> tuple[np.ndarray, np.ndarray]:
    """(alphas, rho values) on the internal grid, for plotting and for
    monotonicity checks."""
    vals = np.array(_dickman_values())
    alphas = np.arange(len(vals)) / _RHO_STEPS_PER_UNIT
    return alphas, vals


# ---------------------------------------------------------------------------
# scan state persistence (resume support)

_STATE_HEADER = "artinsums-scan v3"


def _fmt_value(v) -> str:
    if isinstance(v, Fraction):
        return f"frac {v.numerator}/{v.denominator}"
    if isinstance(v, float):
        return f"float {v.hex()}"
    return f"int {v}"


def _bucket_key_str(key) -> str:
    if key[0] == "class":
        return f"class:{key[1]}"
    if key[0] == "ram":
        return f"ram:{key[1]}"
    return "total"


def _save_state(path, ctx, mode, segment_size, x_max, cps, next_lo, acc: _Acc, snapshots):
    """Write the state to a temporary file beside `path`, then rename it
    over `path`, so an interrupted write leaves the previous state whole."""
    lines = [
        _STATE_HEADER,
        f"context = {ctx.spec_string()}",
        f"mode = {mode}",
        f"segment_size = {segment_size}",
        f"x_max = {x_max}",
        "checkpoints = " + ",".join(str(c) for c in cps),
        f"next_lo = {next_lo}",
    ]
    for key in sorted(acc.sums, key=_bucket_key_str):
        for kind in PER_N_KINDS:
            lines.append(f"acc.{_bucket_key_str(key)}.{kind} = {_fmt_value(acc.sums[key][kind])}")
    for name in sorted(acc.counts):
        lines.append(f"count.{name} = int {acc.counts[name]}")
    for x in sorted(acc.pending):
        for key in sorted(acc.pending[x], key=_bucket_key_str):
            for kind in CHECKPOINT_KINDS:
                lines.append(f"pending.{x}.{_bucket_key_str(key)}.{kind} = {_fmt_value(acc.pending[x][key][kind])}")
    for x in sorted(snapshots):
        snap = snapshots[x]
        cells = {f"class:{lab}": v for lab, v in snap.classes.items()}
        cells.update({f"ram:{p}": v for p, v in snap.ramified.items()})
        cells["total"] = snap.total
        for name in sorted(cells):
            for kind, v in sorted(cells[name].items()):
                lines.append(f"snap.{x}.{name}.{kind} = {_fmt_value(v)}")
        for lab in sorted(snap.n2_classes):
            lines.append(f"snap.{x}.n2:{lab} = int {snap.n2_classes[lab]}")
        lines.append(f"snap.{x}.n2_ramified = int {snap.n2_ramified}")
        lines.append(f"snap.{x}.repeat_count = int {snap.repeat_count}")
    body = "\n".join(lines) + "\n"
    digest = hashlib.sha256(body.encode()).hexdigest()
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        fh.write(body)
        fh.write(f"sha256 = {digest}\n")
    os.replace(tmp, path)


def _load_state(path, ctx, mode, segment_size, x_max, cps, buckets):
    """(accumulator, snapshots, next segment start) from a state file.
    The file must hold exactly the entries this scan writes at that start:
    snapshots of the checkpoints below it, pending cells of the others;
    anything else raises IntegrityError."""
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
    kv = {}
    for line in lines[1:]:
        if not line.strip():
            continue
        key, _, val = line.partition(" = ")
        kv[key] = val
    expect = {
        "context": ctx.spec_string(),
        "mode": mode,
        "segment_size": str(segment_size),
        "x_max": str(x_max),
        "checkpoints": ",".join(str(c) for c in cps),
    }
    for k, want in expect.items():
        got = kv.pop(k, None)
        if got != want:
            raise IntegrityError(f"{path}: state {k} mismatch (file {got!r}, requested {want!r})")

    def take(key, tag):
        if key not in kv:
            raise IntegrityError(f"{path}: state lacks {key}")
        text = kv.pop(key)
        got, _, rest = text.partition(" ")
        try:
            if got == tag == "int":
                return int(rest)
            if got == tag == "float":
                return float.fromhex(rest)
            if got == tag == "frac":
                num, den = rest.split("/")
                return Fraction(int(num), int(den))
        except (ValueError, ZeroDivisionError, OverflowError):
            pass
        raise IntegrityError(f"{path}: bad state value {key} = {text!r}")

    try:
        next_lo = int(kv.pop("next_lo"))
    except (KeyError, ValueError):
        raise IntegrityError(f"{path}: state lacks a valid next_lo") from None
    starts = {lo for lo, _ in _segments(2, x_max, segment_size, cps)} | {x_max + 1}
    if next_lo not in starts:
        raise IntegrityError(f"{path}: next_lo = {next_lo} is not a segment start")

    def kind_tag(kind, frac_tag):
        return "int" if kind in _INT_KINDS else frac_tag

    def cells(prefix, kinds, frac_tag):
        return {
            b: {k: take(f"{prefix}.{_bucket_key_str(b)}.{k}", kind_tag(k, frac_tag)) for k in kinds}
            for b in buckets
        }

    labels = [b[1] for b in buckets if b[0] == "class"]
    acc = _Acc(
        cells("acc", PER_N_KINDS, "frac"),
        {x: cells(f"pending.{x}", CHECKPOINT_KINDS, "frac") for x in cps if x >= next_lo},
        {name: take(f"count.{name}", "int") for name in _count_names(labels)},
    )
    snap_tag = "frac" if mode == "exact" else "float"
    snapshots = {}
    for x in (c for c in cps if c < next_lo):
        snap = cells(f"snap.{x}", ALL_KINDS, snap_tag)
        snapshots[x] = Snapshot(
            x=x,
            classes={b[1]: v for b, v in snap.items() if b[0] == "class"},
            ramified={b[1]: v for b, v in snap.items() if b[0] == "ram"},
            total=snap["total", None],
            n2_classes={lab: take(f"snap.{x}.n2:{lab}", "int") for lab in labels},
            n2_ramified=take(f"snap.{x}.n2_ramified", "int"),
            repeat_count=take(f"snap.{x}.repeat_count", "int"),
        )
    if kv:
        raise IntegrityError(f"{path}: unexpected state entry {next(iter(kv))!r}")
    return acc, snapshots, next_lo
