"""Series engine: exact-scan oracles, partition/splitting audits,
determinism, resume, counting operations against enumeration, Dickman rho
against quadrature."""

import functools
import hashlib
import math
import re
import shutil
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st

from artinsums import galois, series
from artinsums.errors import IntegrityError
from artinsums.galois import (
    RAMIFIED_CODE,
    UNCLASSIFIED_CODE,
    GaloisContext,
    new_cyclotomic,
    new_splitting_field,
)
from artinsums.sieve import FactorSieve
from oracles import binned, factored, fraction_bucket_sums, limb_sums, route, segment_list


# -- enumeration oracles ----------------------------------------------------


@functools.lru_cache(maxsize=None)
def classify(ctx, p):
    """ctx.classify(p), memoized: the oracles below ask once per n."""
    return ctx.classify(p)


def enum_bucket_sum(sieve, ctx, x, label=None, ramified_p=None):
    """Sum mu(n)*omega(n)/n over n <= x routed by the class of the
    smallest prime factor, by direct per-n evaluation."""
    total = Fraction(0)
    for n in range(2, x + 1):
        mu, om, _, p1, *_ = factored(sieve, n)
        if mu == 0:
            continue
        out = classify(ctx, p1)
        if ramified_p is not None:
            if out.is_ramified and p1 == ramified_p:
                total += Fraction(mu * om, n)
        elif label is None:
            total += Fraction(mu * om, n)
        elif not out.is_ramified and out.label == label:
            total += Fraction(mu * om, n)
    return total


def enum_n2(sieve, ctx, x, label):
    count = 0
    for n in range(2, x + 1):
        f = factored(sieve, n)
        if f.P2s == 1 or f.repeats:
            continue
        out = classify(ctx, f.P2s)
        if not out.is_ramified and out.label == label:
            count += 1
    return count


def sum_mu_in_class(ctx, label, x, sieve):
    """Integer sum of mu(n) over n <= x whose smallest prime factor lies
    in the given class."""
    codes = ctx.class_code_array(sieve, x)
    sl = slice(2, x + 1)
    mask = codes[sieve.spf[sl]] == ctx.code_of(label)
    return int(np.sum(sieve.mu_table()[sl][mask], dtype=np.int64))


def count_P2_small_or_repeated(x, sieve):
    """#{2 <= n <= x : omega(n) <= 1 or the largest prime factor repeats};
    the complement of the class-countable set."""
    sl = slice(2, x + 1)
    return int(np.count_nonzero((sieve.P2_strict_table()[sl] == 1) | sieve.repeated_P1_table()[sl]))


def count_P2_below(x, y, sieve):
    """#{n <= x : second-largest prime factor (strict) <= y}."""
    return int(np.count_nonzero(sieve.P2_strict_table()[1 : x + 1] <= y))


def direct_float_terms(sieve, ctx, x):
    """Bucket name -> kind -> the float terms of that bucket, from per-n
    factorizations: each term rounded once, as the compensated scan does."""
    out = {}
    for n in range(2, x + 1):
        mu, om, _, p1, *_ = factored(sieve, n)
        if mu == 0:
            continue
        out_p = classify(ctx, p1)
        bucket = f"ramified:{p1}" if out_p.is_ramified else out_p.label
        terms = {
            "mu_omega_over_n": mu * om / n,
            "mu_over_n": mu / n,
            "mu_omega_minus1_over_n": mu * (om - 1) / n,
            "frac_weighted": mu * om * (x % n) / n,
        }
        for name in (bucket, "total"):
            for kind, v in terms.items():
                out.setdefault(name, {}).setdefault(kind, []).append(v)
    return out


# -- exact scans ------------------------------------------------------------


def test_exact_scan_x10_cyclotomic4(sieve_small, ctx_c4):
    r = series.scan(ctx_c4, 10, mode="exact", sieve=sieve_small)
    snap = r.snapshots[10]
    # terms: n=3 gives -1/3, n=7 gives -1/7 (n=9 has mu=0)
    assert snap.classes["3 mod 4"]["mu_omega_over_n"] == Fraction(-10, 21)
    assert snap.classes["1 mod 4"]["mu_omega_over_n"] == Fraction(-1, 5)
    # even squarefree n <= 10: -1/2 + 1/3 + 1/5 = 1/30
    assert snap.ramified[2]["mu_omega_over_n"] == Fraction(1, 30)
    assert snap.total["mu_omega_over_n"] == Fraction(-9, 14)


def test_exact_scan_x2_single_bucket(sieve_small, ctx_c4, ctx_cubic):
    for ctx in (ctx_c4, ctx_cubic):
        snap = series.scan(ctx, 2, mode="exact", sieve=sieve_small).snapshots[2]
        out = ctx.classify(2)
        if out.is_ramified:
            assert snap.ramified[2]["mu_omega_over_n"] == Fraction(-1, 2)
        else:
            assert snap.classes[out.label]["mu_omega_over_n"] == Fraction(-1, 2)
        assert snap.total["mu_omega_over_n"] == Fraction(-1, 2)


def test_exact_scan_matches_enumeration(sieve_small, ctx_cubic):
    x = 300
    r = series.scan(ctx_cubic, x, mode="exact", sieve=sieve_small)
    snap = r.snapshots[x]
    for lab in ctx_cubic.labels():
        assert snap.classes[lab]["mu_omega_over_n"] == enum_bucket_sum(
            sieve_small, ctx_cubic, x, label=lab
        )
    assert snap.ramified[31]["mu_omega_over_n"] == enum_bucket_sum(
        sieve_small, ctx_cubic, x, ramified_p=31
    )
    assert snap.total["mu_omega_over_n"] == enum_bucket_sum(sieve_small, ctx_cubic, x)


def test_kind_identity_mu_omega_minus1(sieve_small, ctx_c4):
    # MuOmegaMinus1OverN = MuOmegaOverN - MuOverN, bucket by bucket
    r = series.scan(ctx_c4, 500, mode="exact", sieve=sieve_small)
    snap = r.snapshots[500]
    cells = list(snap.classes.values()) + list(snap.ramified.values()) + [snap.total]
    for vals in cells:
        assert (
            vals["mu_omega_minus1_over_n"]
            == vals["mu_omega_over_n"] - vals["mu_over_n"]
        )


def test_checkpoints_are_prefixes(sieve_small, ctx_cubic):
    # a checkpoint snapshot equals a fresh scan stopped at that x
    r = series.scan(ctx_cubic, 400, checkpoints=(100, 250), mode="exact", sieve=sieve_small)
    for x in (100, 250):
        fresh = series.scan(ctx_cubic, x, mode="exact", sieve=sieve_small)
        for lab in ctx_cubic.labels():
            assert (
                r.snapshots[x].classes[lab]["mu_omega_over_n"]
                == fresh.snapshots[x].classes[lab]["mu_omega_over_n"]
            )


def test_scan_validation(sieve_small, ctx_c4):
    with pytest.raises(ValueError):
        series.scan(ctx_c4, 10, mode="exact", sieve=None)
    with pytest.raises(ValueError):
        series.scan(ctx_c4, 1, sieve=sieve_small)
    with pytest.raises(ValueError):
        series.scan(ctx_c4, 200, sieve=FactorSieve(13))  # sieve below isqrt(x_max) = 14
    with pytest.raises(ValueError):
        series.scan(ctx_c4, 2**32, sieve=FactorSieve(1 << 16))  # beyond the limb bound
    with pytest.raises(ValueError):
        series.scan(ctx_c4, 10, mode="nearest", sieve=sieve_small)
    with pytest.raises(ValueError):
        series.scan(ctx_c4, 20_000, mode="exact", sieve=sieve_small)  # exact cap
    with pytest.raises(ValueError):
        series.scan(ctx_c4, 100, checkpoints=(150,), sieve=sieve_small)
    for size in (0, series.MAX_SEGMENT + 1):  # beyond it a limb sum may round
        with pytest.raises(ValueError):
            series.scan(ctx_c4, 100, sieve=sieve_small, segment_size=size)


@pytest.mark.parametrize("mode, x", [("exact", 10_000), ("compensated", 99_999)])
@pytest.mark.parametrize("poly", [None, [1, 1, 0, 1], [-1, -1, 0, 0, 0, 1]], ids=["c4", "cubic", "quintic"])
def test_scan_reads_only_the_sieving_primes(sieve_small, ctx_c4, mode, x, poly):
    # a sieve up to isqrt(x) holds no table of length x: the snapshots must
    # equal those of a scan given the 10^5 sieve
    ctx = ctx_c4 if poly is None else new_splitting_field(poly)
    kwargs = dict(checkpoints=(2, 3, 1000, 4096, 4097), mode=mode, segment_size=4096)
    small = FactorSieve(math.isqrt(x))
    got = series.scan(ctx, x, sieve=small, **kwargs).snapshots
    assert small._tables is None
    fresh = ctx_c4 if poly is None else new_splitting_field(poly)
    assert got == series.scan(fresh, x, sieve=sieve_small, **kwargs).snapshots


def trial_prime_divisors(n, x):
    """The primes <= x dividing n != 0, by trial division."""
    n, out, d = abs(n), [], 2
    while d <= x and n > 1:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return out


@pytest.mark.parametrize(
    "c, ramified",
    [
        (757, [3, 1009]),  # disc -3 * 1009: a cofactor 1009 <= x
        (2_524_266, [1009]),  # disc -1009 * 10007: composite cofactor > x
        (2502, []),  # disc -10007: prime cofactor > x
        (1, [3]),  # disc -3
        # disc -103 * 9973: 103 <= sqrt(cofactor) is found in a block and
        # divided out, and 9973 <= x is what is left
        (256_805, [103, 9973]),
    ],
)
def test_ramified_primes_above_isqrt_x(c, ramified):
    # x^2 + x + c, disc 1 - 4c; x = 10^4, so isqrt(x) = 100
    x = 10_000
    ctx = new_splitting_field([c, 1, 1])
    assert trial_prime_divisors(ctx.disc, x) == ramified
    r = series.scan(ctx, x, checkpoints=(1008, 1009), sieve=FactorSieve(100))
    # every checkpoint has a bucket for each ramified prime <= x_max
    assert all(sorted(snap.ramified) == ramified for snap in r.snapshots.values())
    assert series.partition_audit(r)[0]
    if 1009 in ramified:
        # the prime itself is the only squarefree n <= x with spf 1009
        assert r.snapshots[1008].ramified[1009]["mu_omega_raw"] == 0
        assert r.snapshots[1009].ramified[1009]["mu_omega_raw"] == -1
        assert r.snapshots[x].ramified[1009]["mu_omega_raw"] == -1


def test_ramified_search_stops_at_isqrt_of_cofactor(monkeypatch):
    # x^2 + x + c, disc -1000003 * 1000033: the blocks above isqrt(x) are
    # sieved only up to isqrt(cofactor), and 1000033 is what is left
    x = 10**8
    cof = 1_000_003 * 1_000_033
    ctx = new_splitting_field([(1 + cof) // 4, 1, 1])
    codes = ctx.class_code_array(FactorSieve(10**4), 10**4)
    starts = []
    real = galois.block_spf

    def recording(primes, lo, hi):
        starts.append(lo)
        return real(primes, lo, hi)

    monkeypatch.setattr(galois, "block_spf", recording)
    assert ctx.ramified_primes(codes, x) == [1_000_003, 1_000_033]
    assert starts and max(starts) <= math.isqrt(cof)


# -- audits -----------------------------------------------------------------


def test_partition_audit_exact(sieve_small, ctx_c4, ctx_cubic):
    for ctx in (ctx_c4, ctx_cubic):
        r = series.scan(ctx, 2000, checkpoints=(500,), mode="exact", sieve=sieve_small)
        ok, rows = series.partition_audit(r)
        assert ok
        assert all(row[5] for row in rows)


def test_partition_audit_compensated(sieve_small, ctx_cubic):
    r = series.scan(ctx_cubic, 50_000, mode="compensated", sieve=sieve_small)
    ok, _ = series.partition_audit(r)
    assert ok


def test_partition_audit_detects_corruption(sieve_small, ctx_c4):
    r = series.scan(ctx_c4, 100, mode="exact", sieve=sieve_small)
    r.snapshots[100].classes["1 mod 4"]["mu_omega_over_n"] += Fraction(1, 7)
    ok, rows = series.partition_audit(r)
    assert not ok
    assert [row[:2] for row in rows if not row[5]] == [(100, "mu_omega_over_n")]


def test_partition_audit_detects_unrouted_terms(sieve_small, monkeypatch):
    # a prime whose code is lost routes its terms to no bucket; the total
    # is summed on its own, so the audit must see the gap in both modes
    real = GaloisContext.class_code_array

    def lose_7(self, sieve, limit):
        codes = real(self, sieve, limit)
        codes[7] = UNCLASSIFIED_CODE
        return codes

    monkeypatch.setattr(GaloisContext, "class_code_array", lose_7)
    ctx = new_cyclotomic(4)
    for mode in ("exact", "compensated"):
        r = series.scan(ctx, 2000, mode=mode, sieve=sieve_small)
        ok, rows = series.partition_audit(r)
        assert not ok
        # the terms of spf 7 are in every kind
        assert [row[1] for row in rows if not row[5]] == list(series.ALL_KINDS)


def test_splitting_check_exact(sieve_small, ctx_c4, ctx_cubic):
    for ctx in (ctx_c4, ctx_cubic):
        for x in (100, 1000):
            r = series.scan(ctx, x, mode="exact", sieve=sieve_small)
            ok, rows = series.splitting_check(r)
            assert ok
            for row_x, name, lhs, rhs, good in rows:
                assert lhs == rhs


def duality_floor_weighted(ctx, sieve, codes, x) -> dict:
    """floor_weighted of every bucket at x from Alladi duality alone:
    identities 2 (k = 1) and 4 (k = 2) with f = [p in C], added and summed
    over N <= x, give sum_{n <= x} mu(n) omega(n) [p1(n) in C] floor(x/n)
    = #{2 <= N <= x : P2s(N) in C} - #{2 <= N <= x : P1(N) in C}, for a
    class C or one ramified prime; over all primes, the total is minus the
    number of prime powers (P2s = 1).  `codes` are class codes over
    [0, x]; only sieve tables are read."""
    P1 = sieve.P1_table()[2 : x + 1]
    P2 = sieve.P2_strict_table()[2 : x + 1]
    c1, c2 = codes[P1], codes[P2]
    out = {
        lab: int(np.count_nonzero(c2 == k)) - int(np.count_nonzero(c1 == k))
        for k, lab in enumerate(ctx.labels())
    }
    for p in np.flatnonzero(codes == RAMIFIED_CODE).tolist():
        out[f"ramified:{p}"] = int(np.count_nonzero(P2 == p)) - int(np.count_nonzero(P1 == p))
    out["total"] = -int(np.count_nonzero(P2 == 1))
    return out


@pytest.mark.parametrize(
    "spec, checkpoints",
    [
        ("c4", (10_000, 300_000, 1_000_000)),
        ("c12", (30_000, 100_000, 300_000)),
        ("1,1,0,1", (10_000, 300_000, 1_000_000)),
        ("-1,-1,0,0,0,1", (10_000, 70_000, 200_000)),
    ],
    ids=["Q(i)", "Q(zeta_12)", "x^3+x+1", "x^5-x-1"],
)
def test_floor_weighted_matches_duality_counts(sieve_big, spec, checkpoints):
    # every bucket of floor_weighted, at 1 and 2 threads, against counts of
    # the largest and second-largest prime factors; in exact mode at 10^4,
    # where floor + frac = x mu_omega_over_n then pins frac_weighted too
    if spec.startswith("c"):
        ctx = new_cyclotomic(int(spec[1:]))
    else:
        ctx = new_splitting_field([int(c) for c in spec.split(",")])
    codes = ctx.class_code_array(sieve_big, checkpoints[-1])
    runs = [(checkpoints, "compensated", threads) for threads in (1, 2)]
    runs.append(((2_000, 5_000, 10_000), "exact", 1))
    for cps, mode, threads in runs:
        r = series.scan(ctx, cps[-1], checkpoints=cps, mode=mode, sieve=sieve_big, threads=threads)
        for x in cps:
            got = {name: vals["floor_weighted"] for name, vals in r.snapshots[x].buckets()}
            assert got == duality_floor_weighted(ctx, sieve_big, codes[: x + 1], x), (mode, threads, x)
        if mode == "exact":
            assert series.splitting_check(r)[0]


def test_compensated_matches_exact(sieve_small, ctx_cubic):
    for x in (1000, 10_000):
        ex = series.scan(ctx_cubic, x, mode="exact", sieve=sieve_small).snapshots[x]
        co = series.scan(ctx_cubic, x, mode="compensated", sieve=sieve_small).snapshots[x]
        for lab in ctx_cubic.labels():
            for kind in series.PER_N_KINDS:
                e = ex.classes[lab][kind]
                c = co.classes[lab][kind]
                if kind in series._INT_KINDS:
                    assert e == c
                else:
                    assert abs(float(e) - c) <= 1e-12 * max(1.0, abs(float(e)))


def test_compensated_is_fsum_of_float_terms(sieve_small, ctx_cubic, ctx_c4):
    # every compensated value is the correctly rounded sum of the bucket's
    # float terms, whatever the segment size
    x = 30_000
    for ctx in (ctx_cubic, ctx_c4):
        snap = series.scan(ctx, x, sieve=sieve_small, segment_size=1024).snapshots[x]
        cells = {lab: snap.classes[lab] for lab in snap.classes}
        cells.update({f"ramified:{p}": snap.ramified[p] for p in snap.ramified})
        cells["total"] = snap.total
        direct = direct_float_terms(sieve_small, ctx, x)
        for name, vals in cells.items():
            for kind in ("mu_omega_over_n", "mu_over_n", "mu_omega_minus1_over_n", "frac_weighted"):
                assert vals[kind] == math.fsum(direct.get(name, {}).get(kind, [])), (name, kind)


def bucket_order(ids, size):
    """The stable order that sorts terms by bucket id, and the number of
    terms in each bucket: what the kernel forms from its bucket keys."""
    ids = np.asarray(ids)
    return np.argsort(ids, kind="stable"), np.bincount(ids, minlength=size + 1)


def limb_reducer_sums(ids, terms, size):
    """The sums of the bucket-ordered limb reducer over terms by bucket id,
    each id <= size; the ids-based reducer gives the same."""
    r = np.array(terms, dtype=float)
    order, counts = bucket_order(ids, size)
    got = series._limb_sums(r[order], series._bounds(counts))
    assert got == limb_sums(np.asarray(ids, dtype=np.intp), size, r)
    return got


def term_strategy():
    """A float num/den as the kernel forms it: den < 2^32, |num/den| <= 9."""
    return st.integers(1, 2**32 - 1).flatmap(
        lambda d: st.integers(-9 * d, 9 * d).map(lambda a: float(np.float64(a) / np.float64(d)))
    )


@given(
    st.lists(
        st.tuples(
            term_strategy(),
            st.sampled_from([-1, 0, 1]),  # mu: 0 sends the term nowhere
            st.sampled_from([UNCLASSIFIED_CODE, RAMIFIED_CODE, 0, 1, 2]),
            st.sampled_from([None, -1, 1]),  # a partner -t(1 -+ ulp)
        ),
        min_size=1,
        max_size=200,
    )
)
@settings(max_examples=300, deadline=None)
def test_limb_reducer_matches_fraction_oracle(rows):
    # every term n gets its own smallest prime factor n + 2, so codes and
    # ramified primes can be set per term; a partner term shares it
    terms, sp, mu = [], [], []
    for i, (t, m, _, partner) in enumerate(rows):
        t = m * t
        terms.append(t)
        if partner is not None:
            terms.append(-float(np.nextafter(t, partner * math.inf)) if t else 0.0)
        sp += [i + 2] * (1 + (partner is not None))
        mu += [m] * (1 + (partner is not None))
    codes = np.full(len(rows) + 2, UNCLASSIFIED_CODE, dtype=np.int16)
    codes[2:] = [code for _, _, code, _ in rows]
    ram = [p for p in range(2, len(rows) + 2) if codes[p] == RAMIFIED_CODE]
    sp, mu = np.array(sp, dtype=np.uint32), np.array(mu, dtype=np.int8)
    ids = route(codes[sp], ram, sp, 3)
    size = 3 + len(ram)
    want = [Fraction(0)] * (size + 1)
    for t, p, m in zip(terms, sp.tolist(), mu.tolist()):
        want[size] += Fraction(t)
        if m and p in ram:
            want[3 + ram.index(p)] += Fraction(t)
        elif m and codes[p] >= 0:
            want[codes[p]] += Fraction(t)
    assert limb_reducer_sums(ids, terms, size) == want


def test_limb_reducer_full_segment():
    # a segment of 2^16 large same-sign terms: every limb sum is near the
    # 2^46 bound, and the sum must still be exact
    rng = np.random.default_rng(5)
    den = rng.integers(2**31, 2**32 - 1, size=2**16)
    terms = (9 * den - rng.integers(1, 2**20, size=2**16)) / den
    ids = rng.integers(0, 3, size=2**16)
    got = limb_reducer_sums(ids, terms, 2)
    want = [sum((Fraction(t) for t, b in zip(terms.tolist(), ids.tolist()) if b == k), Fraction(0)) for k in (0, 1)]
    assert got == [*want, sum(map(Fraction, terms.tolist()), Fraction(0))]


def test_limb_reducer_rejects_term_off_the_grid():
    # 1/n < 2^-32 would need a limb below 2^-84; the reducer must not drop it
    ids = np.zeros(2, dtype=np.intp)
    with pytest.raises(IntegrityError):
        limb_reducer_sums(ids, [1.0, 2.0**-90], 1)


@given(
    st.integers(1, 5).flatmap(
        lambda size: st.tuples(
            st.just(size),
            st.lists(
                st.tuples(
                    st.integers(0, size),  # size: the discarded bucket
                    st.one_of(st.just(1), st.integers(1, 12), st.integers(1, 2**32 - 1)),
                    st.one_of(st.just(0), st.integers(-9, 9), st.integers(-(2**40), 2**40)),
                    st.one_of(st.just(0), st.integers(-9, 9)),
                ),
                max_size=80,
            ),
        )
    )
)
@settings(max_examples=300, deadline=None)
def test_exact_reducer_matches_fraction_oracle(case):
    # denominators 1 and repeats, zero numerators, empty buckets; two keys
    # share the common denominator
    size, rows = case
    ids = np.array([b for b, _, _, _ in rows], dtype=np.intp)
    n = np.array([d for _, d, _, _ in rows], dtype=np.int64)
    nums = {
        "a": np.array([a for _, _, a, _ in rows], dtype=np.int64),
        "b": np.array([b for _, _, _, b in rows], dtype=np.int64),
    }
    order, counts = bucket_order(ids, size)
    got = series._exact_sums(counts, n[order], {key: num[order] for key, num in nums.items()})
    assert list(got) == ["a", "b"]
    for key, num in nums.items():
        assert got[key] == fraction_bucket_sums(ids, size, num, n)
        assert all(type(v) is Fraction for v in got[key])


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_bucket_ordered_reducers_match_ids_oracles(data):
    # the kernel's bucket keys are the intp ids of `route`, and its sums in
    # bucket order those of the ids-based reducers: up to 300 classes (the
    # uint16 keys past 255 buckets), empty buckets, the discarded bucket,
    # no terms and one term.  A term whose spf is ramified has a negative
    # code, as in a scan
    n_classes = data.draw(st.integers(0, 300))
    ram = sorted(data.draw(st.sets(st.integers(2, 2**32 - 1), max_size=4)))
    size = n_classes + len(ram)
    rows = data.draw(
        st.lists(
            st.tuples(
                st.integers(-1, len(ram) - 1),  # spf ram[j], or 1 for -1
                st.integers(UNCLASSIFIED_CODE, n_classes - 1),
                term_strategy(),
                st.integers(-(2**40), 2**40),
            ),
            max_size=60,
        )
    )
    sp = np.array([ram[j] if j >= 0 else 1 for j, *_ in rows], dtype=np.uint32)
    c = np.array([min(code, RAMIFIED_CODE) if j >= 0 else code for j, code, *_ in rows], dtype=np.int16)
    terms = np.array([t for *_, t, _ in rows], dtype=float)
    w = np.array([v for *_, v in rows], dtype=np.int64)
    key = series._bucket_key(c, sp, ram, n_classes)
    ids = route(c, ram, sp, n_classes)
    assert key.dtype == (np.uint8 if size <= 255 else np.uint16)
    assert key.tolist() == ids.tolist()
    order = np.argsort(key, kind="stable")
    bounds = series._bounds(np.bincount(key, minlength=size + 1))
    assert series._reduced(w[order], bounds, np.int64) == binned(ids, w, size)
    assert series._limb_sums(terms[order], bounds) == limb_sums(ids, size, terms)


# -- determinism and resume -------------------------------------------------


def test_thread_determinism(sieve_small, ctx_cubic):
    runs = [
        series.scan(ctx_cubic, 30_000, checkpoints=(10_000,), sieve=sieve_small, threads=t)
        for t in (1, 2, 8)
    ]
    base = runs[0]
    for other in runs[1:]:
        for x in base.snapshots:
            for lab in ctx_cubic.labels():
                for kind in series.ALL_KINDS:
                    assert (
                        base.snapshots[x].classes[lab][kind]
                        == other.snapshots[x].classes[lab][kind]
                    )
            for kind in series.ALL_KINDS:
                assert base.snapshots[x].total[kind] == other.snapshots[x].total[kind]


@pytest.mark.parametrize("mode", ["compensated", "exact"])
def test_threads_give_equal_snapshots(sieve_small, ctx_c4, mode):
    kwargs = dict(checkpoints=(100, 2048, 5000), sieve=sieve_small, segment_size=512, mode=mode)
    one = series.scan(ctx_c4, 9000, threads=1, **kwargs)
    two = series.scan(ctx_c4, 9000, threads=2, **kwargs)
    assert one.snapshots == two.snapshots


def test_scan_counts_match_oracles(sieve_small, ctx_c4, ctx_cubic):
    # the counts the segment pass forms, against full passes over [2, x]
    for ctx in (ctx_c4, ctx_cubic):
        cps = (2, 3, 35, 1000, 4096, 12_345)
        r = series.scan(ctx, 20_000, checkpoints=cps, sieve=sieve_small, segment_size=4096)
        assert sorted(r.snapshots) == [*cps, 20_000]
        for x, snap in r.snapshots.items():
            assert snap.n2_classes == {
                lab: series.count_P2_in_class(ctx, lab, x, sieve_small) for lab in ctx.labels()
            }
            assert snap.n2_ramified == series.count_P2_ramified(ctx, x, sieve_small)
            assert snap.repeat_count == series.count_repeated_P1(x, sieve_small)
            counted = sum(snap.n2_classes.values()) + snap.n2_ramified
            assert counted + count_P2_small_or_repeated(x, sieve_small) == x - 1


def test_segments_partition_range():
    segs = list(series._segments(2, 1000, 256, (300, 700)))
    assert segs[0][0] == 2
    assert segs[-1][1] == 1000
    for (lo1, hi1), (lo2, hi2) in zip(segs, segs[1:]):
        assert lo2 == hi1 + 1
    assert {300, 700} <= {hi for _, hi in segs}


@given(
    lo=st.integers(2, 300),
    span=st.integers(0, 700),
    size=st.integers(1, 300),
    checkpoints=st.lists(st.integers(0, 1100), max_size=6),
)
@settings(max_examples=200, deadline=None)
def test_segments_match_the_cut_set(lo, span, size, checkpoints):
    # segments are yielded one at a time, without the set of every cut;
    # a resume accepts exactly their starts and the end of the last
    hi = lo + span
    want = segment_list(lo, hi, size, checkpoints)
    assert list(series._segments(lo, hi, size, checkpoints)) == want
    starts = {s for s, _ in want} | {hi + 1}
    for n in range(hi + 3):
        assert series._is_segment_start(n, lo, hi, size, checkpoints) == (n in starts), n


def test_state_roundtrip(tmp_path, sieve_small, ctx_cubic):
    state = tmp_path / "scan.state"
    r1 = series.scan(
        ctx_cubic, 5000, checkpoints=(2000,), sieve=sieve_small, state_path=state
    )
    assert state.exists()
    r2 = series.scan(
        ctx_cubic,
        5000,
        checkpoints=(2000,),
        sieve=sieve_small,
        state_path=state,
        resume=True,
    )
    for x in (2000, 5000):
        for lab in ctx_cubic.labels():
            for kind in series.ALL_KINDS:
                assert (
                    r1.snapshots[x].classes[lab][kind]
                    == r2.snapshots[x].classes[lab][kind]
                )


def test_state_written_once_per_checkpoint(tmp_path, sieve_small, ctx_cubic, monkeypatch):
    # between checkpoints the state is written at most once per interval
    monkeypatch.setattr(series, "_STATE_INTERVAL_S", 1e9)
    writes = []
    real = series._save_state

    def counted(path, header, next_lo, state):
        writes.append(next_lo)
        return real(path, header, next_lo, state)

    monkeypatch.setattr(series, "_save_state", counted)
    state = tmp_path / "scan.state"
    kwargs = dict(checkpoints=(100, 700, 1024, 2000), sieve=sieve_small, segment_size=256)
    r = series.scan(ctx_cubic, 3000, state_path=state, **kwargs)
    assert writes == [101, 701, 1025, 2001, 3001]
    resumed = series.scan(ctx_cubic, 3000, state_path=state, resume=True, **kwargs)
    assert resumed.snapshots == r.snapshots
    assert len(writes) == 5


def test_resume_after_interruption(tmp_path, sieve_small, ctx_cubic, monkeypatch):
    monkeypatch.setattr(series, "_STATE_INTERVAL_S", 0)  # a state write after every segment
    state = tmp_path / "scan.state"
    reference = series.scan(
        ctx_cubic, 9000, checkpoints=(3000,), sieve=sieve_small, segment_size=1024
    )

    real = series._segment_partials
    calls = {"n": 0}

    def flaky(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] > 3:
            raise KeyboardInterrupt
        return real(*args, **kwargs)

    monkeypatch.setattr(series, "_segment_partials", flaky)
    with pytest.raises(KeyboardInterrupt):
        series.scan(
            ctx_cubic,
            9000,
            checkpoints=(3000,),
            sieve=sieve_small,
            segment_size=1024,
            state_path=state,
        )
    monkeypatch.setattr(series, "_segment_partials", real)
    resumed = series.scan(
        ctx_cubic,
        9000,
        checkpoints=(3000,),
        sieve=sieve_small,
        segment_size=1024,
        state_path=state,
        resume=True,
    )
    for x in (3000, 9000):
        for lab in ctx_cubic.labels():
            for kind in series.ALL_KINDS:
                assert (
                    reference.snapshots[x].classes[lab][kind]
                    == resumed.snapshots[x].classes[lab][kind]
                ), (x, lab, kind)


def interrupted_scan(monkeypatch, segments, *args, **kwargs):
    """Run series.scan, stopped by a KeyboardInterrupt in the segment
    after the first `segments`."""
    real = series._segment_partials
    calls = []

    def stop(*a, **kw):
        calls.append(1)
        if len(calls) > segments:
            raise KeyboardInterrupt
        return real(*a, **kw)

    with monkeypatch.context() as m:
        m.setattr(series, "_segment_partials", stop)
        with pytest.raises(KeyboardInterrupt):
            series.scan(*args, **kwargs)


@pytest.mark.parametrize("mode", ["compensated", "exact"])
def test_resume_after_every_segment(tmp_path, sieve_small, ctx_cubic, monkeypatch, mode):
    # checkpoints inside the first segment, on segment edges and in between
    monkeypatch.setattr(series, "_STATE_INTERVAL_S", 0)  # a state write after every segment
    kwargs = dict(checkpoints=(100, 256, 700, 1024, 2000), sieve=sieve_small, segment_size=256, mode=mode)
    whole = tmp_path / "whole.state"
    reference = series.scan(ctx_cubic, 3000, state_path=whole, **kwargs)
    segments = list(series._segments(2, 3000, 256, tuple(reference.snapshots)))
    assert len(segments) == 15
    for k in range(1, len(segments)):
        state = tmp_path / f"stopped-{k}.state"
        interrupted_scan(monkeypatch, k, ctx_cubic, 3000, state_path=state, **kwargs)
        assert f"next_lo = {segments[k][0]}\n" in state.read_text()
        resumed = series.scan(ctx_cubic, 3000, state_path=state, resume=True, **kwargs)
        assert resumed.snapshots == reference.snapshots, k
        assert state.read_bytes() == whole.read_bytes(), k


@pytest.mark.parametrize(
    "mode, final",
    [("compensated", "cubic-3000-compensated-final.state"), ("exact", "cubic-3000-exact-final.state")],
)
def test_resume_from_pinned_v3_state(tmp_path, sieve_small, ctx_cubic, mode, final):
    # tests/data holds v3 state files written by the scan as it was before
    # its state became one keyed dict: this scan stopped after 5 segments
    # (snapshots at 100, 256, 700), and the same scan run to the end; the
    # exact final state was written by the pairwise Fraction reducer
    data = Path(__file__).parent / "data"
    kwargs = dict(checkpoints=(100, 256, 700, 1024, 2000), sieve=sieve_small, segment_size=256, mode=mode)
    whole = tmp_path / "whole.state"
    reference = series.scan(ctx_cubic, 3000, state_path=whole, **kwargs)
    state = tmp_path / "stopped.state"
    shutil.copy(data / f"cubic-3000-{mode}-stopped.state", state)
    assert "next_lo = 769\n" in state.read_text()
    resumed = series.scan(ctx_cubic, 3000, state_path=state, resume=True, **kwargs)
    assert resumed.snapshots == reference.snapshots
    assert state.read_bytes() == whole.read_bytes()
    assert whole.read_bytes() == (data / final).read_bytes()


def test_interrupted_state_write_keeps_previous_state(tmp_path, sieve_small, ctx_cubic, monkeypatch):
    monkeypatch.setattr(series, "_STATE_INTERVAL_S", 0)  # a state write after every segment
    state = tmp_path / "scan.state"
    kwargs = dict(checkpoints=(3000,), sieve=sieve_small, segment_size=1024)
    reference = series.scan(ctx_cubic, 9000, **kwargs)

    class TornFile:
        """Writes half of what it is given, then fails."""

        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            self.fh.write(text[: len(text) // 2])
            raise OSError("disk full")

    writes = {"n": 0}

    def fourth_write_fails(path, mode="r", **kwargs):
        fh = open(path, mode, **kwargs)
        if "w" in mode:
            writes["n"] += 1
            if writes["n"] == 4:
                return TornFile(fh)
        return fh

    with monkeypatch.context() as m:
        m.setattr(series, "open", fourth_write_fails, raising=False)
        with pytest.raises(OSError):
            series.scan(ctx_cubic, 9000, state_path=state, **kwargs)
    # the state of the third segment (2049..3000) is still in place
    assert "next_lo = 3001" in state.read_text()
    resumed = series.scan(ctx_cubic, 9000, state_path=state, resume=True, **kwargs)
    for x in (3000, 9000):
        for lab in ctx_cubic.labels():
            assert reference.snapshots[x].classes[lab] == resumed.snapshots[x].classes[lab]
        assert reference.snapshots[x].total == resumed.snapshots[x].total


def rehash_state(path, edit):
    body = path.read_text().rpartition("sha256 = ")[0]
    body = edit(body)
    path.write_text(body + f"sha256 = {hashlib.sha256(body.encode()).hexdigest()}\n")


@pytest.mark.parametrize(
    "edit",
    [
        lambda b: b + "acc.bogus.mu_omega_raw = int 0\n",
        lambda b: b + "acc.total.bogus = int 0\n",
        lambda b: re.sub(r"(acc\.total\.mu_over_n = ).*", r"\1frac 1/0", b),
        lambda b: re.sub(r"(acc\.total\.mu_omega_raw = ).*", r"\1frac 1/2", b),
        lambda b: re.sub(r"acc\.total\.mu_over_n = .*\n", "", b),
        lambda b: re.sub(r"next_lo = .*\n", "", b),
        lambda b: re.sub(r"next_lo = .*", "next_lo = 7", b),
        lambda b: b.replace("artinsums-scan v3", "artinsums-scan v1"),
        lambda b: b.replace("float ", "neumaier ", 1),
        lambda b: b.replace("artinsums-scan v3", "artinsums-scan v2"),
        lambda b: re.sub(r"pending\.2000\.total\.frac_weighted = .*\n", "", b),
        lambda b: b + "pending.1000.total.floor_weighted = int 0\n",
        lambda b: re.sub(r"count\.repeat_count = .*\n", "", b),
        lambda b: re.sub(r"(count\.n2_ramified = ).*", r"\1frac 1/2", b),
    ],
    ids=[
        "unknown-bucket",
        "unknown-kind",
        "bad-value",
        "wrong-value-type",
        "missing-value",
        "missing-next_lo",
        "next_lo-inside-segment",
        "v1-header",
        "old-value-tag",
        "v2-header",
        "missing-pending-cell",
        "pending-cell-of-reached-checkpoint",
        "missing-count",
        "wrong-count-type",
    ],
)
def test_malformed_state_is_integrity_error(tmp_path, sieve_small, ctx_cubic, monkeypatch, edit):
    state = tmp_path / "scan.state"
    kwargs = dict(checkpoints=(1000,), sieve=sieve_small, state_path=state, segment_size=512)
    # stopped after segments [2, 512] and [513, 1000]: a snapshot at 1000,
    # a pending cell at 2000
    interrupted_scan(monkeypatch, 2, ctx_cubic, 2000, **kwargs)
    body = state.read_text()
    assert "next_lo = 1001\n" in body and "snap.1000.total" in body and "pending.2000.total" in body
    rehash_state(state, edit)
    assert state.read_text() != body
    with pytest.raises(IntegrityError):
        series.scan(ctx_cubic, 2000, resume=True, **kwargs)


def test_state_digest_is_hashlibs():
    # state files take SHA-256 from the interpreter's built-in module, not
    # hashlib's OpenSSL: the digest of a pinned file is hashlib's
    text = (Path(__file__).parent / "data" / "cubic-3000-exact-final.state").read_text()
    body, _, digest = text.rpartition("sha256 = ")
    assert series._sha256(body) == hashlib.sha256(body.encode()).hexdigest() == digest.strip()


def test_state_hash_mismatch(tmp_path, sieve_small, ctx_cubic):
    state = tmp_path / "scan.state"
    series.scan(ctx_cubic, 1000, sieve=sieve_small, state_path=state)
    text = state.read_text()
    state.write_text(text.replace("next_lo", "next_hi", 1))
    with pytest.raises(IntegrityError):
        series.scan(
            ctx_cubic, 1000, sieve=sieve_small, state_path=state, resume=True
        )


def test_state_parameter_mismatch(tmp_path, sieve_small, ctx_cubic, ctx_c4):
    state = tmp_path / "scan.state"
    series.scan(ctx_cubic, 1000, sieve=sieve_small, state_path=state)
    with pytest.raises(IntegrityError):
        series.scan(ctx_c4, 1000, sieve=sieve_small, state_path=state, resume=True)
    with pytest.raises(IntegrityError):
        series.scan(
            ctx_cubic, 2000, sieve=sieve_small, state_path=state, resume=True
        )


# -- standalone operations --------------------------------------------------


def fixed_prime_slice(p, x, sieve, mode="auto"):
    """sum over n <= x with smallest prime factor exactly p of
    mu(n)*omega(n)/n, from the segment kernel routing spf == p to a
    ramified bucket with no classes, every prime unclassified.  Fraction
    in exact mode, float otherwise."""
    if not 2 <= p <= x:
        raise ValueError(f"need 2 <= p <= x, got p={p}, x={x}")
    if mode == "auto":
        mode = "exact" if x <= series.EXACT_X_CAP else "compensated"
    root = math.isqrt(x)
    codes = np.full(root + 1, UNCLASSIFIED_CODE, dtype=np.int16)
    total = Fraction(0)
    primes = sieve.prime_array(root)

    def unclassified(big):
        return np.full(len(big), UNCLASSIFIED_CODE, dtype=np.int16)

    for lo, hi in series._segments(2, x, series.default_segment_size(x), ()):
        delta = series._segment_partials((), primes, codes, unclassified, [p], lo, hi, mode, ())
        total += delta[f"acc.ram:{p}.mu_omega_over_n"]
    return total if mode == "exact" else float(total)


def test_fixed_prime_slice_oracles(sieve_small):
    assert fixed_prime_slice(2, 10, sieve_small) == Fraction(1, 30)
    assert fixed_prime_slice(7, 10, sieve_small) == Fraction(-1, 7)
    with pytest.raises(ValueError):
        fixed_prime_slice(11, 10, sieve_small)


def test_fixed_prime_slices_partition_total(sieve_small, ctx_c4):
    # summing slices over all primes <= x reproduces the unconditional sum
    x = 200
    total = sum(
        (fixed_prime_slice(p, x, sieve_small) for p in sieve_small.prime_array(x).tolist()),
        Fraction(0),
    )
    assert total == enum_bucket_sum(sieve_small, ctx_c4, x)


def test_fixed_prime_slice_drift(sieve_big):
    # each fixed-prime slice drifts toward 0, but very slowly: the p = 2
    # slice still sits near 0.086 at x = 10^6
    v6 = fixed_prime_slice(2, 1_000_000, sieve_big)
    v3 = fixed_prime_slice(2, 1_000, sieve_big, mode="compensated")
    assert abs(v6) < 0.1
    assert abs(v6) < abs(v3)


def test_scan_classifies_primes_only_up_to_x(sieve_small, monkeypatch):
    lanes = []
    kernel = GaloisContext._class_codes

    def counting(self, primes):
        lanes.append(len(primes))
        return kernel(self, primes)

    monkeypatch.setattr(GaloisContext, "_class_codes", counting)
    ctx = new_splitting_field([1, 1, 0, 1])
    series.scan(ctx, 1000, checkpoints=(500,), sieve=sieve_small)
    assert sum(lanes) == 168  # the primes <= 1000, each once


def test_count_P2_classifies_primes_only_up_to_isqrt_x(sieve_small, monkeypatch):
    lanes = []
    kernel = GaloisContext._class_codes

    def counting(self, primes):
        lanes.append(len(primes))
        return kernel(self, primes)

    monkeypatch.setattr(GaloisContext, "_class_codes", counting)
    ctx = new_splitting_field([1, 1, 0, 1])
    series.count_P2_in_class(ctx, "1+2", 10**4, sieve_small)
    assert sum(lanes) == 25  # the primes <= 100: a strict P2 of n <= 10^4


@pytest.mark.parametrize("segment_size", [1024, 3000, 65_536])
def test_segments_classify_each_prime_once(sieve_small, ctx_cubic, monkeypatch, segment_size):
    # each segment's kernel classifies the segment's primes above
    # isqrt(x_max): segments of a few primes each, segments that cross the
    # checkpoints, and one segment per checkpoint interval give one result,
    # on one thread and on two, and every prime is classified exactly once
    kwargs = dict(checkpoints=(2, 1000, 5000), sieve=sieve_small)
    whole = series.scan(ctx_cubic, 30_000, **kwargs).snapshots
    lanes = []
    kernel = GaloisContext._class_codes

    def counting(self, primes):
        lanes.extend(primes.tolist())
        return kernel(self, primes)

    monkeypatch.setattr(GaloisContext, "_class_codes", counting)
    for threads in (1, 2):
        lanes.clear()
        ctx = new_splitting_field([1, 1, 0, 1])
        assert series.scan(ctx, 30_000, threads=threads, segment_size=segment_size, **kwargs).snapshots == whole
        assert sorted(lanes) == sieve_small.prime_array(30_000).tolist()


@pytest.mark.parametrize("threads", [1, 2])
def test_scan_memory_does_not_grow_with_x(threads):
    # a scan holds O(sqrt(x) + segment) memory: at a fixed segment size,
    # going from x = 2^18 to 2^20 may add only what grows with sqrt(x),
    # the code array (2 bytes an integer) and the kernel's uint32 copy of
    # the sieving primes (4 bytes a prime), under 8 bytes an integer up to
    # sqrt(x), and 8 KiB for the interpreter's own noise.  On threads,
    # the results of up to 2 * threads segments wait to be added in order,
    # each a dict of 28 cells under 16 KiB, and how many wait at the peak
    # depends on timing.  Anything held per segment or per integer grows
    # with x itself: a list of the 256 segments' bounds takes about 30 KiB,
    # a prime sieve over a window of 2^20 integers 1 MiB
    small, big = 1 << 18, 1 << 20
    sieve = FactorSieve(math.isqrt(big))
    sieve.prime_array()

    def peak(x):
        ctx = new_cyclotomic(4)
        tracemalloc.start()
        try:
            series.scan(ctx, x, sieve=sieve, segment_size=4096, threads=threads)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1 << 14)  # a first scan imports, starts and caches what the scans share
    grown = peak(big) - peak(small)
    waiting = 2 * threads if threads > 1 else 0
    assert grown <= 8 * (math.isqrt(big) - math.isqrt(small)) + (8 << 10) + waiting * (16 << 10), grown


def test_segment_kernel_memory_at_the_default_segment(sieve_small, ctx_c4):
    # the default segment at x = 10^7 is 2^17, and one kernel call may hold
    # less than the 2^16 kernel did before the default grew: 56 bytes an
    # integer (3.5 MB of tracemalloc) at 2^16, 28 bytes an integer at 2^17;
    # with factor_block's temporaries dropped early it holds 22.4; three
    # checkpoints wait, as in the benchmark's scan
    x = 10**7
    seg = series.default_segment_size(x)
    assert seg == 1 << 17
    root = math.isqrt(x)
    codes = ctx_c4.class_code_array(sieve_small, root)
    lo = 38 * seg + 1
    hi = lo + seg - 1
    args = (ctx_c4.labels(), sieve_small.prime_array(root), codes, ctx_c4._class_codes)
    args += (ctx_c4.ramified_primes(codes, x), lo, hi, "compensated", [hi, 8_436_436, x])
    series._segment_partials(*args)  # imports and caches what every call shares
    tracemalloc.start()
    try:
        series._segment_partials(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / seg <= 24, f"{peak / seg:.1f} bytes an integer"


def test_sum_mu_in_class(sieve_small, ctx_c4):
    # mu over n <= 10 with p1 = 3 mod 4: n in {3, 7} -> -2
    assert sum_mu_in_class(ctx_c4, "3 mod 4", 10, sieve_small) == -2


def test_count_P2_in_class_x35(sieve_small, ctx_cubic):
    for lab in ctx_cubic.labels():
        assert series.count_P2_in_class(ctx_cubic, lab, 35, sieve_small) == enum_n2(
            sieve_small, ctx_cubic, 35, lab
        )


def test_count_P2_trivial_small_x(sieve_small, ctx_cubic, ctx_c4):
    for ctx in (ctx_cubic, ctx_c4):
        for lab in ctx.labels():
            assert series.count_P2_in_class(ctx, lab, 3, sieve_small) == 0


@given(st.integers(4, 400))
@settings(max_examples=60, deadline=None)
def test_count_P2_matches_enumeration(sieve_small, ctx_cubic, x):
    for lab in ctx_cubic.labels():
        assert series.count_P2_in_class(ctx_cubic, lab, x, sieve_small) == enum_n2(
            sieve_small, ctx_cubic, x, lab
        )


def test_P2_count_balance(sieve_small, ctx_cubic, ctx_c4):
    # classes + ramified bucket + {omega <= 1 or P1 repeats} = x - 1
    for ctx in (ctx_cubic, ctx_c4):
        for x in (35, 1000, 10_000):
            total = sum(
                series.count_P2_in_class(ctx, lab, x, sieve_small)
                for lab in ctx.labels()
            )
            total += series.count_P2_ramified(ctx, x, sieve_small)
            total += count_P2_small_or_repeated(x, sieve_small)
            assert total == x - 1


def test_count_repeated_P1(sieve_small):
    # n <= 10 with repeated largest prime factor: 4, 8, 9
    assert series.count_repeated_P1(10, sieve_small) == 3
    brute = sum(
        1 for n in range(2, 1001) if sieve_small.factorize(n)[-1][1] >= 2
    )
    assert series.count_repeated_P1(1000, sieve_small) == brute


def test_psi_smooth_oracles(sieve_small):
    # 2-smooth n <= 10: 1, 2, 4, 8
    assert series.psi_smooth(10, [2], sieve_small) == [4]
    assert series.psi_smooth(30, [5], sieve_small) == [18]
    assert series.psi_smooth(50, [50], sieve_small) == [50]
    assert series.psi_smooth(30, [5, 2, 5, 30], sieve_small) == [18, 5, 18, 30]
    assert series.psi_smooth(30, [], sieve_small) == []
    for ys in ([11], [0], [2, 11]):
        with pytest.raises(ValueError):
            series.psi_smooth(10, ys, sieve_small)
    # the walk needs the primes up to isqrt(x), and x within [2, X_MAX]
    with pytest.raises(ValueError, match="below isqrt"):
        series.psi_smooth(10_000, [5], FactorSieve(99))
    assert series.psi_smooth(10_000, [5], FactorSieve(100)) == series.psi_smooth(10_000, [5], sieve_small)
    for x in (1, 2**32):
        with pytest.raises(ValueError, match="outside"):
            series.psi_smooth(x, [1], sieve_small)


@given(st.integers(2, 2000), st.integers(1, 2000))
@settings(max_examples=80, deadline=None)
def test_psi_smooth_matches_enumeration(sieve_small, x, y):
    if y > x:
        x, y = y, max(x, 1)
    brute = 1 + sum(
        1 for n in range(2, x + 1) if sieve_small.factorize(n)[-1][0] <= y
    )
    assert series.psi_smooth(x, [y], sieve_small) == [brute]


def test_psi_monotone_in_y(sieve_small):
    vals = series.psi_smooth(5000, [1, 2, 10, 100, 5000], sieve_small)
    assert vals == sorted(vals)
    assert vals[0] == 1 and vals[-1] == 5000


def test_psi_smooth_spans_several_blocks(sieve_small):
    # 10^5 is two default blocks of 2^16, the second one partial
    x, ys = 100_000, [1, 2, 97, 316, 317, 10_007, 65_537, 100_000]
    P1 = sieve_small.P1_table()[1 : x + 1]
    assert series.psi_smooth(x, ys, sieve_small) == [int(np.count_nonzero(P1 <= y)) for y in ys]


def test_psi_smooth_memory_is_one_block(sieve_small):
    # the walk holds one factor_block block, 24.3 bytes an integer at the
    # default 2^17 of both x, and nothing that grows with x
    seg = series.default_segment_size(2 * 10**6)
    assert seg == series.default_segment_size(4 * 10**6) == 1 << 17

    def peak(x):
        tracemalloc.start()
        try:
            series.psi_smooth(x, [10, 1000, 10**5], sieve_small)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(10**5)  # imports and caches what every call shares
    small, big = peak(2 * 10**6), peak(4 * 10**6)
    assert abs(big - small) <= 8 << 10, (small, big)
    assert max(small, big) / seg < 26, f"{max(small, big) / seg:.1f} bytes an integer"


def test_count_P2_below(sieve_small):
    # n <= 30 with strict P2 <= 2: all n with omega < 2, plus P2 = 2 cases
    brute = sum(1 for n in range(1, 31) if factored(sieve_small, n).P2s <= 2)
    assert count_P2_below(30, 2, sieve_small) == brute


# -- Dickman rho ------------------------------------------------------------


def test_rho_is_one_on_unit_interval():
    for a in (0.0, 0.25, 0.5, 0.99, 1.0):
        assert series.dickman_rho(a) == 1.0


def test_rho_at_two():
    assert abs(series.dickman_rho(2.0) - (1 - math.log(2))) < 1e-8


def test_rho_closed_form_on_1_2():
    # rho(a) = 1 - ln(a) there
    for a in (1.1, 1.5, 1.9):
        assert abs(series.dickman_rho(a) - (1 - math.log(a))) < 1e-8


def test_rho_at_three_vs_quadrature():
    # rho(3) = 1 - ln 2 - int_2^3 (1 - ln(u-1))/u du, with the closed form
    # for rho on [1,2] feeding an independent adaptive quadrature
    tail, err = scipy.integrate.quad(lambda u: (1 - math.log(u - 1)) / u, 2, 3)
    expected = 1 - math.log(2) - tail
    assert err < 1e-10
    assert abs(series.dickman_rho(3.0) - expected) < 1e-6


def test_rho_monotone_positive():
    vals = np.array(series._dickman_values())
    alphas = np.arange(len(vals)) / series._RHO_STEPS_PER_UNIT
    assert np.all(vals > 0)
    lo = np.searchsorted(alphas, 1.0)
    assert np.all(np.diff(vals[lo:]) < 0)


def test_rho_interpolation_continuity():
    for a in (1.00005, 2.71828, 19.99995):
        lo = series.dickman_rho(a - 1e-6)
        hi = series.dickman_rho(a + 1e-6)
        assert abs(lo - hi) <= 2e-4 * max(lo, 1e-300)


def test_rho_domain_errors():
    with pytest.raises(ValueError):
        series.dickman_rho(-0.1)
    with pytest.raises(ValueError):
        series.dickman_rho(20.5)
    with pytest.raises(ValueError, match="must lie in"):
        series.dickman_rho(float("nan"))
