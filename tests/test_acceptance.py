"""Acceptance suite: one test per acceptance criterion, each emitting a
single PASS/FAIL line (visible with -s or in the failure report).

Criterion 1 checks the x^3+x+1 table twice: ``reproduce_table`` must agree
to 1e-12 relative with an independent brute force computed here (trial
division for mu/omega, root counting mod p for the Frobenius class,
``math.fsum``), and that brute force must agree with ``cli.TABLE_REFERENCE``
to ``cli.TABLE_TOLERANCE``.  The brute force imports nothing from the
package, so a bug shared by the engine and its own oracles cannot hide.

Criterion 5 checks the class densities of the second-largest prime factor.
Their deviation from |C|/|G| decays only like E(x) = (loglog x)^2 / log x,
with no stated constant, so no fixed tolerance at x = 10^6 follows from the
method.  The criterion asserts what does follow: the deviation shrinks from
10^4 to 10^6, and dev(x) / E(x) decreases over 10^4, 10^5, 10^6 for every
class, which a classifier with a constant bias cannot satisfy."""

import math
import time
from fractions import Fraction

import numpy as np
import pytest
import scipy.integrate

from artinsums import cli, duality, series
from artinsums.sieve import FactorSieve


def report(num, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}"
    print(line)
    return line


def _cubic_mulmod(a, b, p):
    """Product of two residues mod (p, x^3 + x + 1), coefficients lowest
    degree first."""
    c = [0] * 5
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            c[i + j] += ai * bj
    for k in (4, 3):  # x^k = -x^(k-2) - x^(k-3)
        c[k - 2] -= c[k]
        c[k - 3] -= c[k]
    return [v % p for v in c[:3]]


def _trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _cubic_root_count(p):
    """Number of roots of x^3 + x + 1 mod p: the degree of
    gcd(x^3 + x + 1, x^p - x) over F_p."""
    r, b, e = [1, 0, 0], [0, 1, 0], p
    while e:
        if e & 1:
            r = _cubic_mulmod(r, b, p)
        b = _cubic_mulmod(b, b, p)
        e >>= 1
    f, g = [1, 1, 0, 1], _trim([r[0], (r[1] - 1) % p, r[2]])
    if not g:
        return 3
    while g:
        inv = pow(g[-1], p - 2, p)
        while len(f) >= len(g):
            q, shift = f[-1] * inv % p, len(f) - len(g)
            for i, gi in enumerate(g):
                f[shift + i] = (f[shift + i] - q * gi) % p
            _trim(f)
        f, g = g, f
    return len(f) - 1


def _squarefree_factors(n, small):
    """Prime factors of n in increasing order by trial division over the
    primes ``small`` (which must reach sqrt(n)), or None if n is not
    squarefree."""
    factors = []
    for d in small:
        if d * d > n:
            break
        if n % d == 0:
            n //= d
            if n % d == 0:
                return None
            factors.append(d)
    if n > 1:
        factors.append(n)
    return factors


def _brute_force_table(checkpoints):
    """sum mu(n) omega(n) / n over squarefree 2 <= n <= x, one row per
    Frobenius class of the smallest prime factor in the splitting field of
    x^3 + x + 1, by trial division and root counting alone.  An unramified
    p has 0, 1 or 3 roots for the classes 3, 1+2, 1+1+1; the one ramified
    prime is 31 (disc = -31), whose slice is left out."""
    small = [d for d in range(2, math.isqrt(checkpoints[-1]) + 1)
             if all(d % q for q in range(2, math.isqrt(d) + 1))]
    label_of = {}
    terms = {"3": [], "1+2": [], "1+1+1": []}
    for n in range(2, checkpoints[-1] + 1):
        factors = _squarefree_factors(n, small)
        if factors is None:
            continue
        p = factors[0]
        if p == 31:
            continue
        if p not in label_of:
            label_of[p] = {0: "3", 1: "1+2", 3: "1+1+1"}[_cubic_root_count(p)]
        terms[label_of[p]].append((n, (-1) ** len(factors) * len(factors) / n))
    return {
        label: tuple(math.fsum(v for n, v in rows if n <= x) for x in checkpoints)
        for label, rows in terms.items()
    }


def test_criterion_01_table_reproduction(sieve_big):
    oracle = _brute_force_table(cli.TABLE_CHECKPOINTS)
    t0 = time.time()
    rep = cli.reproduce_table(sieve_big, threads=4)
    elapsed = time.time() - t0
    engine_err = max(
        abs(v - o) / abs(o)
        for label, row in rep.rows.items()
        for v, o in zip(row["values"], oracle[label])
    )
    oracle_dev = {
        label: max(abs(o - r) for o, r in zip(oracle[label], row["reference"]))
        for label, row in rep.rows.items()
    }
    detail = (
        f"engine vs brute force {engine_err:.1e} relative (tolerance 1e-12); "
        + "brute force vs reference "
        + ", ".join(f"{rep.rows[lab]['name']}={dev:.4f}" for lab, dev in oracle_dev.items())
        + f" (tolerance {cli.TABLE_TOLERANCE}), {elapsed:.1f}s"
    )
    ok = (
        engine_err <= 1e-12
        and max(oracle_dev.values()) <= cli.TABLE_TOLERANCE
        and elapsed < 60
    )
    line = report(1, ok, detail)
    assert elapsed < 60, detail
    assert ok, line


def test_criterion_02_duality_identity_suite(sieve_big):
    t0 = time.time()
    failures = 0
    checked = 0
    for seed in range(5):
        w = duality.random_weight(seed)
        for result in (
            duality.check_all_identities(sieve_big, 5000, 3, w),
            duality.check_inversion(sieve_big, 5000, w),
        ):
            checked += result.instances
            failures += len(result.failures)
    elapsed = time.time() - t0
    ok = failures == 0 and elapsed < 120
    line = report(
        2, ok, f"{checked} exact identity instances, {failures} failures, {elapsed:.1f}s"
    )
    assert ok, line


def test_criterion_03_partition_audit(sieve_big, ctx_cubic, ctx_c4):
    worst = 0.0
    ok = True
    for ctx in (ctx_cubic, ctx_c4):
        exact = series.scan(
            ctx, 10_000, checkpoints=(100, 1000), mode="exact", sieve=sieve_big
        )
        good, _ = series.partition_audit(exact)
        ok = ok and good
        comp = series.scan(
            ctx, 1_000_000, checkpoints=(10_000, 100_000), mode="compensated",
            sieve=sieve_big, threads=4,
        )
        good, rows = series.partition_audit(comp)
        ok = ok and good
        for _, kind, total, _, diff, _ in rows:
            worst = max(worst, abs(diff) / max(1.0, abs(float(total))))
    line = report(
        3, ok, f"exact at 1e4 and <=1e-12 relative at 1e6 (worst {worst:.2e})"
    )
    assert ok, line


def test_criterion_04_floor_frac_splitting(sieve_big, ctx_cubic, ctx_c4):
    ok = True
    for ctx in (ctx_cubic, ctx_c4):
        for x in (100, 1000, 10_000):
            r = series.scan(ctx, x, mode="exact", sieve=sieve_big)
            good, rows = series.splitting_check(r)
            ok = ok and good and all(lhs == rhs for _, _, lhs, rhs, _ in rows)
    line = report(4, ok, "floor+frac = x*sum exactly at x in {100, 1000, 10000}, both contexts")
    assert ok, line


def test_criterion_05_N2_density(sieve_big, ctx_cubic, ctx_c4):
    def error_term(x):
        return math.log(math.log(x)) ** 2 / math.log(x)

    rows = []
    ok_rate = True
    ok_trend = True
    for ctx in (ctx_cubic, ctx_c4):
        for cls in ctx.classes:
            dens = float(cls.density)
            dev = {}
            for x in (10_000, 100_000, 1_000_000):
                cnt = series.count_P2_in_class(ctx, cls.label, x, sieve_big)
                dev[x] = abs(cnt / x - dens)
            ratio = [dev[x] / error_term(x) for x in (10_000, 100_000, 1_000_000)]
            ok_rate = ok_rate and ratio[0] > ratio[1] > ratio[2]
            ok_trend = ok_trend and dev[1_000_000] < dev[10_000]
            rows.append(
                f"{cls.label}: dev(1e6)={dev[1_000_000]:.3f}, dev/E at 1e4/1e5/1e6 = "
                + "/".join(f"{r:.3f}" for r in ratio)
            )
    ok = ok_rate and ok_trend
    line = report(
        5,
        ok,
        f"trend {'holds' if ok_trend else 'BROKEN'}; "
        f"rate {'holds' if ok_rate else 'BROKEN'} "
        "(|N2/x - |C|/|G|| / ((loglog x)^2/log x) decreasing): "
        + "; ".join(rows),
    )
    assert ok, line


def test_criterion_06_prime_level_chebotarev(sieve_big, ctx_cubic, ctx_c4):
    primes = sieve_big.prime_array()
    worst = 0.0
    for ctx in (ctx_cubic, ctx_c4):
        codes = ctx.class_code_array(sieve_big, sieve_big.limit)
        sel = codes[primes]
        for i, cls in enumerate(ctx.classes):
            freq = np.count_nonzero(sel == i) / len(primes)
            worst = max(worst, abs(freq - float(cls.density)))
    ok = worst <= 0.01
    line = report(6, ok, f"class frequencies among primes <= 1e6, worst dev {worst:.5f}")
    assert ok, line


def test_criterion_07_dickman_rho():
    err2 = abs(series.dickman_rho(2.0) - (1 - math.log(2)))
    tail, qerr = scipy.integrate.quad(lambda u: (1 - math.log(u - 1)) / u, 2, 3)
    err3 = abs(series.dickman_rho(3.0) - (1 - math.log(2) - tail))
    unit = all(series.dickman_rho(a) == 1.0 for a in (0.0, 0.3, 0.7, 1.0))
    vals = np.array(series._dickman_values())
    alphas = np.arange(len(vals)) / series._RHO_STEPS_PER_UNIT
    lo = np.searchsorted(alphas, 1.0)
    decreasing = bool(np.all(np.diff(vals[lo:]) < 0))
    ok = err2 < 1e-8 and err3 < 1e-6 and qerr < 1e-9 and unit and decreasing
    line = report(
        7,
        ok,
        f"rho(2) err {err2:.1e}, rho(3) vs quadrature err {err3:.1e}, "
        f"unit interval {unit}, strictly decreasing on [1,20] {decreasing}",
    )
    assert ok, line


def test_criterion_08_smooth_counts(sieve_big):
    def trial_P1(n):
        big, d = 1, 2
        while d * d <= n:
            while n % d == 0:
                big, n = d, n // d
            d += 1
        return max(big, n) if n > 1 else big

    ok = True
    # independent trial-division oracle with full y sweeps at x <= 1000
    # (every y of one x in one call)
    for x in (10, 100, 1000):
        largest = sorted(trial_P1(n) for n in range(1, x + 1))
        ys = range(1, x + 1)
        brute = [sum(1 for v in largest if v <= y) for y in ys]
        ok = ok and series.psi_smooth(x, ys, sieve_big) == brute
    # at x = 1e4 sweep y against a sorted-largest-factor count
    x = 10_000
    largest = np.sort(sieve_big.P1_table()[1 : x + 1])
    ys = range(1, x + 1, 7)
    brute = [int(np.searchsorted(largest, y, side="right")) for y in ys]
    ok = ok and series.psi_smooth(x, ys, sieve_big) == brute
    x = 1_000_000
    alphas = (1.0, 1.5, 2.0, 3.0, 4.0, 5.0, 6.0)
    ys = [max(2, int(round(x ** (1.0 / alpha)))) for alpha in alphas]
    counts = series.psi_smooth(x, ys, sieve_big)
    worst_ratio = max(c * math.exp(alpha / 2) / x for c, alpha in zip(counts, alphas))
    ok = ok and worst_ratio <= 10
    line = report(
        8, ok, f"enumeration-equivalent at x<=1e4; envelope K = {worst_ratio:.2f} <= 10"
    )
    assert ok, line


def test_criterion_09_repeated_P1_decay(sieve_big):
    ratios = [series.count_repeated_P1(x, sieve_big) / x for x in (100, 10_000, 1_000_000)]
    n10 = series.count_repeated_P1(10, sieve_big)
    ok = ratios[0] > ratios[1] > ratios[2] and n10 == 3
    line = report(
        9,
        ok,
        f"N(x)/x = {ratios[0]:.4f} > {ratios[1]:.4f} > {ratios[2]:.4f}, N(10) = {n10}",
    )
    assert ok, line


def test_criterion_10_thread_determinism(tmp_path, capsys):
    outputs = []
    for t in (1, 2, 8):
        out_file = tmp_path / f"report-{t}.csv"
        code = cli.main(
            [
                "scan",
                "--poly",
                "1,1,0,1",
                "--xmax",
                "80000",
                "--checkpoints",
                "20000,40000",
                "--threads",
                str(t),
                "--out",
                str(out_file),
            ]
        )
        assert code == 0
        outputs.append(out_file.read_bytes())
    capsys.readouterr()
    ok = outputs[0] == outputs[1] == outputs[2]
    line = report(10, ok, "scan report files bitwise identical across 1/2/8 threads")
    assert ok, line
