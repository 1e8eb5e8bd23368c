"""Command-line surface.

Commands: sieve-build, scan, reproduce-table, verify, duality-test,
dickman, smooth, classify.  Global flags: --sieve-cache, --threads,
--format, --out, --config.  A config file holds plain ``key = value``
lines (keys are the long option names); command-line flags override it.
The environment variable ARTINSUMS_CACHE_DIR is sieve-build's default
output directory; no other command reads it.  Importing this module sets
OPENBLAS_NUM_THREADS=1 unless it is already set: the program calls no
BLAS routine, and numpy's OpenBLAS would otherwise start a thread per
extra core that spins ~0.1 s of CPU before it sleeps.  `import
artinsums` alone loads no numpy and sets nothing.

Exit codes: 0 success, 1 a check failed (reproduce-table outside the
reference tolerance; verify or duality-test finding a failed identity),
2 usage error, 3 integrity error, 4 resource error.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

# before the first numpy import (by series); see the module docstring
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import series  # noqa: E402
from .errors import IntegrityError
from .galois import GaloisContext, new_cyclotomic, new_splitting_field
from .sieve import DEFAULT_LIMIT, FactorSieve

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_INTEGRITY = 3
EXIT_RESOURCE = 4

CACHE_DIR_ENV = "ARTINSUMS_CACHE_DIR"

# Reference values of sum(mu(n)*omega(n)/n) over squarefree n <= x with the
# smallest prime factor in each class, splitting field of x^3+x+1, at
# x = 20000 / 40000 / 80000; reproduce-table reports deviations from these.
# They come from an independent brute force (trial division for mu/omega,
# root counts of x^3+x+1 mod p for the class, math.fsum).  The three rows
# plus the ramified slice spf = 31 (0.0045 / 0.0109 / 0.0160) add up to the
# unconditional sum (-0.1042 / -0.1011 / -0.0937).
#
# An earlier published table gave 3-cycles (0.250, 0.254, 0.265), 2-cycles
# (0.188, 0.237, 0.279) and identity (-0.026, -0.008, 0.009).  Whatever the
# classifier, the rows must add up to -0.109 / -0.112 / -0.110; those add
# up to 0.412 / 0.483 / 0.553 and drift away from 0 as x grows, so they are
# not this sum.  What they tabulate is not known.
TABLE_CHECKPOINTS = (20_000, 40_000, 80_000)
TABLE_REFERENCE = {
    "3": ("3-cycles", (0.104, 0.085, 0.075)),
    "1+2": ("2-cycles", (-0.089, -0.073, -0.063)),
    "1+1+1": ("identity", (-0.124, -0.124, -0.122)),
}
TABLE_TOLERANCE = 0.005


@dataclass
class TableReport:
    """Rows keyed by class label, columns by checkpoint x; rounded cells
    mirror a 3-decimal presentation, unrounded values kept alongside."""

    checkpoints: tuple[int, ...]
    rows: dict  # label -> {"name", "values", "rounded", "reference", "deviation"}


def _set_malloc_thresholds() -> None:
    """Fix glibc's mmap and trim thresholds; a no-op where the C library
    has no mallopt.

    glibc's malloc serves requests from the mmap threshold up with mmap,
    and returns the top of its heap to the OS once more than the trim
    threshold of it is free (mallopt(3)).  Left to itself it moves both
    with the sizes of the mmapped blocks freed, so whether a scan's
    per-segment temporaries (~3 MB) stayed in the heap or went back to
    the OS and were faulted in again each segment hung on what else the
    scan happened to free: scan --cyclotomic 4 --xmax 10^7 --state took
    182k minor faults and 0.44 s of system time on a 2-core VM, against
    6k and 0.05 s with both fixed.  Setting either one turns the adjustment off for
    both, and alone made it worse (218k faults with the mmap threshold
    set, 358k with the trim threshold)."""
    import ctypes  # already loaded by numpy

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(-3, 16 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


def main(argv=None) -> int:
    _set_malloc_thresholds()
    parser, commands = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            # parsed again, the config values are defaults that argparse
            # converts with each option's type; explicit flags win
            command = commands[args.command]
            command.set_defaults(**_config_defaults(args.config, command))
            args = parser.parse_args(argv)
        return args.func(args)
    except BrokenPipeError:
        return EXIT_OK
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except IntegrityError as exc:
        print(f"integrity error: {exc.args[0]}", file=sys.stderr)
        return EXIT_INTEGRITY
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_RESOURCE


def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The parser and its subparsers by command name."""
    parser = argparse.ArgumentParser(
        prog="artinsums",
        description="Class-restricted Mobius partial sums and their exact duality checks.",
    )
    parser.add_argument("--config", help="config file with 'key = value' lines")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, context=True):
        p.add_argument("--sieve-cache", help="sieve cache file (built if missing)")
        p.add_argument("--threads", type=int, default=1)
        p.add_argument("--format", dest="out_format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", dest="out_path", help="output file (default stdout)")
        if context:
            p.add_argument("--cyclotomic", type=int, metavar="K", help="cyclotomic context Q(zeta_K)")
            p.add_argument(
                "--poly",
                metavar="C0,C1,...,1",
                help="splitting-field context, integer coefficients lowest degree first",
            )

    p = sub.add_parser("sieve-build", help="build a smallest-prime-factor sieve cache")
    common(p, context=False)
    p.add_argument("--limit", type=int, default=DEFAULT_LIMIT)
    p.set_defaults(func=_cmd_sieve_build)

    p = sub.add_parser("scan", help="accumulate all class-keyed sums up to x")
    common(p)
    p.add_argument("--xmax", type=int, required=True)
    p.add_argument("--checkpoints", help="comma-separated checkpoint x values")
    p.add_argument("--mode", choices=("exact", "compensated"), default="compensated")
    p.add_argument("--class", dest="class_label", help="restrict output to one class label")
    p.add_argument(
        "--segment-size",
        type=int,
        help="integers per segment (default: 65536, doubled for each of 10^6, 10^7 and 10^8 "
        "that --xmax exceeds; a resume takes the size in its state file)",
    )
    p.add_argument("--state", help="checkpoint state file for resume")
    p.add_argument("--resume", action="store_true")
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("reproduce-table", help="compare the x^3+x+1 class-sum table with its reference values")
    common(p, context=False)
    p.set_defaults(func=_cmd_reproduce_table)

    p = sub.add_parser("verify", help="run the exact duality/identity suites")
    common(p, context=False)
    p.add_argument("--nmax", type=int, default=5000)
    p.add_argument("--kmax", type=int, default=3)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--weights", type=int, default=5)
    p.add_argument("--corrupt-mu", type=int, help=argparse.SUPPRESS)  # test hook
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("duality-test", help="exact check of the four duality identities")
    common(p, context=False)
    p.add_argument("--nmax", type=int, default=5000)
    p.add_argument("--kmax", type=int, default=3)
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(func=_cmd_duality_test)

    p = sub.add_parser("dickman", help="tabulate the smooth-density function rho")
    common(p, context=False)
    p.add_argument("--grid", help="comma-separated alpha values")
    p.add_argument("--max", dest="alpha_max", type=float, default=10.0)
    p.add_argument("--step", type=float, default=0.5)
    p.set_defaults(func=_cmd_dickman)

    p = sub.add_parser("smooth", help="tabulate Psi(x, y) and its decay envelope")
    common(p, context=False)
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--y", help="comma-separated y values")
    p.add_argument("--alpha", help="comma-separated alpha values (y = x^(1/alpha))")
    p.set_defaults(func=_cmd_smooth)

    p = sub.add_parser("classify", help="Frobenius class of given primes")
    common(p)
    p.add_argument("primes", nargs="*", type=int)
    p.add_argument("--list", action="store_true", help="list classes with densities")
    p.set_defaults(func=_cmd_classify)

    return parser, sub.choices


_BOOLS = {"true": True, "yes": True, "on": True, "1": True, "false": False, "no": False, "off": False, "0": False}


def _config_defaults(path, command: argparse.ArgumentParser) -> dict:
    """The defaults a config file sets for the options of `command`, as
    strings (bools for flags without a value): one ``key = value`` line per
    option, keyed by its long name.  Keys that name no option of `command`
    are ignored."""
    defaults = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, val = line.partition("=")
            if not sep:
                raise ValueError(f"{path}: malformed config line {raw.strip()!r}")
            action = command._option_string_actions.get("--" + key.strip().replace("_", "-"))
            if action is None:
                continue
            # argparse converts a default with the option's type, but does
            # not check it against the option's choices, and a flag without
            # a value has no type: any string would read as true
            val = val.strip()
            if action.choices and val not in action.choices:
                command.error(f"{path}: {key.strip()} = {val!r} is not one of {', '.join(action.choices)}")
            if isinstance(action, argparse._StoreTrueAction):
                if val.lower() not in _BOOLS:
                    command.error(f"{path}: {key.strip()} = {val!r} is not one of {', '.join(_BOOLS)}")
                val = _BOOLS[val.lower()]
            defaults[action.dest] = val
    return defaults


# ---------------------------------------------------------------------------
# helpers


def _context_from(args) -> GaloisContext:
    cyc = getattr(args, "cyclotomic", None)
    poly = getattr(args, "poly", None)
    if (cyc is None) == (poly is None):
        raise ValueError("exactly one of --cyclotomic K or --poly COEFFS is required")
    if cyc is not None:
        return new_cyclotomic(cyc)
    return new_splitting_field(parse_poly(poly))


def parse_poly(text: str) -> list[int]:
    try:
        coeffs = [int(c) for c in text.split(",")]
    except ValueError:
        raise ValueError(f"bad polynomial spec {text!r}") from None
    if len(coeffs) < 2:
        raise ValueError("polynomial needs at least two coefficients")
    return coeffs


def _build_sieve(limit: int, path) -> FactorSieve:
    """A fresh sieve, saved to `path`, its directory made."""
    sieve = FactorSieve(limit)
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    sieve.save(path)
    return sieve


def _get_sieve(args, needed: int) -> FactorSieve:
    """A sieve of limit `needed`, or the --sieve-cache file: loaded if it
    exists (an error if unreadable or below `needed`), else built there."""
    path = args.sieve_cache
    if not path:
        return FactorSieve(needed)
    if not os.path.exists(path):
        return _build_sieve(needed, path)
    sieve = FactorSieve.load(path)
    if sieve.limit < needed:
        raise ValueError(f"sieve cache {path} has limit {sieve.limit}, need {needed}")
    return sieve


def _cell(v):
    """An output value: a Fraction as "num/den", anything else as is (CSV
    writes it as str(v), which for a float is its shortest round-trip
    form)."""
    return f"{v.numerator}/{v.denominator}" if isinstance(v, Fraction) else v


def _emit(rows, header, args) -> None:
    """Write rows as CSV or a JSON list of objects; floats keep full
    precision so re-parsing is bit-exact."""
    out_path = getattr(args, "out_path", None)
    fh = open(out_path, "w", newline="") if out_path else sys.stdout
    try:
        if args.out_format == "json":
            import json

            payload = [dict(zip(header, (_cell(v) for v in row))) for row in rows]
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        else:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            for row in rows:
                writer.writerow([_cell(v) for v in row])
    finally:
        if out_path:
            fh.close()


# ---------------------------------------------------------------------------
# commands


def _cmd_sieve_build(args) -> int:
    path = args.sieve_cache or args.out_path
    if not path:
        cache_dir = os.environ.get(CACHE_DIR_ENV)
        if not cache_dir:
            raise ValueError("sieve-build needs --sieve-cache, --out, or " + CACHE_DIR_ENV)
        path = os.path.join(cache_dir, f"spf-{args.limit}.sieve")
    sieve = _build_sieve(args.limit, path)
    print(f"wrote sieve with limit {sieve.limit} to {path}")
    return EXIT_OK


def _cmd_scan(args) -> int:
    ctx = _context_from(args)
    checkpoints = (
        [int(c) for c in args.checkpoints.split(",")] if args.checkpoints else None
    )
    series.check_x_max(args.xmax)
    # the scan reads only the primes up to isqrt(xmax)
    sieve = _get_sieve(args, max(2, isqrt(args.xmax)))
    if args.class_label is not None:
        ctx.code_of(args.class_label)  # raises on unknown label
    result = series.scan(
        ctx,
        args.xmax,
        checkpoints=checkpoints,
        mode=args.mode,
        sieve=sieve,
        threads=args.threads,
        segment_size=args.segment_size,
        state_path=args.state,
        resume=args.resume,
    )
    rows = [
        (x, name, kind, vals[kind])
        for x, snap in result.snapshots.items()
        for name, vals in snap.buckets()
        if args.class_label in (None, name)
        for kind in series.ALL_KINDS
    ]
    _emit(rows, ("x", "class", "sum_kind", "value"), args)
    return EXIT_OK


def reproduce_table(sieve: FactorSieve, threads: int = 1) -> TableReport:
    ctx = new_splitting_field([1, 1, 0, 1])
    result = series.scan(
        ctx,
        TABLE_CHECKPOINTS[-1],
        checkpoints=TABLE_CHECKPOINTS,
        mode="compensated",
        sieve=sieve,
        threads=threads,
    )
    rows = {}
    for label, (name, ref) in TABLE_REFERENCE.items():
        values = tuple(
            result.snapshots[x].classes[label]["mu_omega_over_n"]
            for x in TABLE_CHECKPOINTS
        )
        rounded = tuple(round(v, 3) for v in values)
        deviation = tuple(abs(v - r) for v, r in zip(values, ref))
        rows[label] = {
            "name": name,
            "values": values,
            "rounded": rounded,
            "reference": ref,
            "deviation": deviation,
        }
    return TableReport(TABLE_CHECKPOINTS, rows)


def _cmd_reproduce_table(args) -> int:
    sieve = _get_sieve(args, isqrt(TABLE_CHECKPOINTS[-1]))
    report = reproduce_table(sieve, threads=args.threads)
    width = max(len(r["name"]) for r in report.rows.values())
    head = " | ".join(f"x<={x}" for x in report.checkpoints)
    print(f"{'class':<{width}} | {head}")
    for label, row in report.rows.items():
        cells = " | ".join(f"{v:>8.3f}" for v in row["rounded"])
        print(f"{row['name']:<{width}} | {cells}")
    print()
    ok = True
    for label, row in report.rows.items():
        dev = max(row["deviation"])
        good = dev <= TABLE_TOLERANCE
        ok = ok and good
        print(
            f"{row['name']:<{width}}  max deviation from reference "
            f"{dev:.5f}  [{'ok' if good else 'OUT OF TOLERANCE'}]"
        )
    rows = []
    for label, row in report.rows.items():
        for x, value, rounded, ref, dev in zip(
            report.checkpoints, row["values"], row["rounded"], row["reference"], row["deviation"]
        ):
            rows.append((x, label, value, rounded, ref, dev))
    if args.out_path:
        _emit(rows, ("x", "class", "value", "rounded", "reference", "deviation"), args)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


class _CorruptedMuSieve(FactorSieve):
    """Test hook: negates mu at one chosen n (or sets it to 1 where mu is
    0) in a private copy of mu_table(), which the identity, inversion and
    hyperbola checks read (the exact scans take mu from the block kernel),
    to prove the verify command actually detects broken inputs."""

    def __init__(self, base: FactorSieve, bad_n: int):
        super().__init__(base.limit, _spf=base.spf)
        self._bad_n = bad_n
        self._bad_mu = None

    def mu_table(self):
        if self._bad_mu is None:
            mu = super().mu_table().copy()
            mu[self._bad_n] = -mu[self._bad_n] if mu[self._bad_n] else 1
            self._bad_mu = mu
        return self._bad_mu


def _fail(summary: str, detail: dict) -> int:
    import json

    print(f"FAIL {summary}")
    print(json.dumps(detail))
    return EXIT_CHECK_FAILED


def _check_suite_args(args) -> None:
    if args.nmax < 2:
        raise ValueError(f"--nmax must be >= 2, got {args.nmax}")
    if args.kmax < 1:
        raise ValueError(f"--kmax must be >= 1, got {args.kmax}")


def _identity_suite(sieve: FactorSieve, nmax: int, kmax: int, weights) -> int | None:
    """The four divisor-sum duality identities, exact, for each weight,
    2 <= n <= nmax and k <= kmax, one batched pass per weight.  Returns
    the number of instances checked, or None after printing the first
    failure in (weight, n, identity, k) order."""
    from . import duality

    checked = 0
    for w in weights:
        result = duality.check_all_identities(sieve, nmax, kmax, w)
        if result.failures:
            rep = result.failures[0]
            _fail(
                f"duality identity {rep.identity} (k={rep.k}) at n={rep.n}",
                {
                    "n": rep.n,
                    "identity": rep.identity,
                    "k": rep.k,
                    "weight": w.name,
                    "lhs": str(rep.lhs),
                    "rhs": str(rep.rhs),
                },
            )
            return None
        checked += result.instances
    return checked


def _cmd_verify(args) -> int:
    from . import duality

    _check_suite_args(args)
    nmax = args.nmax
    if args.weights < 1:
        raise ValueError(f"--weights must be >= 1, got {args.weights}")
    if args.corrupt_mu is not None and not 2 <= args.corrupt_mu <= nmax:
        raise ValueError(f"--corrupt-mu must lie in [2, {nmax}], got {args.corrupt_mu}")
    sieve = _get_sieve(args, max(nmax, 100))
    if args.corrupt_mu is not None:
        sieve = _CorruptedMuSieve(sieve, args.corrupt_mu)
    weights = [duality.random_weight(args.seed + i) for i in range(args.weights)]

    if _identity_suite(sieve, nmax, args.kmax, weights) is None:
        return EXIT_CHECK_FAILED
    print(f"PASS duality identities 1-4, k<={args.kmax}, n<={nmax}, {len(weights)} weights")

    # Mobius-inverted second-order identity, exact
    for w in weights:
        failures = duality.check_inversion(sieve, nmax, w).failures
        if failures:
            rep = failures[0]
            return _fail(
                f"inversion identity at n={rep.n}",
                {"n": rep.n, "weight": w.name, "lhs": str(rep.lhs), "rhs": str(rep.rhs)},
            )
    print(f"PASS Mobius-inverted identity, n<={nmax}")

    # divisor-sum rearrangement (hyperbola split)
    x_hyp = min(nmax, 2000)
    for w in weights:
        lhs, rhs = duality.hyperbola_check(sieve, x_hyp, w)
        if lhs != rhs:
            return _fail(
                f"hyperbola rearrangement at x={x_hyp}",
                {"x": x_hyp, "weight": w.name, "lhs": str(lhs), "rhs": str(rhs)},
            )
    print(f"PASS hyperbola rearrangement, x={x_hyp}")

    # exact scans: floor/frac splitting + partition audit
    x_audit = min(nmax, series.EXACT_X_CAP)
    for ctx in (new_cyclotomic(4), new_splitting_field([1, 1, 0, 1])):
        result = series.scan(ctx, x_audit, mode="exact", sieve=sieve)
        ok, rows = series.splitting_check(result)
        if not ok:
            bad = next(r for r in rows if not r[4])
            return _fail(
                f"floor/frac split for {ctx.describe()}",
                {"x": bad[0], "bucket": bad[1], "lhs": str(bad[2]), "rhs": str(bad[3])},
            )
        ok, rows = series.partition_audit(result)
        if not ok:
            bad = next(r for r in rows if not r[5])
            return _fail(
                f"partition audit for {ctx.describe()}",
                {"x": bad[0], "kind": bad[1], "total": str(bad[2]), "buckets": str(bad[3])},
            )
        print(f"PASS exact floor/frac split and partition audit, {ctx.describe()}, x={x_audit}")
    print("all verification suites passed")
    return EXIT_OK


def _cmd_duality_test(args) -> int:
    from . import duality

    _check_suite_args(args)
    sieve = _get_sieve(args, max(args.nmax, 100))
    weight = duality.random_weight(args.seed)
    checked = _identity_suite(sieve, args.nmax, args.kmax, [weight])
    if checked is None:
        return EXIT_CHECK_FAILED
    print(
        f"PASS {checked} identity instances, n<={args.nmax}, k<={args.kmax}, "
        f"weight {weight.name}"
    )
    return EXIT_OK


def _cmd_dickman(args) -> int:
    if not (math.isfinite(args.step) and args.step > 0):
        raise ValueError(f"--step must be finite and > 0, got {args.step}")
    if not 0 <= args.alpha_max <= series.RHO_MAX:
        raise ValueError(f"--max must lie in [0, {series.RHO_MAX}], got {args.alpha_max}")
    if args.grid:
        alphas = [float(a) for a in args.grid.split(",")]
    else:
        ratio = args.alpha_max / args.step  # round(ratio) + 1 points; may be inf
        steps = series.RHO_MAX * series._RHO_STEPS_PER_UNIT  # the rho table has steps + 1 points
        if ratio > steps + 0.5:
            raise ValueError(f"--max / --step gives more grid points than the rho table's {steps + 1}")
        alphas = [i * args.step for i in range(round(ratio) + 1)]
    rows = [(a, series.dickman_rho(a)) for a in alphas]
    _emit(rows, ("alpha", "rho"), args)
    return EXIT_OK


def _cmd_smooth(args) -> int:
    series.check_x_max(args.x)
    sieve = _get_sieve(args, max(2, isqrt(args.x)))
    if args.y:
        ys = [int(y) for y in args.y.split(",")]
    elif args.alpha:
        alphas = [float(a) for a in args.alpha.split(",")]
        if not all(a > 0 for a in alphas):
            raise ValueError(f"--alpha values must be > 0, got {args.alpha}")
        ys = [max(2, int(round(args.x ** (1.0 / a)))) for a in alphas]
    else:
        raise ValueError("smooth needs --y or --alpha")
    rows = []
    for y, count in zip(ys, series.psi_smooth(args.x, ys, sieve)):
        alpha = math.log(args.x) / math.log(y) if y > 1 else float("inf")
        ratio = count * math.exp(alpha / 2) / args.x
        rows.append((args.x, y, alpha, count, ratio))
    _emit(rows, ("x", "y", "alpha", "psi", "envelope_ratio"), args)
    return EXIT_OK


def _cmd_classify(args) -> int:
    ctx = _context_from(args)
    if args.list or not args.primes:
        rows = [
            (c.label, c.size, f"{c.density.numerator}/{c.density.denominator}")
            for c in ctx.classes
        ]
        _emit(rows, ("class", "size", "density"), args)
        return EXIT_OK
    rows = [(p, str(out)) for p, out in zip(args.primes, ctx.classify_primes(args.primes))]
    _emit(rows, ("prime", "class"), args)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
