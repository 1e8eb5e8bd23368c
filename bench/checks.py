"""Output checks for the benchmark's CLI runs.

A run passes when the command exits 0 and its output is right:

* scan workloads: the CSV holds every requested checkpoint with the same
  bucket/kind rows as the exact oracle, and at every checkpoint
  - class buckets plus ramified buckets reproduce ``total`` (exactly for
    the integer kinds, within 1e-12 relative for the others),
  - floor_weighted + frac_weighted = x * mu_omega_over_n within 1e-9,
  - the values at x = 10^4 match the exact-mode oracle within 1e-12;
* verify: stdout has the ``all verification suites passed`` line.

Each check returns a list of problems; an empty list is a pass.
"""

from __future__ import annotations

import csv
import io
import math
from fractions import Fraction

ORACLE_X = 10_000
INT_KINDS = ("mu_omega_raw", "floor_weighted")
PARTITION_TOL = 1e-12
SPLIT_TOL = 1e-9
ORACLE_TOL = 1e-12
VERIFY_OK_LINE = "all verification suites passed"

SCAN_HEADER = ["x", "class", "sum_kind", "value"]


def parse_value(text: str):
    """int, Fraction ("num/den", exact mode) or float (compensated mode)."""
    if "/" in text:
        return Fraction(text)
    try:
        return int(text)
    except ValueError:
        return float(text)


def parse_scan_csv(text: str):
    """{x: {(class, kind): value}} from a scan CSV; raises ValueError on a
    malformed table or a repeated row."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header != SCAN_HEADER:
        raise ValueError(f"unexpected header {header!r}")
    table: dict[int, dict] = {}
    for row in reader:
        if len(row) != 4:
            raise ValueError(f"malformed row {row!r}")
        x, label, kind, value = row
        cells = table.setdefault(int(x), {})
        if (label, kind) in cells:
            raise ValueError(f"repeated row {row!r}")
        cells[label, kind] = parse_value(value)
    return table


def _close(a, b, tol: float) -> bool:
    return abs(float(a) - float(b)) <= tol * max(1.0, abs(float(b)))


def check_scan(returncode: int, stdout: str, checkpoints, oracle: dict | None) -> list[str]:
    """Problems with one scan run; `oracle` maps (class, kind) to the exact
    values at x = ORACLE_X, or is None when the oracle run failed."""
    if returncode != 0:
        return [f"exit code {returncode}"]
    if oracle is None:
        return ["no oracle values (exact oracle run failed)"]
    try:
        table = parse_scan_csv(stdout)
    except ValueError as exc:
        return [f"unparsable output: {exc}"]
    problems = []
    if sorted(table) != sorted(checkpoints):
        problems.append(f"checkpoints {sorted(table)} != requested {sorted(checkpoints)}")
    expected_keys = set(oracle)
    kinds = sorted({kind for _, kind in expected_keys})
    buckets = sorted({label for label, _ in expected_keys})
    for x, cells in sorted(table.items()):
        if set(cells) != expected_keys:
            missing = sorted(expected_keys - set(cells))
            extra = sorted(set(cells) - expected_keys)
            problems.append(f"x={x}: rows missing {missing[:3]} extra {extra[:3]}")
            continue
        for kind in kinds:
            total = cells["total", kind]
            parts = [cells[b, kind] for b in buckets if b != "total"]
            if kind in INT_KINDS:
                good = sum(parts) == total
            else:
                good = _close(math.fsum(parts), total, PARTITION_TOL)
            if not good:
                problems.append(f"x={x} {kind}: buckets do not sum to total {total!r}")
        for b in buckets:
            lhs = cells[b, "floor_weighted"] + cells[b, "frac_weighted"]
            rhs = x * cells[b, "mu_omega_over_n"]
            if not _close(lhs, rhs, SPLIT_TOL):
                problems.append(f"x={x} {b}: floor+frac {lhs!r} != x*sum {rhs!r}")
        if x == ORACLE_X:
            for key, want in sorted(oracle.items()):
                got = cells[key]
                good = got == want if key[1] in INT_KINDS else _close(got, want, ORACLE_TOL)
                if not good:
                    problems.append(f"x={x} {key}: {got!r} != oracle {float(want)!r}")
    return problems


def oracle_values(returncode: int, stdout: str) -> dict | None:
    """(class, kind) -> exact value at ORACLE_X from an exact-mode scan, or
    None when that run failed."""
    if returncode != 0:
        return None
    try:
        return parse_scan_csv(stdout).get(ORACLE_X)
    except ValueError:
        return None


def check_verify(returncode: int, stdout: str) -> list[str]:
    if returncode != 0:
        return [f"exit code {returncode}"]
    if VERIFY_OK_LINE not in stdout.splitlines():
        return [f"no {VERIFY_OK_LINE!r} line"]
    return []
