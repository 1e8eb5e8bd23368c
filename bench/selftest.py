#!/usr/bin/env python3
"""Self-test of the benchmark's output checker.

    python3 bench/selftest.py

Takes a real scan output (x^3+x+1 up to 3*10^4) and its exact oracle,
confirms the checker passes it, then feeds the checker three corrupted
cases: one class value altered, one row dropped, and a run that exits
nonzero (``verify`` with its corrupt-mu test hook).  Exits 0 only when
the real output passes and every corrupted case counts as a failure.
"""

from __future__ import annotations

import sys

import checks
from run import run_cli, work_dir

CONTEXT = ("--poly", "1,1,0,1")
CHECKPOINTS = (checks.ORACLE_X, 20_000, 30_000)


def alter_class_value(text: str) -> str:
    """Nudge one class bucket's mu_over_n at the last checkpoint by 1e-9
    relative."""
    lines = text.splitlines()
    for i, line in enumerate(lines):
        x, label, kind, value = line.split(",")
        if x == str(CHECKPOINTS[-1]) and label == "3" and kind == "mu_over_n":
            lines[i] = ",".join((x, label, kind, repr(float(value) * (1 + 1e-9))))
            return "\n".join(lines) + "\n"
    raise ValueError("row to alter not found")


def drop_row(text: str) -> str:
    lines = text.splitlines()
    del lines[len(lines) // 2]
    return "\n".join(lines) + "\n"


def main() -> int:
    with work_dir() as work:
        cps = ",".join(str(c) for c in CHECKPOINTS)
        real = run_cli(["scan", *CONTEXT, "--xmax", str(CHECKPOINTS[-1]), "--checkpoints", cps], None, work)
        exact = run_cli(["scan", "--mode", "exact", *CONTEXT, "--xmax", str(checks.ORACLE_X)], None, work)
        broken = run_cli(["verify", "--nmax", "60", "--weights", "1", "--corrupt-mu", "42"], None, work)
    oracle = checks.oracle_values(exact.returncode, exact.stdout)

    cases = [
        ("real output", checks.check_scan(real.returncode, real.stdout, CHECKPOINTS, oracle), False),
        ("one class value altered", checks.check_scan(0, alter_class_value(real.stdout), CHECKPOINTS, oracle), True),
        ("one row dropped", checks.check_scan(0, drop_row(real.stdout), CHECKPOINTS, oracle), True),
        (f"nonzero exit ({broken.returncode})", checks.check_verify(broken.returncode, broken.stdout), True),
    ]
    ok = True
    for name, problems, should_fail in cases:
        good = bool(problems) == should_fail
        ok = ok and good
        verdict = "counted as failure" if problems else "passed"
        print(f"{'ok  ' if good else 'BAD '} {name}: {verdict} {problems[:2]}")
    print("checker self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
