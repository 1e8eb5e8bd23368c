"""CLI surface: argument handling, output round-trips, exit codes, config
file, cache directory, and the negative path of the verify command."""

import ast
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artinsums import cli, duality, series
from artinsums import sieve as sieve_mod
from artinsums.fieldpoly import distinct_degree_factorization, reduce_poly, shape_label
from artinsums.sieve import FactorSieve, is_prime
from oracles import identity_rhs


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_csv(text):
    rows = list(csv.reader(text.splitlines()))
    return rows[0], rows[1:]


def test_parse_poly():
    assert cli.parse_poly("1,1,0,1") == [1, 1, 0, 1]
    with pytest.raises(ValueError):
        cli.parse_poly("1,a,1")
    with pytest.raises(ValueError):
        cli.parse_poly("1")


def test_classify_list(capsys):
    code, out, _ = run(
        ["classify", "--poly", "1,1,0,1", "--list"], capsys
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["class", "size", "density"]
    assert rows == [
        ["1+1+1", "1", "1/6"],
        ["1+2", "3", "1/2"],
        ["3", "2", "1/3"],
    ]


def test_classify_primes_json(capsys):
    code, out, _ = run(
        ["classify", "--cyclotomic", "4", "--format", "json", "5", "7", "2"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload == [
        {"prime": 5, "class": "1 mod 4"},
        {"prime": 7, "class": "3 mod 4"},
        {"prime": 2, "class": "ramified"},
    ]


def test_classify_requires_one_context(capsys):
    code, _, err = run(["classify", "5"], capsys)
    assert code == 2
    code, _, err = run(
        ["classify", "--cyclotomic", "4", "--poly", "1,1,0,1", "5"], capsys
    )
    assert code == 2


@pytest.mark.parametrize("k", ["65537", str(10**18)])
def test_cyclotomic_beyond_int16_class_codes_is_usage_error(k, capsys):
    # phi(65537) = 65536 classes do not fit int16 codes; 10^18 is rejected
    # at its 32769th residue, with no pass over all of them
    code, out, err = run(["scan", "--cyclotomic", k, "--xmax", "100"], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "more than 32768 classes" in err
    assert "Traceback" not in err


def test_classify_several_primes(capsys):
    # 31 divides disc(x^3+x+1) = -31; 3 goes through the small-prime route
    code, out, _ = run(
        ["classify", "--poly", "1,1,0,1", "3", "31", "1000003", "2305843009213693951"],
        capsys,
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["prime", "class"]
    assert rows == [
        ["3", "1+2"],
        ["31", "ramified"],
        ["1000003", "3"],
        ["2305843009213693951", "1+1+1"],
    ]
    code, out, err = run(["classify", "--poly", "1,1,0,1", "3", "1000003", "9", "31"], capsys)
    assert code == 2
    assert out == ""
    assert "9 is not prime" in err


def test_classify_rejects_composite(capsys):
    code, _, err = run(["classify", "--cyclotomic", "4", "9"], capsys)
    assert code == 2
    assert "not prime" in err


def test_scan_csv_round_trip(tmp_path, capsys):
    out_file = tmp_path / "scan.csv"
    code, _, _ = run(
        [
            "scan",
            "--cyclotomic",
            "4",
            "--xmax",
            "1000",
            "--mode",
            "exact",
            "--out",
            str(out_file),
        ],
        capsys,
    )
    assert code == 0
    header, rows = parse_csv(out_file.read_text())
    assert header == ["x", "class", "sum_kind", "value"]
    got = {
        (r[1], r[2]): r[3] for r in rows if r[0] == "1000"
    }
    # cross-check one exact cell against a direct scan
    ctx = cli.new_cyclotomic(4)
    sieve = FactorSieve(1000)
    snap = series.scan(ctx, 1000, mode="exact", sieve=sieve).snapshots[1000]
    want = snap.classes["3 mod 4"]["mu_omega_over_n"]
    assert got[("3 mod 4", "mu_omega_over_n")] == f"{want.numerator}/{want.denominator}"
    # float kinds survive the repr round-trip bit-exactly in compensated mode
    assert ("total", "floor_weighted") in got


def test_scan_json_float_round_trip(tmp_path, capsys):
    out_file = tmp_path / "scan.json"
    code, _, _ = run(
        [
            "scan",
            "--poly",
            "1,1,0,1",
            "--xmax",
            "5000",
            "--format",
            "json",
            "--out",
            str(out_file),
        ],
        capsys,
    )
    assert code == 0
    payload = json.loads(out_file.read_text())
    ctx = cli.new_splitting_field([1, 1, 0, 1])
    sieve = FactorSieve(5000)
    snap = series.scan(ctx, 5000, mode="compensated", sieve=sieve).snapshots[5000]
    cell = next(
        r
        for r in payload
        if r["class"] == "3" and r["sum_kind"] == "mu_omega_over_n"
    )
    assert cell["value"] == snap.classes["3"]["mu_omega_over_n"]


def test_scan_class_filter(tmp_path, capsys):
    out_file = tmp_path / "scan.csv"
    code, _, _ = run(
        [
            "scan",
            "--cyclotomic",
            "4",
            "--xmax",
            "500",
            "--class",
            "1 mod 4",
            "--out",
            str(out_file),
        ],
        capsys,
    )
    assert code == 0
    _, rows = parse_csv(out_file.read_text())
    assert rows and all(r[1] == "1 mod 4" for r in rows)


def test_scan_rows_follow_snapshot_buckets(capsys):
    # Q(zeta_12) ramifies at 2 and 3; the rows run through each checkpoint's
    # Snapshot.buckets(), and --class L prints exactly the rows of L
    argv = ["scan", "--cyclotomic", "12", "--xmax", "2000", "--checkpoints", "500"]
    code, out, _ = run(argv, capsys)
    assert code == 0
    _, rows = parse_csv(out)
    ctx = cli.new_cyclotomic(12)
    result = series.scan(ctx, 2000, checkpoints=(500,), sieve=FactorSieve(2000))
    names = [name for name, _ in result.snapshots[500].buckets()]
    assert names == ["1 mod 12", "11 mod 12", "5 mod 12", "7 mod 12", "ramified:2", "ramified:3", "total"]
    want = [
        [str(x), name, kind, str(vals[kind])]
        for x, snap in result.snapshots.items()
        for name, vals in snap.buckets()
        for kind in series.ALL_KINDS
    ]
    assert rows == want
    for label in ctx.labels():
        code, out, _ = run([*argv, "--class", label], capsys)
        assert code == 0
        assert parse_csv(out)[1] == [r for r in rows if r[1] == label]


def test_scan_unknown_class(capsys):
    code, _, err = run(
        ["scan", "--cyclotomic", "4", "--xmax", "100", "--class", "2 mod 4"],
        capsys,
    )
    assert code == 2


def test_scan_thread_determinism_bitwise(tmp_path, capsys):
    outputs = []
    for t in ("1", "2", "8"):
        out_file = tmp_path / f"scan-{t}.csv"
        code, _, _ = run(
            [
                "scan",
                "--poly",
                "1,1,0,1",
                "--xmax",
                "30000",
                "--threads",
                t,
                "--out",
                str(out_file),
            ],
            capsys,
        )
        assert code == 0
        outputs.append(out_file.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]


def test_scan_resume_integrity_exit_code(tmp_path, capsys):
    state = tmp_path / "scan.state"
    argv = [
        "scan",
        "--cyclotomic",
        "4",
        "--xmax",
        "2000",
        "--state",
        str(state),
        "--out",
        str(tmp_path / "a.csv"),
    ]
    code, _, _ = run(argv, capsys)
    assert code == 0
    state.write_text(state.read_text().replace("mode = compensated", "mode = exact"))
    code, _, err = run(argv + ["--resume"], capsys)
    assert code == 3


def test_exact_scan_at_the_cap_stays_below_the_int_str_limit(tmp_path, capsys):
    # Python converts int <-> str only below 4300 digits by default; at the
    # cap the largest numerator or denominator, in the output and the state
    # file, has 4298 digits (the primorial of 10^4)
    state = tmp_path / "scan.state"
    argv = ["scan", "--poly", "1,1,0,1", "--xmax", str(series.EXACT_X_CAP), "--mode", "exact"]
    argv += ["--format", "json", "--state", str(state)]
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert max(map(len, re.findall(r"\d+", out + state.read_text()))) < 4300
    assert run(argv + ["--resume"], capsys)[:2] == (0, out)


FUZZ_ARGV = ["scan", "--cyclotomic", "4", "--xmax", "3000", "--checkpoints", "1000", "--segment-size", "512"]


@pytest.fixture(scope="session")
def stopped_state(tmp_path_factory):
    """Lines of the state body a scan leaves when stopped in its fourth
    segment: a checkpoint snapshot, a pending checkpoint cell, partial
    sums, next_lo = 1025."""
    path = tmp_path_factory.mktemp("stopped") / "scan.state"
    real, interval = series._segment_partials, series._STATE_INTERVAL_S
    series._STATE_INTERVAL_S = 0  # a state write after every segment
    calls = []

    def stop_after_three(*args, **kwargs):
        calls.append(args)
        if len(calls) > 3:
            raise KeyboardInterrupt
        return real(*args, **kwargs)

    series._segment_partials = stop_after_three
    try:
        with pytest.raises(KeyboardInterrupt):
            cli.main(FUZZ_ARGV + ["--state", str(path), "--out", os.devnull])
    finally:
        series._segment_partials, series._STATE_INTERVAL_S = real, interval
    body = path.read_text().rpartition("sha256 = ")[0]
    assert "next_lo = 1025" in body and "snap.1000.total" in body and "pending.3000.total" in body
    return body.splitlines()


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_scan_resume_edited_state_exits_0_or_3(tmp_path_factory, stopped_state, data):
    # edits keep the hash valid, so only the loader stands between a
    # malformed body and the scan: it must either resume or exit 3
    lines = list(stopped_state)
    for _ in range(data.draw(st.integers(1, 3))):
        i = data.draw(st.integers(0, len(lines) - 1))
        op = data.draw(st.sampled_from(["delete", "replace", "value", "insert"]))
        text = data.draw(st.text(max_size=24))
        key = lines[i].partition(" = ")[0]
        if op == "delete":
            del lines[i]
        elif op == "replace":
            lines[i] = text
        elif op == "value":
            tag = data.draw(st.sampled_from(["int", "frac", "float", "neumaier", ""]))
            lines[i] = f"{key} = {tag} {text}"
        else:
            lines.insert(i, text)
        if not lines:
            lines = [""]
    body = "\n".join(lines) + "\n"
    work = tmp_path_factory.mktemp("fuzz")
    state = work / "scan.state"
    state.write_text(body + f"sha256 = {hashlib.sha256(body.encode()).hexdigest()}\n")
    code = cli.main(FUZZ_ARGV + ["--state", str(state), "--resume", "--out", str(work / "out.csv")])
    assert code in (cli.EXIT_OK, cli.EXIT_INTEGRITY)


def test_sieve_build_and_reuse(tmp_path, capsys):
    cache = tmp_path / "spf.sieve"
    code, out, _ = run(
        ["sieve-build", "--limit", "5000", "--sieve-cache", str(cache)], capsys
    )
    assert code == 0 and cache.exists()
    loaded = FactorSieve.load(cache)
    assert loaded.limit == 5000
    # a command that needs a smaller sieve accepts the cache
    code, out, _ = run(
        [
            "smooth",
            "--x",
            "1000",
            "--y",
            "10,1000",
            "--sieve-cache",
            str(cache),
        ],
        capsys,
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["x", "y", "alpha", "psi", "envelope_ratio"]
    assert int(rows[1][3]) == 1000  # Psi(x, x) = x


def test_sieve_build_rejects_limit_above_x_max(tmp_path, capsys, monkeypatch):
    # 2^32 fails with exit 2 before the 16 GiB table is built or the cache
    # header's uint32 limit is packed
    monkeypatch.setattr(sieve_mod, "_build_spf", lambda limit: pytest.fail(f"built a table for {limit}"))
    cache = tmp_path / "spf.sieve"
    code, out, err = run(["sieve-build", "--limit", str(2**32), "--out", str(cache)], capsys)
    assert (code, out) == (cli.EXIT_USAGE, "")
    assert err == f"error: sieve limit = {2**32} outside [2, {2**32 - 1}]\n"
    assert not cache.exists()


@pytest.fixture(scope="session")
def saved_cache(tmp_path_factory):
    path = tmp_path_factory.mktemp("cache") / "spf.sieve"
    FactorSieve(300).save(path)
    return path.read_bytes()


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_sieve_cache_byte_edit_is_rejected(tmp_path_factory, saved_cache, data):
    # crc32 detects every error burst of up to 32 bits, so no change to one
    # byte, in the header or the body, gets past the loader
    raw = bytearray(saved_cache)
    i = data.draw(st.integers(0, len(raw) - 1))
    raw[i] ^= data.draw(st.integers(1, 255))
    path = tmp_path_factory.mktemp("edit") / "spf.sieve"
    path.write_bytes(bytes(raw))
    with pytest.raises(IOError):
        FactorSieve.load(path)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(["scan", "--cyclotomic", "4", "--xmax", "300", "--sieve-cache", str(path), "--out", os.devnull])
    assert code == cli.EXIT_USAGE
    assert err.getvalue().startswith("error: ") and "Traceback" not in err.getvalue()


def test_sieve_cache_too_small(tmp_path, capsys):
    # smooth --x 1000 reads the primes up to isqrt(1000) = 31
    cache = tmp_path / "spf.sieve"
    FactorSieve(30).save(cache)
    code, _, err = run(
        ["smooth", "--x", "1000", "--y", "10", "--sieve-cache", str(cache)],
        capsys,
    )
    assert code == 2
    assert "limit 30, need 31" in err


def test_cache_dir_env(tmp_path, capsys, monkeypatch):
    # the cache directory is sieve-build's default output; the other
    # commands build the small sieve they need and leave it alone
    monkeypatch.setenv(cli.CACHE_DIR_ENV, str(tmp_path))
    for argv in (
        ["scan", "--cyclotomic", "4", "--xmax", "10000"],
        ["smooth", "--x", "500", "--y", "5"],
        ["verify", "--nmax", "300"],
    ):
        assert run(argv, capsys)[0] == 0
    assert list(tmp_path.iterdir()) == []
    code, out, _ = run(["sieve-build", "--limit", "500"], capsys)
    assert code == 0
    assert out == f"wrote sieve with limit 500 to {tmp_path / 'spf-500.sieve'}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["spf-500.sieve"]
    assert FactorSieve.load(tmp_path / "spf-500.sieve").limit == 500


def test_missing_sieve_cache_is_built_at_the_limit_needed(tmp_path, capsys):
    cache = tmp_path / "new" / "spf.sieve"
    argv = ["smooth", "--x", "1000", "--y", "10", "--sieve-cache", str(cache)]
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert FactorSieve.load(cache).limit == 31
    assert run(argv, capsys)[:2] == (0, out)


def test_dickman_command(capsys):
    code, out, _ = run(
        ["dickman", "--grid", "0.5,1,2,3"], capsys
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["alpha", "rho"]
    vals = {float(a): float(r) for a, r in rows}
    assert vals[0.5] == 1.0
    assert abs(vals[2.0] - (1 - math.log(2))) < 1e-8


def test_dickman_rejects_out_of_range(capsys):
    code, _, _ = run(["dickman", "--grid", "25"], capsys)
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["--step", "0"],
        ["--step", "-1"],
        ["--step", "inf"],
        ["--step", "nan"],
        ["--max", "inf"],
        ["--max", "-1"],
        ["--max", "20.5"],
        ["--max", "nan"],
        ["--grid", "nan"],
    ],
)
def test_dickman_rejects_bad_step_or_max(argv, capsys):
    # --step 0 divided by zero, --max inf overflowed, a negative value
    # printed a header-only table, and a NaN grid value passed both range
    # checks of dickman_rho
    code, out, err = run(["dickman", *argv], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


@pytest.mark.parametrize("argv", [["--step", "1e-310"], ["--max", "20", "--step", "0.00005"]])
def test_dickman_grid_beyond_the_rho_table_exits_2(argv, capsys, monkeypatch):
    # 1e-310 overflowed int(round(inf)); 0.00005 printed 400,001 rows, more
    # than the 200,001 points of the rho table; both are refused before a row
    monkeypatch.setattr(series, "dickman_rho", lambda a: pytest.fail("built a row"))
    code, out, err = run(["dickman", *argv], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "200001" in err


def test_dickman_grid_of_the_whole_rho_table(monkeypatch):
    # the grid is under test, not rho or its output
    rows = []
    monkeypatch.setattr(series, "dickman_rho", lambda a: 1.0)
    monkeypatch.setattr(cli, "_emit", lambda got, header, args: rows.extend(got))
    assert cli.main(["dickman", "--max", "20", "--step", "0.0001"]) == 0
    assert len(rows) == 200_001 and rows[-1][0] == pytest.approx(20)


def test_dickman_max_edges(capsys):
    code, out, _ = run(["dickman", "--max", "20", "--step", "10"], capsys)
    assert code == 0 and parse_csv(out)[1][-1][0] == "20.0"
    code, out, _ = run(["dickman", "--max", "0"], capsys)
    assert code == 0 and parse_csv(out)[1] == [["0.0", "1.0"]]


@pytest.mark.parametrize("alpha", ["0", "-2", "2,0", "nan"])
def test_smooth_rejects_nonpositive_alpha(alpha, capsys):
    # alpha = 0 divided by zero; a negative alpha gave y = 2 and a made-up alpha
    code, out, err = run(["smooth", "--x", "100", "--alpha", alpha], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_scan_rejects_threads_below_one(threads, capsys):
    code, out, err = run(["scan", "--cyclotomic", "4", "--xmax", "100", "--threads", threads], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


def test_duality_test_command(capsys):
    code, out, _ = run(
        ["duality-test", "--nmax", "200", "--kmax", "3", "--seed", "11"], capsys
    )
    assert code == 0
    assert out.startswith("PASS")


def test_duality_test_kmax_beyond_omega(capsys):
    # k > omega(n) instances are counted but not stored
    code, out, _ = run(["duality-test", "--nmax", "50", "--kmax", "1000000"], capsys)
    assert code == 0
    assert out.startswith("PASS 196000000 identity instances, n<=50, k<=1000000, ")


def _inject(monkeypatch, name, bump):
    """Wrap duality.<name> so that `bump` edits the arrays it returns."""
    orig = getattr(duality, name)

    def wrapped(*args):
        return bump(*orig(*args))

    monkeypatch.setattr(duality, name, wrapped)


@pytest.mark.parametrize("command", ["verify", "duality-test"])
def test_first_identity_failure_reported(command, monkeypatch, capsys):
    # mismatches at n = 210 (identity 1, k = 3) and n = 30 (identity 3, k = 2):
    # the smaller n is reported, in the format of a single failure
    w = duality.random_weight(1)

    def bump(L, groups):
        def edited():
            for ns, lhs, rhs in groups:
                lhs = lhs.copy()
                for n, i, k in ((210, 1, 3), (30, 3, 2)):
                    if n in ns:
                        lhs[i - 1, k - 1, ns == n] += 1
                yield ns, lhs, rhs

        return L, edited()

    _inject(monkeypatch, "identity_sides", bump)
    argv = [command, "--nmax", "300"] + (["--weights", "1"] if command == "verify" else [])
    code, out, _ = run(argv, capsys)
    sieve = FactorSieve(300)
    rhs = identity_rhs(sieve, 30, 2, 3, w)
    lhs = rhs + Fraction(1, duality.identity_sides(sieve, 300, 3, w)[0])
    detail = {"n": 30, "identity": 3, "k": 2, "weight": w.name, "lhs": str(lhs), "rhs": str(rhs)}
    assert code == 1
    assert out.splitlines()[-2:] == ["FAIL duality identity 3 (k=2) at n=30", json.dumps(detail)]


def test_first_inversion_failure_reported(monkeypatch, capsys):
    w = duality.random_weight(1)
    lhs, rhs, L = duality.inversion_sides(FactorSieve(300), 300, w)
    detail = {"n": 77, "weight": w.name, "lhs": str(Fraction(int(lhs[77]), L)), "rhs": str(Fraction(int(rhs[77]) - 1, L))}

    def bump(lhs, rhs, L):
        rhs = rhs.copy()
        rhs[[90, 77]] -= 1
        return lhs, rhs, L

    _inject(monkeypatch, "inversion_sides", bump)
    code, out, _ = run(["verify", "--nmax", "300", "--weights", "1"], capsys)
    assert code == 1
    assert out.splitlines()[-2:] == ["FAIL inversion identity at n=77", json.dumps(detail)]


def test_verify_small(capsys):
    code, out, _ = run(["verify", "--nmax", "300", "--weights", "2"], capsys)
    assert code == 0
    assert "all verification suites passed" in out
    assert out.count("PASS") >= 5


def test_verify_detects_corrupt_mu(capsys):
    code, out, _ = run(
        ["verify", "--nmax", "60", "--weights", "1", "--corrupt-mu", "42"],
        capsys,
    )
    assert code == 1
    assert "FAIL" in out
    # the counterexample is machine-readable JSON on the last line
    detail = json.loads(out.strip().splitlines()[-1])
    assert "lhs" in detail and "rhs" in detail


def test_corrupted_mu_reaches_table_checks():
    base = FactorSieve(1000)
    mu_before = base.mu_table().copy()
    bad = cli._CorruptedMuSieve(base, 42)
    assert bad.mu_table()[42] == -mu_before[42]
    w = duality.random_weight(1)
    # the flip shows at 42 and at multiples 42 m with f(P2(m)) != 0
    failed = [rep.n for rep in duality.check_inversion(bad, 1000, w).failures]
    assert failed[0] == 42 and all(n % 42 == 0 for n in failed)
    assert duality.check_inversion(base, 1000, w).passed
    lhs, rhs = duality.hyperbola_check(bad, 300, w)
    assert lhs != rhs
    lhs, rhs = duality.hyperbola_check(base, 300, w)
    assert lhs == rhs
    # the flip lives in a copy; the base sieve's tables are untouched
    assert np.array_equal(base.mu_table(), mu_before)


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--nmax", "1"],
        ["verify", "--nmax", "-5"],
        ["verify", "--kmax", "0"],
        ["verify", "--kmax", "-2"],
        ["verify", "--weights", "0"],
        ["verify", "--weights", "-1"],
        ["duality-test", "--nmax", "1"],
        ["duality-test", "--kmax", "0"],
        ["verify", "--nmax", "60", "--corrupt-mu", "100000"],
        ["verify", "--nmax", "60", "--corrupt-mu", "-3"],
        ["verify", "--nmax", "60", "--corrupt-mu", "61"],
    ],
)
def test_suite_args_rejected_before_output(argv, capsys):
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_config_file_defaults_and_override(tmp_path, capsys):
    cfg = tmp_path / "artinsums.cfg"
    out_a = tmp_path / "a.json"
    cfg.write_text("format = json\n# comment line\nthreads = 2\n")
    code, _, _ = run(
        [
            "--config",
            str(cfg),
            "scan",
            "--cyclotomic",
            "4",
            "--xmax",
            "300",
            "--out",
            str(out_a),
        ],
        capsys,
    )
    assert code == 0
    json.loads(out_a.read_text())  # config switched the format to json
    # explicit flag beats the config file
    out_b = tmp_path / "b.csv"
    code, _, _ = run(
        [
            "--config",
            str(cfg),
            "scan",
            "--cyclotomic",
            "4",
            "--xmax",
            "300",
            "--format",
            "csv",
            "--out",
            str(out_b),
        ],
        capsys,
    )
    assert code == 0
    assert out_b.read_text().startswith("x,class,sum_kind,value")


def test_config_file_malformed(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("threads 4\n")
    code, _, err = run(
        ["--config", str(cfg), "dickman", "--grid", "1"], capsys
    )
    assert code == 2


def test_config_values_are_typed_and_explicit_flags_win(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "artinsums.cfg"
    cfg.write_text("nmax = 100\nseed = 3\nno-such-option = 1\n")
    code, out, _ = run(["--config", str(cfg), "verify", "--nmax", "50", "--weights", "1"], capsys)
    assert code == 0
    assert "n<=50," in out and "n<=100" not in out
    seen = []
    monkeypatch.setattr(cli, "_cmd_duality_test", lambda args: seen.append(args) or 0)
    assert run(["--config", str(cfg), "duality-test"], capsys)[0] == 0
    assert run(["--config", str(cfg), "duality-test", "--seed", "1"], capsys)[0] == 0
    assert [(a.nmax, a.seed) for a in seen] == [(100, 3), (100, 1)]
    assert all(type(a.nmax) is int and type(a.seed) is int for a in seen)


@pytest.mark.parametrize(
    "line, message", [("nmax = abc", "invalid int value: 'abc'"), ("format = xml", "'xml' is not one of csv, json")]
)
def test_config_value_the_option_rejects_is_usage_error(tmp_path, capsys, line, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    with pytest.raises(SystemExit) as exc:
        cli.main(["--config", str(cfg), "verify"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def test_config_flag_false_does_not_resume(tmp_path, capsys):
    state = tmp_path / "F"
    cfg = tmp_path / "artinsums.cfg"
    argv = ["scan", "--cyclotomic", "4", "--xmax", "200", "--state", str(state)]
    assert run(["scan", "--cyclotomic", "4", "--xmax", "100", "--state", str(state)], capsys)[0] == 0
    cfg.write_text("resume = FALSE\n")
    code, out, _ = run(["--config", str(cfg), *argv], capsys)
    assert code == 0
    assert out == run(argv, capsys)[1]


def test_config_flag_true_resumes(tmp_path, capsys):
    state = tmp_path / "F"
    cfg = tmp_path / "artinsums.cfg"
    assert run(["scan", "--cyclotomic", "4", "--xmax", "100", "--state", str(state)], capsys)[0] == 0
    cfg.write_text("resume = true\n")
    # the state was written for x_max = 100, so resuming to 200 is refused
    code, _, err = run(["--config", str(cfg), "scan", "--cyclotomic", "4", "--xmax", "200", "--state", str(state)], capsys)
    assert code == 3 and "x_max mismatch" in err


def test_config_flag_no_classifies(tmp_path, capsys):
    cfg = tmp_path / "artinsums.cfg"
    cfg.write_text("list = no\n")
    code, out, _ = run(["--config", str(cfg), "classify", "--cyclotomic", "4", "5", "7"], capsys)
    assert code == 0
    assert parse_csv(out) == (["prime", "class"], [["5", "1 mod 4"], ["7", "3 mod 4"]])


def test_config_flag_other_value_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "artinsums.cfg"
    cfg.write_text("resume = maybe\n")
    with pytest.raises(SystemExit) as exc:
        cli.main(["--config", str(cfg), "scan", "--cyclotomic", "4", "--xmax", "100"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "'maybe'" in err


def test_classify_large_discriminant_answers_quickly():
    # disc(x^6 + 123456789 x + 1) has 173 bits; ramification is a
    # divisibility test, so no factoring of it stands in the way
    poly = [1, 0, 0, 0, 0, 123456789, 1]
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "artinsums.cli", "classify", "--poly", ",".join(map(str, poly)), "1000003"],
        capture_output=True, text=True, timeout=10, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    shape = distinct_degree_factorization(reduce_poly(poly, 1000003))
    assert proc.stdout.splitlines() == ["prime,class", f"1000003,{shape_label(shape)}"]


def test_cli_import_leaves_out_what_few_commands_use():
    # hashlib (its OpenSSL alone is 3.6 MB of RSS), the thread pool, json
    # and the duality suites are imported by the commands that use them.
    # `import artinsums` loads no numpy and sets nothing, so importing cli
    # sets OPENBLAS_NUM_THREADS=1 before numpy starts OpenBLAS's threads:
    # the process runs one thread; a value already set is kept.  The
    # children start without the variable, which this process has once it
    # has imported cli.
    lazy = ("hashlib", "concurrent.futures", "json", "artinsums.duality")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = f"""if True:
        import os, sys, artinsums
        out = {{"bare": ("numpy" in sys.modules, os.environ.get("OPENBLAS_NUM_THREADS"))}}
        import artinsums.cli
        out["lazy"] = [m for m in {lazy!r} if m in sys.modules]
        out["blas"] = os.environ.get("OPENBLAS_NUM_THREADS")
        if os.path.exists("/proc/self/status"):
            out["threads"] = open("/proc/self/status").read().split("Threads:")[1].split()[0]
        from artinsums import *
        out["missing"] = [name for name in artinsums.__all__ if name not in globals()]
        print(repr(out))"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=30, env=env)
    assert proc.returncode == 0, proc.stderr
    out = ast.literal_eval(proc.stdout)
    assert out["bare"] == (False, None)
    assert out["lazy"] == [] and out["missing"] == []
    assert out["blas"] == "1"
    code = "import os, artinsums.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=30, env={**env, "OPENBLAS_NUM_THREADS": "2"}
    )
    assert (proc.returncode, proc.stdout) == (0, "2\n"), proc.stderr
    if "threads" not in out:
        pytest.skip("no /proc/self/status to count threads")
    assert out["threads"] == "1"


def test_scan_with_state_never_loads_openssl(tmp_path):
    # a state file's sha256 comes from the interpreter's own module, not
    # from hashlib's OpenSSL (_hashlib, 3.6 MB of RSS), on write and resume
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = ["scan", "--cyclotomic", "4", "--xmax", "3000", "--state", str(tmp_path / "s.state")]
    argv += ["--out", os.devnull]
    code = "import sys; from artinsums import cli; "
    code += f"print(cli.main({argv!r}), cli.main({argv + ['--resume']!r}), '_hashlib' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=30, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "0", "False"]


def test_resume_keeps_the_segment_size_of_its_state(tmp_path, capsys, monkeypatch):
    # a state written at 2^16, the default before it grew with x, resumes
    # with no --segment-size at 2^16, to the stdout and the final state of
    # the whole scan at 2^16; an explicit size other than the state's exits 3
    x = 4_500_000
    assert series.default_segment_size(x) == 1 << 17
    argv = ["scan", "--cyclotomic", "4", "--xmax", str(x), "--checkpoints", "1000000"]
    whole, state = tmp_path / "whole.state", tmp_path / "scan.state"
    code, out, _ = run([*argv, "--segment-size", "65536", "--state", str(whole)], capsys)
    assert code == 0
    assert run(argv, capsys)[:2] == (0, out)
    monkeypatch.setattr(series, "_STATE_INTERVAL_S", 0)  # a state write after every segment
    real, calls = series._segment_partials, []

    def stop_after_twenty(*args):
        calls.append(args)
        if len(calls) > 20:
            raise KeyboardInterrupt
        return real(*args)

    with monkeypatch.context() as m:
        m.setattr(series, "_segment_partials", stop_after_twenty)
        with pytest.raises(KeyboardInterrupt):
            cli.main([*argv, "--segment-size", "65536", "--state", str(state)])
    assert "segment_size = 65536\n" in state.read_text()
    assert "snap.1000000.total" in state.read_text()
    assert run([*argv, "--state", str(state), "--resume"], capsys)[:2] == (0, out)
    assert state.read_bytes() == whole.read_bytes()
    code, _, err = run([*argv, "--segment-size", "131072", "--state", str(state), "--resume"], capsys)
    assert code == cli.EXIT_INTEGRITY and "segment_size" in err


def test_scan_ramified_rows_beyond_int64_discriminant(capsys):
    # x^2 + x + (2^63 + 1): disc = -(2^65 + 3) = -5 * 7 * ...
    disc = -(2**65 + 3)
    code, out, _ = run(["scan", "--poly", f"{2**63 + 1},1,1", "--xmax", "200"], capsys)
    assert code == 0
    _, rows = parse_csv(out)
    buckets = {r[1] for r in rows if r[1].startswith("ramified:")}
    assert buckets == {f"ramified:{p}" for p in range(2, 201) if disc % p == 0 and is_prime(p)}
    assert "ramified:7" in buckets


@pytest.mark.parametrize("c", [757, 2_524_266])
def test_scan_ramified_rows_above_isqrt_xmax(c, capsys):
    # disc(x^2 + x + c) = 1 - 4c is -3 * 1009 (cofactor 1009 <= x) or
    # -1009 * 10007 (composite cofactor > x); isqrt(x) = 100
    disc = 1 - 4 * c
    code, out, _ = run(["scan", "--poly", f"{c},1,1", "--xmax", "10000"], capsys)
    assert code == 0
    _, rows = parse_csv(out)
    buckets = {r[1] for r in rows if r[1].startswith("ramified:")}
    assert buckets == {f"ramified:{p}" for p in range(2, 10_001) if disc % p == 0 and is_prime(p)}
    assert "ramified:1009" in buckets


@pytest.mark.parametrize("xmax", [2**32, 10**30, 1])
def test_scan_xmax_beyond_limb_bound_exits_2(xmax, capsys):
    code, out, err = run(["scan", "--cyclotomic", "4", "--xmax", str(xmax)], capsys)
    assert (code, out) == (2, "")
    assert "outside [2, 4294967295]" in err


def test_scan_sieve_cache_holds_the_sieving_primes(tmp_path, capsys):
    # scan reads a cache of the primes up to isqrt(xmax)
    code, out, _ = run(["scan", "--cyclotomic", "4", "--xmax", "10000"], capsys)
    assert code == 0
    cache = tmp_path / "small.sieve"
    FactorSieve(99).save(cache)
    code, _, err = run(["scan", "--cyclotomic", "4", "--xmax", "10000", "--sieve-cache", str(cache)], capsys)
    assert code == 2 and "limit 99, need 100" in err
    FactorSieve(5000).save(cache)
    assert run(["scan", "--cyclotomic", "4", "--xmax", "10000", "--sieve-cache", str(cache)], capsys)[:2] == (0, out)


def test_reproduce_table_runs(tmp_path, capsys, sieve_big):
    # exercised through the library entry point; the command path is
    # covered by test_reproduce_table_command below
    report = cli.reproduce_table(sieve_big, threads=2)
    assert report.checkpoints == (20_000, 40_000, 80_000)
    assert set(report.rows) == {"3", "1+2", "1+1+1"}
    for row in report.rows.values():
        assert len(row["values"]) == 3
        assert all(math.isfinite(v) for v in row["values"])
        assert row["rounded"] == tuple(round(v, 3) for v in row["values"])
        assert row["deviation"] == tuple(
            abs(v - r) for v, r in zip(row["values"], row["reference"])
        )


def test_reproduce_table_command(tmp_path, capsys, monkeypatch):
    cache = str(tmp_path / "spf.sieve")
    code, out, _ = run(["reproduce-table", "--sieve-cache", cache], capsys)
    assert code == 0
    assert "OUT OF TOLERANCE" not in out
    assert out.count("[ok]") == len(cli.TABLE_REFERENCE)
    # a reference row the computed sums do not match fails the command
    monkeypatch.setitem(cli.TABLE_REFERENCE, "3", ("3-cycles", (0.250, 0.254, 0.265)))
    code, out, _ = run(["reproduce-table", "--sieve-cache", cache], capsys)
    assert code == cli.EXIT_CHECK_FAILED
    assert out.count("OUT OF TOLERANCE") == 1
