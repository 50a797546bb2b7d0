import concurrent.futures
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from charvar import cli, varieties
from charvar.cli import main
from charvar.links import REDUCIBLE_SURFACE
from charvar.polynomials import from_json
from charvar.traces import GAMMA, X, Y, Z

from conftest import FACTOR_FAULTS, PLANTED_FAULTS, plant_full_fault, plant_pretzel_fault


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_trace_command(capsys):
    code, out, _ = run(capsys, "trace", "abAB")
    assert code == 0
    assert out.strip() == str(GAMMA)
    code, out, _ = run(capsys, "trace", "")
    assert code == 0 and out.strip() == "2"


def test_trace_parse_failure_exit_2(capsys):
    code, _, err = run(capsys, "trace", "ab?")
    assert code == 2
    assert "error" in err


def test_trace_json_round_trip(capsys):
    code, out, _ = run(capsys, "trace", "abAB", "--format", "json")
    assert code == 0
    assert from_json(json.loads(out)) == GAMMA


def test_charpoly_json_round_trip(capsys):
    code, out, _ = run(capsys, "charpoly", "twobridge:4,3", "--format", "json")
    assert code == 0
    poly = from_json(json.loads(out))
    q = X * Y - GAMMA * Z
    assert poly in (REDUCIBLE_SURFACE * q, -(REDUCIBLE_SURFACE * q))


def test_charpoly_invalid_link_exit_2(capsys):
    code, _, err = run(capsys, "charpoly", "twobridge:4,2")
    assert code == 2


def test_components_command(capsys):
    code, out, _ = run(capsys, "components", "pretzel:1,2")
    assert code == 0
    assert "3 components" in out
    code, out, _ = run(capsys, "components", "whitehead:2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["component_count"] == 3 and data["product_check"]


def test_verify_pretzel_small_range(capsys):
    code, out, _ = run(capsys, "verify", "1", "--m", "0..1", "--n=-1..2")
    assert code == 0
    lines = [l for l in out.splitlines() if l.strip()]
    assert len(lines) == 8
    assert all("pass" in l for l in lines)


def test_verify_whitehead_range(capsys):
    code, out, _ = run(capsys, "verify", "3", "--k", "0..8")
    assert code == 0
    lines = [l for l in out.splitlines() if "whitehead" in l]
    assert len(lines) == 9
    assert all("pass" in l for l in lines)


def test_components_detects_whitehead_twobridge(capsys):
    code, out, _ = run(capsys, "components", "twobridge:6,5")
    assert code == 0
    assert "3 components" in out


def test_verify_twobridge_with_seed_and_json(capsys):
    argv = ("verify", "2", "--p", "4..5", "--format", "json")
    code, out, err = run(capsys, *argv, "--seed", "11")
    assert code == 0 and err == ""
    rows = json.loads(out)
    assert [r["link"] for r in rows] == ["twobridge:4,3", "twobridge:5,3"]
    assert all(r["pass"] and r["notes"] == [] for r in rows)
    # a passing seeded fingerprint adds nothing to a row
    assert (code, out) == run(capsys, *argv)[:2]


def test_cache_round_trip_and_corruption(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    code, out1, _ = run(capsys, "charpoly", "twobridge:4,3", "--cache-dir", cache)
    assert code == 0
    entry = os.path.join(cache, "twobridge_4_3.json")
    assert os.path.exists(entry)
    # second run reads the cache and agrees
    code, out2, _ = run(capsys, "charpoly", "twobridge:4,3", "--cache-dir", cache)
    assert code == 0 and out1 == out2

    # corrupt one coefficient: verify must fail with exit 1, not pass silently
    with open(entry) as fh:
        data = json.load(fh)
    data["full"]["terms"][0]["coeff"] = str(int(data["full"]["terms"][0]["coeff"]) + 1)
    with open(entry, "w") as fh:
        json.dump(data, fh)
    code, out, _ = run(capsys, "verify", "2", "--p", "4..4", "--cache-dir", cache)
    assert code == 1
    assert "FAIL" in out

    # unparseable cache entry also fails loudly
    with open(entry, "w") as fh:
        fh.write("{not json")
    code, _, err = run(capsys, "verify", "2", "--p", "4..4", "--cache-dir", cache)
    assert code == 1
    assert "corrupt" in err


@pytest.mark.parametrize("link, name", [("twobridge:5,3", "twobridge_5_3.json"),
                                        ("whitehead:3", "twobridge_8_7.json")])
def test_charpoly_checks_cache_hits_by_fingerprint(tmp_path, capsys, link, name):
    cache = str(tmp_path / "cache")
    entry = os.path.join(cache, name)
    code, miss, _ = run(capsys, "charpoly", link, "--format", "json", "--cache-dir", cache)
    assert code == 0
    # an honest hit prints the miss's bytes
    code, hit, _ = run(capsys, "charpoly", link, "--format", "json", "--cache-dir", cache)
    assert code == 0 and hit == miss
    with open(entry) as fh:
        honest = json.load(fh)
    full = from_json(honest["full"])

    def rewrite(terms):
        with open(entry, "w") as fh:
            json.dump(dict(honest, full=dict(honest["full"], terms=terms)), fh)

    # a negated entry is the same polynomial up to sign, printed as found
    rewrite((-full).to_json()["terms"])
    code, out, _ = run(capsys, "charpoly", link, "--cache-dir", cache)
    assert code == 0 and out.strip() == str(-full)
    # one changed coefficient fails the fingerprint: exit 1, nothing printed
    terms = [dict(t) for t in honest["full"]["terms"]]
    terms[-1]["coeff"] = str(int(terms[-1]["coeff"]) + 1)
    rewrite(terms)
    code, out, err = run(capsys, "charpoly", link, "--format", "json", "--cache-dir", cache)
    assert code == 1 and out == ""
    assert "fingerprint" in err


def test_verify_parallel_matches_serial(capsys):
    # rows cross the process boundary in the form they are printed in
    for fmt in ("text", "json"):
        argv = ("verify", "3", "--k", "0..2", "--format", fmt)
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv, "--jobs", "2")
        assert code1 == code2 == 0
        assert out1 == out2


def test_text_verify_serializes_no_report(capsys, monkeypatch):
    def refuse(self):
        raise RuntimeError("to_json called")

    monkeypatch.setattr(varieties.ComponentReport, "to_json", refuse)
    for argv in (("verify", "1", "--m", "0..1", "--n=-1..2"), ("verify", "3", "--k", "0..2")):
        code, out, err = run(capsys, *argv)
        assert code == 0 and err == "" and out.count(" pass\n") == len(out.splitlines()) > 0
        with pytest.raises(RuntimeError, match="to_json called"):
            run(capsys, *argv, "--format", "json")


def test_verify_whitehead_cache_and_seed(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    argv = ("verify", "3", "--k", "0..1", "--seed", "11", "--cache-dir", cache,
            "--format", "json")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    rows = json.loads(out)
    assert [r["link"] for r in rows] == ["whitehead:0", "whitehead:1"]
    assert all(r["pass"] and r["notes"] == [] for r in rows)

    # a hit is compared up to sign: the negated entry still passes
    entry = os.path.join(cache, "twobridge_4_3.json")
    with open(entry) as fh:
        data = json.load(fh)
    for term in data["full"]["terms"]:
        term["coeff"] = str(-int(term["coeff"]))
    with open(entry, "w") as fh:
        json.dump(data, fh)
    code, out, _ = run(capsys, *argv)
    assert code == 0 and all(r["pass"] for r in json.loads(out))

    data["full"]["terms"][0]["coeff"] = str(int(data["full"]["terms"][0]["coeff"]) + 1)
    with open(entry, "w") as fh:
        json.dump(data, fh)
    code, out, _ = run(capsys, *argv)
    assert code == 1
    rows = json.loads(out)
    assert rows[0]["pass"] and not rows[1]["pass"]
    assert "cached polynomial mismatch" in rows[1]["notes"]


def test_cache_entry_under_wrong_key_exit_1(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    for link in ("twobridge:4,3", "twobridge:5,3"):
        code, _, _ = run(capsys, "charpoly", link, "--cache-dir", cache)
        assert code == 0
    shutil.copy(os.path.join(cache, "twobridge_5_3.json"),
                os.path.join(cache, "twobridge_4_3.json"))
    code, out, err = run(capsys, "charpoly", "twobridge:4,3", "--cache-dir", cache)
    assert code == 1
    assert out == "" and "(5, 3), not (4, 3)" in err
    with open(os.path.join(cache, "twobridge_4_3.json"), "w") as fh:
        fh.write("[4, 3]")
    code, _, err = run(capsys, "charpoly", "twobridge:4,3", "--cache-dir", cache)
    assert code == 1 and "malformed" in err


def test_cache_entry_with_a_bad_term_exit_1(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    code, _, _ = run(capsys, "charpoly", "twobridge:4,3", "--cache-dir", cache)
    assert code == 0
    entry = os.path.join(cache, "twobridge_4_3.json")
    with open(entry) as fh:
        good = json.load(fh)
    for field, value in (("exp", [1, -1, 0]), ("exp", [1, 0]), ("coeff", "1.5")):
        data = json.loads(json.dumps(good))
        data["full"]["terms"][0][field] = value
        with open(entry, "w") as fh:
            json.dump(data, fh)
        code, out, err = run(capsys, "charpoly", "twobridge:4,3", "--cache-dir", cache)
        assert code == 1 and out == "" and "malformed" in err, (field, value, err)


def _first_term(full, test):
    return next(t for t in full["terms"] if test(t))


def _exp_as_digits(full):
    term = _first_term(full, lambda t: max(t["exp"]) < 10)
    term["exp"] = "".join(map(str, term["exp"]))


def _exp_as_floats(full):
    full["terms"][0]["exp"] = [float(e) for e in full["terms"][0]["exp"]]


def _exp_as_bools(full):
    term = _first_term(full, lambda t: set(t["exp"]) <= {0, 1})
    term["exp"] = [bool(e) for e in term["exp"]]


def _coeff_as_float(full):
    term = _first_term(full, lambda t: int(t["coeff"]) > 0)
    term["coeff"] = int(term["coeff"]) + 0.9


def _coeff_as_bool(full):
    _first_term(full, lambda t: t["coeff"] == "1")["coeff"] = True


@pytest.mark.parametrize("plant", [
    lambda full: full.update(vars="".join(full["vars"])),
    _exp_as_digits,
    _exp_as_floats,
    _exp_as_bools,
    _coeff_as_float,
    _coeff_as_bool,
], ids=["vars-string", "exp-string", "exp-floats", "exp-bools", "coeff-float", "coeff-bool"])
def test_cache_entry_with_a_mistyped_field_exit_1(tmp_path, capsys, plant):
    # each planted entry has the honest values, read leniently: only a type is wrong
    cache = str(tmp_path / "cache")
    code, _, _ = run(capsys, "charpoly", "twobridge:5,3", "--cache-dir", cache)
    assert code == 0
    entry = os.path.join(cache, "twobridge_5_3.json")
    with open(entry) as fh:
        data = json.load(fh)
    honest = from_json(data["full"])
    plant(data["full"])
    lenient = {tuple(map(int, t["exp"])): int(t["coeff"]) for t in data["full"]["terms"]}
    assert tuple(data["full"]["vars"]) == honest.ring.names
    assert honest.ring.from_terms(lenient) == honest
    with open(entry, "w") as fh:
        json.dump(data, fh)
    code, out, err = run(capsys, "charpoly", "twobridge:5,3", "--cache-dir", cache)
    assert code == 1 and out == "" and "malformed" in err, err


def test_cache_entry_with_int_coefficients_is_accepted(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    code, miss, _ = run(capsys, "charpoly", "twobridge:5,3", "--cache-dir", cache)
    assert code == 0
    entry = os.path.join(cache, "twobridge_5_3.json")
    with open(entry) as fh:
        data = json.load(fh)
    full = from_json(data["full"])
    terms = data["full"]["terms"]
    for sign, expected in ((1, miss), (-1, "%s\n" % -full)):
        data["full"]["terms"] = [dict(t, coeff=sign * int(t["coeff"])) for t in terms]
        with open(entry, "w") as fh:
            json.dump(data, fh)
        code, out, _ = run(capsys, "charpoly", "twobridge:5,3", "--cache-dir", cache)
        assert code == 0 and out == expected


def test_cache_entry_with_a_huge_exponent_exit_1(tmp_path, capsys):
    # the fingerprint's power tables would grow with the exponent: the
    # entry is refused by the word's weight before any is built
    cache = str(tmp_path / "cache")
    code, _, _ = run(capsys, "charpoly", "twobridge:5,3", "--cache-dir", cache)
    assert code == 0
    entry = os.path.join(cache, "twobridge_5_3.json")
    with open(entry) as fh:
        data = json.load(fh)
    data["full"]["terms"][0]["exp"][0] = 10**9
    with open(entry, "w") as fh:
        json.dump(data, fh)
    start = time.perf_counter()
    code, out, err = run(capsys, "charpoly", "twobridge:5,3", "--cache-dir", cache)
    assert code == 1 and out == ""
    assert "exponent 1000000000, above 12, the weight of its relator word" in err
    assert time.perf_counter() - start < 5


def test_cache_entry_in_other_variables_exit_1(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    code, _, _ = run(capsys, "charpoly", "twobridge:4,3", "--cache-dir", cache)
    assert code == 0
    entry = os.path.join(cache, "twobridge_4_3.json")
    with open(entry) as fh:
        data = json.load(fh)
    data["full"]["vars"] = ["q", "r", "s"]
    with open(entry, "w") as fh:
        json.dump(data, fh)
    code, out, err = run(capsys, "charpoly", "twobridge:4,3", "--cache-dir", cache)
    assert code == 1
    assert out == "" and "malformed" in err and "'q', 'r', 's'" in err


def test_cache_write_leaves_no_partial_entry(tmp_path, monkeypatch):
    cache = str(tmp_path / "cache")
    cli.cached_char_poly(4, 3, cache)
    assert os.listdir(cache) == ["twobridge_4_3.json"]

    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError):
        cli.cached_char_poly(5, 3, cache)
    assert os.listdir(cache) == ["twobridge_4_3.json"]


def test_verify_rejects_jobs_below_one(capsys):
    for jobs in ("0", "-3"):
        code, _, err = run(capsys, "verify", "3", "--k", "0..1", "--jobs", jobs)
        assert code == 2 and "--jobs" in err


def test_verify_jobs_capped_by_points_and_cpus(capsys, monkeypatch):
    requested = []

    class SerialPool:
        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, points):
            return map(fn, points)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    code, _, _ = run(capsys, "verify", "3", "--k", "0..2", "--jobs", "64")
    assert code == 0 and requested == [3]
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    code, _, _ = run(capsys, "verify", "3", "--k", "0..2", "--jobs", "64")
    assert code == 0 and requested == [3, 2]
    code, _, _ = run(capsys, "verify", "3", "--k", "0..0", "--jobs", "64")
    assert code == 0 and requested == [3, 2]  # one point runs in-process


def test_verify_with_no_points_exit_2(capsys):
    # b(2p, 3) needs p > 3 and 3 not dividing p, so neither range has a point
    for argv in (("--p", "6..6"), ("--p", "3..3", "--format", "json")):
        code, out, err = run(capsys, "verify", "2", *argv)
        assert code == 2 and out == "" and "no point" in err


def test_trace_weight_limit_exit_2(capsys):
    code, out, err = run(capsys, "trace", "a^100000")
    assert code == 2 and out == "" and "weight 100000" in err
    limit = cli.MAX_TRACE_WEIGHT
    code, _, err = run(capsys, "trace", "(ab)^%d" % (limit // 2 + 1))
    assert code == 2 and "limit" in err
    code, out, _ = run(capsys, "trace", "a^%d" % limit)
    assert code == 0 and out.strip()
    # a parenthesized power is refused before its copies are built
    for word, what in (
        ("(ab)^1000000000", "power ^1000000000"),
        ("((ab)^100000)^100000", "power ^100000"),
        ("(a^1000000000 b)^2", "block weight 1000000001"),
    ):
        code, out, err = run(capsys, "trace", word)
        assert code == 2 and out == "" and what in err and "limit of %d" % limit in err
    # (abA)^k reduces to a b^k A: a power is measured after free
    # reduction, not as k times the block's weight
    code, out, _ = run(capsys, "trace", "(abA)^%d" % (limit - 2))
    assert code == 0 and out.strip()


def _cli_env():
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(root / "src"), env.get("PYTHONPATH")])
    )
    return env


def test_python_dash_m_runs_the_cli():
    proc = subprocess.run(
        [sys.executable, "-m", "charvar", "verify", "1", "--m", "1..1", "--n", "2..2"],
        env=_cli_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "pass" in proc.stdout


def test_importing_cli_loads_no_process_pool():
    # only `verify --jobs N` with more than one worker needs the pool
    probe = ("import sys, charvar.cli; "
             "print(sorted(m for m in ('concurrent.futures', 'multiprocessing') "
             "if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", probe], env=_cli_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# sha256 of `charvar verify N --format json` at the default ranges, recorded
# when the output went compact (no indent); a change that alters the output
# on purpose updates the digest and says so in CHANGES.md
VERIFY_JSON_SHA256 = {
    "1": "f52ab0713f89c22a49de48d780f4ca4d4e822aa3121427d65934fe00f68394cd",
    "2": "e5663beb3d9963068882eb36bc3555e9f6dc2af1f5ede04b058a1a2e20417c93",
    "3": "7298923c239b493c09edf3f96f409110bece82bec41071101c7b5e6325dffbce",
}

# sha256 of the same output as it was printed with indent=2 (recorded at
# commit adb1389): the compact rows, indented again, must give these bytes
VERIFY_INDENTED_JSON_SHA256 = {
    "1": "0f7da88edca6c0fb58f374642656e35fd0dd08ef87584f5a2c80d10cfa56c3d1",
    "2": "6f99c37b0315887f11111c2f51376488923331f815c9b41c29e2a1eacccf345c",
    "3": "b80f305fdff8f3b6657bb0483eb6523db54cf3d373ffefa0f6ac1f6915b43e9c",
}


# sha256 of `charvar verify ... --format json` at each family's CLI limit,
# recorded at commit ca683d3: the default ranges stop at W_10, and the long
# Chebyshev ladders run only past it
VERIFY_LIMIT_JSON_SHA256 = {
    ("3", "--k", "0..24"): "a83aeb05738f2cfb889cc1b9c44dd15c59a5b3d85e77335a60cc480d29b059e5",
    ("1", "--m=-5..5", "--n=-5..5"):
        "a60932948980f88ea335ddcff0a211ceda204384369f1110fda53b86e593cf49",
    ("2", "--p", "4..37"): "bdd91bb5d783bb21f5732ddece4b9f1205bc2bb303b6bef189e9836add9489f9",
}


@pytest.mark.parametrize("args", sorted(VERIFY_LIMIT_JSON_SHA256), ids=" ".join)
def test_verify_json_output_at_the_limits_is_pinned(args):
    proc = subprocess.run(
        [sys.executable, "-m", "charvar", "verify", *args, "--format", "json"],
        env=_cli_env(),
        capture_output=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == VERIFY_LIMIT_JSON_SHA256[args]


@pytest.mark.parametrize("family", sorted(VERIFY_JSON_SHA256))
def test_verify_json_output_is_pinned(family):
    proc = subprocess.run(
        [sys.executable, "-m", "charvar", "verify", family, "--format", "json"],
        env=_cli_env(),
        capture_output=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == VERIFY_JSON_SHA256[family]


@pytest.mark.parametrize("family", sorted(VERIFY_INDENTED_JSON_SHA256))
def test_verify_json_rows_are_those_of_the_indented_output(capsys, family):
    code, out, _ = run(capsys, "verify", family, "--format", "json")
    assert code == 0
    indented = json.dumps(json.loads(out), indent=2) + "\n"
    assert hashlib.sha256(indented.encode()).hexdigest() == VERIFY_INDENTED_JSON_SHA256[family]


def test_concurrent_cache_writers_leave_one_valid_entry(tmp_path, capsys):
    # four fresh processes miss together and each renames its own temporary
    # file over the same entry
    cache = tmp_path / "cache"
    argv = [sys.executable, "-m", "charvar", "charpoly", "twobridge:21,13",
            "--cache-dir", str(cache)]
    procs = [subprocess.Popen(argv, env=_cli_env(), stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE) for _ in range(4)]
    results = [proc.communicate(timeout=120) for proc in procs]
    assert [proc.returncode for proc in procs] == [0] * 4, [err for _, err in results]
    outs = {out for out, _ in results}
    assert len(outs) == 1
    assert [p.name for p in cache.iterdir()] == ["twobridge_21_13.json"]
    data = json.loads((cache / "twobridge_21_13.json").read_text())
    assert (data["engine"], data["p"], data["m"]) == (cli.ENGINE_VERSION, 21, 13)
    assert str(from_json(data["full"])) + "\n" == outs.pop().decode()
    # and a hit, which is fingerprinted, prints the same polynomial
    code, out, _ = run(capsys, "charpoly", "twobridge:21,13", "--cache-dir", str(cache))
    assert code == 0 and out == str(from_json(data["full"])) + "\n"


def test_verify_point_limit_exit_2(capsys, monkeypatch):
    # listing a range stops at its first link above the family's limit,
    # however many points the range has, and nothing is run
    seen = []

    def record_only(fn, points, jobs):
        seen.append(len(points))
        return []

    monkeypatch.setattr(cli, "_run_points", record_only)
    for argv in (
        ("1", "--m", "1..100", "--n", "1..100"),
        ("2", "--p", "1..15003"),
        ("3", "--k", "0..9999"),
        ("1", "--m", "1..100", "--n", "1..101"),
        ("1", "--m=-100000..100000", "--n=-100000..100000"),
        ("2", "--p", "1..15004"),
        ("3", "--k", "0..10000"),
        ("3", "--k", "0..1000000000000"),
    ):
        t0 = time.perf_counter()
        code, out, err = run(capsys, "verify", *argv)
        assert time.perf_counter() - t0 < 1.0, argv
        assert code == 2 and out == "" and "is above the limit of" in err, argv
    assert seen == []


def test_verify_largest_ranges_run_every_point(capsys, monkeypatch):
    seen = []

    def record_only(fn, points, jobs):
        seen.append(len(points))
        return []

    monkeypatch.setattr(cli, "_run_points", record_only)
    for argv in (("1", "--m=-5..5", "--n=-5..5"), ("2", "--p", "4..37"), ("3", "--k", "0..24")):
        assert run(capsys, "verify", *argv)[0] == 0
    assert seen == [121, 23, 25]
    # one point more names the first link past the limit
    for argv, link in (
        (("1", "--m=-5..5", "--n=-5..6"), "pretzel:-5,6: "),
        (("2", "--p", "4..38"), "twobridge:38,3: "),
        (("3", "--k", "0..25"), "whitehead:25: "),
    ):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2 and out == "" and "error: " + link in err, argv
    assert seen == [121, 23, 25]


class Built(Exception):
    pass


def stub_builders(monkeypatch):
    """Make every polynomial builder the CLI reaches record its call and raise."""
    calls = []

    def stub(name):
        def builder(*args):
            calls.append((name,) + args)
            raise Built(name)

        return builder

    for module, name in (
        (cli.links, "pretzel_char_poly"),
        (cli.links, "char_poly_twobridge"),
        (cli.varieties, "count_components_pretzel"),
        (cli.varieties, "verify_twobridge3"),
        (cli.varieties, "verify_twisted_whitehead"),
    ):
        monkeypatch.setattr(module, name, stub(name))
    return calls


def test_link_limits_exit_2_before_any_build(capsys, monkeypatch):
    calls = stub_builders(monkeypatch)
    for argv, limit in (
        (("components", "pretzel:10,10"), "max(|m|, |n|) = 10 is above the limit of 5"),
        (("charpoly", "pretzel:50,50"), "max(|m|, |n|) = 50 is above the limit of 5"),
        (("components", "whitehead:100000"), "k = 100000 is above the limit of 24"),
        (("charpoly", "pretzel:3,100000"), "max(|m|, |n|) = 100000 is above"),
        (("verify", "2", "--p", "100000..100001"), "p = 100000 is above the limit of 37"),
        (("verify", "3", "--k", "5000..5000"), "k = 5000 is above the limit of 24"),
        (("components", "pretzel:7,7"), "max(|m|, |n|) = 7 is above"),
        (("components", "pretzel:-6,-6"), "max(|m|, |n|) = 6 is above"),
        (("components", "whitehead:30"), "k = 30 is above"),
        (("charpoly", "twobridge:1000,3"), "p = 1000 is above"),
        (("charpoly", "twobridge:38,21"), "p = 38 is above"),
        (("components", "twobridge:62,61"), "p = 62 is above"),
        # every point of a range is checked before the first is built
        (("verify", "1", "--m=-5..6", "--n", "0..0"), "pretzel:6,0: max(|m|, |n|) = 6"),
        (("verify", "1", "--m", "0..0", "--n=-6..-5"), "pretzel:0,-6: max(|m|, |n|) = 6"),
        (("verify", "2", "--p", "4..38"), "twobridge:38,3: p = 38 is above"),
        (("verify", "3", "--k", "0..25", "--jobs", "2"), "whitehead:25: k = 25 is above"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and limit in err, (argv, err)
    assert calls == []


def test_verify_negative_seed_exit_2_before_any_build(capsys, monkeypatch):
    calls = stub_builders(monkeypatch)
    for argv in (
        ("verify", "1", "--seed", "-5"),
        ("verify", "2", "--p", "4..5", "--seed", "-1"),
        ("verify", "2", "--p", "10..11", "--seed", "-1"),
        ("verify", "3", "--k", "0..1", "--seed", "-5"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and "--seed" in err, (argv, err)
    assert calls == []


def test_link_limits_accept_the_limit(capsys, monkeypatch):
    calls = stub_builders(monkeypatch)
    for argv, call in (
        (("charpoly", "pretzel:-5,5"), ("pretzel_char_poly", -5, 5)),
        (("components", "pretzel:5,-5"), ("count_components_pretzel", 5, -5)),
        (("charpoly", "twobridge:37,31"), ("char_poly_twobridge", 37, 31)),
        (("charpoly", "whitehead:24"), ("char_poly_twobridge", 50, 49)),
        (("components", "twobridge:37,3"), ("verify_twobridge3", 37)),
        (("components", "whitehead:24"), ("verify_twisted_whitehead", 24)),
        (("verify", "1", "--m=-5..5", "--n=5..5"), ("count_components_pretzel", -5, 5)),
        (("verify", "2", "--p", "37..37"), ("verify_twobridge3", 37)),
        (("verify", "3", "--k", "24..24"), ("verify_twisted_whitehead", 24)),
    ):
        with pytest.raises(Built):
            main(list(argv))
        assert calls.pop() == call and calls == [], argv
    # the default ranges and the largest range in each family pass the check
    for argv in (
        ("verify", "1"),
        ("verify", "2"),
        ("verify", "3"),
        ("verify", "1", "--m=-5..5", "--n=-5..5"),
        ("verify", "2", "--p", "4..37"),
        ("verify", "3", "--k", "0..24"),
    ):
        with pytest.raises(Built):
            main(list(argv))
        assert len(calls) == 1, argv
        calls.clear()
    # the limits are the CLI's: the link catalog stays total
    assert str(cli.links.parse_link("pretzel:50,-50")) == "pretzel:50,-50"


def test_trace_deep_nesting_exit_2(capsys):
    code, out, err = run(capsys, "trace", "(" * 1200 + "a" + ")" * 1200)
    assert code == 2 and out == "" and "nested too deeply" in err


def test_unusable_cache_dir_exit_2(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    cache = str(blocker / "cache")
    for argv in (("charpoly", "twobridge:4,3"), ("verify", "2", "--p", "4..4")):
        code, out, err = run(capsys, *argv, "--cache-dir", cache)
        assert code == 2 and out == "" and err.startswith("error: "), argv


def test_empty_cache_dir_exit_2(tmp_path, capsys, monkeypatch):
    # an empty --cache-dir is refused the same way by both commands,
    # before anything is read, written or skipped
    monkeypatch.chdir(tmp_path)
    for argv in (("charpoly", "twobridge:4,3"), ("verify", "2", "--p", "4..4")):
        code, out, err = run(capsys, *argv, "--cache-dir=")
        assert code == 2 and out == "", argv
        assert err == "error: --cache-dir must not be empty\n", argv
    assert list(tmp_path.iterdir()) == []


def test_components_checks_the_paper_count(capsys, monkeypatch):
    true_count = cli.varieties.pretzel_table_count
    monkeypatch.setattr(cli.varieties, "pretzel_table_count",
                        lambda m, n: true_count(m, n) + 1)
    code, out, err = run(capsys, "components", "pretzel:1,2")
    assert code == 1
    assert "3 components" in out and "paper's count is 4" in err


def test_verify_huge_negative_twobridge_bounds(capsys, monkeypatch):
    t0 = time.perf_counter()
    code, out, err = run(capsys, "verify", "2", "--p=-1000000000000..3")
    assert code == 2 and out == "" and "no point" in err
    assert time.perf_counter() - t0 < 1.0
    seen = []

    def record_only(fn, points, jobs):
        seen.extend(str(link) for link in points)
        return []

    monkeypatch.setattr(cli, "_run_points", record_only)
    code, _, _ = run(capsys, "verify", "2", "--p=-1000000000000..5")
    assert code == 0 and seen == ["twobridge:4,3", "twobridge:5,3"]


def test_verify_seed_prints_nothing_more_on_every_family(capsys):
    # every row of every family uses the seed, at any p, and a passing
    # fingerprint adds nothing to stdout or stderr
    for argv in (("verify", "1", "--m", "0..1", "--n=-1..3"),
                 ("verify", "2", "--p", "10..11"),
                 ("verify", "3", "--k", "4..4", "--format", "json")):
        code, out, err = run(capsys, *argv, "--seed", "3")
        assert (code, out, err) == run(capsys, *argv) and code == 0 and err == "", argv


def test_verify_seed_reruns_the_fingerprint_at_its_own_pair(monkeypatch, capsys):
    # a fingerprint that fails only away from the report's pair
    fingerprint = cli.varieties.relator_fingerprint
    seeds = []

    def planted(w, poly, seed=cli.varieties.FINGERPRINT_SEED):
        seeds.append(seed)
        return seed == cli.varieties.FINGERPRINT_SEED and fingerprint(w, poly, seed)

    monkeypatch.setattr(cli.varieties, "relator_fingerprint", planted)
    code, out, err = run(capsys, "verify", "2", "--p", "10..10")
    assert code == 0 and "pass" in out and err == ""
    assert seeds == [cli.varieties.FINGERPRINT_SEED]
    code, out, err = run(capsys, "verify", "2", "--p", "10..10", "--seed", "3")
    assert code == 1 and "FAIL" in out and err == ""
    code, out, _ = run(capsys, "verify", "2", "--p", "10..10", "--seed", "3", "--format", "json")
    (row,) = json.loads(out)
    assert code == 1 and not row["pass"] and row["product_check"]
    assert row["notes"] == ["defining polynomial fails its mod-P fingerprint at --seed 3"]


@pytest.mark.parametrize("fault", PLANTED_FAULTS.values(), ids=list(PLANTED_FAULTS))
def test_verify_exits_1_on_a_planted_variant_fault(monkeypatch, capsys, fault):
    # the fault is planted in the word polynomial the report holds
    plant_full_fault(monkeypatch, fault)
    code, out, _ = run(capsys, "verify", "2", "--p", "10..10")
    assert code == 1
    assert "product=False" in out and "FAIL" in out
    # charpoly checks the memo-served polynomial it prints, with no cache too
    code, out, err = run(capsys, "charpoly", "twobridge:10,3")
    assert code == 1 and out == "" and "fingerprint" in err


PRETZEL_FAULT_ROWS = ["pretzel:2,3", "pretzel:-5,-5", "pretzel:0,4", "pretzel:3,0",
                      "pretzel:4,-1", "pretzel:1,5"]


def test_charpoly_checks_the_pretzel_closed_form(capsys):
    for link in PRETZEL_FAULT_ROWS[:2]:
        code, out, err = run(capsys, "charpoly", link)
        assert code == 0 and out.strip() and err == "", link


@pytest.mark.usefixtures("planted_pretzel_fault")
def test_charpoly_and_seeded_verify_exit_1_on_a_planted_pretzel_fault(capsys):
    # a closed form wrong on every row: charpoly prints it with no factor
    # list to compare, so the relator word alone must refuse it
    for link in PRETZEL_FAULT_ROWS:
        code, out, err = run(capsys, "charpoly", link, "--format", "json")
        assert code == 1 and out == "", link
        assert err == "error: the polynomial of %s fails its mod-P fingerprint\n" % link
    code, out, _ = run(capsys, "verify", "1", "--m", "2..2", "--n", "3..3", "--seed", "3",
                       "--format", "json")
    (row,) = json.loads(out)
    assert code == 1 and not row["pass"]
    assert row["notes"] == ["defining polynomial fails its mod-P fingerprint at --seed 3"]


def test_a_planted_pretzel_fault_is_caught_with_warm_q_rows(capsys):
    # rows of Q in all three coordinate rings, filled before the fault
    for m in range(-2, 4):
        for n in range(-2, 4):
            varieties.count_components_pretzel(m, n)
    with plant_pretzel_fault():
        code, out, _ = run(capsys, "charpoly", "pretzel:2,3")
        assert code == 1 and out == ""
        code, out, _ = run(capsys, "verify", "1", "--m=2..2", "--n=3..3", "--seed", "7")
        assert code == 1 and out.rstrip().endswith("FAIL")
    # no row kept a planted value
    assert varieties.count_components_pretzel(2, 3).ok()
    code, out, _ = run(capsys, "charpoly", "pretzel:2,3")
    assert code == 0 and out.strip()


def test_verification_never_builds_the_conjugate_variant(monkeypatch, capsys):
    def refuse(p, m):
        raise AssertionError("char_poly_variants(%d, %d) called" % (p, m))

    monkeypatch.setattr(cli.links, "char_poly_variants", refuse)
    for rep in (cli.varieties.verify_twobridge3(5), cli.varieties.verify_twisted_whitehead(2)):
        assert rep.ok() and rep.notes == [], rep.link
    code, out, _ = run(capsys, "verify", "2", "--p", "10..10")
    assert code == 0 and "pass" in out


@pytest.mark.parametrize("name", list(FACTOR_FAULTS))
def test_components_and_verify_exit_1_on_a_planted_factor_fault(monkeypatch, capsys, name):
    plant, specs = FACTOR_FAULTS[name]
    plant(monkeypatch)
    for spec in specs:
        code, out, _ = run(capsys, "components", spec)
        assert code == 1 and "product_check=False" in out, spec
    if specs[0].startswith("whitehead"):
        argv = ("verify", "3", "--k", "0..6")
    else:
        argv = ("verify", "1", "--m=-3..2", "--n=-3..3")
    code, out, _ = run(capsys, *argv)
    assert code == 1
    for spec in specs:
        (row,) = [line for line in out.splitlines() if line.split()[0] == spec]
        assert "product=False" in row and "FAIL" in row, row
