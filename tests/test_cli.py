import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from charvar import cli
from charvar.cli import main
from charvar.links import REDUCIBLE_SURFACE
from charvar.polynomials import from_json
from charvar.traces import GAMMA, X, Y, Z


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
    code, out, _ = run(capsys, "verify", "2", "--p", "4..5", "--seed", "11", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert [r["link"] for r in rows] == ["twobridge:4,3", "twobridge:5,3"]
    assert all(r["pass"] for r in rows)
    assert all(r["numeric_residual"] < 1e-6 for r in rows)


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


def test_no_cache_flag_ignores_corruption(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    os.makedirs(cache)
    with open(os.path.join(cache, "twobridge_4_3.json"), "w") as fh:
        fh.write("{not json")
    code, _, _ = run(capsys, "verify", "2", "--p", "4..4", "--cache-dir", cache, "--no-cache")
    assert code == 0


def test_verify_parallel_matches_serial(capsys):
    code1, out1, _ = run(capsys, "verify", "3", "--k", "0..2")
    code2, out2, _ = run(capsys, "verify", "3", "--k", "0..2", "--jobs", "2")
    assert code1 == code2 == 0
    assert out1 == out2


def test_verify_whitehead_cache_and_seed(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    argv = ("verify", "3", "--k", "0..1", "--seed", "11", "--cache-dir", cache,
            "--format", "json")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    rows = json.loads(out)
    assert [r["link"] for r in rows] == ["whitehead:0", "whitehead:1"]
    assert all(r["pass"] and r["numeric_residual"] < 1e-6 for r in rows)

    entry = os.path.join(cache, "twobridge_4_3.json")
    with open(entry) as fh:
        data = json.load(fh)
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

    monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
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


def test_python_dash_m_runs_the_cli():
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(root / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-m", "charvar", "verify", "1", "--m", "1..1", "--n", "2..2"],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "pass" in proc.stdout


def test_verify_point_limit_exit_2(capsys, monkeypatch):
    # the count is exact and checked before any point is built or run
    seen = []

    def record_only(fn, points, jobs):
        seen.append(len(points))
        return []

    monkeypatch.setattr(cli, "_run_points", record_only)
    limit = cli.MAX_VERIFY_POINTS
    assert limit == 10000
    within = (("1", "--m", "1..100", "--n", "1..100"), ("2", "--p", "1..15003"), ("3", "--k", "0..9999"))
    for argv in within:
        code, _, _ = run(capsys, "verify", *argv)
        assert code == 0
    assert seen == [limit] * 3
    beyond = (
        ("1", "--m", "1..100", "--n", "1..101"),
        ("1", "--m=-100000..100000", "--n=-100000..100000"),
        ("2", "--p", "1..15004"),
        ("3", "--k", "0..10000"),
        ("3", "--k", "0..1000000000000"),
    )
    for argv in beyond:
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2 and out == "" and "limit of %d" % limit in err
    assert seen == [limit] * 3
