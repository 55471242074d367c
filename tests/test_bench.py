"""``scripts/bench.py``: the schema of the profile it writes, on one
suite and one run, its comparison of two such profiles, and its
independence from the benchmark's code."""

import ast
import hashlib
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "bench.py"
STATS = {"median_s", "min_s", "max_s", "iqr_s", "runs"}


def assert_stats(entry):
    assert STATS <= set(entry)
    assert entry["runs"] == 1 and entry["iqr_s"] == 0
    assert 0 < entry["min_s"] <= entry["median_s"] <= entry["max_s"]


def one_suite_one_run(tmp_path):
    out = tmp_path / "bench.json"
    subprocess.run([sys.executable, str(SCRIPT), "--out", str(out), "--suites", "exc_single",
                    "-k", "1"], cwd=tmp_path, check=True, capture_output=True)
    return out


@pytest.fixture(scope="module")
def profile(tmp_path_factory):
    return one_suite_one_run(tmp_path_factory.mktemp("bench"))


def test_one_suite_one_run_writes_the_schema(profile):
    record = json.loads(profile.read_text(encoding="utf-8"))
    assert set(record) == {"schema", "host", "k", "suites", "passes", "commands"}
    assert record["schema"] == 1 and record["k"] == 1
    host = record["host"]
    assert set(host) == {"cpu_count", "python", "numpy", "machine", "commit", "dirty",
                         "load_1min"}
    assert host["cpu_count"] >= 1 and len(host["load_1min"]) == 2
    # Outside a git checkout both are null.
    assert host["commit"] is None or re.fullmatch(r"[0-9a-f]{40}", host["commit"])
    assert host["dirty"] in (None, True, False)
    assert list(record["suites"]) == ["exc_single"]
    by_n = record["suites"]["exc_single"]
    assert sorted(by_n, key=int) == [str(n) for n in range(3, 9)]
    assert sum(entry["instances"] for entry in by_n.values()) == 36
    for entry in by_n.values():
        assert_stats(entry)
    kept = record["passes"]["exchange_caches_kept"]
    assert_stats(kept)
    assert kept["suites"] == ["exc_single"] and kept["instances"] == 36
    commands = record["commands"]
    assert set(commands) == {"check", "check_jobs2", "falsify", "import_cli"}
    for entry in commands.values():
        assert_stats(entry)
        assert len(entry["sha256"]) == 1 and re.fullmatch(r"[0-9a-f]{64}", entry["sha256"][0])
    assert commands["check"]["sha256"] == commands["check_jobs2"]["sha256"]
    assert commands["check_jobs2"]["args"] == ["-m", "mconcave", "check", "--jobs", "2"]
    assert commands["import_cli"]["args"] == ["-c", "import mconcave.cli"]
    assert commands["import_cli"]["sha256"] == [hashlib.sha256(b"").hexdigest()]


LINE = re.compile(r"(.+?) +(\d+\.\d{6}) -> (\d+\.\d{6}) s  delta ([+-]\d+\.\d{6}) s "
                  r"\([+-]\d+\.\d%\)  iqr (\d+\.\d{6}) s(  noise)?")


def compared(old, new):
    done = subprocess.run([sys.executable, str(SCRIPT), "--compare", str(old), str(new)],
                          check=True, capture_output=True, text=True)
    return [LINE.fullmatch(line).groups() for line in done.stdout.splitlines()]


def test_compare_prints_each_suite_and_command(profile, tmp_path):
    """``--compare`` of two one-suite k = 1 runs prints a line per n of the
    suite, then for the kept pass and per command: both medians, their change next to the
    larger IQR (0 at k = 1), and "noise" only where the change lies inside
    it; the outputs' sha256 agree, so no line says they differ. A run
    compared with itself is noise throughout."""
    second = one_suite_one_run(tmp_path)
    old, new = (json.loads(path.read_text(encoding="utf-8")) for path in (profile, second))
    entries = [(f"exc_single n={n}", old["suites"]["exc_single"][str(n)],
                new["suites"]["exc_single"][str(n)]) for n in range(3, 9)]
    entries += [("pass exchange_caches_kept", old["passes"]["exchange_caches_kept"],
                 new["passes"]["exchange_caches_kept"])]
    entries += [(name, old["commands"][name], new["commands"][name])
                for name in sorted(old["commands"])]
    rows = compared(profile, second)
    assert [row[0] for row in rows] == [label for label, _, _ in entries]
    for (label, a, b), (_, before, after, delta, iqr, noise) in zip(entries, rows):
        assert (float(before), float(after)) == (round(a["median_s"], 6), round(b["median_s"], 6))
        assert abs(float(delta) - (b["median_s"] - a["median_s"])) <= 1e-6
        assert float(iqr) == 0 and bool(noise) == (a["median_s"] == b["median_s"]), label
    assert all(row[5] for row in compared(profile, profile))


def test_imports_nothing_from_the_benchmark():
    tree = ast.parse(SCRIPT.read_text(encoding="utf-8"))
    names = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
             for alias in node.names]
    names += [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert names and not [name for name in names if name.split(".")[0] == "perfbench"]
