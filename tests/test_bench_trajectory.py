"""The BENCH_*.json timing script on a tiny configuration, so that it cannot rot."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def bench(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_trajectory", ROOT / "tools" / "bench_trajectory.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    monkeypatch.setattr(mod, "REPEAT", 2)
    monkeypatch.setattr(sys, "path", list(sys.path))  # main prepends the tree's src
    monkeypatch.setattr(mod, "ENTRIES", {
        "analyze-gold-m5": mod._analyze("--family", "gold", "--m", "5", "--i", "1"),
        "analyze-random-lut-m5": mod._analyze(mod._random_lut_arg(5, "function")),
        "analyze-random-lut-m13": mod._analyze(mod._random_lut_arg(13, "permutation")),
        "analyze-ea-cube-lut-m5": mod._analyze(mod._ea_cube_lut_arg(5)),
        "verify-thm1-m5": ["verify", "thm1", "--m", "5"],
        "remark4-lut-gold-m4": ["verify", "remark4", "--lut", mod._family_lut_arg("gold", 4, 1)],
    })
    return mod


def test_bench_script_records_entries_stages_host_and_skips(bench, tmp_path):
    out = tmp_path / "BENCH.json"
    argv = ["--src", str(ROOT), "--out", str(out)]
    assert bench.main([*argv, "--label", "a", "--skip", "analyze-random-lut-m13"]) == 0
    assert bench.main([*argv, "--label", "b", "--skip", "analyze-random-lut-m13",
                       "--skip", "verify-thm1-m5"]) == 0
    data = json.loads(out.read_text())
    assert set(data["sides"]) == {"a", "b"}  # the second run adds a side, keeping the first
    side = data["sides"]["a"]
    assert side["repeat"] == 2
    assert side["skipped"] == ["analyze-random-lut-m13"]
    assert set(side["entries"]) == {"analyze-gold-m5", "analyze-random-lut-m5", "analyze-ea-cube-lut-m5",
                                    "verify-thm1-m5", "remark4-lut-gold-m4"}
    lut = side["entries"]["analyze-random-lut-m5"]
    assert lut["exit_codes"] == [0] and lut["command"].endswith("random-function5.lut --timing")
    ea = side["entries"]["analyze-ea-cube-lut-m5"]
    assert ea["exit_codes"] == [0] and ea["command"].endswith("ea-cube5.lut --timing")
    gold = side["entries"]["analyze-gold-m5"]
    assert len(gold["runs_s"]) == 2 and gold["median_s"] > 0
    assert gold["exit_codes"] == [0] and gold["spectra_from"] == "table"
    assert set(gold["stages_median_ms"]) == {"build", "io", "walsh", "differential", "degree_witness"}
    assert side["entries"]["verify-thm1-m5"]["last_line"] == "ok   graph witness identities"
    gold4 = side["entries"]["remark4-lut-gold-m4"]
    assert gold4["command"].endswith("gold4-i1.lut") and gold4["exit_codes"] == [0]
    assert gold4["last_line"].startswith("ok   no linear completion")
    host = side["host"]
    assert {"cpu_count", "python", "numpy", "blas", "blas_threads", "commit"} <= set(host)
    assert data["sides"]["b"]["skipped"] == ["analyze-random-lut-m13", "verify-thm1-m5"]


def test_ea_cube_lut_is_an_apn_table_with_no_symmetry(bench, tmp_path):
    from vbfkit.cli import read_lut
    from vbfkit.spectra import _symmetry_orbits, differential_spectrum

    tab = read_lut(bench._write_lut(str(tmp_path), bench._ea_cube_lut_arg(9)))
    assert differential_spectrum(tab).max == 2
    for reps, _ in _symmetry_orbits(tab):
        assert len(reps) == tab.ctx.size - 1


def test_bench_script_rejects_an_unknown_entry(bench, tmp_path):
    with pytest.raises(SystemExit) as ei:
        bench.main(["--src", str(ROOT), "--label", "a", "--out", str(tmp_path / "b.json"),
                    "--skip", "no-such-entry"])
    assert ei.value.code == 2
