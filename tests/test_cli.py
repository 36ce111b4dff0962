"""Command-line front end: LUT files, JSON reports, claim verification."""

import json
import subprocess
import sys

import pytest

from vbfkit.cli import main, render_report
from vbfkit.constructions import f8_side_condition
from vbfkit.gf2m import Field
from vbfkit.spectra import differential_spectrum, walsh_spectrum
from vbfkit.vbf import monomial


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# -- construct ---------------------------------------------------------------


def test_construct_gold_m5_file(tmp_path, capsys):
    out = tmp_path / "gold.lut"
    rc, _, _ = run(capsys, "construct", "--family", "gold", "--m", "5", "--i", "1", "--out", str(out))
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "m=5 poly=0x25"
    assert len(lines) == 1 + 32
    ctx = Field(5)
    want = monomial(ctx, 3)
    assert [int(s, 16) for s in lines[1:]] == list(want.values)


def test_construct_stdout_matches_file(tmp_path, capsys):
    out = tmp_path / "k.lut"
    rc, stdout, _ = run(capsys, "construct", "--family", "kasami", "--m", "7", "--i", "3")
    assert rc == 0
    rc2, _, _ = run(capsys, "construct", "--family", "kasami", "--m", "7", "--i", "3", "--out", str(out))
    assert rc2 == 0
    assert stdout == out.read_text()
    ctx = Field(7)
    vals = [int(s, 16) for s in stdout.splitlines()[1:]]
    assert vals == list(monomial(ctx, 57).values)


def test_construct_thm3_wrong_m_exit2(capsys):
    rc, _, err = run(capsys, "construct", "--family", "thm3", "--m", "9", "--i", "1")
    assert rc == 2
    assert "divisible by 6" in err


def test_construct_thm4_512_entries(tmp_path, capsys):
    out = tmp_path / "t4.lut"
    rc, _, _ = run(capsys, "construct", "--family", "thm4", "--m", "9", "--n", "3", "--i", "1", "--out", str(out))
    assert rc == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 512


def test_construct_gcd_violation_exit2(capsys):
    rc, _, err = run(capsys, "construct", "--family", "kasami", "--m", "6", "--i", "2")
    assert rc == 2
    assert err.strip()


def test_construct_power_needs_d(capsys):
    rc, _, err = run(capsys, "construct", "--family", "power", "--m", "6")
    assert rc == 2
    assert "--d" in err


def test_construct_power_exponent(capsys):
    rc, stdout, _ = run(capsys, "construct", "--family", "power", "--m", "6", "--d", "62")
    assert rc == 0
    ctx = Field(6)
    vals = [int(s, 16) for s in stdout.splitlines()[1:]]
    assert vals == list(monomial(ctx, 62).values)


def test_construct_unknown_family_exit2():
    with pytest.raises(SystemExit) as ei:
        main(["construct", "--family", "frobnicate", "--m", "5"])
    assert ei.value.code == 2


def test_construct_poly_override(capsys):
    rc, stdout, _ = run(capsys, "construct", "--family", "gold", "--m", "5", "--i", "1", "--poly", "0x29")
    assert rc == 0
    assert stdout.splitlines()[0] == "m=5 poly=0x29"
    ctx = Field(5, 0x29)
    assert [int(s, 16) for s in stdout.splitlines()[1:]] == list(monomial(ctx, 3).values)


def test_construct_family_tag_case_insensitive(capsys):
    rc, a, _ = run(capsys, "construct", "--family", "Gold", "--m", "5", "--i", "1")
    rc2, b, _ = run(capsys, "construct", "--family", "gold", "--m", "5", "--i", "1")
    assert rc == rc2 == 0 and a == b


# -- analyze -----------------------------------------------------------------


def analyze_json(capsys, *argv):
    rc, stdout, err = run(capsys, "analyze", *argv)
    assert rc == 0, err
    return json.loads(stdout)


def test_analyze_gold_m5(capsys):
    rep = analyze_json(capsys, "--family", "gold", "--m", "5", "--i", "1")
    assert rep["schema"] == 1
    assert rep["m"] == 5
    assert rep["reduction_poly"] == "0x25"
    assert rep["degree"] == 2
    assert rep["nonlinearity"] == 12
    assert rep["differential_uniformity"] == 2
    assert rep["is_apn"] is True
    assert rep["is_ab"] is True
    assert set(rep["walsh_distribution"]) == {"-8", "0", "8"}
    assert sum(rep["walsh_distribution"].values()) == 32 * 31
    assert rep["delta_distribution"] == {"0": 496, "2": 496}
    assert "ea_power_witness" not in rep
    assert "timing_ms" not in rep


def test_analyze_distributions_match_library(capsys):
    rep = analyze_json(capsys, "--family", "niho", "--m", "7")
    ctx = Field(7)
    f = monomial(ctx, 39)
    ws = walsh_spectrum(f).distribution
    ds = differential_spectrum(f).distribution
    assert rep["walsh_distribution"] == {str(k): v for k, v in ws.items()}
    assert rep["delta_distribution"] == {str(k): v for k, v in ds.items()}


def test_analyze_inverse_even_m(capsys):
    rep = analyze_json(capsys, "--family", "inverse", "--m", "6")
    assert rep["nonlinearity"] == 24
    assert rep["differential_uniformity"] == 4


def test_analyze_lut_file(tmp_path, capsys):
    out = tmp_path / "g.lut"
    assert run(capsys, "construct", "--family", "gold", "--m", "5", "--i", "1", "--out", str(out))[0] == 0
    rep = analyze_json(capsys, str(out))
    assert rep["nonlinearity"] == 12 and rep["is_ab"] is True


def test_analyze_round_trip_identical(tmp_path, capsys):
    out = tmp_path / "t1.lut"
    assert run(capsys, "construct", "--family", "thm1", "--m", "5", "--i", "2", "--out", str(out))[0] == 0
    rc, from_file, _ = run(capsys, "analyze", str(out))
    rc2, inline, _ = run(capsys, "analyze", "--family", "thm1", "--m", "5", "--i", "2")
    assert rc == rc2 == 0
    assert from_file == inline


def test_analyze_deterministic_bytes(capsys):
    rc, a, _ = run(capsys, "analyze", "--family", "thm2", "--m", "6", "--i", "1")
    rc2, b, _ = run(capsys, "analyze", "--family", "thm2", "--m", "6", "--i", "1")
    assert rc == rc2 == 0 and a == b


def test_analyze_ea_power_witness_present(capsys):
    rep = analyze_json(capsys, "--family", "thm1", "--m", "5", "--i", "1")
    assert rep["ea_power_witness"] == "0x1"
    assert rep["degree"] == 3


def test_analyze_timing_flag(capsys):
    rep = analyze_json(capsys, "--family", "gold", "--m", "4", "--i", "1", "--timing")
    assert isinstance(rep["timing_ms"], int)


STAGES = {"build", "walsh", "differential", "degree_witness", "io"}


@pytest.mark.parametrize("source", ["family", "lut"])
def test_analyze_timing_breakdown(tmp_path, capsys, source):
    if source == "lut":
        lut = tmp_path / "t1.lut"
        assert run(capsys, "construct", "--family", "thm1", "--m", "7", "--i", "1", "--out", str(lut))[0] == 0
        argv = ["analyze", str(lut)]
    else:
        argv = ["analyze", "--family", "thm1", "--m", "7", "--i", "1"]
    rc, plain, _ = run(capsys, *argv)
    assert rc == 0
    assert "timing" not in plain
    rc, timed, _ = run(capsys, *argv, "--timing")
    assert rc == 0
    rep = json.loads(timed)
    assert rep["schema"] == 1
    total = rep.pop("timing_ms")
    stages = rep.pop("timing_breakdown_ms")
    assert isinstance(total, int)
    assert set(stages) == STAGES
    assert all(isinstance(v, int) and v >= 0 for v in stages.values())
    assert sum(stages.values()) <= total
    assert stages["io" if source == "family" else "build"] == 0
    assert render_report(rep) == plain


def test_analyze_json_out_file(tmp_path, capsys):
    path = tmp_path / "rep.json"
    rc, stdout, _ = run(capsys, "analyze", "--family", "gold", "--m", "4", "--i", "1", "--out", str(path))
    assert rc == 0 and stdout == ""
    rep = json.loads(path.read_text())
    assert rep["differential_uniformity"] == 2


def test_analyze_all_zero_lut(tmp_path, capsys):
    path = tmp_path / "zero.lut"
    path.write_text("m=4 poly=0x13\n" + "0x0\n" * 16)
    rep = analyze_json(capsys, str(path))
    assert rep["degree"] == 0
    assert rep["nonlinearity"] == 0
    assert rep["differential_uniformity"] == 16
    assert rep["is_apn"] is False
    assert "ea_power_witness" not in rep


@pytest.mark.parametrize(
    "text",
    [
        "m=5 poly=0x25\n" + "0x1\n" * 31,          # one entry short
        "m=5 poly=0x25\n" + "0x20\n" * 32,          # value out of range
        "poly=0x25 n=5\n" + "0x0\n" * 32,           # bad header keys
        "m=5 poly=0x24\n" + "0x0\n" * 32,           # reducible modulus
        "m=5 poly=0x25\nbanana\n" + "0x0\n" * 31,   # non-hex entry
    ],
)
def test_analyze_malformed_lut_exit2(tmp_path, capsys, text):
    path = tmp_path / "bad.lut"
    path.write_text(text)
    rc, _, err = run(capsys, "analyze", str(path))
    assert rc == 2
    assert err.strip()


def test_analyze_missing_file_exit2(tmp_path, capsys):
    rc, _, _ = run(capsys, "analyze", str(tmp_path / "nope.lut"))
    assert rc == 2


def test_analyze_needs_exactly_one_source(tmp_path, capsys):
    rc, _, _ = run(capsys, "analyze")
    assert rc == 2
    path = tmp_path / "g.lut"
    assert run(capsys, "construct", "--family", "gold", "--m", "4", "--i", "1", "--out", str(path))[0] == 0
    rc2, _, _ = run(capsys, "analyze", str(path), "--family", "gold", "--m", "4", "--i", "1")
    assert rc2 == 2


# -- verify ------------------------------------------------------------------


def test_verify_thm1_m7(capsys):
    rc, stdout, _ = run(capsys, "verify", "thm1", "--m", "7", "--i", "1")
    assert rc == 0
    assert "ok" in stdout


def test_verify_thm2_m6(capsys):
    rc, _, _ = run(capsys, "verify", "thm2", "--m", "6", "--i", "1")
    assert rc == 0


def test_verify_thm3_m6(capsys):
    rc, _, _ = run(capsys, "verify", "thm3", "--m", "6", "--i", "1")
    assert rc == 0


def test_verify_thm3_gcd_violation_exit2(capsys):
    rc, _, err = run(capsys, "verify", "thm3", "--m", "6", "--i", "2")
    assert rc == 2
    assert err.strip()


def test_verify_thm4(capsys):
    rc, _, _ = run(capsys, "verify", "thm4", "--m", "9", "--n", "3", "--i", "1")
    assert rc == 0


def test_verify_remark4_sampled(capsys):
    rc, stdout, _ = run(capsys, "verify", "remark4", "--m", "5", "--i", "1", "--budget", "2000", "--seed", "7")
    assert rc == 0
    assert "no " in stdout.lower()


def test_verify_remark4_workers(capsys):
    rc, _, _ = run(capsys, "verify", "remark4", "--m", "5", "--i", "2", "--budget", "500", "--threads", "2")
    assert rc == 0


def test_verify_remark4_exhaustive_at_m7(capsys):
    rc, stdout, _ = run(capsys, "verify", "remark4", "--m", "7", "--i", "1")
    assert rc == 0
    assert stdout == "ok   no linear completion to a permutation among all 2^49 linear maps\n"


def test_verify_remark4_node_budget_exit3(capsys):
    rc, _, err = run(capsys, "verify", "remark4", "--m", "5", "--i", "1", "--budget", "3")
    assert rc == 3
    assert "budget" in err.lower()


def test_verify_remark4_found_completion_exit1(tmp_path, capsys):
    # the zero table is completed by every invertible linear map, so the
    # claim that no completion exists must fail
    path = tmp_path / "probe.lut"
    path.write_text("m=4 poly=0x13\n" + "0x0\n" * 16)
    rc, stdout, _ = run(capsys, "verify", "remark4", "--lut", str(path))
    assert rc == 1
    assert "completion" in stdout.lower()


def test_verify_remark4_wrong_parity_exit2(capsys):
    rc, _, _ = run(capsys, "verify", "remark4", "--m", "4", "--i", "1")
    assert rc == 2


def test_verify_remark4_time_budget_exit3(capsys):
    rc, _, err = run(capsys, "verify", "remark4", "--m", "5", "--i", "1", "--budget", "0.000001")
    assert rc == 3
    assert "budget" in err.lower()


def test_verify_example1(capsys):
    rc, _, _ = run(capsys, "verify", "example1", "--m", "5", "--i", "1")
    assert rc == 0


def test_verify_example1_even_m_exit2(capsys):
    rc, _, _ = run(capsys, "verify", "example1", "--m", "4", "--i", "1")
    assert rc == 2


def test_verify_f8_check(capsys):
    rc, _, _ = run(capsys, "verify", "f8-check", "--i", "1")
    assert rc == 0
    rc3, _, _ = run(capsys, "verify", "f8-check", "--i", "3")
    assert rc3 == (0 if f8_side_condition(3) else 1)


def test_verify_prop_gold_perm(capsys):
    rc, _, _ = run(capsys, "verify", "prop-gold-perm", "--m", "5", "--i", "1", "--count", "15", "--seed", "3")
    assert rc == 0


def test_verify_prop_gold_perm_even(capsys):
    rc, _, _ = run(capsys, "verify", "prop-gold-perm-even", "--m", "4", "--i", "1", "--count", "15")
    assert rc == 0
    rc2, _, _ = run(capsys, "verify", "prop-gold-perm-even", "--m", "5", "--i", "1")
    assert rc2 == 2


@pytest.mark.parametrize("claim", ["prop-gold-perm", "prop-gold-perm-even"])
@pytest.mark.parametrize("count", ["0", "-1"])
def test_verify_gold_perm_rejects_empty_trial_count(capsys, claim, count):
    rc, stdout, err = run(capsys, "verify", claim, "--m", "4", "--i", "1", "--count", count)
    assert rc == 2
    assert "ok" not in stdout
    assert len(err.strip().splitlines()) == 1
    assert "--count" in err


def test_verify_ccz_invariance(capsys):
    rc, _, _ = run(capsys, "verify", "ccz-invariance", "--m", "4", "--count", "8", "--seed", "1")
    assert rc == 0


def test_failed_internal_identity_is_a_fail_line(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("graph witness identity broke")

    monkeypatch.setattr("vbfkit.cli.theorem12_ccz_witness", broken)
    rc, stdout, err = run(capsys, "verify", "ccz-invariance", "--m", "5", "--count", "2")
    assert rc == 1
    assert stdout.splitlines() == ["FAIL graph witness identity broke"]
    assert "Traceback" not in stdout + err


def test_malformed_poly_table_entry_exit2(tmp_path, monkeypatch, capsys):
    table = tmp_path / "polys.json"
    table.write_text(json.dumps({"5": [1]}))
    monkeypatch.setenv("VBF_DEFAULT_POLY_TABLE", str(table))
    rc, _, err = run(capsys, "construct", "--family", "gold", "--m", "5", "--i", "1")
    assert rc == 2
    assert len(err.strip().splitlines()) == 1
    assert "degree 5" in err


def test_verify_unknown_claim_exit2():
    with pytest.raises(SystemExit) as ei:
        main(["verify", "thm9", "--m", "5"])
    assert ei.value.code == 2


def test_verify_missing_m_exit2(capsys):
    rc, _, err = run(capsys, "verify", "thm1", "--i", "1")
    assert rc == 2
    assert "--m" in err


# -- entry points ------------------------------------------------------------


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "vbfkit.cli", "construct", "--family", "gold", "--m", "5", "--i", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "m=5 poly=0x25"
    assert len(proc.stdout.splitlines()) == 33


def test_lut_value_width_padded(capsys):
    rc, stdout, _ = run(capsys, "construct", "--family", "gold", "--m", "9", "--i", "1")
    assert rc == 0
    body = stdout.splitlines()[1:]
    assert all(len(s) == 2 + 3 for s in body)  # 0x + three nibbles for m=9


def test_verify_uses_poly_override(capsys):
    rc, _, _ = run(capsys, "verify", "thm1", "--m", "5", "--i", "1", "--poly", "0x29")
    assert rc == 0
