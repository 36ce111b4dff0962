"""Command-line front end: LUT files, JSON reports, claim verification."""

import hashlib
import json
import math
import os
import resource
import subprocess
import sys
import tempfile
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vbfkit import ccz, cli, constructions, spectra, vbf
from vbfkit.ccz import BinLinearMap, identity_map
from vbfkit.cli import (
    _VERIFIERS,
    FAMILIES,
    analysis_report,
    build_parser,
    lut_text,
    main,
    read_lut,
    render_report,
)
from vbfkit.constructions import (
    f8_side_condition,
    theorem1,
    theorem2,
    theorem3,
    theorem4,
    theorem4_f1_tables,
)
from vbfkit.gf2m import Field, _linear_table, is_irreducible
from vbfkit.spectra import differential_spectrum, walsh_spectrum
from vbfkit.vbf import FuncTable, monomial


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
    assert [int(s, 16) for s in lines[1:]] == want.as_array().tolist()


def test_construct_stdout_matches_file(tmp_path, capsys):
    out = tmp_path / "k.lut"
    rc, stdout, _ = run(capsys, "construct", "--family", "kasami", "--m", "7", "--i", "3")
    assert rc == 0
    rc2, _, _ = run(capsys, "construct", "--family", "kasami", "--m", "7", "--i", "3", "--out", str(out))
    assert rc2 == 0
    assert stdout == out.read_text()
    ctx = Field(7)
    vals = [int(s, 16) for s in stdout.splitlines()[1:]]
    assert vals == monomial(ctx, 57).as_array().tolist()


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
    assert vals == monomial(ctx, 62).as_array().tolist()


def test_construct_without_family_exit2(capsys):
    assert run(capsys, "construct", "--m", "5") == (2, "", "error: --family is required\n")


@pytest.mark.parametrize(
    "argv, unread",
    [
        (("construct", "--family", "gold", "--m", "5", "--i", "1", "--n", "3", "--d", "9"),
         "family gold does not read --n, --d"),
        (("analyze", "--family", "thm3", "--m", "6", "--i", "1", "--n", "2", "--relaxed"),
         "family thm3 does not read --n, --relaxed"),
        (("construct", "--family", "power", "--m", "6", "--d", "5", "--i", "1"),
         "family power does not read --i"),
        # an index of 0 is given, not absent
        (("analyze", "--family", "welch", "--m", "7", "--i", "0"), "family welch does not read --i"),
        (("construct", "--family", "thm4", "--m", "9", "--n", "3", "--i", "1", "--relaxed"),
         "family thm4 does not read --relaxed"),
    ],
    ids=["gold", "thm3", "power", "welch-zero", "thm4"],
)
def test_family_rejects_options_it_does_not_read(capsys, argv, unread):
    assert run(capsys, *argv) == (2, "", f"error: {unread}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("gold", "--m", "5", "--i", "1"),
        ("kasami", "--m", "7", "--i", "3"),
        ("welch", "--m", "7"),
        ("niho", "--m", "7"),
        ("inverse", "--m", "7"),
        ("dobbertin", "--m", "5"),
        ("power", "--m", "6", "--d", "5"),
        ("thm1", "--m", "9", "--i", "3", "--relaxed"),
        ("thm2", "--m", "6", "--i", "2", "--relaxed"),
        ("thm3", "--m", "6", "--i", "1"),
        ("thm4", "--m", "9", "--n", "3", "--i", "1"),
    ],
    ids=lambda argv: argv[0],
)
def test_family_accepts_every_option_it_reads(capsys, argv):
    rc, stdout, err = run(capsys, "construct", "--family", *argv)
    assert (rc, err) == (0, "")
    assert stdout.startswith(f"m={argv[2]} poly=")


# Every option each family and claim requires, with a value
FAMILY_REQUIRES = {
    "gold": ("--m", "5", "--i", "1"),
    "kasami": ("--m", "7", "--i", "3"),
    "welch": ("--m", "7"),
    "niho": ("--m", "7"),
    "inverse": ("--m", "7"),
    "dobbertin": ("--m", "5"),
    "power": ("--m", "6", "--d", "5"),
    "thm1": ("--m", "9", "--i", "2"),
    "thm2": ("--m", "6", "--i", "1"),
    "thm3": ("--m", "6", "--i", "1"),
    "thm4": ("--m", "9", "--n", "3", "--i", "1"),
}
CLAIM_REQUIRES = {
    **{claim: ("--m", "7") for claim in _VERIFIERS if claim not in ("thm2", "thm3", "thm4")},
    "thm2": ("--m", "6"),
    "thm3": ("--m", "6"),
    "thm4": ("--m", "9", "--n", "3"),
    "f8-check": (),
}


def _leave_one_out(prefix, options, name):
    pairs = list(zip(options[::2], options[1::2]))
    for k, (flag, _) in enumerate(pairs):
        rest = [tok for j, pair in enumerate(pairs) if j != k for tok in pair]
        yield pytest.param(
            (*prefix, *rest), f"{name} needs {flag}", id=f"{prefix[0]} {name.split()[1]} {flag}"
        )


MISSING_CASES = [
    *(
        case
        for fam, options in FAMILY_REQUIRES.items()
        for command in ("construct", "analyze")
        for case in _leave_one_out((command, "--family", fam), options, f"family {fam}")
    ),
    *(
        case
        for claim, options in CLAIM_REQUIRES.items()
        for case in _leave_one_out(("verify", claim), options, f"verify {claim}")
    ),
]


def test_required_option_tables_cover_every_family_and_claim():
    assert list(FAMILY_REQUIRES) == list(FAMILIES)
    assert set(CLAIM_REQUIRES) == set(_VERIFIERS)


@pytest.mark.parametrize("argv, message", MISSING_CASES)
def test_missing_required_option_is_one_error_line(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


def test_half_degree_option_is_gone():
    # --t once repeated what --m says; at m = 8, where no t fits, it was ignored
    with pytest.raises(SystemExit) as ei:
        main(["construct", "--family", "inverse", "--m", "8", "--t", "99"])
    assert ei.value.code == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (("construct", "--family", "inverse", "--m", "8", "--t", "99"),
         "unrecognized arguments: --t 99"),
        (("construct", "--family", "gold", "--m", "x"), "argument --m: invalid int value: 'x'"),
        (("construct", "--family", "foo", "--m", "5"), "argument --family: invalid choice: 'foo' ("),
    ],
    ids=["unknown-option", "bad-int", "bad-choice"],
)
def test_usage_error_is_one_line_without_usage_block(capsys, argv, message):
    with pytest.raises(SystemExit) as ei:
        main(list(argv))
    assert ei.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith(f"error: {message}") and captured.err.endswith("\n")


@pytest.mark.parametrize(
    "argv, unknown",
    [
        (("construct", "--fam", "gold", "--m", "5", "--i", "1"), "--fam gold"),
        (("analyze", "--family", "gold", "--m", "5", "--i", "1", "--tim"), "--tim"),
        # with --t gone, an abbreviation would take --t for --timing; the 3
        # after it is read as the LUT path
        (("analyze", "--family", "gold", "--m", "5", "--i", "1", "--t", "3"), "--t"),
        (("verify", "prop-gold-perm", "--m", "5", "--cou", "3"), "--cou 3"),
    ],
    ids=["construct", "analyze", "analyze-t", "verify"],
)
def test_no_subcommand_accepts_abbreviations(capsys, argv, unknown):
    with pytest.raises(SystemExit) as ei:
        main(list(argv))
    assert ei.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: {unknown}" in captured.err


def test_analyze_lut_reads_no_family_option(tmp_path, capsys):
    # the LUT header fixes the field, so --m or --poly would be ignored
    path = tmp_path / "g.lut"
    assert run(capsys, "construct", "--family", "gold", "--m", "5", "--i", "1", "--out", str(path))[0] == 0
    rc, stdout, err = run(capsys, "analyze", str(path), "--m", "7", "--poly", "0x83", "--timing")
    assert (rc, stdout, err) == (2, "", f"error: analyze {path} does not read --m, --poly\n")


def test_construct_unknown_family_exit2():
    with pytest.raises(SystemExit) as ei:
        main(["construct", "--family", "frobnicate", "--m", "5"])
    assert ei.value.code == 2


def test_construct_poly_override(capsys):
    rc, stdout, _ = run(capsys, "construct", "--family", "gold", "--m", "5", "--i", "1", "--poly", "0x29")
    assert rc == 0
    assert stdout.splitlines()[0] == "m=5 poly=0x29"
    ctx = Field(5, 0x29)
    assert [int(s, 16) for s in stdout.splitlines()[1:]] == monomial(ctx, 3).as_array().tolist()


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
    assert rep.pop("spectra_from") == ("gold" if source == "family" else "table")
    total = rep.pop("timing_ms")
    stages = rep.pop("timing_breakdown_ms")
    assert isinstance(total, int)
    assert set(stages) == STAGES
    assert all(isinstance(v, int) and v >= 0 for v in stages.values())
    assert sum(stages.values()) <= total
    assert stages["io" if source == "family" else "build"] == 0
    assert render_report(rep) == plain


@pytest.mark.parametrize(
    "argv, path",
    [
        (("--family", "thm1", "--m", "5", "--i", "2"), "gold"),
        (("--family", "thm2", "--m", "6", "--i", "1"), "gold"),
        (("--family", "thm3", "--m", "6", "--i", "1"), "gold"),
        (("--family", "thm4", "--m", "9", "--n", "3", "--i", "1"), "gold"),
        (("--family", "thm1", "--m", "5", "--i", "1", "--relaxed"), "table"),
        (("--family", "gold", "--m", "5", "--i", "1"), "table"),
        (("--family", "inverse", "--m", "5"), "table"),
        (("--family", "thm2", "--m", "6", "--i", "2", "--relaxed"), "table"),
    ],
)
def test_analyze_timing_names_the_spectrum_source(capsys, argv, path):
    rep = analyze_json(capsys, *argv, "--timing")
    assert rep["spectra_from"] == path
    assert "spectra_from" not in analyze_json(capsys, *argv)


@pytest.mark.parametrize(
    "fam, m, message",
    [("thm1", 8, "odd extension degree required"), ("thm2", 7, "even extension degree required")],
)
def test_analyze_twisted_family_of_the_wrong_parity_exits_2(capsys, fam, m, message):
    """The witness serves thm1 at odd m and thm2 at even m; the other
    parity must not reach it and analyze the other family's table."""
    rc, out, err = run(capsys, "analyze", "--family", fam, "--m", str(m), "--i", "1")
    assert (rc, out) == (2, "")
    assert message in err


def _coprime(m):
    return [i for i in range(1, m) if math.gcd(i, m) == 1]


def _twisted_cases():
    """Every (family, m, i, n) with m <= 13 and i < m that the four twisted
    families accept without --relaxed."""
    cases = [("thm1", m, i, None) for m in range(5, 14, 2) for i in _coprime(m)]
    cases += [("thm2", m, i, None) for m in range(4, 13, 2) for i in _coprime(m)]
    cases += [("thm3", m, i, None) for m in (6, 12) for i in _coprime(m)]
    cases += [
        ("thm4", m, i, n)
        for m in range(5, 14, 2)
        for n in range(1, m)
        if m % n == 0
        for i in _coprime(m)
    ]
    return cases


_BUILDERS = {
    "thm1": lambda ctx, i, n: theorem1(ctx, i),
    "thm2": lambda ctx, i, n: theorem2(ctx, i),
    "thm3": lambda ctx, i, n: theorem3(ctx, i),
    "thm4": lambda ctx, i, n: theorem4(ctx, n, i),
}


@lru_cache(maxsize=None)
def _own_report(f: FuncTable) -> str:
    """The report from the table alone: both spectra on its own orbit path.
    Cached by table, since thm4 with n = 1 is the thm1 table."""
    return render_report(analysis_report(f))


@pytest.mark.parametrize(
    "fam, m, i, n",
    _twisted_cases(),
    ids=lambda v: "" if v is None else str(v),
)
def test_analyze_twisted_family_is_the_report_of_its_own_table(capsys, fam, m, i, n):
    argv = ["analyze", "--family", fam, "--m", str(m), "--i", str(i)]
    if n is not None:
        argv += ["--n", str(n)]
    rc, stdout, err = run(capsys, *argv)
    assert (rc, err) == (0, "")
    assert stdout == _own_report(_BUILDERS[fam](Field(m), i, n))


def test_gold_spectra_only_stand_in_without_a_shift():
    ctx = Field(7)
    gold = monomial(ctx, 3)
    f = theorem1(ctx, 1)
    assert analysis_report(f, spectra_of=gold) == analysis_report(f)
    # G(x) + c flips the sign of W(a, b) wherever tr(b c) = 1
    shifted = FuncTable(ctx, gold.as_array() ^ 1)
    assert walsh_spectrum(shifted).distribution != walsh_spectrum(gold).distribution
    assert analysis_report(f, spectra_of=shifted) != analysis_report(f)


@pytest.mark.parametrize(
    "argv, reduced",
    [
        (("construct", "--family", "thm3", "--m", "6", "--i", "7"), "1"),
        (("construct", "--family", "thm1", "--m", "5", "--i", "7"), "2"),
        (("analyze", "--family", "thm1", "--m", "5", "--i", "6"), "1"),
        (("analyze", "--family", "thm2", "--m", "6", "--i", "11"), "5"),
        (("analyze", "--family", "thm3", "--m", "6", "--i", "13"), "1"),
        (("analyze", "--family", "thm4", "--m", "9", "--n", "3", "--i", "10"), "1"),
        (("verify", "thm1", "--m", "5", "--i", "6"), "1"),
        (("verify", "thm2", "--m", "6", "--i", "7"), "1"),
        (("verify", "thm3", "--m", "6", "--i", "7"), "1"),
        (("verify", "example1", "--m", "5", "--i", "6"), "1"),
        (("verify", "example1", "--m", "7", "--i", "10"), "3"),
        # 2^i of so large an index does not fit in memory; only i mod m is read
        (("construct", "--family", "gold", "--m", "5", "--i", "1000000000001"), "1"),
        (("verify", "thm1", "--m", "5", "--i", "1000000000001"), "1"),
        (("analyze", "--family", "thm4", "--m", "9", "--n", "3", "--i", "1000000000001"), "2"),
    ],
)
def test_index_above_m_acts_as_index_mod_m(capsys, argv, reduced):
    at = argv.index("--i") + 1
    rc, stdout, err = run(capsys, *argv)
    assert (rc, err) == (0, "")
    assert (rc, stdout, err) == run(capsys, *argv[:at], reduced, *argv[at + 1:])


@pytest.mark.parametrize(
    "argv, message",
    [
        (("verify", "thm1", "--m", "5", "--i", "10"), "gcd(5, 5) != 1"),
        (("construct", "--family", "gold", "--m", "6", "--i", "9"), "gcd(3, 6) != 1"),
    ],
)
def test_gcd_error_names_the_index_mod_m(capsys, argv, message):
    # the options are read with i mod m, so the error names the index that
    # is checked, not the one given
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


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
        "m=5 poly=0x25\n0x" + "f" * 20 + "\n" + "0x0\n" * 31,  # value beyond int64
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


@pytest.mark.parametrize(
    "head, message",
    [
        (b"m=6 m=5 poly=0x25", "header field m given more than once"),
        (b"m=abc poly=0x25", "field m is not a decimal number: 'abc'"),
        (b"m=5 poly=zz", "field poly is not a hex number: 'zz'"),
        (b"m=5 poly=0x25 \xe9", "not ASCII text (byte 0xe9)"),
        (b"m=99 poly=0x25", "header field m: field degree must be in [2, 24], got 99"),
        (b"m=5 poly=0x21", "header field poly: reduction polynomial 0x21 is reducible"),
    ],
    ids=["repeated-m", "m-not-int", "poly-not-hex", "non-ascii", "m-out-of-range", "poly-reducible"],
)
def test_analyze_malformed_header_names_path_and_field(tmp_path, capsys, head, message):
    path = tmp_path / "bad.lut"
    path.write_bytes(head + b"\n" + b"0x0\n" * 32)
    rc, stdout, err = run(capsys, "analyze", str(path))
    assert (rc, stdout, err) == (2, "", f"error: {path}: {message}\n")


@pytest.mark.parametrize("source", ["lut", "poly", "table"])
def test_negative_poly_exit2_without_hanging(tmp_path, source):
    # a negative bitmask has the bit length of a degree-5 polynomial, and
    # reducing by it used to loop forever; a subprocess turns a hang into
    # a timeout failure
    env = dict(os.environ)
    argv = ["analyze", "--family", "gold", "--m", "5", "--i", "1"]
    message = "reduction polynomial -0x25 does not have degree 5"
    if source == "lut":
        path = tmp_path / "neg.lut"
        path.write_text("m=5 poly=-25\n" + "0x0\n" * 32)
        argv = ["analyze", str(path)]
        message = f"{path}: header field poly: {message}"
    elif source == "poly":
        argv.append("--poly=-0x25")
    else:
        table = tmp_path / "polys.json"
        table.write_text(json.dumps({"5": -37}))
        env["VBF_DEFAULT_POLY_TABLE"] = str(table)
    proc = subprocess.run(
        [sys.executable, "-m", "vbfkit.cli", *argv], capture_output=True, text=True, env=env, timeout=10
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [f"error: {message}"]


def _cli_process(*argv: str) -> subprocess.CompletedProcess:
    """The command line in its own process, capped at 4 GiB of address space,
    so that a size check that comes too late fails fast instead of filling
    the host's memory."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))

    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}  # thread buffers stay under the cap
    return subprocess.run(
        [sys.executable, "-m", "vbfkit.cli", *argv],
        capture_output=True, text=True, env=env, timeout=60, preexec_fn=cap,
    )


# every subcommand and claim that reads --m, with the options it needs
_READS_M = [
    ("construct", "--family", "gold", "--i", "1"),
    ("analyze", "--family", "thm1", "--i", "1"),
    *(("verify", claim) for claim, (_, reads) in _VERIFIERS.items() if "m" in reads and "n" not in reads),
    ("verify", "thm4", "--n", "5"),
]


@pytest.mark.parametrize("m", ["25", "32"])
@pytest.mark.parametrize("argv", _READS_M, ids=lambda argv: argv[argv[0] == "verify"])
def test_fields_above_m24_are_one_error_line(m, argv):
    # the field check comes before any 2^m-entry array is built
    proc = _cli_process(*argv, "--m", m)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.splitlines() == [f"error: field degree must be in [2, 24], got {m}"]


def test_thm3_at_m30_is_one_error_line(tmp_path):
    proc = _cli_process("verify", "thm3", "--m", "30")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.splitlines() == ["error: field degree must be in [2, 24], got 30"]
    path = tmp_path / "m25.lut"
    path.write_text("m=25 poly=0x2000009\n")  # a header with no entries
    proc = _cli_process("analyze", str(path))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.splitlines() == [
        f"error: {path}: header field m: field degree must be in [2, 24], got 25"
    ]


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


@pytest.mark.parametrize(
    ("m", "i", "message"),
    [("6", "3", "gcd(3, 6) != 1"), ("10", "3", "m must be divisible by 6")],
)
def test_verify_thm3_checks_parameters_before_the_octic_scan(capsys, m, i, message):
    # i = 3 fails the F_8 scan, but only because it breaks a precondition
    rc, stdout, err = run(capsys, "verify", "thm3", "--m", m, "--i", i)
    assert (rc, stdout, err) == (2, "", f"error: {message}\n")


def test_verify_thm4(capsys):
    rc, _, _ = run(capsys, "verify", "thm4", "--m", "9", "--n", "3", "--i", "1")
    assert rc == 0


THM4_LINES = [
    "ok   almost bent",
    "ok   algebraic degree 5",
    "ok   closed-form shift inverse at every point",
    "ok   EA-inequivalent to power maps",
]


@pytest.mark.parametrize(
    "argv",
    [
        ("analyze", "--family", "thm4", "--m", "3", "--n", "1", "--i", "1"),
        ("construct", "--family", "thm4", "--m", "3", "--n", "1", "--i", "2"),
        ("verify", "thm4", "--m", "3", "--n", "1"),
    ],
    ids=["analyze", "construct", "verify"],
)
def test_thm4_at_m3_exit2(capsys, argv):
    # n = 1 at m = 3 is Theorem 1's formula, which needs m > 3
    rc, stdout, err = run(capsys, *argv)
    assert (rc, stdout, err) == (2, "", "error: the subfield-trace family needs m > 3\n")


def test_verify_thm4_lines_at_m9(capsys):
    for i in (1, 2, 4):
        rc, stdout, _ = run(capsys, "verify", "thm4", "--m", "9", "--n", "3", "--i", str(i))
        assert (rc, stdout.splitlines()) == (0, THM4_LINES)


def test_verify_thm4_wrong_inverse_table_is_a_fail_line(capsys, monkeypatch):
    def swapped(ctx, n, i):  # the inverse is still a permutation, wrong at two points
        f1, inv = theorem4_f1_tables(ctx, n, i)
        vals = inv.as_array().copy()
        vals[[3, 5]] = vals[[5, 3]]
        return f1, FuncTable(ctx, vals)

    monkeypatch.setattr("vbfkit.cli.theorem4_f1_tables", swapped)
    rc, stdout, err = run(capsys, "verify", "thm4", "--m", "9", "--n", "3", "--i", "1")
    assert rc == 1
    want = list(THM4_LINES)
    want[2] = "FAIL closed-form shift inverse at every point"
    assert stdout.splitlines() == want
    assert "Traceback" not in stdout + err


def test_verify_thm3_lines_and_failed_shift(capsys, monkeypatch):
    rc, stdout, _ = run(capsys, "verify", "thm3", "--m", "6", "--i", "1")
    assert rc == 0
    assert stdout.splitlines() == [
        "ok   octic side condition",
        "ok   composition shift of order 6",
        "ok   sixth power is the identity",
        "ok   differentially 2-uniform",
        "ok   algebraic degree 4",
    ]

    def broken(ctx, i):
        raise RuntimeError("sixth compositional power is not the identity")

    monkeypatch.setattr("vbfkit.cli.theorem3_f1", broken)
    rc, stdout, _ = run(capsys, "verify", "thm3", "--m", "6", "--i", "1")
    assert rc == 1
    assert stdout.splitlines() == [
        "ok   octic side condition",
        "FAIL composition shift of order 6 (sixth compositional power is not the identity)",
    ]


def _claim_argv(fam: str, m: int, i: int, n: int | None) -> list[str]:
    return [fam, "--m", str(m), "--i", str(i), *(() if n is None else ("--n", str(n)))]


_VERIFY_ROUTE_CASES = (
    [("thm1", m, i, None) for m in range(5, 14, 2) for i in (1, 2)]
    + [("thm2", m, 1, None) for m in range(4, 13, 2)]
    + [("thm3", 6, 1, None), ("thm3", 12, 1, None), ("thm4", 9, 1, 3), ("thm4", 9, 1, 1)]
)


@pytest.mark.parametrize(
    "fam, m, i, n", _VERIFY_ROUTE_CASES, ids=lambda v: "" if v is None else str(v)
)
def test_verify_spectra_through_the_gold_map_are_the_own_tables(fam, m, i, n):
    # the spectra the verify lines rest on, Gold's through the checked map,
    # against the orbit path on the family's own closed-form or direct build
    args = build_parser().parse_args(["verify", *_claim_argv(fam, m, i, n)])
    f, gold = cli._analyzed_family(fam, cli._read_options(args, fam, _VERIFIERS[fam][1]))
    own = _BUILDERS[fam](Field(m), i, n)
    assert f == own
    assert gold == monomial(Field(m), (1 << i) + 1)
    assert walsh_spectrum(gold) == walsh_spectrum(own)
    assert differential_spectrum(gold) == differential_spectrum(own)


@pytest.mark.parametrize(
    "fam, m, i, n, extra, points",
    [
        ("thm1", 7, 2, None, (), None),
        ("thm2", 8, 1, None, (), None),
        ("thm1", 9, 1, None, ("--a", "5"), [1, 5]),
        ("thm2", 6, 5, None, ("--a", "1"), [1]),
        ("thm3", 6, 1, None, (), []),
        ("thm4", 9, 2, 3, (), []),
    ],
)
def test_verify_builds_each_witness_point_once_and_reads_gold_spectra(
    capsys, monkeypatch, fam, m, i, n, extra, points
):
    built, spectra_of = [], []
    real = cli._theorem12_witness

    def witness(base, gold, index, a):
        built.append(a)
        return real(base, gold, index, a)

    monkeypatch.setattr(cli, "_theorem12_witness", witness)
    for name in ("walsh_spectrum", "differential_spectrum"):
        real_spectrum = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda f, s=real_spectrum: spectra_of.append(f) or s(f))
    rc, stdout, err = run(capsys, "verify", *_claim_argv(fam, m, i, n), *extra)
    assert (rc, err) == (0, "")
    assert "FAIL" not in stdout
    ctx = Field(m)
    assert len(built) == len(set(built))  # no point is built twice
    if points is None:  # sampled: a = 1, the generator and one seeded draw
        assert {1, ctx.generator} < set(built) and len(built) == 3
    else:
        assert sorted(built) == points
    assert spectra_of == [monomial(ctx, (1 << i) + 1)]


@pytest.mark.parametrize(
    "argv",
    [
        ("thm1", "--m", "7"),
        ("thm2", "--m", "6", "--i", "5"),
        ("thm1", "--m", "5", "--a", "3"),
        ("remark4", "--m", "7", "--i", "2"),
    ],
)
def test_verify_failed_unit_witness_is_a_fail_line(capsys, monkeypatch, argv):
    # the spectrum line, and the map remark4 searches, rest on the a = 1
    # witness, so its failure ends the claim, --a or not
    real = cli._theorem12_witness

    def broken(base, gold, index, a):
        if a == 1:
            raise RuntimeError("scaling identity failed")
        return real(base, gold, index, a)

    monkeypatch.setattr(cli, "_theorem12_witness", broken)
    rc, stdout, err = run(capsys, "verify", *argv)
    assert (rc, stdout) == (1, "FAIL scaling identity failed\n")
    assert "Traceback" not in stdout + err


def _count_calls(monkeypatch, owner, name: str, log: list) -> None:
    """Record the arguments of every call of ``owner.name`` in ``log``."""
    real = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *args: log.append(args[1:]) or real(*args))


@pytest.mark.parametrize(
    "argv, points",
    [
        (("analyze", "--family", "thm1", "--m", "9", "--i", "2"), [1]),
        (("analyze", "--family", "thm2", "--m", "8", "--i", "3"), [1]),
        (("analyze", "--family", "thm3", "--m", "6", "--i", "1"), []),
        (("analyze", "--family", "thm4", "--m", "9", "--n", "3", "--i", "2"), []),
        (("verify", "thm1", "--m", "9", "--i", "2"), None),
        (("verify", "thm2", "--m", "8", "--i", "3"), None),
        (("verify", "thm1", "--m", "7", "--a", "5"), [1, 5]),
    ],
)
def test_twisted_families_build_gold_and_the_closed_form_once(capsys, monkeypatch, argv, points):
    # x^(2^i+1) is built once per report or claim; the closed form is built
    # from that one `_gold_powers` call, so it is built once per claim too,
    # and every witness point is still checked, once
    powers, built, evaluated = [], [], []
    _count_calls(monkeypatch, constructions, "_gold_powers", powers)
    _count_calls(monkeypatch, vbf, "evaluate", evaluated)  # monomial's route
    _count_calls(monkeypatch, cli, "_theorem12_witness", built)
    rc, stdout, err = run(capsys, *argv)
    assert (rc, err) == (0, "") and "FAIL" not in stdout
    m = int(argv[argv.index("--m") + 1])
    assert len(powers) == 1 and evaluated == []
    built = [a for _, _, a in built]
    if points is None:  # sampled: a = 1, the generator and one seeded draw
        assert built[0] == 1 and len(set(built)) == len(built) == 3 and Field(m).generator in built
    else:
        assert built == points


@pytest.mark.parametrize(
    "family_args, digest",
    [
        (("thm1", "--m", "7", "--i", "2"),
         "2ba0254ddb090250ca6893eabcfe0301bb8bf7bb904bf4a29d144e42e194144d"),
        (("thm2", "--m", "8", "--i", "3"),
         "f1de4aa0158be6a97dccd17f365b26c759bb16d3f24c1cb10cec4552211095cc"),
        (("thm3", "--m", "6", "--i", "1"),
         "f8e62561963fef523efa80de6281cdd96c47b05250fd44b260ef7549b38f9dda"),
        (("thm4", "--m", "9", "--n", "3", "--i", "2"),
         "197ec8ff089a4bc7337694d947e6b3a130eee8646103f70827543c106cda1188"),
    ],
    ids=["thm1", "thm2", "thm3", "thm4"],
)
def test_construct_twisted_family_checks_no_witness(capsys, monkeypatch, family_args, digest):
    # construct writes the table of the pair it builds; no witness is checked
    built = []
    _count_calls(monkeypatch, cli, "_theorem12_witness", built)
    rc, stdout, err = run(capsys, "construct", "--family", *family_args)
    assert (rc, err, built) == (0, "", [])
    assert hashlib.sha256(stdout.encode("ascii")).hexdigest() == digest


_RANDOM_LUT_REPORTS = [
    (7, "function", "268a952f7c4a883d40adba058e0add99fc32010452714c554edd00a6c2be9b38"),
    (7, "permutation", "407b51c5ab89154953e455e946c709debf00d70b058fcedf0bb43a611837e69b"),
    (8, "function", "8b0802268ff2c4edc17b9aa9ddfb53ce6286adf01e223c1315fd6b80aa490c07"),
    (8, "permutation", "f27fde557a63816e08a680476df09b935b46c4b5b79cc0c9fa8f465e271b8832"),
    (9, "function", "76d4adece78bf443993017ffc047d8dea5c4a3a6e6c451277549db6df173417d"),
    (9, "permutation", "0f3b088ed3493e837b3b7ca734b08f502222db5f441698e704d97869670858dd"),
    (10, "function", "02f3386c09041499bcabf3ca854239c4ab90a589adf7d2f59105c24e9115ce05"),
    (10, "permutation", "602e39d3a07dd1f388bc72ce92efc6b64d6d73911f40d69444a7d192f8877a6c"),
    (11, "function", "6297054b377090c2b4cfc496692bf76987d85f6f0d619feffb2f79720fadff4e"),
    (11, "permutation", "e0fdd9024443f7d043c30dc8dc5bfc37f41af054c8a9467f0b099275a23b376c"),
]


@pytest.mark.parametrize("m, kind, digest", _RANDOM_LUT_REPORTS,
                         ids=[f"{k}-m{m}" for m, k, _ in _RANDOM_LUT_REPORTS])
def test_random_lut_report_bytes_are_pinned(tmp_path, capsys, m, kind, digest):
    # tables with no symmetry, on both sides of the Walsh gather kernel's
    # cap (m <= 10) and at the m = 7 difference block; the digests were
    # taken before those routes existed, from the orbit path
    n = 1 << m
    rng = np.random.default_rng(3400 + m)
    vals = rng.integers(0, n, size=n) if kind == "function" else rng.permutation(n)
    path = tmp_path / "random.lut"
    path.write_text(lut_text(FuncTable(Field(m), vals)))
    rc, stdout, err = run(capsys, "analyze", str(path))
    assert (rc, err) == (0, "")
    assert hashlib.sha256(stdout.encode("ascii")).hexdigest() == digest


@pytest.mark.parametrize(
    "argv", [("thm1", "--m", "7"), ("thm2", "--m", "6", "--i", "5", "--a", "3")]
)
def test_verify_corrupted_closed_form_ends_the_claim_at_a_1(capsys, monkeypatch, argv):
    # a wrong x^(2^i) changes the closed form and leaves the Gold table
    real = constructions._gold_powers

    def corrupted(ctx, i):
        frobenius, gold = real(ctx, i)
        frobenius ^= 1
        return frobenius, gold

    monkeypatch.setattr(constructions, "_gold_powers", corrupted)
    rc, stdout, err = run(capsys, "verify", *argv)
    assert (rc, stdout) == (1, "FAIL scaling identity failed\n")
    assert "Traceback" not in stdout + err


@pytest.mark.parametrize("fam, m", [("thm1", 7), ("thm2", 8)])
def test_verify_corrupted_witness_at_another_point_is_its_fail_line(capsys, monkeypatch, fam, m):
    # the F1 table of the second point checked (the first is a = 1) is
    # corrupted: the claim prints its other lines and that point's FAIL line
    real, calls = constructions.graph_image, []

    def corrupted(L, f):
        w = real(L, f)
        calls.append(L)
        if len(calls) == 1:
            return w
        f1 = w.F1.as_array().copy()
        f1[3] ^= 1
        return ccz.CczWitness(w.L, FuncTable(w.F1.ctx, f1), w.F2)

    monkeypatch.setattr(constructions, "graph_image", corrupted)
    rc, stdout, err = run(capsys, "verify", fam, "--m", str(m), "--a", "0x3")
    lines = stdout.splitlines()
    assert (rc, err) == (1, "")
    assert all(line.startswith("ok   ") for line in lines[:-1]) and len(lines) > 2
    assert lines[-1] == (
        "FAIL graph witness identities at a=0x3 (first projection is not an involution)"
    )


def test_verify_remark4_sampled(capsys):
    rc, stdout, _ = run(capsys, "verify", "remark4", "--m", "5", "--i", "1", "--budget", "2000")
    assert rc == 0
    assert "no " in stdout.lower()
    # the search draws no samples, so it reads no seed
    rc, stdout, err = run(capsys, "verify", "remark4", "--m", "5", "--i", "1", "--budget", "2000", "--seed", "7")
    assert (rc, stdout, err) == (2, "", "error: verify remark4 does not read --seed\n")


def test_verify_remark4_workers(capsys):
    rc, _, _ = run(capsys, "verify", "remark4", "--m", "5", "--i", "2", "--budget", "500", "--threads", "2")
    assert rc == 0


def test_verify_remark4_exhaustive_at_m7(capsys):
    rc, stdout, _ = run(capsys, "verify", "remark4", "--m", "7", "--i", "1")
    assert rc == 0
    assert stdout == "ok   no linear completion to a permutation among all 2^49 linear maps\n"


def test_verify_remark4_searches_the_checked_unit_witness(capsys, monkeypatch):
    # the thm1 table and its Gold table are built once, and the map searched
    # is the a = 1 witness checked on them
    powers, built = [], []
    _count_calls(monkeypatch, constructions, "_gold_powers", powers)
    _count_calls(monkeypatch, cli, "_theorem12_witness", built)
    rc, stdout, err = run(capsys, "verify", "remark4", "--m", "7", "--i", "2")
    line = "ok   no linear completion to a permutation among all 2^49 linear maps\n"
    assert (rc, stdout, err) == (0, line, "")
    assert len(powers) == 1 and [a for _, _, a in built] == [1]


def _spy(monkeypatch, name: str, owners) -> list:
    """Record the positional arguments of every call of ``name`` through
    each of ``owners`` that holds it, in one list."""
    calls = []
    for owner in owners:
        real = getattr(owner, name, None)
        if real is not None:
            spy = lambda *args, real=real, **kw: calls.append(args) or real(*args, **kw)  # noqa: E731
            monkeypatch.setattr(owner, name, spy)
    return calls


def test_witness_consumers_image_each_map_once(capsys, monkeypatch):
    # the search, example1 and ccz-invariance read the tables of the witness
    # they hold: one graph image per map, and no Gold table built again
    owners = (ccz, constructions, cli, vbf)
    images, transforms = _spy(monkeypatch, "graph_image", owners), _spy(monkeypatch, "ccz_transform", owners)
    gold = (_spy(monkeypatch, "monomial", owners), _spy(monkeypatch, "evaluate", owners))
    assert run(capsys, "verify", "remark4", "--m", "7", "--i", "2")[0] == 0
    assert (len(images), gold) == (1, ([], []))
    images.clear()
    assert run(capsys, "verify", "example1", "--m", "7")[0] == 0
    assert len(images) == 1
    images.clear()
    ranks = _spy(monkeypatch, "map_invertible", owners)
    rc, stdout, _ = run(capsys, "verify", "ccz-invariance", "--m", "5", "--count", "8")
    assert (rc, stdout.splitlines()) == (0, [
        "ok   at least one of 5 graph maps produced a function",
        "ok   spectra preserved by all 3 produced functions",
    ])
    # the three structured maps and the 8 random ones, 6 of them singular,
    # each imaged and ranked once
    assert (len(images), len(ranks), transforms) == (11, 11, [])


def test_verify_remark4_node_budget_exit3(capsys):
    rc, _, err = run(capsys, "verify", "remark4", "--m", "5", "--i", "1", "--budget", "3")
    assert rc == 3
    assert "budget" in err.lower()


def test_verify_remark4_found_completion_exit1(tmp_path, capsys):
    # the zero table is completed by every invertible linear map, so the
    # claim that no completion exists must fail
    path = tmp_path / "probe.lut"
    path.write_text("m=4 poly=0x13\n" + "0x0\n" * 16)
    rc, stdout, _ = run(capsys, "verify", "remark4", "--lut", str(path), "--threads", "1")
    assert rc == 1
    assert "completion" in stdout.lower()


def test_verify_remark4_wrong_parity_exit2(capsys):
    rc, _, _ = run(capsys, "verify", "remark4", "--m", "4", "--i", "1")
    assert rc == 2


def test_verify_remark4_time_budget_exit3(capsys):
    rc, _, err = run(capsys, "verify", "remark4", "--m", "5", "--i", "1", "--budget", "0.000001")
    assert rc == 3
    assert "budget" in err.lower()


@pytest.mark.parametrize(
    "m,i,poly", [(5, 1, None), (5, 2, None), (7, 1, None), (7, 2, None), (5, 1, "0x29"), (5, 2, "0x2f")]
)
def test_verify_remark4_m_path_matches_the_lut_search(tmp_path, capsys, m, i, poly):
    # --m searches through the Gold graph, --lut over the table's Walsh zeros
    field = ["--m", str(m), "--i", str(i)] + (["--poly", poly] if poly else [])
    path = tmp_path / "thm1.lut"
    assert run(capsys, "construct", "--family", "thm1", *field, "--out", str(path))[0] == 0
    by_lut = run(capsys, "verify", "remark4", "--lut", str(path))
    assert by_lut == run(capsys, "verify", "remark4", *field)
    assert by_lut[:2] == (0, f"ok   no linear completion to a permutation among all 2^{m * m} linear maps\n")


@pytest.mark.parametrize("rows_per_block", [None, 3])
@pytest.mark.parametrize(
    "seed, rc, line",
    [
        (0, 1, "FAIL linear completion found: rows [0x9c, 0xaf, 0x55, 0x4c, 0x48, 0x88, 0x5d, 0xe9]"),
        (1, 0, "ok   no linear completion to a permutation among all 2^64 linear maps"),
    ],
)
def test_verify_remark4_lut_fills_its_zero_table_in_blocks(
    tmp_path, capsys, monkeypatch, rows_per_block, seed, rc, line
):
    # a random permutation plus a random linear map L has the completion L;
    # seed << 7 xored into entry 0 makes the entries XOR to 0x80 at seed 1,
    # so mask 0x80 is the first Walsh row with no zero (odd weight).  The
    # m = 8 zero table is gathered in 4 blocks of 64 masks, or 86 blocks of
    # 3, which end off every power-of-two boundary
    if rows_per_block:
        monkeypatch.setattr(spectra, "_block_rows", lambda n, floor=1: rows_per_block)
    rng = np.random.default_rng(seed)
    vals = rng.permutation(256) ^ _linear_table(rng.integers(0, 256, size=8))
    vals[0] ^= seed << 7
    path = tmp_path / "seeded.lut"
    path.write_text(lut_text(FuncTable(Field(8), vals)))
    assert run(capsys, "verify", "remark4", "--lut", str(path)) == (rc, line + "\n", "")


def test_verify_remark4_rechecks_a_completion_on_the_table(tmp_path, capsys, monkeypatch):
    # thm1 has no completion, so any map either search returned must fail the check
    monkeypatch.setattr(
        "vbfkit.cli.gold_graph_completion_search", lambda w, i, **kw: identity_map(w.F1.ctx.m)
    )
    monkeypatch.setattr("vbfkit.cli.linear_completion_search", lambda f, **kw: identity_map(f.ctx.m))
    path = tmp_path / "thm1.lut"
    assert run(capsys, "construct", "--family", "thm1", "--m", "5", "--i", "1", "--out", str(path))[0] == 0
    failed = (1, "FAIL the completion found does not make the table a permutation\n")
    assert run(capsys, "verify", "remark4", "--m", "5", "--i", "1")[:2] == failed
    assert run(capsys, "verify", "remark4", "--lut", str(path))[:2] == failed


def test_verify_remark4_checks_a_completion_on_thm1_not_on_gold(capsys, monkeypatch):
    # the zero map completes the Gold table x^3 but not thm1, so only a
    # check on the thm1 table itself rejects it
    monkeypatch.setattr(
        "vbfkit.cli.gold_graph_completion_search",
        lambda w, i, **kw: BinLinearMap(w.F1.ctx.m, w.F1.ctx.m, [0] * w.F1.ctx.m),
    )
    failed = (1, "FAIL the completion found does not make the table a permutation\n", "")
    assert run(capsys, "verify", "remark4", "--m", "5", "--i", "1") == failed


def test_out_of_memory_is_one_error_line(tmp_path, capsys, monkeypatch):
    def exhausted(f, **kw):
        raise MemoryError("Unable to allocate 256. MiB for an array")

    monkeypatch.setattr("vbfkit.cli.linear_completion_search", exhausted)
    path = tmp_path / "gold5.lut"
    assert run(capsys, "construct", "--family", "gold", "--m", "5", "--i", "1", "--out", str(path))[0] == 0
    rc, stdout, err = run(capsys, "verify", "remark4", "--lut", str(path))
    assert (rc, stdout) == (2, "")
    assert err.splitlines() == ["error: out of memory (Unable to allocate 256. MiB for an array)"]


# the child caps its own address space 32 MiB above what it maps once
# imported: room to read an m = 13 table, not for the 64 MiB zero table of
# its search
_CAPPED_REMARK4 = """
import resource, sys
from vbfkit.cli import main
status = open("/proc/self/status").read().split("VmSize:")[1]
cap = (int(status.split()[0]) << 10) + (32 << 20)
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
sys.exit(main(["verify", "remark4", "--lut", sys.argv[1]]))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmSize from /proc")
def test_remark4_lut_out_of_memory_is_one_error_line(tmp_path):
    # the zero table is the search's first large array, and it does not fit
    path = tmp_path / "perm13.lut"
    path.write_text(lut_text(FuncTable(Field(13), np.random.default_rng(13).permutation(1 << 13))))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, "-c", _CAPPED_REMARK4, str(path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert "Traceback" not in proc.stderr
    [line] = proc.stderr.splitlines()
    assert line.startswith("error: out of memory (Unable to allocate")


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
    # 6 of these 60 trials permute, so the brute-force side is exercised too
    rc, _, _ = run(capsys, "verify", "prop-gold-perm", "--m", "3", "--seed", "10")
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


_SAMPLED = [
    ("prop-gold-perm", "_gold_perm_rows", "summand pairs"),
    ("prop-gold-perm-even", "_gold_perm_even_rows", "summands"),
]


@pytest.mark.parametrize("claim, core, drawn", _SAMPLED)
def test_verify_gold_perm_fails_when_one_verdict_disagrees(
    capsys, monkeypatch, claim, core, drawn
):
    decide = getattr(cli, core)

    def one_flipped(*args):
        verdicts = decide(*args)
        verdicts[7] = not verdicts[7]
        return verdicts

    monkeypatch.setattr(cli, core, one_flipped)
    rc, out, err = run(capsys, "verify", claim, "--m", "6", "--i", "1", "--count", "20")
    want = f"FAIL criterion agreed with brute force on 20 random {drawn}\n"
    assert (rc, out, err) == (1, want, "")


@pytest.mark.parametrize("claim", ["prop-gold-perm", "prop-gold-perm-even"])
def test_verify_gold_perm_reports_a_nonlinear_summand_with_exit_2(capsys, monkeypatch, claim):
    build = cli._linearized_tables

    def one_row_broken(ctx, drawn):
        tabs = build(ctx, drawn)
        tabs[3, 5] ^= 1
        return tabs

    monkeypatch.setattr(cli, "_linearized_tables", one_row_broken)
    rc, out, err = run(capsys, "verify", claim, "--m", "6", "--i", "1", "--count", "20")
    assert (rc, out, err) == (2, "", "error: table is not F_2-linear\n")


def test_sampled_claims_reach_no_polynomial(capsys, monkeypatch):
    # perfbench/tracer.py looks each of these up by name
    for module, name in (
        (ccz, "gold_perm_criterion"),
        (ccz, "gold_perm_criterion_even"),
        (vbf, "evaluate"),
        (vbf, "is_permutation"),
    ):
        assert callable(getattr(module, name))

    def refuse(*args, **kwargs):
        raise AssertionError("a sampled claim built a polynomial")

    monkeypatch.setattr(vbf, "evaluate", refuse)
    monkeypatch.setattr(vbf, "UnivariatePoly", refuse)
    for claim, m in (("prop-gold-perm", "5"), ("prop-gold-perm-even", "6")):
        rc, out, _ = run(capsys, "verify", claim, "--m", m, "--i", "1", "--count", "20")
        assert (rc, out[:5]) == (0, "ok   ")


def _traced_peak(capsys, *argv) -> int:
    """The peak of memory that tracemalloc sees while ``argv`` runs; it must pass."""
    tracemalloc.start()
    try:
        assert run(capsys, *argv)[0] == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("claim", ["prop-gold-perm", "prop-gold-perm-even"])
def test_sampled_claims_decide_in_chunks_of_bounded_memory(capsys, claim):
    argv = ["verify", claim, "--m", "8", "--i", "1", "--seed", "4", "--count"]
    run(capsys, *argv, "1")  # the field's tables are built once, outside the peaks
    assert _traced_peak(capsys, *argv, "2000") < 2 * _traced_peak(capsys, *argv, "200")


def test_verify_ccz_invariance_checks_each_image_as_it_is_made(capsys):
    # no image is kept once its spectra are compared, so memory does not grow with --count
    argv = ["verify", "ccz-invariance", "--m", "6", "--seed", "4", "--count"]
    # the field's tables, and the interpreter's free lists of the maps' row
    # tuples, are filled outside the peaks
    run(capsys, *argv, "2000")
    assert _traced_peak(capsys, *argv, "2000") < 2 * _traced_peak(capsys, *argv, "200")


def test_verify_ccz_invariance(capsys):
    rc, _, _ = run(capsys, "verify", "ccz-invariance", "--m", "4", "--count", "8", "--seed", "1")
    assert rc == 0


def test_verify_ccz_invariance_count(capsys):
    rc, stdout, err = run(capsys, "verify", "ccz-invariance", "--m", "5", "--count", "-3")
    assert (rc, stdout) == (2, "")
    assert err == "error: --count must be at least 0, got -3\n"
    # with no random maps the structured graph maps still run
    rc, stdout, _ = run(capsys, "verify", "ccz-invariance", "--m", "5", "--count", "0")
    assert rc == 0
    assert stdout.splitlines() == [
        "ok   at least one of 3 graph maps produced a function",
        "ok   spectra preserved by all 3 produced functions",
    ]


@pytest.mark.parametrize("m, movers", [("2", 1), ("3", 2)])
def test_verify_ccz_invariance_below_the_cubic_twist(capsys, m, movers):
    # the Theorem 1/2 witness needs m >= 4; below it the identity, example1
    # (odd m) and the random maps still run
    rc, stdout, err = run(capsys, "verify", "ccz-invariance", "--m", m, "--count", "0")
    assert (rc, err) == (0, "")
    assert stdout.splitlines() == [
        f"ok   at least one of {movers} graph maps produced a function",
        f"ok   spectra preserved by all {movers} produced functions",
    ]
    rc, stdout, err = run(capsys, "verify", "ccz-invariance", "--m", m)
    assert (rc, err) == (0, "")
    assert stdout.startswith("ok   at least one of ")


@pytest.mark.parametrize("budget", ["1e3", "ten", "1.2.3"])
def test_verify_remark4_malformed_budget_exit2(capsys, budget):
    rc, stdout, err = run(capsys, "verify", "remark4", "--m", "5", "--budget", budget)
    assert (rc, stdout) == (2, "")
    assert err == (
        f"error: --budget must be an integer node count or decimal seconds, got {budget!r}\n"
    )


@pytest.mark.parametrize("budget", ["-0.5", "0.0", "-0.0"])
def test_verify_remark4_nonpositive_seconds_budget_exit2(capsys, budget):
    rc, stdout, err = run(capsys, "verify", "remark4", "--m", "5", "--budget", budget)
    assert (rc, stdout) == (2, "")
    assert err == f"error: --budget seconds must be positive, got {budget!r}\n"


@pytest.mark.parametrize("flag", [("--relaxed",), ("--t", "3"), ("--d", "3")])
def test_verify_rejects_family_only_flags(capsys, flag):
    # no claim reads them, so accepting them would silently run the strict claim
    argv = ["verify", "thm2", "--m", "8", "--i", "1", *flag]
    if flag[0] != "--t":
        assert run(capsys, *argv) == (2, "", f"error: verify thm2 does not read {flag[0]}\n")
        for command in ("construct", "analyze"):
            args = build_parser().parse_args([command, "--family", "thm2", "--m", "8", *flag])
            assert getattr(args, flag[0][2:]) == (True if len(flag) == 1 else 3)
        return
    # --m fixes t wherever a family had it, so no subcommand has --t
    for command in (argv, ["construct", "--family", "welch", "--m", "7", *flag]):
        with pytest.raises(SystemExit) as ei:
            main(command)
        assert ei.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: {' '.join(flag)}" in captured.err
        assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ("f8-check", "--i", "0"),
        ("f8-check", "--i", "-4"),
        ("thm3", "--m", "6", "--i", "0"),
        ("prop-gold-perm-even", "--m", "6", "--i", "-1"),
        ("prop-gold-perm", "--m", "5", "--i", "-1"),
    ],
)
def test_verify_nonpositive_index_exit2(capsys, argv):
    rc, stdout, err = run(capsys, "verify", *argv)
    assert (rc, stdout, err) == (2, "", "error: Frobenius index must be positive\n")


@pytest.mark.parametrize(
    "argv, unread",
    [
        (("thm1", "--m", "7", "--i", "1", "--lut", "/nonexistent", "--budget", "0.5", "--count", "3"),
         "verify thm1 does not read --lut, --budget, --count"),
        (("f8-check", "--i", "1", "--m", "99", "--n", "2"), "verify f8-check does not read --m, --n"),
        (("ccz-invariance", "--m", "5", "--i", "3", "--a", "7", "--count", "2"),
         "verify ccz-invariance does not read --i, --a"),
        (("remark4", "--lut", "/nonexistent", "--m", "5", "--i", "1", "--poly", "0x25"),
         "verify remark4 --lut does not read --m, --i, --poly"),
        (("thm4", "--m", "9", "--n", "3", "--a", "3"), "verify thm4 does not read --a"),
    ],
    ids=["thm1", "f8-check", "ccz-invariance", "remark4-lut", "thm4"],
)
def test_verify_rejects_options_its_claim_does_not_read(capsys, argv, unread):
    rc, stdout, err = run(capsys, "verify", *argv)
    assert (rc, stdout, err) == (2, "", f"error: {unread}\n")


def test_verify_index_defaults_to_one(capsys):
    rc, stdout, err = run(capsys, "verify", "thm1", "--m", "7")
    assert (rc, err) == (0, "")
    assert (rc, stdout, err) == run(capsys, "verify", "thm1", "--m", "7", "--i", "1")
    assert run(capsys, "verify", "f8-check") == run(capsys, "verify", "f8-check", "--i", "1")


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


def test_verify_claim_names_in_order(capsys):
    with pytest.raises(SystemExit) as ei:
        main(["verify", "--help"])
    assert ei.value.code == 0
    claims = (
        "thm1,thm2,thm3,thm4,remark4,example1,"
        "prop-gold-perm,prop-gold-perm-even,f8-check,ccz-invariance"
    )
    assert "{" + claims + "}" in capsys.readouterr().out


def test_verify_missing_m_exit2(capsys):
    rc, _, err = run(capsys, "verify", "thm1", "--i", "1")
    assert rc == 2
    assert "--m" in err


# SHA-256 of the report bytes, as computed one squaring orbit at a time
# (631 Walsh rows and difference directions for gold at m = 13); the scaling
# orbits, one row and one direction here, must give the same bytes.  thm1 and
# thm2 do not scale, so the reports of their LUTs pin the three-factor
# transform and the half-domain difference counts on many rows.
REPORT_DIGESTS = [
    (("gold", "--m", "14", "--i", "1"),
     "756a0da35d6e502963e03d8f1a6d465a436834f79a12222f651dccf7e016d411"),
    (("gold", "--m", "15", "--i", "1"),
     "ba77aa7248582426c19250cf56c5e4d9eb9544ca423b7ce70f4e06f3a01a2b73"),
    (("inverse", "--m", "15"),
     "e1ae654c238acd7cd00105fe70a067e805234555fc3d076f24ccec4bf0c4c4dd"),
    (("thm1", "--m", "15", "--i", "1"),
     "4ecd9871f0fa94ce631a46f1f09a5772f3b334c9c714e3a20133393c6ec9740f"),
    (("thm2", "--m", "14", "--i", "1"),
     "daa695c84b77dedba3eb5f134e6eb4e78fcd146cc846b9e0f275c23294b24aad"),
]


@pytest.mark.parametrize(
    "family_args, digest",
    REPORT_DIGESTS,
    ids=["gold-m14", "gold-m15", "inverse-m15", "thm1-m15", "thm2-m14"],
)
def test_analyze_report_digests_at_m14_m15(tmp_path, capsys, family_args, digest):
    # thm1 and thm2 take their spectra from the Gold table; the LUT of the
    # same table keeps its own orbit path, and both must give the digest
    out, lut = tmp_path / "report.json", tmp_path / "table.lut"
    rc, _, _ = run(capsys, "analyze", "--family", *family_args, "--out", str(out))
    assert rc == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
    assert run(capsys, "construct", "--family", *family_args, "--out", str(lut))[0] == 0
    rc, _, _ = run(capsys, "analyze", str(lut), "--out", str(out))
    assert rc == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_parser_is_built_once_and_shared(capsys):
    assert build_parser() is build_parser()
    rc, _, _ = run(capsys, "analyze", "--family", "gold", "--m", "5", "--i", "2")
    with pytest.raises(SystemExit) as ei:
        main(["verify", "thm9", "--m", "5"])
    assert ei.value.code == 2
    assert "invalid choice: 'thm9'" in capsys.readouterr().err
    rc2, out, _ = run(capsys, "verify", "thm1", "--m", "7")  # --i falls back to 1
    assert rc == rc2 == 0
    assert out.count("ok   ") == 5


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


@lru_cache(maxsize=None)
def _irreducibles(m: int) -> tuple:
    return tuple(p for p in range((1 << m) + 1, 2 << m, 2) if is_irreducible(p))


@st.composite
def lut_tables(draw):
    m = draw(st.integers(2, 10))
    ctx = Field(m, draw(st.sampled_from(_irreducibles(m))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        return FuncTable(ctx, rng.permutation(ctx.size))
    return FuncTable(ctx, rng.integers(0, ctx.size, size=ctx.size))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(lut_tables())
def test_lut_round_trip_is_the_same_table(f):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "f.lut")
        with open(path, "w", encoding="ascii") as fh:
            fh.write(lut_text(f))
        back = read_lut(path)
    assert back == f  # equal fields (degree and polynomial) and entries


def _lut_file(tmp_path, data: bytes) -> str:
    path = tmp_path / "f.lut"
    path.write_bytes(data)
    return str(path)


# spellings of one table that the line reader accepts, from its head line
# and its canonical entry lines; "upper-digits" is canonical too
_LUT_SPELLINGS = {
    "upper-digits": lambda head, lines: [head, *(ln.upper().replace("X", "x") for ln in lines)],
    "uppercase": lambda head, lines: [head, *(ln.upper() for ln in lines)],
    "0X-prefix": lambda head, lines: [head, *(ln.replace("0x", "0X") for ln in lines)],
    "no-prefix": lambda head, lines: [head, *(ln[2:] for ln in lines)],
    "blank-lines": lambda head, lines: ["", head, "", *lines[:7], "  ", *lines[7:], ""],
    "padded-lines": lambda head, lines: [f" {head}\t", *(f"  {ln} " for ln in lines)],
    "mixed-widths": lambda head, lines: [head, *(f"0x{int(ln, 16):x}" for ln in lines)],
    "wide-entries": lambda head, lines: [head, *(f"0x{int(ln, 16):020x}" for ln in lines)],
    # a bare CR ends the header line: the first LF-ended line is no header
    "CR-after-header": lambda head, lines: [f"{head}\r{lines[0]}", *lines[1:]],
}


@pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"], ids=["LF", "CRLF", "CR"])
@pytest.mark.parametrize("spelling", _LUT_SPELLINGS)
@pytest.mark.parametrize("m", [4, 9])
def test_lut_spellings_read_as_the_same_table(tmp_path, m, spelling, ending):
    f = FuncTable(Field(m), np.random.default_rng(m).permutation(1 << m))
    head, *lines = lut_text(f).splitlines()
    text = ending.join(_LUT_SPELLINGS[spelling](head, lines))
    for data in (text + ending, text):  # with and without a final line end
        path = _lut_file(tmp_path, data.encode())
        assert read_lut(path) == f == cli._lut_by_lines(path, data.encode())


@pytest.mark.parametrize(
    "body, message",
    [
        (b"0x" + b"f" * 20 + b"\n" + b"0x00\n" * 31, "table entry 1208925819614629174706175 outside [0, 32)"),
        (b"0x0g\n" + b"0x00\n" * 31, "{path}: table entries must be hex integers"),
        (b"0x00\n" * 31, "table needs 32 entries, got 31"),
        (b"0x00\n" * 31 + b"0x1\xe9\n", "{path}: not ASCII text (byte 0xe9)"),
        (b"0x00\n" * 31 + b"0x20\n", "table entry 32 outside [0, 32)"),
        (b"0x00\n" * 33, "table needs 32 entries, got 33"),
        # lines of the canonical width that are not in the canonical form
        (b"0x00\n" + b"0x00 0x00\n" + b"0x00\n" * 29, "{path}: table entries must be hex integers"),
        (b"0x00\n" * 31 + b"1x00\n", "{path}: table entries must be hex integers"),
        (b"0x00\n" * 31 + b"0100\n", "table entry 256 outside [0, 32)"),
        # the widest canonical entries, and one digit more, beyond int64
        (b"0x" + b"f" * 15 + (b"\n0x" + b"0" * 15) * 31 + b"\n", "table entry 1152921504606846975 outside [0, 32)"),
        (b"0x" + b"f" * 16 + (b"\n0x" + b"0" * 16) * 31 + b"\n", "table entry 18446744073709551615 outside [0, 32)"),
    ],
    ids=["20-digits", "non-hex-at-width", "one-short", "non-ascii-body", "out-of-range", "one-over",
         "two-on-a-line", "1x-prefix", "no-prefix-at-width", "15-digits", "16-digits"],
)
def test_malformed_lut_body_is_one_error_line(tmp_path, capsys, body, message):
    path = _lut_file(tmp_path, b"m=5 poly=0x25\n" + body)
    rc, stdout, err = run(capsys, "analyze", path)
    assert (rc, stdout, err) == (2, "", f"error: {message.format(path=path)}\n")


def _two_irreducibles(m: int) -> list[int]:
    return [p for p in range((1 << m) + 1, 2 << m, 2) if is_irreducible(p)][:2]


@pytest.mark.parametrize("m", range(2, 17))
def test_lut_text_is_the_formatted_entries(m):
    values = np.random.default_rng(m).integers(0, 1 << m, size=1 << m)
    values[:2] = 0, (1 << m) - 1  # the widest and the most padded entry
    width = (m + 3) // 4
    for poly in _two_irreducibles(m):
        f = FuncTable(Field(m, poly), values)
        lines = [f"m={m} poly=0x{poly:x}", *(f"0x{v:0{width}x}" for v in values.tolist())]
        assert lut_text(f) == "\n".join(lines) + "\n"


def test_canonical_lut_never_reaches_the_line_reader(tmp_path, monkeypatch):
    reference = cli._lut_by_lines
    by_lines = _spy(monkeypatch, "_lut_by_lines", (cli,))
    for argv in (("gold", "4", "--i", "1"), ("gold", "9", "--i", "2"), ("thm1", "7", "--i", "1"),
                 ("inverse", "10")):
        path = tmp_path / f"{argv[0]}{argv[1]}.lut"
        assert main(["construct", "--family", argv[0], "--m", *argv[1:], "--out", str(path)]) == 0
        head, body = path.read_bytes().split(b"\n", 1)
        for data in (head + b"\n" + body, head + b"\n" + body.upper().replace(b"X", b"x")):
            path.write_bytes(data)  # upper-case digits are canonical too
            assert read_lut(str(path)) == reference(str(path), data)
            assert by_lines == []
    path.write_bytes(data.replace(b"\n", b"\r\n"))
    read_lut(str(path))
    assert len(by_lines) == 1
