"""Bit-sliced ANF layer and sign-row Walsh path against independent oracles.

The oracles are the earlier implementations: the degree read off the
univariate polynomial from ``interpolate``, the witness found by computing
each component's degree on its own uint8 bit table
(``anf_oracle.component_degree``), one component after another, and the
witness read off the degree of every component mask
(``anf_oracle.component_degrees``).
"""

import copy
import pickle
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anf_oracle import component_degree as component_degree_oracle
from anf_oracle import component_degrees, mobius_transform
from vbfkit import vbf
from vbfkit.ccz import power_inequivalence_witness
from vbfkit.cli import analysis_report
from vbfkit.constructions import theorem1, theorem4
from vbfkit.gf2m import Field
from vbfkit.spectra import _dual_reindex, _fwht_rows, _sign_rows, walsh_spectrum, walsh_value
from vbfkit.vbf import (
    FuncTable,
    algebraic_degree,
    component_degree,
    interpolate,
    monomial,
    packed_anf,
    two_weight,
)

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)


def _degree_oracle(f: FuncTable) -> int:
    """Maximum 2-weight over the exponents of the univariate representation."""
    return max((two_weight(e) for e in interpolate(f).terms), default=0)


def _witness_oracle(f: FuncTable) -> int | None:
    """First c >= 1 whose component degree lies outside {0, 1, deg F}."""
    allowed = {0, 1, _degree_oracle(f)}
    for c in range(1, f.ctx.size):
        if component_degree_oracle(f, c) not in allowed:
            return c
    return None


def _table_from_anf(ctx: Field, coeffs: dict) -> FuncTable:
    """F(x) = XOR of the packed coefficient of x^M over every M inside x."""
    xs = np.arange(ctx.size, dtype=np.int64)
    vals = np.zeros(ctx.size, dtype=np.uint32)
    for mono, c in coeffs.items():
        vals[(xs & mono) == mono] ^= c
    return FuncTable(ctx, vals)


@st.composite
def random_tables(draw, max_m=7):
    m = draw(st.integers(2, max_m))
    n = 1 << m
    vals = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    return FuncTable(Field(m), vals)


@st.composite
def low_degree_tables(draw, max_m=7):
    """A few monomials of weight at most d, each feeding a few output bits,
    so components of several degrees coexist and the witness varies."""
    m = draw(st.integers(2, max_m))
    n = 1 << m
    d = draw(st.integers(0, m))
    monos = [x for x in range(n) if x.bit_count() <= d]
    picks = draw(st.lists(st.sampled_from(monos), max_size=6))
    coeffs = {}
    for mono in picks:
        coeffs[mono] = coeffs.get(mono, 0) ^ draw(st.integers(1, n - 1))
    return _table_from_anf(Field(m), coeffs)


def _check_against_oracles(f: FuncTable) -> None:
    assert algebraic_degree(f) == _degree_oracle(f)
    assert power_inequivalence_witness(f) == _witness_oracle(f)
    deg = component_degrees(f)
    dual = _dual_reindex(f.ctx)
    for c in range(f.ctx.size):
        want = component_degree_oracle(f, c)
        assert deg[dual[c]] == want
        assert component_degree(f, c) == want


@PROPERTY
@given(random_tables())
def test_anf_path_matches_oracles_on_random_tables(f):
    _check_against_oracles(f)


@PROPERTY
@given(low_degree_tables())
def test_anf_path_matches_oracles_on_low_degree_anfs(f):
    _check_against_oracles(f)


def test_low_degree_witnesses_other_than_one_match_the_oracle():
    rng = random.Random(31)
    seen = set()
    for _ in range(80):
        m = rng.randrange(3, 7)
        n = 1 << m
        coeffs = {}
        for _ in range(rng.randrange(1, 6)):
            mono = rng.randrange(n)
            coeffs[mono] = coeffs.get(mono, 0) ^ rng.randrange(1, n)
        f = _table_from_anf(Field(m), coeffs)
        w = power_inequivalence_witness(f)
        assert w == _witness_oracle(f)
        seen.add(w)
    assert None in seen and 1 in seen
    assert any(w is not None and w > 1 for w in seen)


def test_packed_anf_bits_are_coordinate_anfs():
    rng = random.Random(32)
    ctx = Field(6)
    coeffs = {rng.randrange(64): rng.randrange(1, 64) for _ in range(9)}
    anf = packed_anf(_table_from_anf(ctx, coeffs))
    want = np.zeros(64, dtype=np.uint32)
    for mono, c in coeffs.items():
        want[mono] = c
    assert np.array_equal(anf, want)


@pytest.mark.parametrize("m", range(2, 17))
def test_packed_anf_bits_match_the_coordinate_mobius_transform(m):
    # odd and even m split the table into 2^p x 2^q blocks of both shapes
    rng = np.random.default_rng(40 + m)
    f = FuncTable(Field(m), rng.integers(0, 1 << m, 1 << m))
    anf, vals = packed_anf(f), f.as_array()
    for j in range(m):
        assert np.array_equal((anf >> j) & 1, mobius_transform((vals >> j) & 1)), j


def test_packed_anf_is_kept_read_only_and_equality_ignores_it():
    rng = random.Random(37)
    ctx = Field(7)
    entries = [rng.randrange(128) for _ in range(128)]
    f, g = FuncTable(ctx, entries), FuncTable(ctx, entries)
    anf = packed_anf(f)
    assert packed_anf(f) is anf and not anf.flags.writeable
    with pytest.raises(ValueError):
        anf[0] ^= 1
    assert f == g and hash(f) == hash(g) and len({f, g}) == 1  # g has no ANF yet
    assert np.array_equal(packed_anf(g), anf)
    entries[5] ^= 1
    assert FuncTable(ctx, entries) != f
    for twin in (copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
        assert twin == f and twin.ctx is ctx and not twin.as_array().flags.writeable
        assert not packed_anf(twin).flags.writeable and np.array_equal(packed_anf(twin), anf)


def test_analysis_report_runs_one_mobius_pass(monkeypatch):
    levels = []
    real = vbf._mobius_levels

    def counted(a, h):
        levels.append((a.size // h).bit_length() - 1)  # the levels h, 2h, ... below a.size
        real(a, h)

    monkeypatch.setattr(vbf, "_mobius_levels", counted)
    rng = np.random.default_rng(38)
    for f in (monomial(Field(9), 3), theorem1(Field(9), 1), FuncTable(Field(8), rng.permutation(256))):
        levels.clear()
        report = analysis_report(f)
        assert sum(levels) == f.ctx.m, report


def test_families_match_oracles_up_to_m9():
    for m, d in ((7, 3), (8, 7), (9, 5), (9, 13), (8, 254)):
        f = monomial(Field(m), d)
        assert algebraic_degree(f) == _degree_oracle(f)
        assert power_inequivalence_witness(f) is None
    rng = random.Random(33)
    ctx = Field(9)
    f = FuncTable(ctx, [rng.randrange(512) for _ in range(512)])
    assert algebraic_degree(f) == _degree_oracle(f)
    assert power_inequivalence_witness(f) == _witness_oracle(f)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(random_tables(max_m=5))
def test_walsh_distribution_matches_matrix_and_pointwise_oracle(f):
    n = f.ctx.size
    spec = walsh_spectrum(f)
    # the trace rows and columns are the dot-product ones permuted by the
    # dual index, so every nonzero mask's transformed row has the same tally
    from_matrix = Counter(_fwht_rows(_sign_rows(f, np.arange(1, n))).ravel().tolist())
    pointwise = Counter(walsh_value(f, a, b) for b in range(1, n) for a in range(n))
    assert spec.distribution == dict(from_matrix) == dict(pointwise)
    assert spec.max_abs == max(abs(v) for v in pointwise)


def _witness_from_degrees(f: FuncTable) -> int | None:
    """First c >= 1 whose component degree, read off the per-mask degrees
    at the dual index D[c], lies outside {0, 1, deg F}."""
    deg = component_degrees(f)
    comp = deg[_dual_reindex(f.ctx)]
    odd = np.flatnonzero((comp > 1) & (comp != deg.max()))
    return int(odd[0]) if odd.size else None


def test_witness_matches_per_mask_degrees_at_m11_to_15():
    rng = np.random.default_rng(34)
    tables = [("thm4 m=15 n=5", theorem4(Field(15), 5, 1))]
    for m in range(11, 16):
        ctx = Field(m)
        n = ctx.size
        tables += [
            (f"inverse m={m}", monomial(ctx, n - 2)),
            (f"gold m={m}", monomial(ctx, 3)),
            (f"random function m={m}", FuncTable(ctx, rng.integers(0, n, n))),
            (f"random permutation m={m}", FuncTable(ctx, rng.permutation(n))),
        ]
        if m % 2:
            tables.append((f"thm1 m={m}", theorem1(ctx, 1)))
    seen = set()
    for name, f in tables:
        w = power_inequivalence_witness(f)
        assert w == _witness_from_degrees(f), name
        seen.add(w)
    assert None in seen and 1 in seen
    assert any(w is not None and w > 1 for w in seen)


def test_witness_matches_oracle_on_200_seeded_tables():
    rng = random.Random(35)
    seen = set()
    for k in range(200):
        # ten tables each at m = 9 and 10, where the oracle costs tens of ms
        m = 2 + k % 7 if k < 180 else 9 + k % 2
        ctx = Field(m)
        n = ctx.size
        kind = k % 3
        if kind == 0:
            f = FuncTable(ctx, [rng.randrange(n) for _ in range(n)])
        elif kind == 1:
            f = FuncTable(ctx, rng.sample(range(n), n))
        else:
            coeffs = {}
            for _ in range(rng.randrange(1, 6)):
                mono = rng.randrange(n)
                coeffs[mono] = coeffs.get(mono, 0) ^ rng.randrange(1, n)
            f = _table_from_anf(ctx, coeffs)
        w = power_inequivalence_witness(f)
        assert w == _witness_oracle(f), (m, k)
        seen.add(w)
    assert None in seen and 1 in seen
    assert any(w is not None and w > 1 for w in seen)
