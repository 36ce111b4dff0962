"""Bit-sliced ANF layer and sign-row Walsh path against independent oracles.

The oracles are the earlier implementations: the degree read off the
univariate polynomial from ``interpolate`` and the witness found by
computing ``component_degree`` for one component after another.
"""

import random
from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from vbfkit.ccz import component_degrees, power_inequivalence_witness
from vbfkit.gf2m import Field
from vbfkit.spectra import _dual_reindex, walsh_matrix, walsh_spectrum, walsh_value
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
        if component_degree(f, c) not in allowed:
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
        assert deg[dual[c]] == component_degree(f, c)


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
    from_matrix = Counter(walsh_matrix(f).ravel().tolist())
    pointwise = Counter(walsh_value(f, a, b) for b in range(1, n) for a in range(n))
    assert spec.distribution == dict(from_matrix) == dict(pointwise)
    assert spec.max_abs == max(abs(v) for v in pointwise)
