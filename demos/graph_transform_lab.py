"""
Graph-transform lab: equivalence moves that preserve the spectra.

Demonstrates:
- bit-matrix linear maps on the doubled space F_2^(2m)
- carrying the point set {(x, F(x))} through an invertible map and reading
  off the transformed function when the image is again a graph
- proof witnesses packaged as (map, first projection, second projection)
- degree is NOT preserved: the inverse of the cube map jumps to (m+1)/2
- the exhaustive search showing no linear summand makes the twisted cubic
  a permutation
"""

from vbfkit import (
    BinLinearMap,
    Field,
    algebraic_degree,
    ccz_transform,
    differential_spectrum,
    invert,
    linear_completion_search,
    monomial,
    theorem1,
    walsh_spectrum,
)
from vbfkit.ccz import map_invertible
from vbfkit.constructions import example1_witness, theorem12_ccz_witness
from vbfkit.vbf import NotAPermutationError, compose, is_permutation


def witness_anatomy() -> None:
    print("witness anatomy on GF(2^5):")
    ctx = Field(5)
    w = theorem12_ccz_witness(ctx, 1, a=1)
    print(f"  map rows (2m x 2m bit matrix): {[hex(r) for r in w.L.rows]}")
    print(f"  first projection is a permutation: {is_permutation(w.F1)}")
    moved = compose(w.F2, invert(w.F1))
    twisted = theorem1(ctx, 1)
    print(f"  transformed table equals the twisted cubic: {moved == twisted}\n")


def degree_jump() -> None:
    print("graph moves preserve spectra but not degree:")
    ctx = Field(5)
    cube = monomial(ctx, 3)
    inv = invert(cube)
    same_w = walsh_spectrum(cube).distribution == walsh_spectrum(inv).distribution
    print(f"  deg x^3 = {algebraic_degree(cube)}, deg of its inverse = {algebraic_degree(inv)}")
    print(f"  identical Walsh distributions: {same_w}\n")


def random_moves(m: int = 4, tries: int = 200, seed: int = 7) -> None:
    print(f"random invertible maps on F_2^{2 * m} over the cube map:")
    import random

    rng = random.Random(seed)
    ctx = Field(m)
    f = monomial(ctx, 3)
    base = (walsh_spectrum(f).distribution, differential_spectrum(f).distribution)
    invertible = produced = preserved = 0
    for _ in range(tries):
        L = BinLinearMap(2 * m, 2 * m, [rng.randrange(1 << (2 * m)) for _ in range(2 * m)])
        if not map_invertible(L):
            continue
        invertible += 1
        try:
            g = ccz_transform(L, f)
        except NotAPermutationError:
            continue
        produced += 1
        if (walsh_spectrum(g).distribution, differential_spectrum(g).distribution) == base:
            preserved += 1
    print(f"  {invertible}/{tries} invertible, {produced} carried the graph to a graph")
    print(f"  spectra preserved by all successes: {preserved == produced}")
    print("  (a uniformly random map almost never sends a graph to a graph;")
    print("   the guaranteed movers come from the construction witnesses)\n")


def structured_mover() -> None:
    print("a structured mover that always works (odd m):")
    ctx = Field(5)
    w = example1_witness(ctx, 1)
    g = ccz_transform(w.L, monomial(ctx, 3))
    inv_cube = invert(monomial(ctx, 3))
    same = walsh_spectrum(g).distribution == walsh_spectrum(inv_cube).distribution
    print(f"  output shares the inverse cube map's Walsh distribution: {same}\n")


def completion_search() -> None:
    print("no linear summand completes the twisted cubic to a permutation:")
    ctx = Field(5)
    f = theorem1(ctx, 1)
    found = linear_completion_search(f)
    print(f"  exact search covered all 2^25 candidate maps: found {found}")
    print("  (the same search from the CLI: vbfkit verify remark4 --m 5 --i 1)")


if __name__ == "__main__":
    witness_anatomy()
    degree_jump()
    random_moves()
    structured_mover()
    completion_search()
