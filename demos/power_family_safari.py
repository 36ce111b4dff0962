"""
Power-map safari: classic monomial S-boxes across field degrees.

Demonstrates:
- GF(2^m) contexts with default or explicit reduction polynomials
- building monomial lookup tables from the named exponent families
- Walsh and difference-count spectra, nonlinearity, differential uniformity
- the APN / almost-bent classification and how parity of m changes it
"""

from vbfkit import (
    Field,
    algebraic_degree,
    differential_uniformity,
    family_exponent,
    is_ab,
    is_apn,
    monomial,
    nonlinearity,
    walsh_spectrum,
)

FAMILIES = ("gold", "kasami", "welch", "niho", "inverse", "dobbertin")


def instance(family: str, m: int, i: int | None = None):
    """Exponent of the family at degree m, or None when the row is empty."""
    try:
        return family_exponent(family, m, i)
    except ValueError:
        return None


def survey(m: int) -> None:
    print(f"\n== GF(2^{m}), reduction polynomial 0x{Field(m).poly:x} ==")
    print(f"{'family':<10} {'exponent':>8} {'deg':>4} {'NL':>5} {'delta':>6}  class")
    ctx = Field(m)
    for family in FAMILIES:
        d = instance(family, m, i=2 if family == "kasami" else 1 if family == "gold" else None)
        if d is None:
            continue
        f = monomial(ctx, d)
        nl = nonlinearity(f)
        du = differential_uniformity(f)
        tags = [t for t, hit in (("APN", is_apn(f)), ("AB", is_ab(f))) if hit]
        label = "+".join(tags) if tags else "-"
        print(f"{family:<10} {d:>8} {algebraic_degree(f):>4} {nl:>5} {du:>6}  {label}")


def walsh_profile() -> None:
    """The value histogram behind the almost-bent definition."""
    ctx = Field(7)
    f = monomial(ctx, 3)
    dist = walsh_spectrum(f).distribution
    print("\nWalsh value histogram of the cube map on GF(2^7):")
    for value in sorted(dist):
        print(f"  {value:>5}: {dist[value]} pairs")
    print("three values only, at 0 and +/-2^((m+1)/2) -- the almost-bent shape")


def parity_contrast() -> None:
    """The same exponent family flips from AB to merely APN on even m."""
    print("\ncube map x^3 across degrees:")
    for m in range(4, 11):
        f = monomial(Field(m), 3)
        print(
            f"  m={m}: NL={nonlinearity(f):>4} delta={differential_uniformity(f)}"
            f" APN={is_apn(f)} AB={is_ab(f)}"
        )


if __name__ == "__main__":
    for m in (5, 6, 9, 10):
        survey(m)
    walsh_profile()
    parity_contrast()
