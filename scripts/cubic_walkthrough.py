#!/usr/bin/env python3
"""Walk through the cyclic cubic scenario step by step.

    python3 scripts/cubic_walkthrough.py

Prints the defining polynomial, the lifted series root, the residual
f(rho), the Galois orbit of the generator, a tau multiplicativity
sample, and the canonical decomposition of an invariant series back
into polynomial parts.
"""

from orefield.catalog import scenario_catalog
from orefield.extend import TensorElement, canonical_decomposition, ext_tau
from orefield.laurent import TwistedSeries


def main() -> None:
    scn = scenario_catalog("T3L1")
    print(f"scenario {scn.name} over {scn.field.name}, degree {scn.degree}")
    print(f"  f(x) = {scn.f}")

    rho = scn.rho
    print(f"\nseries root (precision {rho.prec}):")
    print(f"  rho = {rho}")
    residual = scn.f.evaluate_series(scn.root)
    print(f"  f(rho) = {residual}   (zero to the carried precision)")

    x = TensorElement.x(scn)
    print("\nGalois orbit of x:")
    for g in scn.group.elements:
        print(f"  {g}: x -> {x.apply(g)}")

    a = x + TensorElement.make(scn, [2])
    b = x * x - TensorElement.make(scn, [1])
    lhs = ext_tau(a * b, 24)
    rhs = ext_tau(a, 24) * ext_tau(b, 24)
    prec = min(lhs.prec, rhs.prec)
    same = lhs.truncate(prec) == rhs.truncate(prec)
    print(f"\ntau((x+2)(x^2-1)) == tau(x+2)*tau(x^2-1) to t^{prec}: {same}")

    # an invariant series: tau of a central-series combination
    z = ext_tau(TensorElement.make(scn, [3]) + x * x * x, 24)
    print(f"\ninvariant series z = {z}")
    table = canonical_decomposition(scn.field, [(scn.f.coefficient(0), z)])
    nonzero = {key: str(val) for key, val in table.items() if not val.is_zero()}
    print("decomposition of f_0 * z (nonzero cells only):")
    for key in sorted(nonzero):
        print(f"  {key}: {nonzero[key]}")


if __name__ == "__main__":
    main()
