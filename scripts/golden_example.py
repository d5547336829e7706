#!/usr/bin/env python3
"""Walk the golden worked instance end to end and print what happens.

Usage: python3 scripts/golden_example.py
Expected standard output: scripts/golden_example.out
"""

import json

from freeabcat import (
    ChainObject,
    FpModule,
    FpSquare,
    Matrix,
    ZZ,
    chain_member,
    chain_to_pair,
    dual_member,
    evaluate_chain,
    evaluate_square,
    hom_group,
    square_to_chain,
)
from freeabcat.suites import default_battery

mat = Matrix.from_rows


def show_matrix(name, m):
    print(f"  {name} ({m.rows}x{m.cols}) = {json.dumps(m.to_rows())}")


def main():
    # a one-relation square: top edge the identity, left edge doubling
    sq = FpSquare(ZZ, mat(ZZ, [[1]]), mat(ZZ, [[2]]),
                  Matrix.zeros(ZZ, 0, 1), Matrix.zeros(ZZ, 0, 1))
    print("square corners (tl, tr, bl, br):", sq.ranks)

    chain = square_to_chain(sq)
    print("as a chain, ranks", chain.ranks)
    show_matrix("m1", chain.m1)
    show_matrix("m2", chain.m2)

    x = ChainObject(ZZ, mat(ZZ, [[-1], [2]]), mat(ZZ, [[0, -1]]))
    print("\nreference chain X_ex, ranks", x.ranks)
    pair = chain_to_pair(x)
    show_matrix("U", pair.u)
    show_matrix("V", pair.v)

    print("\nmembership of X_ex's class over the default battery:")
    for m in default_battery(ZZ):
        label = list(m.invariant_factors)
        print(f"  module {label}: member={chain_member(x, m)}"
              f"  dual-member={dual_member(x, m)}")

    z4 = FpModule.from_invariant_factors(ZZ, [4])
    print("\nevaluations on Z/4:")
    print("  chain:", list(evaluate_chain(x, z4).invariant_factors))
    print("  square:", list(evaluate_square(sq, z4).invariant_factors))

    h = hom_group(x, x)
    print("\nhom group of X_ex with itself:", list(h.invariant_factors))


if __name__ == "__main__":
    main()
