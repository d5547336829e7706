#!/usr/bin/env python3
"""Hash what each layer answers on seeded instances and print one line per
layer: its name, the number of answers recorded and a SHA-256 over them.

Usage: PYTHONPATH=src python3 scripts/answer_hash.py
Expected standard output: scripts/answer_hash.out

Every layer draws its own instances, over Z, Z/4, Z/6, Z/7, Z/12 and
Z/720, from a generator seeded with the layer's name and the modulus, so a
change in one layer's draws moves no other line.  An answer is recorded as
the repr of plain ints, lists and tuples (a matrix as its rows), so two
source trees that print the same lines gave the same answers, matrices and
verdicts included, on every instance.  Run it against two checkouts to see
that a refactor changed no answer; a line that differs names the layer
that did.
"""

import hashlib
import random

from freeabcat import (
    COLUMN,
    PAPER_ROW,
    DefinableFamily,
    Matrix,
    ZZ,
    Zmod,
    chain_member,
    chain_to_pair,
    compose,
    dual_member,
    dual_pair,
    evaluate_chain,
    evaluate_square,
    family_member,
    hom_group,
    image_factorization,
    kernel,
    kernel_gens,
    pair_member,
    snf,
    solve_linear,
)
from freeabcat.chains import homotopy_witness
from freeabcat.randgen import (
    random_chain,
    random_matrix,
    random_module,
    random_morphism,
    random_square,
)

RINGS = (ZZ, Zmod(4), Zmod(6), Zmod(7), Zmod(12), Zmod(720))


def rows(m: Matrix) -> list[list[int]]:
    return m.to_rows()


def triple(u) -> tuple:
    return rows(u.a1), rows(u.a2), rows(u.a3)


def draws(layer: str, count: int):
    """(ring, rng) `count` times on each ring, the generator seeded with the
    layer and the modulus."""
    for ring in RINGS:
        rng = random.Random(f"answer-hash:{layer}:{ring.modulus}")
        for _ in range(count):
            yield ring, rng


def matrices(layer: str, count: int):
    for ring, rng in draws(layer, count):
        r, c = rng.randint(0, 6), rng.randint(0, 6)
        yield ring, rng, random_matrix(rng, ring, r, c, -20, 20)


def chain_pairs(layer: str, count: int):
    for ring, rng in draws(layer, count):
        yield ring, rng, random_chain(rng, ring), random_chain(rng, ring)


def smith(part: str):
    return [rows(getattr(snf(a), part)) for _, _, a in matrices("snf", 40)]


def kernels():
    return [rows(kernel_gens(a)) for _, _, a in matrices("kernel", 40)]


def solves():
    out = []
    for ring, rng, a in matrices("solve", 40):
        x = random_matrix(rng, ring, a.cols, 2)
        b = random_matrix(rng, ring, a.rows, 1)
        for rhs in (a @ x, b):
            sol = solve_linear(a, rhs)
            out.append(None if sol is None else rows(sol))
    return out


def homs():
    return [hom_group(x, y).invariant_factors for _, _, x, y in chain_pairs("hom", 25)]


def morphisms():
    return [triple(random_morphism(rng, x, y)) for _, rng, x, y in chain_pairs("morphism", 25)]


def image_epis():
    out = []
    for _, rng, x, y in chain_pairs("image", 15):
        fac = image_factorization(random_morphism(rng, x, y))
        out.append((rows(fac.object.m1), rows(fac.object.m2), triple(fac.epi)))
    return out


def witnesses():
    """One random morphism, seldom null-homotopic, and the composite of its
    kernel map with it, which always is."""
    out = []
    for _, rng, x, y in chain_pairs("witness", 15):
        u = random_morphism(rng, x, y)
        for v in (u, compose(kernel(u).morphism, u)):
            w = homotopy_witness(v)
            out.append(None if w is None else (rows(w[0]), rows(w[1])))
    return out


def modules(rng, ring, count: int = 3):
    return [random_module(rng, ring) for _ in range(count)]


def chain_evaluations():
    return [[evaluate_chain(x, m).invariant_factors for m in modules(rng, ring)]
            for ring, rng, x, _ in chain_pairs("evaluate-chain", 25)]


def square_evaluations():
    out = []
    for ring, rng in draws("evaluate-square", 25):
        s = random_square(rng, ring)
        out.append([evaluate_square(s, m).invariant_factors for m in modules(rng, ring)])
    return out


def memberships(test):
    def layer():
        return [[test(x, m) for m in modules(rng, ring, 4)]
                for ring, rng, x, _ in chain_pairs(test.__name__, 25)]
    return layer


def pair_memberships():
    return [[pair_member(chain_to_pair(x, conv), m) for conv in (PAPER_ROW, COLUMN)
             for m in modules(rng, ring, 4)]
            for ring, rng, x, _ in chain_pairs("pair_member", 25)]


def family_memberships():
    return [[family_member(DefinableFamily(ring, (x, y)), m) for m in modules(rng, ring, 4)]
            for ring, rng, x, y in chain_pairs("family_member", 25)]


def pair_duals():
    out = []
    for _, _, x, _ in chain_pairs("dual_pair", 25):
        p = dual_pair(chain_to_pair(x, PAPER_ROW))
        out.append((rows(p.u), rows(p.v), p.convention))
    return out


LAYERS = (
    ("snf.S", lambda: smith("S")),
    ("snf.P", lambda: smith("P")),
    ("snf.Q", lambda: smith("Q")),
    ("kernel_gens", kernels),
    ("solve_linear", solves),
    ("hom_group", homs),
    ("random_morphism", morphisms),
    ("image_factorization", image_epis),
    ("homotopy_witness", witnesses),
    ("evaluate_chain", chain_evaluations),
    ("evaluate_square", square_evaluations),
    ("chain_member", memberships(chain_member)),
    ("dual_member", memberships(dual_member)),
    ("pair_member", pair_memberships),
    ("family_member", family_memberships),
    ("dual_pair", pair_duals),
)


def main():
    for name, layer in LAYERS:
        records = layer()
        digest = hashlib.sha256("\n".join(map(repr, records)).encode()).hexdigest()
        print(f"{name:<20} {len(records):>4} {digest}")


if __name__ == "__main__":
    main()
