"""Time the two measured cliffs that the timed workload mixes leave out.

Usage (from the root of a checkout; several minutes of CPU):
    python3 perfbench/cliffs.py [--seed N]

1. chain_member against evaluate_chain for a rank-10 chain on a Z/12
   module with 12 cyclic summands, drawn so that the module is a member.
2. image_factorization of a random morphism between chains of ranks (4, 6, 4)
   over Z.
"""

import argparse
import os
import random
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from freeabcat import chains, definable, fpmodules, linalg, randgen, squares  # noqa: E402
from workloads import EVAL_ORDERS, _chain  # noqa: E402


MEMBER_TRIES = 8


def timed(label, fn):
    t0 = time.perf_counter()
    value = fn()
    print(f"{label}: {time.perf_counter() - t0:.1f} s", flush=True)
    return value


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    rng = random.Random(parser.parse_args().seed)

    # chain_member stops at the first kernel generator outside the image, so
    # draw until the module is a member and every generator gets its solve
    ring = linalg.Zmod(12)
    for _ in range(MEMBER_TRIES):
        x = _chain(rng, ring, 10, 10, 10)
        m = fpmodules.FpModule.from_invariant_factors(
            ring, [rng.choice(EVAL_ORDERS[12]) for _ in range(12)])
        zero = timed("evaluate_chain, Z/12, rank 10, 12 summands",
                     lambda: squares.evaluate_chain(x, m).is_zero)
        if zero:
            break
    member = timed(f"chain_member,   Z/12, rank 10, 12 summands (member: {zero})",
                   lambda: definable.chain_member(x, m))
    if member != zero:
        print("chain_member disagrees with evaluate_chain", file=sys.stderr)
        return 1

    x, y = _chain(rng, linalg.ZZ, 4, 6, 4), _chain(rng, linalg.ZZ, 4, 6, 4)
    u = randgen.random_morphism(rng, x, y)
    timed("image_factorization, Z, ranks (4, 6, 4)", lambda: chains.image_factorization(u))
    return 0


if __name__ == "__main__":
    sys.exit(main())
