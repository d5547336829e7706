"""The four benchmark workloads.

Each workload builds a `Plan` from the seed.  `Plan.case(i)` makes op
number `i`: its inputs, its expected answer and the call to time.  The
ops reach the library through module attributes at call time, so a
tracer that rebinds those attributes sees every call.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time

from freeabcat import chains, definable, fpmodules, linalg, randgen, serialize, squares, suites

ZZ = linalg.ZZ

# -- small helpers -------------------------------------------------------------


def _prime_powers(d: int):
    p = 2
    while p * p <= d:
        e = 0
        while d % p == 0:
            d //= p
            e += 1
        if e:
            yield p, e
        p += 1
    if d > 1:
        yield d, 1


def direct_sum_factors(parts) -> tuple[int, ...]:
    """Invariant factors of a direct sum, from the summands' invariant factors.

    Pure Python (primary decomposition), independent of the library's SNF.
    """
    free = 0
    powers: dict[int, list[int]] = {}
    for factors in parts:
        for d in factors:
            if d == 0:
                free += 1
            else:
                for p, e in _prime_powers(d):
                    powers.setdefault(p, []).append(e)
    width = max((len(es) for es in powers.values()), default=0)
    out = [1] * width
    for p, es in powers.items():
        for i, e in enumerate(sorted(es, reverse=True)):
            out[i] *= p ** e
    return tuple(reversed(out)) + (0,) * free


def _chain(rng, ring, n1, n2, n3, bound=3):
    return chains.ChainObject(
        ring,
        randgen.random_matrix(rng, ring, n2, n1, -bound, bound),
        randgen.random_matrix(rng, ring, n3, n2, -bound, bound),
    )


def _copy_chain(x):
    """An equal chain made of new objects."""
    copy = linalg.Matrix
    return chains.ChainObject(x.ring, copy(x.ring, x.m1.rows, x.m1.cols, x.m1.entries),
                              copy(x.ring, x.m2.rows, x.m2.cols, x.m2.entries))


class Plan:
    """Inputs, expected answers and ops of one workload instance.

    `case(i)` returns op number `i` as `(thunk, check)`: calling `thunk()`
    is the timed op; `check(value)` tells whether its answer is right and is
    called outside the timed region.  `case(i)` makes fresh input objects on
    every call, so no op sees what the library cached on an earlier op's
    inputs, and the same seed and `i` always give the same inputs.
    """

    trace_ops = 0            # ops in the traced pass; fixed so counts repeat
    warm_ops = 6
    rss = "self"             # whose peak resident memory is reported

    def case(self, i: int):
        raise NotImplementedError

    def warm_up(self):
        for i in range(self.warm_ops):
            thunk, check = self.case(i)
            check(thunk())

    def start_trace(self, tracer):
        tracer.install()

    def close(self):
        pass


class StreamPlan(Plan):
    """A plan whose op i draws its own inputs from a generator seeded with
    (seed, i), so no two ops share inputs.  Warm-up runs the first ops of
    WARM_SEED, so set-up does the same work whatever the run's seed."""

    def __init__(self, seed: int):
        self.seed = seed

    def warm_up(self):
        warm = type(self)(WARM_SEED)
        for i in range(self.warm_ops):
            thunk, check = warm.case(i)
            check(thunk())


WARM_SEED = -1


def _equals(expected):
    return lambda value: value == expected


def _fixed_order(items):
    """`items` in an order that is the same for every seed and mixes sizes,
    so that the ops a run completes cover the sizes evenly whenever it stops."""
    items = list(items)
    random.Random(0).shuffle(items)
    return tuple(items)


# -- eval-member -----------------------------------------------------------------

EVAL_RINGS = (None, 8, 12)
EVAL_ORDERS = {None: (0, 2, 3, 4, 6), 8: (2, 4, 8), 12: (2, 3, 4, 6, 12)}
EVAL_RANKS = range(3, 9)
EVAL_SUMMANDS = range(2, 11)
EVAL_WORK_CAP = 24       # middle rank times summand count
EVAL_TRIES = 4           # draws per chain to find the wanted chain_member verdict
EVAL_CELLS = _fixed_order((modulus, r, k) for modulus in EVAL_RINGS for r in EVAL_RANKS
                          for k in EVAL_SUMMANDS if r * k <= EVAL_WORK_CAP)


def _summand_evaluations(x, orders):
    ring = x.ring
    return {d: squares.evaluate_chain(x, fpmodules.FpModule.from_invariant_factors(ring, [d]))
            .invariant_factors for d in sorted(set(orders))}


class EvalMemberPlan(StreamPlan):
    """Chains of middle rank 3-8 on diagonal modules of 2-10 cyclic summands.

    Pair j lies in the (ring, middle rank, summand count) cell
    `EVAL_CELLS[j % 66]` and draws the summand orders, a chain x and a
    second chain x2 from a random generator seeded with (seed, j).  Each
    chain is drawn again, up to EVAL_TRIES times, until its chain_member
    verdict is the one the pair wants: true for one pair in three, each cell
    taking its turn.  A member makes chain_member solve every kernel
    generator, so leaving the verdicts to chance would let the slowest ops,
    and with them the 90th percentile, vary from seed to seed.  Ops 3j, 3j+1
    and 3j+2 are evaluate, chain_member and family_member on pair j.  The
    expected evaluation is the direct sum of the chain's evaluations on the
    cyclic summands.
    """

    trace_ops = 3 * len(EVAL_CELLS)

    def __init__(self, seed: int):
        super().__init__(seed)
        self._pair = (None, None)

    def _draw(self, j):
        """(ring, x, x2, orders, expected, expected2) of pair j."""
        modulus, r, k = EVAL_CELLS[j % len(EVAL_CELLS)]
        ring = ZZ if modulus is None else linalg.Zmod(modulus)
        want = (j + j // len(EVAL_CELLS)) % 3 == 0
        rng = random.Random(f"eval-member:{self.seed}:{j}")
        orders = [rng.choice(EVAL_ORDERS[modulus]) for _ in range(k)]
        drawn = []
        for _ in range(2):
            for _ in range(EVAL_TRIES):
                x = _chain(rng, ring, rng.randint(3, r), r, rng.randint(3, r))
                per = _summand_evaluations(x, orders)
                expected = direct_sum_factors(per[d] for d in orders)
                if (not expected) == want:
                    break
            drawn.append((x, expected))
        (x, expected), (x2, expected2) = drawn
        return ring, x, x2, orders, expected, expected2

    def case(self, i):
        j, kind = divmod(i, 3)
        if self._pair[0] != j:
            self._pair = (j, self._draw(j))
        # the ops get their own copies of the drawn chains: the draw
        # evaluated them, and an op must not find anything cached on them
        ring, x, x2, orders, expected, expected2 = self._pair[1]
        x, x2 = _copy_chain(x), _copy_chain(x2)
        m = fpmodules.FpModule.from_invariant_factors(ring, orders)
        member = not expected
        if kind == 0:
            return (lambda: squares.evaluate_chain(x, m).invariant_factors), _equals(expected)
        if kind == 1:
            return (lambda: definable.chain_member(x, m)), _equals(member)
        fam = definable.DefinableFamily(ring, (x, x2))
        return (lambda: definable.family_member(fam, m)), _equals(member and not expected2)


# -- category --------------------------------------------------------------------

CATEGORY_SHAPES = {
    "hom": ((2, 2, 2), (2, 3, 2), (3, 2, 3), (3, 3, 3), (2, 4, 2), (3, 4, 3), (4, 4, 4), (3, 5, 3)),
    "kernel-cokernel": ((2, 2, 2), (3, 3, 3), (2, 4, 2), (3, 4, 3), (4, 4, 4), (3, 5, 3),
                        (4, 5, 4), (5, 5, 5)),
    "roundtrip-iso": ((2, 2, 2), (2, 3, 2), (3, 2, 3), (3, 3, 3), (2, 4, 2), (3, 4, 3)),
    "image": ((2, 2, 2), (2, 3, 2), (3, 2, 3), (3, 3, 3), (2, 4, 2)),
}
CATEGORY_CASES = _fixed_order((kind, shape) for kind, shapes in CATEGORY_SHAPES.items()
                              for shape in shapes)


def _hom(x, y):
    return chains.hom_group(x, y).invariant_factors


def _kernel_cokernel(u):
    k = chains.kernel(u)
    c = chains.cokernel(u)
    return (chains.is_null_homotopic(chains.compose(k.morphism, u)),
            chains.is_null_homotopic(chains.compose(u, c.morphism)))


def _roundtrip_iso(x):
    return chains.is_isomorphism(squares.roundtrip_morphism(x))


def _image(u):
    fac = chains.image_factorization(u)
    return chains.morphisms_equal(chains.compose(fac.epi, fac.mono), u)


class CategoryPlan(StreamPlan):
    """Chain constructions over Z at ranks 2-5; no module is evaluated.

    Op i is the (kind, shape) `CATEGORY_CASES[i % 27]` on chains (and a random
    morphism) drawn from a random generator seeded with (seed, i).  Kernel,
    cokernel and image ops return their certificates; the hom group is
    checked against Hom(dual y, dual x) on a second draw of the same inputs.
    """

    trace_ops = 4 * len(CATEGORY_CASES)

    def _draw(self, i):
        kind, shape = CATEGORY_CASES[i % len(CATEGORY_CASES)]
        rng = random.Random(f"category:{self.seed}:{i}")
        x, y = _chain(rng, ZZ, *shape), _chain(rng, ZZ, *shape)
        return kind, x, y, rng

    def case(self, i):
        kind, x, y, rng = self._draw(i)
        if kind == "hom":
            _kind, x0, y0, _rng = self._draw(i)
            dual = chains.hom_group(definable.dual_chain(y0), definable.dual_chain(x0))
            return (lambda: _hom(x, y)), _equals(dual.invariant_factors)
        if kind == "roundtrip-iso":
            return (lambda: _roundtrip_iso(x)), _equals(True)
        u = randgen.random_morphism(rng, x, y)
        if kind == "image":
            return (lambda: _image(u)), _equals(True)
        return (lambda: _kernel_cokernel(u)), _equals((True, True))


# -- suites ----------------------------------------------------------------------


class SuitesPlan(StreamPlan):
    """Op i runs suite i mod 8 with count=1 and its own derived seed."""

    warm_ops = 16
    trace_ops = 320

    def case(self, i):
        _name, fn = suites.ALL_SUITES[i % len(suites.ALL_SUITES)]
        return (lambda: fn(count=1, seed=self.seed * 1_000_003 + i)), _suite_ok


def _suite_ok(value):
    return value[0] is True


# -- cli -------------------------------------------------------------------------

CLI_BULK_CHAINS = 600
CLI_SMALL_CHAINS = 24
CLI_MODULES = 200
CLI_BIG_MATRICES = 100
CLI_SMALL_MATRICES = 12
CLI_MORPHISMS = 12
CLI_FAMILIES = 8
CLI_TARGETS_PER_COMMAND = 4


def _morphism_payload(u):
    return {k: serialize.matrix_to_json(getattr(u, k)) for k in ("a1", "a2", "a3")}


def _cli_workspace(rng):
    ring = ZZ
    matrix = randgen.random_matrix
    bulk = {f"c{i:03d}": _chain(rng, ring, *(rng.randint(0, 10) for _ in range(3)))
            for i in range(CLI_BULK_CHAINS)}
    small = {f"s{i:02d}": _chain(rng, ring, *(rng.randint(1, 3) for _ in range(3)))
             for i in range(CLI_SMALL_CHAINS)}
    modules = {f"m{i:03d}": randgen.random_module(rng, ring) for i in range(CLI_MODULES)}
    matrices = {f"big{i:03d}": matrix(rng, ring, 20, 20, -99, 99) for i in range(CLI_BIG_MATRICES)}
    matrices.update({f"q{i:02d}": matrix(rng, ring, rng.randint(4, 6), rng.randint(4, 6), -9, 9)
                     for i in range(CLI_SMALL_MATRICES)})
    names = sorted(small)
    morphisms = {}
    for i in range(CLI_MORPHISMS):
        src, dst = names[2 * i], names[2 * i + 1]
        morphisms[f"u{i:02d}"] = (src, dst, randgen.random_morphism(rng, small[src], small[dst]))
    families = {f"f{i:02d}": definable.DefinableFamily(ring, (small[names[i]], small[names[-1 - i]]))
                for i in range(CLI_FAMILIES)}
    doc = {
        "ring": serialize.ring_to_json(ring),
        "chains": {n: serialize.chain_to_json(x) for n, x in {**bulk, **small}.items()},
        "modules": {n: serialize.module_to_json(m) for n, m in modules.items()},
        "matrices": {n: serialize.matrix_to_json(m) for n, m in matrices.items()},
        "morphisms": {n: serialize.morphism_to_json(u, s, d) for n, (s, d, u) in morphisms.items()},
        "families": {n: serialize.family_to_json(f) for n, f in families.items()},
    }
    return doc, small, modules, matrices, morphisms, families


def _cli_commands(rng, small, modules, matrices, morphisms, families):
    """(argv, expected JSON payload) pairs, answered by the in-process API."""
    chain_names = sorted(small)
    module_names = sorted(n for n, m in modules.items() if m.ambient_rank <= 3)
    small_matrices = sorted(n for n in matrices if n.startswith("q"))
    pick = rng.choice
    out = []
    for _ in range(CLI_TARGETS_PER_COMMAND):
        a, b, mn = pick(chain_names), pick(chain_names), pick(module_names)
        x, y, m = small[a], small[b], modules[mn]
        out.append((["eval", f"chain:{a}", f"module:{mn}"],
                    {"invariant_factors": list(squares.evaluate_chain(x, m).invariant_factors)}))
        fn = pick(sorted(families))
        out.append((["member", f"family:{fn}", f"module:{mn}"],
                    {"member": definable.family_member(families[fn], m)}))
        out.append((["member", f"chain:{b}", f"module:{mn}"],
                    {"member": definable.chain_member(y, m)}))
        out.append((["homgroup", f"chain:{a}", f"chain:{b}"],
                    {"invariant_factors": list(chains.hom_group(x, y).invariant_factors)}))
        out.append((["iszero", f"chain:{a}"], {"is_zero": chains.is_zero_object(x)}))
        un = pick(sorted(morphisms))
        u = morphisms[un][2]
        k = chains.kernel(u)
        out.append((["kernel", f"morphism:{un}"],
                    {"object": serialize.chain_to_json(k.object),
                     "morphism": _morphism_payload(k.morphism)}))
        fac = chains.image_factorization(u)
        out.append((["image", f"morphism:{un}"],
                    {"object": serialize.chain_to_json(fac.object),
                     "mono": _morphism_payload(fac.mono), "epi": _morphism_payload(fac.epi)}))
        out.append((["dual", f"chain:{b}"],
                    {"chain": serialize.chain_to_json(definable.dual_chain(y))}))
        out.append((["convert", f"chain:{a}", "--to", "square"],
                    {"square": serialize.square_to_json(squares.chain_to_square(x))}))
        out.append((["convert", f"chain:{b}", "--to", "pair"],
                    {"pair": serialize.pair_to_json(definable.chain_to_pair(y))}))
        qn = pick(small_matrices)
        res = linalg.snf(matrices[qn])
        out.append((["snf", f"matrix:{qn}"],
                    {k: serialize.matrix_to_json(getattr(res, k)) for k in ("S", "P", "Q")}))
    rng.shuffle(out)
    return [(argv, json.loads(json.dumps(payload))) for argv, payload in out]


class CliPlan(Plan):
    """Each op is one cold `python -m freeabcat.cli CMD --json -w WS` child."""

    warm_ops = 1
    rss = "children"

    def __init__(self, seed: int, root: str, out_dir: str):
        rng = random.Random(seed)
        doc, *objects = _cli_workspace(rng)
        self.ws_path = os.path.join(out_dir, f"cli-workspace-{seed}.json")
        with open(self.ws_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, sort_keys=True)
        self.commands = _cli_commands(rng, *objects)
        self.trace_ops = len(self.commands)
        self.root, self.out_dir = root, out_dir
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env.get("PYTHONPATH", "")
        self.tracer = None
        self.child_import_s: list[float] = []
        self.child_startup_s: list[float] = []

    def _argv(self, i):
        argv, _expected = self.commands[i % len(self.commands)]
        return [*argv, "--json", "-w", self.ws_path]

    def run(self, i):
        if self.tracer is None:
            cmd = [sys.executable, "-m", "freeabcat.cli", *self._argv(i)]
            proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True,
                                  text=True, timeout=60)
            return proc.returncode, proc.stdout
        dump = os.path.join(self.out_dir, f"cli-child-{os.getpid()}.json")
        cmd = [sys.executable, os.path.join(self.root, "perfbench", "cli_child.py"), dump,
               *self._argv(i)]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True,
                              text=True, timeout=60)
        wall = time.perf_counter() - t0
        with open(dump, encoding="utf-8") as fh:
            data = json.load(fh)
        os.remove(dump)
        self.tracer.merge(data)
        self.child_import_s.append(data["import_s"])
        self.child_startup_s.append(wall - data["import_s"] - data["main_s"])
        return proc.returncode, proc.stdout

    def case(self, i):
        expected = self.commands[i % len(self.commands)][1]

        def check(value):
            code, stdout = value
            if code != 0:
                return False
            try:
                return json.loads(stdout) == expected
            except json.JSONDecodeError:
                return False

        return (lambda: self.run(i)), check

    def start_trace(self, tracer):
        self.tracer = tracer

    def close(self):
        if os.path.exists(self.ws_path):
            os.remove(self.ws_path)


# -- registry ----------------------------------------------------------------------

# spans each workload must reach; a traced run with one of them at zero calls fails
REQUIRED_SPANS = {
    "eval-member": (
        "linalg.snf", "linalg.kernel_gens", "linalg.solve_linear", "linalg.preimage_gens",
        "linalg.kron", "linalg.matmul", "fpmodules.present_quotient",
        "fpmodules.kernel_of_action", "fpmodules.invariant_factors",
        "squares.evaluate_chain", "definable.chain_member", "definable.family_member",
    ),
    "category": (
        "linalg.snf", "linalg.kernel_gens", "linalg.solve_linear", "linalg.preimage_gens",
        "linalg.kron", "linalg.matmul", "fpmodules.present_quotient",
        "fpmodules.invariant_factors", "chains.hom_group", "chains.kernel", "chains.cokernel",
        "chains.image_factorization", "chains.homotopy_witness", "chains.is_isomorphism",
    ),
    "suites": (
        "linalg.snf", "linalg.kernel_gens", "linalg.solve_linear", "linalg.preimage_gens",
        "linalg.kron", "linalg.matmul", "linalg.det", "fpmodules.present_quotient",
        "fpmodules.kernel_of_action", "fpmodules.invariant_factors", "fpmodules.snake_sequence",
        "chains.kernel", "chains.cokernel", "chains.image_factorization",
        "chains.homotopy_witness", "chains.is_isomorphism", "squares.evaluate_chain",
        "squares.evaluate_square", "definable.chain_member",
    ),
    "cli": (
        "linalg.snf", "linalg.kernel_gens", "linalg.kron", "linalg.matmul",
        "fpmodules.invariant_factors", "chains.hom_group", "chains.kernel",
        "chains.image_factorization", "chains.homotopy_witness", "squares.evaluate_chain",
        "definable.chain_member", "definable.family_member", "workspace.load_workspace",
        "workspace.resolve_ref", "cli.main",
    ),
}


STREAM_PLANS = {"eval-member": EvalMemberPlan, "category": CategoryPlan, "suites": SuitesPlan}


def build(name: str, seed: int, root: str, out_dir: str) -> Plan:
    if name == "cli":
        return CliPlan(seed, root, out_dir)
    return STREAM_PLANS[name](seed)
