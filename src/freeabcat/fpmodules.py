"""Finitely presented modules, submodules of their powers, and subquotients.

An FpModule is coker(relations): ambient_rank generators, one relation per
column.  Over Z/n the relations implicitly include n times each generator;
`linalg.integer_relations` adjoins them wherever the package eliminates.

Invariant factors are the comparison currency everywhere: ascending
divisibility chains with units dropped and trailing zeros for free rank.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import DimensionMismatch, RingMismatch
from .linalg import (
    Matrix,
    RingSpec,
    block_diagonal,
    hstack,
    integer_relations,
    kernel_gens,
    kron,
    preimage_gens,
    product_order,
    snf,
    solve_linear,
    unvec_row,
)


@dataclass(frozen=True)
class FpModule:
    """Cokernel presentation of a module over Z or Z/n."""

    ring: RingSpec
    ambient_rank: int
    relations: Matrix

    def __post_init__(self):
        if self.relations.ring != self.ring:
            raise RingMismatch("relations over the wrong ring")
        if self.relations.rows != self.ambient_rank:
            raise DimensionMismatch(
                f"relations need {self.ambient_rank} rows, got {self.relations.rows}"
            )

    @classmethod
    def from_invariant_factors(cls, ring: RingSpec, factors) -> "FpModule":
        """Diagonal presentation; factors already canonical (non-units in a divisibility
        chain, >= 0 with 0 last over Z, divisors of n over Z/n) skip the Smith form."""
        factors, n = tuple(factors), ring.modulus
        out = cls(ring, len(factors), Matrix.diagonal(ring, factors))
        if all(d > 1 and n % d == 0 if n else d == 0 or d > 1 for d in factors) \
                and all(map(ring.divides, factors, factors[1:])):
            out.__dict__["invariant_factors"] = factors
        return out

    @classmethod
    def zero(cls, ring: RingSpec) -> "FpModule":
        return cls(ring, 0, Matrix.zeros(ring, 0, 0))

    @classmethod
    def free(cls, ring: RingSpec, rank: int) -> "FpModule":
        return cls(ring, rank, Matrix.zeros(ring, rank, 0))

    @cached_property
    def invariant_factors(self) -> tuple[int, ...]:
        """Diagonal of the Smith form of the (implicitly n*I-augmented)
        relations, units dropped, 0 marking a free summand over Z."""
        diag = snf(integer_relations(self.relations)).diagonal()
        raw = diag + [0] * (self.ambient_rank - len(diag))
        return tuple(d for d in raw if d != 1)

    @property
    def is_zero(self) -> bool:
        return not self.invariant_factors

    def order(self) -> int | None:
        return product_order(self.invariant_factors)

    def direct_sum(self, other: "FpModule") -> "FpModule":
        if self.ring != other.ring:
            raise RingMismatch("direct sum over mixed rings")
        return FpModule(self.ring, self.ambient_rank + other.ambient_rank,
                        block_diagonal(self.relations, other.relations))


def cyclic_summands(m: FpModule) -> dict[int, FpModule]:
    """The distinct cyclic summands R/d of m, keyed by invariant factor d
    (0 stands for Z over Z, n for Z/n over Z/n); m is their direct sum
    with each R/d taken as often as d occurs in m.invariant_factors."""
    return {d: FpModule.from_invariant_factors(m.ring, [d])
            for d in dict.fromkeys(m.invariant_factors)}


def canonicalize(m: FpModule) -> FpModule:
    """Canonical diagonal presentation; idempotent, and equal invariant
    factors for any two presentations of isomorphic modules."""
    return FpModule.from_invariant_factors(m.ring, m.invariant_factors)


@dataclass(frozen=True)
class Submodule:
    """Submodule of ambient^power given by generator columns.

    Generators are representatives in the free cover ring^(rank*power);
    coordinates are `power` consecutive blocks of size ambient_rank.
    """

    ambient: FpModule
    power: int
    gens: Matrix

    def __post_init__(self):
        if self.gens.ring != self.ambient.ring:
            raise RingMismatch("generators over the wrong ring")
        if self.gens.rows != self.ambient.ambient_rank * self.power:
            raise DimensionMismatch(
                f"generators must live in ring^{self.ambient.ambient_rank * self.power}"
            )

    def ambient_relations(self) -> Matrix:
        return kron(Matrix.identity(self.ambient.ring, self.power), self.ambient.relations)

    def gens_with_relations(self) -> Matrix:
        return hstack(self.gens, self.ambient_relations())

    def contains(self, vectors: Matrix) -> bool:
        """Every column of `vectors` lies in the submodule; one solve."""
        return solve_linear(self.gens_with_relations(), vectors) is not None


def full_submodule(m: FpModule, power: int) -> Submodule:
    return Submodule(m, power, Matrix.identity(m.ring, m.ambient_rank * power))


def kernel_of_action(u: Matrix, m: FpModule) -> Submodule:
    """Kernel of M^cols -> M^rows, x |-> u x, as a submodule of M^cols."""
    if u.ring != m.ring:
        raise RingMismatch("action matrix over the wrong ring")
    eye = Matrix.identity(m.ring, m.ambient_rank)
    lifted = kron(u, eye)
    target_rel = kron(Matrix.identity(m.ring, u.rows), m.relations)
    return Submodule(m, u.cols, preimage_gens(lifted, target_rel))


def image_of_action(u: Matrix, m: FpModule) -> Submodule:
    """Image of M^cols -> M^rows under x |-> u x."""
    if u.ring != m.ring:
        raise RingMismatch("action matrix over the wrong ring")
    eye = Matrix.identity(m.ring, m.ambient_rank)
    return Submodule(m, u.rows, kron(u, eye))


def present_quotient(gens: Matrix, inside: Matrix) -> FpModule:
    """span(gens) / (span(gens) meet span(inside)), canonicalized.

    Presented on the given generators: the relations are exactly the
    coefficient vectors u with gens @ u inside span(inside).
    """
    rel = preimage_gens(gens, inside)
    return canonicalize(FpModule(gens.ring, gens.cols, rel))


def subquotient(k: Submodule, i: Submodule) -> FpModule:
    """K / (K meet I) for submodules of the same ambient power.

    Zero exactly when K is contained in I up to the ambient relations.
    """
    if k.ambient != i.ambient or k.power != i.power:
        raise DimensionMismatch("subquotient operands live in different ambients")
    rel = k.ambient_relations()
    return present_quotient(hstack(k.gens, rel), hstack(i.gens, rel))


# -- maps between presented modules ---------------------------------------


def is_well_defined_map(f: Matrix, src: FpModule, dst: FpModule) -> bool:
    """The matrix on ambient generators sends relations into relations."""
    return solve_linear(dst.relations, f @ src.relations) is not None


def _check_map(f: Matrix, src: FpModule, dst: FpModule, label: str):
    if f.ring != src.ring or src.ring != dst.ring:
        raise RingMismatch(f"{label}: mixed rings")
    if f.cols != src.ambient_rank or f.rows != dst.ambient_rank:
        raise DimensionMismatch(
            f"{label}: expected {dst.ambient_rank}x{src.ambient_rank}, "
            f"got {f.rows}x{f.cols}"
        )
    if not is_well_defined_map(f, src, dst):
        raise DimensionMismatch(f"{label}: matrix does not send relations into relations")


def kernel_of_map(f: Matrix, src: FpModule, dst: FpModule) -> Submodule:
    """Kernel of the induced map src -> dst as a submodule of src."""
    return Submodule(src, 1, preimage_gens(f, dst.relations))


def submodule_as_module(sub: Submodule) -> FpModule:
    """The submodule itself, presented on its generators."""
    return present_quotient(sub.gens_with_relations(), sub.ambient_relations())


def cokernel_of_map(f: Matrix, dst: FpModule) -> FpModule:
    return canonicalize(FpModule(dst.ring, dst.ambient_rank, hstack(f, dst.relations)))


def hom_module_gens(src: FpModule, dst: FpModule) -> list[Matrix]:
    """Generating set for the matrices inducing maps src -> dst.

    F qualifies when F @ R_src = R_dst @ Y for some Y; that is one linear
    system in the entries of F and Y.
    """
    if src.ring != dst.ring:
        raise RingMismatch("hom over mixed rings")
    r1, k1 = src.ambient_rank, src.relations.cols
    r2, k2 = dst.ambient_rank, dst.relations.cols
    ring = src.ring
    lhs = kron(Matrix.identity(ring, r2), src.relations.transpose())
    rhs = kron(dst.relations, Matrix.identity(ring, k1))
    sol = kernel_gens(hstack(lhs, -rhs))
    out = []
    for j in range(sol.cols):
        col = sol.submatrix(0, r2 * r1, j, j + 1)
        out.append(unvec_row(col, r2, r1))
    return out


# -- the six-term kernel/cokernel sequence ---------------------------------


@dataclass(frozen=True)
class SnakeSequence:
    """0 -> Ker f -> Ker gf -> Ker g -> Coker f -> Coker gf -> Coker g -> 0.

    Kernels come with explicit generator columns in the relevant ambient;
    the five structural maps act on ambient representatives as
    (identity, f, identity, g, identity).
    """

    modules: tuple[FpModule, FpModule, FpModule]
    f: Matrix
    g: Matrix
    ker_f: FpModule
    ker_gf: FpModule
    ker_g: FpModule
    coker_f: FpModule
    coker_gf: FpModule
    coker_g: FpModule
    ker_f_gens: Matrix
    ker_gf_gens: Matrix
    ker_g_gens: Matrix

    def six(self) -> tuple[FpModule, ...]:
        return (self.ker_f, self.ker_gf, self.ker_g,
                self.coker_f, self.coker_gf, self.coker_g)

    def order_identity_holds(self) -> bool:
        """|Ker f| |Ker g| |Coker gf| = |Ker gf| |Coker f| |Coker g| when all finite."""
        orders = [m.order() for m in self.six()]
        if any(o is None for o in orders):
            return True
        kf, kgf, kg, cf, cgf, cg = orders
        return kf * kg * cgf == kgf * cf * cg

    def verify_exact(self) -> bool:
        m1, m2, m3 = self.modules
        r1, r2 = m1.relations, m2.relations
        r3 = m3.relations
        f, g = self.f, self.g
        gf = g @ f

        def equal_spans(a: Matrix, b: Matrix, zero: Matrix) -> bool:
            ga, gb = hstack(a, zero), hstack(b, zero)
            return present_quotient(ga, gb).is_zero and present_quotient(gb, ga).is_zero

        def restricted_preimage(gens: Matrix, through: Matrix, target: Matrix) -> Matrix:
            coeffs = preimage_gens(through @ gens, target)
            return gens @ coeffs

        kf = hstack(self.ker_f_gens, r1)
        kgf = hstack(self.ker_gf_gens, r1)
        kg = hstack(self.ker_g_gens, r2)

        # at Ker gf: pull back the zero of Ker g along f
        ker_here = restricted_preimage(kgf, f, r2)
        if not equal_spans(ker_here, kf, r1):
            return False
        # at Ker g: meet with the zero of Coker f, compare inside M2
        eye2 = Matrix.identity(f.ring, m2.ambient_rank)
        ker_here = restricted_preimage(kg, eye2, hstack(f, r2))
        if not equal_spans(ker_here, f @ kgf, r2):
            return False
        # at Coker f: pull back the zero of Coker gf along g
        ker_here = preimage_gens(g, hstack(gf, r3))
        if not equal_spans(ker_here, kg, hstack(f, r2)):
            return False
        # at Coker gf: the zero of Coker g against the image of g
        return equal_spans(hstack(g, r3), hstack(g, gf, r3), hstack(gf, r3))


def snake_sequence(f: Matrix, g: Matrix, m1: FpModule, m2: FpModule, m3: FpModule) -> SnakeSequence:
    """Kernel/cokernel six-term sequence of composable maps f: M1 -> M2,
    g: M2 -> M3 presented by matrices on ambient generators."""
    _check_map(f, m1, m2, "f")
    _check_map(g, m2, m3, "g")
    gf = g @ f
    kf = kernel_of_map(f, m1, m2)
    kgf = kernel_of_map(gf, m1, m3)
    kg = kernel_of_map(g, m2, m3)
    return SnakeSequence(
        modules=(m1, m2, m3),
        f=f,
        g=g,
        ker_f=submodule_as_module(kf),
        ker_gf=submodule_as_module(kgf),
        ker_g=submodule_as_module(kg),
        coker_f=cokernel_of_map(f, m2),
        coker_gf=cokernel_of_map(gf, m3),
        coker_g=cokernel_of_map(g, m3),
        ker_f_gens=kf.gens,
        ker_gf_gens=kgf.gens,
        ker_g_gens=kg.gens,
    )
