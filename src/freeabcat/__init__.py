"""Exact computations in the free abelian category over finitely generated
free modules (over Z or Z/n), with evaluation on finitely presented modules
and membership tests for the module classes its objects define.
"""

from .chains import (
    ChainMorphism,
    ChainObject,
    ChainWithMap,
    ImageFactorization,
    MiddleFactorization,
    cokernel,
    compose,
    direct_sum_objects,
    embed_rank,
    hom_group,
    identity_morphism,
    image_factorization,
    is_isomorphism,
    is_null_homotopic,
    is_zero_object,
    kernel,
    lift_through_kernel,
    middle_factorization,
    morphisms_equal,
    zero_chain,
    zero_morphism,
)
from .definable import (
    COLUMN,
    PAPER_ROW,
    DefinableFamily,
    DefinablePair,
    chain_member,
    chain_to_pair,
    dual_chain,
    dual_member,
    dual_morphism,
    dual_pair,
    dual_square,
    family_member,
    normalize_convention,
    pair_member,
    pair_to_chain,
)
from .errors import (
    ConventionMismatch,
    DimensionMismatch,
    FreeabcatError,
    InternalInvariantError,
    InvariantViolation,
    RingMismatch,
    WorkspaceError,
)
from .fpmodules import (
    FpModule,
    SnakeSequence,
    canonicalize,
    kernel_of_action,
    present_quotient,
    snake_sequence,
)
from .linalg import (
    Matrix,
    RingSpec,
    SnfResult,
    Zmod,
    ZZ,
    block,
    block_diagonal,
    det,
    hstack,
    is_unimodular,
    kernel_gens,
    kron,
    preimage_gens,
    snf,
    solve_linear,
    vstack,
)
from .squares import (
    FpSquare,
    chain_to_square,
    evaluate_chain,
    evaluate_square,
    roundtrip_morphism,
    square_to_chain,
)
from .workspace import Workspace, load_workspace, parse_workspace, resolve_ref, workspace_to_json

__version__ = "0.1.0"
