"""Exact-arithmetic double extensions of restricted Hom-Lie algebras over GF(p)."""

from .algebra import (
    BilinearForm,
    Derivation,
    HomLieAlgebra,
    Subspace,
    center,
    d_invariant,
    is_ideal,
    is_nondegenerate_ideal,
    orth,
    verify_hom_lie,
    verify_quadratic,
)
from .doubleext import (
    DoubleExtensionData,
    PExtensionData,
    double_extend,
    extend_pstructure,
    reduce,
    split_frame,
)
from .isom import (
    AdaptedIso,
    build_adapted_iso,
    verify_adapted_iso,
    verify_restricted_iso,
)
from .report import Report
from .restricted import (
    PStructure,
    PPropertyWitness,
    check_p_property,
    compute_s,
    eval_p,
    is_restricted_derivation,
    solve_p_property,
    verify_pstructure,
)
from .twist import (
    TwistData,
    build_heisenberg_dual,
    build_psl3,
    build_sl2_gf5,
    twist_algebra,
    twist_derivation,
    twist_pmap,
)

__version__ = "0.1.0"
