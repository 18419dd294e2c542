"""Finite set-theoretic Yang-Baxter solutions and single-vertex k-graphs."""

from .classify import (
    SolutionCensus,
    census,
    classify,
    enumerate_solutions,
    product_conjugate,
    sample_ybe_solutions,
    yb_isomorphic,
)
from .constructions import (
    LevelMap,
    cartesian_product,
    derived_solution,
    disjoint_union_solution,
    glued_identity_extension,
    left_derived_solution,
    level_map,
    level_solution,
    trivial_extension,
)
from .errors import YbkError
from .homology import (
    AbelianGroup,
    OrbitPartition,
    beta_orbits,
    cohomology,
    h1_orbit_check,
    homology,
    verify_complex,
)
from .kgraph import (
    KWord,
    Periodicity,
    ThetaFamily,
    complete_diamond,
    constant_family,
    factorize,
    make_theta_family,
    multiply,
    normalize,
    periodicity,
    restrict,
    unique_pullback,
    unique_pushout,
    validate_kgraph,
)
from .semigroup import (
    GradedClassSet,
    Presentation,
    action_formula_check,
    check_cancellative,
    graded_elements,
    growth,
    presentations,
    semigroup_extension_check,
)
from .solution import (
    AlphaBeta,
    PropertyReport,
    Solution,
    StructureReport,
    alpha_beta,
    apply_leg,
    builtin,
    check_structure_equations,
    is_ybe,
    make_solution,
    mirror_derived,
    properties,
    qybe_form,
    ybe_witness,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
