"""Exact computation of torus-fixed-point data on quiver moduli spaces:
fixed components, attractor dimensions, Poincare polynomials, and explicit
attractor cell charts."""

from .betti import (
    PoincarePolynomial,
    assemble_poincare,
    component_poincare,
    interpolate_from_counts,
    kirwan_subspace_poincare,
)
from .cells import (
    CellChart,
    GradedRep,
    Representation,
    build_fixed_rep,
    choose_complements,
    covering_hom_ext,
    emit_cell_table,
    graded_isomorphic,
    hom_ext,
    standard_filtration,
    twisted_filtration_check,
)
from .core import Quiver, euler_form, is_coprime, slope
from .covering import (
    CoveringDimVector,
    WeightAssignment,
    canonicalize,
    covering_target,
    enumerate_compatible,
    euler_form_covering,
    generic_rank1_weights,
    project,
    shift,
    support_quiver,
)
from .errors import (
    BBQuiverError,
    BudgetExceededError,
    InconsistencyError,
    UnsupportedError,
    ValidationError,
)
from .fixedpoints import (
    FixedComponent,
    OneParamSubgroup,
    analyze_component,
    attractor_dims,
    choose_1psg,
    generic_normal_form_test,
    weight_dimension,
    weight_support,
)
from .hn import has_stable
from .kronecker import (
    Label1,
    Label2,
    d1_attractor,
    d2_attractor,
    enumerate_type1,
    enumerate_type2,
    kronecker_poincare,
    kronecker_quiver,
    label_to_beta,
    normal_form_label,
)

__version__ = "0.1.0"
