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
    build_fixed_rep,
    choose_complements,
    emit_cell_table,
)
from .core import Quiver, euler_form, is_coprime
from .covering import (
    CoveringDimVector,
    WeightAssignment,
    canonicalize,
    enumerate_compatible,
    euler_form_covering,
    generic_rank1_weights,
    shift,
    support_quiver,
)
from .errors import (
    BBQuiverError,
    InconsistencyError,
    UnsupportedError,
    ValidationError,
)
from .fixedpoints import (
    FixedComponent,
    analyze_component,
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
)

__version__ = "0.1.0"
