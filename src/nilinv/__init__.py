"""Exact invariants of the unitriangular action on nilradicals of parabolics in gl(n)."""

from .errors import NilinvError, OutsideU0Error, ReductionError, UnsupportedTypeError
from .exactpoly import MatrixPoint, Polynomial, T, det, det_minor, rank
from .rootcomb import (
    AdmissiblePair,
    Base,
    Dims,
    ParabolicType,
    Root,
    admissible_pairs,
    compute_base,
    dims,
    is_covered,
    nilradical_roots,
    phi_set,
    psi_set,
    render_diagram,
    s_gamma,
)
from .invgen import (
    GeneratorSet,
    InvariantValues,
    build_generators,
    expand,
    formal_matrix,
    invariant_values,
    minor_form,
    minor_poly,
    pair_form,
    restrict,
    y_coordinates,
)
from .checker import (
    Case242Report,
    VerificationReport,
    case242_report,
    is_n_invariant,
    one_param_transform,
    verify_type,
    weight_corank,
)
from .orbitlab import (
    GroupElement,
    adjoint,
    max_orbit_dim,
    orbit_dim,
    orbit_experiment,
    reduce_to_canonical,
    verify_unique_intersection,
)

__version__ = "0.1.0"
