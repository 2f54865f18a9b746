"""Numerics for boundary-vanishing Schwarzian norms on the right half-plane:
jet arithmetic, a conformal-map catalog, strip-norm functionals, chordal
Loewner evolution, closed-form quasiconformal extensions with verified
dilatations, and Carleson box scans."""

from .errors import (
    BranchCutError,
    DegenerateSampleError,
    DomainError,
    EvaluationError,
    HorizonError,
    QuadratureError,
)
from .jets import Jet, jet_constant, jet_div, jet_mul, lift_variable
from .maps import (
    ConformalMap,
    cayley,
    compose,
    counterexample_f,
    half_strip_g,
    identity,
    moebius,
    parse_complex,
    parse_map_spec,
    perturbed_identity,
    phi_map,
    square_map,
)
from .schwarz import (
    NormProfile,
    StripGrid,
    norm_profile,
)
from .loewner import (
    EvolutionState,
    HerglotzField,
    HorizonResult,
    evolve,
    evolve_trace,
    family_ht,
    pde_residual,
    tau0_scan,
)
from .extension import (
    QCReport,
    extend,
    mirror_strip_points,
    mu_formula,
    qc_report,
    trace_check,
    trace_extend,
)
from .carleson import (
    BigBoxSplit,
    CarlesonReport,
    Density,
    bigbox_decomposition,
    box_ratio,
    carleson_scan,
    composite_density,
    composite_mu_tilde,
    mu_density,
    vmoa_density,
)

__version__ = "0.1.0"
