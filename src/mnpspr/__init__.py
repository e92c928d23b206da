"""Symmetrized boundary-operator spectra and surface-plasmon localization.

Library layout:
  surface    - star-shaped grids, harmonic transforms, surface calculus
  specfun    - spherical Bessel/Hankel functions
  potentials - layer-potential assembly, symmetrizer actions, off-boundary fields
  spectral   - symmetrized eigensolves, quotient Gram, identity residuals
  mie        - closed-form sphere backend (the oracle layer)
  plasmon    - weak-resonance modes, fields, localization statistics
  scatter    - scaled transmission system and resonance sweeps
  cli        - batch front end (python -m mnpspr.cli)
"""

__version__ = "1.0.0"

from .surface import (
    ShCoeffs,
    SurfaceGrid,
    TangentField,
    build_surface,
    perturbed_sphere,
    sphere_surface,
    tubular_distance,
)
from .potentials import (
    MaterialConfig,
    OperatorMatrix,
    apply_N,
    apply_Q,
    assemble_correction,
    offboundary_eval,
    scalar_operators,
)
from .spectral import (
    SpectralSet,
    calderon_residual,
    mnp_spectra,
    np_spectrum,
    self_adjointness_residual,
    subspace_spectrum,
)
from .mie import SphereMode, exact_sphere_potential, mode_tangent_field, sphere_mnp_eigenvalue
from .plasmon import (
    DecayReport,
    PlasmonMode,
    almost_sure_statistic,
    localization_scan,
    plasmon_field,
    resonance_tau,
)
from .scatter import (
    BlockSystem,
    assemble_system,
    dipole_incident_trace,
    eval_scattered_fields,
    solve_scatter,
    weak_resonance_indicator,
)
