"""gindexlab: a numerical laboratory for Fredholm and localized indices of
operators D = sum_g D_g Phi_g built from pseudodifferential coefficients and
quantized canonical transformations on the circle."""

__version__ = "0.1.0"

from .circle import (FrequencyWindow, PeriodicFunction, PeriodicGrid, dft,
                     grid_for_window, idft, winding_number)
from .groups import GroupSpec, build_group
from .transforms import (CanonicalTransform, CircleDiffeo, ModeMap, Realization,
                         RealizationFamily, WeightedShift, weighted_shift_matrix)
from .symbols import (CrossedSymbol, EllipticityVerdict, PrincipalSymbol,
                      invert_principal, is_elliptic)
from .quantize import LabeledOperator, op_classical, op_h_term
from .problems import GOperatorProblem
from .index_engine import (IndexReport, LocalizedIndexReport, calibrate_sign,
                           decomposition_check, index_of_matrix,
                           localized_index, numerical_index, parametrix,
                           chi_vanishing_check, tr_g, winding_index_oracle)
from .semiclass import (AlgebraicIndexResult, EgorovReport, LaurentFit,
                        PowerLawReport, SampledTerm, StarSeries, TraceSeries,
                        XiLattice, algebraic_index, egorov_defect, laurent_fit,
                        symbol_parametrix_h, tau_g, trace_power_law, transport_term,
                        zero_section_cut)
from .lab import ExperimentConfig, RunRecord, emit_reports, load_config, parse_config, run
