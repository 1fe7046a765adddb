"""Random CSP instances with sharp solution-count thresholds.

Generate Model RB instances deterministically, count their solutions
exactly, decide count thresholds in exact integer arithmetic, estimate
counts from closed forms, encode to CNF, and run grid experiments.
"""

__version__ = "0.1.0"

from .cnf_encode import Cnf, DimacsError, count_models, encode_direct, read_dimacs, write_dimacs
from .exact_count import (CapExceeded, CountResult, count_backtrack, count_brute,
                          decide_from_count, int_nth_root, threshold_ceiling)
from .experiments import (AccuracyRow, ComparisonRow, SweepConfig, SweepRow,
                          accuracy_table, count_instance,
                          critical_value, crossing_point, emit_csv, emit_svg_plot,
                          estimator_comparison, sweep_tightness, write_manifest)
from .rb_model import (Assignment, Constraint, DerivedSizes, Instance,
                       InstanceFormatError, RbParams, derive_sizes, effective_tightness,
                       generate, read_instance, write_instance)
from .theory import (ApplicabilityReport, Estimate, ExpectedCount, PairProbabilities,
                     ae_count, conditional_expected_count, critical_density,
                     critical_tightness, expected_count, h_eval, pair_probabilities,
                     second_moment_ratio, theorem_applicability)

__all__ = [name for name in dir() if not name.startswith("_")]
