"""Exact character-sum spectra of functions over small finite fields.

The package certifies three desk-scale facts about dense function tables
f: F_q**d -> F_q, with every reported number either an exact integer or a
float paired with its exact counterpart:

* graphs of bent functions have flat nonzero Fourier spectrum (Salem
  constant exactly 1),
* every difference operator of f is reconstructible from the d*ell basis
  difference operators,
* planar functions are pairwise at Hamming distance >= 2, certified by
  exhaustive perturbation sweeps.
"""

from .cyclotomic import CycInt, abs_sq, as_integer, cyc_arithmetic, from_histogram, to_complex
from .errors import FFSpectraError
from .field import FieldElement, FieldParams, field_arithmetic, make_field, trace
from .funcs import FnSpec, FnTable, build_function, delta_table, hamming_distance, image_size, is_pn, load_table, save_table, translate
from .space import FpBasis, PointVector, SpaceBasis, decompose_over_fp, dot, standard_basis, standard_fp_basis
from .spectrum import Character, FastBentVerdict, SpectrumReport, crosscheck_pn_bent, is_bent_exact, is_bent_fast, walsh_exact, walsh_exact_all, walsh_fast_all
from .salem import PointSet, SalemReport, graph_of, indicator_ft_abs_sq, salem_constant, verify_theorem1
from .decomp import BaseDeltaSet, DecompPlan, base_deltas, identity_suite, reconstruct_delta, verify_decomposition
from .mindist import DistanceMatrix, PerturbationReport, pairwise_min_distance, perturb, perturbation_sweep, planarity_witness
from .catalog import CatalogEntry, get_function, list_entries, random_function
from . import _parallel  # noqa: F401  (loaded for the benchmark tracer; see its docstring)

__version__ = "0.1.0"

__all__ = [
    "CycInt",
    "Character",
    "CatalogEntry",
    "BaseDeltaSet",
    "DecompPlan",
    "DistanceMatrix",
    "FFSpectraError",
    "FastBentVerdict",
    "FieldElement",
    "FieldParams",
    "FnSpec",
    "FnTable",
    "FpBasis",
    "PerturbationReport",
    "PointSet",
    "PointVector",
    "SalemReport",
    "SpaceBasis",
    "SpectrumReport",
    "abs_sq",
    "as_integer",
    "base_deltas",
    "build_function",
    "crosscheck_pn_bent",
    "cyc_arithmetic",
    "decompose_over_fp",
    "delta_table",
    "dot",
    "field_arithmetic",
    "from_histogram",
    "get_function",
    "graph_of",
    "hamming_distance",
    "identity_suite",
    "image_size",
    "indicator_ft_abs_sq",
    "is_bent_exact",
    "is_bent_fast",
    "is_pn",
    "list_entries",
    "load_table",
    "make_field",
    "pairwise_min_distance",
    "perturb",
    "perturbation_sweep",
    "planarity_witness",
    "random_function",
    "reconstruct_delta",
    "salem_constant",
    "save_table",
    "standard_basis",
    "standard_fp_basis",
    "to_complex",
    "trace",
    "translate",
    "verify_decomposition",
    "verify_theorem1",
    "walsh_exact",
    "walsh_exact_all",
    "walsh_fast_all",
]
