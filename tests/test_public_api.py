"""The package's public names: later refactors delete code next to them, so
the exact list and every binding are pinned here."""

import ffspectra

PUBLIC_NAMES = [
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


def test_all_lists_exactly_the_public_names():
    assert len(PUBLIC_NAMES) == 60
    assert ffspectra.__all__ == PUBLIC_NAMES


def test_every_public_name_resolves():
    namespace = {}
    exec("from ffspectra import *", namespace)
    for name in PUBLIC_NAMES:
        assert getattr(ffspectra, name) is namespace[name]
