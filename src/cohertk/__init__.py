"""Coherence resource-theory toolkit.

State classification under local incoherent protocols, incoherent
channel classes, transformation feasibility, and volume-based coherence
monotones with independent exact and Monte-Carlo oracles.
"""

from .channels import (IncoherentChannel, LocalBranch, LocalChannelProduct,
                       apply_to_density, apply_to_pure, local_product_apply,
                       random_channel, validate_class)
from .classify import (LiuWitness, SliccClass, TemplateWitness,
                       canonical_form_r4, canonical_state, liu_equivalent,
                       slicc_class_2qubit, slicc_equivalent_2qubit,
                       verify_slicc_witness, witness_templates_r4)
from .feasibility import (FeasibilityVerdict, LemmaNotApplicableError,
                          ic_pure_feasible, licc_bipartite_feasible,
                          locc_pure_feasible, majorization_verdict, majorizes,
                          pio_feasible_mask, pio_qubit_feasible,
                          sio_feasible_mask, sio_qubit_feasible)
from .monotones import (Arc, MonotoneValue, RegionGeometry, Segment,
                        permutation_sum, planar_example_volumes, qubit_pio_Ca,
                        qubit_pio_Cs, qubit_sio_Ca, qubit_sio_Cs,
                        region_geometry, source_coherence_closed,
                        sup_source_volume)
from .oracle import (DEFAULT_SEED, CounterexampleReport, IdentityReport,
                     Lemma1Report, MonotonicityReport, SampleRegion,
                     VolumeEstimate, b3_b4_counterexamples,
                     coordinate_plane_predicate, exact_polytope_volume,
                     formula_identity_check, lemma1_suite, make_region,
                     mc_volume, monotonicity_suite, qubit_region_predicate,
                     sorted_simplex_predicate)
from .states import (PureState, QubitBloch, SchmidtData, bloch_from_density,
                     concurrence_2qubit, density_from_bloch, dephased_spectrum,
                     maximally_correlated_lift, product_term_count,
                     schmidt_spectrum, sorted_spectrum)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # states
    "PureState", "QubitBloch", "SchmidtData", "bloch_from_density",
    "concurrence_2qubit", "density_from_bloch", "dephased_spectrum",
    "maximally_correlated_lift", "product_term_count", "schmidt_spectrum",
    "sorted_spectrum",
    # channels
    "IncoherentChannel", "LocalBranch", "LocalChannelProduct",
    "apply_to_density", "apply_to_pure", "local_product_apply",
    "random_channel", "validate_class",
    # feasibility
    "FeasibilityVerdict", "LemmaNotApplicableError", "ic_pure_feasible",
    "licc_bipartite_feasible", "locc_pure_feasible", "majorization_verdict",
    "majorizes", "pio_feasible_mask", "pio_qubit_feasible",
    "sio_feasible_mask", "sio_qubit_feasible",
    # classification
    "LiuWitness", "SliccClass", "TemplateWitness", "canonical_form_r4",
    "canonical_state", "liu_equivalent", "slicc_class_2qubit",
    "slicc_equivalent_2qubit", "verify_slicc_witness", "witness_templates_r4",
    # monotones
    "Arc", "MonotoneValue", "RegionGeometry", "Segment", "permutation_sum",
    "planar_example_volumes", "qubit_pio_Ca", "qubit_pio_Cs", "qubit_sio_Ca",
    "qubit_sio_Cs", "region_geometry", "source_coherence_closed",
    "sup_source_volume",
    # oracles
    "DEFAULT_SEED", "CounterexampleReport", "IdentityReport", "Lemma1Report",
    "MonotonicityReport", "SampleRegion", "VolumeEstimate",
    "b3_b4_counterexamples", "coordinate_plane_predicate",
    "exact_polytope_volume", "formula_identity_check", "lemma1_suite",
    "make_region", "mc_volume", "monotonicity_suite",
    "qubit_region_predicate", "sorted_simplex_predicate",
]
