"""Combinatorics of row-insertion tableau pairs: the permutation-to-tableaux
bijection, jeu-de-taquin evacuation, endpoint lifting maps between
neighboring symmetric groups, and exhaustive verification of which
permutations keep their recording tableau when reversed."""

from .enumeration import (
    SUITES,
    VerificationReport,
    count_H,
    count_M,
    count_M_formula,
    count_R,
    count_R_formula,
    list_set,
    symmetric_hook_shape,
    verify,
    verify_characterization,
    verify_count_theorem,
    verify_phi_theta,
    verify_R_transport,
    verify_symmetry_relations,
)
from .evacuation import EvacuationTrace, delta, evacuation, evacuation_trace
from .permutations import Permutation, iterate_sn, next_permutation, unrank
from .reverse_maps import (
    is_in_H,
    is_in_M,
    is_in_R,
    phi,
    satisfies_first_row_property,
    theta,
)
from .rsk import (
    InsertionOutcome,
    TableauPair,
    inverse_rsk,
    recording_cells,
    row_insert,
    rsk,
    same_recording_tableau,
)
from .tableaux import (
    Cell,
    Shape,
    StandardYoungTableau,
    count_syt,
    enumerate_syt,
    partitions,
    validate_grid,
)

__version__ = "0.1.0"

__all__ = [
    "Cell",
    "SUITES",
    "EvacuationTrace",
    "InsertionOutcome",
    "Permutation",
    "Shape",
    "StandardYoungTableau",
    "TableauPair",
    "VerificationReport",
    "count_H",
    "count_M",
    "count_M_formula",
    "count_R",
    "count_R_formula",
    "count_syt",
    "delta",
    "enumerate_syt",
    "evacuation",
    "evacuation_trace",
    "inverse_rsk",
    "is_in_H",
    "is_in_M",
    "is_in_R",
    "iterate_sn",
    "list_set",
    "next_permutation",
    "partitions",
    "phi",
    "recording_cells",
    "row_insert",
    "rsk",
    "same_recording_tableau",
    "satisfies_first_row_property",
    "symmetric_hook_shape",
    "theta",
    "unrank",
    "validate_grid",
    "verify",
    "verify_R_transport",
    "verify_characterization",
    "verify_count_theorem",
    "verify_phi_theta",
    "verify_symmetry_relations",
]
