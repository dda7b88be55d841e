"""Inverse symplectic eigenvalue problems on labeled graphs.

Symplectic spectra and Williamson normal forms of positive definite
matrices, constructions realizing prescribed spectra on a given zero
pattern, the strong symplectic spectral property with its verification
matrices, couplings of labeled graphs, and coupled zero forcing.

The library logs through the stdlib logger ``spisep``, which is silent
until the application configures logging.
"""

import logging

from .core import (
    NotPositiveDefiniteError,
    SymplecticSpectrum,
    WilliamsonPair,
    as_symmetric,
    basic_symplectic,
    is_hamiltonian,
    is_positive_definite,
    is_symplectic,
    is_symplectic_pd,
    is_valid_symplectic_relabeling,
    monomial_relabel,
    omega,
    permutation_matrix,
    relabel,
    symplectic_monomial_lift,
    symplectic_pd_inverse_identity,
    symplectic_spectrum,
    williamson,
)
from .graphs import (
    Coupling,
    CoupledGraph,
    LabeledGraph,
    apply_labeling,
    complement,
    complete_bipartite_matching,
    complete_graph,
    corona,
    coupling_closure_graph,
    cycle_graph,
    cycle_with_matching,
    empty_graph,
    enumerate_couplings,
    graph_of_matrix,
    is_caterpillar,
    join_empty_complete_matching,
    matching_coupling,
    path_graph,
    path_shear_block,
    path_with_matching,
    representative_labelings,
    split_coupling,
    star_graph,
    tree_perfect_matching,
    triangular_path,
)
from .sssp import (
    VerificationMatrix,
    continuation_realize,
    direction_graph,
    has_sssp_in_direction,
    has_sssp_nullspace,
    has_sssp_rank,
    in_tangent_space,
    sp_basis,
    tangent_element,
    triangle_pairs,
    unvec_triangle,
    vec_triangle,
    verification_matrix,
)
from .constructions import (
    SparsityReport,
    corona_realize,
    corona_spectrum,
    direct_sum_interleave,
    dopico_johnson,
    forbidden_cycle_detector,
    forbidden_nilpotent_detector,
    householder_all_nonzero,
    isolated_vertex_obstruction,
    jacobi_from_spectrum,
    random_invertible,
    random_pd,
    random_pd_with_graph,
    random_smear,
    random_symmetric,
    realize_nonneg_symplectic,
    realize_shear,
    shear_square,
    sparsity_audit,
)
from .zero_forcing import (
    MultiplicityBoundReport,
    coupled_closure,
    loop_closure,
    loop_zf_number,
    msp_upper_bound,
    standard_closure,
    standard_zf_number,
    zc_equals_one,
    zc_minimum_set,
    zc_number,
)
from .catalogue import (
    ORDER4_COUPLINGS,
    ORDER4_GRAPHS,
    CatalogueEntry,
    build_order4_catalogue,
)

__version__ = "0.1.0"

logging.getLogger(__name__).addHandler(logging.NullHandler())
