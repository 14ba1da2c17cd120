"""Triplet covers of binary phylogenetic trees.

Core objects: :class:`PhyloTree` (exact rational edge lengths),
:class:`TripletCover` (a cord set over the taxa), plus the analysis layers:
supports and sections, the cover graph with its 2-tree decompositions,
shellability via cord closure and ample patchworks, and exact reconstruction
of the tree from distances on a cover.
"""

from .covergraph import (
    CoverGraph,
    TwoTreeBlock,
    TwoTreeDecomposition,
    all_two_tree_decompositions,
    build_cover_graph,
    decomposition_from_section,
    is_strict,
    is_two_connected,
    is_two_tree,
    triangles,
    verify_counting,
)
from .covers import (
    TripletCover,
    all_cords,
    canonical_cover,
    cord,
    cord_set,
    is_hall_type,
    is_minimal,
    is_sparse,
    is_triplet_cover,
    iter_sections,
    least_label_chooser,
    make_triple,
    minimalize,
    required_cords,
    section_count,
    seeded_chooser,
    support_map,
    supported_triples,
)
from .errors import (
    CapacityError,
    CoverError,
    NewickError,
    NotRealizableError,
    NotTripletCoverError,
    SectionError,
    TreeError,
    WitnessError,
)
from .newick import parse_newick, write_newick
from .reconstruct import (
    PartialDistances,
    ReconstructionResult,
    find_cherry,
    pendant_length,
    reconstruct,
    reduce_instance,
)
from .shelling import (
    ShellingStep,
    cord_closure,
    is_ample,
    is_shellable,
    patchwork_membership,
    restriction_cover,
    shellable_via_patchwork,
    verify_shelling,
)
from .tree import PhyloTree, make_quartet, quartet_from_distances

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
