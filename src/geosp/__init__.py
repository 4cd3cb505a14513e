"""geosp: geodesic surface parcellation.

Subdivides a triangle mesh into sub-parcels with k-means over graph-geodesic
distances (per labeled region, or per hemisphere), and evaluates parcellations
through binarized connectivity matrices and Dice reproducibility.
"""

from .connectivity import (Fibers, binarize, build_connectivity_matrix, dice_coefficient,
                           load_fibers, load_matrix, map_endpoint_to_vertex,
                           pairwise_dice, save_matrix, write_fibers)
from .kmeans import (Block, KmeansConfig, KmeansResult, LockstepResult, comp_centroids,
                     kmeanspp_init, parallel_kmeans)
from .mesh_io import (FormatError, TriangleMesh, color_for_id, concat_meshes,
                      load_labels, load_mesh, write_labels, write_mesh,
                      write_parcellation)
from .oracles import oracle_apsp, oracle_dijkstra, oracle_medoid, oracle_sssp
from .parcellator import (AtlasPlan, Parcellation, ParcellationResult,
                          parcellate_atlas_mode, parcellate_whole_mode)
from .surface_graph import (APSP_VERTEX_CAP, SurfaceGraph, UNREACHABLE, apsp, build_graph,
                            cut_graph, extract_region_subgraph, induced_subgraph,
                            multi_source_sssp, sssp)
from .synthetic import (MeshSpec, atlas_mesh, bridge_graph, dumbbell_mesh,
                        grid_mesh, icosphere_mesh, make_fibers, make_mesh,
                        perturb_weights, two_hemispheres_mesh, wave_sheet_mesh)

__version__ = "0.1.0"
