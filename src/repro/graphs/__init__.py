"""Graph substrate: data structures, synthetic datasets, dataset partitioners, sampling."""

from .graph import CSCMatrix, CSRMatrix, Graph, graphs_equal
from .delta import DeltaGraph
from .generators import (
    community_graph,
    erdos_renyi_graph,
    grid_graph,
    power_law_graph,
    star_graph,
)
from .datasets import DATASETS, DatasetSpec, dataset_names, dataset_table, load_dataset
from .sampling import NeighborSampler, SamplingConfig, sample_graph
from .io import export_edge_list, import_edge_list, load_graph, save_graph

__all__ = [
    "CSCMatrix",
    "CSRMatrix",
    "DeltaGraph",
    "Graph",
    "graphs_equal",
    "community_graph",
    "erdos_renyi_graph",
    "grid_graph",
    "power_law_graph",
    "star_graph",
    "DATASETS",
    "DatasetSpec",
    "dataset_names",
    "dataset_table",
    "load_dataset",
    "NeighborSampler",
    "SamplingConfig",
    "sample_graph",
    "export_edge_list",
    "import_edge_list",
    "load_graph",
    "save_graph",
]
