"""Meta-path search and attention-based recommendation on heterogeneous graphs."""

from .hin import HinGraph, HinSchema, InteractionSet, load_graph
from .metapath import (
    MetaPath,
    MetaPathSet,
    MetaPathSubgraph,
    encode_metapath,
    encode_set,
    materialize_subgraph,
)
from .search_env import SearchEnv, apply_action, initial_set, step

__version__ = "0.1.0"

__all__ = [
    "HinGraph",
    "HinSchema",
    "InteractionSet",
    "MetaPath",
    "MetaPathSet",
    "MetaPathSubgraph",
    "SearchEnv",
    "apply_action",
    "encode_metapath",
    "encode_set",
    "initial_set",
    "load_graph",
    "materialize_subgraph",
    "step",
    "__version__",
]
