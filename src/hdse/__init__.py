"""Hierarchical distance structural encodings over graph coarsening hierarchies."""

from .graph import (Graph, NodePermutation, GraphParseError,
                    GraphValidationError, load_edge_list, load_json_graph,
                    make_graph, permute, validate, write_edge_list)
from .coarsen import (Hierarchy, Partition, build_coarse_graph, build_hierarchy,
                      girvan_newman, heavy_edge_matching, hierarchy_from_json,
                      hierarchy_to_json, louvain, modularity, permute_hierarchy)
from .distance import (UNREACHABLE, HdseTensor, ghd, hdse, high_level_hdse,
                       read_tensor, spd_all_pairs, write_tensor)
from .refine import (HdseEncoding, SpdEncoding, distinguishes, gd_wl_refine,
                     make_named_graph, refine_pair)
from .attention import (AttentionParams, BiasParams, BiasedAttentionLayer,
                        attention_forward, attention_backward, bias_matrix,
                        bias_backward, code_keys, init_attention_params,
                        init_bias_params)
from .demo import DemoConfig, DemoResult, run_all_encodings, train_demo

__version__ = "0.1.0"
