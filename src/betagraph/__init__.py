"""Beta-embedding graph learning with subjective-logic uncertainty scores."""

__version__ = "0.1.0"

from .graphs import (Graph, SplitSpec, gen_erdos_renyi,  # noqa: F401
                     gen_planted_partition, gen_ppm6, load_dataset,
                     make_split, normalize_adjacency, save_dataset,
                     zscore_features)
from .training import (TrainConfig, build_context,  # noqa: F401
                       forward_scores, train_alternating, load_checkpoint,
                       prepare_graph, save_checkpoint, variant_config)
from .evaluation import (EvalReport, aggregate, evaluate,  # noqa: F401
                         run_protocol)
