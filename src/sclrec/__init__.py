"""Graph-convolutional collaborative filtering with supervised contrastive pretraining.

Pipeline: load interactions -> build normalized bipartite graph -> (optionally)
pretrain embeddings with a contrastive loss over augmented graph views ->
fine-tune with BPR -> evaluate top-K ranking metrics.
"""

from sclrec.dataset import InteractionDataset, BipartiteGraph, load_ml100k, split_train_test, build_graph
from sclrec.augment import (
    AugmentationConfig,
    AugmentedView,
    SimilarityIndex,
    node_drop,
    edge_drop,
    node_replication,
    compute_similarity,
)
from sclrec.gcn import EmbeddingState, ProjectionHead, PropagatedEmbeddings, init_embeddings, init_head, propagate
from sclrec.loss import LossConfig, ContrastBatch, bpr_loss, info_nce, s_info_nce
from sclrec.train import TrainConfig, AdamState, pretrain, finetune
from sclrec.metrics import RankingReport, evaluate, rank_items, ndcg_at_k, mrr_at_k, map_at_k

__all__ = [
    "InteractionDataset", "BipartiteGraph", "load_ml100k", "split_train_test", "build_graph",
    "AugmentationConfig", "AugmentedView", "SimilarityIndex",
    "node_drop", "edge_drop", "node_replication", "compute_similarity",
    "EmbeddingState", "ProjectionHead", "PropagatedEmbeddings",
    "init_embeddings", "init_head", "propagate",
    "LossConfig", "ContrastBatch", "bpr_loss", "info_nce", "s_info_nce",
    "TrainConfig", "AdamState", "pretrain", "finetune",
    "RankingReport", "evaluate", "rank_items", "ndcg_at_k", "mrr_at_k", "map_at_k",
]
