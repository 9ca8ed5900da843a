"""Graph-convolutional collaborative filtering with supervised contrastive pretraining.

Pipeline: load interactions -> build normalized bipartite graph -> (optionally)
pretrain embeddings with a contrastive loss over augmented graph views ->
fine-tune with BPR -> evaluate top-K ranking metrics.
"""
