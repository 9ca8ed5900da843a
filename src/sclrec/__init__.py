"""Graph-convolutional collaborative filtering with supervised contrastive pretraining.

Pipeline: load interactions -> build normalized bipartite graph -> (optionally)
pretrain embeddings with a contrastive loss over augmented graph views ->
fine-tune with BPR -> evaluate top-K ranking metrics.
"""


def scl_threads(value: str | None) -> int | None:
    """SCL_THREADS' value as a positive int, None when unset or empty; else a ValueError."""
    if value and not (value.isascii() and value.isdigit() and int(value) > 0):
        raise ValueError(f"SCL_THREADS must be a positive integer, got {value!r}")
    return int(value) if value else None
