"""Double-classifier adversarial domain adaptation with centroid regularizers.

An adversarial branch (extractor, classifier, domain discriminator) and a
clustering branch (extractor, head, k-means) are trained together; their
relativized centroid-distance matrices are pulled toward each other, and
high-confidence pseudo-labels, screened by both branches against adaptive
thresholds, feed the centroids.
"""

from .centroids import (
    DegenerateGeometryError,
    centroid_centroid_matrix,
    centroid_sample_matrix,
    compute_centroids,
    loss_cc,
    loss_cs,
    update_centroids_ema,
)
from .datasets import (
    LabeledDataset,
    ParseError,
    SchemaError,
    ShiftSpec,
    gen_blobs,
    gen_two_moons_shift,
    load_embeddings,
    save_embeddings,
)
from .losses import (
    discriminator_loss,
    generator_loss,
    source_classification_loss,
)
from .networks import BranchOutputs, Mlp, MlpSpec, Params, branch_outputs, forward, init_params
from .pseudo_label import (
    PseudoLabelBatch,
    kmeans_assign,
    select_high_confidence,
    tau_adv,
    tau_clu,
)
from .tensor import (
    DomainError,
    EvaluationError,
    GradCheckReport,
    ShapeError,
    Tensor,
    grad_check,
    matmul,
    pairwise_euclidean,
    softmax_cross_entropy,
    vstack,
)
from .trainer import (
    Checkpoint,
    CheckpointVersionError,
    EvalReport,
    MetricsRecord,
    NumericsError,
    TrainConfig,
    evaluate,
    pseudo_precision,
    train,
    train_step,
)

__version__ = "0.1.0"
