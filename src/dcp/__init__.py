"""Double-classifier adversarial domain adaptation with centroid regularizers.

An adversarial branch (extractor, classifier, domain discriminator) and a
clustering branch (extractor, head, k-means) are trained together; their
relativized centroid-distance matrices are pulled toward each other, and
high-confidence pseudo-labels, screened by both branches against adaptive
thresholds, feed the centroids. The root exports what a run needs; every
other name lives in its submodule.
"""

from .datasets import ShiftSpec, gen_blobs
from .trainer import NumericsError, TrainConfig, evaluate, train

__version__ = "0.1.0"
