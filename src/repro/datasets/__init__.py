"""Dataset substrate: containers, synthetic generators, partitioners, noise.

The paper evaluates on MNIST-derived synthetic splits and on FEMNIST / Adult /
Sent-140.  Those corpora are not available offline, so this package provides
synthetic generators that reproduce the *properties* the valuation experiments
rely on (class structure, per-writer non-IID shift, tabular census-like
features, monotone accuracy in data volume) at laptop scale.
"""

from repro.datasets.base import Dataset, train_test_split
from repro.datasets.synthetic import (
    make_classification_blobs,
    make_linear_regression,
)
from repro.datasets.mnist_like import make_mnist_like
from repro.datasets.femnist_like import make_femnist_like
from repro.datasets.adult_like import make_adult_like
from repro.datasets.sent140_like import make_sent140_like
from repro.datasets.partition import (
    partition_by_group,
    partition_dirichlet,
    partition_different_sizes,
    partition_iid,
    partition_label_skew,
)
from repro.datasets.noise import add_feature_noise, flip_labels

__all__ = [
    "Dataset",
    "train_test_split",
    "make_classification_blobs",
    "make_linear_regression",
    "make_mnist_like",
    "make_femnist_like",
    "make_adult_like",
    "make_sent140_like",
    "partition_by_group",
    "partition_dirichlet",
    "partition_different_sizes",
    "partition_iid",
    "partition_label_skew",
    "add_feature_noise",
    "flip_labels",
]
