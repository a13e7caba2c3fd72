"""Classifier architectures used by the federated learning experiments.

The paper uses "representative neural networks with 2 (for Fashion-MNIST)
and 6 (Cifar-10 and SVHN) convolutional layers connected with 1 and 2
densely-connected layers".  :class:`FashionCNN` and :class:`CifarCNN` follow
that description; :class:`SmallCNN` and :class:`MLP` are lighter variants
used by the scaled-down benchmark harness and the unit tests.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .. import nn
from ..nn import functional as F
from ..nn.recurrent import GRU
from ..nn.tensor import Tensor

__all__ = ["FashionCNN", "CifarCNN", "SmallCNN", "MLP", "GRUClassifier"]


def _conv_out(size: int, layers: Tuple[Tuple[int, int, int], ...]) -> int:
    """Spatial size after a stack of ``(kernel, stride, padding)`` convolutions."""
    for kernel, stride, padding in layers:
        size = F.conv_output_size(size, kernel, stride, padding)
    return size


class FashionCNN(nn.Module):
    """Two convolutional layers plus one dense layer (Fashion-MNIST model)."""

    def __init__(
        self,
        in_channels: int = 1,
        image_size: int = 28,
        num_classes: int = 10,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        self.in_channels = in_channels
        self.image_size = image_size
        self.num_classes = num_classes
        self.conv1 = nn.Conv2d(in_channels, 16, kernel_size=3, stride=2, padding=1, rng=rng)
        self.conv2 = nn.Conv2d(16, 32, kernel_size=3, stride=2, padding=1, rng=rng)
        spatial = _conv_out(image_size, ((3, 2, 1), (3, 2, 1)))
        self.fc = nn.Linear(32 * spatial * spatial, num_classes, rng=rng)
        # Structural identity for the trace cache: seed-independent, so
        # every client instance of this architecture shares one tape.
        self.trace_signature = ("fashion-cnn", in_channels, image_size, num_classes)

    def forward(self, x: Tensor) -> Tensor:
        x = self.conv1(x).relu()
        x = self.conv2(x).relu()
        return self.fc(x.flatten_batch())


class CifarCNN(nn.Module):
    """Six convolutional layers plus two dense layers (CIFAR-10 / SVHN model)."""

    def __init__(
        self,
        in_channels: int = 3,
        image_size: int = 32,
        num_classes: int = 10,
        width: int = 16,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        self.in_channels = in_channels
        self.image_size = image_size
        self.num_classes = num_classes
        self.conv1 = nn.Conv2d(in_channels, width, 3, stride=1, padding=1, rng=rng)
        self.conv2 = nn.Conv2d(width, width, 3, stride=2, padding=1, rng=rng)
        self.conv3 = nn.Conv2d(width, 2 * width, 3, stride=1, padding=1, rng=rng)
        self.conv4 = nn.Conv2d(2 * width, 2 * width, 3, stride=2, padding=1, rng=rng)
        self.conv5 = nn.Conv2d(2 * width, 4 * width, 3, stride=1, padding=1, rng=rng)
        self.conv6 = nn.Conv2d(4 * width, 4 * width, 3, stride=2, padding=1, rng=rng)
        spatial = _conv_out(
            image_size, ((3, 1, 1), (3, 2, 1), (3, 1, 1), (3, 2, 1), (3, 1, 1), (3, 2, 1))
        )
        self.fc1 = nn.Linear(4 * width * spatial * spatial, 4 * width, rng=rng)
        self.fc2 = nn.Linear(4 * width, num_classes, rng=rng)
        self.trace_signature = ("cifar-cnn", in_channels, image_size, num_classes, width)

    def forward(self, x: Tensor) -> Tensor:
        x = self.conv1(x).relu()
        x = self.conv2(x).relu()
        x = self.conv3(x).relu()
        x = self.conv4(x).relu()
        x = self.conv5(x).relu()
        x = self.conv6(x).relu()
        x = self.fc1(x.flatten_batch()).relu()
        return self.fc2(x)


class SmallCNN(nn.Module):
    """Compact two-convolution network for scaled-down benchmark runs."""

    def __init__(
        self,
        in_channels: int = 1,
        image_size: int = 16,
        num_classes: int = 10,
        width: int = 8,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        self.in_channels = in_channels
        self.image_size = image_size
        self.num_classes = num_classes
        self.conv1 = nn.Conv2d(in_channels, width, 3, stride=2, padding=1, rng=rng)
        self.conv2 = nn.Conv2d(width, 2 * width, 3, stride=2, padding=1, rng=rng)
        spatial = _conv_out(image_size, ((3, 2, 1), (3, 2, 1)))
        self.fc = nn.Linear(2 * width * spatial * spatial, num_classes, rng=rng)
        self.trace_signature = ("small-cnn", in_channels, image_size, num_classes, width)

    def forward(self, x: Tensor) -> Tensor:
        x = self.conv1(x).relu()
        x = self.conv2(x).relu()
        return self.fc(x.flatten_batch())


class MLP(nn.Module):
    """Fully-connected baseline classifier (fastest option for unit tests)."""

    def __init__(
        self,
        in_channels: int = 1,
        image_size: int = 16,
        num_classes: int = 10,
        hidden: int = 64,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        self.in_channels = in_channels
        self.image_size = image_size
        self.num_classes = num_classes
        in_features = in_channels * image_size * image_size
        self.fc1 = nn.Linear(in_features, hidden, rng=rng)
        self.fc2 = nn.Linear(hidden, num_classes, rng=rng)
        self.trace_signature = ("mlp", in_channels, image_size, num_classes, hidden)

    def forward(self, x: Tensor) -> Tensor:
        x = x.flatten_batch()
        return self.fc2(self.fc1(x).relu())


class GRUClassifier(nn.Module):
    """Recurrent classifier reading images as row sequences.

    Each of the ``image_size`` pixel rows (``in_channels * image_size``
    features after folding channels into the row) is one GRU time step;
    the final hidden state feeds a dense head.  This is the sequence
    instantiation of the paper's Sec. III-C/D sketch on the same image
    datasets, and the model that exercises :mod:`repro.nn.recurrent`
    through training, tracing and replay.  The GRU returns only its last
    state, which keeps the graph (and the recorded tape) linear in the
    sequence length.
    """

    def __init__(
        self,
        in_channels: int = 1,
        image_size: int = 28,
        num_classes: int = 10,
        hidden: int = 64,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        self.in_channels = in_channels
        self.image_size = image_size
        self.num_classes = num_classes
        self.hidden = hidden
        self.gru = GRU(in_channels * image_size, hidden, rng=rng)
        self.head = nn.Linear(hidden, num_classes, rng=rng)
        self.trace_signature = ("gru", in_channels, image_size, num_classes, hidden)

    def forward(self, x: Tensor) -> Tensor:
        batch = x.shape[0]
        # (N, C, H, W) -> (N, H, C*W): scan top-to-bottom over pixel rows.
        rows = x.transpose((0, 2, 1, 3)).reshape(
            batch, self.image_size, self.in_channels * self.image_size
        )
        return self.head(self.gru(rows))
