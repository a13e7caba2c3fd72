"""Model factories keyed by dataset / architecture name.

The federated simulation needs to build fresh, identically-shaped model
instances repeatedly (one per client per round plus the server copy), so
everything goes through :func:`build_classifier` / :func:`build_generator`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

import numpy as np

from ..data.synthetic import SyntheticImageTask
from ..nn.modules import Module
from .classifiers import MLP, CifarCNN, FashionCNN, GRUClassifier, SmallCNN
from .generator import FilterNet, TCNNGenerator

__all__ = [
    "CLASSIFIER_REGISTRY",
    "ClassifierFactory",
    "build_classifier",
    "build_classifier_for_task",
    "build_generator_for_task",
    "build_filter_for_task",
    "default_architecture_for_dataset",
]

CLASSIFIER_REGISTRY: Dict[str, Callable[..., Module]] = {
    "fashion-cnn": FashionCNN,
    "cifar-cnn": CifarCNN,
    "small-cnn": SmallCNN,
    "mlp": MLP,
    "gru": GRUClassifier,
}

_DATASET_DEFAULTS = {
    "fashion-mnist": "fashion-cnn",
    "cifar-10": "cifar-cnn",
    "svhn": "cifar-cnn",
}


def default_architecture_for_dataset(dataset_name: str) -> str:
    """Architecture the paper uses for a given dataset (2-conv vs 6-conv CNN)."""
    return _DATASET_DEFAULTS.get(dataset_name.lower(), "small-cnn")


def build_classifier(
    architecture: str,
    in_channels: int,
    image_size: int,
    num_classes: int,
    seed: Optional[int] = None,
) -> Module:
    """Instantiate a classifier by architecture name with a seeded init."""
    key = architecture.lower()
    if key not in CLASSIFIER_REGISTRY:
        raise KeyError(
            f"unknown architecture '{architecture}'; choose from {sorted(CLASSIFIER_REGISTRY)}"
        )
    rng = np.random.default_rng(seed)
    return CLASSIFIER_REGISTRY[key](
        in_channels=in_channels,
        image_size=image_size,
        num_classes=num_classes,
        rng=rng,
    )


@dataclass(frozen=True)
class ClassifierFactory:
    """Picklable zero-argument model factory.

    The process dispatch backend ships the factory to worker processes, where
    closures over a task object cannot be pickled; this dataclass carries the
    same information as plain fields.  Calling it is equivalent to
    :func:`build_classifier` with the stored arguments, so repeated calls
    build identically-initialised models (the seed pins the init RNG).
    """

    architecture: str
    in_channels: int
    image_size: int
    num_classes: int
    seed: Optional[int] = None

    def __call__(self) -> Module:
        return build_classifier(
            self.architecture,
            self.in_channels,
            self.image_size,
            self.num_classes,
            seed=self.seed,
        )

    @property
    def trace_signature(self) -> tuple:
        """Structural identity of the models this factory builds.

        Matches the ``trace_signature`` the built model declares (it is
        seed-independent), letting callers key trace caches or dispatch
        decisions without instantiating a model.
        """
        signature = getattr(self(), "trace_signature", None)
        if signature is None:
            signature = (
                self.architecture,
                self.in_channels,
                self.image_size,
                self.num_classes,
            )
        return signature

    @classmethod
    def for_task(
        cls,
        task: SyntheticImageTask,
        architecture: Optional[str] = None,
        seed: Optional[int] = None,
    ) -> "ClassifierFactory":
        """Factory matching a dataset task's shapes (cf. ``build_classifier_for_task``)."""
        architecture = architecture or default_architecture_for_dataset(task.spec.name)
        channels, size, _ = task.image_shape
        return cls(
            architecture=architecture,
            in_channels=channels,
            image_size=size,
            num_classes=task.num_classes,
            seed=seed,
        )


def build_classifier_for_task(
    task: SyntheticImageTask,
    architecture: Optional[str] = None,
    seed: Optional[int] = None,
) -> Module:
    """Instantiate the classifier matching a dataset task's shapes."""
    architecture = architecture or default_architecture_for_dataset(task.spec.name)
    channels, size, _ = task.image_shape
    return build_classifier(architecture, channels, size, task.num_classes, seed=seed)


def build_generator_for_task(
    task: SyntheticImageTask,
    noise_dim: int = 64,
    base_width: int = 16,
    seed: Optional[int] = None,
) -> TCNNGenerator:
    """Instantiate the DFA-G generator for a dataset task's image shape."""
    channels, size, _ = task.image_shape
    rng = np.random.default_rng(seed)
    return TCNNGenerator(
        noise_dim=noise_dim,
        out_channels=channels,
        image_size=size,
        base_width=base_width,
        rng=rng,
    )


def build_filter_for_task(
    task: SyntheticImageTask,
    kernel_size: int = 3,
    seed: Optional[int] = None,
) -> FilterNet:
    """Instantiate the DFA-R filter network for a dataset task's image shape."""
    channels, size, _ = task.image_shape
    rng = np.random.default_rng(seed)
    return FilterNet(channels=channels, image_size=size, kernel_size=kernel_size, rng=rng)
