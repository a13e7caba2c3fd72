"""DFA-R: the data-free attack based on an optimized filter layer (Sec. III-C).

Each round, the attacker

1. draws random dummy images ``A`` (uniform pixels),
2. trains a single convolutional *filter layer* that maps ``A`` to synthetic
   images ``B`` such that the frozen global model's prediction for ``B`` is
   maximally ambiguous (uniform over all ``L`` classes), by minimizing the
   cross-entropy between the predicted distribution and ``Y_D = [1/L, ...]``,
3. labels the resulting synthetic images with a randomly chosen class ``Ỹ``
   and trains the adversarial classifier with the distance-regularized loss.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..fl.types import AttackRoundContext, ModelUpdate
from ..models.generator import FilterNet
from ..nn import functional as F
from ..nn.optim import Adam
from ..nn.serialization import set_flat_params
from ..nn.tensor import Tensor, no_grad
from .base import Attack
from .dfa_common import DfaHyperParameters, train_adversarial_classifier

__all__ = ["DfaR"]


class DfaR(Attack):
    """Data-free attack with a trainable filter layer (DFA-R)."""

    name = "dfa-r"
    requires_benign_updates = False
    requires_attacker_data = False

    def __init__(
        self,
        hyper: Optional[DfaHyperParameters] = None,
        kernel_size: int = 3,
        num_filter_groups: int = 1,
        seed: int = 12345,
    ) -> None:
        self.hyper = hyper or DfaHyperParameters()
        if kernel_size < 1:
            raise ValueError("kernel_size must be at least 1")
        if num_filter_groups < 1:
            raise ValueError("num_filter_groups must be at least 1")
        self.kernel_size = kernel_size
        self.num_filter_groups = num_filter_groups
        self._rng = np.random.default_rng(seed)
        self.target_label: Optional[int] = None
        #: per-round list of per-epoch synthesis losses (Fig. 7 data).
        self.synthesis_loss_history: List[List[float]] = []
        #: per-round list of per-epoch classifier losses.
        self.classifier_loss_history: List[List[float]] = []

    # ------------------------------------------------------------------
    def _frozen_global_model(self, context: AttackRoundContext):
        model = context.model_factory()
        set_flat_params(model, context.global_params)
        model.requires_grad_(False)
        return model

    def synthesize(self, context: AttackRoundContext) -> np.ndarray:
        """Step 1: produce the malicious synthetic image set ``S``."""
        channels, height, width = context.image_shape
        if height != width:
            raise ValueError("DFA-R expects square images")
        global_model = self._frozen_global_model(context)
        uniform_target = np.full(context.num_classes, 1.0 / context.num_classes)

        per_group = int(np.ceil(self.hyper.num_synthetic / self.num_filter_groups))
        images: List[np.ndarray] = []
        epoch_losses = np.zeros(self.hyper.synthesis_epochs, dtype=np.float64)
        for _ in range(self.num_filter_groups):
            filter_net = FilterNet(
                channels=channels,
                image_size=height,
                kernel_size=self.kernel_size,
                rng=self._rng,
            )
            dummy = Tensor(filter_net.sample_dummy(per_group, self._rng))
            if self.hyper.train_synthesizer:
                optimizer = Adam(filter_net.parameters(), lr=self.hyper.synthesis_lr)
                for epoch in range(self.hyper.synthesis_epochs):
                    optimizer.zero_grad()
                    synthetic = filter_net(dummy)
                    logits = global_model(synthetic)
                    loss = F.soft_cross_entropy(logits, uniform_target)
                    loss.backward()
                    optimizer.step()
                    epoch_losses[epoch] += float(loss.item()) / self.num_filter_groups
            # Nothing backpropagates through the returned images.
            with no_grad():
                synthetic = filter_net(dummy)
            images.append(synthetic.data)
        self.synthesis_loss_history.append(list(epoch_losses))
        stacked = np.concatenate(images, axis=0)[: self.hyper.num_synthetic]
        return stacked.astype(np.float32)

    def craft_updates(self, context: AttackRoundContext) -> List[ModelUpdate]:
        if self.target_label is None:
            self.target_label = int(self._rng.integers(0, context.num_classes))
        synthetic_images = self.synthesize(context)
        labels = np.full(len(synthetic_images), self.target_label, dtype=np.int64)
        vector, losses = train_adversarial_classifier(
            context, synthetic_images, labels, self.hyper
        )
        self.classifier_loss_history.append(losses)
        return self._replicate(vector, context, num_samples=len(synthetic_images))
