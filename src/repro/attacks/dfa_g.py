"""DFA-G: the data-free attack based on a generator network (Sec. III-D).

The attacker maintains a lightweight transpose-convolutional generator ``G``
across rounds.  Each round it

1. feeds a *fixed* Gaussian noise batch ``Z`` (same seed every round) through
   ``G`` to produce synthetic images,
2. trains ``G`` to *maximize* the frozen global model's cross-entropy between
   its predictions for ``G(Z)`` and the fixed randomly chosen class ``Ỹ`` —
   i.e. the generated images are steered away from class ``Ỹ``,
3. labels all generated images as ``Ỹ`` (implicit label flipping) and trains
   the adversarial classifier with the distance-regularized loss.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..fl.types import AttackRoundContext, ModelUpdate
from ..models.generator import TCNNGenerator
from ..nn import functional as F
from ..nn.optim import Adam
from ..nn.serialization import set_flat_params
from ..nn.tensor import Tensor, no_grad
from .base import Attack
from .dfa_common import DfaHyperParameters, train_adversarial_classifier

__all__ = ["DfaG"]


class DfaG(Attack):
    """Data-free attack with a trainable generator network (DFA-G)."""

    name = "dfa-g"
    requires_benign_updates = False
    requires_attacker_data = False

    def __init__(
        self,
        hyper: Optional[DfaHyperParameters] = None,
        noise_dim: int = 64,
        base_width: int = 16,
        seed: int = 54321,
    ) -> None:
        self.hyper = hyper or DfaHyperParameters()
        if noise_dim < 1:
            raise ValueError("noise_dim must be at least 1")
        self.noise_dim = noise_dim
        self.base_width = base_width
        self._rng = np.random.default_rng(seed)
        self.target_label: Optional[int] = None
        self.generator: Optional[TCNNGenerator] = None
        self._fixed_noise: Optional[np.ndarray] = None
        #: per-round list of per-epoch generator losses; DFA-G *maximizes*
        #: this quantity (Fig. 7 plots the increasing curve).
        self.synthesis_loss_history: List[List[float]] = []
        #: per-round list of per-epoch classifier losses.
        self.classifier_loss_history: List[List[float]] = []

    # ------------------------------------------------------------------
    def _ensure_generator(self, context: AttackRoundContext) -> TCNNGenerator:
        if self.generator is None:
            channels, height, width = context.image_shape
            if height != width:
                raise ValueError("DFA-G expects square images")
            self.generator = TCNNGenerator(
                noise_dim=self.noise_dim,
                out_channels=channels,
                image_size=height,
                base_width=self.base_width,
                rng=self._rng,
            )
            # The same noise batch is reused every round so that the
            # generator consistently maps it to malicious images.
            self._fixed_noise = self.generator.sample_noise(
                self.hyper.num_synthetic, self._rng
            )
        return self.generator

    def _frozen_global_model(self, context: AttackRoundContext):
        model = context.model_factory()
        set_flat_params(model, context.global_params)
        model.requires_grad_(False)
        return model

    def synthesize(self, context: AttackRoundContext) -> np.ndarray:
        """Step 1: update the generator and produce the synthetic set ``S``."""
        generator = self._ensure_generator(context)
        global_model = self._frozen_global_model(context)
        noise = Tensor(self._fixed_noise)
        target = np.full(
            self.hyper.num_synthetic, self.target_label, dtype=np.int64
        )

        epoch_losses: List[float] = []
        if self.hyper.train_synthesizer:
            optimizer = Adam(generator.parameters(), lr=self.hyper.synthesis_lr)
            for _ in range(self.hyper.synthesis_epochs):
                optimizer.zero_grad()
                images = generator(noise)
                logits = global_model(images)
                cross_entropy = F.cross_entropy(logits, target)
                # Maximize the cross-entropy towards Ỹ => minimize its negation.
                loss = -cross_entropy
                loss.backward()
                optimizer.step()
                epoch_losses.append(float(cross_entropy.item()))
        self.synthesis_loss_history.append(epoch_losses)
        # Nothing backpropagates through the returned images.
        with no_grad():
            images = generator(noise)
        return images.data.astype(np.float32)

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
