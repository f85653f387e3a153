"""Bidirectional LSTM (BRNN) wrapper.

Implements Eq. (4) of the paper: a forward LSTM reads the sequence
left-to-right, a backward LSTM reads it right-to-left, and the temporal
representation at each frame is the *sum* of the two hidden states
(``h_t = h→_t + h←_t``).
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.errors import ModelError
from repro.nn.lstm import LSTMLayer
from repro.utils.rng import SeedLike, as_generator, child_rng


class BidirectionalLSTM:
    """Forward + backward LSTM whose outputs are summed per frame."""

    def __init__(
        self,
        input_dim: int,
        hidden_dim: int,
        rng: SeedLike = None,
    ) -> None:
        generator = as_generator(rng)
        self.forward_layer = LSTMLayer(
            input_dim, hidden_dim, rng=child_rng(generator, "fwd")
        )
        self.backward_layer = LSTMLayer(
            input_dim, hidden_dim, rng=child_rng(generator, "bwd")
        )
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim

    def forward(
        self,
        inputs: np.ndarray,
        training: bool = True,
        mask: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Sum of forward-pass and time-reversed-pass hidden states.

        ``training=False`` selects both layers' inference fast path
        (no BPTT caches, no instance-state writes).  ``mask`` marks
        valid frames of right-padded sequences: the backward layer
        sees the reversed mask, so its recurrence stays at the initial
        state across the (now leading) padding and enters the last
        valid frame with exactly the state an unpadded run would have.
        """
        if training:
            if mask is not None:
                raise ModelError(
                    "mask is an inference-only option; call "
                    "forward with training=False"
                )
            inputs = np.asarray(inputs, dtype=np.float64)
            h_forward = self.forward_layer.forward(inputs)
            h_backward = self.backward_layer.forward(inputs[:, ::-1])
            return h_forward + h_backward[:, ::-1]
        inputs = np.asarray(inputs)
        reversed_mask = None
        if mask is not None:
            reversed_mask = np.asarray(mask, dtype=bool)[:, ::-1]
        h_forward = self.forward_layer.forward_inference(inputs, mask=mask)
        h_backward = self.backward_layer.forward_inference(
            inputs[:, ::-1], mask=reversed_mask
        )
        return h_forward + h_backward[:, ::-1]

    def backward(self, grad_hs: np.ndarray) -> np.ndarray:
        """Backprop through both directions; returns input gradients."""
        dx_forward = self.forward_layer.backward(grad_hs)
        dx_backward = self.backward_layer.backward(grad_hs[:, ::-1])
        return dx_forward + dx_backward[:, ::-1]

    def zero_grads(self) -> None:
        """Reset both directions' accumulated gradients."""
        self.forward_layer.zero_grads()
        self.backward_layer.zero_grads()

    @property
    def params(self) -> Dict[str, np.ndarray]:
        """Flat parameter dict with direction-prefixed keys."""
        merged = {}
        for key, value in self.forward_layer.params.items():
            merged[f"fwd_{key}"] = value
        for key, value in self.backward_layer.params.items():
            merged[f"bwd_{key}"] = value
        return merged

    @property
    def grads(self) -> Dict[str, np.ndarray]:
        """Flat gradient dict matching :attr:`params`."""
        merged = {}
        for key, value in self.forward_layer.grads.items():
            merged[f"fwd_{key}"] = value
        for key, value in self.backward_layer.grads.items():
            merged[f"bwd_{key}"] = value
        return merged
