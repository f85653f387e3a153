"""LSTM layer with full backpropagation through time (numpy).

Implements the standard LSTM cell (gates i, f, o and candidate g) over
batch-first sequences of shape ``(batch, time, features)``.  The layer
caches forward activations so :meth:`backward` can compute exact BPTT
gradients; parameters are exposed as a flat dict for the optimizer.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.errors import ModelError
from repro.nn.initializers import glorot_uniform, orthogonal
from repro.utils.rng import SeedLike, as_generator, child_rng


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -60.0, 60.0)))


class LSTMLayer:
    """Unidirectional LSTM over batch-first sequences.

    Parameters
    ----------
    input_dim:
        Feature dimension of the input sequences.
    hidden_dim:
        Number of LSTM units (the paper uses 64).
    rng:
        Seed for weight initialization.
    """

    def __init__(
        self,
        input_dim: int,
        hidden_dim: int,
        rng: SeedLike = None,
    ) -> None:
        if input_dim <= 0 or hidden_dim <= 0:
            raise ModelError(
                f"dims must be > 0, got input={input_dim}, "
                f"hidden={hidden_dim}"
            )
        generator = as_generator(rng)
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        gate_dim = 4 * hidden_dim
        self.params: Dict[str, np.ndarray] = {
            "W": glorot_uniform(
                (input_dim, gate_dim), rng=child_rng(generator, "W")
            ),
            "U": np.concatenate(
                [
                    orthogonal(
                        (hidden_dim, hidden_dim),
                        rng=child_rng(generator, f"U{k}"),
                    )
                    for k in range(4)
                ],
                axis=1,
            ),
            "b": np.zeros(gate_dim),
        }
        # Forget-gate bias starts positive so gradients flow early on.
        self.params["b"][hidden_dim : 2 * hidden_dim] = 1.0
        self.grads: Dict[str, np.ndarray] = {
            key: np.zeros_like(value) for key, value in self.params.items()
        }
        self._cache: Optional[dict] = None

    def forward(
        self,
        inputs: np.ndarray,
        training: bool = True,
        mask: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Run the LSTM over ``inputs`` of shape (batch, time, input_dim).

        Returns hidden states of shape (batch, time, hidden_dim).  With
        ``training=True`` (the default) activations are cached for
        :meth:`backward`; ``training=False`` selects the inference fast
        path (:meth:`forward_inference`), which supports ``mask``.
        """
        if not training:
            return self.forward_inference(inputs, mask=mask)
        if mask is not None:
            raise ModelError(
                "mask is an inference-only option; call forward "
                "with training=False"
            )
        inputs = np.asarray(inputs, dtype=np.float64)
        if inputs.ndim != 3 or inputs.shape[2] != self.input_dim:
            raise ModelError(
                f"expected (batch, time, {self.input_dim}) input, got "
                f"{inputs.shape}"
            )
        batch, time, _ = inputs.shape
        hidden = self.hidden_dim
        h = np.zeros((batch, hidden))
        c = np.zeros((batch, hidden))
        hs = np.zeros((batch, time, hidden))
        cache = {
            "x": inputs,
            "i": np.zeros((batch, time, hidden)),
            "f": np.zeros((batch, time, hidden)),
            "o": np.zeros((batch, time, hidden)),
            "g": np.zeros((batch, time, hidden)),
            "c": np.zeros((batch, time, hidden)),
            "tanh_c": np.zeros((batch, time, hidden)),
            "h_prev": np.zeros((batch, time, hidden)),
            "c_prev": np.zeros((batch, time, hidden)),
        }
        W, U, b = self.params["W"], self.params["U"], self.params["b"]
        for t in range(time):
            cache["h_prev"][:, t] = h
            cache["c_prev"][:, t] = c
            gates = inputs[:, t] @ W + h @ U + b
            i = _sigmoid(gates[:, :hidden])
            f = _sigmoid(gates[:, hidden : 2 * hidden])
            g = np.tanh(gates[:, 2 * hidden : 3 * hidden])
            o = _sigmoid(gates[:, 3 * hidden :])
            c = f * c + i * g
            tanh_c = np.tanh(c)
            h = o * tanh_c
            hs[:, t] = h
            cache["i"][:, t] = i
            cache["f"][:, t] = f
            cache["g"][:, t] = g
            cache["o"][:, t] = o
            cache["c"][:, t] = c
            cache["tanh_c"][:, t] = tanh_c
        self._cache = cache
        return hs

    def forward_inference(
        self,
        inputs: np.ndarray,
        mask: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Inference-only forward: no BPTT caches, optional masking.

        Differences from the training forward:

        * none of the ~9 per-timestep ``(batch, time, hidden)`` BPTT
          cache arrays are allocated, and no instance state is written
          — concurrent calls on a shared layer are safe;
        * the input projection ``x @ W`` is hoisted out of the time
          loop into one flat ``(batch * time, input_dim)`` matmul;
        * ``mask`` (shape ``(batch, time)``, truthy = valid frame)
          freezes the hidden and cell state across padded frames via
          exact ``np.where`` selection, so right-padded batch members
          produce the same hidden states at their valid frames as an
          unpadded run.

        The inference path keeps the training forward's operation order
        (``(x @ W + h @ U) + b`` and identical gate nonlinearities), so
        for a given matmul kernel the numbers match the training
        forward bitwise.
        """
        inputs = np.asarray(inputs, dtype=np.float64)
        if inputs.ndim != 3 or inputs.shape[2] != self.input_dim:
            raise ModelError(
                f"expected (batch, time, {self.input_dim}) input, got "
                f"{inputs.shape}"
            )
        batch, time, _ = inputs.shape
        hidden = self.hidden_dim
        W, U, b = self.params["W"], self.params["U"], self.params["b"]
        if mask is not None:
            mask = np.asarray(mask, dtype=bool)
            if mask.shape != (batch, time):
                raise ModelError(
                    f"mask shape {mask.shape} does not match "
                    f"({batch}, {time})"
                )
        # One flat input projection for every (batch, frame) pair.
        x_proj = (
            inputs.reshape(batch * time, self.input_dim) @ W
        ).reshape(batch, time, 4 * hidden)
        h = np.zeros((batch, hidden))
        c = np.zeros((batch, hidden))
        hs = np.empty((batch, time, hidden))
        for t in range(time):
            gates = x_proj[:, t] + h @ U + b
            i = _sigmoid(gates[:, :hidden])
            f = _sigmoid(gates[:, hidden : 2 * hidden])
            g = np.tanh(gates[:, 2 * hidden : 3 * hidden])
            o = _sigmoid(gates[:, 3 * hidden :])
            c_new = f * c + i * g
            h_new = o * np.tanh(c_new)
            if mask is None:
                c, h = c_new, h_new
            else:
                valid = mask[:, t, np.newaxis]
                c = np.where(valid, c_new, c)
                h = np.where(valid, h_new, h)
            hs[:, t] = h
        return hs

    def backward(self, grad_hs: np.ndarray) -> np.ndarray:
        """BPTT given upstream gradients on every hidden state.

        Accumulates parameter gradients in :attr:`grads` and returns the
        gradient with respect to the inputs.
        """
        if self._cache is None:
            raise ModelError("backward called before forward")
        cache = self._cache
        inputs = cache["x"]
        batch, time, _ = inputs.shape
        hidden = self.hidden_dim
        grad_hs = np.asarray(grad_hs, dtype=np.float64)
        if grad_hs.shape != (batch, time, hidden):
            raise ModelError(
                f"grad_hs shape {grad_hs.shape} does not match "
                f"({batch}, {time}, {hidden})"
            )
        W, U = self.params["W"], self.params["U"]
        dW = np.zeros_like(W)
        dU = np.zeros_like(U)
        db = np.zeros_like(self.params["b"])
        dx = np.zeros_like(inputs)
        dh_next = np.zeros((batch, hidden))
        dc_next = np.zeros((batch, hidden))
        for t in reversed(range(time)):
            i = cache["i"][:, t]
            f = cache["f"][:, t]
            g = cache["g"][:, t]
            o = cache["o"][:, t]
            tanh_c = cache["tanh_c"][:, t]
            c_prev = cache["c_prev"][:, t]
            h_prev = cache["h_prev"][:, t]

            dh = grad_hs[:, t] + dh_next
            do = dh * tanh_c
            dc = dh * o * (1.0 - tanh_c**2) + dc_next
            di = dc * g
            dg = dc * i
            df = dc * c_prev
            dc_next = dc * f

            d_gates = np.concatenate(
                [
                    di * i * (1.0 - i),
                    df * f * (1.0 - f),
                    dg * (1.0 - g**2),
                    do * o * (1.0 - o),
                ],
                axis=1,
            )
            dW += inputs[:, t].T @ d_gates
            dU += h_prev.T @ d_gates
            db += d_gates.sum(axis=0)
            dx[:, t] = d_gates @ W.T
            dh_next = d_gates @ U.T
        self.grads["W"] += dW
        self.grads["U"] += dU
        self.grads["b"] += db
        self._cache = None
        return dx

    def zero_grads(self) -> None:
        """Reset accumulated gradients to zero."""
        for key in self.grads:
            self.grads[key][...] = 0.0
