"""LSTM layer with full backpropagation through time (numpy).

Implements the standard LSTM cell (gates i, f, o and candidate g) over
batch-first sequences of shape ``(batch, time, features)``.  The layer's
training forward caches activations so :meth:`backward` can compute
exact BPTT gradients; parameters are exposed as a flat dict for the
optimizer.  Inference has one recurrence, :func:`stacked_inference`,
which runs a forward and a backward layer in a single time loop.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.errors import ModelError
from repro.nn.initializers import glorot_uniform, orthogonal
from repro.utils.rng import SeedLike, as_generator, child_rng


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -60.0, 60.0)))


#: Rows per block of the hoisted input projection ``x @ W`` in
#: :func:`stacked_inference`.  A default OpenBLAS build hands a gemm of
#: more than 4 * 65536 multiply-adds to its other threads; waking them
#: from sleep costs milliseconds, far more than the multiply.  A block
#: of 64 rows of the paper's model (64 * 14 * 256, about 2.3e5) stays
#: in the calling thread.  Every gemm row is computed alone, so the
#: blocks are bitwise equal to one flat projection.
PROJECTION_BLOCK_ROWS = 64


def _gate_activations(gates: np.ndarray, hidden: int):
    """``(i, f, g, o)`` from a ``(..., 4 * hidden)`` gate block.

    One sigmoid covers the whole block and i/f/o are sliced out of it
    (elementwise, so bitwise equal to one sigmoid per gate); the
    candidate ``g`` is ``tanh`` of the raw ``[2H:3H]`` slice.
    """
    sigmoid = _sigmoid(gates)
    return (
        sigmoid[..., :hidden],
        sigmoid[..., hidden : 2 * hidden],
        np.tanh(gates[..., 2 * hidden : 3 * hidden]),
        sigmoid[..., 3 * hidden :],
    )


def _check_inputs(inputs: np.ndarray, input_dim: int) -> np.ndarray:
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.ndim != 3 or inputs.shape[2] != input_dim:
        raise ModelError(
            f"expected (batch, time, {input_dim}) input, got "
            f"{inputs.shape}"
        )
    return inputs


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

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        """Training forward over ``inputs`` of shape (batch, time, input_dim).

        Returns hidden states of shape (batch, time, hidden_dim) and
        caches the activations :meth:`backward` needs.  Inference goes
        through :func:`stacked_inference` instead, which runs both
        directions of a :class:`~repro.nn.bidirectional.BidirectionalLSTM`
        in one time loop.
        """
        inputs = _check_inputs(inputs, self.input_dim)
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
            i, f, g, o = _gate_activations(gates, hidden)
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


def stacked_inference(
    forward_layer: LSTMLayer,
    backward_layer: LSTMLayer,
    inputs: np.ndarray,
    mask: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Bidirectional inference: both recurrences in one time loop.

    Returns ``h_forward + h_backward`` per frame, shape (batch, time,
    hidden_dim).  The directions' state is stacked (``h``, ``c``:
    ``(2, batch, hidden)``; ``U``: ``(2, hidden, 4 * hidden)``) and the
    backward direction reads the time-reversed input and mask.  No BPTT
    caches and no instance state, so concurrent calls are safe.  The
    input projection ``x @ W`` is hoisted out of the loop.  ``mask``
    (``(batch, time)``, truthy = valid frame) freezes the state across
    padded frames by exact ``np.where`` selection, so a right-padded
    row matches an unpadded run; an all-valid mask is dropped.  The
    step keeps the training forward's operation order, so for a given
    matmul kernel the numbers match it bitwise.
    """
    inputs = _check_inputs(inputs, forward_layer.input_dim)
    batch, time, input_dim = inputs.shape
    hidden = forward_layer.hidden_dim
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (batch, time):
            raise ModelError(
                f"mask shape {mask.shape} does not match "
                f"({batch}, {time})"
            )
        if mask.all():
            mask = None
    layers = (forward_layer, backward_layer)
    rows = batch * time
    sequences = np.stack([inputs, inputs[:, ::-1]]).reshape(
        2, rows, input_dim
    )
    # Near-equal blocks: none holds a single row (M=1 takes another
    # BLAS kernel) unless the whole projection is one row.
    n_blocks = max(1, -(-rows // PROJECTION_BLOCK_ROWS))
    bounds = [rows * k // n_blocks for k in range(n_blocks + 1)]
    x_proj = np.empty((2, rows, 4 * hidden))
    for direction, layer in enumerate(layers):
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            np.matmul(
                sequences[direction, lo:hi],
                layer.params["W"],
                out=x_proj[direction, lo:hi],
            )
    x_proj = x_proj.reshape(2, batch, time, 4 * hidden)
    U = np.stack([layer.params["U"] for layer in layers])
    b = np.stack([layer.params["b"] for layer in layers])[:, np.newaxis]
    if mask is not None:
        valid = np.stack([mask, mask[:, ::-1]])[..., np.newaxis]
    h = np.zeros((2, batch, hidden))
    c = np.zeros((2, batch, hidden))
    hs = np.empty((2, batch, time, hidden))
    for t in range(time):
        gates = x_proj[:, :, t] + h @ U + b
        i, f, g, o = _gate_activations(gates, hidden)
        c_new = f * c + i * g
        h_new = o * np.tanh(c_new)
        if mask is None:
            c, h = c_new, h_new
        else:
            c = np.where(valid[:, :, t], c_new, c)
            h = np.where(valid[:, :, t], h_new, h)
        hs[:, :, t] = h
    return hs[0] + hs[1][:, ::-1]
