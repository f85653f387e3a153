"""Dense (fully connected) layer applied per time step."""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.errors import ModelError
from repro.nn.initializers import glorot_uniform
from repro.utils.rng import SeedLike


class Dense:
    """Affine map ``y = x @ W + b`` over the last axis."""

    def __init__(
        self,
        input_dim: int,
        output_dim: int,
        rng: SeedLike = None,
    ) -> None:
        if input_dim <= 0 or output_dim <= 0:
            raise ModelError(
                f"dims must be > 0, got input={input_dim}, "
                f"output={output_dim}"
            )
        self.input_dim = input_dim
        self.output_dim = output_dim
        self.params: Dict[str, np.ndarray] = {
            "W": glorot_uniform((input_dim, output_dim), rng=rng),
            "b": np.zeros(output_dim),
        }
        self.grads: Dict[str, np.ndarray] = {
            key: np.zeros_like(value) for key, value in self.params.items()
        }
        self._cache: Optional[np.ndarray] = None

    def forward(
        self,
        inputs: np.ndarray,
        training: bool = True,
    ) -> np.ndarray:
        """Apply the affine map.

        With ``training=True`` (default) the inputs are cached for
        :meth:`backward`.  ``training=False`` skips the cache (no
        instance state is written, so concurrent inference on a shared
        layer is safe) and runs the matmul on the 2-D flattened view so
        every call — whatever its batch/time shape — exercises the same
        BLAS kernel family.
        """
        inputs = np.asarray(inputs, dtype=np.float64)
        if inputs.shape[-1] != self.input_dim:
            raise ModelError(
                f"expected last dim {self.input_dim}, got {inputs.shape}"
            )
        if not training:
            flat = inputs.reshape(-1, self.input_dim)
            return (flat @ self.params["W"] + self.params["b"]).reshape(
                inputs.shape[:-1] + (self.output_dim,)
            )
        self._cache = inputs
        return inputs @ self.params["W"] + self.params["b"]

    def backward(self, grad_outputs: np.ndarray) -> np.ndarray:
        """Accumulate parameter grads; return input gradients."""
        if self._cache is None:
            raise ModelError("backward called before forward")
        inputs = self._cache
        flat_in = inputs.reshape(-1, self.input_dim)
        flat_grad = np.asarray(grad_outputs, dtype=np.float64).reshape(
            -1, self.output_dim
        )
        self.grads["W"] += flat_in.T @ flat_grad
        self.grads["b"] += flat_grad.sum(axis=0)
        self._cache = None
        return (flat_grad @ self.params["W"].T).reshape(inputs.shape)

    def zero_grads(self) -> None:
        """Reset accumulated gradients to zero."""
        for key in self.grads:
            self.grads[key][...] = 0.0
