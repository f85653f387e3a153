"""Sequence classifier: BRNN + dense softmax head, with training loop.

This is the paper's phoneme-detection architecture (§ V-B): a
bidirectional LSTM over MFCC frames, a 2-neuron dense layer, softmax
cross-entropy, trained with Adam.  Class count is a parameter so the same
container serves the binary effective-phoneme detector and any richer
phoneme classifier built on top.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import ModelError
from repro.nn.adam import Adam
from repro.nn.bidirectional import BidirectionalLSTM
from repro.nn.data import iterate_minibatches
from repro.nn.dense import Dense
from repro.nn.losses import softmax, softmax_cross_entropy
from repro.utils.rng import SeedLike, as_generator, child_rng

#: Reserved archive key that stores (input_dim, hidden_dim, n_classes).
META_KEY = "_meta"


def pack_param_arrays(
    params: Dict[str, np.ndarray],
    input_dim: int,
    hidden_dim: int,
    n_classes: int,
    extras: Optional[Dict[str, np.ndarray]] = None,
) -> Dict[str, np.ndarray]:
    """Flat array dict ready for ``np.savez``: params + architecture meta.

    Shared by :meth:`SequenceClassifier.save` and
    :meth:`repro.core.segmentation.PhonemeSegmenter.save`, which adds
    its feature statistics via ``extras``.
    """
    arrays = dict(params)
    arrays[META_KEY] = np.array(
        [input_dim, hidden_dim, n_classes], dtype=np.int64
    )
    if extras:
        arrays.update(extras)
    return arrays


def read_meta(archive, source: object) -> Tuple[int, int, int]:
    """(input_dim, hidden_dim, n_classes) recorded in an archive."""
    if META_KEY not in archive:
        raise ModelError(f"missing {META_KEY!r} in {source}")
    meta = np.asarray(archive[META_KEY]).ravel()
    if meta.size != 3:
        raise ModelError(
            f"malformed {META_KEY!r} in {source}: expected "
            f"(input_dim, hidden_dim, n_classes), got {meta.size} values"
        )
    return int(meta[0]), int(meta[1]), int(meta[2])


def restore_param_arrays(
    archive,
    params: Dict[str, np.ndarray],
    source: object,
    expected_meta: Optional[Tuple[int, int, int]] = None,
) -> Tuple[int, int, int]:
    """Copy archived weights into ``params`` in place, validating shape.

    ``expected_meta`` pins the live model's architecture: a saved
    (input_dim, hidden_dim, n_classes) that differs raises
    :class:`ModelError` instead of silently loading incompatible
    weights.  Returns the archive's meta triple.
    """
    meta = read_meta(archive, source)
    if expected_meta is not None and meta != tuple(expected_meta):
        raise ModelError(
            f"architecture mismatch loading {source}: saved "
            f"(input_dim, hidden_dim, n_classes)={meta} but the model "
            f"was built with {tuple(expected_meta)}"
        )
    for key, target in params.items():
        if key not in archive:
            raise ModelError(f"missing parameter {key!r} in {source}")
        value = np.asarray(archive[key])
        if value.shape != target.shape:
            raise ModelError(
                f"parameter {key!r} in {source} has shape "
                f"{value.shape}, expected {target.shape}"
            )
        target[...] = value
    return meta


class SequenceClassifier:
    """Per-frame sequence classifier (BRNN → dense → softmax).

    Parameters
    ----------
    input_dim:
        Feature dimension per frame (14 MFCCs in the paper).
    hidden_dim:
        LSTM units per direction (64 in the paper).
    n_classes:
        Output classes (2 for effective-phoneme detection).
    rng:
        Seed for weight initialization.

    Examples
    --------
    >>> model = SequenceClassifier(input_dim=4, hidden_dim=8, rng=0)
    >>> import numpy as np
    >>> x = np.zeros((2, 5, 4))
    >>> model.predict_proba(x).shape
    (2, 5, 2)
    """

    def __init__(
        self,
        input_dim: int,
        hidden_dim: int = 64,
        n_classes: int = 2,
        rng: SeedLike = None,
    ) -> None:
        if n_classes < 2:
            raise ModelError(f"n_classes must be >= 2, got {n_classes}")
        generator = as_generator(rng)
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.n_classes = n_classes
        self.brnn = BidirectionalLSTM(
            input_dim, hidden_dim, rng=child_rng(generator, "brnn")
        )
        self.head = Dense(
            hidden_dim, n_classes, rng=child_rng(generator, "head")
        )
        self._trained = False

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------

    def forward(
        self,
        inputs: np.ndarray,
        training: bool = True,
        mask: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Per-frame logits, shape ``(batch, time, n_classes)``.

        ``training=False`` runs the allocation-light inference path
        (:func:`~repro.nn.lstm.stacked_inference`): no BPTT caches, no
        instance-state writes (safe to share the model across threads)
        and an optional frame-validity ``mask`` of shape
        ``(batch, time)`` for right-padded batches.

        Batch-size-independence: OpenBLAS dispatches single-row
        matmuls to a different kernel than multi-row ones, whose
        results can differ in the last ulp.  The inference path
        therefore mirrors a singleton batch to two identical rows (and
        runs every other matmul on at least two rows), so a sequence
        scored alone produces bitwise the same frames as the same
        sequence scored inside any larger batch.
        """
        if training:
            if mask is not None:
                raise ModelError(
                    "mask is an inference-only option; call "
                    "forward with training=False"
                )
            hidden = self.brnn.forward(
                np.asarray(inputs, dtype=np.float64)
            )
            return self.head.forward(hidden)
        inputs = np.asarray(inputs)
        if inputs.ndim != 3:
            raise ModelError(
                f"expected (batch, time, features) input, got "
                f"{inputs.shape}"
            )
        if mask is not None:
            mask = np.asarray(mask, dtype=bool)
            if mask.shape != inputs.shape[:2]:
                raise ModelError(
                    f"mask shape {mask.shape} does not match "
                    f"{inputs.shape[:2]}"
                )
        mirrored = inputs.shape[0] == 1
        if mirrored:
            inputs = np.concatenate([inputs, inputs], axis=0)
            if mask is not None:
                mask = np.concatenate([mask, mask], axis=0)
        hidden = self.brnn.forward(inputs, training=False, mask=mask)
        logits = self.head.forward(hidden, training=False)
        return logits[:1] if mirrored else logits

    def predict_proba(
        self,
        inputs: np.ndarray,
        mask: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Per-frame class probabilities (inference fast path)."""
        return softmax(self.forward(inputs, training=False, mask=mask))

    def predict(
        self,
        inputs: np.ndarray,
        mask: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Per-frame argmax labels, shape ``(batch, time)``."""
        return np.argmax(
            self.forward(inputs, training=False, mask=mask), axis=-1
        )

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------

    def train_step(
        self,
        inputs: np.ndarray,
        labels: np.ndarray,
        optimizer: Adam,
        mask: Optional[np.ndarray] = None,
    ) -> float:
        """One forward/backward/update pass; returns the batch loss.

        ``mask`` (same shape as ``labels``) zeroes the loss contribution
        of padded frames.
        """
        logits = self.forward(inputs)
        loss, grad = softmax_cross_entropy(logits, labels)
        if mask is not None:
            mask = np.asarray(mask, dtype=np.float64)
            if mask.shape != labels.shape:
                raise ModelError(
                    f"mask shape {mask.shape} != labels {labels.shape}"
                )
            scale = float(mask.mean()) + 1e-12
            grad = grad * mask[..., np.newaxis] / scale
            # Recompute the displayed loss over unmasked frames only.
            probabilities = softmax(logits)
            flat = probabilities.reshape(-1, self.n_classes)
            picked = flat[np.arange(flat.shape[0]), labels.reshape(-1)]
            losses = -np.log(picked + 1e-12).reshape(labels.shape)
            loss = float((losses * mask).sum() / (mask.sum() + 1e-12))
        self.brnn.zero_grads()
        self.head.zero_grads()
        grad_hidden = self.head.backward(grad)
        self.brnn.backward(grad_hidden)
        params = self.params
        optimizer.update(params, self.grads)
        return loss

    def fit(
        self,
        sequences: Sequence[np.ndarray],
        labels: Sequence[np.ndarray],
        epochs: int = 5,
        batch_size: int = 16,
        learning_rate: float = 1e-2,
        rng: SeedLike = None,
        verbose: bool = False,
    ) -> List[float]:
        """Train on variable-length sequences with per-frame labels.

        Sequences are bucketed into padded minibatches with loss masking.
        Returns the mean loss per epoch.
        """
        generator = as_generator(rng)
        optimizer = Adam(learning_rate=learning_rate)
        history = []
        for epoch in range(epochs):
            epoch_losses = []
            for batch_x, batch_y, batch_mask in iterate_minibatches(
                sequences, labels, batch_size,
                rng=child_rng(generator, f"epoch{epoch}"),
            ):
                loss = self.train_step(
                    batch_x, batch_y, optimizer, mask=batch_mask
                )
                epoch_losses.append(loss)
            mean_loss = float(np.mean(epoch_losses))
            history.append(mean_loss)
            if verbose:  # pragma: no cover - logging only
                print(f"epoch {epoch + 1}/{epochs}: loss {mean_loss:.4f}")
        self._trained = True
        return history

    # ------------------------------------------------------------------
    # Parameters and persistence
    # ------------------------------------------------------------------

    @property
    def params(self) -> Dict[str, np.ndarray]:
        """Flat parameter dict across all layers."""
        merged = {
            f"brnn_{key}": value for key, value in self.brnn.params.items()
        }
        merged.update(
            {f"head_{key}": value for key, value in self.head.params.items()}
        )
        return merged

    @property
    def grads(self) -> Dict[str, np.ndarray]:
        """Flat gradient dict matching :attr:`params`."""
        merged = {
            f"brnn_{key}": value for key, value in self.brnn.grads.items()
        }
        merged.update(
            {f"head_{key}": value for key, value in self.head.grads.items()}
        )
        return merged

    def save(self, path: Union[str, Path]) -> None:
        """Serialize architecture + weights to an ``.npz`` file."""
        path = Path(path)
        np.savez(
            path,
            **pack_param_arrays(
                self.params,
                self.input_dim,
                self.hidden_dim,
                self.n_classes,
            ),
        )

    @classmethod
    def load(cls, path: Union[str, Path]) -> "SequenceClassifier":
        """Restore a model saved with :meth:`save`."""
        path = Path(path)
        if not path.exists():
            raise ModelError(f"model file not found: {path}")
        with np.load(path) as archive:
            input_dim, hidden_dim, n_classes = read_meta(archive, path)
            model = cls(
                input_dim=input_dim,
                hidden_dim=hidden_dim,
                n_classes=n_classes,
            )
            restore_param_arrays(archive, model.params, path)
        model._trained = True
        return model
