"""Property-based tests on neural-substrate invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.nn.losses import softmax, softmax_cross_entropy
from repro.nn.lstm import LSTMLayer
from repro.nn.model import SequenceClassifier

logits_arrays = arrays(
    np.float64,
    st.tuples(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=2, max_value=5),
    ),
    elements=st.floats(min_value=-30.0, max_value=30.0,
                       allow_nan=False),
)


@given(logits_arrays)
@settings(max_examples=80, deadline=None)
def test_softmax_is_a_distribution(logits):
    probs = softmax(logits)
    assert np.all(probs >= 0)
    np.testing.assert_allclose(probs.sum(axis=-1), 1.0, rtol=1e-9)


@given(logits_arrays, st.integers(min_value=0, max_value=10**6))
@settings(max_examples=60, deadline=None)
def test_cross_entropy_nonnegative_and_grad_sums_to_zero(logits, seed):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, logits.shape[-1], size=logits.shape[0])
    loss, grad = softmax_cross_entropy(logits, labels)
    assert loss >= -1e-9
    # Per-row softmax gradient sums to zero.
    np.testing.assert_allclose(
        grad.sum(axis=-1), 0.0, atol=1e-9
    )


@given(logits_arrays, st.floats(min_value=-50.0, max_value=50.0))
@settings(max_examples=60, deadline=None)
def test_softmax_shift_invariance(logits, shift):
    np.testing.assert_allclose(
        softmax(logits), softmax(logits + shift), rtol=1e-7, atol=1e-9
    )


@given(
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=10**6),
)
@settings(max_examples=30, deadline=None)
def test_lstm_output_bounded(batch, time, dim, seed):
    # LSTM hidden states are tanh-gated: |h| <= 1 elementwise.
    rng = np.random.default_rng(seed)
    layer = LSTMLayer(dim, 4, rng=seed)
    x = 100.0 * rng.standard_normal((batch, time, dim))
    hidden = layer.forward(x)
    assert np.all(np.abs(hidden) <= 1.0 + 1e-12)
    assert np.all(np.isfinite(hidden))


_CLASSIFIER = SequenceClassifier(input_dim=5, hidden_dim=8, rng=0)


@given(
    st.lists(st.integers(min_value=1, max_value=40), min_size=2,
             max_size=6),
    st.integers(min_value=0, max_value=10**6),
)
@settings(max_examples=25, deadline=None)
def test_row_scored_alone_equals_row_in_ragged_batch(lengths, seed):
    # Batch-composition invariance of the inference forward, bitwise:
    # a right-padded, masked row gives the frames it gives alone.
    time = max(lengths)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((len(lengths), time, 5))
    mask = np.arange(time) < np.array(lengths)[:, np.newaxis]
    batched = _CLASSIFIER.forward(x, training=False, mask=mask)
    for row, length in enumerate(lengths):
        alone = _CLASSIFIER.forward(
            x[row : row + 1, :length], training=False
        )
        np.testing.assert_array_equal(alone[0], batched[row, :length])
