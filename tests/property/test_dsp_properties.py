"""Property-based tests on DSP invariants (hypothesis)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.dsp.correlate import (
    align_by_cross_correlation,
    correlation_2d,
    cross_correlation_delay,
)
from repro.dsp.mel import hz_to_mel, mel_to_hz
from repro.dsp.resample import folded_frequency
from repro.dsp.spectrum import fft_magnitude
from repro.dsp.windows import frame_signal
from tests.test_dsp_correlate import reference_cross_correlation

finite_1d = arrays(
    np.float64,
    st.integers(min_value=16, max_value=200),
    elements=st.floats(
        min_value=-10.0, max_value=10.0, allow_nan=False
    ),
)

finite_2d = arrays(
    np.float64,
    st.tuples(
        st.integers(min_value=2, max_value=12),
        st.integers(min_value=2, max_value=12),
    ),
    elements=st.floats(min_value=-5.0, max_value=5.0,
                       allow_nan=False),
)


@given(finite_2d)
@settings(max_examples=50, deadline=None)
def test_correlation_2d_self_is_one_or_zero(matrix):
    value = correlation_2d(matrix, matrix)
    # 1 for non-constant matrices; 0 for degenerate constants.
    assert value == 1.0 or value == 0.0 or abs(value - 1.0) < 1e-9


@given(finite_2d, finite_2d)
@settings(max_examples=50, deadline=None)
def test_correlation_2d_bounded(a, b):
    value = correlation_2d(a, b)
    assert -1.0 - 1e-9 <= value <= 1.0 + 1e-9


@given(finite_2d, finite_2d)
@settings(max_examples=50, deadline=None)
def test_correlation_2d_symmetric(a, b):
    rows = min(a.shape[0], b.shape[0])
    cols = min(a.shape[1], b.shape[1])
    a, b = a[:rows, :cols], b[:rows, :cols]
    assert correlation_2d(a, b) == correlation_2d(b, a)


@given(
    st.floats(min_value=0.0, max_value=20_000.0),
    st.floats(min_value=10.0, max_value=1000.0),
)
@settings(max_examples=100, deadline=None)
def test_folded_frequency_within_nyquist(frequency, rate):
    folded = folded_frequency(frequency, rate)
    assert 0.0 <= folded <= rate / 2 + 1e-9


@given(st.floats(min_value=0.0, max_value=8000.0))
@settings(max_examples=100, deadline=None)
def test_mel_roundtrip_property(frequency):
    roundtrip = float(mel_to_hz(hz_to_mel(np.array(frequency))))
    np.testing.assert_allclose(roundtrip, frequency, rtol=1e-9,
                               atol=1e-6)


@given(finite_1d, st.integers(min_value=0, max_value=30))
@settings(max_examples=40, deadline=None)
def test_alignment_outputs_equal_length(signal, shift):
    signal = signal + 1e-3  # avoid the all-zero degenerate case
    shifted = signal[shift:] if shift < signal.size else signal
    if shifted.size == 0:
        return
    va_a, wearable_a, _ = align_by_cross_correlation(
        signal, shifted, max_lag=signal.size - 1
    )
    assert va_a.size == wearable_a.size
    assert va_a.size > 0


@given(finite_1d)
@settings(max_examples=40, deadline=None)
def test_delay_of_signal_with_itself_is_zero_unless_periodic(signal):
    if np.allclose(signal, signal[0]):
        return  # constant signals have undefined alignment
    delay = cross_correlation_delay(signal, signal.copy(), max_lag=5)
    # For generic (non-periodic) content the best lag is 0.
    assert -5 <= delay <= 5


@given(
    finite_1d,
    finite_1d,
    st.integers(min_value=0, max_value=250),
)
@settings(max_examples=60, deadline=None)
def test_delay_matches_full_convolution_reference(va, wearable, max_lag):
    """The lag-window delay is the full convolution's delay.

    Where the reference's best lag ties another within rounding, either
    maximizer is a valid delay.
    """
    lags, expected = reference_cross_correlation(va, wearable, max_lag)
    delay = cross_correlation_delay(va, wearable, max_lag)
    best = int(np.argmax(expected))
    if delay != lags[best]:
        assert expected[best] - expected[lags == delay][0] <= 1e-12


@given(
    finite_1d,
    st.integers(min_value=2, max_value=32),
    st.integers(min_value=1, max_value=16),
)
@settings(max_examples=50, deadline=None)
def test_framing_covers_all_samples(signal, frame, hop):
    frames = frame_signal(signal, frame, hop, pad_final=True)
    n_frames = frames.shape[0]
    # Enough frames to cover the signal.
    assert (n_frames - 1) * hop + frame >= signal.size


@given(finite_1d, st.floats(min_value=100.0, max_value=48_000.0))
@settings(max_examples=50, deadline=None)
def test_fft_magnitude_nonnegative(signal, rate):
    _, mags = fft_magnitude(signal, rate)
    assert np.all(mags >= 0.0)
