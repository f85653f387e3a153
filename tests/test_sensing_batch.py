"""Batched cross-domain sensing: the ``(batch, time)`` kernels give each
row what it gets alone (batch-composition invariance), and the sensing
hoist inside ``analyze_batch`` isolates errors."""

import numpy as np
import pytest

from repro.acoustics.loudspeaker import WEARABLE_SPEAKER, Loudspeaker
from repro.core.pipeline import (
    BatchAnalysisItem,
    DefenseConfig,
    DefensePipeline,
)
from repro.dsp.filters import butter_lowpass
from repro.dsp.resample import alias_decimate
from repro.sensing.accelerometer import Accelerometer, AccelerometerSpec
from repro.sensing.conduction import ConductionPath
from repro.sensing.cross_domain import CrossDomainSensor

AUDIO_RATE = 16_000.0


def make_audios(n, base=16_000):
    """Ragged-length recordings spanning several length buckets."""
    rng = np.random.default_rng(777)
    return [
        rng.normal(0.0, 0.1, base + 800 * (index % 4))
        for index in range(n)
    ]


class TestDspBatchParity:
    """The ``(batch, time)`` kernels under ``convert_batch``: a row of a
    stack equals the same row run as a batch of one."""

    def test_butter_lowpass_batch_bitwise(self):
        stack = np.random.default_rng(1).normal(size=(4, 4_000))
        batched = butter_lowpass(stack, AUDIO_RATE, 100.0)
        for row in range(stack.shape[0]):
            single = butter_lowpass(stack[row], AUDIO_RATE, 100.0)
            np.testing.assert_array_equal(batched[row], single)

    def test_alias_decimate_batch_bitwise(self):
        stack = np.random.default_rng(2).normal(size=(3, 4_000))
        batched = alias_decimate(stack, AUDIO_RATE, 200.0)
        assert batched.flags["C_CONTIGUOUS"]
        for row in range(stack.shape[0]):
            single = alias_decimate(stack[row], AUDIO_RATE, 200.0)
            np.testing.assert_array_equal(batched[row], single)

    def test_loudspeaker_play_batch_bitwise(self):
        speaker = Loudspeaker(WEARABLE_SPEAKER)
        stack = np.random.default_rng(3).normal(0.0, 0.3, (4, 4_000))
        batched = speaker.play_batch(stack, AUDIO_RATE)
        for row in range(stack.shape[0]):
            single = speaker.play(stack[row], AUDIO_RATE)
            np.testing.assert_array_equal(batched[row], single)

    def test_conduction_apply_batch_bitwise(self):
        path = ConductionPath()
        stack = np.random.default_rng(4).normal(size=(3, 4_000))
        rngs = [np.random.default_rng(40 + row) for row in range(3)]
        batched = path.apply_batch(stack, AUDIO_RATE, rngs=rngs)
        for row in range(stack.shape[0]):
            single = path.apply(
                stack[row],
                AUDIO_RATE,
                rng=np.random.default_rng(40 + row),
            )
            np.testing.assert_array_equal(batched[row], single)

    def test_accelerometer_sense_batch_bitwise(self):
        accelerometer = Accelerometer(AccelerometerSpec())
        stack = np.random.default_rng(5).normal(size=(3, 8_000))
        drives = np.random.default_rng(6).normal(size=(3, 8_000))
        rngs = [np.random.default_rng(50 + row) for row in range(3)]
        batched = accelerometer.sense_batch(
            stack, AUDIO_RATE, drive_audios=drives, rngs=rngs
        )
        for row in range(stack.shape[0]):
            single = accelerometer.sense(
                stack[row],
                AUDIO_RATE,
                drive_audio=drives[row],
                rng=np.random.default_rng(50 + row),
            )
            np.testing.assert_array_equal(batched[row], single)


class TestConvertBatchParity:
    @pytest.fixture(scope="class")
    def sensor(self):
        return CrossDomainSensor()

    def test_matches_sequential_bitwise(self, sensor):
        audios = make_audios(6)
        seeds = [100 + index for index in range(len(audios))]
        batched = sensor.convert_batch(audios, AUDIO_RATE, rngs=seeds)
        assert len(batched) == len(audios)
        for audio, seed, vibration in zip(audios, seeds, batched):
            single = sensor.convert(audio, AUDIO_RATE, rng=seed)
            np.testing.assert_array_equal(vibration, single)

    def test_body_motion_path_bitwise(self, sensor):
        audios = make_audios(4)
        seeds = [200 + index for index in range(len(audios))]
        batched = sensor.convert_batch(
            audios, AUDIO_RATE, rngs=seeds, include_body_motion=True
        )
        for audio, seed, vibration in zip(audios, seeds, batched):
            single = sensor.convert(
                audio, AUDIO_RATE, rng=seed, include_body_motion=True
            )
            np.testing.assert_array_equal(vibration, single)

    def test_batch_composition_invariance(self, sensor):
        # An item's vibration must not depend on its batch-mates: the
        # determinism contract behind serving micro-batches.
        audios = make_audios(6)
        seeds = [300 + index for index in range(len(audios))]
        full = sensor.convert_batch(audios, AUDIO_RATE, rngs=seeds)
        pairs = [
            sensor.convert_batch(
                audios[start : start + 2],
                AUDIO_RATE,
                rngs=seeds[start : start + 2],
            )
            for start in range(0, len(audios), 2)
        ]
        flattened = [item for pair in pairs for item in pair]
        for together, alone in zip(full, flattened):
            np.testing.assert_array_equal(together, alone)

    def test_empty_batch(self, sensor):
        assert sensor.convert_batch([], AUDIO_RATE) == []

    def test_rng_count_mismatch_rejected(self, sensor):
        audios = make_audios(2)
        with pytest.raises(ValueError):
            sensor.convert_batch(audios, AUDIO_RATE, rngs=[1])


class TestSenseHoistInAnalyzeBatch:
    """The pipeline-level hoist that feeds ``convert_batch``."""

    @pytest.fixture(scope="class")
    def pipeline(self):
        return DefensePipeline(
            config=DefenseConfig(audio_rate=AUDIO_RATE)
        )

    def _items(self, seeds, n_samples=16_000):
        items = []
        for seed in seeds:
            rng = np.random.default_rng(seed)
            va = rng.normal(0.0, 0.1, n_samples)
            wearable = 0.8 * va + rng.normal(0.0, 0.02, n_samples)
            items.append(
                BatchAnalysisItem(
                    va_audio=va, wearable_audio=wearable, rng=seed
                )
            )
        return items

    def test_hoisted_sensing_matches_sequential(self, pipeline):
        items = self._items((61, 62, 63))
        outcomes = pipeline.analyze_batch(items)
        assert all(outcome.ok for outcome in outcomes)
        for item, outcome in zip(items, outcomes):
            expected = pipeline.analyze(
                item.va_audio, item.wearable_audio, rng=item.rng
            )
            assert outcome.verdict == expected
            assert "sense" in outcome.timings

    def test_poisoned_item_isolated(self, pipeline):
        items = self._items((71, 72))
        poisoned = BatchAnalysisItem(
            va_audio=np.zeros((2, 100)),  # 2-D: rejected by ensure_1d
            wearable_audio=np.zeros(16_000),
            rng=73,
        )
        mixed = [items[0], poisoned, items[1]]
        outcomes = pipeline.analyze_batch(mixed)
        assert outcomes[0].ok and outcomes[2].ok
        assert not outcomes[1].ok and outcomes[1].error is not None
        for item, outcome in ((items[0], outcomes[0]),
                              (items[1], outcomes[2])):
            expected = pipeline.analyze(
                item.va_audio, item.wearable_audio, rng=item.rng
            )
            assert outcome.verdict == expected
