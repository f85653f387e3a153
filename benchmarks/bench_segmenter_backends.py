"""Segmenter quality and cold start: the paper's BLSTM frame classifier.

Measures the trained segmenter on the axes that matter at deployment:
frame accuracy against the alignment labels, temporal IoU of the
detected segments against the oracle segments, and
time-to-first-verdict (segmenter training + one full pipeline
analysis, i.e. what a cold, store-less serving worker pays before it
can answer).
"""

from __future__ import annotations

import time

import numpy as np

from benchmarks.conftest import emit, run_once
from repro.attacks.scenario import AttackScenario
from repro.core.pipeline import DefensePipeline
from repro.core.segmentation import (
    PhonemeSegmenter,
    train_default_segmenter,
)
from repro.eval.reporting import format_table
from repro.eval.rooms import ROOM_A
from repro.phonemes.commands import VA_COMMANDS, phonemize
from repro.phonemes.corpus import SyntheticCorpus

N_UTTERANCES = 6
#: A reduced training recipe (the default is 8 speakers x 12 segments
#: per phoneme x 12 epochs): training still dominates the BLSTM's cold
#: time-to-first-verdict, but the cold row takes seconds, not minutes.
BLSTM_RECIPE = dict(n_speakers=4, n_per_phoneme=8, epochs=12)


def _segment_iou(predicted, reference, duration_s):
    """Temporal IoU of two segment lists, rasterized at 1 ms."""
    grid = np.zeros(max(int(round(duration_s * 1000)), 1), dtype=np.uint8)
    masks = []
    for segments in (predicted, reference):
        mask = grid.copy()
        for start, end in segments:
            begin = max(int(round(start * 1000)), 0)
            stop = min(int(round(end * 1000)), mask.size)
            mask[begin:stop] = 1
        masks.append(mask.astype(bool))
    union = float((masks[0] | masks[1]).sum())
    if union == 0:
        return 1.0
    return float((masks[0] & masks[1]).sum()) / union


def _quality(segmenter, corpus):
    """Mean frame accuracy and oracle-segment IoU."""
    oracle = PhonemeSegmenter(rng=0)  # untrained: labels/oracle only
    threshold = segmenter.config.decision_threshold
    accuracy = []
    iou = []
    for index in range(N_UTTERANCES):
        command = VA_COMMANDS[index % len(VA_COMMANDS)]
        utterance = corpus.utterance(
            phonemize(command), rng=700 + index
        )
        wave = utterance.waveform
        duration = wave.size / utterance.sample_rate
        labels = oracle.frame_labels(utterance).astype(bool)
        reference = oracle.oracle_segments(utterance)
        predicted = segmenter.frame_probabilities(wave) >= threshold
        accuracy.append(float((predicted == labels).mean()))
        iou.append(
            _segment_iou(segmenter.segments(wave), reference, duration)
        )
    return float(np.mean(accuracy)), float(np.mean(iou))


def _time_to_first_verdict(corpus):
    """Cold segmenter training + one pipeline analysis."""
    scenario = AttackScenario(room_config=ROOM_A)
    utterance = corpus.utterance(
        phonemize(VA_COMMANDS[0]), rng=800
    )
    va, wearable = scenario.legitimate_recordings(
        utterance, spl_db=70.0, rng=801
    )

    # Fresh training (not the memoized default_segmenter): this is the
    # cold path a store-less worker pays.
    start = time.perf_counter()
    pipeline = DefensePipeline(
        segmenter=train_default_segmenter(seed=1234, **BLSTM_RECIPE)
    )
    pipeline.analyze(va, wearable, rng=802)
    return time.perf_counter() - start


def _measure(segmenter):
    corpus = SyntheticCorpus(n_speakers=4, seed=9700)
    accuracy, iou = _quality(segmenter, corpus)
    return {
        "accuracy": accuracy,
        "iou": iou,
        "ttfv_s": _time_to_first_verdict(corpus),
    }


def test_segmenter_backends(benchmark, trained_segmenter):
    results = run_once(benchmark, lambda: _measure(trained_segmenter))
    recipe = "x".join(str(v) for v in BLSTM_RECIPE.values())
    rows = [
        (
            f"BLSTM (trained, {recipe})",
            f"{results['accuracy']:.3f}",
            f"{results['iou']:.3f}",
            f"{results['ttfv_s']:.2f}",
        )
    ]
    emit(
        "segmenter_backends",
        format_table(
            ["segmenter", "frame acc", "segment IoU",
             "first verdict s"],
            rows,
            title=(
                "Segmenter — frame accuracy / oracle-segment "
                f"IoU over {N_UTTERANCES} utterances, cold "
                "time-to-first-verdict"
            ),
        ),
    )
    # The trained segmenter must be usable (well above chance), and a
    # cold worker must still answer within seconds.
    assert results["accuracy"] >= 0.6
    assert results["iou"] >= 0.3
    assert results["ttfv_s"] < 30.0
