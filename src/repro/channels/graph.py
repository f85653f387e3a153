"""Propagation channel: an ordered composition of channel stages.

:class:`PropagationChannel` folds a signal through a tuple of
:class:`~repro.channels.stages.ChannelStage` objects, threading the
sampling rate, the per-stage randomness streams, and the chain's
original input (for stages like the accelerometer that model artifacts
of the *drive* signal).

The randomness contract is the load-bearing part.  ``apply_batch``
coerces each item's seed into a generator once, then derives every
stage's stream **up front, in stage order** — ``None`` for deterministic
stages, the generator itself for
:data:`~repro.channels.stages.PASSTHROUGH` stages, ``child_rng(generator,
label)`` otherwise.  Because child derivation consumes exactly one
parent draw at derivation time, a caller that derives further children
*after* the channel returns (the sensor's body-motion stream) sees the
parent in a state that does not depend on the batch.

``apply_batch`` is the only implementation; ``apply`` runs it on a batch
of one.  Recordings of equal length form dense ``(batch, time)`` stacks
pushed through each stage's ``apply_batch``; grouping by *exact* length
(never padding) is what makes an item's output independent of its
batch-mates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.acoustics.spl import scale_to_spl
from repro.channels.stages import PASSTHROUGH, ChannelStage
from repro.errors import ConfigurationError
from repro.utils.rng import SeedLike, as_generator, child_rng
from repro.utils.validation import ensure_1d, ensure_positive


@dataclass(frozen=True)
class PropagationChannel:
    """An ordered, fingerprintable composition of channel stages."""

    stages: Tuple[ChannelStage, ...]
    name: str = "channel"

    def __post_init__(self) -> None:
        if not self.stages:
            raise ConfigurationError(
                f"channel {self.name!r} needs at least one stage"
            )
        for stage in self.stages:
            if not isinstance(stage, ChannelStage):
                raise ConfigurationError(
                    f"channel {self.name!r}: {stage!r} does not "
                    "implement the ChannelStage protocol"
                )

    def output_rate(self, rate: float) -> float:
        """Sampling rate of the channel output for input rate ``rate``."""
        ensure_positive(rate, "rate")
        for stage in self.stages:
            rate = stage.output_rate(rate)
        return rate

    def derive_streams(
        self, generator: np.random.Generator
    ) -> List[Optional[np.random.Generator]]:
        """Per-stage randomness streams, derived in stage order."""
        streams: List[Optional[np.random.Generator]] = []
        for stage in self.stages:
            label = getattr(stage, "rng_label", None)
            if label is None:
                streams.append(None)
            elif label == PASSTHROUGH:
                streams.append(generator)
            else:
                streams.append(child_rng(generator, label))
        return streams

    def apply(
        self,
        signal: np.ndarray,
        rate: float,
        rng: SeedLike = None,
    ) -> np.ndarray:
        """Fold one signal through every stage (:meth:`apply_batch` of one)."""
        return self.apply_batch([signal], rate, rngs=[rng])[0]

    def apply_batch(
        self,
        signals: Sequence[np.ndarray],
        rate: float,
        rngs: Optional[Sequence[SeedLike]] = None,
    ) -> List[np.ndarray]:
        """Fold a batch of signals through every stage in order.

        ``rngs[i]`` is item ``i``'s seed or generator.  Each item's
        stage streams are derived from it up front, in stage order, and
        items of equal length travel as one ``(batch, time)`` stack, so
        an item's output never depends on its batch-mates.
        """
        ensure_positive(rate, "rate")
        items = [ensure_1d(signal) for signal in signals]
        if rngs is None:
            rngs = [None] * len(items)
        if len(rngs) != len(items):
            raise ConfigurationError(
                f"need one rng per signal: got {len(rngs)} rngs for "
                f"{len(items)} signals"
            )
        # Derive every (item, stage) stream up front: item by item, stage
        # by stage within the item.
        per_item_streams = [
            self.derive_streams(as_generator(rng)) for rng in rngs
        ]

        buckets: Dict[int, List[int]] = {}
        for index, samples in enumerate(items):
            buckets.setdefault(samples.size, []).append(index)

        results: List[Optional[np.ndarray]] = [None] * len(items)
        for indices in buckets.values():
            stack = np.stack([items[index] for index in indices])
            current = stack
            current_rate = float(rate)
            for position, stage in enumerate(self.stages):
                current = stage.apply_batch(
                    current,
                    current_rate,
                    rngs=[
                        per_item_streams[index][position]
                        for index in indices
                    ],
                    chain_inputs=stack,
                )
                current_rate = stage.output_rate(current_rate)
            for row, index in enumerate(indices):
                results[index] = current[row]
        output = [result for result in results if result is not None]
        if len(output) != len(items):  # pragma: no cover - invariant
            raise RuntimeError("apply_batch dropped an item")
        return output


@dataclass(frozen=True)
class InjectionChannel:
    """An attack-side channel: SPL calibration + a propagation graph.

    Exposes the same ``transmit(waveform, sample_rate, spl_db, rng)``
    interface as the classic ``ThruBarrierChannel``, so scenario packs
    can swap in arbitrary injection graphs (ultrasonic solid-conduction
    paths, multi-barrier chains) without touching ``AttackScenario``.
    """

    channel: PropagationChannel

    def transmit(
        self,
        waveform: np.ndarray,
        sample_rate: float,
        spl_db: float,
        rng: SeedLike = None,
    ) -> np.ndarray:
        """Sound field just inside the room for playback at ``spl_db``."""
        calibrated = scale_to_spl(waveform, spl_db)
        return self.channel.apply(calibrated, sample_rate, rng=rng)
