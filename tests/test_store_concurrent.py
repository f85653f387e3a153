"""One-trainer-many-loaders: processes racing on an empty store.

The acceptance property for the artifact store's locking protocol: N
worker processes cold-starting against the same empty store perform
exactly one training run between them, and every process ends up with
bitwise-identical weights.
"""

import hashlib
import io
import multiprocessing

import pytest

#: Tiny training recipe: slow enough that the losers of the lock race
#: are still waiting when the winner publishes, cheap enough for CI.
RECIPE = dict(n_speakers=2, n_per_phoneme=2, epochs=2)
SEED = 20260806


def _race_worker(store_dir, barrier, queue):
    """Load-or-train against the shared store; report (created, digest).

    A spawned child starts with a zero training counter, so ``created``
    says whether this process trained.
    """
    from repro.core.segmentation import (
        load_or_train_segmenter,
        training_run_count,
    )

    barrier.wait(timeout=60)
    model = load_or_train_segmenter(store_dir, seed=SEED, **RECIPE)
    buffer = io.BytesIO()
    model.save(buffer)
    digest = hashlib.sha256(buffer.getvalue()).hexdigest()
    queue.put((training_run_count() == 1, digest))


def _spawn_context():
    # Spawned (not forked) children: nothing — no memo, no counters —
    # leaks from the parent, so the store is the only shared state.
    try:
        return multiprocessing.get_context("spawn")
    except ValueError:  # pragma: no cover - spawn always exists on CI
        pytest.skip("spawn start method unavailable")


@pytest.mark.slow
def test_concurrent_cold_start_trains_exactly_once(tmp_path):
    context = _spawn_context()
    n_workers = 3
    barrier = context.Barrier(n_workers)
    queue = context.Queue()
    store_dir = str(tmp_path / "store")
    workers = [
        context.Process(
            target=_race_worker, args=(store_dir, barrier, queue)
        )
        for _ in range(n_workers)
    ]
    for worker in workers:
        worker.start()
    try:
        results = [queue.get(timeout=300) for _ in range(n_workers)]
    finally:
        for worker in workers:
            worker.join(timeout=60)
            if worker.is_alive():  # pragma: no cover - hung worker
                worker.terminate()

    created_flags = [created for created, _ in results]
    digests = {digest for _, digest in results}
    assert sum(created_flags) == 1, (
        f"exactly one process must train, got {created_flags}"
    )
    assert len(digests) == 1, "all processes must hold identical weights"


@pytest.mark.slow
def test_second_wave_of_processes_only_loads(tmp_path):
    """Processes started after publication never train."""
    from repro.core.segmentation import load_or_train_segmenter

    store_dir = str(tmp_path / "store")
    load_or_train_segmenter(store_dir, seed=SEED, **RECIPE)

    context = _spawn_context()
    barrier = context.Barrier(2)
    queue = context.Queue()
    workers = [
        context.Process(
            target=_race_worker, args=(store_dir, barrier, queue)
        )
        for _ in range(2)
    ]
    for worker in workers:
        worker.start()
    try:
        results = [queue.get(timeout=300) for _ in range(2)]
    finally:
        for worker in workers:
            worker.join(timeout=60)
            if worker.is_alive():  # pragma: no cover - hung worker
                worker.terminate()
    assert [created for created, _ in results] == [False, False]
