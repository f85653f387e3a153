"""Property-based tests on serving-layer dispatch invariants.

The bounded queue is modelled with plain data (integers as requests),
driven by hypothesis-generated traces:

* ``take_batch`` dispatches every request exactly once, FIFO within
  its batch-compatibility class, for any interleaving of arrivals and
  dispatch opportunities.
* A request is never both refused and dispatched.
* Shed counts match the queue-bound arithmetic of the offered trace.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ServiceOverloadError
from repro.serve.queue import BackpressurePolicy, BoundedRequestQueue

# One trace event: which compatibility class the next request belongs
# to (None = a dispatch opportunity instead of an arrival).
trace_events = st.lists(
    st.one_of(st.sampled_from(["a", "b", "c"]), st.none()),
    min_size=1,
    max_size=60,
)


@given(trace_events, st.integers(min_value=1, max_value=7))
@settings(max_examples=80, deadline=None)
def test_take_batch_fifo_and_exactly_once(events, batch_size):
    queue = BoundedRequestQueue(capacity=len(events))
    keys = {}
    offered = {"a": [], "b": [], "c": []}
    dispatched = {"a": [], "b": [], "c": []}

    def take():
        batch = queue.take_batch(batch_size, keys.__getitem__, timeout_s=0)
        assert len(batch) <= batch_size
        if batch:
            key = keys[batch[0]]
            assert all(keys[entry] == key for entry in batch)
            dispatched[key].extend(batch)
        return batch

    for event in events:
        if event is None:
            take()
        else:
            request = len(keys)
            keys[request] = event
            queue.put(request)
            offered[event].append(request)
    queue.close()
    while take():
        pass
    # Exactly-once, FIFO within class: the dispatch order per class is
    # literally the arrival order, with nothing lost or duplicated.
    assert dispatched == offered


# One queue op: True = put, False = get.
queue_ops = st.lists(st.booleans(), min_size=1, max_size=80)


@given(queue_ops, st.integers(min_value=1, max_value=5))
@settings(max_examples=80, deadline=None)
def test_shed_counts_match_queue_bound_arithmetic(ops, capacity):
    queue = BoundedRequestQueue(
        capacity=capacity, policy=BackpressurePolicy.SHED_OLDEST
    )
    expected_shed = 0
    depth = 0
    next_id = 0
    admitted = []
    shed_entries = []
    popped = []
    for is_put in ops:
        if is_put:
            if depth == capacity:
                expected_shed += 1
            else:
                depth += 1
            shed = queue.put(next_id)
            admitted.append(next_id)
            if shed is not None:
                shed_entries.append(shed)
            next_id += 1
        else:
            entry = queue.get(timeout_s=0)
            if entry is not None:
                popped.append(entry)
                depth -= 1
    assert queue.n_shed == expected_shed == len(shed_entries)
    assert queue.depth == depth
    # Every admitted entry lands in exactly one bucket: shed, popped,
    # or still queued — no loss, no duplication.
    remaining = queue.drain()
    accounted = sorted(shed_entries + popped + remaining)
    assert accounted == admitted


@given(queue_ops, st.integers(min_value=1, max_value=5))
@settings(max_examples=80, deadline=None)
def test_rejected_entries_never_served(ops, capacity):
    queue = BoundedRequestQueue(
        capacity=capacity, policy=BackpressurePolicy.REJECT
    )
    rejected = []
    admitted = []
    popped = []
    next_id = 0
    for is_put in ops:
        if is_put:
            try:
                queue.put(next_id)
                admitted.append(next_id)
            except ServiceOverloadError:
                rejected.append(next_id)
            next_id += 1
        else:
            entry = queue.get(timeout_s=0)
            if entry is not None:
                popped.append(entry)
    remaining = queue.drain()
    # No entry is both rejected and (eventually) served.
    assert not set(rejected) & set(popped + remaining)
    assert sorted(popped + remaining) == admitted
    assert queue.n_rejected == len(rejected)
