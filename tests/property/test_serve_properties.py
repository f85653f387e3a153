"""Property-based tests on serving-layer dispatch invariants.

The bounded queue is modelled with plain data (integers as requests),
driven by hypothesis-generated traces:

* ``take_batch`` dispatches every request exactly once, FIFO within
  its batch-compatibility class, for any interleaving of arrivals and
  dispatch opportunities.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.queue import BoundedRequestQueue

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
