"""Property-based tests on serving-layer dispatch invariants.

The bounded queue is modelled with plain data (integers as requests),
driven by hypothesis-generated traces:

* ``take_batch`` dispatches every request exactly once, in arrival
  order, for any interleaving of arrivals and dispatch opportunities.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.queue import BoundedRequestQueue

# One trace event: an arrival (True) or a dispatch opportunity (False).
trace_events = st.lists(st.booleans(), min_size=1, max_size=60)


@given(trace_events, st.integers(min_value=1, max_value=7))
@settings(max_examples=80, deadline=None)
def test_take_batch_fifo_and_exactly_once(events, batch_size):
    queue = BoundedRequestQueue(capacity=len(events))
    offered = []
    dispatched = []

    def take():
        batch = queue.take_batch(batch_size, timeout_s=0)
        assert len(batch) <= batch_size
        dispatched.extend(batch)
        return batch

    for arrival in events:
        if arrival:
            request = len(offered)
            queue.put(request)
            offered.append(request)
        else:
            take()
    queue.close()
    while take():
        pass
    # Exactly-once, global FIFO: the dispatch order is literally the
    # arrival order, with nothing lost or duplicated.
    assert dispatched == offered
