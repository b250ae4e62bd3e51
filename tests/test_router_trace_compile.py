"""``compile_trace``'s per-frame arrays against their plain per-slot definitions.

The compiler makes one Python pass over the slots, collecting each step's
columns, and derives ``sizes`` and the lifecycle arrays (``first_slot``,
``last_slot``, ``admission_slot``) with numpy afterwards.  This suite states
each array the slow way — a walk over every packet — and requires equality
on generated traces, on same-frame packets sharing a slot, on a registered
frame with no packets and on the empty trace.
"""

import random

import numpy as np
import pytest

from repro.engine.streaming import compile_trace
from repro.exceptions import OspError
from repro.network.packet import Frame
from repro.network.traffic import (
    AdversarialBurstGenerator,
    PoissonBurstGenerator,
    Trace,
    VideoTraceGenerator,
)


def _frame(frame_id, num_packets):
    return Frame(frame_id, flow_id="hand", size_bytes=1500 * num_packets)


def _hand_trace():
    trace = Trace(link_capacity=2)
    trace.add_frame(_frame("b", 3), [4, 4, 9])  # two packets in one slot
    trace.add_frame(_frame("a", 2), [1, 4])
    trace.add_frame(_frame("d", 1), [0])
    trace.frames["c"] = _frame("c", 1)  # registered, never sent
    trace.slots.extend([[], []])
    return trace


TRACES = [
    PoissonBurstGenerator().generate(200, random.Random(1)),
    VideoTraceGenerator(num_flows=3, link_capacity=2).generate(6, random.Random(2)),
    AdversarialBurstGenerator(burst_size=3, packets_per_frame=2, gap_slots=2).generate(
        num_waves=4
    ),
    _hand_trace(),
    Trace(),
]


def _plain_lifecycle(trace, set_index):
    m = len(set_index)
    sizes = np.zeros(m, dtype=np.int64)
    first = np.full(m, -1, dtype=np.int64)
    last = np.full(m, -1, dtype=np.int64)
    for slot, packets in enumerate(trace.slots):
        for column in {set_index[packet.frame_id] for packet in packets}:
            sizes[column] += 1
            if first[column] < 0:
                first[column] = slot
            last[column] = slot
    admission = np.empty(m, dtype=np.int64)
    bound = np.iinfo(np.int64).max
    for column in range(m - 1, -1, -1):
        if first[column] >= 0:
            bound = min(bound, int(first[column]))
        admission[column] = bound
    return sizes, first, last, admission


@pytest.mark.parametrize("index", range(len(TRACES)))
def test_lifecycle_arrays_match_the_per_packet_walk(index):
    trace = TRACES[index]
    compiled = compile_trace(trace)
    sizes, first, last, admission = _plain_lifecycle(trace, compiled.set_index)
    for name, got, expected in (
        ("sizes", compiled.sizes, sizes),
        ("first_slot", compiled.first_slot, first),
        ("last_slot", compiled.last_slot, last),
        ("admission_slot", compiled.admission_slot, admission),
    ):
        assert got.dtype == np.int64, name
        assert got.tolist() == expected.tolist(), name
    busy = [slot for slot, packets in enumerate(trace.slots) if packets]
    assert compiled.step_slots.tolist() == busy


def test_a_packet_of_an_unregistered_frame_is_refused():
    trace = _hand_trace()
    trace.add_packet(7, _frame("ghost", 1).packets[0])
    message = "slot 7 carries a packet of unregistered frame 'ghost'"
    with pytest.raises(OspError, match=message):
        compile_trace(trace)
