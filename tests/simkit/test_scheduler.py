"""Ordering, tie-break and replay properties of the event scheduler.

The scheduler must pop events in *exactly* ``(time, sequence)`` order.  The
property test drives it with seeded schedule/cancel/pop streams — dense
microsecond bursts, sparse horizons and a mix of both, with heavy
cancellation — and checks every pop against a brute-force model of the
live event set.
"""

import random

import pytest

from repro.simkit.scheduler import EventScheduler
from repro.simkit.simulator import Simulator


def _drive(scheduler, seed: int, operations: int, profile: str):
    """Run one seeded workload, checking each pop against the live-set model.

    Returns the popped transcript ``[(time, sequence, label), ...]``.
    """
    rng = random.Random(seed)
    now = 0.0
    live = {}
    popped = []
    scheduled = 0
    while scheduled < operations or live:
        roll = rng.random()
        if scheduled < operations and (roll < 0.55 or not live):
            if profile == "dense":
                delay = rng.expovariate(1.0 / 0.001)
            elif profile == "sparse":
                delay = rng.uniform(0.0, 10_000.0)
            else:  # mixed: MAC bursts plus occasional far timers
                delay = (
                    rng.expovariate(1.0 / 0.001)
                    if rng.random() < 0.9
                    else rng.uniform(1.0, 100.0)
                )
            event = scheduler.schedule(now + delay, lambda: None, f"e{scheduled}")
            live[event.sequence] = event
            scheduled += 1
        elif roll < 0.70 and live:
            # Cancel the event whose sequence hashes lowest — a seeded but
            # arbitrary victim.
            victim = min(live, key=lambda s: (s * 2654435761) % 1_000_003)
            scheduler.cancel(live.pop(victim))
        else:
            expected = min(live.values(), key=lambda e: (e.time, e.sequence))
            event = scheduler.pop_next()
            assert event is expected
            now = event.time
            del live[event.sequence]
            popped.append((event.time, event.sequence, event.label))
        assert len(scheduler) == len(live)
    assert scheduler.pop_next() is None
    return popped


@pytest.mark.parametrize("profile", ["dense", "sparse", "mixed"])
@pytest.mark.parametrize("seed", [1, 42, 20260808])
def test_pops_in_exact_time_sequence_order(profile, seed):
    popped = _drive(EventScheduler(), seed, 3000, profile)
    assert popped == sorted(popped)
    # Same seeded workload, fresh scheduler: an identical transcript.
    assert _drive(EventScheduler(), seed, 3000, profile) == popped


def test_identical_times_pop_in_insertion_order():
    scheduler = EventScheduler()
    events = [scheduler.schedule(5.0, lambda: None, f"e{i}") for i in range(50)]
    scheduler.cancel(events[7])
    order = []
    while True:
        event = scheduler.pop_next()
        if event is None:
            break
        order.append(event.sequence)
    assert order == [i for i in range(50) if i != 7]


def test_schedule_earlier_than_peeked_event_pops_first():
    scheduler = EventScheduler()
    scheduler.schedule(1000.0, lambda: None, "far")
    assert scheduler.peek_time() == 1000.0
    near = scheduler.schedule(1.0, lambda: None, "near")
    assert scheduler.peek_time() == 1.0
    assert scheduler.pop_next() is near


def test_len_counts_only_live_events():
    scheduler = EventScheduler()
    kept = scheduler.schedule(2.0, lambda: None)
    dropped = scheduler.schedule(1.0, lambda: None)
    assert len(scheduler) == 2
    scheduler.cancel(dropped)
    scheduler.cancel(dropped)  # double-cancel is a no-op
    assert len(scheduler) == 1
    assert scheduler.pop_next() is kept
    assert len(scheduler) == 0
    assert scheduler.peek_time() is None


def test_all_cancelled_leaves_empty_scheduler():
    scheduler = EventScheduler()
    events = [scheduler.schedule(float(i), lambda: None) for i in range(64)]
    for event in events:
        scheduler.cancel(event)
    assert len(scheduler) == 0
    assert scheduler.peek_time() is None
    assert scheduler.pop_next() is None


class TestClearResetsSequence:
    """clear() regression: a cleared scheduler replays like a fresh one."""

    def test_clear_restarts_sequence_numbering(self):
        def transcript(scheduler):
            for i in range(20):
                scheduler.schedule(float(i % 4), lambda: None, f"e{i}")
            out = []
            while True:
                event = scheduler.pop_next()
                if event is None:
                    return out
                out.append((event.time, event.sequence, event.label))

        scheduler = EventScheduler()
        first = transcript(scheduler)
        scheduler.schedule(9.0, lambda: None, "stale")
        scheduler.clear()
        assert len(scheduler) == 0
        replay = transcript(scheduler)
        assert replay == first == transcript(EventScheduler())

    def test_simulator_reset_replays_identical_event_order(self):
        """Through the executive: reset() + same workload == same order."""

        def run(simulator):
            fired = []
            for i in range(10):
                simulator.schedule_at(0.5, lambda i=i: fired.append(i), f"t{i}")
            simulator.run()
            return fired

        simulator = Simulator()
        first = run(simulator)
        simulator.reset()
        assert run(simulator) == first == list(range(10))
