"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.sim import Interrupt, Simulator
from repro.sim.kernel import SimulationError


def test_schedule_runs_callbacks_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(5.0, order.append, "b")
    sim.schedule(1.0, order.append, "a")
    sim.schedule(9.0, order.append, "c")
    sim.run()
    assert order == ["a", "b", "c"]
    assert sim.now == 9.0


def test_same_time_events_run_in_scheduling_order():
    sim = Simulator()
    order = []
    for tag in ("first", "second", "third"):
        sim.schedule(2.0, order.append, tag)
    sim.run()
    assert order == ["first", "second", "third"]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None)


def test_run_until_stops_clock_at_until():
    sim = Simulator()
    hits = []
    sim.schedule(3.0, hits.append, 1)
    sim.schedule(30.0, hits.append, 2)
    sim.run(until=10.0)
    assert hits == [1]
    assert sim.now == 10.0
    # the late event still fires on a later run
    sim.run()
    assert hits == [1, 2]


def test_run_until_advances_clock_even_with_empty_queue():
    sim = Simulator()
    sim.run(until=42.0)
    assert sim.now == 42.0


def test_process_sleep_advances_time():
    sim = Simulator()

    def proc():
        yield 2.5
        yield 2.5
        return sim.now

    result = sim.run_process(proc())
    assert result == 5.0


def test_process_yield_zero_is_allowed():
    sim = Simulator()

    def proc():
        yield 0
        return "done"

    assert sim.run_process(proc()) == "done"


def test_process_negative_sleep_fails():
    sim = Simulator()

    def proc():
        yield -1.0

    with pytest.raises(SimulationError):
        sim.run_process(proc())


def test_signal_wakes_waiter_with_value():
    sim = Simulator()
    ready = sim.signal("ready")

    def producer():
        yield 4.0
        ready.fire("payload")

    def consumer():
        value = yield ready
        return (sim.now, value)

    sim.spawn(producer())
    consumer_proc = sim.spawn(consumer())
    sim.run()
    assert consumer_proc.result == (4.0, "payload")


def test_signal_already_fired_resumes_immediately():
    sim = Simulator()
    ready = sim.signal()
    ready.fire(7)

    def consumer():
        value = yield ready
        return value

    assert sim.run_process(consumer()) == 7


def test_signal_fire_twice_raises():
    sim = Simulator()
    sig = sim.signal()
    sig.fire()
    with pytest.raises(SimulationError):
        sig.fire()


def test_join_process_returns_after_child_finishes():
    sim = Simulator()

    def child():
        yield 3.0
        return "child-result"

    def parent():
        proc = sim.spawn(child())
        yield proc
        return (sim.now, proc.result)

    assert sim.run_process(parent()) == (3.0, "child-result")


def test_interrupt_raises_inside_waiting_process():
    sim = Simulator()
    caught = []

    def sleeper():
        try:
            yield 100.0
        except Interrupt as intr:
            caught.append(intr.cause)
        return "recovered"

    proc = sim.spawn(sleeper())
    sim.schedule(1.0, proc.interrupt, "vm-crashed")
    sim.run()
    assert caught == ["vm-crashed"]
    assert proc.result == "recovered"
    assert sim.now == pytest.approx(1.0)


def test_interrupt_dead_process_is_noop():
    sim = Simulator()

    def quick():
        yield 0.1

    proc = sim.spawn(quick())
    sim.run()
    proc.interrupt("too late")  # must not raise
    sim.run()
    assert not proc.alive


def test_unhandled_interrupt_kills_process_nonstrict():
    sim = Simulator(strict=False)

    def sleeper():
        yield 100.0

    proc = sim.spawn(sleeper())
    sim.schedule(1.0, proc.interrupt)
    sim.run()
    assert not proc.alive
    assert isinstance(proc.error, Interrupt)
    assert sim.failures


def test_strict_mode_raises_on_process_failure():
    sim = Simulator(strict=True)

    def bad():
        yield 1.0
        raise ValueError("boom")

    sim.spawn(bad())
    with pytest.raises(SimulationError):
        sim.run()


def test_yielding_garbage_fails_the_process():
    sim = Simulator(strict=False)

    def bad():
        yield "not a valid yield"

    proc = sim.spawn(bad())
    sim.run()
    assert isinstance(proc.error, SimulationError)


def test_all_of_fires_after_last_signal():
    sim = Simulator()
    sigs = [sim.signal(f"s{i}") for i in range(3)]
    combined = sim.all_of(sigs)
    for delay, sig in zip((5.0, 1.0, 3.0), sigs):
        sim.schedule(delay, sig.fire, delay)
    sim.run()
    assert combined.fired
    assert combined.value == [5.0, 1.0, 3.0]
    assert sim.now == 5.0


def test_all_of_empty_fires_immediately():
    sim = Simulator()
    combined = sim.all_of([])
    sim.run()
    assert combined.fired
    assert combined.value == []


def test_nested_processes_interleave_deterministically():
    sim = Simulator()
    trace = []

    def worker(tag, period, n):
        for _ in range(n):
            yield period
            trace.append((sim.now, tag))

    sim.spawn(worker("a", 2.0, 3))
    sim.spawn(worker("b", 3.0, 2))
    sim.run()
    # at t=6.0 worker b's timer was scheduled (at t=3) before worker a's
    # (at t=4), so FIFO tie-breaking runs b first
    assert trace == [(2.0, "a"), (3.0, "b"), (4.0, "a"), (6.0, "b"), (6.0, "a")]


def test_cancelled_event_does_not_fire_or_advance_clock():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "keep")
    handle = sim.schedule(1e9, fired.append, "far-future")
    handle.cancel()
    handle.cancel()          # idempotent
    sim.run()
    assert fired == ["keep"]
    assert sim.now == 1.0


def test_calendar_compacts_when_cancellations_pile_up():
    """Regression: a cancel-heavy soak must not grow the calendar without
    bound — once enough lazily-cancelled entries linger, they are swept."""
    sim = Simulator()
    keeper = []
    sim.schedule(2e9, keeper.append, "anchor")
    handles = [sim.schedule(1e9 + i, lambda: None)
               for i in range(Simulator.COMPACT_THRESHOLD + 10)]
    before = sim.calendar_size
    for handle in handles:
        handle.cancel()
    # the sweep ran inside cancel(), long before the run loop reaches them
    assert sim.calendar_size < before / 2
    assert sim.calendar_size <= 10 + 1       # survivors + the anchor
    sim.run()
    assert keeper == ["anchor"]
    assert sim.now == 2e9


def test_compaction_preserves_event_order():
    sim = Simulator()
    order = []
    kept = []
    for i in range(Simulator.COMPACT_THRESHOLD * 2):
        handle = sim.schedule(10.0 + i, order.append, i)
        if i % 4 == 0:
            kept.append(i)
        else:
            handle.cancel()
    sim.run()
    assert order == kept


def test_run_loop_pop_keeps_cancelled_count_consistent():
    """Cancelled entries popped by the run loop must not be double-counted
    toward the compaction trigger."""
    sim = Simulator()
    fired = []
    # a few cancelled entries at the front get popped by the run loop...
    early = [sim.schedule(1.0, fired.append, "early") for _ in range(5)]
    for handle in early:
        handle.cancel()
    sim.schedule(2.0, fired.append, "ok")
    sim.run()
    assert fired == ["ok"]
    assert sim._cancelled == 0
    assert sim.calendar_size == 0


def test_next_id_counts_per_kind_per_simulator():
    sim, other = Simulator(), Simulator()
    assert [sim.next_id("job") for _ in range(3)] == [0, 1, 2]
    assert sim.next_id("session") == 0
    assert other.next_id("job") == 0
