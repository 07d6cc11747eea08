"""Event-calendar simulator with generator-based processes.

The design follows the classic SimPy shape but is trimmed to what the EVOp
substrate needs:

* ``Simulator.schedule(delay, fn, *args)`` — plain callback events.
* ``Simulator.spawn(gen)`` — a *process*: a generator that yields either a
  non-negative number (sleep that many simulated seconds), a
  :class:`Signal` (block until fired), or another :class:`Process` (join).
* ``Signal`` — a one-shot level-triggered event carrying a value.
* ``Signal.then(fn)`` — a *continuation*: run ``fn(value)`` as a zero-delay
  event once the signal fires.

Coroutines are for flows (several waits, loops, interrupts); continuations
are for reactions (one wait, then done).  A continuation costs one calendar
event and no generator, where a one-yield process costs two events, a
generator frame and a ``Process``.

Time is a float in seconds; the unit is a convention shared by all
subsystems.  Determinism is guaranteed by a monotonically increasing
sequence number used to break ties between events scheduled for the same
instant.

Every simulator-bound id (a session, a job, a trace, ...) is minted by
``Simulator.next_id(kind)``, so a run's ids depend on its own history
alone and two builds from one seed name everything alike, in one process
or in two.
"""

from __future__ import annotations

import heapq
import itertools
from collections import defaultdict
from typing import (Any, Callable, Generator, Iterable, List, Optional,
                    Tuple, Union)


class SimulationError(RuntimeError):
    """Raised for misuse of the kernel (bad yields, time travel, ...)."""


class Interrupt(Exception):
    """Thrown into a process that is interrupted while waiting.

    The interrupting party may attach a ``cause`` describing why (e.g. the
    instance a session was pinned to has crashed).
    """

    def __init__(self, cause: Any = None):
        super().__init__(f"interrupted: {cause!r}")
        self.cause = cause


class EventHandle:
    """Handle to a scheduled event, allowing cancellation.

    Cancellation is lazy: the entry stays in the calendar but is skipped by
    the run loop *without advancing the clock*, so cancelling a far-future
    timer never stretches the simulated horizon.  When cancelled entries
    pile up (long soaks cancel timers constantly) the owning simulator
    compacts the calendar rather than letting it grow without bound.
    """

    __slots__ = ("when", "fn", "args", "cancelled", "_sim")

    def __init__(self, when: float, fn: Callable, args: tuple,
                 sim: Optional["Simulator"] = None):
        self.when = when
        self.fn = fn
        self.args = args
        self.cancelled = False
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the event from firing; idempotent."""
        if not self.cancelled:
            self.cancelled = True
            if self._sim is not None:
                self._sim._note_cancelled()


class Signal:
    """A one-shot event processes can wait on.

    Firing a signal wakes every process currently waiting on it and makes
    the signal *set*: any later waiter resumes immediately with the same
    value.  This level-triggered behaviour avoids lost-wakeup races between
    subsystems that are composed loosely (e.g. a session waiting for an
    instance that already booted).

    Waiters are processes (``yield signal``) and continuations
    (:meth:`then`), mixed; they are woken in registration order, each by
    its own zero-delay event.
    """

    __slots__ = ("_sim", "name", "_fired", "_value", "_waiters")

    def __init__(self, sim: "Simulator", name: str = ""):
        self._sim = sim
        self.name = name
        self._fired = False
        self._value: Any = None
        self._waiters: List[Union["Process", Callable[[Any], None]]] = []

    @property
    def fired(self) -> bool:
        """Whether the signal has been fired."""
        return self._fired

    @property
    def value(self) -> Any:
        """The value the signal was fired with (``None`` before firing)."""
        return self._value

    def fire(self, value: Any = None) -> None:
        """Fire the signal, waking all waiters with ``value``.

        Firing twice is an error: signals are one-shot by design so that a
        stale waiter can never observe two different values.
        """
        if self._fired:
            raise SimulationError(f"signal {self.name!r} fired twice")
        self._fired = True
        self._value = value
        waiters = self._waiters
        if waiters:
            self._waiters = []
            sim = self._sim
            for waiter in waiters:
                if type(waiter) is Process:
                    sim._resume(waiter, value)
                else:
                    sim.schedule(0.0, sim._react, waiter, value)

    def then(self, fn: Callable[[Any], None]) -> None:
        """Run ``fn(value)`` as a zero-delay event once the signal fires.

        On an already-fired signal the event is scheduled now.  The body
        runs where a process resumed by the same signal would run its
        own: after the firing event returns, in registration order with
        the signal's other waiters.  An exception in ``fn`` is recorded
        as a failure under ``fn``'s qualified name, exactly like a
        process that raised — a strict ``run`` re-raises it.
        """
        if self._fired:
            sim = self._sim
            sim.schedule(0.0, sim._react, fn, self._value)
        else:
            self._waiters.append(fn)

    def _add_waiter(self, proc: "Process") -> None:
        self._waiters.append(proc)

    def _discard_waiter(self, proc: "Process") -> None:
        if proc in self._waiters:
            self._waiters.remove(proc)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "fired" if self._fired else f"{len(self._waiters)} waiting"
        return f"<Signal {self.name!r} {state}>"


class Process:
    """A running generator inside the simulator.

    Created via :meth:`Simulator.spawn`.  A process is *alive* until its
    generator returns or raises; other processes may ``yield`` it to join,
    and may :meth:`interrupt` it.
    """

    __slots__ = ("_sim", "name", "_gen", "_alive", "_result", "_error",
                 "_done_signal", "_waiting_on", "_pending_timer")

    def __init__(self, sim: "Simulator", gen: Generator, name: str = ""):
        self._sim = sim
        self.name = name or getattr(gen, "__name__", "process")
        self._gen = gen
        self._alive = True
        self._result: Any = None
        self._error: Optional[BaseException] = None
        self._done_signal: Optional[Signal] = None
        self._waiting_on: Optional[Signal] = None
        self._pending_timer: Optional[EventHandle] = None

    @property
    def alive(self) -> bool:
        """Whether the process generator has not yet finished."""
        return self._alive

    @property
    def result(self) -> Any:
        """Return value of the generator (``None`` until it finishes)."""
        return self._result

    @property
    def error(self) -> Optional[BaseException]:
        """Exception that terminated the process, if any."""
        return self._error

    @property
    def done_signal(self) -> Signal:
        """Signal fired with the process result when it finishes.

        Created on first access — most processes are never joined — and
        handed back already fired when the process is dead by then.
        """
        done = self._done_signal
        if done is None:
            done = self._done_signal = Signal(self._sim, f"{self.name}.done")
            if not self._alive:
                done._fired = True
                done._value = self._result
        return done

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its current wait.

        Interrupting a dead process is a no-op — by the time a supervisor
        decides to cancel work, the work may have legitimately finished.
        """
        if not self._alive:
            return
        if self._waiting_on is not None:
            self._waiting_on._discard_waiter(self)
            self._waiting_on = None
        if self._pending_timer is not None:
            self._pending_timer.cancel()
            self._pending_timer = None
        self._sim._schedule_now(self._throw, Interrupt(cause))

    # -- internal stepping -------------------------------------------------

    def _throw(self, exc: BaseException) -> None:
        if not self._alive:
            return
        try:
            item = self._gen.throw(exc)
        except StopIteration as stop:
            self._finish(getattr(stop, "value", None))
        except Interrupt as unhandled:
            self._fail(unhandled)
        except BaseException as err:  # noqa: BLE001 - surfaced via .error
            self._fail(err)
        else:
            self._wait_on(item)

    def _step(self, sent_value: Any) -> None:
        if not self._alive:
            return
        self._pending_timer = None
        try:
            item = self._gen.send(sent_value)
        except StopIteration as stop:
            self._finish(getattr(stop, "value", None))
        except BaseException as err:  # noqa: BLE001 - surfaced via .error
            self._fail(err)
        else:
            self._wait_on(item)

    def _wait_on(self, item: Any) -> None:
        if isinstance(item, (int, float)):
            if item < 0:
                self._fail(SimulationError(f"negative sleep: {item}"))
                return
            self._pending_timer = self._sim.schedule(item, self._step, None)
        elif isinstance(item, Signal):
            if item.fired:
                self._sim._schedule_now(self._step, item.value)
            else:
                self._waiting_on = item
                item._add_waiter(self)
        elif isinstance(item, Process):
            self._wait_on(item.done_signal)
        else:
            self._fail(SimulationError(
                f"process {self.name!r} yielded unsupported {item!r}"))

    def _finish(self, result: Any) -> None:
        self._alive = False
        self._result = result
        if self._done_signal is not None:
            self._done_signal.fire(result)

    def _fail(self, err: BaseException) -> None:
        self._alive = False
        self._error = err
        self._sim._record_failure(self, err)
        if self._done_signal is not None:
            self._done_signal.fire(None)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "alive" if self._alive else "done"
        return f"<Process {self.name!r} {state}>"


class Continuation:
    """Names a failed :meth:`Signal.then` callback in ``Simulator.failures``.

    Built only when a continuation raises; the ones that return cost
    nothing beyond their calendar event.
    """

    __slots__ = ("name",)

    def __init__(self, fn: Callable):
        self.name = getattr(fn, "__qualname__", None) or repr(fn)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Continuation {self.name!r} failed>"


class Simulator:
    """Deterministic discrete-event simulator.

    Typical use::

        sim = Simulator()
        def worker():
            yield 5.0              # sleep 5 simulated seconds
            ready.fire("ok")
        ready = sim.signal("ready")
        sim.spawn(worker())
        sim.run()

    ``strict`` (the default) makes process failures raise at ``run`` time
    instead of being silently recorded, which is what tests want.
    """

    #: compact the calendar once this many cancelled entries linger *and*
    #: they make up at least half the queue — rare enough to amortise the
    #: O(n) rebuild, soon enough that cancel-heavy soaks stay bounded
    COMPACT_THRESHOLD = 256

    def __init__(self, strict: bool = True):
        self._now = 0.0
        self._seq = 0
        self._queue: list = []
        self._strict = strict
        self._failures: list = []
        self._cancelled = 0
        self._ids: defaultdict = defaultdict(itertools.count)

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def calendar_size(self) -> int:
        """Entries currently in the calendar, cancelled ones included."""
        return len(self._queue)

    @property
    def events_scheduled(self) -> int:
        """Events ever put on the calendar — the unit of kernel work."""
        return self._seq

    @property
    def failures(self) -> List[Tuple[Union[Process, Continuation],
                                     BaseException]]:
        """Processes and continuations that raised, with what they raised."""
        return list(self._failures)

    def next_id(self, kind: str) -> int:
        """The next id of ``kind`` in this simulation: 0, 1, 2, ..."""
        return next(self._ids[kind])

    # -- scheduling --------------------------------------------------------

    def schedule(self, delay: float, fn: Callable, *args: Any) -> EventHandle:
        """Run ``fn(*args)`` after ``delay`` simulated seconds.

        Returns an :class:`EventHandle` whose ``cancel()`` prevents the
        event from firing (and from advancing the clock).
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past: {delay}")
        seq = self._seq = self._seq + 1
        when = self._now + delay
        handle = EventHandle(when, fn, args, self)
        heapq.heappush(self._queue, (when, seq, handle))
        return handle

    def _note_cancelled(self) -> None:
        self._cancelled += 1
        if (self._cancelled >= self.COMPACT_THRESHOLD
                and self._cancelled * 2 >= len(self._queue)):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and restore the heap invariant."""
        # in place: ``run`` holds a reference to the list
        self._queue[:] = [entry for entry in self._queue
                          if not entry[2].cancelled]
        heapq.heapify(self._queue)
        self._cancelled = 0

    def _schedule_now(self, fn: Callable, *args: Any) -> EventHandle:
        return self.schedule(0.0, fn, *args)

    def spawn(self, gen: Generator, name: str = "") -> Process:
        """Start a generator as a process; it takes its first step at now."""
        proc = Process(self, gen, name=name)
        self._schedule_now(proc._step, None)
        return proc

    def signal(self, name: str = "") -> Signal:
        """Create a fresh :class:`Signal` bound to this simulator."""
        return Signal(self, name=name)

    def _resume(self, proc: Process, value: Any) -> None:
        proc._waiting_on = None
        self._schedule_now(proc._step, value)

    def _react(self, fn: Callable[[Any], None], value: Any) -> None:
        """The event body of a continuation."""
        try:
            fn(value)
        except BaseException as err:  # noqa: BLE001 - surfaced via .failures
            self._record_failure(Continuation(fn), err)

    def _record_failure(self, proc: Union[Process, Continuation],
                        err: BaseException) -> None:
        self._failures.append((proc, err))

    # -- running -----------------------------------------------------------

    def run(self, until: Optional[float] = None) -> float:
        """Process events until the queue drains or ``until`` is reached.

        Returns the simulated time at which the run stopped.  With
        ``until`` set, the clock is advanced exactly to ``until`` even if
        the last event fires earlier, so periodic measurements line up.
        """
        queue, pop = self._queue, heapq.heappop
        strict, failures = self._strict, self._failures
        while queue:
            when, _seq, handle = queue[0]
            if handle.cancelled:
                pop(queue)
                if self._cancelled > 0:
                    self._cancelled -= 1
                continue
            if until is not None and when > until:
                break
            pop(queue)
            self._now = when
            handle.fn(*handle.args)
            if strict and failures:
                proc, err = failures[0]
                raise SimulationError(
                    f"process {proc.name!r} failed at t={self._now:.3f}"
                ) from err
        if until is not None and self._now < until:
            self._now = until
        return self._now

    def run_process(self, gen: Generator, name: str = "") -> Any:
        """Spawn ``gen``, run the simulation, and return the process result.

        Convenience for tests and benches that model one top-level driver.
        """
        proc = self.spawn(gen, name=name)
        self.run()
        if proc.error is not None:
            raise SimulationError(f"process {proc.name!r} failed") from proc.error
        return proc.result

    def all_of(self, signals: Iterable[Signal]) -> Signal:
        """Return a signal that fires once every input signal has fired.

        The combined signal's value is the list of individual values in the
        order the inputs were given.
        """
        pending = list(signals)
        combined = self.signal("all")
        if not pending:
            self._schedule_now(combined.fire, [])
            return combined
        remaining = len(pending)

        def arrived(_value: Any) -> None:
            nonlocal remaining
            remaining -= 1
            if remaining == 0:
                combined.fire([s.value for s in pending])

        for sig in pending:
            sig.then(arrived)
        return combined
