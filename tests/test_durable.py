"""Durable execution: journal mechanics, replay, checkpointed sweeps."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud import BlobStore, StorageUnavailable
from repro.dataplane import ClaimTable
from repro.dataplane.consumers import CLAIM_TTL
from repro.durable import (
    DurableSweep,
    Fenced,
    JournalRecord,
    JournalStore,
    LeaseError,
    replay,
)
from repro.durable import journal as j
from repro.durable.state import begin, fail, finish
from repro.obs.hub import obs_of
from repro.perf.runcache import RunCache
from repro.perf.runner import EnsembleRunner
from repro.sim import Simulator


def live_owner(lease, now):
    """Who holds ``lease`` (a journal's or a stream claim's) at ``now``."""
    return lease.owner if lease is not None and lease.held_at(now) else None


@pytest.fixture()
def sim():
    return Simulator()


@pytest.fixture()
def blobstore(sim):
    return BlobStore(sim, name="durability")


@pytest.fixture()
def store(sim, blobstore):
    return JournalStore(sim, blobstore)


# -- record format ----------------------------------------------------------


def test_record_round_trips_with_crc():
    record = JournalRecord(seq=3, time=12.5, run_id="r-1",
                           kind=j.CHECKPOINT, payload={"node_id": "a"})
    text = record.to_text()
    assert JournalRecord.parse(text) == record


def test_corrupt_and_torn_records_fail_parse():
    record = JournalRecord(seq=0, time=0.0, run_id="r", kind=j.DONE,
                           payload={})
    text = record.to_text()
    assert JournalRecord.parse(text[: len(text) * 2 // 3]) is None
    assert JournalRecord.parse(text.replace('"seq":0', '"seq":9')) is None
    assert JournalRecord.parse(None) is None
    assert JournalRecord.parse("not a record") is None


json_scalars = st.one_of(st.none(), st.booleans(), st.integers(),
                         st.floats(allow_nan=False), st.text())


@settings(max_examples=100, deadline=None)
@given(st.recursive(json_scalars,
                    lambda inner: st.lists(inner, max_size=4)
                    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
                    max_leaves=12))
def test_jsonable_answers_as_the_round_trip_does(value):
    ok, clean = j.jsonable(value)
    trip = json.loads(json.dumps(value))
    assert ok and clean == trip and type(clean) is type(trip)
    assert json.dumps(clean) == json.dumps(value)      # record bytes


def test_jsonable_edges():
    for value in (math.nan, math.inf, -math.inf):        # survive, as ever
        ok, clean = j.jsonable(value)
        assert ok and json.dumps(clean) == json.dumps(value)
    assert j.jsonable((1, 2)) == (True, [1, 2])
    assert j.jsonable({1: "int key"}) == (True, {"1": "int key"})
    assert j.jsonable(object()) == (False, None)
    assert j.jsonable({"nested": {1, 2}}) == (False, None)

    class Celsius(float):
        """A scalar subclass is not handed back as itself."""
    ok, clean = j.jsonable(Celsius(3.5))
    assert ok and type(clean) is float and clean == 3.5


#: flat payload values: every JSON scalar edge, lone surrogates included
flat_values = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-10**300, 10**300),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]),
    st.floats(),
    st.text(st.one_of(st.characters(), st.characters(categories=["Cs"]))))


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(
    st.text(st.one_of(st.characters(), st.characters(categories=["Cs"]))),
    flat_values, max_size=8))
def test_jsonable_flat_dict_equals_the_round_trip(payload):
    """A flat payload skips the encoder; what it hands back is what the
    round trip would have, ``repr`` for ``repr`` (NaN, ``-0.0``, key
    order), and a copy."""
    ok, clean = j.jsonable(payload)
    trip = json.loads(json.JSONEncoder().encode(payload))
    assert ok and repr(clean) == repr(trip)
    assert type(clean) is dict and clean is not payload


@pytest.fixture()
def encodes(monkeypatch):
    """How many JSON encodes run from here on."""
    count = [0]
    encode = json.JSONEncoder.encode

    def counting(self, value):
        count[0] += 1
        return encode(self, value)

    monkeypatch.setattr(json.JSONEncoder, "encode", counting)
    return count


def test_jsonable_encodes_a_flat_dict_never_and_anything_else_once(encodes):
    import enum

    class Level(enum.IntEnum):
        HIGH = 2

    class Name(str):
        pass

    assert j.jsonable({"a": 1, "b": -0.0, "c": None, "d": "x", "e": True}) \
        == (True, {"a": 1, "b": -0.0, "c": None, "d": "x", "e": True})
    assert encodes[0] == 0
    # a subclass or a non-str key takes the trip and comes back plain
    for value, plain in (({"level": Level.HIGH}, {"level": 2}),
                         ({"name": Name("eden")}, {"name": "eden"}),
                         ({1: "int key"}, {"1": "int key"})):
        before = encodes[0]
        ok, clean = j.jsonable(value)
        assert ok and clean == plain and encodes[0] == before + 1
        assert [type(v) for v in clean.values()] == \
            [type(v) for v in plain.values()]
    # an int too long to print has no JSON form, flat or not
    assert j.jsonable({"n": 10 ** 5000}) == (False, None)
    assert j.jsonable(10 ** 5000) == (False, None)


# -- append / sync / crash --------------------------------------------------


def test_unsynced_tail_lost_on_crash(store):
    journal = store.create("run-a")
    journal.append(j.SCHEDULED, workflow="wf")          # synced
    journal.append(j.STARTED, sync=False, owner="x")    # buffered
    journal.append(j.CHECKPOINT, sync=False, node_id="s1")
    assert journal.pending() == 2
    assert journal.crash() == 2
    reopened = store.open("run-a")
    kinds = [r.kind for r in reopened.records()]
    assert kinds == [j.SCHEDULED]


def test_torn_tail_truncated_on_open(sim, store):
    journal = store.create("run-b")
    journal.append(j.SCHEDULED, workflow="wf")
    journal.append(j.STARTED, sync=False, owner="x")
    journal.crash(torn=True)  # leaves a truncated blob behind
    reopened = store.open("run-b")
    assert reopened.truncated_records == 1
    assert [r.kind for r in reopened.records()] == [j.SCHEDULED]
    truncations = [e for e in obs_of(sim).events.events()
                   if e.kind == "durable.journal.truncated"]
    assert truncations
    # appending after truncation reuses the cleaned sequence number
    reopened.append(j.STARTED, owner="y")
    assert [r.seq for r in reopened.records()] == [0, 1]


def test_storage_outage_blocks_the_journal(blobstore, store):
    journal = store.create("run-c")
    journal.append(j.SCHEDULED, workflow="wf")
    blobstore.set_fault("unavailable")
    with pytest.raises(StorageUnavailable):
        journal.append(j.STARTED, owner="x")
    blobstore.clear_fault()
    journal._tail.clear()  # the failed append never became durable
    journal.append(j.STARTED, owner="x")
    assert [r.kind for r in store.open("run-c").records()] == \
        [j.SCHEDULED, j.STARTED]


# -- the tail read against the listing it replaced (property) ---------------


def listing_tail(container, name, next_seq):
    """The replaced ``RecordLog.tail``: list and sort the whole prefix,
    skip what is known, read on until a bad record.  The oracle."""
    fresh = []
    first_new = f"{name}/{next_seq:08d}"
    for key in container.list(prefix=f"{name}/"):
        if key < first_new:
            continue
        record = JournalRecord.parse(container.read(key))
        if record is None or record.seq != next_seq:
            break
        fresh.append(record)
        next_seq += 1
    return fresh, next_seq


_log_ops = st.one_of(
    st.tuples(st.sampled_from(("append", "tail")), st.integers(0, 1)),
    st.tuples(st.sampled_from(("gap", "torn", "flip", "misnumber")),
              st.integers(0, 3)))


@settings(max_examples=150, deadline=None)
@given(st.lists(_log_ops, max_size=30))
def test_tail_probe_reads_what_the_listing_read(ops):
    sim = Simulator()
    container = BlobStore(sim).create_container("journals")
    # two writers of one log, and a neighbour whose name shares a prefix
    writers = [j.RecordLog(sim, container, "run"),
               j.RecordLog(sim, container, "run")]
    j.RecordLog(sim, container, "run-2").append(0.0, j.DONE, {})
    top = 0                     # one past the highest sequence ever stored

    def check(log):
        before = {key: container.read(key) for key in container.list()}
        expected, next_seq = listing_tail(container, log.name, log.next_seq)
        assert log.tail() == expected
        assert log.next_seq == next_seq
        assert {key: container.read(key)
                for key in container.list()} == before    # nothing deleted

    for op, arg in ops:
        if op == "append":
            check(writers[arg])                 # what ``sync`` does first
            writers[arg].append(sim.now, j.CHECKPOINT, {"by": arg})
            top = max(top, writers[arg].next_seq)
        elif op == "tail":
            check(writers[arg])
        elif op == "gap":                       # a record past a hole
            seq = top + 1 + arg
            container.put(f"run/{seq:08d}", JournalRecord(
                seq, sim.now, "run", j.DONE, {}).to_text())
            top = seq + 1
        elif op == "misnumber":                 # valid CRC, wrong slot
            container.put(f"run/{top:08d}", JournalRecord(
                top + 1 + arg, sim.now, "run", j.DONE, {}).to_text())
            top += 1
        elif top:                               # damage a stored record
            key = f"run/{max(0, top - 1 - arg):08d}"
            text = container.read(key)
            if text is None:
                continue
            if op == "torn":
                container.put(key, text[: max(1, (2 * len(text)) // 3)])
            else:
                flipped = chr(ord(text[arg]) ^ 1)
                container.put(key, text[:arg] + flipped + text[arg + 1:])
    for log in writers:
        check(log)


def test_sync_is_fenced_by_the_foreign_record_the_probe_finds(store):
    mine = store.create("run-f")
    mine.append(j.SCHEDULED, workflow="wf")
    theirs = store.open("run-f")
    theirs.append(j.ADOPTED, owner="exec-b")
    mine.append(j.CHECKPOINT, sync=False, node_id="s1")
    with pytest.raises(Fenced):
        mine.sync()
    assert mine.pending() == 0
    assert [r.kind for r in store.open("run-f").records()] == \
        [j.SCHEDULED, j.ADOPTED]


# -- leases -----------------------------------------------------------------


def test_lease_acquire_renew_release(sim, store):
    journal = store.create("run-d")
    epoch = journal.acquire("exec-a", ttl=60.0)
    assert epoch == 1
    assert live_owner(journal.lease(), sim.now) == "exec-a"
    with pytest.raises(LeaseError):
        store.open("run-d").acquire("exec-b", ttl=60.0)
    sim.run(until=30.0)
    assert journal.renew("exec-a", ttl=60.0) == 1
    journal.release("exec-a")
    assert live_owner(journal.lease(), sim.now) is None
    # after release anyone may take it, at a bumped epoch
    assert store.open("run-d").acquire("exec-b", ttl=60.0) == 2


def test_expired_lease_takeover_fences_old_owner(sim, store):
    journal_a = store.create("run-e")
    journal_a.acquire("exec-a", ttl=60.0)
    journal_a.append(j.STARTED, owner="exec-a")
    sim.run(until=61.0)  # lease lapses
    journal_b = store.open("run-e")
    assert journal_b.acquire("exec-b", ttl=60.0) == 2
    # the old owner comes back from its blackhole and tries to write
    with pytest.raises(Fenced):
        journal_a.append(j.CHECKPOINT, node_id="s1")
    # and cannot renew either
    with pytest.raises(LeaseError):
        journal_a.renew("exec-a", ttl=60.0)
    assert live_owner(journal_a.lease(), sim.now) == "exec-b"


# -- the lease rule, on both carriers (property) ------------------------------

_OWNERS = ("a", "b", "c")
_TTL = CLAIM_TTL                 # the journal takes it per call, claims fix it


class _JournalLeases:
    """The rule as run journals carry it: one handle per owner."""

    def __init__(self, sim):
        store = JournalStore(sim, BlobStore(sim))
        self.sim = sim
        self.handles = {o: store.open_or_create("run-l") for o in _OWNERS}

    def take(self, owner):
        try:
            return self.handles[owner].acquire(owner, _TTL)
        except LeaseError:
            return None

    def extend(self, owner, epoch):
        try:
            return self.handles[owner].renew(owner, _TTL)
        except LeaseError:
            return None

    def give_up(self, owner):
        self.handles[owner].release(owner)

    def holds(self, owner, epoch):
        lease = self.handles[owner].lease()
        return lease is not None and lease.held_at(self.sim.now) \
            and (lease.owner, lease.epoch) == (owner, epoch)


class _ClaimLeases:
    """The rule as stream claims carry it: one blob, one table."""

    def __init__(self, sim):
        self.claims = ClaimTable(sim, BlobStore(sim).create_container("c"))

    def take(self, owner):
        return self.claims.claim("s", owner)

    def extend(self, owner, epoch):
        return epoch if self.claims.renew("s", owner, epoch) else None

    def give_up(self, owner):
        self.claims.release("s", owner)

    def holds(self, owner, epoch):
        return self.claims.holds("s", owner, epoch)


_LEASE_STEPS = st.lists(st.tuples(
    st.sampled_from(["take", "extend", "give_up"]),
    st.sampled_from(_OWNERS),
    st.sampled_from([0.0, 1.0, _TTL / 2, _TTL, _TTL + 1.0])), max_size=40)


@pytest.mark.parametrize("carrier", [_JournalLeases, _ClaimLeases])
@settings(max_examples=150, deadline=None)
@given(steps=_LEASE_STEPS)
def test_lease_rule_one_holder_and_monotonic_epochs(carrier, steps):
    sim = Simulator()
    leases = carrier(sim)
    granted = {}                  # owner -> the epoch it was last handed
    holder, top = None, 0         # the last grant, whoever it went to
    for op, owner, wait in steps:
        sim.run(until=sim.now + wait)
        if op == "give_up":
            leases.give_up(owner)
            assert not leases.holds(owner, granted.get(owner, 0))
        else:
            others_live = any(leases.holds(o, e) for o, e in granted.items()
                              if o != owner)
            epoch = leases.take(owner) if op == "take" \
                else leases.extend(owner, granted.get(owner, 0))
            if op == "take":
                # refused exactly while another owner's lease is live
                assert (epoch is None) == others_live
            if epoch is not None:
                assert epoch >= max(top, 1)        # never goes down
                if holder is not None and owner != holder:
                    assert epoch > top             # a new holder is fenced off
                granted[owner] = epoch
                holder, top = owner, epoch
        live = [o for o, e in granted.items() if leases.holds(o, e)]
        assert len(live) <= 1


# -- replay consistency (property) ------------------------------------------


_OPS = st.lists(st.sampled_from(
    ["start", "adopt", "stage-a", "stage-b", "effect-1", "effect-2",
     "lease", "checkpoint", "done", "fail"]), max_size=24)


@settings(max_examples=120, deadline=None)
@given(ops=_OPS)
def test_replay_of_any_prefix_is_consistent(ops):
    sim = Simulator()
    store = JournalStore(sim, BlobStore(sim))
    journal = store.create("run-p")
    journal.append(j.SCHEDULED, workflow="wf", parameters={"x": 1})
    for op in ops:
        if op == "start":
            journal.append(j.STARTED, owner="exec-a")
        elif op == "adopt":
            journal.append(j.ADOPTED, owner="exec-b", previous="exec-a")
        elif op.startswith("stage-"):
            journal.append(j.CHECKPOINT, node_id=op, cache_key=f"k-{op}",
                           replayable=True, output={"v": op})
        elif op.startswith("effect-"):
            journal.append(j.EFFECT, key=op)
        elif op == "lease":
            journal.append(j.LEASE, owner="exec-a", epoch=1,
                           expires=sim.now + 60.0, ttl=60.0)
        elif op == "checkpoint":
            journal.append(j.CHECKPOINT, completed=3, payload="p/ckpt")
        elif op == "done":
            journal.append(j.DONE, outputs_repr="{}")
        elif op == "fail":
            journal.append(j.FAILED, error="boom", stage="stage-a")
    records = journal.records()
    previous_rank = -1
    from repro.durable.state import STATUSES
    for cut in range(len(records) + 1):
        state = replay(records[:cut], run_id="run-p")
        # status only moves forward along the lifecycle as records grow
        rank = STATUSES.index(state.status)
        assert rank >= previous_rank
        previous_rank = rank
        # every completed stage has a stage record; effects are unique
        assert set(state.completed) <= set(state.stages)
        assert len(state.completed) == len(set(state.completed))
        assert len(state.effects) == len(set(state.effects))
        assert state.adoptions <= max(state.attempts, state.adoptions)
        # cache entries only come from replayable completed stages
        for key, _value in state.cache_entries():
            assert key is not None
        if cut and records[:cut][-1].kind == j.DONE:
            assert state.terminal


# -- DurableSweep -----------------------------------------------------------


def _sweep_fixture(sim, blobstore, store, calls):
    def simulate(params):
        calls.append(dict(params))
        return {"peak": params["m"] * 3.0 + 1.0}

    effects = blobstore.create_container("results")
    runner = EnsembleRunner(simulate, model_id="toy", forcing="storm",
                            cache=RunCache(max_entries=512))
    return runner, effects


def test_sweep_completes_and_publishes_effects_once(sim, blobstore, store):
    calls = []
    runner, effects = _sweep_fixture(sim, blobstore, store, calls)
    params = [{"m": float(i)} for i in range(20)]
    sweep = DurableSweep(runner, store, "sweep-1", checkpoint_every=5,
                         effects=effects, owner="exec-a")
    results = sweep.run(params)
    assert len(results) == 20
    assert sweep.effects_applied == 20
    assert sweep.effects_deduped == 0
    assert len(effects) == 20
    state = replay(store.open("sweep-1").records())
    assert state.terminal
    assert len(state.effects) == 20


def test_sweep_crash_resumes_from_checkpoint(sim, blobstore, store):
    calls = []
    runner, effects = _sweep_fixture(sim, blobstore, store, calls)
    params = [{"m": float(i)} for i in range(40)]

    # fault-free reference run for bit-identical comparison
    reference = EnsembleRunner(lambda p: {"peak": p["m"] * 3.0 + 1.0},
                               model_id="toy", forcing="storm")
    expected = reference.run_many(params)

    sweep = DurableSweep(runner, store, "sweep-2", checkpoint_every=10,
                         effects=effects, owner="exec-a")
    assert sweep.run(params, interrupt_after=23) is None
    assert len(calls) == 23

    # replacement executor: fresh runner (cold cache), same journal
    calls2 = []
    runner2, _ = _sweep_fixture(sim, blobstore, store, calls2)
    resumed = DurableSweep(runner2, store, "sweep-2", checkpoint_every=10,
                           effects=effects, owner="exec-a")
    results = resumed.run(params)
    assert results == expected                      # bit-identical
    assert resumed.resumed_from == 20               # last checkpoint
    # wasted recompute bounded by the checkpoint interval
    assert len(calls2) == len(params) - 20
    assert len(calls) + len(calls2) - len(params) <= 10
    # effects were deduplicated, never re-applied
    assert resumed.effects_deduped == 3             # runs 21-23 re-ran
    assert len(effects) == len(params)


def test_sweep_resumes_after_torn_checkpoint_record(sim, blobstore, store):
    calls = []
    runner, effects = _sweep_fixture(sim, blobstore, store, calls)
    params = [{"m": float(i)} for i in range(12)]
    sweep = DurableSweep(runner, store, "sweep-3", checkpoint_every=4,
                         effects=effects, owner="exec-a")
    assert sweep.run(params, interrupt_after=6, torn=True) is None
    resumed = DurableSweep(runner, store, "sweep-3", checkpoint_every=4,
                           effects=effects, owner="exec-a")
    results = resumed.run(params)
    assert len(results) == 12
    assert resumed.resumed_from == 4


def test_sweep_whose_model_raises_fails_the_run_and_frees_it(
        sim, blobstore, store):
    """An uncaptured model error ends the run, it does not orphan it:
    FAILED on the journal, lease released, span closed, and a
    replacement owner resumes at the same simulated instant."""
    def simulate(params):
        if params["m"] == 2.0 and not healed:
            raise TypeError("unsupported operand")
        return {"peak": params["m"] * 3.0 + 1.0}

    healed = []
    effects = blobstore.create_container("results")
    params = [{"m": float(i)} for i in range(6)]
    sweep = DurableSweep(
        EnsembleRunner(simulate, model_id="toy", cache=RunCache()),
        store, "sweep-f", checkpoint_every=2, effects=effects,
        owner="exec-a", lease_ttl=300.0)
    with pytest.raises(TypeError, match="unsupported operand"):
        sweep.run(params)

    journal = store.open("sweep-f")
    state = replay(journal.records())
    assert state.status == "failed"
    assert state.failure == "TypeError: unsupported operand"
    assert live_owner(journal.lease(), sim.now) is None               # released, not lapsed
    assert state.checkpoint["completed"] == 2
    tracer = obs_of(sim).tracer
    assert [s.error for s in tracer.spans()
            if s.name == "durable.sweep"] == ["TypeError: unsupported operand"]
    assert all(s.finished for s in tracer.spans())

    healed.append(True)
    replacement = DurableSweep(
        EnsembleRunner(simulate, model_id="toy", cache=RunCache()),
        store, "sweep-f", checkpoint_every=2, effects=effects,
        owner="exec-b", lease_ttl=300.0)
    results = replacement.run(params)               # no LeaseError, t=0
    assert sim.now == 0.0
    assert results == [{"peak": i * 3.0 + 1.0} for i in range(6)]
    assert replacement.resumed_from == 2
    assert len(effects) == 6
    kinds = [r.kind for r in store.open("sweep-f").records()]
    assert kinds.count(j.FAILED) == 1 and kinds[-2:] == [j.DONE, j.LEASE]


# -- the run protocol against its replaced forms (oracles) -------------------
# What begin() and the one-loop sweep replaced lives on here, verbatim from
# the parent commit, and nowhere in src/.


class TwoLoopSweep(DurableSweep):
    """``DurableSweep.run`` as it stood before the loops were folded."""

    def run(self, parameter_sets, interrupt_after=None, torn=False):
        sim = self.store.sim
        self.computed = 0
        self.effects_applied = 0
        self.effects_deduped = 0
        journal = self.store.open_or_create(self.sweep_id)
        prior = self._replay(journal)
        journal.acquire(self.owner, self.lease_ttl)
        attributes = {"sweep": self.sweep_id,
                      "runs": len(parameter_sets),
                      "checkpoint_every": self.checkpoint_every}
        scheduler = getattr(self.runner, "scheduler", None)
        if scheduler is not None:
            attributes["shard"] = scheduler.shard_of(self.runner.model_id)
            attributes["class"] = "batch"
        span = obs_of(sim).tracer.start_span(
            "durable.sweep", kind="perf", attributes=attributes)
        if not journal.records() or prior.status == "unknown":
            journal.append(j.SCHEDULED, sync=False,
                           workflow=f"sweep:{self.runner.model_id}",
                           parameters={"runs": len(parameter_sets)})
        journal.append(j.STARTED, owner=self.owner)

        results = []
        start = 0
        if prior.checkpoint is not None:
            start = int(prior.checkpoint.get("completed", 0))
            payload_key = prior.checkpoint.get("payload")
            if payload_key and self.store.has_payload(payload_key):
                results = list(self.store.get_payload(payload_key))[:start]
            else:  # checkpoint record without payload: restart
                start = 0
                results = []
        self.resumed_from = start
        if start:
            obs_of(sim).events.emit("durable.sweep.resumed",
                                    sweep=self.sweep_id, completed=start)
        span.set_attribute("resumed_from", start)

        if interrupt_after is None and self._batch_backend():
            index = start
            total = len(parameter_sets)
            while index < total:
                boundary = index + self.checkpoint_every \
                    - (index % self.checkpoint_every)
                end = min(total, boundary)
                chunk = list(parameter_sets[index:end])
                values = self.runner.run_many(chunk, capture_errors=True)
                self.computed += len(values)
                for params, value in zip(chunk, values):
                    results.append(value)
                    self._apply_effect(journal, params, value)
                if end % self.checkpoint_every == 0:
                    self._checkpoint(journal, results, end)
                index = end
            journal.append(j.DONE, outputs_repr=f"{len(results)} results")
            journal.release(self.owner)
            span.set_attribute("computed", self.computed)
            span.set_attribute("effects_applied", self.effects_applied)
            span.finish()
            return results

        batched = self._batch_backend()
        for index in range(start, len(parameter_sets)):
            if interrupt_after is not None \
                    and self.computed >= interrupt_after:
                lost = journal.crash(torn=torn)
                obs_of(sim).events.emit(
                    "durable.sweep.crashed", sweep=self.sweep_id,
                    completed=index, lost_records=lost)
                span.finish(error=f"executor crashed after "
                                  f"{self.computed} runs")
                return None
            params = parameter_sets[index]
            if batched:
                value = self.runner.run_many([params],
                                             capture_errors=True)[0]
            else:
                value = self.runner.run_one(params, capture_errors=True)
            self.computed += 1
            results.append(value)
            self._apply_effect(journal, params, value)
            if (index + 1) % self.checkpoint_every == 0:
                self._checkpoint(journal, results, index + 1)
        if interrupt_after is not None \
                and self.computed >= interrupt_after:
            lost = journal.crash(torn=torn)
            obs_of(sim).events.emit(
                "durable.sweep.crashed", sweep=self.sweep_id,
                completed=len(parameter_sets), lost_records=lost)
            span.finish(error=f"executor crashed after "
                              f"{self.computed} runs")
            return None
        journal.append(j.DONE, outputs_repr=f"{len(results)} results")
        journal.release(self.owner)
        span.set_attribute("computed", self.computed)
        span.set_attribute("effects_applied", self.effects_applied)
        span.finish()
        return results

    def _apply_effect(self, journal, params, value):
        """Publish the result under its run key, at most once ever."""
        if self.effects is None:
            return
        key = self.runner.key_of(params)
        if self.effects.exists(key):
            self.effects_deduped += 1
            return
        self.effects.put(key, value)
        self.effects_applied += 1
        # bookkeeping only — dedup correctness comes from the existence
        # check above, so EFFECT records ride to the next fsync point
        journal.append(j.EFFECT, sync=False, key=key)

    def _batch_backend(self):
        resolve = getattr(self.runner, "resolve_backend", None)
        return resolve is not None and resolve() != "scalar"

    def _replay(self, journal):
        return replay(journal.records(), run_id=self.sweep_id)


def _toy(params):
    if params["m"] == 7.0:
        raise ValueError("non-behavioural draw")
    return {"peak": params["m"] * 3.0 + 1.0}


def _sweep_universe(sweep_class, backend, sets, every, interrupts, torn):
    """Two crashed-or-not attempts, then one to completion, each on a
    fresh sweep object (cold runner, same owner); everything an observer
    can see."""
    sim = Simulator()
    blobstore = BlobStore(sim, name="u")
    store = JournalStore(sim, blobstore)
    effects = blobstore.create_container("results")
    seen = {"attempts": []}
    for interrupt in (*interrupts, None):
        runner = EnsembleRunner(
            _toy, model_id="toy", forcing="storm", cache=RunCache(),
            sim=sim, backend=backend,
            batch=lambda chunk: [_toy(p) for p in chunk])
        sweep = sweep_class(runner, store, "sweep-o", checkpoint_every=every,
                            effects=effects, owner="exec-a")
        results = sweep.run(sets, interrupt_after=interrupt, torn=torn)
        stats = runner.stats()
        seen["attempts"].append((
            results, sweep.computed, sweep.resumed_from,
            sweep.checkpoints_written, sweep.effects_applied,
            sweep.effects_deduped,
            # a per-item vector sweep looked each duplicate up again
            (stats["hits"], stats["misses"])
            if backend == "scalar" or interrupt is None else None))
    seen["journal"] = [(r.kind, r.payload)
                       for r in store.open("sweep-o").records()]
    for name in ("run-journals", "run-journals-payloads", "results"):
        box = blobstore.container(name)
        seen[name] = {key: repr(box.get(key).payload) for key in box.list()}
    seen["events"] = [
        (e.kind, e.fields) for e in obs_of(sim).events.events()
        if e.kind.startswith("durable.")]
    return seen


@settings(max_examples=150, deadline=None)
@given(data=st.data(),
       values=st.lists(st.integers(0, 12), max_size=40),
       every=st.integers(1, 12), torn=st.booleans(),
       backend=st.sampled_from(["scalar", "vector"]))
def test_one_loop_sweep_is_the_two_loops_bit_for_bit(
        data, values, every, torn, backend):
    sets = [{"m": float(v)} for v in values]
    interrupts = data.draw(st.tuples(*2 * [
        st.one_of(st.none(), st.integers(0, len(sets)))]))
    one, two = (_sweep_universe(cls, backend, sets, every, interrupts, torn)
                for cls in (DurableSweep, TwoLoopSweep))
    assert one == two
    assert one["journal"][-2][0] == j.DONE


def _begin_at_the_parent(journal, owner, ttl, workflow, params, adopting):
    """The estate engine's hand copy of the protocol's opening."""
    prior = replay(journal.records(), run_id=journal.run_id)
    journal.acquire(owner, ttl)
    if adopting and prior.attempts:
        journal.append(j.ADOPTED, owner=owner, previous=prior.owner)
    else:
        ok, clean = j.jsonable(params)
        if not journal.records() or not prior.workflow:
            journal.append(j.SCHEDULED, sync=False, workflow=workflow,
                           parameters=clean if ok else {})
        journal.append(j.STARTED, owner=owner)
    return prior


def _journal_over(records, now):
    """A fresh store holding exactly ``records``, its clock at ``now``."""
    sim = Simulator()
    sim.run(until=now)
    blobstore = BlobStore(sim)
    store = JournalStore(sim, blobstore)
    box = blobstore.container("run-journals")
    for record in records:
        box.put(f"run-b/{record.seq:08d}", record.to_text())
    return store.open_or_create("run-b")


def _opening(opener, records, now, owner, adopting):
    journal = _journal_over(records, now)
    try:
        prior = opener(journal, owner, 60.0, "wf", {"depth": 3.0, "x": (1,)},
                       adopting)
    except j.LeaseError as err:
        return "refused", str(err)
    return prior, [(r.kind, r.payload, r.time)
                   for r in journal.records()[len(records):]]


_PROTOCOL_OPS = st.lists(st.sampled_from(
    ["open-a", "open-b", "adopt-b", "adopt-c", "stage", "effect", "renew",
     "finish", "fail", "crash", "wait"]), max_size=14)


@settings(max_examples=60, deadline=None)
@given(ops=_PROTOCOL_OPS)
def test_begin_writes_what_the_engine_copy_wrote_on_every_prefix(ops):
    """Drive a journal through the protocol (any owner, any interleaving
    the lease allows), then open every prefix of the stream both ways."""
    sim = Simulator()
    store = JournalStore(sim, BlobStore(sim))
    journal, holder = store.create("run-b"), None
    for n, op in enumerate(ops):
        kind, _, who = op.partition("-")
        if kind in ("open", "adopt"):
            mine = store.open_or_create("run-b")
            try:
                _begin_at_the_parent(mine, f"exec-{who}", 60.0, "wf",
                                     {"depth": 3.0}, kind == "adopt")
            except j.LeaseError:
                continue
            journal, holder = mine, f"exec-{who}"
        elif op == "wait":
            sim.run(until=sim.now + 45.0)
        elif holder is not None:
            try:
                if op == "stage":
                    journal.append(j.CHECKPOINT, node_id=f"n{n}",
                                   cache_key=f"k{n}", replayable=True,
                                   output={"v": n})
                elif op == "effect":
                    journal.append(j.EFFECT, sync=False, key=f"e{n}")
                elif op == "renew":
                    journal.renew(holder, 60.0)
                elif op == "finish":
                    finish(journal, holder, "{}")
                elif op == "fail":
                    fail(journal, holder, "boom", stage=f"n{n}")
                elif op == "crash":
                    journal.crash(torn=True)
                    holder = None
            except j.LeaseError:
                holder = None
    records = store.open_or_create("run-b").records()
    for cut in range(len(records) + 1):
        prefix = records[:cut]
        last = prefix[-1].time if prefix else 0.0
        for now in (last, last + 61.0):
            for owner in ("exec-a", "exec-b"):
                for adopting in (False, True):
                    case = (prefix, now, owner, adopting)
                    assert _opening(begin, *case) \
                        == _opening(_begin_at_the_parent, *case)


@pytest.mark.parametrize("prefix_kinds, owner, adopting, wrote", [
    # fresh
    ([], "exec-a", False, [j.LEASE, j.SCHEDULED, j.STARTED]),
    # resumed by the same owner: a new attempt, never rescheduled
    ([j.LEASE, j.SCHEDULED, j.STARTED, j.CHECKPOINT], "exec-a", False,
     [j.LEASE, j.STARTED]),
    # adopted after an attempt
    ([j.LEASE, j.SCHEDULED, j.STARTED, j.CHECKPOINT], "exec-b", True,
     [j.LEASE, j.ADOPTED]),
    # adopted before anybody started: that is a first attempt
    ([j.LEASE, j.SCHEDULED], "exec-b", True, [j.LEASE, j.STARTED]),
    ([j.LEASE], "exec-b", True, [j.LEASE, j.SCHEDULED, j.STARTED]),
])
def test_begin_named_cases(prefix_kinds, owner, adopting, wrote):
    payloads = {
        j.LEASE: {"owner": "exec-a", "epoch": 1, "expires": 60.0,
                  "ttl": 60.0},
        j.SCHEDULED: {"workflow": "wf", "parameters": {}},
        j.STARTED: {"owner": "exec-a"},
        j.CHECKPOINT: {"node_id": "a", "cache_key": "k", "replayable": True,
                       "output": 1}}
    records = [JournalRecord(seq, 0.0, "run-b", kind, payloads[kind])
               for seq, kind in enumerate(prefix_kinds)]
    prior, written = _opening(begin, records, 100.0, owner, adopting)
    assert [kind for kind, _, _ in written] == wrote
    assert prior.attempts == prefix_kinds.count(j.STARTED)
    if adopting and j.STARTED in prefix_kinds:
        assert written[-1][1] == {"owner": "exec-b", "previous": "exec-a"}
    # ...and while exec-a's lease is live, anyone else is refused
    early = _opening(begin, records, 10.0, owner, adopting)[0]
    assert (early == "refused") == (owner != "exec-a" and bool(prefix_kinds))
