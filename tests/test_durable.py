"""Durable execution: journal mechanics, replay, checkpointed sweeps."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud import BlobStore, StorageUnavailable
from repro.dataplane import ClaimTable
from repro.durable import (
    DurableSweep,
    Fenced,
    JournalRecord,
    JournalStore,
    LeaseError,
    replay,
)
from repro.durable import journal as j
from repro.obs.hub import obs_of
from repro.perf.runcache import RunCache
from repro.perf.runner import EnsembleRunner
from repro.sim import Simulator
from repro.workflow import Workflow, WorkflowEngine, WorkflowNode


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
    assert journal.owner_at() == "exec-a"
    with pytest.raises(LeaseError):
        store.open("run-d").acquire("exec-b", ttl=60.0)
    sim.run(until=30.0)
    assert journal.renew("exec-a", ttl=60.0) == 1
    journal.release("exec-a")
    assert journal.owner_at() is None
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
    assert journal_a.owner_at() == "exec-b"


# -- the lease rule, on both carriers (property) ------------------------------

_OWNERS = ("a", "b", "c")
_TTL = 10.0


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
        self.claims = ClaimTable(sim, BlobStore(sim).create_container("c"),
                                 ttl=_TTL)

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


# -- journaled WorkflowEngine -----------------------------------------------


def _workflow():
    wf = Workflow("local-study")
    wf.add(WorkflowNode("a", lambda p, u: {"x": p["depth"] * 2},
                        params_used=("depth",)))
    wf.add(WorkflowNode("b", lambda p, u: {"y": u["a"]["x"] + 1},
                        depends_on=("a",)))
    return wf


def test_workflow_engine_journals_lifecycle(store):
    engine = WorkflowEngine(store=store, executor_id="exec-a")
    record = engine.run(_workflow(), {"depth": 3.0})
    kinds = [r.kind for r in store.open(record.run_id).records()]
    assert kinds == [j.SCHEDULED, j.STARTED, j.CHECKPOINT, j.CHECKPOINT,
                     j.DONE]
    state = replay(store.open(record.run_id).records())
    assert state.terminal and state.status == "done"
    assert state.completed == ["a", "b"]
    assert state.parameters == {"depth": 3.0}


def test_seed_cache_replays_completed_stages(store):
    first = WorkflowEngine(store=store, executor_id="exec-a")
    record = first.run(_workflow(), {"depth": 3.0})
    state = replay(store.open(record.run_id).records())
    # a cold replacement engine seeded from the journal recomputes nothing
    replacement = WorkflowEngine(store=store, executor_id="exec-b")
    assert replacement.seed_cache(state.cache_entries()) == 2
    rerun = replacement.run(_workflow(), {"depth": 3.0},
                            run_id=record.run_id)
    assert rerun.recomputed() == []
    assert rerun.outputs == record.outputs


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
