"""The control plane's indexes against the scans they replaced.

``ManagedService`` ranks its replicas on a lazily-invalidated heap and
``SessionTable`` buckets its sessions by instance; the Load Balancer
rebalances off two heaps over the count vector.  The scan
implementations those replaced live on here, as the oracle: whatever
the interleaving of pool, instance and session events, every indexed
read must equal the scan's answer — same replica, same sessions, same
order.  Two deterministic pins ride along: the exact migration sequence
of one rebalance pass, and an operation count that shows placement cost
no longer grows with the pool.
"""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.broker import (
    ManagedService,
    PrivateFirstPolicy,
    SessionState,
    SessionTable,
)
from repro.cloud import ImageKind, ImageStore, MEDIUM
from repro.cloud.instance import Instance, Job
from repro.core.cell import Cell
from repro.sched import CapacityLedger
from repro.services import Network, RestApi
from repro.sim import RandomStreams, Simulator

# -- the oracle: the scans as they stood before the indexes --------------------


def scan_serving(pool):
    return [inst for inst in pool.replicas if inst.is_serving]


def scan_healthy_serving(pool):
    return [inst for inst in scan_serving(pool)
            if inst.state.value == "running" and not inst.network_blackholed]


def scan_least_loaded(pool):
    candidates = scan_healthy_serving(pool) or scan_serving(pool)
    if not candidates:
        return None
    return min(candidates, key=lambda inst: inst.load())


def scan_active(table):
    return [s for s in table.all() if s.state == SessionState.ACTIVE]


def scan_waiting(table):
    return [s for s in table.all() if s.state == SessionState.WAITING]


def scan_on_instance(table, instance):
    return [s for s in scan_active(table) if s.instance is instance]


def assert_matches_oracle(pools, table, instances):
    for pool in pools:
        assert pool.serving() == scan_serving(pool)
        assert pool.healthy_serving() == scan_healthy_serving(pool)
        assert pool.least_loaded() is scan_least_loaded(pool)
        for inst in instances:
            assert pool.has_replica(inst) == (inst in pool.replicas)
    for inst in instances:
        expected = scan_on_instance(table, inst)
        assert table.on_instance(inst) == expected
        assert table.count_on(inst) == len(expected)
        assert table.oldest_on(inst) is (expected[0] if expected else None)
    active, waiting = scan_active(table), scan_waiting(table)
    assert table.active() == active
    assert table.waiting() == waiting
    assert table.active_count() == len(active)
    assert table.waiting_count() == len(waiting)
    assert table.live_count() == len(active) + len(waiting)


# -- random interleavings ---------------------------------------------------------

N_INSTANCES = 4
N_POOLS = 2

# few instances and few sessions, so that steps keep landing on the same
# ones: a stale rank or a misplaced bucket entry needs a particular
# handful of steps on one replica to show
_instance = st.integers(0, N_INSTANCES - 1)
_session = st.integers(0, 5)        # taken modulo the sessions created so far
_steps = st.lists(st.one_of(
    st.tuples(st.just("join"), _instance, st.integers(0, N_POOLS - 1)),
    st.tuples(st.just("drop"), _instance),
    st.tuples(st.just("submit"), _instance, st.sampled_from((0.5, 2.0, 9.0))),
    st.tuples(st.just("advance"), st.sampled_from((0.25, 1.0, 5.0))),
    st.tuples(st.sampled_from(("boot", "degrade", "blackhole", "heal",
                               "heal", "crash", "terminate")), _instance),
    st.tuples(st.just("create")),
    st.tuples(st.just("assign"), _session, _instance),
    st.tuples(st.sampled_from(("unassign", "end", "prune")), _session),
), min_size=30, max_size=90)


def _world():
    """Three running replicas in pool 0, one PENDING outsider, two
    waiting sessions."""
    sim = Simulator()
    image = ImageStore().create("portal", ImageKind.GENERIC, size_gb=1.0)
    instances = [Instance(sim, f"i-{k}", "test", image, MEDIUM)
                 for k in range(N_INSTANCES)]
    pools = [ManagedService(name=f"svc-{k}", image=image, flavor=MEDIUM,
                            make_server=lambda inst: None)
             for k in range(N_POOLS)]
    for inst in instances[1:]:
        inst._mark_running()
        pools[0].add_replica(inst)
    table = SessionTable(sim)
    created = [table.create(f"u{k}") for k in range(2)]
    return sim, instances, pools, table, created


def _apply(step, sim, instances, pools, table, created):
    kind = step[0]
    if kind == "advance":
        sim.run(until=sim.now + step[1])
    elif kind == "create":
        created.append(table.create(f"u{len(created)}"))
    elif kind == "prune":
        table.prune_ended()
    elif kind in ("assign", "unassign", "end"):
        if not created:
            return
        session = created[step[1] % len(created)]
        if kind == "assign":
            # a second assign is a migration; an ended session refuses
            if session.state != SessionState.ENDED:
                session.assign(instances[step[2]])
        else:
            getattr(session, kind)()
    else:
        inst = instances[step[1]]
        owner = next((p for p in pools if p.has_replica(inst)), None)
        if kind == "join":
            if owner is None:
                pools[step[2]].add_replica(inst)
        elif kind == "drop":
            # dropping a non-member is the idempotent no-op
            (owner or pools[0]).drop_replica(inst)
        elif kind == "submit":
            inst.submit(Job(cost=step[2]))
        elif kind == "boot":
            inst._mark_running()
        elif kind == "crash":
            inst._mark_failed("test crash")
        elif kind == "terminate":
            inst._mark_terminated()
        elif inst.is_serving:           # degrade / blackhole / heal
            getattr(inst, f"_{kind}")()


@settings(max_examples=500, deadline=None)
@given(_steps)
def test_indexes_equal_the_scans_after_every_step(steps):
    sim, instances, pools, table, created = _world()
    assert_matches_oracle(pools, table, instances)
    for step in steps:
        _apply(step, sim, instances, pools, table, created)
        assert_matches_oracle(pools, table, instances)


def test_pending_replica_is_ranked_once_it_runs():
    sim, instances, pools, table, created = _world()
    pending = instances[0]
    pools[1].add_replica(pending)
    assert pools[1].least_loaded() is None
    pending._mark_running()
    assert pools[1].least_loaded() is pending


def test_replicas_given_to_the_constructor_are_indexed():
    sim, instances, pools, table, created = _world()
    for inst in instances[1:]:
        pools[0].drop_replica(inst)
    pool = dataclasses.replace(pools[0], name="given",
                               replicas=instances[1:4])
    assert pool.replicas == instances[1:4]
    assert pool.least_loaded() is instances[1]
    instances[1].submit(Job(cost=5.0))
    assert pool.least_loaded() is instances[2]


# -- the lazy heap's compaction boundary -------------------------------------------


def test_heap_compaction_boundary_keeps_the_answer():
    sim, instances, pools, table, created = _world()
    pool = pools[0]
    quiet, noisy = instances[1], instances[2]
    pool.drop_replica(instances[3])
    bound = 2 * 2 + 16
    sizes = []
    # ``noisy`` is never the minimum, so no peek ever pops what it
    # supersedes: only compaction bounds the heap
    for _ in range(3 * bound):
        noisy.submit(Job(cost=1.0e6))
        assert pool.least_loaded() is scan_least_loaded(pool) is quiet
        sizes.append(len(pool._heap))
    assert max(sizes) == bound
    # one push past the bound leaves exactly the two live ranks
    assert sizes[sizes.index(bound) + 1] == 2
    quiet._mark_failed("last healthy replica lost")
    assert pool.least_loaded() is scan_least_loaded(pool) is noisy


# -- a service cut into shard slices ------------------------------------------------


def build_plane(replicas, shards=1):
    """A warm estate of ``replicas`` serving replicas behind N shard LBs."""
    sim = Simulator()
    streams = RandomStreams(seed=42)
    sessions = SessionTable(sim)
    cell = Cell(sim, streams, Network(sim, streams=streams), sessions,
                CapacityLedger(sim), region="test",
                private_vcpus=MEDIUM.vcpus * replicas, shards=shards,
                health_interval=1.0e9, health_window=3,
                autoscale_interval=1.0e9, policy=PrivateFirstPolicy())
    lbs, router = cell.lbs, cell.router
    api = RestApi("svc")
    api.get("/ping", lambda req, p: {"pong": True})
    cell.publish(
        "svc", api,
        ImageStore().create("portal", ImageKind.GENERIC, size_gb=1.0),
        sessions_per_replica=8, min_replicas=replicas, max_replicas=replicas)
    sim.run(until=900.0)
    slices = router.services()
    assert sum(len(piece.serving()) for piece in slices) == replicas
    return sim, lbs, slices, sessions


def test_each_shard_slice_ranks_only_its_own_replicas():
    sim, lbs, slices, sessions = build_plane(replicas=6, shards=3)
    assert len(slices) == 3
    for piece in slices:
        assert len(piece.replicas) == 2
        assert piece.least_loaded() is piece.replicas[0]
        for other in slices:
            if other is not piece:
                assert other._heap is not piece._heap
                assert other._rank is not piece._rank
                assert not any(other.has_replica(r) for r in piece.replicas)
    # load on one slice's replicas re-ranks that slice and no other
    first = slices[0]
    first.replicas[0].submit(Job(cost=50.0))
    assert first.least_loaded() is first.replicas[1]
    assert slices[1].least_loaded() is slices[1].replicas[0]
    for lb, piece in zip(lbs, slices):
        assert lb._service_of(piece.replicas[1]) is piece
        assert lb._service_of(first.replicas[0]) is (
            first if piece is first else None)
    assert_matches_oracle(slices, sessions,
                          [r for piece in slices for r in piece.replicas])


# -- the rebalance order, pinned ----------------------------------------------------

#: ``(session, from replica, to replica)`` in push order, recorded from
#: the scan implementation (commit a354d1e) on the scenario below
REBALANCE_MOVES = [
    ('u0', 1, 3), ('u2', 4, 6), ('u1', 1, 7), ('u5', 4, 8), ('u6', 1, 9),
    ('u3', 2, 10), ('u12', 4, 11), ('u8', 1, 12), ('u10', 2, 13),
    ('u16', 4, 14), ('u13', 1, 15), ('u11', 2, 3), ('u18', 4, 6),
    ('u15', 1, 7), ('u17', 2, 8), ('u23', 4, 9), ('u20', 1, 10),
    ('u25', 2, 11), ('u26', 4, 12), ('u22', 1, 13), ('u31', 2, 14),
    ('u30', 4, 15), ('u27', 1, 3), ('u32', 2, 6), ('u33', 4, 7),
    ('u41', 1, 8), ('u36', 2, 9), ('u37', 4, 10), ('u43', 1, 11),
    ('u38', 2, 12), ('u40', 4, 13), ('u48', 1, 14), ('u46', 2, 15),
    ('u45', 4, 3), ('u50', 1, 6), ('u52', 2, 7), ('u47', 4, 8),
    ('u55', 1, 9), ('u53', 2, 10), ('u51', 4, 11), ('u7', 0, 12),
    ('u57', 1, 13), ('u60', 2, 14), ('u58', 4, 15), ('u21', 0, 3),
    ('u62', 1, 6), ('u63', 2, 7), ('u61', 4, 8), ('u28', 0, 9),
    ('u71', 1, 10), ('u66', 2, 11), ('u65', 4, 12),
]


class Pushes:
    """A session channel that keeps what it was sent."""

    def __init__(self):
        self.log = []

    def push(self, payload):
        self.log.append(payload)


def test_rebalance_moves_the_same_sessions_in_the_same_order():
    sim, (lb,), (service,), sessions = build_plane(replicas=16)
    replicas = list(service.replicas)
    channel = Pushes()
    created = [sessions.create(f"u{k}", channel=channel) for k in range(90)]
    # a lopsided start: squares mod 7 pile onto replicas 0, 1, 2 and 4,
    # every fifth session has already left, and every ninth arrives
    # late on a busy replica (old by creation, newest by arrival)
    for k, session in enumerate(created):
        session.assign(replicas[(k * k) % 7])
    for k, session in enumerate(created):
        if k % 5 == 4:
            session.end()
        elif k % 9 == 0:
            session.assign(replicas[(1, 2, 4)[(k // 9) % 3]])
    replicas[5]._mark_failed("pinned scenario")    # listed, not serving
    name_of = {s.session_id: s.user_name for s in created}
    index_of = {inst.address: i for i, inst in enumerate(replicas)}
    sits_on = {s.session_id: s.instance for s in created}
    channel.log.clear()
    lb._rebalance(service)
    moves = []
    for payload in channel.log:
        assert payload["type"] == "session.assign"
        sid, target = payload["sessionId"], index_of[payload["instance"]]
        moves.append((name_of[sid], index_of[sits_on[sid].address], target))
        sits_on[sid] = replicas[target]
    assert moves == REBALANCE_MOVES
    counts = [sessions.count_on(inst) for inst in service.serving()]
    assert max(counts) - min(counts) <= 1
    assert lb.metrics.counter("rebalances").value == len(REBALANCE_MOVES)


# -- placement cost does not grow with the pool --------------------------------------


def _evaluations_per_thousand_placements(replicas, monkeypatch):
    """``Instance.load`` + ``Instance.is_serving`` evaluations, no clocks."""
    sim, (lb,), (service,), sessions = build_plane(replicas=replicas)
    users = [sessions.create(f"u{k}") for k in range(1000)]
    evaluations = [0]
    load, is_serving = Instance.load, Instance.is_serving.fget

    def counted_load(self):
        evaluations[0] += 1
        return load(self)

    def counted_is_serving(self):
        evaluations[0] += 1
        return is_serving(self)

    with monkeypatch.context() as patch:
        patch.setattr(Instance, "load", counted_load)
        patch.setattr(Instance, "is_serving", property(counted_is_serving))
        for k, session in enumerate(users):
            lb.place_session(session, "svc")
            # every fourth user starts work, so the ranking keeps moving
            if k % 4 == 0:
                session.instance.submit(Job(cost=1.0e6))
    assert all(s.state == SessionState.ACTIVE for s in users)
    return evaluations[0]


def test_placement_evaluations_are_flat_in_pool_size(monkeypatch):
    small = _evaluations_per_thousand_placements(64, monkeypatch)
    large = _evaluations_per_thousand_placements(512, monkeypatch)
    assert small > 0
    # the scan read every replica per placement: 8x the work at 8x the pool
    assert large <= 1.5 * small
