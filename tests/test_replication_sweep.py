"""The replicator sweeps what changed, checked against a full scan.

A ``Container`` keeps its blobs in write order and answers
``written_since(mark)`` by walking back from the newest write, so a
``Replicator`` sweep absorbs only the writes made since the previous
sweep and converges only those keys, plus any its last sweep left
unconverged.  Every known key is converged again only when a site joins
the live set.  The full scan it replaced — absorb every stored key,
converge every key a live site holds — lives on here as the oracle:
over any schedule of puts, deletes, region outages and store faults,
both must leave the same stores, version vectors, etags, shipments and
conflict count after every sweep.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cloud import BlobStore
from repro.cloud.storage import Container
from repro.cloud.errors import StorageUnavailable
from repro.geo import RegionStatus, RegionTopology, Replicator, VersionVector
from repro.sim import Simulator


@pytest.fixture
def sim():
    return Simulator()


# -- the change feed ---------------------------------------------------------


def test_written_since_walks_the_writes_after_a_mark(sim):
    store = BlobStore(sim)
    container = store.create_container("data")
    assert (container.writes, container.written_since(0)) == (0, [])
    for key in ("a", "b", "c"):
        container.put(key, key.upper())
    mark = container.writes
    assert mark == 3 and container.written_since(mark) == []
    container.put("a", "A")  # a re-put, even of the same payload, moves
    assert container.written_since(0) == ["b", "c", "a"]
    assert container.written_since(mark) == ["a"]
    container.delete("b")
    assert container.written_since(0) == ["c", "a"]
    store.set_fault("torn_write")
    torn = container.put("d", "a payload the fault cuts short")
    assert torn.payload != "a payload the fault cuts short"
    assert container.written_since(mark) == ["a", "d"]
    assert container.written_since(container.writes) == []


def test_written_since_refuses_while_the_store_is_faulted(sim):
    store = BlobStore(sim)
    container = store.create_container("data")
    store.set_fault("unavailable")
    with pytest.raises(StorageUnavailable):
        container.written_since(0)


# -- the rig -----------------------------------------------------------------


def _sites(sim, regions=("eu", "us"), containers=("data",),
           replicator=Replicator):
    topo = RegionTopology(sim, list(regions))
    stores = {r: BlobStore(sim, name=f"{r}-store") for r in regions}
    repl = replicator(sim, topo, interval=5.0)
    for region, store in stores.items():
        repl.add_site(region, store)
        for cname in containers:
            store.create_container(cname)
    for cname in containers:
        repl.replicate(cname)
    return topo, stores, repl


# -- a delete --------------------------------------------------------------


@pytest.mark.parametrize("deleter", ["eu", "us"])
def test_a_delete_is_kept_and_never_kills_the_replicator(sim, deleter):
    _, stores, repl = _sites(sim)
    repl.start()
    stores["eu"].container("data").put("k", {"v": 1})
    sim.run(until=12.0)
    assert len(repl.shipped) == 1
    stores[deleter].container("data").discard("k")
    sim.run(until=30.0)  # the elected source no longer stores the blob
    for region, store in stores.items():
        assert store.container("data").exists("k") == (region != deleter)
    assert len(repl.shipped) == 1


def test_a_rejoining_site_gets_the_blob_from_a_site_that_still_stores_it(sim):
    topo, stores, repl = _sites(sim, regions=("eu", "us", "ap"))
    topo.mark("ap", RegionStatus.DOWN)
    stores["eu"].container("data").put("k", {"v": 1})
    repl.sweep()
    stores["eu"].container("data").discard("k")
    topo.mark("ap", RegionStatus.HEALTHY)
    assert repl.sweep() == 1
    assert [(r.source, r.target) for r in repl.shipped] \
        == [("eu", "us"), ("us", "ap")]
    assert stores["ap"].container("data").get("k").payload == {"v": 1}
    assert not stores["eu"].container("data").exists("k")


def test_a_key_no_live_site_stores_ships_nothing(sim):
    topo, stores, repl = _sites(sim, regions=("eu", "us", "ap"))
    topo.mark("ap", RegionStatus.DOWN)
    stores["eu"].container("data").put("k", {"v": 1})
    repl.sweep()
    for region in ("eu", "us"):
        stores[region].container("data").discard("k")
    topo.mark("ap", RegionStatus.HEALTHY)
    assert repl.sweep() == 0
    assert not any(s.container("data").exists("k") for s in stores.values())


# -- the work bound ----------------------------------------------------------


def test_a_sweep_costs_the_writes_since_the_last_one(sim, monkeypatch):
    _, stores, repl = _sites(sim)
    data = stores["eu"].container("data")
    for i in range(200):
        data.put(f"k{i:03d}", {"v": i})
    assert repl.sweep() == 200
    gets, converged = [], []
    real_get, real_converge = Container.get, Replicator._converge_key

    def get(self, key):
        gets.append(key)
        return real_get(self, key)

    def converge(self, cname, key, live):
        converged.append(key)
        return real_converge(self, cname, key, live)

    monkeypatch.setattr(Container, "get", get)
    monkeypatch.setattr(Replicator, "_converge_key", converge)
    for _ in range(5):  # the shipments are not local writes
        assert repl.sweep() == 0
    assert (gets, converged) == ([], [])
    stores["us"].container("data").put("k007", {"v": "new"})
    assert repl.sweep() == 1
    assert converged == ["k007"]
    assert data.get("k007").payload == {"v": "new"}


# -- the oracle: the full scan -----------------------------------------------


class FullScanReplicator(Replicator):
    """Every sweep absorbs every stored key and converges every key a
    live site holds (the pre-feed sweep, with today's delete rule)."""

    def sweep(self):
        self.sweeps += 1
        live = self._live_sites()
        for region in live:
            for cname in self._containers:
                container = self._sites[region].create_container(cname)
                for key in container.list():
                    etag = container.get(key).etag
                    site_key = (region, cname, key)
                    if self._seen.get(site_key) == etag:
                        continue
                    base = self._versions.get(site_key, VersionVector())
                    self._versions[site_key] = base.increment(region)
                    self._seen[site_key] = etag
        shipped = 0
        for cname in self._containers:
            keys = {key for (region, c, key) in self._versions
                    if c == cname and region in live}
            for key in sorted(keys):
                shipped += self._converge_key(cname, key, live)
        return shipped


REGIONS = ("eu", "us", "ap")
CONTAINERS = ("data", "logs")
site = st.sampled_from(REGIONS)
blob_key = st.tuples(st.sampled_from(CONTAINERS), st.sampled_from("abc"))
payload = st.sampled_from([{"v": 1}, {"v": 2}, "three"])
steps = st.lists(st.one_of(
    st.tuples(st.just("put"), site, blob_key, payload),
    st.tuples(st.just("race"), st.permutations(REGIONS), blob_key,
              payload, payload),
    st.tuples(st.just("discard"), site, blob_key),
    st.tuples(st.sampled_from(["down", "heal", "fault", "clear"]), site),
    st.tuples(st.just("tick")),
    st.tuples(st.just("sweep")),
), max_size=40)


def _put(store, bkey, value):
    cname, key = bkey
    try:
        store.container(cname).put(key, value)
    except StorageUnavailable:
        pass  # the write is refused, as a client would see


def _step(world, step):
    sim, topo, stores, repl = world
    kind = step[0]
    if kind == "put":
        _put(stores[step[1]], step[2], step[3])
    elif kind == "race":  # both sites write before either is swept
        _put(stores[step[1][0]], step[2], step[3])
        _put(stores[step[1][1]], step[2], step[4])
    elif kind == "discard":
        cname, key = step[2]
        try:
            stores[step[1]].container(cname).discard(key)
        except StorageUnavailable:
            pass
    elif kind == "down":
        topo.mark(step[1], RegionStatus.DOWN)
    elif kind == "heal":
        topo.mark(step[1], RegionStatus.HEALTHY)
    elif kind == "fault":
        stores[step[1]].set_fault("unavailable")
    elif kind == "clear":
        stores[step[1]].clear_fault()
    elif kind == "tick":
        sim.run(until=sim.now + 1.0)
    else:
        return repl.sweep()


def _state(world):
    _, _, stores, repl = world
    contents = {
        (region, cname): [(key, blob.payload, blob.created_at, blob.write)
                          for key, blob in
                          store.container(cname)._blobs.items()]
        for region, store in stores.items() for cname in CONTAINERS}
    return (contents, repl._versions, repl._seen, repl.shipped,
            repl.conflicts)


def _world(replicator):
    sim = Simulator()
    return (sim, *_sites(sim, REGIONS, CONTAINERS, replicator))


@settings(max_examples=300, deadline=None)
@given(steps)
# the elected version's only copies are deleted while an older one
# survives: the key stays pending, and ships once its holder has left
@example([("down", "ap"), ("put", "eu", ("data", "k"), {"v": 1}),
          ("sweep",), ("down", "us"), ("put", "eu", ("data", "k"), "three"),
          ("sweep",), ("discard", "eu", ("data", "k")), ("heal", "us"),
          ("heal", "ap"), ("sweep",), ("down", "eu"), ("sweep",)])
def test_the_feed_sweep_matches_the_full_scan(schedule):
    feed, scan = _world(Replicator), _world(FullScanReplicator)
    for step in schedule + [("heal", r) for r in REGIONS] \
            + [("clear", r) for r in REGIONS] + [("sweep",)]:
        assert _step(feed, step) == _step(scan, step)
        if step[0] == "sweep":
            assert _state(feed) == _state(scan)
