"""Property-based tests (hypothesis) on core invariants."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hydrology import (
    TimeSeries,
    Topmodel,
    TopmodelParameters,
    nash_sutcliffe_efficiency,
    rmse,
)
from repro.hydrology.fuse import FuseModel, gamma_route
from repro.sim import MetricsRegistry, RandomStreams, Simulator

finite_floats = st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False, allow_infinity=False)
rain_values = st.lists(st.floats(min_value=0.0, max_value=30.0), min_size=12,
                       max_size=120)


# -- simulator -----------------------------------------------------------------


@given(st.lists(st.floats(min_value=0.0, max_value=1e5), min_size=1,
                max_size=40))
def test_events_fire_in_nondecreasing_time_order(delays):
    sim = Simulator()
    fired = []
    for delay in delays:
        sim.schedule(delay, lambda d=delay: fired.append(sim.now))
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)


@given(st.lists(st.tuples(st.floats(min_value=0.01, max_value=100.0),
                          st.floats(min_value=0.0, max_value=50.0)),
                min_size=1, max_size=30))
def test_gauge_time_weighted_mean_within_range(changes):
    sim = Simulator()
    gauge = MetricsRegistry(sim).gauge("g")
    gauge.set(changes[0][1])
    t = 0.0
    for delay, value in changes:
        t += delay
        sim.schedule(t, gauge.set, value)
    sim.run(until=t + 1.0)
    values = [changes[0][1]] + [v for _d, v in changes]
    mean = gauge.time_weighted_mean()
    assert min(values) - 1e-9 <= mean <= max(values) + 1e-9


@given(st.integers(min_value=0, max_value=2**31), st.text(min_size=1,
                                                          max_size=20))
def test_random_streams_reproducible(seed, name):
    a = RandomStreams(seed).get(name).random()
    b = RandomStreams(seed).get(name).random()
    assert a == b


# -- time series -----------------------------------------------------------------


@given(st.lists(finite_floats, min_size=4, max_size=96),
       st.sampled_from([2, 3, 4]))
def test_resample_sum_preserves_total(values, factor):
    # trim so the length divides evenly: resample drops ragged tails
    n = (len(values) // factor) * factor
    ts = TimeSeries(0, 3600, values[:n])
    coarse = ts.resample(3600 * factor, how="sum")
    assert math.isclose(coarse.total(), ts.total(), rel_tol=1e-9,
                        abs_tol=1e-6)


@given(st.lists(st.one_of(finite_floats, st.just(math.nan)),
                min_size=1, max_size=60))
def test_fill_gaps_removes_all_nans(values):
    ts = TimeSeries(0, 60, values)
    for method in ("interpolate", "zero", "hold"):
        assert ts.fill_gaps(method).gap_count() == 0


@given(st.lists(finite_floats, min_size=2, max_size=60))
def test_interpolated_fill_within_bounds(values):
    # punch a hole in the middle and check the fill stays inside the
    # neighbouring values
    ts = TimeSeries(0, 60, [values[0], math.nan, values[-1]])
    filled = ts.fill_gaps("interpolate")
    lo, hi = min(values[0], values[-1]), max(values[0], values[-1])
    assert lo - 1e-9 <= filled.values[1] <= hi + 1e-9


@given(st.lists(finite_floats, min_size=1, max_size=60),
       st.integers(min_value=0, max_value=10))
def test_shift_preserves_length_and_prefix(values, steps):
    ts = TimeSeries(0, 60, values)
    steps = min(steps, len(values))
    shifted = ts.shift(steps)
    assert len(shifted) == len(ts)
    assert shifted.values[:steps] == [0.0] * steps


# -- metrics ------------------------------------------------------------------------


@given(st.lists(finite_floats, min_size=2, max_size=50))
def test_nse_perfect_fit_is_one(values):
    # needs variance in the observations
    if max(values) - min(values) < 1e-6:
        values = values + [values[0] + 10.0]
    assert nash_sutcliffe_efficiency(values, values) == 1.0


@given(st.lists(st.tuples(finite_floats, finite_floats), min_size=2,
                max_size=50))
def test_rmse_nonnegative_and_symmetric(pairs):
    obs = [o for o, _s in pairs]
    sim = [s for _o, s in pairs]
    assert rmse(obs, sim) >= 0.0
    assert math.isclose(rmse(obs, sim), rmse(sim, obs), rel_tol=1e-9)


@given(st.lists(finite_floats, min_size=2, max_size=50),
       st.lists(finite_floats, min_size=2, max_size=50))
def test_nse_never_exceeds_one(obs, sim):
    n = min(len(obs), len(sim))
    obs, sim = obs[:n], sim[:n]
    if max(obs) - min(obs) < 1e-6:
        obs = obs[:-1] + [obs[0] + 5.0]
    assert nash_sutcliffe_efficiency(obs, sim) <= 1.0 + 1e-12


# -- TOPMODEL -----------------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(rain_values,
       st.floats(min_value=5.0, max_value=60.0),
       st.floats(min_value=0.1, max_value=5.0),
       st.floats(min_value=0.02, max_value=1.0))
def test_topmodel_mass_balance_and_nonnegativity(rain, m, td, q0):
    model = Topmodel(Topmodel.exponential_ti_distribution(classes=8))
    params = TopmodelParameters(m=m, td=td, q0_mm_h=q0)
    result = model.run(TimeSeries(0, 3600, rain), parameters=params)
    assert abs(result.water_balance_error_mm) < 1e-6
    assert all(v >= 0.0 for v in result.flow)
    assert all(0.0 <= v <= 1.0 for v in result.saturated_fraction)
    assert result.final_deficit_mm >= 0.0


@settings(max_examples=15, deadline=None)
@given(rain_values)
def test_topmodel_more_rain_never_less_flow(rain):
    model = Topmodel(Topmodel.exponential_ti_distribution(classes=8))
    params = TopmodelParameters(q0_mm_h=0.3)
    base = model.run(TimeSeries(0, 3600, rain), parameters=params)
    double = model.run(TimeSeries(0, 3600, [v * 2 for v in rain]),
                       parameters=params)
    assert double.flow.total() >= base.flow.total() - 1e-9


# -- FUSE ---------------------------------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(rain_values)
def test_fuse_flow_nonnegative_and_bounded_by_input(rain):
    result = FuseModel().run(TimeSeries(0, 3600, rain))
    assert all(v >= 0.0 for v in result.flow)
    # output volume cannot exceed rainfall plus initial storage
    initial_storage = 0.3 * 50.0 + 0.3 * 200.0 + 0.3 * 0.4 * 50.0
    assert result.surface_runoff.total() + result.baseflow.total() <= \
        sum(rain) + initial_storage + 1e-6


@settings(max_examples=20, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=50.0), min_size=4,
                max_size=60),
       st.floats(min_value=0.5, max_value=5.0),
       st.floats(min_value=0.5, max_value=5.0))
def test_gamma_route_conserves_mass_modulo_tail(flow, shape, scale):
    routed = gamma_route(flow, shape, scale)
    assert len(routed) == len(flow)
    assert all(v >= -1e-12 for v in routed)
    # the kernel is normalised: routed mass never exceeds input mass
    assert sum(routed) <= sum(flow) + 1e-9


# -- storage --------------------------------------------------------------------------


@given(st.dictionaries(st.text(min_size=1, max_size=30),
                       st.text(max_size=100), min_size=1, max_size=20))
def test_blobstore_roundtrip(payloads):
    from repro.cloud import BlobStore
    container = BlobStore(Simulator()).create_container("c")
    for key, payload in payloads.items():
        container.put(key, payload)
    assert sorted(container.list()) == sorted(payloads)
    for key, payload in payloads.items():
        assert container.get(key).payload == payload


# -- workflow ---------------------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.integers(min_value=0, max_value=14),
                          st.integers(min_value=0, max_value=14)),
                max_size=40))
def test_random_dag_topological_order_valid(edges):
    from repro.workflow import Workflow, WorkflowNode
    workflow = Workflow("random")
    node_count = 15
    for i in range(node_count):
        # only allow edges from lower to higher ids: guaranteed acyclic
        deps = sorted({f"n{a}" for a, b in edges if b == i and a < i})
        workflow.add(WorkflowNode(f"n{i}", lambda p, u: len(u),
                                  depends_on=tuple(deps)))
    order = [n.node_id for n in workflow.topological_order()]
    assert sorted(order) == sorted(f"n{i}" for i in range(node_count))
    position = {nid: k for k, nid in enumerate(order)}
    for node in workflow.nodes():
        for dep in node.depends_on:
            assert position[dep] < position[node.node_id]
