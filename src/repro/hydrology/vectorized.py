"""Structure-of-arrays TOPMODEL: the whole ensemble advances per timestep.

The scalar step loop in :mod:`repro.hydrology.topmodel` evaluates one
parameter set at a time — O(n·K) Python bytecode per run, P times per
ensemble.  This module turns the ensemble axis into an array axis:
state lives in NumPy arrays of shape ``(K, P)`` (K topographic-index
classes × P parameter sets, class axis leading so the fused class
reduction contracts an outer axis) or ``(P,)`` (per-set scalars), and
one timestep of the *entire ensemble* is a fixed sequence of array
ops — deficit update, saturation partition, unsaturated drainage,
baseflow, routing — regardless of P.

Numerical contract (the "ulp bound", pinned by
``benchmarks/bench_model_fastpath.py`` and the hypothesis property test
in ``tests/test_topmodel_vectorized.py``):

* Everything computed **once per parameter set** (SZQ, the initial
  deficit, the ``m·(λ − TI_k)`` offsets) uses ``math.exp``/``math.log``
  in a plain Python loop, exactly as the scalar kernel does — those
  constants are bit-identical.
* Per-step **element-wise** array ops (add/sub/mul/div/minimum/maximum)
  are IEEE-754 double ops, bit-identical to their scalar counterparts.
  Masking is mask *arithmetic* (x·1.0 = x, x·0.0 = 0.0 — exact), and
  the fused class reduction (``einsum`` over the leading K axis)
  accumulates classes strictly in order, matching the scalar kernel's
  class loop bit for bit.
* Exactly **one** per-step operation may differ from the scalar loop by
  rounding: ``np.exp`` (the baseflow recession) is within 1 ulp of
  ``math.exp`` but not always bit-equal.  Because the saturation
  deficit is recursive, that single ulp can compound over the run, so
  the *pinned* bound is end-to-end: every output series agrees with
  the scalar oracle within relative 1e-9 (observed ≤ ~1e-13 on the
  bench workload).
* The kernel is **chunk-invariant**: evaluating any subset of the
  parameter sets yields bit-identical rows, because every op is
  element-wise per set or reduces only over that set's own K classes
  (single-set batches are padded to two columns so einsum's 1-D
  special case never changes the accumulation).  ``DurableSweep``
  relies on this: it evaluates one batch per attempt, so a sweep
  resumed from a checkpoint is bit-equal to one batch over every set.

Without NumPy the module degrades gracefully: ``HAVE_NUMPY`` is False
and every entry point falls back to the scalar loop, bit-identical to
``Topmodel.run_batch``.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

from repro.hydrology.timeseries import TimeSeries
from repro.hydrology.topmodel import (
    PreparedForcing,
    Topmodel,
    TopmodelParameters,
    TopmodelResult,
)

try:
    import numpy as _np
except ImportError:                  # pragma: no cover - exercised in CI
    _np = None

#: True when the vectorized kernel can actually run; consumers
#: (TopmodelEnsemble, EnsembleRunner backend resolution, the bench)
#: treat False as "select the scalar path".
HAVE_NUMPY = _np is not None

#: Documented end-to-end agreement bound of the vectorized kernel
#: against the scalar oracle (relative, per output sample; see module
#: docstring for where the rounding enters).
VECTOR_REL_BOUND = 1e-9
#: Absolute floor for samples near zero (mm/step scale).
VECTOR_ABS_BOUND = 1e-12


#: Units of the result series the batch kernel materialises on demand.
_DEFERRED_UNITS = {
    "baseflow": "mm/step",
    "overland": "mm/step",
    "saturated_fraction": "fraction",
    "actual_et": "mm/step",
}


class _LazyTopmodelResult(TopmodelResult):
    """A :class:`TopmodelResult` whose diagnostic series materialise on
    first access.

    Ensemble consumers overwhelmingly read ``flow`` (NSE, discharge
    conversion); ``baseflow``/``overland``/``saturated_fraction``/
    ``actual_et`` are diagnostics most sweeps never touch.  Converting
    an array column to a list of Python floats is the single largest
    fixed cost of the batch kernel's result assembly, so ``flow`` is
    handed over eagerly and the other four stay as columns of the
    batch's shared output arrays until the attribute is first read
    (the built series is then cached as a plain instance attribute).
    Values are identical either way — laziness changes *when* the
    conversion happens, never what it produces.
    """

    def __init__(self, flow: TimeSeries, deferred: Dict[str, object],
                 index: int, n: int, start: float, dt: float,
                 final_deficit_mm: float, water_balance_error_mm: float):
        # deliberately not the dataclass __init__: the four deferred
        # fields stay unset until __getattr__ materialises them
        self.flow = flow
        self._deferred = deferred       # field name -> (n, P) array|None
        self._index = index
        self._n = n
        self._start = start
        self._dt = dt
        self.final_deficit_mm = final_deficit_mm
        self.water_balance_error_mm = water_balance_error_mm

    def __getattr__(self, name: str):
        units = _DEFERRED_UNITS.get(name)
        if units is None:
            raise AttributeError(name)
        state = self.__dict__
        source = state["_deferred"][name]
        values = ([0.0] * state["_n"] if source is None
                  else source[:, state["_index"]].tolist())
        series = TimeSeries._wrap_floats(state["_start"], state["_dt"],
                                         values, units, name)
        state[name] = series
        return series


def run_batch_vectorized(model: Topmodel, forcing: PreparedForcing,
                         parameter_sets: Sequence[Optional[TopmodelParameters]]
                         ) -> List[TopmodelResult]:
    """Evaluate ``parameter_sets`` over one forcing as array ops.

    Returns one :class:`TopmodelResult` per input set, in input order,
    agreeing with :meth:`Topmodel.run_prepared` within the documented
    ulp bound (:data:`VECTOR_REL_BOUND`).  Falls back to the scalar
    loop, bit-identically, when NumPy is unavailable.
    """
    if not HAVE_NUMPY:
        return [model.run_prepared(forcing, p) for p in parameter_sets]
    params = [(p or TopmodelParameters()).validated()
              for p in parameter_sets]
    if not params:
        return []
    if len(params) == 1:
        # einsum's single-column special case collapses the class
        # contraction to a 1-D dot with pairwise accumulation — a
        # different rounding than the ordered sum every P ≥ 2 batch
        # uses.  Evaluate padded to two identical columns so all batch
        # sizes share one code path (chunk invariance incl. chunks of
        # one), and keep the first result.
        return run_batch_vectorized(model, forcing,
                                    [params[0], params[0]])[:1]
    np = _np
    n_sets = len(params)
    dt = model.dt_hours
    lam = model.lam
    tis = np.asarray(model._tis, dtype=np.float64)          # (K,)
    fractions = np.asarray(model._fractions, dtype=np.float64)

    # ---- per-set constants: math.exp/math.log so these match the
    # scalar kernel bit for bit (rounding may only enter per step) ----
    m = np.array([p.m for p in params])
    srmax = np.array([p.srmax for p in params])
    td = np.array([p.td for p in params])
    interception = np.array([p.interception_mm for p in params])
    capacity = np.array([p.infiltration_capacity_mm_h * dt for p in params])
    szq = np.array([1000.0 * math.exp(p.t0 - lam) * dt for p in params])
    deficit0 = []
    for p, szq_i in zip(params, szq):
        target = p.q0_mm_h * dt
        deficit0.append(p.m * math.log(szq_i / target)
                        if szq_i > target else 1.0)
    mean_deficit = np.array(deficit0)
    initial_deficit = mean_deficit.copy()
    root_deficit = np.array([p.sr0 * p.srmax for p in params])
    initial_root_store = srmax - root_deficit

    # state is laid out (K, P) — class axis leading — so that the fused
    # K-reduction below contracts the *leading* axis, which einsum
    # evaluates as a strict left-to-right accumulation over classes:
    # bit-identical to the scalar kernel's ``for each class`` loop
    offsets = (lam - tis)[:, None] * m[None, :]             # (K, P)
    # materialised (K, P) copy of td: same-shape ufunc loops skip the
    # broadcast machinery (~2x faster per step, bit-identical result)
    td_full = np.ascontiguousarray(
        np.broadcast_to(td[None, :], offsets.shape))
    # a / -m == -(a / m) exactly (IEEE rounding is sign-symmetric), so
    # dividing by the negated m fuses the baseflow exponent's negation
    neg_m = -m
    any_interception = bool(interception.any())

    n = forcing.n
    rain_list = forcing.rain
    pet_list = forcing.pet
    has_pet = pet_list is not None
    # output series as (n, P) so each step writes one contiguous row
    flow_raw = np.empty((n, n_sets))
    base_out = np.empty((n, n_sets))
    over_out = np.empty((n, n_sets))
    satfrac_out = np.empty((n, n_sets))
    # zeros: dry-PET steps skip writes; without PET skip the array too
    aet_out = np.zeros((n, n_sets)) if has_pet else None
    total_in = 0.0
    total_out = np.zeros(n_sets)

    # preallocated step workspace — the loop allocates nothing.  The
    # four K-reductions (saturated area, saturated storage, saturated
    # deficit, unsaturated flux) live as planes of one (4, K, P) block
    # — each plane a contiguous (K, P) array — so a single einsum
    # against the class fractions fuses them; masking is mask
    # *arithmetic* (satf ∈ {0.0, 1.0}), which is exact — x·1.0 = x and
    # x·0.0 = 0.0 for every finite x — and keeps NaN/inf out of the
    # kernel entirely (no errstate needed).
    reduce_block = np.empty((4, len(model._tis), n_sets))
    satf = reduce_block[0]              # 1.0 where the class is saturated
    sat_stored = reduce_block[1]        # stored water of saturated classes
    sat_deficit = reduce_block[2]       # (negative) deficit of saturated
    flux = reduce_block[3]              # drainage flux of unsaturated
    reduced = np.empty((4, n_sets))
    saturated_area = reduced[0]
    sat_overland = reduced[1]
    neg_return_flow = reduced[2]
    recharge = reduced[3]
    local_deficit = np.empty_like(offsets)
    unsat_stored = np.empty_like(offsets)
    denom = np.empty_like(offsets)
    stored_buf = np.empty_like(offsets)
    suz = np.zeros_like(offsets)
    suz_next = np.empty_like(offsets)
    scratch = np.empty(n_sets)
    intercepted = np.empty(n_sets)
    rain_ground = np.empty(n_sets)
    infiltration_excess = np.empty(n_sets)
    infiltrating = np.empty(n_sets)
    to_root = np.empty(n_sets)
    drainage = np.empty(n_sets)
    aet = np.empty(n_sets)

    # hoisted ufunc bindings: the loop below dispatches ~30 of these
    # per step, and the module-attribute lookups add up at this grain
    _add, _sub, _mul, _div = np.add, np.subtract, np.multiply, np.divide
    _min, _max, _le = np.minimum, np.maximum, np.less_equal
    _einsum, _exp, _copyto = np.einsum, np.exp, np.copyto
    unit_dt = dt == 1.0

    for step in range(n):
        rain = rain_list[step]
        pet_step = 0.0 if pet_list is None else pet_list[step]
        total_in += rain

        if rain > 0.0:
            if any_interception:
                _min(rain, interception, out=intercepted)
                _sub(rain, intercepted, out=rain_ground)
                total_out += intercepted
                rg = rain_ground
            else:
                rg = rain
            _sub(rg, capacity, out=infiltration_excess)
            _max(infiltration_excess, 0.0, out=infiltration_excess)
            _sub(rg, infiltration_excess, out=infiltrating)
            _min(infiltrating, root_deficit, out=to_root)
            root_deficit -= to_root
            _sub(infiltrating, to_root, out=drainage)
            _add(suz, drainage, out=stored_buf)
            stored = stored_buf
            iex = infiltration_excess
        else:
            # dry step: every intermediate above is exactly 0.0 and the
            # scalar kernel's updates reduce to identities (x − 0 = x),
            # so stored *is* suz — skipping the ops changes nothing
            iex = 0.0
            stored = suz

        if pet_step > 0.0:
            _div(root_deficit, srmax, out=aet)
            _sub(1.0, aet, out=aet)
            _max(aet, 0.0, out=aet)
            _mul(aet, pet_step, out=aet)
            _sub(srmax, root_deficit, out=scratch)
            _min(aet, scratch, out=aet)
            _add(root_deficit, aet, out=scratch)
            _min(srmax, scratch, out=root_deficit)
            total_out += aet
            aet_out[step] = aet

        _add(mean_deficit, offsets, out=local_deficit)
        _le(local_deficit, 0.0, out=satf, casting="unsafe")
        # stored − stored·satf is stored·(1 − satf) exactly: the stored
        # water of the unsaturated classes, 0.0 in the saturated ones
        _mul(stored, satf, out=sat_stored)
        _sub(stored, sat_stored, out=unsat_stored)

        # unsaturated drainage toward the water table; saturated classes
        # (local·td ≤ 0) get a dummy denominator of 1.0 and drain 0/1 = 0
        _mul(local_deficit, td_full, out=denom)
        _max(denom, satf, out=denom)
        _div(unsat_stored, denom, out=flux)
        if not unit_dt:
            # flux · 1.0 is exact — skip the op at the hourly timestep
            _mul(flux, dt, out=flux)
        _min(flux, unsat_stored, out=flux)
        _sub(unsat_stored, flux, out=suz_next)
        _mul(local_deficit, satf, out=sat_deficit)
        # einsum over the class axis, not BLAS dot: gemv's blocking
        # varies with the column count, so dot would break the
        # chunk-invariance DurableSweep checkpoints depend on, while
        # this contraction accumulates classes k = 0..K-1 strictly in
        # order — the same order (hence the same bits) as the scalar
        # kernel's class loop
        _einsum("akp,k->ap", reduce_block, fractions, out=reduced)
        suz, suz_next = suz_next, suz

        # baseflow/overland computed straight into their output rows
        baseflow = base_out[step]
        overland = over_out[step]
        _add(iex, sat_overland, out=overland)
        _sub(overland, neg_return_flow, out=overland)
        _div(mean_deficit, neg_m, out=scratch)
        _exp(scratch, out=scratch)
        _mul(szq, scratch, out=baseflow)
        mean_deficit += baseflow
        mean_deficit -= neg_return_flow
        mean_deficit -= recharge
        if mean_deficit.min() < 0.0:
            negative = mean_deficit < 0.0
            _sub(overland, mean_deficit, out=overland,
                 where=negative)
            _copyto(mean_deficit, 0.0, where=negative)

        _add(baseflow, overland, out=flow_raw[step])
        satfrac_out[step] = saturated_area
        total_out += flow_raw[step]

    routed = _route_batch(np, flow_raw, params, dt)

    suz_store = np.einsum("kp,k->p", suz, fractions)
    root_store = srmax - root_deficit
    storage_change = (suz_store
                      + (root_store - initial_root_store)
                      - (mean_deficit - initial_deficit))
    balance_error = total_in - total_out - storage_change

    start, series_dt = forcing.start, forcing.dt
    flow_lists = routed.T.tolist()
    deferred = {"baseflow": base_out, "overland": over_out,
                "saturated_fraction": satfrac_out, "actual_et": aet_out}
    wrap = TimeSeries._wrap_floats
    results = []
    for i, flow_v in enumerate(flow_lists):
        results.append(_LazyTopmodelResult(
            flow=wrap(start, series_dt, flow_v, "mm/step", "flow"),
            deferred=deferred, index=i, n=n, start=start, dt=series_dt,
            final_deficit_mm=float(mean_deficit[i]),
            water_balance_error_mm=float(balance_error[i]),
        ))
    return results


def _route_batch(np, flow_raw, params, dt_hours):
    """Channel delay + linear reservoir for all sets at once.

    ``flow_raw`` is laid out ``(n, P)``.  The pure delay groups sets by
    their (integer) delay step count and shifts each group with one
    slice copy; the reservoir recursion then runs once over time with
    ``(P,)`` element-wise ops — the same left-to-right store updates as
    the scalar ``_route``.
    """
    n, n_sets = flow_raw.shape
    delays = [int(round(p.channel_delay_hours / dt_hours)) for p in params]
    delayed = np.zeros_like(flow_raw)
    for delay in set(delays):
        cols = [i for i, d in enumerate(delays) if d == delay]
        if delay <= 0:
            delayed[:, cols] = flow_raw[:, cols]
        elif delay < n:
            delayed[delay:, cols] = flow_raw[:n - delay, cols]
    k = np.minimum(1.0, np.array([p.reservoir_k for p in params]) * dt_hours)
    routed = np.empty_like(flow_raw)
    store = np.zeros(n_sets)
    released = np.empty(n_sets)
    for t in range(n):
        store += delayed[t]
        np.multiply(store, k, out=released)
        store -= released
        routed[t] = released
    return routed


class TopmodelEnsemble:
    """A batch simulator binding one model to one forcing.

    This is the object ensemble workloads hand to
    :class:`~repro.perf.runner.EnsembleRunner`: calling it with one
    parameter dict runs the scalar kernel (``simulate`` semantics), and
    :meth:`batch` evaluates a whole batch through the vectorized kernel
    (``batch`` semantics, the ``vector`` backend).  Any split of a batch
    returns the same bits as the whole (the kernel is chunk-invariant),
    which keeps a ``DurableSweep`` resumed from a checkpoint exact (one
    batch per attempt).  Everything it holds — the
    model's TI lists, the prepared forcing tuples, the base parameter
    dataclass — is plain data, so an instance pickles.

    ``vectorized`` advertises whether :meth:`batch` actually runs the
    array kernel; when NumPy is absent it is False and the runner's
    backend resolution selects the scalar path automatically.
    """

    def __init__(self, model: Topmodel, forcing: PreparedForcing,
                 base: Optional[TopmodelParameters] = None):
        self.model = model
        self.forcing = forcing
        self.base = (base or TopmodelParameters()).validated()
        self.vectorized = HAVE_NUMPY

    @classmethod
    def prepare(cls, model: Topmodel, rainfall: TimeSeries,
                pet: Optional[TimeSeries] = None,
                base: Optional[TopmodelParameters] = None
                ) -> "TopmodelEnsemble":
        """Sanitise ``rainfall``/``pet`` once and bind the simulator."""
        return cls(model, model.prepare(rainfall, pet), base)

    def parameters_of(self, updates: Dict[str, float]) -> TopmodelParameters:
        """The full parameter set for one dict of calibrated updates."""
        return self.base.with_updates(**updates)

    def __call__(self, updates: Dict[str, float]) -> TopmodelResult:
        """Scalar-kernel evaluation of one parameter dict."""
        return self.model.run_prepared(self.forcing,
                                       self.parameters_of(updates))

    def batch(self, update_sets: Sequence[Dict[str, float]]
              ) -> List[TopmodelResult]:
        """Vectorized-kernel evaluation of many parameter dicts."""
        return run_batch_vectorized(
            self.model, self.forcing,
            [self.parameters_of(u) for u in update_sets])
