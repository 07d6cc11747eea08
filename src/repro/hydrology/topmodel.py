"""TOPMODEL — the topographic-index rainfall-runoff model.

A from-scratch implementation of the classic saturation-excess model
(Beven & Kirkby 1979; structure follows the canonical TMOD9502 code):

* the catchment is summarised by the distribution of the topographic
  index TI = ln(a / tanβ);
* the local saturation deficit of index class *i* is
  ``S_i = S̄ + m (λ − TI_i)`` where ``λ`` is the areal mean TI;
* classes with ``S_i ≤ 0`` are saturated: rain on them runs off
  directly (plus return flow), which is how topography creates the
  variable contributing area;
* baseflow is ``Q_b = SZQ · exp(−S̄/m)`` with ``SZQ = exp(t0 − λ)``;
* the unsaturated zone drains to the water table at
  ``S_uz / (S_i · t_d)``;
* runoff is routed through a pure channel delay plus a linear
  reservoir.

Units: depths in mm, time in steps of ``dt_hours``; transmissivity
parameter ``t0 = ln(T0)`` with T0 in m²/h.

The step loop is the hottest code in the repository — every calibration,
sensitivity sweep, GLUE ensemble and WPS Execute funnels through it — so
it is written for CPython speed without changing a single bit of the
output: per-class constants (the ``m·(λ − TI_i)`` deficit offsets, SZQ,
the class area fractions) are computed once per parameter set, the inner
loop touches only local names and pre-sanitised forcing lists, and batch
evaluation of many parameter sets over one forcing reuses the prepared
arrays via :class:`PreparedForcing` / :meth:`Topmodel.run_batch`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.hydrology.timeseries import TimeSeries


@dataclass(frozen=True)
class TopmodelParameters:
    """Calibratable TOPMODEL parameters.

    ``m`` — exponential transmissivity decay (mm); small m = flashy.
    ``t0`` — ln of areal transmissivity (ln(m²/h)).
    ``srmax`` — root-zone available water capacity (mm).
    ``sr0`` — initial root-zone deficit as a fraction of srmax.
    ``td`` — unsaturated-zone time delay (h/mm of deficit).
    ``q0_mm_h`` — baseflow at t=0; sets the antecedent wetness (the
    water table starts at the deficit producing this discharge).
    ``channel_delay_hours`` — pure advection delay to the outlet.
    ``reservoir_k`` — linear-reservoir release fraction per hour (0-1].
    ``interception_mm`` — canopy interception depth removed per wet step.
    ``infiltration_capacity_mm_h`` — Hortonian cap; rain above it runs
    off regardless of saturation (how soil compaction scenarios raise
    flood peaks).
    """

    m: float = 15.0
    t0: float = 1.2
    srmax: float = 25.0
    sr0: float = 0.1
    td: float = 0.5
    q0_mm_h: float = 0.15
    channel_delay_hours: float = 2.0
    reservoir_k: float = 0.35
    interception_mm: float = 0.0
    infiltration_capacity_mm_h: float = 50.0

    #: Inclusive calibration ranges used by Monte Carlo samplers.
    RANGES = {
        "m": (5.0, 60.0),
        "t0": (-2.0, 4.0),
        "srmax": (5.0, 80.0),
        "sr0": (0.0, 0.8),
        "td": (0.1, 5.0),
        "q0_mm_h": (0.02, 1.0),
        "reservoir_k": (0.05, 0.9),
    }

    def validated(self) -> "TopmodelParameters":
        """Raise ValueError on physically meaningless values."""
        if self.m <= 0:
            raise ValueError("m must be positive")
        if self.srmax <= 0:
            raise ValueError("srmax must be positive")
        if not 0 <= self.sr0 <= 1:
            raise ValueError("sr0 is a fraction of srmax")
        if self.td <= 0:
            raise ValueError("td must be positive")
        if self.q0_mm_h <= 0:
            raise ValueError("q0_mm_h must be positive")
        if not 0 < self.reservoir_k <= 1:
            raise ValueError("reservoir_k in (0, 1]")
        if self.interception_mm < 0:
            raise ValueError("interception_mm must be non-negative")
        if self.infiltration_capacity_mm_h <= 0:
            raise ValueError("infiltration capacity must be positive")
        return self

    def with_updates(self, **kwargs) -> "TopmodelParameters":
        """A copy with some fields replaced."""
        return replace(self, **kwargs).validated()


@dataclass
class TopmodelResult:
    """Everything a TOPMODEL run produces."""

    flow: TimeSeries                 # total runoff at the outlet, mm/step
    baseflow: TimeSeries
    overland: TimeSeries
    saturated_fraction: TimeSeries   # contributing-area fraction
    actual_et: TimeSeries
    final_deficit_mm: float
    water_balance_error_mm: float

    def discharge_m3s(self, area_km2: float) -> TimeSeries:
        """Convert outlet runoff (mm/step) to discharge in m³/s."""
        factor = area_km2 * 1e6 * 1e-3 / (self.flow.dt)
        return self.flow.map(lambda v: v * factor)


@dataclass(frozen=True)
class PreparedForcing:
    """Forcing sanitised once, reusable across many parameter sets.

    ``rain`` has NaNs zeroed and negatives clamped; ``pet`` has
    negatives clamped (or is ``None``).  Preparing is O(n) and the step
    loop is O(n·classes), so a batch of P parameter sets over one
    forcing saves P−1 sanitisation passes plus all the per-run
    length/alignment checks.
    """

    start: float
    dt: float
    rain: Tuple[float, ...]
    pet: Optional[Tuple[float, ...]]

    @property
    def n(self) -> int:
        """Number of timesteps."""
        return len(self.rain)


class Topmodel:
    """TOPMODEL bound to one topographic-index distribution.

    ``ti_distribution`` is a sequence of ``(ti_value, area_fraction)``
    pairs; fractions must sum to ~1.
    """

    def __init__(self, ti_distribution: Sequence[Tuple[float, float]],
                 dt_hours: float = 1.0):
        if not ti_distribution:
            raise ValueError("empty topographic index distribution")
        total = sum(frac for _ti, frac in ti_distribution)
        if abs(total - 1.0) > 1e-6:
            raise ValueError(f"TI fractions sum to {total}, expected 1")
        if dt_hours <= 0:
            raise ValueError("dt_hours must be positive")
        self.ti = [(float(t), float(f)) for t, f in ti_distribution]
        self.dt_hours = dt_hours
        self.lam = sum(t * f for t, f in self.ti)  # areal mean TI
        # per-class vectors the step loop indexes instead of unpacking
        # (ti_value, fraction) tuples on every iteration
        self._tis = [t for t, _f in self.ti]
        self._fractions = [f for _t, f in self.ti]

    def prepare(self, rainfall: TimeSeries,
                pet: Optional[TimeSeries] = None) -> PreparedForcing:
        """Sanitise forcing once for reuse across parameter sets."""
        if pet is not None and len(pet) != len(rainfall):
            raise ValueError("PET series must match rainfall length")
        isnan = math.isnan
        rain = tuple(0.0 if isnan(v) else (v if v > 0.0 else 0.0)
                     for v in rainfall)
        pet_clean = None if pet is None else tuple(
            v if v > 0.0 else 0.0 for v in pet)
        return PreparedForcing(start=rainfall.start, dt=rainfall.dt,
                               rain=rain, pet=pet_clean)

    def run(self, rainfall: TimeSeries, pet: Optional[TimeSeries] = None,
            parameters: Optional[TopmodelParameters] = None) -> TopmodelResult:
        """Simulate the rainfall series; returns a :class:`TopmodelResult`.

        ``rainfall`` in mm/step; ``pet`` (optional) in mm/step aligned
        with the rainfall series.
        """
        return self.run_prepared(self.prepare(rainfall, pet), parameters)

    def run_batch(self, rainfall: TimeSeries,
                  parameter_sets: Sequence[TopmodelParameters],
                  pet: Optional[TimeSeries] = None) -> List[TopmodelResult]:
        """Run many parameter sets over one forcing, preparing it once.

        Results are identical to calling :meth:`run` per set.  This is
        the scalar reference the vectorized kernel
        (:func:`repro.hydrology.vectorized.run_batch_vectorized`) is
        compared against, by the tests and by the fastpath bench; an
        ensemble workload runs through
        :class:`~repro.perf.runner.EnsembleRunner` instead.
        """
        forcing = self.prepare(rainfall, pet)
        return [self.run_prepared(forcing, p) for p in parameter_sets]

    def run_prepared(self, forcing: PreparedForcing,
                     parameters: Optional[TopmodelParameters] = None
                     ) -> TopmodelResult:
        """The step loop over pre-sanitised forcing.

        Bit-for-bit equivalent to the original per-step formulation: the
        floating-point evaluation order of every accumulation is
        preserved, only attribute lookups and per-iteration allocations
        were hoisted out of the loop.
        """
        params = (parameters or TopmodelParameters()).validated()
        dt = self.dt_hours
        n = forcing.n
        rain_list = forcing.rain
        pet_list = forcing.pet

        # loop-invariant bindings: parameter fields, class constants and
        # builtins resolved once instead of per step (or per class)
        m = params.m
        srmax = params.srmax
        td = params.td
        interception_mm = params.interception_mm
        capacity = params.infiltration_capacity_mm_h * dt
        exp = math.exp

        szq = 1000.0 * exp(params.t0 - self.lam) * dt  # mm/step
        # initialise the water table at the deficit producing the declared
        # antecedent baseflow, so the run starts near steady state
        target_baseflow = params.q0_mm_h * dt
        if szq > target_baseflow:
            mean_deficit = m * math.log(szq / target_baseflow)
        else:
            mean_deficit = 1.0
        initial_deficit = mean_deficit
        root_deficit = params.sr0 * srmax
        initial_root_store = srmax - root_deficit

        # per-class constants for this parameter set: the local deficit is
        # S̄ + m(λ − TI_k), so m(λ − TI_k) is fixed per class
        lam = self.lam
        offsets = [m * (lam - t) for t in self._tis]
        fractions = self._fractions
        suz = [0.0] * len(offsets)   # unsaturated storage per class, mm

        total_in = 0.0
        total_out = 0.0
        flow_raw: List[float] = []
        base_out: List[float] = []
        over_out: List[float] = []
        satfrac_out: List[float] = []
        aet_out: List[float] = []
        flow_app = flow_raw.append
        base_app = base_out.append
        over_app = over_out.append
        satfrac_app = satfrac_out.append
        aet_app = aet_out.append

        for step in range(n):
            rain = rain_list[step]
            pet_step = 0.0 if pet_list is None else pet_list[step]
            total_in += rain

            # canopy interception
            intercepted = min(rain, interception_mm) if rain > 0 else 0.0
            rain_ground = rain - intercepted
            total_out += intercepted

            # Hortonian infiltration excess (compacted soils)
            infiltration_excess = rain_ground - capacity
            if infiltration_excess < 0.0:
                infiltration_excess = 0.0
            infiltrating = rain_ground - infiltration_excess

            # root-zone accounting: rain fills the root-zone deficit first
            to_root = (infiltrating if infiltrating < root_deficit
                       else root_deficit)
            root_deficit -= to_root
            drainage = infiltrating - to_root  # reaches the unsaturated zone

            # actual ET draws the root zone down
            aet = pet_step * max(0.0, 1.0 - root_deficit / srmax)
            aet = min(aet, srmax - root_deficit)
            root_deficit = min(srmax, root_deficit + aet)
            total_out += aet

            overland = infiltration_excess
            recharge = 0.0
            return_flow = 0.0
            saturated_area = 0.0

            k = 0
            for offset in offsets:
                local_deficit = mean_deficit + offset
                if local_deficit <= 0.0:
                    # saturated class: drainage and stored unsaturated
                    # water run straight off; the storage excess above
                    # saturation exfiltrates as return flow
                    fraction = fractions[k]
                    saturated_area += fraction
                    overland += fraction * (drainage + suz[k])
                    return_flow += fraction * (-local_deficit)
                    suz[k] = 0.0
                else:
                    # unsaturated drainage toward the water table
                    stored = suz[k] + drainage
                    flux = stored / (local_deficit * td) * dt
                    if flux > stored:
                        flux = stored
                    suz[k] = stored - flux
                    recharge += fractions[k] * flux
                k += 1

            overland += return_flow
            baseflow = szq * exp(-mean_deficit / m)
            # baseflow and return flow empty the saturated store (deficit
            # grows); recharge refills it; if recharge overfills the store
            # the excess exfiltrates rather than being lost
            new_deficit = mean_deficit + baseflow + return_flow - recharge
            if new_deficit < 0.0:
                overland += -new_deficit
                new_deficit = 0.0
            mean_deficit = new_deficit

            flow_app(baseflow + overland)
            base_app(baseflow)
            over_app(overland)
            satfrac_app(saturated_area)
            aet_app(aet)
            total_out += baseflow + overland

        routed = self._route(flow_raw, params)
        start, series_dt = forcing.start, forcing.dt
        # water balance over the runoff-generation stage (routing holds a
        # small residual in the channel store, excluded by design):
        # in = out + Δ(unsaturated) + Δ(root zone) − Δ(deficit)
        suz_store = sum(frac * suz[k]
                        for k, frac in enumerate(fractions))
        root_store = srmax - root_deficit
        storage_change = (suz_store
                          + (root_store - initial_root_store)
                          - (mean_deficit - initial_deficit))
        balance_error = total_in - total_out - storage_change

        def ts(values, name):
            return TimeSeries(start, series_dt, values, units="mm/step",
                              name=name)

        return TopmodelResult(
            flow=ts(routed, "flow"),
            baseflow=ts(base_out, "baseflow"),
            overland=ts(over_out, "overland"),
            saturated_fraction=TimeSeries(start, series_dt, satfrac_out,
                                          units="fraction",
                                          name="saturated_fraction"),
            actual_et=ts(aet_out, "actual_et"),
            final_deficit_mm=mean_deficit,
            water_balance_error_mm=balance_error,
        )

    def _route(self, flow: List[float],
               params: TopmodelParameters) -> List[float]:
        """Pure delay then a linear reservoir."""
        delay_steps = int(round(params.channel_delay_hours / self.dt_hours))
        delayed = [0.0] * delay_steps + flow[:len(flow) - delay_steps] \
            if delay_steps > 0 else list(flow)
        k = min(1.0, params.reservoir_k * self.dt_hours)
        routed = []
        store = 0.0
        for q in delayed:
            store += q
            out = store * k
            store -= out
            routed.append(out)
        return routed

    @staticmethod
    def exponential_ti_distribution(mean_ti: float = 6.9, spread: float = 1.2,
                                    classes: int = 15) -> List[Tuple[float, float]]:
        """A smooth synthetic TI distribution around ``mean_ti``.

        Useful for tests and for catchments without a DEM; real
        catchments derive theirs via :mod:`repro.data.dem`.
        """
        if classes < 2:
            raise ValueError("need at least two classes")
        lo, hi = mean_ti - 2.5 * spread, mean_ti + 3.5 * spread
        step = (hi - lo) / (classes - 1)
        tis = [lo + i * step for i in range(classes)]
        weights = [math.exp(-((t - mean_ti) ** 2) / (2 * spread ** 2))
                   for t in tis]
        total = sum(weights)
        return [(t, w / total) for t, w in zip(tis, weights)]
