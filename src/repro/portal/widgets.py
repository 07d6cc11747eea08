"""Visualization and modelling widgets (Figures 5 and 6).

Widgets are the "bespoke web interfaces ... developed to suit the
particular factors in question".  Three are reproduced:

* :class:`TimeSeriesWidget` — live sensor data "presented as time
  series graphs";
* :class:`MultimodalWidget` — "water temperature and turbidity linked
  with the corresponding webcam image taken roughly at the same time";
* :class:`ModellingWidget` — the LEFT flagship: scenario buttons,
  parameter sliders that "default to the settings for each scenario",
  on-demand cloud model runs, hydrograph plots and run comparison.

The modelling widget talks WPS over the simulated network and always
addresses the instance its session currently points at, so broker-driven
migrations are transparent — exactly the property the stateless REST
design buys.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.broker.sessions import UserSession
from repro.data.sensors import Sensor
from repro.data.webcam import WebcamArchive, WebcamFrame
from repro.hydrology.scenarios import STANDARD_SCENARIOS
from repro.hydrology.timeseries import TimeSeries
from repro.portal.render import ChartSpec, Series
from repro.resilience import ResilientClient, RetryPolicy
from repro.services.client import RestClient
from repro.services.sos import Observation
from repro.services.transport import HttpResponse, Network
from repro.sim import Signal, Simulator


class WebcamWidget:
    """The webcam marker's widget: latest frame plus a browsable archive."""

    def __init__(self, webcam: WebcamArchive):
        self.webcam = webcam

    def latest_frame(self) -> Optional[WebcamFrame]:
        """The most recent capture (None if the camera never fired)."""
        frames = self.webcam.frames()
        return frames[-1] if frames else None

    def frame_at(self, time: float) -> Optional[WebcamFrame]:
        """The capture nearest to ``time``."""
        return self.webcam.nearest(time)

    def filmstrip(self, begin: float, end: float,
                  max_frames: int = 12) -> List[WebcamFrame]:
        """An evenly thinned selection of frames for the strip view."""
        frames = self.webcam.window(begin, end)
        if len(frames) <= max_frames:
            return frames
        step = len(frames) / max_frames
        return [frames[int(i * step)] for i in range(max_frames)]

    def stage_series(self, begin: float, end: float) -> List[Tuple[float, float]]:
        """(time, stage) points from frames tagged with river stage."""
        return [(f.time, f.tags["stage_m"])
                for f in self.webcam.window(begin, end)
                if "stage_m" in f.tags]


class TimeSeriesWidget:
    """A time-series graph over one sensor's observations."""

    def __init__(self, sensor: Sensor):
        self.sensor = sensor

    def chart(self, begin: float, end: float) -> ChartSpec:
        """The Flot spec for the sensor's window."""
        observations = self.sensor.window(begin, end)
        description = self.sensor.description
        points = [(obs.time / 3600.0, obs.value) for obs in observations]
        spec = ChartSpec(
            title=f"{description.observed_property} at "
                  f"{description.procedure_id}",
            y_label=f"{description.observed_property} ({description.units})",
        )
        spec.add(Series(label=description.procedure_id, points=points,
                        units=description.units))
        return spec

    def latest_value(self) -> Optional[float]:
        """The most recent observation's value."""
        latest = self.sensor.latest()
        return latest.value if latest else None


@dataclass
class MultimodalView:
    """One time-aligned multimodal snapshot."""

    time: float
    observations: Dict[str, Observation]
    frame: Optional[WebcamFrame]

    def alignment_error(self) -> float:
        """Largest time offset between the snapshot and its parts."""
        offsets = [abs(obs.time - self.time)
                   for obs in self.observations.values()]
        if self.frame is not None:
            offsets.append(abs(self.frame.time - self.time))
        return max(offsets, default=0.0)


class MultimodalWidget:
    """Combined sensors + webcam view (Figure 5)."""

    def __init__(self, sensors: List[Sensor], webcam: WebcamArchive):
        if not sensors:
            raise ValueError("need at least one sensor")
        self.sensors = sensors
        self.webcam = webcam

    def view_at(self, time: float) -> MultimodalView:
        """The nearest observation of each modality to ``time``."""
        observations: Dict[str, Observation] = {}
        for sensor in self.sensors:
            candidates = sensor.observations
            if candidates:
                nearest = min(candidates, key=lambda o: abs(o.time - time))
                observations[sensor.description.observed_property] = nearest
        return MultimodalView(time=time, observations=observations,
                              frame=self.webcam.nearest(time))

    def chart(self, begin: float, end: float) -> ChartSpec:
        """All sensor series overlaid, webcam capture times annotated."""
        spec = ChartSpec(title="Multimodal view")
        for sensor in self.sensors:
            description = sensor.description
            points = [(obs.time / 3600.0, obs.value)
                      for obs in sensor.window(begin, end)]
            spec.add(Series(label=description.observed_property,
                            points=points, units=description.units))
        spec.annotations["webcam frames"] = float(
            len(self.webcam.window(begin, end)))
        return spec


@dataclass
class SliderSpec:
    """One parameter slider, built from the WPS DescribeProcess document."""

    name: str
    minimum: float
    maximum: float
    value: Optional[float] = None
    abstract: str = ""

    def set(self, value: float) -> None:
        """Move the slider, enforcing its bounds."""
        if not self.minimum <= value <= self.maximum:
            raise ValueError(f"slider {self.name!r}: {value} outside "
                             f"[{self.minimum}, {self.maximum}]")
        self.value = value


@dataclass
class ModelRun:
    """One completed model run kept for comparison."""

    scenario: str
    inputs: Dict[str, Any]
    outputs: Dict[str, Any]
    requested_at: float
    completed_at: float

    @property
    def round_trip(self) -> float:
        """User-perceived latency of the run."""
        return self.completed_at - self.requested_at

    def hydrograph(self) -> TimeSeries:
        """The returned hydrograph as a TimeSeries."""
        return TimeSeries(0.0, self.outputs["dt_seconds"],
                          self.outputs["hydrograph_mm_h"], units="mm/h",
                          name=f"{self.outputs.get('model', 'model')}:"
                               f"{self.scenario}")


#: Sliders the widget exposes for TOPMODEL, in display order.
_TOPMODEL_SLIDERS = ("m", "srmax", "td", "q0_mm_h")

HELP_TEXT = (
    "The hydrograph shows how quickly rain reaching the ground becomes "
    "flow at your catchment outlet. Choose a land-use scenario with the "
    "buttons: each sets the model sliders to values agreed with local "
    "stakeholders. Move the sliders to explore 'what if' questions - "
    "the flood threshold line shows when flow would put property at "
    "risk. Every run executes in the cloud; nothing is installed on "
    "your device."
)


#: How patient the widget is overall: sessions queue for replicas during
#: flash crowds and public instances take minutes to boot, so the widget
#: waits out provisioning rather than surfacing an error to the user.
WIDGET_DEADLINE = 3600.0
#: how long an async run is polled before the widget gives up
ASYNC_MAX_WAIT = 900.0
#: rows per page of the dashboard's latest table, and runs it lists
DASHBOARD_PAGE = 50
DASHBOARD_RUNS = 20

#: How long one attempt waits for its answer (``request_timeout``; a
#: bench that drives long model runs raises it on the widget).
REQUEST_TIMEOUT = 120.0

#: Widget-side retry policy — generous, because the user's alternative
#: is a spinner followed by an error page.  Jittered exponential backoff
#: spreads stampeding retries; ``attempt_timeout`` is overridden per
#: call by ``request_timeout`` (long model runs need long waits).
WIDGET_RETRY = RetryPolicy(max_attempts=10, base_delay=4.0, max_delay=60.0,
                           deadline=WIDGET_DEADLINE)


class ModellingWidget:
    """The LEFT modelling widget (Figure 6).

    All traffic goes through the typed v1 :class:`RestClient` — the
    widget no longer hand-rolls retry loops; the resilience fabric
    (retry/backoff, breakers, admission, address-waiting) masks
    migrations, crashes and overload from the user.
    """

    def __init__(self, sim: Simulator, network: Network,
                 session: UserSession, process_id: str,
                 flood_threshold_mm_h: float = 2.0,
                 resilient: Optional[ResilientClient] = None):
        self.sim = sim
        self.network = network
        self.session = session
        self.process_id = process_id
        self.flood_threshold_mm_h = flood_threshold_mm_h
        self.request_timeout = REQUEST_TIMEOUT
        self.scenario = "baseline"
        self.sliders: Dict[str, SliderSpec] = {}
        self.runs: List[ModelRun] = []
        self.errors: List[str] = []
        self._run_ids = itertools.count()
        if resilient is None:
            resilient = ResilientClient(sim, network, service="wps",
                                        policy=WIDGET_RETRY)
        # the address is a callable: every retry re-reads the session's
        # assignment, so broker-driven migrations are followed for free
        self.client = RestClient(
            sim, network, lambda: self.session.instance_address,
            resilient=resilient, deadline=WIDGET_DEADLINE)

    # -- widget chrome -----------------------------------------------------------

    @property
    def scenario_buttons(self) -> List[str]:
        """The four scenario buttons, display order."""
        return list(STANDARD_SCENARIOS)

    def help_text(self) -> str:
        """The educational help panel text."""
        return HELP_TEXT

    def load(self) -> Signal:
        """Fetch DescribeProcess and build the sliders.

        Returns a signal fired with True on success.
        """
        done = self.sim.signal("widget.load")
        self.client.trace = self.session.trace_context

        def loader():
            response = yield self.client.describe_process(
                self.process_id)
            if not (isinstance(response, HttpResponse) and response.ok):
                self.errors.append(f"load failed: {response!r}")
                done.fire(False)
                return
            for spec in response.body["inputs"]:
                if spec["name"] in _TOPMODEL_SLIDERS and \
                        spec["minimum"] is not None:
                    self.sliders[spec["name"]] = SliderSpec(
                        name=spec["name"],
                        minimum=spec["minimum"],
                        maximum=spec["maximum"],
                        value=spec["default"],
                        abstract=spec.get("abstract") or "",
                    )
            done.fire(True)

        self.sim.spawn(loader(), name="widget.load")
        return done

    def select_scenario(self, key: str) -> None:
        """Press a scenario button; sliders snap to its defaults."""
        if key not in STANDARD_SCENARIOS:
            raise ValueError(f"unknown scenario {key!r}")
        self.scenario = key
        defaults = STANDARD_SCENARIOS[key].parameter_updates
        for name, slider in self.sliders.items():
            if name in defaults:
                slider.set(min(slider.maximum,
                               max(slider.minimum, defaults[name])))

    def set_slider(self, name: str, value: float) -> None:
        """Move one slider (expert exploration of sensitivity)."""
        if name not in self.sliders:
            raise KeyError(f"no slider {name!r}")
        self.sliders[name].set(value)

    # -- model execution ------------------------------------------------------------

    def run(self, **extra_inputs: Any) -> Signal:
        """Execute the model in the cloud with the current settings.

        Returns a signal fired with the :class:`ModelRun` (or ``None``
        on failure).  One automatic retry covers the
        migration/instance-replacement window.
        """
        done = self.sim.signal("widget.run")
        self.client.trace = self.session.trace_context
        inputs: Dict[str, Any] = {"scenario": self.scenario}
        for name, slider in self.sliders.items():
            if slider.value is not None:
                inputs[name] = slider.value
        inputs.update(extra_inputs)
        requested_at = self.sim.now
        # one key per button press: the generous widget retry policy can
        # replay the execute as often as it likes, the server runs the
        # model once and every replay collects the original response
        run_key = f"{self.session.session_id}:run:{next(self._run_ids)}"

        def runner():
            # address waits (a migration or replacement may leave the
            # session briefly unassigned), 503 backoff and crash retries
            # all live in the resilience fabric now
            response = yield self.client.execute_wps(
                self.process_id, inputs, timeout=self.request_timeout,
                idempotency_key=run_key)
            if not (isinstance(response, HttpResponse) and response.ok):
                self.errors.append(f"run failed: {response!r}")
                done.fire(None)
                return
            run = ModelRun(
                scenario=self.scenario,
                inputs=dict(inputs),
                outputs=response.body["outputs"],
                requested_at=requested_at,
                completed_at=self.sim.now,
            )
            self.runs.append(run)
            done.fire(run)

        self.sim.spawn(runner(), name="widget.run")
        return done

    def run_async(self, poll_interval: float = 5.0,
                  **extra_inputs: Any) -> Signal:
        """Execute via asynchronous WPS: accept now, poll statusLocation.

        Long ensemble or uncertainty runs shouldn't hold an HTTP request
        open; the async path returns a statusLocation immediately and
        the widget polls it — against *any* replica, since execution
        status lives in shared storage, not on the accepting server —
        for up to :data:`ASYNC_MAX_WAIT` seconds.
        """
        done = self.sim.signal("widget.run_async")
        self.client.trace = self.session.trace_context
        inputs: Dict[str, Any] = {"scenario": self.scenario}
        for name, slider in self.sliders.items():
            if slider.value is not None:
                inputs[name] = slider.value
        inputs.update(extra_inputs)
        requested_at = self.sim.now
        run_key = f"{self.session.session_id}:run:{next(self._run_ids)}"

        def runner():
            accept = yield self.client.execute_wps(
                self.process_id, inputs, mode="async",
                timeout=self.request_timeout, idempotency_key=run_key)
            if not (isinstance(accept, HttpResponse)
                    and accept.status == 202):
                self.errors.append(f"async accept failed: {accept!r}")
                done.fire(None)
                return
            location = accept.body["statusLocation"]
            deadline = self.sim.now + ASYNC_MAX_WAIT
            while self.sim.now < deadline:
                yield poll_interval
                status = yield self.client.poll_status(location)
                if not (isinstance(status, HttpResponse) and status.ok):
                    continue  # a migration blip; keep polling
                state = status.body["status"]
                if state == "succeeded":
                    run = ModelRun(
                        scenario=self.scenario,
                        inputs=dict(inputs),
                        outputs=status.body["outputs"],
                        requested_at=requested_at,
                        completed_at=self.sim.now,
                    )
                    self.runs.append(run)
                    done.fire(run)
                    return
                if state == "failed":
                    self.errors.append(
                        f"async run failed: {status.body.get('error')}")
                    done.fire(None)
                    return
            self.errors.append("async run timed out")
            done.fire(None)

        self.sim.spawn(runner(), name="widget.run_async")
        return done

    # -- output ------------------------------------------------------------------------

    def hydrograph_chart(self) -> ChartSpec:
        """The hydrograph plot for the latest run."""
        if not self.runs:
            raise ValueError("no runs yet")
        run = self.runs[-1]
        spec = ChartSpec(
            title=f"Flood hydrograph - {run.scenario}",
            y_label="flow (mm/h)",
        )
        spec.add(Series.from_timeseries(run.hydrograph()))
        # ensemble runs carry their structural spread: present the
        # uncertainty bounds the stakeholders asked for
        if "lower_mm_h" in run.outputs and "upper_mm_h" in run.outputs:
            dt = run.outputs["dt_seconds"]
            spec.add_band(
                TimeSeries(0.0, dt, run.outputs["lower_mm_h"],
                           units="mm/h", name="p10"),
                TimeSeries(0.0, dt, run.outputs["upper_mm_h"],
                           units="mm/h", name="p90"),
                label="structure spread")
        spec.add_threshold("flood threshold", self.flood_threshold_mm_h)
        return spec

    def comparison_chart(self) -> ChartSpec:
        """All stored runs overlaid — "comparison between model runs"."""
        if not self.runs:
            raise ValueError("no runs yet")
        spec = ChartSpec(title="Scenario comparison", y_label="flow (mm/h)")
        for run in self.runs:
            spec.add(Series.from_timeseries(run.hydrograph(),
                                            label=run.scenario))
        spec.add_threshold("flood threshold", self.flood_threshold_mm_h)
        return spec

    def summary_table(self) -> List[Dict[str, Any]]:
        """Peak/volume/threshold summary per stored run."""
        return [
            {
                "scenario": run.scenario,
                "peak_mm_h": run.outputs["peak_mm_h"],
                "peak_time_hours": run.outputs["peak_time_hours"],
                "volume_mm": run.outputs["volume_mm"],
                "threshold_exceeded": run.outputs["threshold_exceeded"],
                "round_trip_s": run.round_trip,
            }
            for run in self.runs
        ]


class CatchmentDashboard:
    """The stakeholder landing view, served from materialized views.

    Where the earlier widgets pull raw observations and recompute
    aggregates client-side, the dashboard reads the CQRS read API:
    per-catchment rolling stats (ETag-revalidated — an unchanged
    catchment costs header bytes), the latest-observation table
    (followed cursor page by cursor page) and the recent-runs index.
    This is the read path the million-user portal scales on.
    """

    def __init__(self, sim: Simulator, network: Network,
                 address: Any, catchment: str,
                 resilient: Optional[ResilientClient] = None):
        self.sim = sim
        self.catchment = catchment
        self.errors: List[str] = []
        self.client = RestClient(sim, network, address,
                                 resilient=resilient, service="read",
                                 deadline=WIDGET_DEADLINE)
        self.stats: Optional[Dict[str, Any]] = None
        self.latest: List[Dict[str, Any]] = []
        self.recent_runs: List[Dict[str, Any]] = []

    def refresh(self) -> Signal:
        """Pull stats, the full latest table and recent runs.

        Returns a signal fired with ``True`` when every panel loaded.
        The latest table is collected :data:`DASHBOARD_PAGE` rows a page,
        following ``nextCursor`` until the server stops offering one;
        the runs panel is the newest :data:`DASHBOARD_RUNS`.
        """
        done = self.sim.signal(f"dashboard.{self.catchment}")

        def loader():
            ok = True
            response = yield self.client.catchment_stats(self.catchment)
            if isinstance(response, HttpResponse) and response.ok:
                self.stats = response.body
            else:
                ok = False
                self.errors.append(f"stats failed: {response!r}")
            rows: List[Dict[str, Any]] = []
            cursor: Optional[str] = None
            while True:
                response = yield self.client.latest_observations(
                    cursor=cursor, limit=DASHBOARD_PAGE)
                if not (isinstance(response, HttpResponse) and response.ok):
                    ok = False
                    self.errors.append(f"latest failed: {response!r}")
                    break
                rows.extend(response.body.get("observations", []))
                cursor = response.body.get("nextCursor")
                if not cursor:
                    break
            self.latest = [row for row in rows
                           if row.get("catchment") in ("", self.catchment)]
            response = yield self.client.list_runs(limit=DASHBOARD_RUNS)
            if isinstance(response, HttpResponse) and response.ok:
                self.recent_runs = response.body.get("runs", [])
            else:
                ok = False
                self.errors.append(f"runs failed: {response!r}")
            done.fire(ok)

        self.sim.spawn(loader(), name=f"dashboard.{self.catchment}")
        return done

    def summary(self) -> Dict[str, Any]:
        """The dashboard's rendered state, one dict per panel."""
        return {
            "catchment": self.catchment,
            "stats": self.stats,
            "latestCount": len(self.latest),
            "recentRuns": [
                {"runId": run.get("runId"), "status": run.get("status")}
                for run in self.recent_runs
            ],
        }
