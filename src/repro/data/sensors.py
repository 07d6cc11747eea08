"""In-situ sensor networks with live feeds.

The LEFT catchments had "deployments of in situ environmental sensors";
stakeholders wanted "live access to rainfall and river level sensors in
their catchments".  A :class:`Sensor` samples an underlying truth series
(generated weather, modelled river level) on its own cadence and appends
observations to its archive; :class:`SensorNetwork` groups sensors per
catchment and implements the observation-source interface
:class:`~repro.services.sos.SosService` consumes, so the whole network
is one ``replica()`` call away from being an OGC endpoint.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.hydrology.timeseries import TimeSeries
from repro.services.sos import Observation, SensorDescription
from repro.sim import RandomStreams, Simulator


class Sensor:
    """One in-situ instrument.

    ``truth`` maps a timestamp to the true value; the sensor adds
    calibration noise and stores an :class:`Observation` each sampling
    interval once :meth:`start_feed` runs.  Historical values can also
    be backfilled from a :class:`TimeSeries`.
    """

    def __init__(self, sim: Simulator, description: SensorDescription,
                 truth: Callable[[float], float],
                 sampling_interval: float = 900.0,
                 noise_std: float = 0.0,
                 streams: Optional[RandomStreams] = None):
        if sampling_interval <= 0:
            raise ValueError("sampling interval must be positive")
        self.sim = sim
        self.description = description
        self.truth = truth
        self.sampling_interval = sampling_interval
        self.noise_std = noise_std
        self.streams = streams or RandomStreams()
        self.observations: List[Observation] = []
        self._feeding = False
        #: Ingest hook: called with each new observation (live or
        #: backfilled).  The sensor network points this at the data
        #: plane's transactional outbox.
        self.on_observation: Optional[Callable[[Observation], None]] = None

    @property
    def procedure_id(self) -> str:
        """The sensor's SOS procedure identifier."""
        return self.description.procedure_id

    def observe_now(self) -> Observation:
        """Take one observation at the current simulated time."""
        value = self.truth(self.sim.now)
        if self.noise_std > 0:
            rng = self.streams.get(f"sensor.{self.procedure_id}")
            value += rng.gauss(0.0, self.noise_std)
        observation = Observation(
            procedure_id=self.procedure_id,
            observed_property=self.description.observed_property,
            time=self.sim.now,
            value=value,
            units=self.description.units,
        )
        self.observations.append(observation)
        if self.on_observation is not None:
            self.on_observation(observation)
        return observation

    def start_feed(self, until: Optional[float] = None) -> None:
        """Begin periodic sampling (optionally until a horizon)."""
        if self._feeding:
            return
        self._feeding = True

        def feed():
            while until is None or self.sim.now < until:
                yield self.sampling_interval
                self.observe_now()

        self.sim.spawn(feed(), name=f"sensor.{self.procedure_id}")

    def backfill(self, series: TimeSeries) -> int:
        """Load a historical series into the archive; returns count."""
        added = 0
        loaded: List[Observation] = []
        for t, value in zip(series.times(), series.values):
            loaded.append(Observation(
                procedure_id=self.procedure_id,
                observed_property=self.description.observed_property,
                time=t, value=value, units=self.description.units))
            added += 1
        self.observations.extend(loaded)
        self.observations.sort(key=lambda obs: obs.time)
        if self.on_observation is not None:
            # publish in time order so downstream consumers see the
            # backfill the way the live feed would have delivered it
            for observation in sorted(loaded, key=lambda obs: obs.time):
                self.on_observation(observation)
        return added

    def latest(self) -> Optional[Observation]:
        """Most recent observation, if any."""
        return self.observations[-1] if self.observations else None

    def window(self, begin: float, end: float) -> List[Observation]:
        """Observations in ``[begin, end]`` ordered by time."""
        return [obs for obs in self.observations if begin <= obs.time <= end]

    def to_timeseries(self, begin: float, end: float,
                      dt: Optional[float] = None) -> TimeSeries:
        """Grid the archive onto a regular series (NaN where no sample).

        ``dt`` defaults to the sensor's sampling interval.  Multiple
        observations in one interval keep the last; the result is what
        the QC pipeline and the models consume.
        """
        import math
        step = dt if dt is not None else self.sampling_interval
        if step <= 0:
            raise ValueError("dt must be positive")
        n = max(0, int(math.ceil((end - begin) / step)))
        values = [math.nan] * n
        for obs in self.window(begin, end):
            index = int((obs.time - begin) // step)
            if 0 <= index < n:
                values[index] = obs.value
        return TimeSeries(begin, step, values,
                          units=self.description.units,
                          name=self.procedure_id)


class SensorNetwork:
    """All sensors of one deployment; the SOS observation source."""

    def __init__(self, sim: Simulator,
                 streams: Optional[RandomStreams] = None):
        self.sim = sim
        self.streams = streams or RandomStreams()
        self._sensors: Dict[str, Sensor] = {}
        self._outbox = None

    def attach_outbox(self, outbox) -> None:
        """Publish every ingest (live and backfill) to the data plane.

        Observation events are partitioned per catchment — one stream
        ``obs.<catchment>`` each — so per-catchment ordering is
        total and the stats view's state never depends on how other
        catchments drain.  Sensors added later are wired automatically.
        """
        self._outbox = outbox
        for sensor in self._sensors.values():
            self._wire(sensor)

    def _wire(self, sensor: Sensor) -> None:
        description = sensor.description
        catchment = description.catchment or "uncatchmented"
        stream = f"obs.{catchment}"

        def publish(observation: Observation) -> None:
            self._outbox.record(
                stream, "observation", key=observation.procedure_id,
                payload={
                    "procedure": observation.procedure_id,
                    "observedProperty": observation.observed_property,
                    "time": observation.time,
                    "value": observation.value,
                    "uom": observation.units,
                    "catchment": description.catchment,
                })

        sensor.on_observation = publish

    def add_sensor(self, description: SensorDescription,
                   truth: Callable[[float], float],
                   sampling_interval: float = 900.0,
                   noise_std: float = 0.0) -> Sensor:
        """Deploy a sensor; procedure ids must be unique."""
        if description.procedure_id in self._sensors:
            raise ValueError(f"duplicate procedure {description.procedure_id!r}")
        sensor = Sensor(self.sim, description, truth,
                        sampling_interval=sampling_interval,
                        noise_std=noise_std, streams=self.streams)
        self._sensors[description.procedure_id] = sensor
        if self._outbox is not None:
            self._wire(sensor)
        return sensor

    def sensor(self, procedure_id: str) -> Sensor:
        """Look a sensor up by procedure id."""
        return self._sensors[procedure_id]

    def start_all_feeds(self, until: Optional[float] = None) -> None:
        """Start the live feed of every sensor."""
        for sensor in self._sensors.values():
            sensor.start_feed(until)

    def by_catchment(self, catchment: str) -> List[Sensor]:
        """Sensors deployed in the named catchment."""
        return [s for s in self._sensors.values()
                if s.description.catchment == catchment]

    # -- SOS observation-source interface ---------------------------------------

    def procedures(self) -> List[str]:
        """All procedure ids, sorted (SOS capabilities)."""
        return sorted(self._sensors)

    def describe(self, procedure_id: str) -> SensorDescription:
        """DescribeSensor document source."""
        return self._sensors[procedure_id].description

    def observations(self, procedure_id: str, begin: float,
                     end: float) -> List[Observation]:
        """GetObservation with temporal filter."""
        return self._sensors[procedure_id].window(begin, end)
