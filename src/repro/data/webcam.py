"""Webcam archives.

Figure 5's multimodal widget links "water temperature and turbidity ...
with the corresponding webcam image taken roughly at the same time".  A
:class:`WebcamFrame` is a lightweight record (reference, timestamp,
scene tags); :class:`WebcamArchive` supports the nearest-in-time lookup
the widget performs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.sim import Simulator


@dataclass(frozen=True)
class WebcamFrame:
    """One captured image (metadata only; pixels live off-catalogue)."""

    frame_id: str
    camera_id: str
    time: float
    blob_key: str               # where the image bytes would live
    tags: Dict[str, float] = field(default_factory=dict)  # e.g. stage_m


class WebcamArchive:
    """Frames of one camera, time-ordered."""

    def __init__(self, sim: Simulator, camera_id: str, latitude: float,
                 longitude: float, catchment: str = ""):
        self.sim = sim
        self.camera_id = camera_id
        self.latitude = latitude
        self.longitude = longitude
        self.catchment = catchment
        self._frames: List[WebcamFrame] = []

    def capture(self, tags: Optional[Dict[str, float]] = None) -> WebcamFrame:
        """Record a frame at the current simulated time."""
        frame = WebcamFrame(
            frame_id=f"frame-{self.sim.next_id('frame'):08d}",
            camera_id=self.camera_id,
            time=self.sim.now,
            blob_key=f"webcams/{self.camera_id}/{self.sim.now:.0f}.jpg",
            tags=dict(tags or {}),
        )
        self._frames.append(frame)
        return frame

    def start_capture(self, interval: float = 1800.0,
                      until: Optional[float] = None,
                      tagger=None) -> None:
        """Capture periodically; ``tagger(time) -> tags`` is optional."""
        if interval <= 0:
            raise ValueError("capture interval must be positive")

        def loop():
            while until is None or self.sim.now < until:
                yield interval
                tags = tagger(self.sim.now) if tagger is not None else None
                self.capture(tags)

        self.sim.spawn(loop(), name=f"webcam.{self.camera_id}")

    def frames(self) -> List[WebcamFrame]:
        """All frames, oldest first."""
        return list(self._frames)

    def nearest(self, time: float) -> Optional[WebcamFrame]:
        """The frame captured closest to ``time`` (None if empty)."""
        if not self._frames:
            return None
        return min(self._frames, key=lambda f: abs(f.time - time))

    def window(self, begin: float, end: float) -> List[WebcamFrame]:
        """Frames captured within ``[begin, end]``."""
        return [f for f in self._frames if begin <= f.time <= end]

    def __len__(self) -> int:
        return len(self._frames)
