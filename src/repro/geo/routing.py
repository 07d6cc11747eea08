"""Region-aware session routing: nearest-healthy with sticky sessions.

The :class:`GeoRouter` sits above the per-region
:class:`~repro.sched.router.ShardedRouter`s.  Placement rules, in
order:

* **sticky** — a session that already has a home region goes back
  there while the region is healthy (the portal's session state is
  tiny, but the user's datasets and traces live in the regional
  warehouse, so locality matters);
* **nearest-healthy** — otherwise the closest HEALTHY region (topology
  ring order from the session's origin) wins;
* **spillover** — a DEGRADED region is skipped and the session spills
  to the next region on the ring;
* **last resort** — if no region is HEALTHY, the nearest not-DOWN
  region still takes the session (serving slowly beats refusing); with
  every region DOWN, new or re-placed, it is refused (``no_region``).

:class:`RegionGuard` is the REST-side enforcement (satellite: RFC-7807
``503`` + ``Retry-After`` when the serving region is degraded *and* no
region can absorb the spillover).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.geo.topology import RegionStatus, RegionTopology
from repro.obs.hub import obs_of
from repro.obs.refusal import Cause, refuse
from repro.sched.core import PriorityClass
from repro.services.envelope import refusal_problem
from repro.services.transport import HttpRequest, HttpResponse
from repro.tenancy.context import DEFAULT_TENANT, TENANT_HEADER
from repro.sim import Simulator

#: What a shed request's ``Retry-After`` says, seconds.
RETRY_AFTER = 15.0


class GeoRouter:
    """Routes sessions to regions, then delegates to the region's plane."""

    def __init__(self, sim: Simulator, topology: RegionTopology,
                 routers: Dict[str, object]):
        self.sim = sim
        self.topology = topology
        self.routers = dict(routers)
        for region in topology.regions():
            if region not in self.routers:
                raise ValueError(f"region {region!r} has no router")
        self.spillovers = 0

    # -- placement -----------------------------------------------------------

    def submit_session(self, session, service_name: str,
                       priority: PriorityClass = PriorityClass.INTERACTIVE,
                       origin: Optional[str] = None) -> Optional[str]:
        """Place a session; returns the serving region (None if refused).

        ``origin`` is where the user is; a session that was already
        placed is sticky to its previous region instead.
        """
        home = getattr(session, "region", None) or origin
        region = self._region_for(session, service_name, home)
        if region is None:
            return None
        if home is not None and region != home:
            self.spillovers += 1
            obs_of(self.sim).events.emit("geo.route.spillover",
                                         session=session.session_id,
                                         origin=home, region=region)
        session.region = region
        session.geo_service = service_name
        self.routers[region].submit_session(session, service_name,
                                            priority=priority)
        return region

    def _region_for(self, session, service_name: str,
                    home: Optional[str]) -> Optional[str]:
        """:meth:`pick_region` from ``home``; nowhere to go is a refusal."""
        region = self.pick_region(home)
        if region is None:
            refuse(self.sim, Cause.NO_REGION, tenant=session.tenant,
                   service=service_name, region=home,
                   session=session.session_id)
        return region

    def pick_region(self, origin: Optional[str] = None) -> Optional[str]:
        """Nearest healthy region; any survivor failing that."""
        ring = self.topology.nearest(origin)
        for region in ring:
            if self.topology.status(region) is RegionStatus.HEALTHY:
                return region
        for region in ring:
            if self.topology.status(region) is not RegionStatus.DOWN:
                return region
        return None

    def spillover_target(self, origin: str) -> Optional[str]:
        """A healthy region other than ``origin``, or None.

        This is the question the REST guard asks: "if I shed this
        request, is there anywhere better for the retry to land?"
        """
        for region in self.topology.nearest(origin):
            if region == origin:
                continue
            if self.topology.status(region) is RegionStatus.HEALTHY:
                return region
        return None

    # -- failover ------------------------------------------------------------

    def replace(self, sessions) -> List[Tuple[object, str]]:
        """Re-place detached sessions after a region loss.

        Each session keeps its service and priority; stickiness to the
        dead home region is overridden by :meth:`pick_region` skipping
        DOWN regions.  Returns ``(session, new_region)`` pairs.
        """
        placed: List[Tuple[object, str]] = []
        for session in sessions:
            service = getattr(session, "geo_service", None)
            if service is None:
                continue
            region = self._region_for(session, service,
                                      getattr(session, "region", None))
            if region is None:
                continue
            priority = session.priority or PriorityClass.INTERACTIVE
            session.region = region
            self.routers[region].submit_session(session, service,
                                                priority=priority)
            placed.append((session, region))
        return placed


class RegionGuard:
    """Sheds traffic while a region is degraded and spill-less.

    Installed as a :class:`~repro.services.rest.RestApi` guard on a
    region's api.  While the serving region is impaired *and*
    :meth:`GeoRouter.spillover_target` finds nowhere better, requests
    are answered with an RFC-7807 ``503`` problem document carrying
    ``Retry-After`` and ``retryable: true`` — exactly what
    :class:`~repro.resilience.policy.RetryPolicy` needs to classify the
    response as worth backing off for, instead of an ad-hoc error.

    While a healthy spillover target exists the guard stays silent:
    existing sessions keep being served and new placement is the
    router's job, not the request path's.
    """

    def __init__(self, georouter: GeoRouter, region: str):
        self.georouter = georouter
        self.region = region

    def __call__(self, request: HttpRequest) -> Optional[HttpResponse]:
        status = self.georouter.topology.status(self.region)
        if status is RegionStatus.HEALTHY:
            return None
        if self.georouter.spillover_target(self.region) is not None:
            return None
        tenant = request.headers.get(TENANT_HEADER, DEFAULT_TENANT)
        event = refuse(
            self.georouter.sim, Cause.REGION_DEGRADED, tenant=tenant,
            region=self.region, health=status.value, path=request.path,
            retry_after=RETRY_AFTER,
            detail=f"region {self.region} is {status.value} and no healthy "
                   f"region can absorb spillover; retry after "
                   f"{RETRY_AFTER:.0f}s")
        return HttpResponse(status=503, body=refusal_problem(event),
                            headers={"Retry-After": f"{RETRY_AFTER:.0f}"})
