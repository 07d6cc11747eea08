"""Operator console: the internal-management view of the XaaS estate.

Section IV-B: "Internal access, where management is involved, is vastly
improved as all system resources are accessible in a uniform
machine-readable manner.  This not only simplifies housekeeping tasks
but also enables advanced management tasks to improve availability,
fault recovery, etc."

:class:`AdminConsole` is that uniform view for the operators: one
structured snapshot covering instances per provider, managed services
and their replica health, live sessions, fault history, cloudburst
state and accrued cost — plus a terminal rendering for the humans on
call.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.core.evop import Evop
from repro.obs.hub import obs_of
from repro.obs.refusal import Cause, refused


class AdminConsole:
    """Read-only management view over one deployment."""

    def __init__(self, evop: Evop):
        self.evop = evop

    # -- structured snapshot -------------------------------------------------

    def status(self) -> Dict[str, Any]:
        """The machine-readable estate snapshot."""
        evop = self.evop
        services = []
        for service in evop.sched.services():
            replicas = []
            for instance in service.replicas:
                replicas.append({
                    "id": instance.instance_id,
                    "location": evop.sched.location_of(instance),
                    "state": instance.state.value,
                    "cpu": round(instance.cpu_utilization(), 3),
                    "load": round(instance.load(), 3),
                    "sessions": evop.sessions.count_on(instance),
                    "verdict": evop.monitor.verdict(instance).value,
                })
            services.append({
                "name": service.name,
                "replicas": replicas,
                "pending_launches": service.pending_launches,
                "min": service.min_replicas,
                "max": service.max_replicas,
            })
        # the event log is a bounded ring: it shows what happened lately,
        # the LBs' fault counters say how often since boot
        faults_detected = sum(
            counter.value for lb in evop.sched.lbs
            for name, _labels, counter in lb.metrics.instruments()
            if name.startswith("fault."))
        recent_faults = obs_of(evop.sim).events.events("lb.fault")[-5:]
        observability: Dict[str, Any] = {"enabled": evop.telemetry is not None}
        if evop.telemetry is not None:
            plane = evop.telemetry.snapshot()
            observability.update({
                "health_score": plane["health_score"],
                "alerts_firing": plane["alerts_firing"],
                "scraper_lag": plane["lag"],
                "series": plane["series"],
                "slos": [
                    {"name": s["slo"], "sli": s["sli"],
                     "target": s["target"], "firing": s["firing"]}
                    for s in evop.telemetry.slo_status()
                ],
            })
        depths = evop.sched.tenant_depths()
        inflight: Dict[str, int] = {}
        for session in evop.sessions.active():
            inflight[session.tenant] = inflight.get(session.tenant, 0) + 1
        buckets = evop.ratelimit.snapshot()["buckets"]
        tenancy: Dict[str, Any] = {
            "fairness": round(evop.tenants.fairness(), 4),
            "quota_committed": evop.ledger.committed_by_tenant(),
            "tenants": {
                tenant_id: {
                    "weight": policy["weight"],
                    "served": policy["served"],
                    "in_flight": inflight.get(tenant_id, 0),
                    "queued": depths.get(tenant_id, 0),
                    "refused": {
                        cause.value: int(n) for cause in Cause
                        if (n := refused(evop.sim, cause=cause.value,
                                         tenant=tenant_id))},
                    "bucket": buckets.get(tenant_id),
                }
                for tenant_id, policy in evop.tenants.snapshot().items()},
        }
        return {
            "time": evop.sim.now,
            "instances": evop.instances_by_location(),
            "cloudbursting": evop.sched.cloudbursting,
            "scheduling": {
                "shards": evop.sched.shards,
                "queue_depths": evop.sched.depths(),
            },
            "tenancy": tenancy,
            "observability": observability,
            "services": services,
            "sessions": {
                "active": evop.sessions.active_count(),
                "waiting": evop.sessions.waiting_count(),
                "total_ever": len(evop.sessions.all()),
            },
            "faults": {
                "detected": int(faults_detected),
                "recent": [e.to_dict() for e in recent_faults],
            },
            "cost": evop.cost_report(),
            "registry": [
                {"name": r.name, "address": r.address}
                for r in evop.registry.all()
            ],
            "models": [e.name for e in evop.library.list()],
        }

    def unhealthy_replicas(self) -> List[Dict[str, Any]]:
        """Replicas whose current verdict is not healthy."""
        out = []
        for service in self.evop.sched.services():
            for instance in service.replicas:
                verdict = self.evop.monitor.verdict(instance)
                if verdict.value != "healthy":
                    out.append({"service": service.name,
                                "id": instance.instance_id,
                                "verdict": verdict.value})
        return out

    # -- human rendering --------------------------------------------------------

    def render(self) -> str:
        """The on-call terminal view."""
        snapshot = self.status()
        lines = [
            f"EVOp estate @ t={snapshot['time']:.0f}s  "
            f"cloudbursting={'YES' if snapshot['cloudbursting'] else 'no'}  "
            f"cost=${snapshot['cost']['total']:.3f}",
            f"instances: " + "  ".join(
                f"{loc}={n}" for loc, n in snapshot["instances"].items()),
            f"sessions: {snapshot['sessions']['active']} active, "
            f"{snapshot['sessions']['waiting']} waiting",
        ]
        for service in snapshot["services"]:
            lines.append(f"service {service['name']} "
                         f"(+{service['pending_launches']} booting):")
            for replica in service["replicas"]:
                lines.append(
                    f"  {replica['id']:12s} {replica['location']:8s} "
                    f"{replica['state']:10s} cpu={replica['cpu']:.0%} "
                    f"sessions={replica['sessions']} "
                    f"verdict={replica['verdict']}")
        if snapshot["faults"]["detected"]:
            lines.append(f"faults detected: {snapshot['faults']['detected']}")
        tenancy = snapshot["tenancy"]
        lines.append(f"tenants: fairness={tenancy['fairness']:.3f}")
        for tenant_id, row in tenancy["tenants"].items():
            bucket = row["bucket"]
            fill = ("unlimited" if bucket is None
                    else f"{bucket['fill']:.0f}/{bucket['burst']:.0f}")
            lines.append(
                f"  {tenant_id:16s} w={row['weight']:g} "
                f"inflight={row['in_flight']} queued={row['queued']} "
                f"refused={sum(row['refused'].values())} "
                f"served={row['served']:g} "
                f"bucket={fill}")
        obs = snapshot["observability"]
        if obs["enabled"]:
            lag = obs["scraper_lag"]
            lines.append(
                f"observability: health={obs['health_score']:.0f}/100  "
                f"series={obs['series']}  "
                f"lag={'n/a' if lag is None else f'{lag:.0f}s'}")
            for slo in obs["slos"]:
                sli = slo["sli"]
                lines.append(
                    f"  slo {slo['name']:28s} "
                    f"sli={'n/a' if sli is None else f'{sli:.4f}'} "
                    f"target={slo['target']:.3f}"
                    f"{'  FIRING' if slo['firing'] else ''}")
            if obs["alerts_firing"]:
                lines.append("alerts firing: "
                             + ", ".join(obs["alerts_firing"]))
        return "\n".join(lines)
