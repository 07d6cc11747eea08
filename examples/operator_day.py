"""A day on call: the operator's view of the observatory.

Exercises the internal-management side of XaaS (Section IV-B): the
admin console's uniform estate view, a live incident (a replica wedges
under load), the Load Balancer's automatic recovery, and a planned
maintenance drain — all while users keep modelling.

Run with::

    python examples/operator_day.py
"""

from repro.core import AdminConsole, Evop, EvopConfig
from repro.obs import obs_of


def main() -> None:
    evop = Evop(EvopConfig(truth_days=5, storm_day=2, min_replicas=2,
                           seed=77)).bootstrap()
    evop.run_for(400.0)
    console = AdminConsole(evop)

    print("== 09:00 - morning estate check ==")
    print(console.render())

    print("\n== 10:30 - users are modelling; one replica degrades ==")
    widget = evop.left().open_modelling_widget("persistent-user")
    evop.run_for(10.0)
    widget.load()
    evop.run_for(10.0)
    victim = widget.session.instance

    evop.injector.degrade(victim, speed_multiplier=1e-6)

    # background traffic so the wedge is observable
    from repro.cloud import Job

    def hammer():
        while not victim.is_gone:
            victim.submit(Job(cost=5.0, name="user-request"))
            victim.record_bytes_in(300)
            victim.record_bytes_out(40)
            yield 5.0

    evop.sim.spawn(hammer(), name="hammer")
    evop.run_for(60.0)
    print("unhealthy replicas (pre-detection):",
          console.unhealthy_replicas() or "none yet - evidence accruing")
    evop.run_for(400.0)
    fault = obs_of(evop.sim).events.events("lb.fault.detected")[-1]
    print(f"LB detected: {fault.fields['verdict']} on "
          f"{fault.fields['instance']} at t={fault.t:.0f}s; "
          f"replacement launched")
    print(f"user's session now on: {widget.session.instance_address} "
          f"(migrated {len(widget.session.migrations)}x, seamlessly)")

    print("\n== 14:00 - the user keeps working through it all ==")
    run = widget.run(duration_hours=96)
    evop.run_for(200.0)
    print(f"model run ok: peak={run.value.outputs['peak_mm_h']:.2f} mm/h")

    print("\n== 16:00 - planned maintenance: drain a replica ==")
    service = evop.lb.service("left-morland")
    target = service.serving()[0]
    drained = evop.lb.drain(target)
    evop.run_for(600.0)
    print(f"drained {target.instance_id}: gone={target.is_gone}, "
          f"signal={drained.value}")

    print("\n== 17:30 - end of day ==")
    print(console.render())
    evop.rb.disconnect(widget.session)
    print("\ncost today:", {k: f"${v:.3f}"
                            for k, v in evop.cost_report().items()})


if __name__ == "__main__":
    main()
