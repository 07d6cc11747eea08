"""A flash crowd hits the portal: watch the Load Balancer cloudburst.

During a flood event "extremely large and unexpected number of portal
users" arrive at once.  The private pool saturates, the LB bursts to the
public cloud, and when the crowd drains it migrates everyone back —
Section IV-D's cost/QoS story on one timeline.

Run with::

    python examples/flash_crowd.py
"""

from repro import Evop, EvopConfig


def main() -> None:
    evop = Evop(EvopConfig(
        truth_days=5, storm_day=2,
        private_vcpus=8,             # a small university pool
        sessions_per_replica=4,
        autoscale_interval=10.0,
    )).bootstrap()
    evop.run_for(300.0)

    def snapshot(label):
        locations = evop.instances_by_location()
        cost = evop.cost_report()
        print(f"  t={evop.sim.now / 60:6.1f}min {label:28s} "
              f"private={locations['private']:2d} public={locations['public']:2d} "
              f"bursting={str(evop.sched.cloudbursting):5s} "
              f"cost=${cost['total']:.3f}")

    print("== before the crowd ==")
    snapshot("steady state")

    print("== the flood makes the evening news: 40 users in 5 minutes ==")
    sessions = []
    for i in range(40):
        session = evop.rb.connect(f"visitor-{i}", "left-morland")
        sessions.append(session)
        evop.run_for(7.5)
    snapshot("crowd arrived")
    evop.run_for(900.0)
    snapshot("LB caught up")

    waits = [s.wait_time for s in sessions if s.wait_time is not None]
    print(f"  assignment waits: mean={sum(waits) / len(waits):.1f}s "
          f"max={max(waits):.1f}s")
    print(f"  cloudburst activations: "
          f"{evop.sched_metrics.counter('cloudburst.activations').value:.0f}")

    print("== most of the crowd loses interest; 8 users stay ==")
    for session in sessions[8:]:
        evop.rb.disconnect(session)
    evop.run_for(1800.0)
    snapshot("shrinking")
    remaining = [s for s in sessions[:8]]
    migrated = sum(len(s.migrations) for s in remaining)
    print(f"  the {len(remaining)} remaining users were migrated "
          f"back {migrated} times, all seamlessly (stateless REST)")

    print("== everyone leaves ==")
    for session in remaining:
        evop.rb.disconnect(session)
    evop.run_for(3600.0)
    snapshot("after reversal")
    print(f"  session migrations performed: "
          f"{evop.lb.metrics.counter('migrations').value:.0f}")
    print(f"  cloudburst reversals: "
          f"{evop.sched_metrics.counter('cloudburst.reversals').value:.0f}")
    per_provider = evop.cost_report()
    print(f"  final cost: private=${per_provider.get('openstack', 0):.3f} "
          f"public=${per_provider.get('aws', 0):.3f}")


if __name__ == "__main__":
    main()
