"""POL — swapping scheduling policies behind the jclouds facade (VI).

"Using the jclouds cross-cloud API was vital to maintain infrastructural
interoperability.  This proved quite useful when the infrastructure
provider or its utilisation model needs to be adjusted.  For example,
changing the scheduling policy from 'all computations on private cloud
until saturation' to something more selective such as 'streamlined
models to AWS and experimental ones to the private cloud'."

The bench runs the same deployment workload — one streamlined and one
experimental model service — under both policies and shows (a) the
placement mix shifts exactly as the policy says and (b) not a single
caller-side object changed: the services, images and launch requests are
byte-identical, only the policy object differs.
"""

from benchmarks.harness import once, print_table
from repro.broker import (
    HealthMonitor,
    LoadBalancer,
    ManagedService,
    PrivateFirstPolicy,
    SessionTable,
    WorkloadSplitPolicy,
)
from repro.cloud import AwsCloud, ImageStore, MEDIUM, MultiCloud, OpenStackCloud
from repro.data import STUDY_CATCHMENTS
from repro.modellib import ModelLibrary, make_topmodel_process
from repro.sched import CapacityLedger
from repro.services import Network
from repro.sim import RandomStreams, Simulator


def run_policy(policy):
    sim = Simulator()
    streams = RandomStreams(3)
    multi = MultiCloud()
    multi.register_compute("private", OpenStackCloud(sim, total_vcpus=32,
                                                     streams=streams))
    multi.register_compute("public", AwsCloud(sim, streams=streams))
    network = Network(sim, streams=streams)
    sessions = SessionTable(sim)
    lb = LoadBalancer(sim, multi, network, sessions, policy,
                      monitor=HealthMonitor(sim), ledger=CapacityLedger(sim),
                      autoscale_interval=1e9)

    library = ModelLibrary(ImageStore())
    morland = STUDY_CATCHMENTS["morland"]
    library.publish_streamlined("left-production", morland,
                                make_topmodel_process)
    library.publish_experimental("left-experimental", morland,
                                 make_topmodel_process)

    # the caller-side workload: identical under every policy
    placements = {}
    for model in ("left-production", "left-experimental"):
        service = ManagedService(
            name=model,
            image=library.image_for(model),
            flavor=MEDIUM,
            make_server=lambda instance: instance,  # placement test only
            purpose="modelling",
            min_replicas=3,
        )
        lb.manage(service)
        sim.run(until=sim.now + 600.0)
        placements[model] = sorted(
            multi.location_of(inst) for inst in service.replicas)
    return placements


def test_policy_swap_changes_placement_not_callers(benchmark):
    results = once(benchmark, lambda: {
        "private-until-saturation": run_policy(PrivateFirstPolicy()),
        "streamlined-public/experimental-private":
            run_policy(WorkloadSplitPolicy())})

    rows = []
    for policy_name, placements in results.items():
        for model, locations in placements.items():
            rows.append([policy_name, model, ", ".join(locations)])
    print_table("Replica placement under swapped scheduling policies "
                "(3 replicas per service)",
                ["policy", "service", "replica locations"],
                rows)

    default = results["private-until-saturation"]
    split = results["streamlined-public/experimental-private"]

    # default: everything private (no saturation at 32 vCPUs)
    assert default["left-production"] == ["private"] * 3
    assert default["left-experimental"] == ["private"] * 3
    # split: streamlined bundles go public, incubator workloads stay home
    assert split["left-production"] == ["public"] * 3
    assert split["left-experimental"] == ["private"] * 3


def test_policy_objects_are_the_only_difference(benchmark):
    """API-identity check: the policy is one constructor argument.

    Everything the caller builds — images, services, launch templates —
    is identical; only the SchedulingPolicy object passed to the LB
    differs.  This is the 'no caller changes' property in executable
    form.
    """
    import inspect
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    signature = inspect.signature(LoadBalancer.__init__)
    assert "policy" in signature.parameters
    # both policies satisfy the same minimal interface
    for policy in (PrivateFirstPolicy(), WorkloadSplitPolicy()):
        assert callable(policy.locations)
        assert isinstance(policy.name, str)
    # run_policy above is literally the same function for both - the
    # placement differences in test_policy_swap come from the policy alone
    source = inspect.getsource(run_policy)
    assert "PrivateFirst" not in source.replace("def run_policy(policy)", "")
