"""Unit tests for the OpenStack/AWS providers, billing and multicloud."""

import pytest

from repro.cloud import (
    AwsCloud,
    BillingMeter,
    CapacityError,
    ImageKind,
    InstanceState,
    MachineImage,
    MEDIUM,
    MultiCloud,
    NodeTemplate,
    OpenStackCloud,
    PriceTable,
    QuotaExceededError,
    SMALL,
)
from repro.sim import Simulator


@pytest.fixture()
def sim():
    return Simulator()


@pytest.fixture()
def image():
    return MachineImage(image_id="img-0", name="base", kind=ImageKind.GENERIC,
                        size_gb=2.0)


def boot(sim, provider, image, flavor=MEDIUM, project="evop"):
    instance = provider.launch(image, flavor, project=project)
    sim.run()
    return instance


def test_launch_is_async_and_fires_ready(sim, image):
    cloud = OpenStackCloud(sim, total_vcpus=8)
    instance = cloud.launch(image, MEDIUM)
    assert instance.state == InstanceState.PENDING
    sim.run()
    assert instance.state == InstanceState.RUNNING
    assert instance.ready.value is instance
    assert sim.now > 0


def test_private_boot_faster_than_public(sim, image):
    private = OpenStackCloud(sim, total_vcpus=8)
    public = AwsCloud(sim)
    assert private.boot_time(image) < public.boot_time(image)


def test_capacity_error_when_pool_full(sim, image):
    cloud = OpenStackCloud(sim, total_vcpus=4)
    boot(sim, cloud, image)  # 2 vcpus
    boot(sim, cloud, image)  # 4 vcpus
    assert cloud.free_vcpus < MEDIUM.vcpus
    with pytest.raises(CapacityError):
        cloud.launch(image, MEDIUM)


def test_small_flavor_can_fill_remaining_capacity(sim, image):
    cloud = OpenStackCloud(sim, total_vcpus=3)
    boot(sim, cloud, image, MEDIUM)
    assert cloud.free_vcpus < MEDIUM.vcpus
    assert cloud.free_vcpus >= SMALL.vcpus
    boot(sim, cloud, image, SMALL)
    assert cloud.free_vcpus == 0


def test_terminate_releases_capacity(sim, image):
    cloud = OpenStackCloud(sim, total_vcpus=4)
    a = boot(sim, cloud, image)
    boot(sim, cloud, image)
    cloud.terminate(a.instance_id)
    assert cloud.free_vcpus == 2
    boot(sim, cloud, image)  # fits again


def test_project_quota_enforced_independently_of_capacity(sim, image):
    cloud = OpenStackCloud(sim, total_vcpus=16, project_quota_vcpus=4)
    boot(sim, cloud, image, project="research")
    boot(sim, cloud, image, project="research")
    with pytest.raises(QuotaExceededError):
        cloud.launch(image, MEDIUM, project="research")
    # a different project still gets capacity
    boot(sim, cloud, image, project="teaching")


def test_aws_unbounded_by_default(sim, image):
    cloud = AwsCloud(sim)
    for _ in range(50):
        cloud.launch(image, MEDIUM)
    sim.run()
    assert len(cloud.serving_instances()) == 50


def test_aws_account_limit(sim, image):
    cloud = AwsCloud(sim, account_instance_limit=2)
    cloud.launch(image, MEDIUM)
    cloud.launch(image, MEDIUM)
    with pytest.raises(QuotaExceededError):
        cloud.launch(image, MEDIUM)


def test_crash_releases_capacity_via_fault_injector(sim, image):
    from repro.cloud import FaultInjector
    cloud = OpenStackCloud(sim, total_vcpus=4)
    instance = boot(sim, cloud, image)
    injector = FaultInjector(sim, [cloud])
    injector.crash(instance)
    assert cloud.free_vcpus == 4
    assert instance.state == InstanceState.FAILED


def test_terminate_twice_raises(sim, image):
    cloud = OpenStackCloud(sim, total_vcpus=8)
    instance = boot(sim, cloud, image)
    cloud.terminate(instance.instance_id)
    from repro.cloud import InvalidStateError
    with pytest.raises(InvalidStateError):
        cloud.terminate(instance.instance_id)


def test_billing_accrues_only_while_running(sim, image):
    meter = BillingMeter(sim)
    meter.register_provider("aws", PriceTable({"medium": 3.6}))  # $3.6/h = $0.001/s
    cloud = AwsCloud(sim, meter=meter)
    instance = cloud.launch(image, MEDIUM)
    sim.run()
    boot_done = sim.now
    sim.run(until=boot_done + 1000.0)
    cloud.terminate(instance.instance_id)
    sim.run(until=boot_done + 5000.0)  # long after termination
    # $0.001/s for exactly the 1000 s between boot and termination
    assert meter.cost_by_provider() == {"aws": pytest.approx(1.0)}


def test_billing_minimum_granularity():
    table = PriceTable({"small": 36.0}, minimum_billed_seconds=60.0)
    assert table.cost("small", 10.0) == pytest.approx(0.6)  # billed 60s
    assert table.cost("small", 120.0) == pytest.approx(1.2)


def test_price_table_unknown_flavor():
    table = PriceTable({"small": 1.0})
    with pytest.raises(KeyError):
        table.rate_per_second("xlarge")


def test_multicloud_prefers_registration_order(sim, image):
    private = OpenStackCloud(sim, total_vcpus=4)
    public = AwsCloud(sim)
    multi = MultiCloud()
    multi.register_compute("private", private)
    multi.register_compute("public", public)

    first = multi.create_node(NodeTemplate(image, MEDIUM))
    assert first.provider_name == "openstack"


def test_multicloud_bursts_to_public_on_capacity_error(sim, image):
    private = OpenStackCloud(sim, total_vcpus=2)
    public = AwsCloud(sim)
    multi = MultiCloud()
    multi.register_compute("private", private)
    multi.register_compute("public", public)

    multi.create_node(NodeTemplate(image, MEDIUM))
    burst = multi.create_node(NodeTemplate(image, MEDIUM))
    assert burst.provider_name == "aws"


def test_multicloud_location_pinning(sim, image):
    private = OpenStackCloud(sim, total_vcpus=8)
    public = AwsCloud(sim)
    multi = MultiCloud()
    multi.register_compute("private", private)
    multi.register_compute("public", public)

    node = multi.create_node(NodeTemplate(image, MEDIUM, location="public"))
    assert node.provider_name == "aws"
    assert multi.location_of(node) == "public"


def test_multicloud_pinned_location_capacity_error_propagates(sim, image):
    private = OpenStackCloud(sim, total_vcpus=2)
    multi = MultiCloud()
    multi.register_compute("private", private)
    multi.create_node(NodeTemplate(image, MEDIUM))
    with pytest.raises(CapacityError):
        multi.create_node(NodeTemplate(image, MEDIUM, location="private"))


def test_multicloud_destroy_and_list(sim, image):
    private = OpenStackCloud(sim, total_vcpus=8)
    multi = MultiCloud()
    multi.register_compute("private", private)
    node = multi.create_node(NodeTemplate(image, MEDIUM))
    sim.run()
    assert multi.list_nodes() == [node]
    multi.destroy_node(node)
    assert multi.list_nodes() == []


def test_multicloud_duplicate_location_rejected(sim):
    multi = MultiCloud()
    multi.register_compute("private", OpenStackCloud(sim))
    with pytest.raises(ValueError):
        multi.register_compute("private", OpenStackCloud(sim, name="os2"))


def test_running_gauge_tracks_boot_and_terminate(sim, image):
    cloud = OpenStackCloud(sim, total_vcpus=8)
    instance = boot(sim, cloud, image)
    assert cloud.metrics.gauge("instances.running").value == 1
    cloud.terminate(instance.instance_id)
    assert cloud.metrics.gauge("instances.running").value == 0
