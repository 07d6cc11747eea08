"""Unit tests for the image store, blob storage and provisioning recipes."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud import (
    BlobStore,
    ImageKind,
    ImageStore,
    Instance,
    MachineImage,
    MEDIUM,
    ProvisioningRecipe,
)
from repro.cloud.errors import BlobNotFound, ContainerNotFound, ImageNotFound
from repro.sim import Simulator


@pytest.fixture()
def sim():
    return Simulator()


# -- image store -------------------------------------------------------------


def test_create_assigns_unique_ids():
    store = ImageStore()
    a = store.create("base", ImageKind.GENERIC)
    b = store.create("base", ImageKind.GENERIC)
    assert a.image_id != b.image_id
    assert store.get(a.image_id) is a


def test_get_unknown_image_raises():
    with pytest.raises(ImageNotFound):
        ImageStore().get("img-nope")


def test_duplicate_registration_rejected():
    store = ImageStore()
    img = store.create("base", ImageKind.GENERIC)
    with pytest.raises(ValueError):
        store.register(img)


def test_list_filters_by_kind():
    store = ImageStore()
    store.create("inc", ImageKind.INCUBATOR)
    store.create("str", ImageKind.STREAMLINED, bundled_models=("topmodel",))
    assert [img.name for img in store.list(ImageKind.INCUBATOR)] == ["inc"]
    assert len(store.list()) == 2


def test_find_streamlined_prefers_newest_generation():
    store = ImageStore()
    old = store.create("left-bundle", ImageKind.STREAMLINED,
                       bundled_models=("topmodel",))
    new = store.rebake(old.image_id, extra_datasets=("eden-2012",))
    found = store.find_streamlined_for("topmodel")
    assert found is new
    assert found.generation == 2
    assert store.find_streamlined_for("unknown-model") is None


def test_rebake_preserves_payload_and_links_parent():
    store = ImageStore()
    base = store.create("bundle", ImageKind.STREAMLINED, size_gb=6.0,
                        bundled_models=("topmodel",))
    derived = store.rebake(base.image_id, extra_models=("fuse",),
                           size_increase_gb=2.0)
    assert derived.bundled_models == ("topmodel", "fuse")
    assert derived.size_gb == 8.0
    assert derived.parent_id == base.image_id
    assert [img.image_id for img in store.lineage(derived.image_id)] == [
        derived.image_id, base.image_id]


def test_image_validation():
    with pytest.raises(ValueError):
        MachineImage(image_id="x", name="bad", kind=ImageKind.GENERIC,
                     size_gb=0)
    with pytest.raises(ValueError):
        MachineImage(image_id="x", name="bad", kind=ImageKind.GENERIC,
                     run_speed_factor=0)


# -- blob storage ------------------------------------------------------------


def test_put_get_roundtrip(sim):
    store = BlobStore(sim)
    container = store.create_container("datasets")
    container.put("eden/rain.csv", "payload", metadata={"units": "mm"})
    blob = container.get("eden/rain.csv")
    assert blob.payload == "payload"
    assert blob.metadata["units"] == "mm"
    assert blob.size_bytes == len("payload")


def test_get_missing_blob_raises(sim):
    container = BlobStore(sim).create_container("c")
    with pytest.raises(BlobNotFound):
        container.get("missing")


def test_conditional_get_uses_etag(sim):
    container = BlobStore(sim).create_container("c")
    blob = container.put("key", "v1")
    assert container.get_if_none_match("key", blob.etag) is None
    container.put("key", "v2")
    fresh = container.get_if_none_match("key", blob.etag)
    assert fresh is not None
    assert fresh.payload == "v2"


def test_list_with_prefix(sim):
    container = BlobStore(sim).create_container("c")
    for key in ("eden/a", "eden/b", "tarland/a"):
        container.put(key, key)
    assert container.list("eden/") == ["eden/a", "eden/b"]
    assert len(container.list()) == 3


def test_delete_blob_and_container(sim):
    store = BlobStore(sim)
    container = store.create_container("c")
    container.put("k", "v")
    with pytest.raises(ValueError):
        store.delete_container("c")
    container.delete("k")
    with pytest.raises(BlobNotFound):
        container.delete("k")
    store.delete_container("c")
    with pytest.raises(ContainerNotFound):
        store.container("c")


def test_container_create_is_idempotent(sim):
    store = BlobStore(sim)
    assert store.create_container("c") is store.create_container("c")


@pytest.mark.parametrize("payload", [
    "plain text", "", b"raw \x00 bytes", bytearray(b"mutable"),
    {"status": "succeeded", "outputs": {"peak_mm_h": 4.25, "series": [0.1] * 9}},
    [1, "two", 3.0, None, {"nested": ("tuple", [True])}],
    0, 3.5, None,
])
@pytest.mark.parametrize("declared", [None, 0, 4096])
def test_put_etag_and_size_follow_the_two_repr_formula(sim, payload, declared):
    """``put`` serialises once; what it stamps is what serialising the
    payload separately for the size and for the etag always stamped."""
    blob = BlobStore(sim).create_container("c").put(
        "k", payload, metadata={"units": "mm"}, size_bytes=declared)
    if declared is not None:
        size = declared
    elif isinstance(payload, (bytes, bytearray, str)):
        size = len(payload)
    else:
        size = len(repr(payload))
    assert blob.size_bytes == size
    assert blob.etag == hashlib.sha256(repr(payload).encode()).hexdigest()[:16]
    assert (blob.key, blob.payload, blob.created_at, blob.metadata) == \
        ("k", payload, sim.now, {"units": "mm"})


def test_a_torn_put_stamps_the_stored_text(sim):
    store = BlobStore(sim)
    store.set_fault("torn_write")
    blob = store.create_container("c").put("k", "0123456789ab")
    assert blob.payload == "01234567"
    assert blob.size_bytes == 8
    assert blob.etag == hashlib.sha256(repr("01234567").encode()).hexdigest()[:16]


def eager_stamp(payload, declared):
    """What ``put`` used to compute on every call: the oracle for the
    values a blob now works out the first time either is read."""
    text = repr(payload)
    if declared is None:
        declared = len(payload) \
            if isinstance(payload, (bytes, bytearray, str)) else len(text)
    return declared, hashlib.sha256(text.encode()).hexdigest()[:16]


_scalars = st.one_of(st.none(), st.booleans(), st.integers(),
                     st.floats(allow_nan=False), st.text(max_size=12))
_payloads = st.one_of(
    st.text(max_size=40), st.binary(max_size=40),
    st.binary(max_size=40).map(bytearray), _scalars,
    st.recursive(_scalars, lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.tuples(inner, inner),
        st.dictionaries(st.text(max_size=6), inner, max_size=4)),
        max_leaves=12))


@settings(max_examples=150, deadline=None)
@given(payload=_payloads,
       declared=st.one_of(st.none(), st.integers(0, 1 << 20)),
       torn=st.booleans(),
       reads=st.lists(st.sampled_from(("etag", "size_bytes")),
                      min_size=1, max_size=5))
def test_etag_and_size_read_in_any_order_equal_the_eager_stamp(
        payload, declared, torn, reads):
    store = BlobStore(Simulator())
    if torn:
        store.set_fault("torn_write")
    blob = store.create_container("c").put("k", payload, size_bytes=declared)
    # the tear happened at put time, to the stored payload
    stored = payload[: max(1, (2 * len(payload)) // 3)] \
        if torn and isinstance(payload, str) and len(payload) > 1 else payload
    assert blob.payload == stored
    size, etag = eager_stamp(stored, declared)
    for name in reads:
        assert getattr(blob, name) == (etag if name == "etag" else size)
    assert (blob.size_bytes, blob.etag) == (size, etag)


# -- provisioning ------------------------------------------------------------


def make_running_instance(sim):
    image = MachineImage(image_id="img-0", name="incubator",
                         kind=ImageKind.INCUBATOR)
    instance = Instance(sim, "os-0000", "openstack", image, MEDIUM)
    instance._mark_running()
    return instance


def test_recipe_installs_models_and_takes_time(sim):
    instance = make_running_instance(sim)
    recipe = (ProvisioningRecipe("fuse-experimental")
              .add_step("install R runtime", 60.0)
              .add_step("stage FUSE code", 30.0, installs_model="fuse"))
    done = recipe.apply(sim, instance)
    sim.run()
    assert sim.now == pytest.approx(90.0)
    assert "fuse" in instance.installed_models
    assert done.value == ["install R runtime", "stage FUSE code"]
    assert recipe.total_duration == 90.0
    assert recipe.installed_models == ("fuse",)


def test_recipe_aborts_if_instance_dies_midway(sim):
    instance = make_running_instance(sim)
    recipe = (ProvisioningRecipe("r")
              .add_step("one", 10.0, installs_model="m1")
              .add_step("two", 10.0, installs_model="m2"))
    done = recipe.apply(sim, instance)
    sim.schedule(15.0, instance._mark_failed, "crash")
    sim.run()
    assert done.value is None
    assert "m1" in instance.installed_models
    assert "m2" not in instance.installed_models


def test_recipe_rejects_negative_duration():
    with pytest.raises(ValueError):
        ProvisioningRecipe("r").add_step("bad", -1.0)
