"""Tests for workflow composition: DAG validation, caching, provenance."""

import pytest

from repro.workflow import CycleError, RunRecord, Workflow, WorkflowEngine, WorkflowNode


def build_linear_workflow(calls):
    """fetch -> preprocess -> model -> analyse, recording executions."""
    workflow = Workflow("flood-experiment")

    def make(node_id, fn):
        def wrapped(params, upstream):
            calls.append(node_id)
            return fn(params, upstream)
        return wrapped

    workflow.add(WorkflowNode(
        "fetch", make("fetch", lambda p, u: list(range(int(p["n"])))),
        params_used=("n",)))
    workflow.add(WorkflowNode(
        "preprocess", make("preprocess",
                           lambda p, u: [x * p["scale"] for x in u["fetch"]]),
        depends_on=("fetch",), params_used=("scale",)))
    workflow.add(WorkflowNode(
        "model", make("model", lambda p, u: sum(u["preprocess"])),
        depends_on=("preprocess",)))
    workflow.add(WorkflowNode(
        "analyse", make("analyse", lambda p, u: {"total": u["model"]}),
        depends_on=("model",)))
    return workflow


def test_topological_order_respects_dependencies():
    workflow = build_linear_workflow([])
    order = [n.node_id for n in workflow.topological_order()]
    assert order.index("fetch") < order.index("preprocess") < \
        order.index("model") < order.index("analyse")


def test_cycle_detected():
    workflow = Workflow("cyclic")
    workflow.add(WorkflowNode("a", lambda p, u: 1, depends_on=("b",)))
    workflow.add(WorkflowNode("b", lambda p, u: 1, depends_on=("a",)))
    with pytest.raises(CycleError):
        workflow.topological_order()


def test_unknown_dependency_rejected():
    workflow = Workflow("broken")
    workflow.add(WorkflowNode("a", lambda p, u: 1, depends_on=("ghost",)))
    with pytest.raises(ValueError):
        workflow.validate()


def test_duplicate_node_rejected():
    workflow = Workflow("dup")
    workflow.add(WorkflowNode("a", lambda p, u: 1))
    with pytest.raises(ValueError):
        workflow.add(WorkflowNode("a", lambda p, u: 2))


def test_run_produces_outputs_and_provenance():
    calls = []
    workflow = build_linear_workflow(calls)
    engine = WorkflowEngine()
    record = engine.run(workflow, {"n": 4, "scale": 2.0})
    assert record.outputs["analyse"] == {"total": 12.0}
    assert calls == ["fetch", "preprocess", "model", "analyse"]
    assert record.cache_hits() == 0
    assert len(record.stages) == 4
    assert all(s.finished_at >= s.started_at for s in record.stages)


def test_replay_is_full_cache_hit():
    calls = []
    workflow = build_linear_workflow(calls)
    engine = WorkflowEngine()
    first = engine.run(workflow, {"n": 4, "scale": 2.0})
    replay = engine.run(workflow, {"n": 4, "scale": 2.0})
    assert replay.cache_hits() == 4
    assert replay.outputs == first.outputs
    assert calls == ["fetch", "preprocess", "model", "analyse"]  # no re-exec
    assert len(engine.runs()) == 2


def test_tweak_recomputes_only_downstream():
    calls = []
    workflow = build_linear_workflow(calls)
    engine = WorkflowEngine()
    engine.run(workflow, {"n": 4, "scale": 2.0})
    calls.clear()
    tweaked = engine.run(workflow, {"n": 4, "scale": 3.0})
    # fetch is untouched (its params_used didn't change)
    assert tweaked.recomputed() == ["preprocess", "model", "analyse"]
    assert calls == ["preprocess", "model", "analyse"]
    assert tweaked.outputs["analyse"] == {"total": 18.0}


def test_unrelated_parameter_does_not_invalidate():
    calls = []
    workflow = build_linear_workflow(calls)
    engine = WorkflowEngine()
    engine.run(workflow, {"n": 4, "scale": 2.0, "comment": "first"})
    calls.clear()
    record = engine.run(workflow, {"n": 4, "scale": 2.0, "comment": "second"})
    assert record.cache_hits() == 4
    assert calls == []


def test_diamond_dependencies_each_run_once():
    calls = []
    workflow = Workflow("diamond")

    def node(node_id, fn):
        def wrapped(p, u):
            calls.append(node_id)
            return fn(p, u)
        return wrapped

    workflow.add(WorkflowNode("src", node("src", lambda p, u: 1)))
    workflow.add(WorkflowNode("left", node("left", lambda p, u: u["src"] + 1),
                              depends_on=("src",)))
    workflow.add(WorkflowNode("right", node("right", lambda p, u: u["src"] * 10),
                              depends_on=("src",)))
    workflow.add(WorkflowNode(
        "join", node("join", lambda p, u: u["left"] + u["right"]),
        depends_on=("left", "right")))
    record = WorkflowEngine().run(workflow)
    assert record.outputs["join"] == 12
    assert calls.count("src") == 1


def test_workflow_of_real_model_runs():
    """The paper's example: fetch data, run TOPMODEL, analyse the peak."""
    from repro.data import STUDY_CATCHMENTS, DesignStorm
    from repro.hydrology import HydrographAnalysis, TopmodelParameters
    from repro.sim import RandomStreams

    morland = STUDY_CATCHMENTS["morland"]
    workflow = Workflow("storm-impact")
    workflow.add(WorkflowNode(
        "weather",
        lambda p, u: morland.weather_generator(
            RandomStreams(p["seed"])).rainfall_with_storm(
                96, DesignStorm(24, 8, p["depth"]), start_day_of_year=330),
        params_used=("seed", "depth")))
    workflow.add(WorkflowNode(
        "model",
        lambda p, u: morland.topmodel().run(
            u["weather"],
            parameters=TopmodelParameters(q0_mm_h=0.3)).flow,
        depends_on=("weather",)))
    workflow.add(WorkflowNode(
        "analyse",
        lambda p, u: HydrographAnalysis(u["model"]).peak(),
        depends_on=("model",)))

    engine = WorkflowEngine()
    small = engine.run(workflow, {"seed": 1, "depth": 30.0})
    large = engine.run(workflow, {"seed": 1, "depth": 90.0})
    assert large.outputs["analyse"] > small.outputs["analyse"]
    replay = engine.run(workflow, {"seed": 1, "depth": 90.0})
    assert replay.cache_hits() == 3


def test_cache_key_insensitive_to_param_dict_order():
    calls = []
    workflow = Workflow("ordered")
    workflow.add(WorkflowNode(
        "node",
        lambda p, u: calls.append(1) or p["a"] + p["b"],
        params_used=("a", "b")))
    engine = WorkflowEngine()
    engine.run(workflow, {"a": 1, "b": 2})
    # same content, different insertion order: must be a cache hit
    record = engine.run(workflow, {"b": 2, "a": 1})
    assert record.cache_hits() == 1
    assert len(calls) == 1


def test_cache_key_unifies_tuple_and_list_params():
    from repro.workflow.engine import stage_cache_key

    assert stage_cache_key({"params": {"v": (1, 2)}}, "n") \
        == stage_cache_key({"params": {"v": [1, 2]}}, "n")


def test_cache_key_rejects_non_json_params_with_clear_error():
    from repro.perf import CanonicalisationError

    workflow = Workflow("opaque")
    workflow.add(WorkflowNode(
        "node", lambda p, u: None, params_used=("blob",)))
    with pytest.raises(CanonicalisationError) as err:
        WorkflowEngine().run(workflow, {"blob": object()})
    message = str(err.value)
    assert "'node'" in message
    assert "blob" in message
    assert "JSON" in message


def test_one_stage_key_whichever_engine_runs_the_stage():
    """``stage_key`` is the estate engine's key, string for string (the
    two literals are what ``CloudWorkflowEngine._cache_key`` gave before
    the engines shared it), and the library engine records the same."""
    from repro.workflow import ServiceCall, service_node
    from repro.workflow.engine import stage_key

    local = WorkflowNode("choose-storm", lambda p, u: {"depth": p["depth"]},
                         params_used=("depth",))
    remote = service_node(
        "run-model",
        ServiceCall(process_id="slow-model", address_of=lambda: None,
                    build_inputs=lambda p, u: u["choose-storm"]),
        depends_on=("choose-storm",))
    keys = {"choose-storm": stage_key(local, {"depth": 30.0}, {})}
    keys["run-model"] = stage_key(remote, {"depth": 30.0}, keys)
    assert keys == {"choose-storm": "4efe0236e26f518c",
                    "run-model": "01c56f43a6874b50"}
    record = WorkflowEngine().run(Workflow("w").add(local), {"depth": 30.0})
    assert record.stages[0].cache_key == keys["choose-storm"]


def test_library_engine_refuses_a_workflow_with_service_nodes():
    """It makes no service calls: running the placeholder would answer
    ``None`` for a call nobody made, and cache it."""
    from repro.workflow import ServiceCall, service_node

    workflow = Workflow("mixed")
    workflow.add(service_node(
        "remote", ServiceCall(process_id="p", address_of=lambda: None,
                              build_inputs=lambda p, u: {})))
    workflow.add(WorkflowNode("use", lambda p, u: u["remote"],
                              depends_on=("remote",)))
    engine = WorkflowEngine()
    with pytest.raises(ValueError, match=r"\['remote'\].*CloudWorkflowEngine"):
        engine.run(workflow)
    assert engine.runs() == []
