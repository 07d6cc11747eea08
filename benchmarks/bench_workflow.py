"""WFLW — workflow composition: tweak, replay, trace (Section VIII).

"Workflows allow 'advanced' users ... to create complex experiments that
can be easily tweaked and replayed, offering reproducibility and
traceability."

The bench builds the canonical fetch → preprocess → model → analyse DAG
over real TOPMODEL runs and measures the three promises: replay is a
full cache hit (reproducibility), a parameter tweak recomputes only the
dependent stages (cheap iteration), and every run leaves a complete
provenance trail (traceability).  The saving is counted in stages
executed — a count that repeats exactly — not timed.
"""

from benchmarks.harness import once, print_table
from repro.data import DesignStorm, STUDY_CATCHMENTS
from repro.hydrology import HydrographAnalysis, TopmodelParameters
from repro.sim import RandomStreams
from repro.workflow import Workflow, WorkflowEngine, WorkflowNode

HOURS = 24 * 30


def build_workflow():
    morland = STUDY_CATCHMENTS["morland"]
    workflow = Workflow("storm-impact")
    workflow.add(WorkflowNode(
        "fetch",
        lambda p, u: morland.weather_generator(
            RandomStreams(p["seed"])).rainfall_with_storm(
                HOURS, DesignStorm(48, 10, p["depth"]), start_day_of_year=330),
        params_used=("seed", "depth")))
    workflow.add(WorkflowNode(
        "preprocess", lambda p, u: u["fetch"].fill_gaps("zero"),
        depends_on=("fetch",)))
    workflow.add(WorkflowNode(
        "model",
        lambda p, u: morland.topmodel().run(
            u["preprocess"],
            parameters=TopmodelParameters(q0_mm_h=0.3).with_updates(
                m=p["m"])).flow,
        depends_on=("preprocess",), params_used=("m",)))
    workflow.add(WorkflowNode(
        "analyse",
        lambda p, u: HydrographAnalysis(u["model"]).summary(threshold=2.0),
        depends_on=("model",)))
    return workflow


def run_experiment():
    workflow = build_workflow()
    engine = WorkflowEngine()
    base = {"seed": 5, "depth": 70.0, "m": 15.0}

    return {
        "cold": engine.run(workflow, base),
        "replay": engine.run(workflow, base),
        "tweak": engine.run(workflow, {**base, "m": 35.0}),
        "engine": engine,
    }


def test_workflow_tweak_and_replay(benchmark):
    result = once(benchmark, run_experiment)
    cold, replay, tweaked = (result[k] for k in ("cold", "replay", "tweak"))

    print_table(
        "Workflow runs - fetch > preprocess > TOPMODEL > analyse "
        f"({HOURS}h simulation)",
        ["run", "stages executed", "cache hits", "peak flow mm/h"],
        [["cold", len(cold.recomputed()), cold.cache_hits(),
          cold.outputs["analyse"]["peak"]],
         ["replay (same params)", len(replay.recomputed()),
          replay.cache_hits(), replay.outputs["analyse"]["peak"]],
         ["tweak (m: 15 -> 35)", len(tweaked.recomputed()),
          tweaked.cache_hits(), tweaked.outputs["analyse"]["peak"]]])

    # reproducibility: the replay executed nothing and matched exactly
    assert replay.cache_hits() == 4
    assert replay.recomputed() == []
    assert replay.outputs["analyse"] == cold.outputs["analyse"]
    # tweakability: only the model and its analysis re-ran
    assert tweaked.recomputed() == ["model", "analyse"]
    assert tweaked.outputs["analyse"]["peak"] != \
        cold.outputs["analyse"]["peak"]
    # traceability: three complete provenance records with stage hashes
    records = result["engine"].runs()
    assert len(records) == 3
    for record in records:
        assert len(record.stages) == 4
        assert all(s.cache_key for s in record.stages)
        assert record.parameters  # the exact inputs are on the record
