"""WQ (extension) — the next storyboard: scenario impact on water quality.

Section V-B ends with "enthusiasm from stakeholders to develop new tools
based on new storyboards (e.g. what would be the impact of this scenario
on catchment water quality)", and the introduction motivates diffuse
pollution questions ("what could be done to reduce diffuse pollution
affecting the North Sea?").  This bench runs the implemented tool: the
four land-management scenarios' sediment and nutrient loads at the
Morland outlet.  Expected shape: soil compaction multiplies the sediment
and phosphorus export; afforestation and attenuation ponds cut it.
"""

from benchmarks.harness import assert_each_was_computed, once, print_table
from repro.data import STUDY_CATCHMENTS
from repro.modellib import make_water_quality_process


def run_scenarios():
    morland = STUDY_CATCHMENTS["morland"]
    process = make_water_quality_process(morland)
    results = {}
    for scenario in ("baseline", "afforestation", "compaction",
                     "storage_ponds"):
        inputs = process.validate({"duration_hours": 120,
                                   "scenario": scenario,
                                   "storm_depth_mm": 60.0})
        results[scenario] = process.execute(inputs)
    assert_each_was_computed(process, len(results))
    return results


def test_water_quality_scenarios(benchmark):
    results = once(benchmark, run_scenarios)

    rows = []
    for scenario, out in results.items():
        rows.append([
            scenario,
            out["peak_sediment_mgl"],
            out["sediment_load_kg"],
            out["nitrate_load_kg"],
            out["phosphorus_load_kg"],
        ])
    print_table(
        "Next storyboard - water quality under the land-use scenarios "
        "(Morland, 60mm storm, 120h)",
        ["scenario", "peak sediment mg/l", "sediment load kg",
         "nitrate load kg", "phosphorus load kg"],
        rows)

    base = results["baseline"]
    compacted = results["compaction"]
    forested = results["afforestation"]
    ponds = results["storage_ponds"]

    # compaction mobilises sediment and surface nutrients
    assert compacted["sediment_load_kg"] > 2 * base["sediment_load_kg"]
    assert compacted["phosphorus_load_kg"] > base["phosphorus_load_kg"]
    # both mitigation measures cut the sediment export
    assert forested["sediment_load_kg"] < base["sediment_load_kg"]
    assert ponds["sediment_load_kg"] < base["sediment_load_kg"]
    # afforestation also reduces the nutrient flux
    assert forested["nitrate_load_kg"] < base["nitrate_load_kg"]
    # concentrations are physical everywhere
    for out in results.values():
        assert all(v >= 0 for v in out["sediment_mgl"])
