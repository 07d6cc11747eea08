"""FIG6 — the modelling widget's scenario hydrographs.

Figure 6 shows the LEFT widget's output: the flood hydrograph under the
four stakeholder scenarios.  The paper's qualitative shape: scenarios
"illustrate how changes to land use and land management practices are
likely to impact flood risk at the catchment outlet" — soil compaction
worsens the flood peak, afforestation and runoff-attenuation ponds
reduce it.  We regenerate the widget's summary table for both deployed
models (TOPMODEL and the FUSE ensemble) on the Morland design storm.
"""

from benchmarks.harness import assert_each_was_computed, once, print_table
from repro.data import STUDY_CATCHMENTS
from repro.modellib import make_fuse_process, make_topmodel_process


def run_experiment():
    morland = STUDY_CATCHMENTS["morland"]
    topmodel = make_topmodel_process(morland)
    fuse = make_fuse_process(morland)
    results = {}
    for scenario in ("baseline", "afforestation", "compaction",
                     "storage_ponds"):
        inputs = {"duration_hours": 120, "scenario": scenario,
                  "storm_depth_mm": 60.0}
        top_out = topmodel.execute(topmodel.validate(dict(inputs)))
        fuse_out = fuse.execute(fuse.validate(dict(inputs)))
        results[scenario] = {"topmodel": top_out, "fuse": fuse_out}
    assert_each_was_computed(topmodel, len(results))
    assert_each_was_computed(fuse, len(results))
    return results


def test_fig6_scenario_hydrographs(benchmark):
    results = once(benchmark, run_experiment)

    rows = []
    for scenario, models in results.items():
        top = models["topmodel"]
        fuse = models["fuse"]
        rows.append([
            scenario,
            top["peak_mm_h"], top["peak_time_hours"], top["volume_mm"],
            "yes" if top["threshold_exceeded"] else "no",
            fuse["peak_mm_h"],
        ])
    print_table(
        "Fig. 6 - flood hydrograph under the four land-use scenarios "
        "(Morland, 60mm design storm)",
        ["scenario", "TOPMODEL peak mm/h", "peak hour", "volume mm",
         "floods?", "FUSE-mean peak mm/h"],
        rows)

    top_peaks = {s: m["topmodel"]["peak_mm_h"] for s, m in results.items()}
    # the paper's shape: compaction raises the peak, the two mitigation
    # scenarios lower it
    assert top_peaks["compaction"] > 1.5 * top_peaks["baseline"]
    assert top_peaks["afforestation"] < top_peaks["baseline"]
    assert top_peaks["storage_ponds"] < top_peaks["baseline"]
    # only compaction pushes Morland over its flood threshold here
    assert results["compaction"]["topmodel"]["threshold_exceeded"]
    assert not results["afforestation"]["topmodel"]["threshold_exceeded"]
    # storage ponds delay the peak (attenuation), they don't remove volume
    assert results["storage_ponds"]["topmodel"]["peak_time_hours"] >= \
        results["baseline"]["topmodel"]["peak_time_hours"]
    baseline_volume = results["baseline"]["topmodel"]["volume_mm"]
    ponds_volume = results["storage_ponds"]["topmodel"]["volume_mm"]
    assert abs(ponds_volume - baseline_volume) / baseline_volume < 0.1
    # the FUSE ensemble agrees on the direction of the compaction effect
    fuse_peaks = {s: m["fuse"]["peak_mm_h"] for s, m in results.items()}
    assert fuse_peaks["afforestation"] < fuse_peaks["baseline"]


def test_fig6_slider_sensitivity(benchmark):
    """The expert path: slider overrides change the response as physics says."""
    morland = STUDY_CATCHMENTS["morland"]
    process = make_topmodel_process(morland)

    def run():
        out = {}
        for m_value in (8.0, 15.0, 40.0):
            inputs = process.validate({"duration_hours": 96, "m": m_value})
            out[m_value] = process.execute(inputs)["peak_mm_h"]
        assert_each_was_computed(process, len(out))
        return out

    peaks = once(benchmark, run)
    print_table("Fig. 6 (sliders) - peak flow vs transmissivity decay m",
                ["m (mm)", "peak mm/h"],
                [[m, p] for m, p in sorted(peaks.items())])
    # smaller m = flashier catchment = higher peak
    ordered = [peaks[m] for m in sorted(peaks)]
    assert ordered[0] > ordered[-1]
