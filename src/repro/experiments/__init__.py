"""Experiment harness reproducing the paper's evaluation (Section 6).

The figure/table experiments simulate the vision pipeline and therefore need
numpy; the timing harness (``harness``) and the table renderers (``report``)
do not.  Every name is exported lazily (PEP 562), so importing the package —
or ``harness`` / ``report`` directly — keeps working on machines without
numpy, and only touching a ``figures`` name pulls the simulator in.
"""

__all__ = [
    "MethodTiming",
    "ExperimentResult",
    "run_mcos_generation",
    "run_query_evaluation",
    "time_mcos_generation",
    "table6_statistics",
    "figure4_total_frames",
    "figure5_duration",
    "figure6_window_size",
    "figure7_occlusion",
    "figure8_query_count",
    "figure9_nmin",
    "figure10_end_to_end",
    "render_series_table",
    "series_to_markdown",
]

#: Lazily exported name -> defining submodule.
_SUBMODULE_OF = {
    "MethodTiming": "harness",
    "ExperimentResult": "harness",
    "run_mcos_generation": "harness",
    "run_query_evaluation": "harness",
    "time_mcos_generation": "harness",
    "table6_statistics": "figures",
    "figure4_total_frames": "figures",
    "figure5_duration": "figures",
    "figure6_window_size": "figures",
    "figure7_occlusion": "figures",
    "figure8_query_count": "figures",
    "figure9_nmin": "figures",
    "figure10_end_to_end": "figures",
    "render_series_table": "report",
    "series_to_markdown": "report",
}


def __getattr__(name):
    try:
        submodule = _SUBMODULE_OF[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{submodule}"), name)
    globals()[name] = value  # cache: __getattr__ only fires on the first miss
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
