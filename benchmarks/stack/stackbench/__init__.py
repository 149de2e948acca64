"""The layered stack benchmark (see ../README.md).

Everything here drives the system from outside, through public functions of
``repro`` only; no module under ``src/`` knows this package exists.
"""

#: Workload names, in the order BENCHMARK.json lists them.
WORKLOADS = ("dense_scene", "query_fanout", "multicam_pool", "gateway_open_loop")
