"""Names and units of the benchmark's workloads and metrics (stdlib only).

``BENCHMARK.json`` at the repository root lists the same names; the
benchmark's tests check that the two agree.
"""

WORKLOADS = ("paper_bus", "scale_switch", "traffic_sweep", "cluster_requests")

#: end-to-end metrics (reported with ``--trace 0``): name -> unit
END_TO_END = {
    "pass_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: repro packages whose self time and calls the traced run reports
TRACED_LAYERS = ("sim", "osmodel", "dse", "network", "protocol", "apps", "traffic")

#: per-layer metrics (reported with ``--trace 1``): name -> unit
PER_LAYER = {
    "sim.self_s": "s",
    "sim.calls": "count",
    "sim.events": "count",
    "sim.cancelled": "count",
    "sim.cancel_ratio": "ratio",
    "sim.us_per_event": "us",
    "osmodel.self_s": "s",
    "osmodel.calls": "count",
    "osmodel.bursts": "count",
    "osmodel.runq_avg": "procs",
    "dse.self_s": "s",
    "dse.calls": "count",
    "dse.msgs": "count",
    "dse.gm_remote_reads": "count",
    "dse.gm_remote_writes": "count",
    "dse.gm_batch_flushes": "count",
    "network.self_s": "s",
    "network.calls": "count",
    "network.frames": "count",
    "network.bytes": "bytes",
    "network.collisions": "count",
    "network.collision_rate": "ratio",
    "protocol.self_s": "s",
    "protocol.calls": "count",
    "protocol.retransmissions": "count",
    "protocol.timeouts": "count",
    "protocol.useful_ratio": "ratio",
    "apps.self_s": "s",
    "apps.calls": "count",
    "traffic.self_s": "s",
    "traffic.calls": "count",
    "traffic.requests": "count",
    "traffic.clones_cancelled": "count",
    "traffic.clone_waste_ratio": "ratio",
    "ssi.self_s": "s",
    "hardware.self_s": "s",
    "trace.overhead": "x",
}
