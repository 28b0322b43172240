//! The benchmark's workloads and metrics: the names `BENCHMARK.json`
//! lists, in the order the binary prints them.

/// One reported metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    /// Metric name, printed as-is.
    pub name: &'static str,
    /// Unit, printed after the value.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`: which direction is an improvement.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better }
}

/// Workload names with the reason each exists.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "campaign-quick",
        "The product's main use: 20 of the 25 paper registry jobs at quick fidelity through the \
         campaign executor on one worker; packet DES, phy sweeps and models in one run",
    ),
    (
        "bulk-flows",
        "Packet DES shaped like the campaign's left-out jobs: 5 CC algorithms on 5G and 4G, UDP \
         floods and probes, BBR through hand-off outages; separates transport.cc from net",
    ),
    (
        "fleet-metro",
        "1024 UEs in a 162-cell city with a cell outage, on the shard kernel: phy reads are mostly \
         re-measure cache hits and no packet DES runs",
    ),
    (
        "coverage-sweep",
        "Outdoor grid sweep of a 450-cell city through one measure scratch: phy and the tiled geo \
         index with every read a cache miss and no event kernel",
    ),
];

/// End-to-end metrics, reported by the untraced pass of every workload.
pub const END_TO_END: [Metric; 3] = [
    m("work_per_s", "work/s", "higher"),
    m("setup_s", "s", "lower"),
    m("peak_rss_mb", "MB", "lower"),
];

/// Per-layer metrics, reported by the traced pass of every workload. A
/// layer a workload never enters reads 0 there.
pub const PER_LAYER: [Metric; 51] = [
    m("bench.trace_overhead_frac", "share", "lower"),
    m("boundary.call_ns.p50", "ns", "lower"),
    m("boundary.call_ns.tail", "ns", "lower"),
    m("boundary.calls_per_round", "call/round", "lower"),
    m("campaign.self_share", "share", "lower"),
    m("core.jobs.self_share", "share", "lower"),
    m("net.self_share", "share", "lower"),
    m("transport.cc.self_share", "share", "lower"),
    m("core.fleet.self_share", "share", "lower"),
    m("phy.measure.self_share", "share", "lower"),
    m("bench.self_share", "share", "lower"),
    m("campaign.job_share.fig18_19_20", "share", "lower"),
    m("campaign.job_share.fig11", "share", "lower"),
    m("campaign.job_share.fig16", "share", "lower"),
    m("campaign.job_share.fig17", "share", "lower"),
    m("campaign.job_share.fig5_fig6", "share", "lower"),
    m("campaign.job_share.other", "share", "lower"),
    m("transport.cc.share.reno", "share", "lower"),
    m("transport.cc.share.cubic", "share", "lower"),
    m("transport.cc.share.vegas", "share", "lower"),
    m("transport.cc.share.veno", "share", "lower"),
    m("transport.cc.share.bbr", "share", "lower"),
    m("transport.cc.share.udp", "share", "lower"),
    m("net.ns_per_event.tcp", "ns", "lower"),
    m("net.ns_per_event.udp", "ns", "lower"),
    m("net.ns_per_event.handoff", "ns", "lower"),
    m("sim.events_per_s", "1/s", "higher"),
    m("sim.events.executed", "count", "lower"),
    m("sim.events.scheduled", "count", "lower"),
    m("net.packets.forwarded", "count", "lower"),
    m("net.packets.dropped", "count", "lower"),
    m("net.packets.delivered", "count", "higher"),
    m("net.reassembly.max_depth", "count", "lower"),
    m("net.delivered_frac", "share", "higher"),
    m("transport.retransmissions", "count", "lower"),
    m("transport.loss_events", "count", "lower"),
    m("transport.rto_count", "count", "lower"),
    m("transport.cwnd_updates", "count", "lower"),
    m("phy.measure.samples", "count", "lower"),
    m("phy.rays.traced", "count", "lower"),
    m("phy.buildings_pruned_per_meas", "bldg/meas", "higher"),
    m("phy.rays_per_meas", "ray/meas", "lower"),
    m("city.remeasure.skipped", "count", "higher"),
    m("fleet.remeasure_hit_frac", "share", "higher"),
    m("shard.events", "count", "lower"),
    m("shard.msgs", "count", "lower"),
    m("shard.msgs_per_ue_tick", "msg/ue-tick", "lower"),
    m("shard.parallel_speedup", "x", "higher"),
    m("scenario.handoffs", "count", "lower"),
    m("trace.events", "count", "lower"),
    m("trace.emit.overhead_frac", "share", "lower"),
];
