//! Typed trace events and their normalized columnar row shape.
//!
//! Every event lowers to the same 9-column row so one columnar file
//! holds the whole trace and readers can filter without per-kind
//! schemas. The columns:
//!
//! | column  | type | meaning                                          |
//! |---------|------|--------------------------------------------------|
//! | `t_ns`  | u64  | simulation time, nanoseconds                     |
//! | `origin`| u32  | logical origin stream (see below)                |
//! | `seq`   | u32  | per-origin monotone sequence number              |
//! | `kind`  | u8   | event kind code ([`TraceEvent::kind`])           |
//! | `ue`    | u32  | UE / flow index, or [`NO_UE`] when not applicable|
//! | `a`     | u32  | kind-specific (PCI, source shard, state code, …) |
//! | `b`     | u32  | kind-specific (target PCI, dest shard, …)        |
//! | `v0`    | f64  | kind-specific (RSRP dBm, margin dB, Mbit/s, …)   |
//! | `v1`    | f64  | kind-specific (hysteresis dB, RSRP dBm, …)       |
//!
//! **Logical origins.** `origin` is a *logical* stream id, not a
//! physical shard id: UE events use the UE's chunk index, router-hub
//! events use [`ROUTER_ORIGIN`], and serial experiment code uses 0.
//! Logical origins are invariant under `FIVEG_SHARDS`, which is what
//! makes the merged `(t_ns, origin, seq)` order — and therefore the
//! trace bytes — shard-count invariant. The one exception is the
//! `shard` category (message send/recv), whose events are keyed by
//! *physical* shard ids and therefore vary with the shard count; it is
//! excluded from the default category set and from the cross-shard
//! byte-identity contract.

/// `ue` column value for events not tied to a UE.
pub const NO_UE: u32 = u32::MAX;

/// Logical origin used by the router-hub / aggregation stream.
pub const ROUTER_ORIGIN: u32 = u32::MAX;

/// Event category, used for filtering and ring-buffer bounds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Category {
    /// Attach decisions and handoffs (paper Fig. 8 territory).
    Radio,
    /// Fault-schedule transitions: outages, restores, brownout caps.
    Fault,
    /// Per-tick per-UE KPI rows.
    Kpi,
    /// Transport congestion-control state transitions.
    Cc,
    /// Physical shard-kernel message send/recv. Keyed by physical
    /// shard ids: NOT shard-count invariant, opt-in only.
    Shard,
}

impl Category {
    /// All categories, in stable order.
    pub const ALL: [Category; 5] = [
        Category::Radio,
        Category::Fault,
        Category::Kpi,
        Category::Cc,
        Category::Shard,
    ];

    /// Stable lowercase name (DSL / sidecar spelling).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Category::Radio => "radio",
            Category::Fault => "fault",
            Category::Kpi => "kpi",
            Category::Cc => "cc",
            Category::Shard => "shard",
        }
    }

    /// Inverse of [`Category::name`].
    #[must_use]
    pub fn from_name(s: &str) -> Option<Category> {
        Category::ALL.into_iter().find(|c| c.name() == s)
    }

    /// Bit in the category mask.
    #[must_use]
    pub fn bit(self) -> u8 {
        match self {
            Category::Radio => 1,
            Category::Fault => 2,
            Category::Kpi => 4,
            Category::Cc => 8,
            Category::Shard => 16,
        }
    }

    /// Default mask: everything whose bytes are shard-count invariant.
    #[must_use]
    pub fn default_mask() -> u8 {
        Category::Radio.bit() | Category::Fault.bit() | Category::Kpi.bit() | Category::Cc.bit()
    }
}

/// A typed trace event. Times are simulation nanoseconds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TraceEvent {
    /// UE attached to a cell (first attach or re-attach from outage).
    Attach {
        /// Simulation time, nanoseconds.
        t_ns: u64,
        /// UE id.
        ue: u32,
        /// Physical cell id attached to.
        pci: u32,
        /// RSRP at attach, dBm.
        rsrp_dbm: f64,
    },
    /// Handoff decision, with the hysteresis inputs that triggered it.
    Handoff {
        /// Simulation time, nanoseconds.
        t_ns: u64,
        /// UE id.
        ue: u32,
        /// Serving cell before the handoff.
        from_pci: u32,
        /// Serving cell after the handoff.
        to_pci: u32,
        /// RSRP margin of the target over the source, dB.
        margin_db: f64,
        /// Hysteresis threshold the margin had to clear, dB.
        hysteresis_db: f64,
    },
    /// Cell went down (fault schedule).
    CellOutage {
        /// Simulation time, nanoseconds.
        t_ns: u64,
        /// Physical cell id that failed.
        pci: u32,
    },
    /// Cell came back.
    CellRestore {
        /// Simulation time, nanoseconds.
        t_ns: u64,
        /// Physical cell id restored.
        pci: u32,
    },
    /// Backhaul brownout cap changed; `cap_mbps < 0` means lifted.
    BrownoutCap {
        /// Simulation time, nanoseconds.
        t_ns: u64,
        /// New backhaul cap, Mbit/s (negative = cap removed).
        cap_mbps: f64,
    },
    /// Shard kernel cross-shard message enqueued (physical ids).
    ShardMsgSend {
        /// Simulation time, nanoseconds.
        t_ns: u64,
        /// Sending shard-local node id.
        src: u32,
        /// Receiving shard-local node id.
        dst: u32,
    },
    /// Shard kernel cross-shard message executed (physical ids).
    ShardMsgRecv {
        /// Simulation time, nanoseconds.
        t_ns: u64,
        /// Sending shard-local node id.
        src: u32,
        /// Receiving shard-local node id.
        dst: u32,
    },
    /// Congestion-control state change: 0 open, 1 recovery, 2 loss/RTO.
    CcState {
        /// Simulation time, nanoseconds.
        t_ns: u64,
        /// Flow id.
        flow: u32,
        /// New state code (0 open, 1 recovery, 2 loss/RTO).
        state: u32,
        /// Congestion-control algorithm code.
        alg: u32,
    },
    /// Per-tick UE KPI row (subject to the sampling rate).
    Kpi {
        /// Simulation time, nanoseconds.
        t_ns: u64,
        /// UE id.
        ue: u32,
        /// Serving physical cell id.
        pci: u32,
        /// Whether the UE was in service this tick.
        in_service: bool,
        /// Delivered application bitrate, Mbit/s.
        bitrate_mbps: f64,
        /// Serving-cell RSRP, dBm.
        rsrp_dbm: f64,
    },
}

/// Kind code names, indexed by kind code.
pub const KIND_NAMES: [&str; 9] = [
    "attach",
    "handoff",
    "cell_outage",
    "cell_restore",
    "brownout_cap",
    "shard_msg_send",
    "shard_msg_recv",
    "cc_state",
    "kpi",
];

impl TraceEvent {
    /// Stable kind code (the `kind` column).
    #[must_use]
    pub fn kind(&self) -> u8 {
        match self {
            TraceEvent::Attach { .. } => 0,
            TraceEvent::Handoff { .. } => 1,
            TraceEvent::CellOutage { .. } => 2,
            TraceEvent::CellRestore { .. } => 3,
            TraceEvent::BrownoutCap { .. } => 4,
            TraceEvent::ShardMsgSend { .. } => 5,
            TraceEvent::ShardMsgRecv { .. } => 6,
            TraceEvent::CcState { .. } => 7,
            TraceEvent::Kpi { .. } => 8,
        }
    }

    /// Category this event belongs to.
    #[must_use]
    pub fn category(&self) -> Category {
        match self {
            TraceEvent::Attach { .. } | TraceEvent::Handoff { .. } => Category::Radio,
            TraceEvent::CellOutage { .. }
            | TraceEvent::CellRestore { .. }
            | TraceEvent::BrownoutCap { .. } => Category::Fault,
            TraceEvent::ShardMsgSend { .. } | TraceEvent::ShardMsgRecv { .. } => Category::Shard,
            TraceEvent::CcState { .. } => Category::Cc,
            TraceEvent::Kpi { .. } => Category::Kpi,
        }
    }

    /// Simulation timestamp.
    #[must_use]
    pub fn t_ns(&self) -> u64 {
        match *self {
            TraceEvent::Attach { t_ns, .. }
            | TraceEvent::Handoff { t_ns, .. }
            | TraceEvent::CellOutage { t_ns, .. }
            | TraceEvent::CellRestore { t_ns, .. }
            | TraceEvent::BrownoutCap { t_ns, .. }
            | TraceEvent::ShardMsgSend { t_ns, .. }
            | TraceEvent::ShardMsgRecv { t_ns, .. }
            | TraceEvent::CcState { t_ns, .. }
            | TraceEvent::Kpi { t_ns, .. } => t_ns,
        }
    }

    /// Lowers to the kind-specific payload columns `(ue, a, b, v0, v1)`.
    #[must_use]
    pub fn payload(&self) -> (u32, u32, u32, f64, f64) {
        match *self {
            TraceEvent::Attach {
                ue, pci, rsrp_dbm, ..
            } => (ue, pci, 0, rsrp_dbm, 0.0),
            TraceEvent::Handoff {
                ue,
                from_pci,
                to_pci,
                margin_db,
                hysteresis_db,
                ..
            } => (ue, from_pci, to_pci, margin_db, hysteresis_db),
            TraceEvent::CellOutage { pci, .. } => (NO_UE, pci, 0, 0.0, 0.0),
            TraceEvent::CellRestore { pci, .. } => (NO_UE, pci, 0, 0.0, 0.0),
            TraceEvent::BrownoutCap { cap_mbps, .. } => (NO_UE, 0, 0, cap_mbps, 0.0),
            TraceEvent::ShardMsgSend { src, dst, .. } => (NO_UE, src, dst, 0.0, 0.0),
            TraceEvent::ShardMsgRecv { src, dst, .. } => (NO_UE, src, dst, 0.0, 0.0),
            TraceEvent::CcState {
                flow, state, alg, ..
            } => (flow, state, alg, 0.0, 0.0),
            TraceEvent::Kpi {
                ue,
                pci,
                in_service,
                bitrate_mbps,
                rsrp_dbm,
                ..
            } => (ue, pci, u32::from(in_service), bitrate_mbps, rsrp_dbm),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_cover_all_kinds() {
        let evs = [
            TraceEvent::Attach {
                t_ns: 1,
                ue: 2,
                pci: 3,
                rsrp_dbm: -80.0,
            },
            TraceEvent::Handoff {
                t_ns: 1,
                ue: 2,
                from_pci: 3,
                to_pci: 4,
                margin_db: 3.0,
                hysteresis_db: 3.0,
            },
            TraceEvent::CellOutage { t_ns: 1, pci: 3 },
            TraceEvent::CellRestore { t_ns: 1, pci: 3 },
            TraceEvent::BrownoutCap {
                t_ns: 1,
                cap_mbps: 50.0,
            },
            TraceEvent::ShardMsgSend {
                t_ns: 1,
                src: 0,
                dst: 1,
            },
            TraceEvent::ShardMsgRecv {
                t_ns: 1,
                src: 0,
                dst: 1,
            },
            TraceEvent::CcState {
                t_ns: 1,
                flow: 0,
                state: 1,
                alg: 0,
            },
            TraceEvent::Kpi {
                t_ns: 1,
                ue: 2,
                pci: 3,
                in_service: true,
                bitrate_mbps: 10.0,
                rsrp_dbm: -80.0,
            },
        ];
        let mut kinds: Vec<u8> = evs.iter().map(TraceEvent::kind).collect();
        kinds.sort_unstable();
        assert_eq!(kinds, (0..9).collect::<Vec<u8>>());
        assert_eq!(KIND_NAMES.len(), 9);
    }

    #[test]
    fn category_round_trips_names() {
        for c in Category::ALL {
            assert_eq!(Category::from_name(c.name()), Some(c));
        }
        assert_eq!(Category::from_name("nope"), None);
        assert_eq!(Category::default_mask() & Category::Shard.bit(), 0);
    }
}
