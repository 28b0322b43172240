//! A network hop: serialising link + finite drop-tail queue.

use crate::packet::Packet;
use crate::ratemodel::RateModel;
use fiveg_simcore::dist::Dist;
use fiveg_simcore::{SimDuration, SimTime};
use serde::Serialize;
use std::collections::VecDeque;

/// Static configuration of one hop.
#[derive(Debug, Clone, Serialize)]
pub struct HopConfig {
    /// Human-readable name ("radio", "core", "metro", ...).
    pub name: String,
    /// Link rate model.
    pub rate: RateModel,
    /// One-way propagation delay to the next hop.
    pub prop_delay: SimDuration,
    /// Queue capacity in packets (drop-tail beyond this).
    pub capacity_pkts: usize,
    /// Extra per-packet *latency* jitter in milliseconds, applied after
    /// serialisation (e.g. HARQ retransmission rounds on the radio hop,
    /// re-ordered back into sequence by RLC). Does not consume link
    /// capacity — the configured rate already accounts for the ~10 %
    /// HARQ airtime overhead. `None` = no jitter.
    pub extra_delay_ms: Option<Dist>,
    /// Random early packet drop probability (fault injection).
    pub drop_prob: f64,
}

impl HopConfig {
    /// The conservative-PDES lookahead this hop contributes when it
    /// crosses a shard boundary: its one-way propagation delay. Any
    /// event a neighbouring shard sends across this hop arrives at
    /// least this far in the future, which is what lets the shard
    /// synchronizer release a safe window of that width (see
    /// `fiveg_simcore::shard`).
    pub fn lookahead(&self) -> SimDuration {
        self.prop_delay
    }

    /// A plain wired hop.
    pub fn wired(name: &str, rate_mbps: f64, prop: SimDuration, capacity_pkts: usize) -> Self {
        HopConfig {
            name: name.to_owned(),
            rate: RateModel::Fixed(fiveg_simcore::BitRate::from_mbps(rate_mbps)),
            prop_delay: prop,
            capacity_pkts,
            extra_delay_ms: None,
            drop_prob: 0.0,
        }
    }
}

/// Runtime statistics of one hop.
#[derive(Debug, Clone, Default, Serialize)]
pub struct HopStats {
    /// Packets forwarded.
    pub forwarded: u64,
    /// Packets dropped by queue overflow.
    pub dropped_overflow: u64,
    /// Packets dropped by fault injection.
    pub dropped_random: u64,
    /// Largest queue occupancy seen, packets.
    pub max_queue_pkts: usize,
    /// Largest queueing delay experienced by a forwarded packet.
    pub max_queue_delay: SimDuration,
}

impl HopStats {
    /// Total drops.
    pub fn dropped(&self) -> u64 {
        self.dropped_overflow + self.dropped_random
    }

    /// Loss ratio among packets that arrived at this hop.
    pub fn loss_ratio(&self) -> f64 {
        let total = self.forwarded + self.dropped();
        if total == 0 {
            0.0
        } else {
            self.dropped() as f64 / total as f64
        }
    }
}

/// A queued packet with its arrival time (for queue-delay accounting).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Queued {
    pub pkt: Packet,
    pub arrived: SimTime,
}

/// Runtime state of one hop.
#[derive(Debug)]
pub struct Hop {
    /// Configuration.
    pub config: HopConfig,
    /// FIFO queue.
    pub(crate) queue: VecDeque<Queued>,
    /// Whether the link is currently serialising a packet.
    pub(crate) busy: bool,
    /// Exit timestamp of the last packet forwarded — jittered exits are
    /// clamped to this so delivery order is preserved (RLC in-order
    /// delivery).
    pub(crate) last_exit: SimTime,
    /// Statistics.
    pub stats: HopStats,
}

impl Hop {
    /// Creates an idle hop.
    pub fn new(config: HopConfig) -> Self {
        Hop {
            config,
            queue: VecDeque::new(),
            busy: false,
            last_exit: SimTime::ZERO,
            stats: HopStats::default(),
        }
    }

    /// Serialisation time of `pkt` at the rate in force at `t`, or `None`
    /// during an outage (rate 0).
    pub fn serialisation_time(&self, pkt: &Packet, t: SimTime) -> Option<SimDuration> {
        let rate = self.config.rate.rate_at(t);
        if rate.bps() <= 0.0 {
            None
        } else {
            Some(SimDuration::from_secs_f64(rate.secs_for_bits(pkt.bits())))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{FlowId, MSS_BYTES};
    use fiveg_simcore::BitRate;

    fn pkt() -> Packet {
        Packet {
            flow: FlowId(0),
            seq: 0,
            size: MSS_BYTES,
            sent_at: SimTime::ZERO,
            retx: false,
        }
    }

    #[test]
    fn serialisation_time_follows_rate() {
        let mut cfg = HopConfig::wired("w", 100.0, SimDuration::from_millis(1), 100);
        let hop = Hop::new(cfg.clone());
        let t = hop.serialisation_time(&pkt(), SimTime::ZERO).unwrap();
        // 1448 B at 100 Mbps ≈ 115.84 us.
        assert!((t.as_secs_f64() - 1448.0 * 8.0 / 100e6).abs() < 1e-12);

        cfg.rate = RateModel::Fixed(BitRate::ZERO);
        let outage = Hop::new(cfg);
        assert!(outage.serialisation_time(&pkt(), SimTime::ZERO).is_none());
    }

    #[test]
    fn stats_loss_ratio() {
        let mut s = HopStats::default();
        assert_eq!(s.loss_ratio(), 0.0);
        s.forwarded = 90;
        s.dropped_overflow = 8;
        s.dropped_random = 2;
        assert!((s.loss_ratio() - 0.1).abs() < 1e-12);
        assert_eq!(s.dropped(), 10);
    }
}
