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
    /// Forward-only cursor into a piecewise rate model: how many of its
    /// points lie at or before the latest lookup time.
    rate_cursor: usize,
    /// The latest serialisation time computed, keyed by the rate's bits
    /// and the packet size.
    ser_memo: Option<(u64, u32, SimDuration)>,
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
            rate_cursor: 0,
            ser_memo: None,
        }
    }

    /// Serialisation time of `pkt` at the rate in force at `t`, or `None`
    /// during an outage (rate 0).
    ///
    /// `t` must not precede the previous call's: the event loop asks at
    /// its own clock, which never goes back, so the rate lookup is a
    /// cursor that only moves forward instead of a binary search. Back
    /// to back packets of one size at one rate (the common case) reuse
    /// the memoised result instead of a divide and a rounding.
    pub(crate) fn service_time(&mut self, pkt: &Packet, t: SimTime) -> Option<SimDuration> {
        let rate = match &self.config.rate {
            RateModel::Fixed(r) => *r,
            RateModel::Piecewise(points) => {
                let mut next = self.rate_cursor;
                while next < points.len() && points[next].0 <= t {
                    next += 1;
                }
                self.rate_cursor = next;
                points[next.saturating_sub(1)].1
            }
        };
        if rate.bps() <= 0.0 {
            return None;
        }
        let bits = rate.bps().to_bits();
        if let Some((memo_bits, memo_size, ser)) = self.ser_memo {
            if memo_bits == bits && memo_size == pkt.size {
                return Some(ser);
            }
        }
        let ser = SimDuration::from_secs_f64(rate.secs_for_bits(pkt.bits()));
        self.ser_memo = Some((bits, pkt.size, ser));
        Some(ser)
    }

    /// The lookup `service_time` replaces, kept as its oracle: a binary
    /// search of the rate model and a divide on every call.
    #[cfg(test)]
    fn serialisation_time(&self, pkt: &Packet, t: SimTime) -> Option<SimDuration> {
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
    use fiveg_simcore::{BitRate, SimRng};

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
        let mut hop = Hop::new(cfg.clone());
        let t = hop.service_time(&pkt(), SimTime::ZERO).unwrap();
        // 1448 B at 100 Mbps ≈ 115.84 us.
        assert!((t.as_secs_f64() - 1448.0 * 8.0 / 100e6).abs() < 1e-12);

        cfg.rate = RateModel::Fixed(BitRate::ZERO);
        let mut outage = Hop::new(cfg);
        assert!(outage.service_time(&pkt(), SimTime::ZERO).is_none());
    }

    /// A random piecewise rate: steps of random length, a third of them
    /// outages, some sharing an instant, then hand-off outages on top.
    fn random_rate(rng: &mut SimRng) -> RateModel {
        let mut points = Vec::new();
        let mut t = SimTime::from_micros(rng.range_u64(0, 500));
        for _ in 0..rng.range_u64(1, 40) {
            let rate = match rng.index(3) {
                0 => BitRate::ZERO,
                _ => BitRate::from_mbps(rng.range_f64(0.5, 2_000.0)),
            };
            points.push((t, rate));
            if rng.chance(0.8) {
                t += SimDuration::from_micros(rng.range_u64(1, 5_000));
            }
        }
        let mut model = RateModel::piecewise(points);
        for _ in 0..rng.range_u64(0, 3) {
            let start = SimTime::from_micros(rng.range_u64(0, 100_000));
            model = model.with_outage(start, SimDuration::from_micros(rng.range_u64(1, 20_000)));
        }
        model
    }

    #[test]
    fn service_time_matches_a_fresh_lookup_at_non_decreasing_times() {
        let mut rng = SimRng::new(0x5e7);
        let sizes = [MSS_BYTES, MSS_BYTES, MSS_BYTES, 40, 1_200, 1];
        for _ in 0..300 {
            let mut cfg = HopConfig::wired("r", 1.0, SimDuration::ZERO, 10);
            cfg.rate = random_rate(&mut rng);
            let mut hop = Hop::new(cfg);
            let mut t = SimTime::ZERO;
            for _ in 0..400 {
                // Repeats of one instant, small steps and jumps past
                // several rate points.
                t += match rng.index(4) {
                    0 => SimDuration::ZERO,
                    1 => SimDuration::from_nanos(rng.range_u64(1, 2_000)),
                    2 => SimDuration::from_micros(rng.range_u64(1, 2_000)),
                    _ => SimDuration::from_micros(rng.range_u64(1, 40_000)),
                };
                let mut p = pkt();
                p.size = sizes[rng.index(sizes.len())];
                assert_eq!(
                    hop.service_time(&p, t),
                    hop.serialisation_time(&p, t),
                    "at {t} for {} B over {:?}",
                    p.size,
                    hop.config.rate
                );
            }
        }
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
