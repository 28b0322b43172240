//! UDP constant-bit-rate source.
//!
//! The paper's baseline methodology (Sec. 4.1): ramp UDP until the
//! receiver-side peak is found, then probe loss at fractions of that
//! baseline (Fig. 9). The source paces MSS-sized datagrams at the target
//! rate; receiver statistics come from `fiveg_net::FlowStats`.

use fiveg_net::{AckInfo, Ctx, Endpoint, TimerKind, MSS_BYTES};
use fiveg_simcore::{BitRate, SimDuration, SimTime};
#[expect(clippy::disallowed_types, reason = "the UdpReport handle")]
use parking_lot::Mutex;
use std::sync::Arc;

/// Shared, externally-readable UDP sender statistics.
#[derive(Debug, Default)]
pub struct UdpReport {
    /// Datagrams sent.
    pub packets_sent: u64,
    /// Bytes sent.
    pub bytes_sent: u64,
}

/// A paced CBR datagram source.
#[expect(
    clippy::disallowed_types,
    reason = "a report handle read after a single-threaded run; no other thread writes it"
)]
pub struct UdpCbrSender {
    rate: BitRate,
    stop_at: Option<SimTime>,
    seq: u64,
    report: Arc<Mutex<UdpReport>>,
}

impl UdpCbrSender {
    /// Creates a CBR source at `rate`, optionally stopping at `stop_at`.
    #[expect(clippy::disallowed_types, reason = "hands out the UdpReport handle")]
    pub fn new(rate: BitRate, stop_at: Option<SimTime>) -> (Self, Arc<Mutex<UdpReport>>) {
        assert!(rate.bps() > 0.0, "CBR rate must be positive");
        let report = Arc::new(Mutex::new(UdpReport::default()));
        (
            UdpCbrSender {
                rate,
                stop_at,
                seq: 0,
                report: report.clone(),
            },
            report,
        )
    }

    fn gap(&self) -> SimDuration {
        SimDuration::from_secs_f64(self.rate.secs_for_bits(MSS_BYTES as f64 * 8.0))
    }

    fn emit(&mut self, ctx: &mut Ctx) {
        if let Some(stop) = self.stop_at {
            if ctx.now() >= stop {
                return;
            }
        }
        ctx.send_packet(self.seq, MSS_BYTES, false);
        self.seq += MSS_BYTES as u64;
        {
            let mut rep = self.report.lock();
            rep.packets_sent += 1;
            rep.bytes_sent += MSS_BYTES as u64;
        }
        let gap = self.gap();
        ctx.set_timer(TimerKind::Pace, gap);
    }
}

impl Endpoint for UdpCbrSender {
    fn on_start(&mut self, ctx: &mut Ctx) {
        self.emit(ctx);
    }

    fn on_ack(&mut self, _ack: AckInfo, _ctx: &mut Ctx) {
        // UDP: no feedback loop.
    }

    fn on_timer(&mut self, kind: TimerKind, _id: u64, ctx: &mut Ctx) {
        if kind == TimerKind::Pace {
            self.emit(ctx);
        }
    }
}

/// Result of one UDP loss probe.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UdpProbeResult {
    /// Offered rate.
    pub offered: BitRate,
    /// Receiver goodput.
    pub received: BitRate,
    /// End-to-end loss ratio.
    pub loss_ratio: f64,
}

/// Runs one UDP CBR probe of `duration` at `rate` over `path`, returning
/// offered/received/loss. `seed` pins the cross-traffic sample path.
pub fn udp_probe(
    path: fiveg_net::PathConfig,
    cross: Option<fiveg_net::crosstraffic::CrossTraffic>,
    rate: BitRate,
    duration: SimDuration,
    seed: u64,
) -> UdpProbeResult {
    let mut sim = fiveg_net::NetSim::new(path, seed);
    if let Some(ct) = cross {
        sim.add_cross_traffic(ct);
    }
    let end = SimTime::ZERO + duration;
    let (sender, report) = UdpCbrSender::new(rate, Some(end));
    let flow = sim.add_flow(Box::new(sender), false, false);
    // Run a little past the stop time so in-flight datagrams land.
    sim.run_until(end + SimDuration::from_secs(1));
    let sent = report.lock().packets_sent;
    let recv = sim.flow_stats(flow).packets_received;
    let received = BitRate::from_bps(
        sim.flow_stats(flow).bytes_received as f64 * 8.0 / duration.as_secs_f64(),
    );
    UdpProbeResult {
        offered: rate,
        received,
        loss_ratio: if sent == 0 {
            0.0
        } else {
            1.0 - recv as f64 / sent as f64
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fiveg_net::hop::HopConfig;
    use fiveg_net::PathConfig;

    fn path(rate_mbps: f64, cap: usize) -> PathConfig {
        PathConfig {
            hops: vec![HopConfig::wired(
                "bn",
                rate_mbps,
                SimDuration::from_millis(2),
                cap,
            )],
            reverse_delay: SimDuration::from_millis(2),
        }
    }

    #[test]
    fn cbr_under_capacity_is_lossless() {
        let r = udp_probe(
            path(100.0, 100),
            None,
            BitRate::from_mbps(50.0),
            SimDuration::from_secs(3),
            1,
        );
        assert_eq!(r.loss_ratio, 0.0);
        assert!((r.received.mbps() - 50.0).abs() < 2.0, "{}", r.received);
    }

    #[test]
    fn cbr_over_capacity_saturates_and_loses() {
        let r = udp_probe(
            path(100.0, 100),
            None,
            BitRate::from_mbps(150.0),
            SimDuration::from_secs(3),
            2,
        );
        assert!(r.loss_ratio > 0.25, "loss {}", r.loss_ratio);
        assert!((r.received.mbps() - 100.0).abs() < 5.0, "{}", r.received);
    }

    #[test]
    fn paced_rate_is_accurate() {
        let r = udp_probe(
            path(1000.0, 1000),
            None,
            BitRate::from_mbps(333.0),
            SimDuration::from_secs(2),
            3,
        );
        assert!((r.received.mbps() - 333.0).abs() < 5.0, "{}", r.received);
    }
}
