//! Regression test for the simulator's FIFO pipes.
//!
//! Packets in flight and ACKs wait in per-hop FIFO pipes whose events
//! ride event-queue lanes; a pipe only works while its stream's times
//! never go backwards. This run pushes on every part of that: a jittered
//! radio hop (exits clamped back into order), a piecewise outage (exits
//! bunch up behind it), random drops, two overlapping cross-traffic
//! sources, and senders with retransmission, pacing and auxiliary timers
//! whose delays are random. Every number below was recorded with the
//! single-heap event queue the lanes replaced; any drift means the pop
//! order changed.

use fiveg_net::{
    AckInfo, CrossTraffic, Ctx, Endpoint, HopConfig, NetSim, PathConfig, RateModel, TimerKind,
    MSS_BYTES,
};
use fiveg_simcore::hash::{fnv1a64_extend, hex64, FNV_OFFSET};
use fiveg_simcore::{BitRate, Dist, SimDuration, SimTime};
use rand::Rng;
use std::fmt::Write;

const MSS: u64 = MSS_BYTES as u64;

/// Go-back-N over cumulative ACKs, with a randomised retransmission
/// timeout so RTO timers arrive out of order.
struct GoBackN {
    window: u64,
    total: u64,
    snd_una: u64,
    snd_nxt: u64,
    high_water: u64,
    rto_id: Option<u64>,
}

impl GoBackN {
    fn fill(&mut self, ctx: &mut Ctx) {
        while self.snd_nxt < self.total && self.snd_nxt < self.snd_una + self.window * MSS {
            ctx.send_packet(self.snd_nxt, MSS_BYTES, self.snd_nxt < self.high_water);
            self.snd_nxt += MSS;
            self.high_water = self.high_water.max(self.snd_nxt);
        }
    }

    fn arm(&mut self, ctx: &mut Ctx) {
        let ms = ctx.rng().gen_range(40.0..160.0);
        let delay = SimDuration::from_millis_f64(ms);
        self.rto_id = Some(ctx.set_timer(TimerKind::Rto, delay));
    }
}

impl Endpoint for GoBackN {
    fn on_start(&mut self, ctx: &mut Ctx) {
        self.fill(ctx);
        self.arm(ctx);
    }
    fn on_ack(&mut self, ack: AckInfo, ctx: &mut Ctx) {
        if ack.cum_ack > self.snd_una {
            self.snd_una = ack.cum_ack;
            self.snd_nxt = self.snd_nxt.max(self.snd_una);
            self.arm(ctx);
        }
        self.fill(ctx);
    }
    fn on_timer(&mut self, _: TimerKind, id: u64, ctx: &mut Ctx) {
        if self.rto_id == Some(id) && self.snd_una < self.total {
            self.snd_nxt = self.snd_una;
            self.fill(ctx);
            self.arm(ctx);
        }
    }
}

/// Open-loop sender: one packet per pacing timer at a jittered gap, plus
/// a burst on each auxiliary timer.
struct Paced {
    next_seq: u64,
    stop: SimTime,
}

impl Paced {
    fn send(&mut self, ctx: &mut Ctx) {
        ctx.send_packet(self.next_seq, MSS_BYTES, false);
        self.next_seq += MSS;
    }
}

impl Endpoint for Paced {
    fn on_start(&mut self, ctx: &mut Ctx) {
        ctx.set_timer(TimerKind::Pace, SimDuration::ZERO);
        ctx.set_timer(TimerKind::Aux(7), SimDuration::from_millis(30));
    }
    fn on_ack(&mut self, _: AckInfo, _: &mut Ctx) {}
    fn on_timer(&mut self, kind: TimerKind, _: u64, ctx: &mut Ctx) {
        if ctx.now() >= self.stop {
            return;
        }
        match kind {
            TimerKind::Pace => {
                self.send(ctx);
                let us = ctx.rng().gen_range(200.0..900.0);
                ctx.set_timer(TimerKind::Pace, SimDuration::from_secs_f64(us * 1e-6));
            }
            TimerKind::Aux(_) => {
                for _ in 0..8 {
                    self.send(ctx);
                }
                let ms = ctx.rng().gen_range(10.0..80.0);
                ctx.set_timer(TimerKind::Aux(7), SimDuration::from_millis_f64(ms));
            }
            TimerKind::Rto => {}
        }
    }
}

fn path() -> PathConfig {
    let ms = SimTime::from_millis;
    let radio = HopConfig {
        name: "radio".into(),
        rate: RateModel::piecewise(vec![
            (SimTime::ZERO, BitRate::from_mbps(60.0)),
            (ms(400), BitRate::ZERO),
            (ms(520), BitRate::from_mbps(35.0)),
            (ms(1200), BitRate::from_mbps(80.0)),
        ]),
        prop_delay: SimDuration::from_millis(2),
        capacity_pkts: 120,
        extra_delay_ms: Some(Dist::Exponential { mean: 1.5 }),
        drop_prob: 0.01,
    };
    let mut metro = HopConfig::wired("metro", 100.0, SimDuration::from_millis(4), 40);
    metro.drop_prob = 0.002;
    let core = HopConfig::wired("core", 400.0, SimDuration::from_millis(6), 200);
    PathConfig {
        hops: vec![radio, metro, core],
        reverse_delay: SimDuration::from_millis(9),
    }
}

/// Runs the scenario and renders every pinned number, one per line.
fn run() -> String {
    let metrics = fiveg_obs::MetricsHandle::new();
    let mut out = fiveg_obs::scoped(&metrics, || {
        let mut sim = NetSim::new(path(), 2020);
        for (rate, on) in [(30.0, 20.0), (45.0, 8.0)] {
            sim.add_cross_traffic(CrossTraffic {
                hop: 1,
                rate: BitRate::from_mbps(rate),
                on_ms: Dist::Exponential { mean: on },
                off_ms: Dist::Exponential { mean: 15.0 },
            });
        }
        let tcp = sim.add_flow(
            Box::new(GoBackN {
                window: 48,
                total: 3_000 * MSS,
                snd_una: 0,
                snd_nxt: 0,
                high_water: 0,
                rto_id: None,
            }),
            true,
            false,
        );
        let paced = sim.add_flow(
            Box::new(Paced {
                next_seq: 0,
                stop: SimTime::from_millis(1500),
            }),
            false,
            true,
        );
        sim.run_until(SimTime::from_secs(2));
        let mut out = String::new();
        for (name, flow) in [("tcp", tcp), ("paced", paced)] {
            let st = sim.flow_stats(flow);
            let windows = st.window_bytes.iter().fold(FNV_OFFSET, |h, b| {
                fnv1a64_extend(h, &b.to_bits().to_le_bytes())
            });
            let seqs = st
                .seq_log
                .iter()
                .fold(FNV_OFFSET, |h, s| fnv1a64_extend(h, &s.to_le_bytes()));
            writeln!(
                out,
                "flow {name}: in_order={} received={} packets={} windows={} seq_log={}/{}",
                st.bytes_in_order,
                st.bytes_received,
                st.packets_received,
                hex64(windows),
                st.seq_log.len(),
                hex64(seqs),
            )
            .unwrap();
        }
        for (i, hop) in sim.hops().iter().enumerate() {
            let hs = sim.hop_stats(i);
            writeln!(
                out,
                "hop {}: forwarded={} overflow={} random={} max_queue={} max_delay_ns={}",
                hop.config.name,
                hs.forwarded,
                hs.dropped_overflow,
                hs.dropped_random,
                hs.max_queue_pkts,
                hs.max_queue_delay.as_nanos(),
            )
            .unwrap();
        }
        out
    });
    let snap = metrics.snapshot();
    for (name, value) in snap.counters.iter().chain(&snap.gauges) {
        writeln!(out, "{name}={value}").unwrap();
    }
    out
}

#[test]
fn pipes_keep_the_single_heap_pop_order() {
    let expected = "\
flow tcp: in_order=1207632 received=2004032 packets=1384 windows=366c73deef51716a seq_log=0/cbf29ce484222325
flow paced: in_order=4344 received=4158656 packets=2872 windows=ccdcdb8705e3fc4d seq_log=2872/24db083be441a20a
hop radio: forwarded=4299 overflow=149 random=58 max_queue=120 max_delay_ns=119789667
hop metro: forwarded=9455 overflow=22 random=21 max_queue=40 max_delay_ns=4629970
hop core: forwarded=4256 overflow=0 random=0 max_queue=0 max_delay_ns=0
net.packets.delivered=4256
net.packets.dropped=250
net.packets.forwarded=18010
sim.events.executed=45454
sim.events.scheduled=45515
net.reassembly.max_depth=50
";
    assert_eq!(run(), expected);
}
