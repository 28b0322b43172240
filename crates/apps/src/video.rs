//! The 360TEL UHD panoramic video-telephony model (Sec. 5.2).
//!
//! A live 360° camera feeds an H.264 hardware codec at 30 fps; frames
//! stream uplink over RTMP/TCP to the cloud. The paper's measured
//! pipeline latencies: capture + patch-splice + render ≈440 ms, encode
//! ≈160 ms, decode ≈50 ms — a ≈650 ms processing floor that is ~10× the
//! network transmission delay and dominates end-to-end frame delay
//! (Fig. 20). Dynamic scenes inflate the rate (less inter-frame
//! compression) and its variance, occasionally exceeding even the 5G
//! uplink and freezing frames (Fig. 19).

use fiveg_net::path::PathConfig;
use fiveg_net::{AckInfo, Ctx, Endpoint, NetSim, TimerKind};
use fiveg_simcore::dist::normal;
use fiveg_simcore::{SimDuration, SimRng, SimTime};
use fiveg_transport::{CcAlgorithm, TcpSender};
#[expect(clippy::disallowed_types, reason = "the FrameLog")]
use parking_lot::Mutex;
use serde::Serialize;
use std::sync::Arc;

/// Video resolutions the paper evaluates (Fig. 18).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum Resolution {
    /// 720p panoramic.
    P720,
    /// 1080p panoramic.
    P1080,
    /// 4K panoramic.
    K4,
    /// 5.7K panoramic (the Insta360 ONE X maximum).
    K57,
}

impl Resolution {
    /// All resolutions in ascending order.
    pub const ALL: [Resolution; 4] = [
        Resolution::P720,
        Resolution::P1080,
        Resolution::K4,
        Resolution::K57,
    ];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Resolution::P720 => "720P",
            Resolution::P1080 => "1080P",
            Resolution::K4 => "4K",
            Resolution::K57 => "5.7K",
        }
    }

    /// Mean encoded bitrate, Mbps, per scene kind. 4K matches the
    /// 35–68 Mbps envelope reported for 4K telephony; 5.7K pushes
    /// against the 5G uplink budget in dynamic scenes.
    pub fn mean_mbps(self, scene: SceneKind) -> f64 {
        match (self, scene) {
            (Resolution::P720, SceneKind::Static) => 7.0,
            (Resolution::P720, SceneKind::Dynamic) => 9.5,
            (Resolution::P1080, SceneKind::Static) => 14.0,
            (Resolution::P1080, SceneKind::Dynamic) => 19.0,
            (Resolution::K4, SceneKind::Static) => 38.0,
            (Resolution::K4, SceneKind::Dynamic) => 52.0,
            (Resolution::K57, SceneKind::Static) => 68.0,
            (Resolution::K57, SceneKind::Dynamic) => 92.0,
        }
    }
}

/// Camera scene dynamics (Fig. 18/19: "dynamic represents constantly
/// changing the camera's view").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum SceneKind {
    /// Tripod-style static scene.
    Static,
    /// Constantly moving view.
    Dynamic,
}

/// The measured processing-pipeline latencies (Sec. 5.2).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct PipelineLatency {
    /// Camera capture + patch splice + render, ms.
    pub capture_splice_render_ms: f64,
    /// H.264 hardware encode, ms.
    pub encode_ms: f64,
    /// Decode at the receiver, ms.
    pub decode_ms: f64,
}

impl PipelineLatency {
    /// The paper's measured values: 440 + 160 + 50 ≈ 650 ms.
    pub fn paper() -> Self {
        PipelineLatency {
            capture_splice_render_ms: 440.0,
            encode_ms: 160.0,
            decode_ms: 50.0,
        }
    }

    /// Total processing latency per frame.
    pub fn total(&self) -> SimDuration {
        SimDuration::from_millis_f64(
            self.capture_splice_render_ms + self.encode_ms + self.decode_ms,
        )
    }
}

/// One frame's bookkeeping.
#[derive(Debug, Clone, Copy)]
struct FrameRecord {
    captured: SimTime,
    end_seq: u64,
    delivered: Option<SimTime>,
}

/// Shared frame log written by the sender wrapper.
#[expect(
    clippy::disallowed_types,
    reason = "a frame log shared by the sender wrapper and its receiver hook in one single-threaded run"
)]
type FrameLog = Arc<Mutex<Vec<FrameRecord>>>;

/// Endpoint wrapper: a 30 fps frame source feeding a TCP sender.
struct VideoSender {
    inner: TcpSender,
    frames: FrameLog,
    /// Index of the first frame in `frames` not yet delivered.
    first_undelivered: usize,
    /// Dedicated seeded stream for the frame-size process.
    rng: SimRng,
    fps: f64,
    mean_frame_bytes: f64,
    /// Frame-to-frame rate multiplier (AR(1) state).
    ar_state: f64,
    /// AR(1) innovation sigma (larger for dynamic scenes).
    sigma: f64,
    /// Remaining frames of an ongoing motion burst (dynamic scenes).
    burst_left: u32,
    dynamic: bool,
    frame_idx: u64,
    produced: u64,
    stop_at: SimTime,
}

/// Aux-timer tag for the frame clock (the inner sender uses Aux(1) for
/// its tail-loss probe and ignores other Aux tags).
const FRAME_AUX: u32 = 100;

impl VideoSender {
    fn frame_gap(&self) -> SimDuration {
        SimDuration::from_secs_f64(1.0 / self.fps)
    }

    fn next_frame_bytes(&mut self) -> u64 {
        // AR(1) log-rate wander plus periodic I-frames; dynamic scenes
        // add motion bursts that escalate the rate ≈2× for ~0.5 s.
        self.ar_state = 0.9 * self.ar_state + normal(&mut self.rng, 0.0, self.sigma);
        let mut mult = self.ar_state.exp();
        if self.frame_idx.is_multiple_of(30) {
            mult *= 2.2; // I-frame
        }
        if self.dynamic {
            if self.burst_left > 0 {
                self.burst_left -= 1;
                mult *= 2.1;
            } else if self.rng.chance(0.015) {
                self.burst_left = 15;
            }
        }
        (self.mean_frame_bytes * mult).max(2_000.0) as u64
    }

    fn on_frame_tick(&mut self, ctx: &mut Ctx) {
        if ctx.now() >= self.stop_at {
            return;
        }
        let bytes = self.next_frame_bytes();
        self.inner.extend_limit(bytes);
        self.produced += bytes;
        self.frames.lock().push(FrameRecord {
            captured: ctx.now(),
            end_seq: self.produced,
            delivered: None,
        });
        self.frame_idx += 1;
        let gap = self.frame_gap();
        ctx.set_timer(TimerKind::Aux(FRAME_AUX), gap);
        self.inner.resume(ctx);
    }

    /// Marks every frame whose last byte `acked` covers as delivered at
    /// `now`. `end_seq` grows with the frame index and the cumulative ACK
    /// never falls, so delivered frames are a prefix of the log and the
    /// scan resumes at the first undelivered frame.
    fn mark_deliveries(&mut self, acked: u64, now: SimTime) {
        let mut frames = self.frames.lock();
        while let Some(f) = frames.get_mut(self.first_undelivered) {
            if f.end_seq > acked {
                break;
            }
            f.delivered = Some(now);
            self.first_undelivered += 1;
        }
    }
}

impl Endpoint for VideoSender {
    fn on_start(&mut self, ctx: &mut Ctx) {
        self.inner.on_start(ctx);
        self.on_frame_tick(ctx);
    }

    fn on_ack(&mut self, ack: AckInfo, ctx: &mut Ctx) {
        self.inner.on_ack(ack, ctx);
        self.mark_deliveries(ack.cum_ack, ctx.now());
    }

    fn on_timer(&mut self, kind: TimerKind, id: u64, ctx: &mut Ctx) {
        if kind == TimerKind::Aux(FRAME_AUX) {
            self.on_frame_tick(ctx);
        } else {
            self.inner.on_timer(kind, id, ctx);
        }
    }
}

/// A video-telephony session configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct VideoSession {
    /// Stream resolution.
    pub resolution: Resolution,
    /// Scene dynamics.
    pub scene: SceneKind,
    /// Session length (the paper uses 30 s).
    pub duration: SimDuration,
    /// Processing pipeline.
    pub pipeline: PipelineLatency,
}

impl VideoSession {
    /// The paper's 30-second session at the given settings.
    pub fn paper(resolution: Resolution, scene: SceneKind) -> VideoSession {
        VideoSession {
            resolution,
            scene,
            duration: SimDuration::from_secs(30),
            pipeline: PipelineLatency::paper(),
        }
    }

    /// Runs the session over an uplink path.
    pub fn run(
        &self,
        path: PathConfig,
        cross: Option<fiveg_net::crosstraffic::CrossTraffic>,
        seed: u64,
    ) -> VideoResult {
        let mut sim = NetSim::new(path, seed);
        if let Some(ct) = cross {
            sim.add_cross_traffic(ct);
        }
        let (inner, _report) = TcpSender::new(CcAlgorithm::Cubic, Some(0));
        #[expect(clippy::disallowed_types, reason = "builds the FrameLog")]
        let frames: FrameLog = Arc::new(Mutex::new(Vec::new()));
        let mean_mbps = self.resolution.mean_mbps(self.scene);
        let sender = VideoSender {
            inner,
            frames: frames.clone(),
            first_undelivered: 0,
            rng: SimRng::new(seed).substream("video-frames"),
            fps: 30.0,
            mean_frame_bytes: mean_mbps * 1e6 / 8.0 / 30.0,
            ar_state: 0.0,
            sigma: match self.scene {
                SceneKind::Static => 0.05,
                SceneKind::Dynamic => 0.16,
            },
            burst_left: 0,
            dynamic: self.scene == SceneKind::Dynamic,
            frame_idx: 0,
            produced: 0,
            stop_at: SimTime::ZERO + self.duration,
        };
        let flow = sim.add_flow(Box::new(sender), true, false);
        // Run past the stop time so in-flight frames land.
        sim.run_until(SimTime::ZERO + self.duration + SimDuration::from_secs(3));

        let frames = frames.lock();
        let processing = self.pipeline.total();
        let mut delays = Vec::new();
        let mut undelivered = 0usize;
        for f in frames.iter() {
            match f.delivered {
                Some(t) => delays.push((f.captured, t.since(f.captured) + processing)),
                None => undelivered += 1,
            }
        }
        // Freeze events: delivery gaps > 500 ms between consecutive
        // frames (the paper observed 6 in a 30 s dynamic 5.7K session).
        let mut freezes = 0usize;
        let mut delivery_times: Vec<SimTime> = frames.iter().filter_map(|f| f.delivered).collect();
        delivery_times.sort_unstable();
        for w in delivery_times.windows(2) {
            if w[1].since(w[0]) > SimDuration::from_millis(500) {
                freezes += 1;
            }
        }
        // Throughput accounting stops at the session end: the post-run
        // drain would otherwise inflate the mean.
        let mut throughput = sim.flow_stats(flow).throughput_series();
        throughput.retain(|&(t, _)| t < SimTime::ZERO + self.duration);
        let mean_received_mbps = throughput.iter().map(|&(_, mbps)| mbps).sum::<f64>()
            / (self.duration.as_secs_f64() * 100.0);
        VideoResult {
            offered_mbps: mean_mbps,
            mean_received_mbps,
            throughput_10ms: throughput,
            frame_delays: delays,
            freezes,
            undelivered_frames: undelivered,
        }
    }
}

/// Results of one session.
#[derive(Debug, Clone, Serialize)]
pub struct VideoResult {
    /// Configured mean encode rate, Mbps.
    pub offered_mbps: f64,
    /// Mean received (in-order) rate over the session, Mbps.
    pub mean_received_mbps: f64,
    /// Received throughput per 10 ms window.
    pub throughput_10ms: Vec<(SimTime, f64)>,
    /// Per-frame end-to-end delays `(capture time, delay)`, including
    /// the processing pipeline.
    pub frame_delays: Vec<(SimTime, SimDuration)>,
    /// Frame-freeze events (delivery gaps > 500 ms).
    pub freezes: usize,
    /// Frames never delivered within the run.
    pub undelivered_frames: usize,
}

impl VideoResult {
    /// Mean frame delay.
    pub fn mean_frame_delay(&self) -> SimDuration {
        if self.frame_delays.is_empty() {
            return SimDuration::ZERO;
        }
        let total: f64 = self.frame_delays.iter().map(|(_, d)| d.as_secs_f64()).sum();
        SimDuration::from_secs_f64(total / self.frame_delays.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fiveg_net::path::{Direction, PaperPathParams};

    fn ul_path(params: &PaperPathParams) -> PathConfig {
        PathConfig::paper(params, Direction::Uplink)
    }

    fn short_session(res: Resolution, scene: SceneKind) -> VideoSession {
        VideoSession {
            duration: SimDuration::from_secs(10),
            ..VideoSession::paper(res, scene)
        }
    }

    #[test]
    fn fiveg_carries_4k_smoothly() {
        let r = short_session(Resolution::K4, SceneKind::Static).run(
            ul_path(&PaperPathParams::nr_ul()),
            None,
            1,
        );
        assert!(
            (r.mean_received_mbps - r.offered_mbps).abs() / r.offered_mbps < 0.25,
            "received {} of offered {}",
            r.mean_received_mbps,
            r.offered_mbps
        );
        assert_eq!(r.freezes, 0, "4K static must not freeze on 5G");
    }

    #[test]
    fn fourg_fails_at_57k() {
        // Fig. 18: "4G networks cannot support a 5.7K video".
        let r = short_session(Resolution::K57, SceneKind::Static).run(
            ul_path(&PaperPathParams::lte_ul_day()),
            None,
            2,
        );
        assert!(
            r.mean_received_mbps < 0.85 * r.offered_mbps,
            "4G carried {} of {}",
            r.mean_received_mbps,
            r.offered_mbps
        );
    }

    #[test]
    fn processing_dominates_frame_delay_on_5g() {
        // Fig. 20: ≈950 ms frame delay, ≈650 ms of it processing.
        let r = short_session(Resolution::K4, SceneKind::Static).run(
            ul_path(&PaperPathParams::nr_ul()),
            None,
            3,
        );
        let mean = r.mean_frame_delay().as_millis_f64();
        assert!((650.0..1400.0).contains(&mean), "frame delay {mean} ms");
        let net = mean - 650.0;
        assert!(
            net < 650.0,
            "network share {net} ms should be below processing"
        );
    }

    #[test]
    fn dynamic_scenes_fluctuate_more() {
        let stat = short_session(Resolution::K57, SceneKind::Static).run(
            ul_path(&PaperPathParams::nr_ul()),
            None,
            4,
        );
        let dynamic = short_session(Resolution::K57, SceneKind::Dynamic).run(
            ul_path(&PaperPathParams::nr_ul()),
            None,
            4,
        );
        // Aggregate into 500 ms bins: the radio clips instantaneous
        // rates at its capacity, so second-scale wander (the AR state
        // and motion bursts — what Fig. 19 plots) is the right scale.
        let bin_std = |xs: &[(SimTime, f64)]| {
            let mut bins = vec![0.0f64; 1 + xs.len() / 50];
            for (i, &(_, x)) in xs.iter().enumerate() {
                bins[i / 50] += x / 50.0;
            }
            let m = bins.iter().sum::<f64>() / bins.len() as f64;
            (bins.iter().map(|x| (x - m).powi(2)).sum::<f64>() / bins.len() as f64).sqrt()
        };
        let ds = bin_std(&dynamic.throughput_10ms);
        let ss = bin_std(&stat.throughput_10ms);
        // Dynamic must fluctuate more at the half-second scale, or at
        // least trigger more stalls (both are Fig. 19's signatures).
        assert!(
            ds > ss || dynamic.freezes > stat.freezes,
            "dynamic std {ds} vs static {ss}, freezes {} vs {}",
            dynamic.freezes,
            stat.freezes
        );
        assert!(dynamic.mean_received_mbps > stat.mean_received_mbps * 0.9);
    }

    #[test]
    fn resolution_ordering_of_throughput() {
        let mut prev = 0.0;
        for res in Resolution::ALL {
            let r = short_session(res, SceneKind::Static).run(
                ul_path(&PaperPathParams::nr_ul()),
                None,
                5,
            );
            assert!(
                r.mean_received_mbps > prev * 0.95,
                "{} received {}",
                res.label(),
                r.mean_received_mbps
            );
            prev = r.mean_received_mbps;
        }
    }

    #[test]
    fn rate_means_match_model() {
        for res in Resolution::ALL {
            assert!(res.mean_mbps(SceneKind::Dynamic) > res.mean_mbps(SceneKind::Static));
        }
        // All within the 5G UL budget on average; 5.7K dynamic close to
        // the 100 Mbps daytime budget (Fig. 19's marginal case).
        assert!(Resolution::K57.mean_mbps(SceneKind::Dynamic) < 130.0);
        assert!(Resolution::K57.mean_mbps(SceneKind::Dynamic) > 80.0);
    }
}
