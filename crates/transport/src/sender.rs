//! The TCP sender machinery.
//!
//! Window management, SACK-based loss recovery (RFC 6675-style
//! scoreboard and pipe accounting — the paper's measurements are of
//! Linux SACK TCP), RTO (RFC 6298), optional pacing (for BBR),
//! delivery-rate estimation and cwnd tracing — everything the paper's
//! iperf3 + Wireshark setup observes from the outside.

use crate::cc::{AckSample, CcAlgorithm, CongestionControl};
use fiveg_net::{AckInfo, Ctx, Endpoint, TimerKind, MSS_BYTES};
use fiveg_simcore::{BitRate, OnlineStats, SimDuration, SimTime};
#[expect(clippy::disallowed_types, reason = "the SenderReport handle")]
use parking_lot::Mutex;
use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

/// Shared, externally-readable sender statistics.
#[derive(Debug, Default)]
pub struct SenderReport {
    /// `(time, cwnd bytes)` samples, ≈20 Hz.
    pub cwnd_trace: Vec<(SimTime, f64)>,
    /// Segments retransmitted.
    pub retransmissions: u64,
    /// Fast-retransmit loss events (one per recovery episode).
    pub loss_events: u64,
    /// Retransmission timeouts.
    pub rto_count: u64,
    /// RTT samples, milliseconds.
    pub rtt: OnlineStats,
    /// Cumulatively acknowledged bytes.
    pub bytes_acked: u64,
    /// When the configured transfer completed, if it did.
    pub finished_at: Option<SimTime>,
}

/// A TCP sender running one bulk or fixed-size transfer.
#[expect(
    clippy::disallowed_types,
    reason = "a report handle read after a single-threaded run; no other thread writes it"
)]
pub struct TcpSender {
    cc: Box<dyn CongestionControl>,
    /// Index into [`CcAlgorithm::ALL`], for trace-event labelling.
    alg_code: u32,
    report: Arc<Mutex<SenderReport>>,
    /// Total bytes to send (None = unbounded bulk flow).
    limit: Option<u64>,
    snd_nxt: u64,
    snd_una: u64,
    /// SACK scoreboard: merged out-of-order ranges above `snd_una`.
    sacked: BTreeMap<u64, u64>,
    /// Total bytes covered by `sacked`, maintained incrementally — the
    /// scoreboard can hold thousands of ranges during a big loss episode
    /// and summing it per ACK made recovery quadratic.
    sacked_total: u64,
    /// Segment starts marked lost and awaiting retransmission. Entries
    /// are deleted lazily: only `queued` membership makes one live, so a
    /// cancelled segment costs O(log n) instead of an O(n) sweep.
    retx_queue: VecDeque<u64>,
    /// The live members of `retx_queue`.
    queued: BTreeSet<u64>,
    /// Lost segments → highest SACKed byte when last (re)transmitted.
    /// When SACK progress moves `REORDER_BYTES` past that watermark and
    /// the segment is still unSACKed, the retransmission itself is
    /// declared lost and the segment re-queued (RACK-style) — without
    /// this, a lost retransmission stalls until the RTO.
    marked: BTreeMap<u64, u64>,
    /// Scan cursor for [`TcpSender::mark_losses`]: every hole segment
    /// below it has already been judged against the byte-evidence rule.
    /// The rule's verdict never changes once reachable (SACK ranges and
    /// `snd_una` only grow), so each segment is visited once per episode
    /// instead of on every ACK.
    loss_scan: u64,
    in_recovery: bool,
    recover: u64,
    srtt: Option<SimDuration>,
    rttvar: SimDuration,
    rto: SimDuration,
    rto_timer: Option<u64>,
    pace_timer_armed: bool,
    next_send: SimTime,
    rate_window: VecDeque<(SimTime, u64)>,
    last_cwnd_sample: Option<SimTime>,
    /// Tail-loss-probe timer id and the progress snapshot it guards.
    tlp_timer: Option<(u64, u64, u64)>,
    /// Start of the most recently sent new-data segment (the TLP target).
    last_seg: (u64, u32),
    /// RACK: transmission-time index of outstanding segments.
    sent_index: SentIndex,
    /// RACK: most recent send time among delivered packets.
    rack_ts: SimTime,
}

impl Drop for TcpSender {
    /// Flushes per-flow totals into the ambient metrics scope (see
    /// `fiveg-obs`). Reads the already-maintained [`SenderReport`], so
    /// the hot path pays nothing; all four values are deterministic
    /// functions of the simulation seed.
    fn drop(&mut self) {
        let rep = self.report.lock();
        let cwnd_updates = rep.cwnd_trace.len() as u64;
        if rep.retransmissions + rep.loss_events + rep.rto_count + cwnd_updates > 0 {
            fiveg_obs::counter_add("transport.retransmissions", rep.retransmissions);
            fiveg_obs::counter_add("transport.loss_events", rep.loss_events);
            fiveg_obs::counter_add("transport.rto_count", rep.rto_count);
            fiveg_obs::counter_add("transport.cwnd_updates", cwnd_updates);
        }
    }
}

/// Floor for the retransmission timer (Linux: 200 ms).
const RTO_MIN: SimDuration = SimDuration::from_millis(200);
const RTO_MAX: SimDuration = SimDuration::from_secs(10);
/// Span of the delivery-rate estimation window.
const RATE_WINDOW: SimDuration = SimDuration::from_millis(25);
/// Minimum span for a valid rate sample. Cellular links deliver in
/// bursts (HARQ stalls followed by in-order catch-up); measuring over a
/// window much longer than a burst keeps those bursts from inflating
/// the estimate (the ack-aggregation problem BBR faces on real LTE).
const RATE_MIN_SPAN: SimDuration = SimDuration::from_millis(8);
const CWND_SAMPLE_EVERY: SimDuration = SimDuration::from_millis(50);
/// A hole is declared lost once delivery is SACKed this many bytes
/// beyond it (the dup-ack threshold, in bytes).
const REORDER_BYTES: u64 = 3 * MSS_BYTES as u64;
/// CC trace-event state codes (the `a` column of `cc_state` rows).
const CC_STATE_OPEN: u32 = 0;
const CC_STATE_RECOVERY: u32 = 1;
const CC_STATE_LOSS: u32 = 2;

/// Aux-timer tag for the tail-loss probe.
const TLP_AUX: u32 = 1;
/// RACK reordering window floor: segments sent this much earlier than a
/// delivered packet, and still unSACKed, are declared lost. Must exceed
/// the radio's HARQ delay jitter.
const RACK_REO_WND_MIN: SimDuration = SimDuration::from_millis(8);

impl TcpSender {
    /// Creates a sender with the given algorithm and optional transfer
    /// size; returns the sender and a handle to its live statistics.
    ///
    /// A `limit` of `Some(n)` sends exactly `n` bytes; `None` is an
    /// unbounded bulk flow. Application-paced flows (video frames) start
    /// with `Some(0)` and feed data in via [`TcpSender::extend_limit`].
    #[expect(clippy::disallowed_types, reason = "hands out the SenderReport handle")]
    pub fn new(alg: CcAlgorithm, limit: Option<u64>) -> (Self, Arc<Mutex<SenderReport>>) {
        let report = Arc::new(Mutex::new(SenderReport::default()));
        (
            TcpSender {
                cc: alg.build(),
                alg_code: CcAlgorithm::ALL
                    .iter()
                    .position(|a| *a == alg)
                    .unwrap_or_default() as u32,
                report: report.clone(),
                limit,
                snd_nxt: 0,
                snd_una: 0,
                sacked: BTreeMap::new(),
                sacked_total: 0,
                retx_queue: VecDeque::new(),
                queued: BTreeSet::new(),
                marked: BTreeMap::new(),
                loss_scan: 0,
                in_recovery: false,
                recover: 0,
                srtt: None,
                rttvar: SimDuration::ZERO,
                rto: SimDuration::from_secs(1),
                rto_timer: None,
                pace_timer_armed: false,
                next_send: SimTime::ZERO,
                rate_window: VecDeque::new(),
                last_cwnd_sample: None,
                tlp_timer: None,
                last_seg: (0, 0),
                sent_index: SentIndex::default(),
                rack_ts: SimTime::ZERO,
            },
            report,
        )
    }

    fn sacked_bytes(&self) -> u64 {
        self.sacked_total
    }

    /// RFC 6675 "pipe": bytes believed in flight — outstanding minus
    /// SACKed minus lost-but-not-yet-retransmitted.
    fn pipe(&self) -> u64 {
        let raw = self.snd_nxt.saturating_sub(self.snd_una);
        let lost_unretx = self.queued.len() as u64 * MSS_BYTES as u64;
        raw.saturating_sub(self.sacked_bytes())
            .saturating_sub(lost_unretx)
    }

    /// Removes a scoreboard range, keeping the byte total in sync.
    /// Removing a range that is not on the scoreboard is a no-op that
    /// reports the empty range `[start, start)`.
    fn sack_remove(&mut self, start: u64) -> u64 {
        let Some(end) = self.sacked.remove(&start) else {
            return start;
        };
        self.sacked_total -= end - start;
        end
    }

    /// Inserts a scoreboard range, keeping the byte total in sync.
    fn sack_insert(&mut self, start: u64, end: u64) {
        self.sacked_total += end - start;
        self.sacked.insert(start, end);
    }

    /// Queues a segment for retransmission unless already pending.
    fn queue_retx(&mut self, seg: u64) {
        if self.queued.insert(seg) {
            self.retx_queue.push_back(seg);
        }
    }

    /// Pops the next live retransmission candidate, skipping entries
    /// cancelled since they were queued.
    fn pop_retx(&mut self) -> Option<u64> {
        while let Some(seg) = self.retx_queue.pop_front() {
            if self.queued.remove(&seg) {
                return Some(seg);
            }
        }
        None
    }

    fn app_limited(&self) -> bool {
        self.limit.is_some_and(|l| self.snd_nxt >= l)
    }

    /// Makes `bytes` more application data available to send (for
    /// app-paced sources such as live video frames). Only meaningful on
    /// senders created with a finite limit.
    pub fn extend_limit(&mut self, bytes: u64) {
        if let Some(l) = self.limit.as_mut() {
            *l += bytes;
        }
    }

    /// Bytes the application has made available so far (the current
    /// limit), if bounded.
    pub fn limit(&self) -> Option<u64> {
        self.limit
    }

    /// Kicks the sender after `extend_limit` (wrappers call this from
    /// their own timer handlers).
    pub fn resume(&mut self, ctx: &mut Ctx) {
        self.try_send(ctx);
    }

    /// Emits a congestion-control state-change trace event; no-op
    /// without an ambient trace scope.
    fn trace_cc_state(&self, ctx: &Ctx, state: u32) {
        fiveg_trace::emit(
            0,
            &fiveg_trace::TraceEvent::CcState {
                t_ns: ctx.now().as_nanos(),
                flow: ctx.flow_index(),
                state,
                alg: self.alg_code,
            },
        );
    }

    fn update_rto(&mut self, rtt: SimDuration) {
        let srtt = match self.srtt {
            None => {
                self.rttvar = SimDuration::from_nanos(rtt.as_nanos() / 2);
                rtt
            }
            Some(srtt) => {
                let err = if rtt > srtt { rtt - srtt } else { srtt - rtt };
                self.rttvar =
                    SimDuration::from_nanos((3 * self.rttvar.as_nanos() + err.as_nanos()) / 4);
                SimDuration::from_nanos((7 * srtt.as_nanos() + rtt.as_nanos()) / 8)
            }
        };
        self.srtt = Some(srtt);
        let candidate = srtt + SimDuration::from_nanos(4 * self.rttvar.as_nanos());
        self.rto = candidate.max(RTO_MIN).min(RTO_MAX);
    }

    fn arm_rto(&mut self, ctx: &mut Ctx) {
        let id = ctx.set_timer(TimerKind::Rto, self.rto);
        self.rto_timer = Some(id);
    }

    /// Arms a tail-loss probe ~2 SRTT out (RFC 8985 TLP): if no forward
    /// progress happens by then, the last segment is retransmitted to
    /// solicit SACK feedback — without it, a hole at the tail of the
    /// window has nothing SACKed beyond it, is never marked lost, and
    /// stalls all the way to an RTO.
    fn arm_tlp(&mut self, ctx: &mut Ctx) {
        let delay = match self.srtt {
            Some(srtt) => {
                SimDuration::from_nanos(2 * srtt.as_nanos()).max(SimDuration::from_millis(10))
            }
            None => SimDuration::from_millis(100),
        };
        let id = ctx.set_timer(TimerKind::Aux(TLP_AUX), delay);
        self.tlp_timer = Some((id, self.snd_una, self.sacked_bytes()));
    }

    /// Merges the ACK's SACK blocks into the scoreboard.
    ///
    /// Every step touches only the ranges/segments an incoming block
    /// actually overlaps — the scoreboard is disjoint and sorted, so a
    /// full-map sweep per ACK (the old behavior) is never needed.
    fn merge_sack(&mut self, ack: &AckInfo) {
        let mss = MSS_BYTES as u64;
        for &(s, e) in ack.sack_blocks() {
            if e <= self.snd_una {
                continue;
            }
            let s = s.max(self.snd_una);
            self.sack_merge(s, e);
            // Cancel marked/queued segments this block just covered. Only
            // segments intersecting [s, e) can have newly become fully
            // SACKed.
            let lo = s.saturating_sub(mss - 1);
            let cancelled: Vec<u64> = self
                .marked
                .range(lo..e)
                .map(|(&seg, _)| seg)
                .filter(|&seg| self.is_sacked_segment(seg))
                .collect();
            for seg in cancelled {
                self.marked.remove(&seg);
                self.queued.remove(&seg);
            }
        }
        // Prune below the cumulative ACK.
        while let Some((&rs, &re)) = self.sacked.iter().next() {
            if rs >= self.snd_una {
                break;
            }
            self.sack_remove(rs);
            if re > self.snd_una {
                self.sack_insert(self.snd_una, re);
                break;
            }
        }
        while let Some(entry) = self.marked.first_entry() {
            if *entry.key() >= self.snd_una {
                break;
            }
            entry.remove();
        }
        while self.queued.first().is_some_and(|&seg| seg < self.snd_una) {
            self.queued.pop_first();
        }
    }

    /// Merges the range `[s, e)` into the scoreboard. The ranges stay
    /// disjoint with a gap between neighbours, so a block that starts
    /// inside, or at the end of, the highest range touches only that
    /// range and extends it in place; that is most blocks, since SACKs
    /// grow the newest range as data keeps arriving above a hole.
    fn sack_merge(&mut self, s: u64, e: u64) {
        if let Some(mut last) = self.sacked.last_entry() {
            if *last.key() <= s && s <= *last.get() {
                let grown = e.saturating_sub(*last.get());
                if grown > 0 {
                    *last.get_mut() = e;
                    self.sacked_total += grown;
                }
                return;
            }
        }
        // Absorb overlapping/adjacent ranges: they are contiguous in key
        // order around the new block.
        let mut new_s = s;
        let mut new_e = e;
        while let Some((&rs, &re)) = self.sacked.range(..=new_e).next_back() {
            if re < new_s {
                break;
            }
            self.sack_remove(rs);
            new_s = new_s.min(rs);
            new_e = new_e.max(re);
        }
        self.sack_insert(new_s, new_e);
    }

    /// RACK expiry sweep: pops segments whose transmission is older than
    /// `rack_ts - reo_wnd` and re-queues those still outstanding and
    /// unSACKed. Returns whether anything new was queued.
    fn rack_mark(&mut self, reo_wnd: SimDuration) -> bool {
        if self.rack_ts == SimTime::ZERO {
            return false;
        }
        let deadline =
            SimTime::from_nanos(self.rack_ts.as_nanos().saturating_sub(reo_wnd.as_nanos()));
        let mut newly = false;
        while let Some(seg) = self.sent_index.pop_due(deadline) {
            if seg < self.snd_una || seg >= self.snd_nxt {
                continue; // already acked or never valid
            }
            if self.is_sacked_segment(seg) || self.queued.contains(&seg) {
                continue;
            }
            self.marked.insert(seg, 0);
            self.queue_retx(seg);
            newly = true;
        }
        newly
    }

    /// Whether a full segment starting at `seg` is covered by SACKs.
    fn is_sacked_segment(&self, seg: u64) -> bool {
        let seg_end = seg + MSS_BYTES as u64;
        self.sacked
            .range(..=seg)
            .next_back()
            .is_some_and(|(&s, &e)| s <= seg && e >= seg_end)
    }

    /// Marks hole segments lost (dup-thresh rule) and queues them.
    /// Returns whether any *new* segment was marked.
    ///
    /// First-time marking only: retransmissions that die are re-detected
    /// by RACK (time-based), not by re-applying the byte-evidence rule —
    /// which would re-queue the same segment on every few KB of new SACKs
    /// while its retransmission is still in flight. The `loss_scan`
    /// cursor makes the walk incremental: evidence only accumulates, so
    /// a segment, once judged, never needs another look.
    fn mark_losses(&mut self) -> bool {
        let mss = MSS_BYTES as u64;
        let Some((_, &highest_sacked)) = self.sacked.iter().next_back() else {
            return false;
        };
        // Byte evidence: `highest_sacked >= seg + MSS + REORDER_BYTES`.
        let Some(limit) = highest_sacked.checked_sub(mss + REORDER_BYTES) else {
            return false;
        };
        let mut newly = false;
        let mut seg = self.snd_una.max(self.loss_scan);
        while seg <= limit {
            // Skip SACKed runs wholesale; a partially-SACKed segment is
            // not a loss candidate and realigns the walk at the range
            // end (exactly what the per-segment walk used to do).
            if let Some((_, &re)) = self.sacked.range(..seg + mss).next_back() {
                if re > seg {
                    seg = seg.max(re);
                    continue;
                }
            }
            if let std::collections::btree_map::Entry::Vacant(v) = self.marked.entry(seg) {
                v.insert(highest_sacked);
                self.queue_retx(seg);
                newly = true;
            }
            seg += mss;
        }
        self.loss_scan = self.loss_scan.max(seg);
        newly
    }

    /// Estimated delivery rate from cum-ACK plus SACKed bytes (what the
    /// receiver has actually absorbed — BBR's "delivered" counter).
    fn delivery_rate(&mut self, now: SimTime, delivered: u64) -> Option<BitRate> {
        self.rate_window.push_back((now, delivered));
        while let Some(&(t0, _)) = self.rate_window.front() {
            if now.since(t0) > RATE_WINDOW && self.rate_window.len() > 2 {
                self.rate_window.pop_front();
            } else {
                break;
            }
        }
        let (t0, d0) = *self.rate_window.front()?;
        let span = now.since(t0);
        if span < RATE_MIN_SPAN || delivered <= d0 {
            return None;
        }
        Some(BitRate::from_bps(
            (delivered - d0) as f64 * 8.0 / span.as_secs_f64(),
        ))
    }

    fn sample_cwnd(&mut self, now: SimTime) {
        let due = match self.last_cwnd_sample {
            None => true,
            Some(last) => now.since(last) >= CWND_SAMPLE_EVERY,
        };
        if due {
            self.last_cwnd_sample = Some(now);
            self.report.lock().cwnd_trace.push((now, self.cc.cwnd()));
        }
    }

    /// Sends whatever the window (pipe) and pacer allow.
    fn try_send(&mut self, ctx: &mut Ctx) {
        loop {
            let has_retx = !self.queued.is_empty();
            let window_space = self.pipe() + MSS_BYTES as u64 <= self.cc.cwnd() as u64;
            if !window_space || (!has_retx && self.app_limited()) {
                break;
            }
            // Pacing gate.
            if let Some(rate) = self.cc.pacing_rate() {
                let now = ctx.now();
                if now < self.next_send {
                    if !self.pace_timer_armed {
                        self.pace_timer_armed = true;
                        ctx.set_timer(TimerKind::Pace, self.next_send - now);
                    }
                    break;
                }
                let gap = SimDuration::from_secs_f64(rate.secs_for_bits(MSS_BYTES as f64 * 8.0));
                self.next_send = now.max(self.next_send) + gap;
            }
            if let Some(seq) = self.pop_retx() {
                // Never retransmit beyond what was originally sent: the
                // tail segment of an app-limited flow can be shorter
                // than one MSS.
                let size = (self.snd_nxt - seq).min(MSS_BYTES as u64) as u32;
                if size == 0 {
                    continue;
                }
                ctx.send_packet(seq, size, true);
                self.sent_index.insert(ctx.now(), seq);
                self.report.lock().retransmissions += 1;
            } else {
                let size = match self.limit {
                    Some(l) => ((l - self.snd_nxt).min(MSS_BYTES as u64)) as u32,
                    None => MSS_BYTES,
                };
                ctx.send_packet(self.snd_nxt, size, false);
                self.sent_index.insert(ctx.now(), self.snd_nxt);
                self.last_seg = (self.snd_nxt, size);
                self.snd_nxt += size as u64;
            }
            if self.rto_timer.is_none() {
                self.arm_rto(ctx);
            }
        }
    }
}

/// RACK's transmission-time index: `(send time, segment start)` pairs in
/// ascending order, without duplicates, as a `BTreeSet` would hold them.
/// Sends happen at the simulation clock, which never goes back, so a new
/// pair sorts after every pair sent earlier and an insert lands at the
/// back, or just before the pairs sent at the same instant with a
/// higher segment start.
#[derive(Debug, Default)]
struct SentIndex(VecDeque<(SimTime, u64)>);

impl SentIndex {
    /// Adds a send of `seg` at `t`; `t` must not precede any held send.
    fn insert(&mut self, t: SimTime, seg: u64) {
        debug_assert!(self.0.back().is_none_or(|&(last, _)| last <= t));
        let key = (t, seg);
        let mut at = self.0.len();
        while at > 0 {
            match self.0[at - 1].cmp(&key) {
                Ordering::Less => break,
                Ordering::Equal => return,
                Ordering::Greater => at -= 1,
            }
        }
        self.0.insert(at, key);
    }

    /// Removes and returns the segment of the oldest send, if it was sent
    /// at or before `deadline`.
    fn pop_due(&mut self, deadline: SimTime) -> Option<u64> {
        match self.0.front() {
            Some(&(t, _)) if t <= deadline => self.0.pop_front().map(|(_, seg)| seg),
            _ => None,
        }
    }
}

impl Endpoint for TcpSender {
    fn on_start(&mut self, ctx: &mut Ctx) {
        self.sample_cwnd(ctx.now());
        self.try_send(ctx);
        if self.snd_nxt > 0 {
            self.arm_tlp(ctx);
        }
    }

    fn on_ack(&mut self, ack: AckInfo, ctx: &mut Ctx) {
        let now = ctx.now();
        let newly_acked = ack.cum_ack.saturating_sub(self.snd_una);
        if newly_acked > 0 {
            self.snd_una = ack.cum_ack;
        }
        let sacked_before = self.sacked_bytes();
        self.merge_sack(&ack);
        let sack_progress = self.sacked_bytes() != sacked_before;

        // RTT sample (Karn: never from a retransmitted segment's echo).
        let rtt = (!ack.echo_retx).then(|| now.since(ack.echo_sent_at));
        if let Some(r) = rtt {
            self.update_rto(r);
            self.report.lock().rtt.push(r.as_millis_f64());
        }

        // RACK (RFC 8985): this ACK proves the packet sent at
        // `echo_sent_at` was delivered; any outstanding segment sent
        // more than a reordering window earlier and still unSACKed is
        // lost. This is what recovers tail-dropped windows that have no
        // SACK evidence above them.
        if ack.echo_sent_at > self.rack_ts {
            self.rack_ts = ack.echo_sent_at;
        }
        let reo_wnd = match self.srtt {
            Some(srtt) => SimDuration::from_nanos(srtt.as_nanos() / 4).max(RACK_REO_WND_MIN),
            None => RACK_REO_WND_MIN,
        };
        let rack_newly = self.rack_mark(reo_wnd);

        // Dup-thresh loss detection on the scoreboard.
        let newly_marked = self.mark_losses() || rack_newly;
        if newly_marked && !self.in_recovery {
            self.in_recovery = true;
            self.recover = self.snd_nxt;
            self.cc.on_loss_event(now);
            self.report.lock().loss_events += 1;
            self.trace_cc_state(ctx, CC_STATE_RECOVERY);
        }
        if self.in_recovery && ack.cum_ack >= self.recover {
            self.in_recovery = false;
            self.trace_cc_state(ctx, CC_STATE_OPEN);
        }

        // BBR-style delivered counter: in-order plus all out-of-order
        // bytes the receiver actually holds (the receiver's exact count,
        // not our 3-block scoreboard view — a cum-ACK jumping over
        // unknown SACKed data would otherwise spike the rate estimate
        // and poison the max filter).
        let delivered_proxy = ack.cum_ack + ack.ooo_bytes;
        let delivery_rate = self.delivery_rate(now, delivered_proxy);
        let app_limited = self.app_limited();
        self.cc.on_ack(AckSample {
            now,
            acked_bytes: newly_acked,
            rtt,
            in_flight: self.pipe(),
            delivery_rate,
            app_limited,
        });

        if newly_acked > 0 {
            let mut rep = self.report.lock();
            rep.bytes_acked = ack.cum_ack;
            if self.limit.is_some_and(|l| ack.cum_ack >= l) && rep.finished_at.is_none() {
                rep.finished_at = Some(now);
            }
        }
        // Restart the retransmission timer on ANY forward progress —
        // cumulative or SACK (RACK-style). Without this, long recovery
        // episodes fire spurious RTOs that dump the whole window into
        // the retransmit queue and wreck throughput.
        if newly_acked > 0 || sack_progress {
            if self.snd_nxt > self.snd_una {
                self.arm_rto(ctx);
                self.arm_tlp(ctx);
            } else {
                self.rto_timer = None;
                self.tlp_timer = None;
            }
        }
        self.sample_cwnd(now);
        self.try_send(ctx);
    }

    fn on_timer(&mut self, kind: TimerKind, id: u64, ctx: &mut Ctx) {
        match kind {
            TimerKind::Pace => {
                self.pace_timer_armed = false;
                self.try_send(ctx);
            }
            TimerKind::Rto => {
                if self.rto_timer != Some(id) {
                    return; // stale timer
                }
                self.rto_timer = None;
                if self.snd_nxt == self.snd_una {
                    return;
                }
                // Back off and declare every unsacked outstanding segment
                // lost (RFC 6298 + 6675 semantics): the whole window is
                // presumed gone, so `pipe` collapses to ~0 and slow-start
                // retransmission can proceed from cwnd = 1 MSS. Without
                // this, dead in-flight bytes would keep `pipe` above the
                // collapsed window forever — a deadlock.
                self.rto = (self.rto + self.rto).min(RTO_MAX);
                self.retx_queue.clear();
                self.queued.clear();
                self.marked.clear();
                let highwater = self
                    .sacked
                    .iter()
                    .next_back()
                    .map_or(self.snd_una, |(_, &e)| e);
                let mut seg = self.snd_una;
                while seg < self.snd_nxt {
                    if !self.is_sacked_segment(seg) {
                        self.marked.insert(seg, highwater);
                        self.queue_retx(seg);
                    }
                    seg += MSS_BYTES as u64;
                }
                self.in_recovery = false;
                self.cc.on_rto(ctx.now());
                self.report.lock().rto_count += 1;
                self.trace_cc_state(ctx, CC_STATE_LOSS);
                self.arm_rto(ctx);
                self.try_send(ctx);
            }
            TimerKind::Aux(TLP_AUX) => {
                let Some((tlp_id, una_snap, sack_snap)) = self.tlp_timer else {
                    return;
                };
                if tlp_id != id {
                    return; // stale probe
                }
                self.tlp_timer = None;
                if self.snd_nxt == self.snd_una {
                    return;
                }
                // No progress since the probe was armed: re-send the
                // last segment to solicit fresh SACK feedback.
                if self.snd_una == una_snap && self.sacked_bytes() == sack_snap {
                    let (seq, size) = self.last_seg;
                    let size = (self.snd_nxt.saturating_sub(seq)).min(size as u64) as u32;
                    if size > 0 {
                        ctx.send_packet(seq, size, true);
                        self.report.lock().retransmissions += 1;
                    }
                    self.arm_tlp(ctx);
                }
            }
            TimerKind::Aux(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fiveg_net::path::{Direction, PaperPathParams, PathConfig};
    use fiveg_net::{FlowId, NetSim};
    use fiveg_simcore::SimTime;

    fn clean_path(rate_mbps: f64) -> PathConfig {
        use fiveg_net::hop::HopConfig;
        PathConfig {
            hops: vec![HopConfig::wired(
                "bn",
                rate_mbps,
                SimDuration::from_millis(5),
                500,
            )],
            reverse_delay: SimDuration::from_millis(5),
        }
    }

    fn run_bulk(alg: CcAlgorithm, path: PathConfig, secs: u64) -> (f64, NetSim, FlowId) {
        let mut sim = NetSim::new(path, 42);
        let (sender, _report) = TcpSender::new(alg, None);
        let flow = sim.add_flow(Box::new(sender), true, false);
        sim.run_until(SimTime::from_secs(secs));
        let goodput = sim
            .flow_stats(flow)
            .mean_goodput_until(SimTime::from_secs(secs))
            .mbps();
        (goodput, sim, flow)
    }

    #[test]
    fn reno_fills_a_clean_link() {
        let (goodput, ..) = run_bulk(CcAlgorithm::Reno, clean_path(50.0), 10);
        assert!(goodput > 40.0, "goodput {goodput} Mbps");
    }

    #[test]
    fn cubic_fills_a_clean_link() {
        let (goodput, ..) = run_bulk(CcAlgorithm::Cubic, clean_path(50.0), 10);
        assert!(goodput > 40.0, "goodput {goodput} Mbps");
    }

    #[test]
    fn bbr_fills_a_clean_link_without_bloating() {
        let (goodput, sim, _) = run_bulk(CcAlgorithm::Bbr, clean_path(50.0), 10);
        assert!(goodput > 40.0, "goodput {goodput} Mbps");
        // BBR keeps the standing queue far below what loss-based leaves
        // (they fill the 500-packet buffer until it overflows).
        assert!(
            sim.hop_stats(0).max_queue_pkts < 400,
            "queue {}",
            sim.hop_stats(0).max_queue_pkts
        );
    }

    #[test]
    fn vegas_keeps_the_queue_short() {
        let (goodput, sim, _) = run_bulk(CcAlgorithm::Vegas, clean_path(50.0), 10);
        assert!(goodput > 35.0, "goodput {goodput} Mbps");
        assert!(
            sim.hop_stats(0).max_queue_pkts < 60,
            "queue {}",
            sim.hop_stats(0).max_queue_pkts
        );
    }

    #[test]
    fn random_loss_cripples_cubic_but_not_bbr() {
        // The paper's headline anomaly in miniature: 1 % random loss.
        let mut lossy = clean_path(50.0);
        lossy.hops[0].drop_prob = 0.01;
        let (cubic, ..) = run_bulk(CcAlgorithm::Cubic, lossy.clone(), 15);
        let (bbr, ..) = run_bulk(CcAlgorithm::Bbr, lossy, 15);
        assert!(bbr > 2.0 * cubic, "BBR {bbr} vs Cubic {cubic}");
        assert!(bbr > 35.0, "BBR {bbr}");
    }

    #[test]
    fn fixed_transfer_completes_and_reports() {
        let mut sim = NetSim::new(clean_path(50.0), 42);
        let (sender, report) = TcpSender::new(CcAlgorithm::Cubic, Some(500_000));
        let flow = sim.add_flow(Box::new(sender), true, false);
        let t = sim.run_until_delivered(flow, 500_000, SimTime::from_secs(30));
        assert!(t.is_some());
        sim.run_until(SimTime::from_secs(31)); // let the last ACK land
        let rep = report.lock();
        assert!(rep.finished_at.is_some());
        assert_eq!(rep.bytes_acked, 500_000);
        assert!(!rep.cwnd_trace.is_empty());
    }

    #[test]
    fn rto_recovers_from_a_total_outage() {
        use fiveg_net::RateModel;
        use fiveg_simcore::BitRate;
        let mut path = clean_path(50.0);
        // Link dies at 0.5 s and returns at 2 s.
        path.hops[0].rate = RateModel::piecewise(vec![
            (SimTime::ZERO, BitRate::from_mbps(50.0)),
            (SimTime::from_millis(500), BitRate::ZERO),
            (SimTime::from_secs(2), BitRate::from_mbps(50.0)),
        ]);
        // Shrink the buffer so in-flight packets are dropped, not parked
        // (a parked queue would survive the outage without any RTO).
        path.hops[0].capacity_pkts = 20;
        let mut sim = NetSim::new(path, 7);
        let (sender, report) = TcpSender::new(CcAlgorithm::Reno, None);
        let flow = sim.add_flow(Box::new(sender), true, false);
        sim.run_until(SimTime::from_secs(10));
        let rep = report.lock();
        assert!(rep.rto_count >= 1, "rto_count {}", rep.rto_count);
        // Data kept flowing after the outage.
        assert!(
            sim.flow_stats(flow).bytes_in_order > 10_000_000,
            "{} bytes",
            sim.flow_stats(flow).bytes_in_order
        );
    }

    #[test]
    fn fast_retransmit_counts_loss_events() {
        let mut lossy = clean_path(50.0);
        lossy.hops[0].drop_prob = 0.002;
        let mut sim = NetSim::new(lossy, 11);
        let (sender, report) = TcpSender::new(CcAlgorithm::Reno, None);
        sim.add_flow(Box::new(sender), true, false);
        sim.run_until(SimTime::from_secs(10));
        let rep = report.lock();
        assert!(rep.loss_events > 0);
        assert!(rep.retransmissions >= rep.loss_events);
        assert!(rep.rtt.count() > 100);
    }

    #[test]
    fn burst_loss_recovers_in_about_one_rtt() {
        // Drop a contiguous burst by a brief outage with a tiny buffer,
        // then verify SACK recovery retransmits the whole hole quickly.
        use fiveg_net::RateModel;
        use fiveg_simcore::BitRate;
        let mut path = clean_path(50.0);
        path.hops[0].rate = RateModel::piecewise(vec![
            (SimTime::ZERO, BitRate::from_mbps(50.0)),
            (SimTime::from_millis(300), BitRate::ZERO),
            (SimTime::from_millis(330), BitRate::from_mbps(50.0)),
        ]);
        path.hops[0].capacity_pkts = 30;
        let mut sim = NetSim::new(path, 13);
        let (sender, report) = TcpSender::new(CcAlgorithm::Cubic, None);
        let flow = sim.add_flow(Box::new(sender), true, false);
        sim.run_until(SimTime::from_secs(5));
        let rep = report.lock();
        assert!(rep.retransmissions > 0);
        // Goodput over 5 s stays healthy despite the burst: SACK repairs
        // the hole without serial one-per-RTT retransmissions.
        let goodput = sim
            .flow_stats(flow)
            .mean_goodput_until(SimTime::from_secs(5))
            .mbps();
        assert!(goodput > 30.0, "goodput {goodput}");
    }

    /// The `BTreeSet` that `SentIndex` replaces, kept as its oracle.
    #[derive(Default)]
    struct SentIndexOracle(BTreeSet<(SimTime, u64)>);

    impl SentIndexOracle {
        fn insert(&mut self, t: SimTime, seg: u64) {
            self.0.insert((t, seg));
        }

        fn pop_due(&mut self, deadline: SimTime) -> Option<u64> {
            let &(t, seg) = self.0.iter().next()?;
            (t <= deadline).then(|| {
                self.0.remove(&(t, seg));
                seg
            })
        }
    }

    #[test]
    fn sent_index_matches_a_btree_set() {
        let mut rng = fiveg_simcore::SimRng::new(0x5e4d);
        for _ in 0..200 {
            let mut fast = SentIndex::default();
            let mut oracle = SentIndexOracle::default();
            let mut now = SimTime::ZERO;
            let mut snd_nxt = 0u64;
            for _ in 0..500 {
                // The clock never goes back, but one instant can see new
                // data, retransmissions of lower segments and repeats.
                if rng.chance(0.4) {
                    now += SimDuration::from_micros(rng.range_u64(1, 300));
                }
                let seg = match rng.index(3) {
                    0 => {
                        snd_nxt += MSS_BYTES as u64;
                        snd_nxt
                    }
                    _ => rng.range_u64(0, snd_nxt / MSS_BYTES as u64 + 1) * MSS_BYTES as u64,
                };
                fast.insert(now, seg);
                oracle.insert(now, seg);
                if rng.chance(0.3) {
                    let back = SimDuration::from_micros(rng.range_u64(0, 2_000));
                    let deadline =
                        SimTime::from_nanos(now.as_nanos().saturating_sub(back.as_nanos()));
                    loop {
                        let got = fast.pop_due(deadline);
                        assert_eq!(got, oracle.pop_due(deadline), "pop at {deadline}");
                        if got.is_none() {
                            break;
                        }
                    }
                }
                assert!(fast.0.iter().eq(oracle.0.iter()));
            }
        }
    }

    /// The scoreboard merge `sack_merge` short-cuts, kept as its oracle.
    fn sack_merge_oracle(board: &mut BTreeMap<u64, u64>, s: u64, e: u64) {
        let (mut new_s, mut new_e) = (s, e);
        while let Some((&rs, &re)) = board.range(..=new_e).next_back() {
            if re < new_s {
                break;
            }
            board.remove(&rs);
            new_s = new_s.min(rs);
            new_e = new_e.max(re);
        }
        board.insert(new_s, new_e);
    }

    #[test]
    fn sack_merge_matches_the_full_merge() {
        let mut rng = fiveg_simcore::SimRng::new(0x5ac);
        for _ in 0..200 {
            let (mut sender, _) = TcpSender::new(CcAlgorithm::Reno, None);
            let mut oracle = BTreeMap::new();
            let mut front = 0u64;
            for _ in 0..300 {
                // Blocks mostly grow the newest range, sometimes jump a
                // hole, fill an older one or repeat.
                let (s, e) = match rng.index(4) {
                    0 | 1 => {
                        let s = front.saturating_sub(rng.range_u64(0, 3_000));
                        front += rng.range_u64(1, 4_000);
                        (s, front)
                    }
                    2 => {
                        front += rng.range_u64(1, 10_000);
                        let s = front;
                        front += rng.range_u64(1, 3_000);
                        (s, front)
                    }
                    _ => {
                        let s = rng.range_u64(0, front + 1);
                        (s, s + rng.range_u64(1, 5_000))
                    }
                };
                sender.sack_merge(s, e);
                sack_merge_oracle(&mut oracle, s, e);
                assert_eq!(sender.sacked, oracle, "after [{s}, {e})");
                let total: u64 = oracle.iter().map(|(s, e)| e - s).sum();
                assert_eq!(sender.sacked_total, total);
            }
        }
    }

    #[test]
    fn pruning_matches_split_off() {
        let mut rng = fiveg_simcore::SimRng::new(0x5b1);
        let mss = MSS_BYTES as u64;
        let no_sack = AckInfo {
            cum_ack: 0,
            highest_seq: 0,
            echo_sent_at: SimTime::ZERO,
            echo_retx: false,
            delivered_bytes: 0,
            sack: [(0, 0); 3],
            sack_len: 0,
            ooo_bytes: 0,
        };
        for _ in 0..500 {
            let (mut sender, _) = TcpSender::new(CcAlgorithm::Reno, None);
            for _ in 0..rng.range_u64(0, 40) {
                let seg = rng.range_u64(0, 60) * mss;
                sender.marked.insert(seg, rng.range_u64(0, 1 << 20));
                sender.queued.insert(seg);
            }
            // On a segment start, between two, or past them all.
            sender.snd_una = rng.range_u64(0, 64) * mss + [0, 1, mss - 1][rng.index(3)];
            let marked = sender.marked.clone().split_off(&sender.snd_una);
            let queued = sender.queued.clone().split_off(&sender.snd_una);
            sender.merge_sack(&no_sack);
            assert_eq!(sender.marked, marked);
            assert_eq!(sender.queued, queued);
        }
    }

    #[test]
    fn paper_4g_path_utilisation_is_healthy() {
        // 4G day: Cubic reached 64 % in the paper; our calibrated path
        // with cross traffic should land in the same regime (>45 %).
        let path = PathConfig::paper(&PaperPathParams::lte_day(), Direction::Downlink);
        let ct = path.paper_cross_traffic();
        let mut sim = NetSim::new(path, 5);
        sim.add_cross_traffic(ct);
        let (sender, _) = TcpSender::new(CcAlgorithm::Cubic, None);
        let flow = sim.add_flow(Box::new(sender), true, false);
        sim.run_until(SimTime::from_secs(15));
        let goodput = sim
            .flow_stats(flow)
            .mean_goodput_until(SimTime::from_secs(15))
            .mbps();
        let util = goodput / 130.0;
        assert!(util > 0.45, "4G Cubic utilisation {util}");
    }
}
