//! The packet-level event loop.
//!
//! A [`NetSim`] owns a forward path (chain of [`Hop`]s), a set of flows
//! (each a sender [`Endpoint`] plus a built-in receiver that generates
//! cumulative ACKs over a fixed-delay reverse channel), and optional
//! cross-traffic. Transport protocols live in `fiveg-transport` and plug
//! in through the [`Endpoint`] trait.
//!
//! Design notes (smoltcp school): the world owns all state; events carry
//! only ids; handlers never hold references across scheduling calls, so
//! the borrow checker stays out of the way and the execution order is
//! exactly the event order.
//!
//! Packets in flight and ACKs on the reverse channel wait in FIFO pipes
//! owned by the world (the htsim pipe model), and their events ride the
//! matching [`EventQueue`] lane. Every pipe is fed by one stream whose
//! times never go backwards — a hop's exits are clamped to its previous
//! exit, the reverse channel has a fixed delay — so its events pop in
//! push order and each one finds its item at the pipe's front.

use crate::crosstraffic::CrossTraffic;
use crate::hop::{Hop, HopStats, Queued};
use crate::packet::{FlowId, Packet, MSS_BYTES};
use crate::path::PathConfig;
use fiveg_simcore::{EventQueue, SimDuration, SimRng, SimTime};
use serde::Serialize;
use std::collections::{BTreeMap, VecDeque};

/// Classes of transport timers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum TimerKind {
    /// Retransmission timeout.
    Rto,
    /// Pacing release.
    Pace,
    /// Protocol-defined auxiliary timer (probe cycles, app think time...).
    Aux(u32),
}

/// Information carried by a (delayed, cumulative) acknowledgement.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct AckInfo {
    /// Next in-order byte expected by the receiver (cumulative ACK).
    pub cum_ack: u64,
    /// Highest sequence end received so far (SACK-style hint).
    pub highest_seq: u64,
    /// Send timestamp echoed from the packet that triggered this ACK.
    pub echo_sent_at: SimTime,
    /// Whether the triggering packet was a retransmission (Karn's rule:
    /// no RTT sample from it).
    pub echo_retx: bool,
    /// Total in-order bytes delivered at the receiver when this ACK left.
    pub delivered_bytes: u64,
    /// Up to three SACK blocks: out-of-order `(start, end)` ranges above
    /// `cum_ack`, ascending (Linux TCP advertises SACK; the paper's
    /// measurements are SACK TCP throughout).
    pub sack: [(u64, u64); 3],
    /// Number of valid entries in `sack`.
    pub sack_len: u8,
    /// Exact total of out-of-order bytes held by the receiver (beyond
    /// the three advertised blocks) — the sender's delivery-rate
    /// estimator needs the true delivered count, as real TCP gets from
    /// per-packet send/ack bookkeeping.
    pub ooo_bytes: u64,
}

impl AckInfo {
    /// The valid SACK blocks.
    pub fn sack_blocks(&self) -> &[(u64, u64)] {
        &self.sack[..self.sack_len as usize]
    }
}

/// A transport sender: the protocol half that lives in `fiveg-transport`.
pub trait Endpoint {
    /// Called once when the simulation starts.
    fn on_start(&mut self, ctx: &mut Ctx);
    /// An ACK arrived on the reverse channel.
    fn on_ack(&mut self, ack: AckInfo, ctx: &mut Ctx);
    /// A timer set through [`Ctx::set_timer`] fired.
    fn on_timer(&mut self, kind: TimerKind, id: u64, ctx: &mut Ctx);
}

/// Facilities an [`Endpoint`] may use during a callback.
pub struct Ctx<'a> {
    now: SimTime,
    flow: FlowId,
    q: &'a mut EventQueue<Ev>,
    inject: &'a mut Pipe<Packet>,
    rng: &'a mut SimRng,
    next_timer_id: &'a mut u64,
}

impl Ctx<'_> {
    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The flow this callback belongs to. Endpoints use it to label
    /// trace events (e.g. CC state changes) with a stable flow index.
    pub fn flow_index(&self) -> u32 {
        self.flow.0
    }

    /// Injects a data packet onto the forward path.
    pub fn send_packet(&mut self, seq: u64, size: u32, retx: bool) {
        let pkt = Packet {
            flow: self.flow,
            seq,
            size,
            sent_at: self.now,
            retx,
        };
        self.inject
            .push(self.q, self.now, pkt, Ev::Arrive { hop: 0 });
    }

    /// Arms a timer; returns its id (delivered back in `on_timer`).
    pub fn set_timer(&mut self, kind: TimerKind, delay: SimDuration) -> u64 {
        let id = *self.next_timer_id;
        *self.next_timer_id += 1;
        self.q.schedule_on(
            timer_lane(kind),
            self.now + delay,
            Ev::Timer {
                flow: self.flow,
                kind,
                id,
            },
        );
        id
    }

    /// Deterministic randomness for the protocol.
    pub fn rng(&mut self) -> &mut SimRng {
        self.rng
    }
}

/// Receiver-side accounting for one flow.
#[derive(Debug)]
struct Receiver {
    /// Next in-order byte expected.
    expected: u64,
    /// Out-of-order ranges received: start → end. Kept merged (disjoint
    /// with a gap between neighbours, all strictly above `expected`) so
    /// per-packet work is O(log n) — during a large loss episode this
    /// map holds thousands of ranges and any full scan per packet turns
    /// the simulation quadratic.
    ooo: BTreeMap<u64, u64>,
    /// Total bytes covered by `ooo`, maintained incrementally.
    ooo_total: u64,
    /// Highest seq end seen.
    highest_seq: u64,
    /// Whether the flow wants cumulative ACKs (TCP yes, UDP no).
    wants_acks: bool,
    /// Whether to log every received sequence number (Fig. 11).
    record_seqs: bool,
    /// Rotation cursor (a range-start key) over out-of-order ranges for
    /// SACK advertisement.
    sack_cursor: u64,
    stats: FlowStats,
}

impl Receiver {
    /// Takes in the bytes `[seq, end)`: advances `expected` over them and
    /// over every buffered range they make contiguous, and buffers what
    /// lies beyond a hole. Returns the map's depth right after the
    /// segment went in (an in-order segment counts as a one-entry map),
    /// or 0 when it brought no byte above `expected`.
    ///
    /// The map stays disjoint with a gap between neighbours, so a segment
    /// that starts inside, or at the end of, the highest range touches
    /// only that range and extends it in place; that is the common case
    /// during a loss episode, as segments keep arriving above one hole.
    fn reassemble(&mut self, seq: u64, end: u64) -> usize {
        if end <= self.expected {
            return 0;
        }
        if self.ooo.is_empty() && seq <= self.expected {
            // In-order segment with nothing buffered: the merged range
            // would be inserted alone and popped straight back out, so
            // skip the map but count its one-entry depth.
            self.expected = end;
            return 1;
        }
        // Every buffered range starts above `expected`.
        let mut new_s = seq.max(self.expected);
        if let Some(mut last) = self.ooo.last_entry() {
            if *last.key() <= new_s && new_s <= *last.get() {
                let grown = end.saturating_sub(*last.get());
                if grown > 0 {
                    *last.get_mut() = end;
                    self.ooo_total += grown;
                }
                return self.ooo.len();
            }
        }
        // Merge into the out-of-order map, absorbing overlapping and
        // adjacent ranges (contiguous in key order around the new one).
        let mut new_e = end;
        while let Some((&s, &e)) = self.ooo.range(..=new_e).next_back() {
            if e < new_s {
                break;
            }
            self.ooo.remove(&s);
            self.ooo_total -= e - s;
            new_s = new_s.min(s);
            new_e = new_e.max(e);
        }
        self.ooo.insert(new_s, new_e);
        self.ooo_total += new_e - new_s;
        let depth = self.ooo.len();
        // Drain the ranges that begin at or before `expected`: they sit
        // at the front, and each one's end is below the next one's start.
        while let Some((&s, &e)) = self.ooo.first_key_value() {
            if s > self.expected {
                break;
            }
            self.ooo.pop_first();
            self.ooo_total -= e - s;
            self.expected = self.expected.max(e);
        }
        depth
    }
}

/// Per-flow delivery statistics.
#[derive(Debug, Clone, Default, Serialize)]
pub struct FlowStats {
    /// In-order bytes delivered.
    pub bytes_in_order: u64,
    /// Total payload bytes received (including out-of-order duplicates).
    pub bytes_received: u64,
    /// Packets received.
    pub packets_received: u64,
    /// Received sequence numbers in arrival order (only when recording).
    pub seq_log: Vec<u64>,
    /// Delivered bytes per 10 ms window (index = window number).
    pub window_bytes: Vec<f64>,
}

/// Width of the throughput trace windows.
pub const THROUGHPUT_WINDOW: SimDuration = SimDuration::from_millis(10);

impl FlowStats {
    /// Mean goodput over `[0, until]`.
    pub fn mean_goodput_until(&self, until: SimTime) -> fiveg_simcore::BitRate {
        let secs = until.as_secs_f64();
        if secs <= 0.0 {
            return fiveg_simcore::BitRate::ZERO;
        }
        fiveg_simcore::BitRate::from_bps(self.bytes_in_order as f64 * 8.0 / secs)
    }

    /// Throughput series in Mbps per window, as `(window start, mbps)`.
    pub fn throughput_series(&self) -> Vec<(SimTime, f64)> {
        let w = THROUGHPUT_WINDOW.as_secs_f64();
        self.window_bytes
            .iter()
            .enumerate()
            .map(|(i, &b)| (SimTime::from_secs_f64(i as f64 * w), b * 8.0 / w / 1e6))
            .collect()
    }
}

struct Flow {
    sender: Box<dyn Endpoint>,
    receiver: Receiver,
    started: bool,
}

/// Internal events. They carry only ids: a packet or ACK waits in the
/// [`Pipe`] its event names.
enum Ev {
    /// The front packet of `pipes[hop]` reaches hop `hop` (the receiver
    /// when `hop` is the hop count).
    Arrive {
        hop: usize,
    },
    TxDone {
        hop: usize,
    },
    RateResume {
        hop: usize,
    },
    /// The front ACK of the reverse-channel pipe reaches its sender.
    AckArrive,
    Timer {
        flow: FlowId,
        kind: TimerKind,
        id: u64,
    },
    CrossToggle {
        idx: usize,
        on: bool,
    },
    CrossEmit {
        idx: usize,
    },
}

// Heap and lane entries hold an `Ev` each; keep it to ids.
const _: () = assert!(std::mem::size_of::<Ev>() <= 32);

/// Event-queue lanes with one stream each. Timer lanes and the
/// cross-traffic lane may see a time go backwards (a shorter RTO, a second
/// cross source); those events fall back to the heap.
const LANE_RTO: usize = 0;
const LANE_PACE: usize = 1;
const LANE_AUX: usize = 2;
const LANE_ACK: usize = 3;
const LANE_CROSS: usize = 4;
/// `Arrive { hop }` rides lane `LANE_PIPE0 + hop`, for `hop` in
/// `0..=hops`; `TxDone { hop }` follows on lane `LANE_PIPE0 + hops + 1 + hop`.
const LANE_PIPE0: usize = 5;

fn timer_lane(kind: TimerKind) -> usize {
    match kind {
        TimerKind::Rto => LANE_RTO,
        TimerKind::Pace => LANE_PACE,
        TimerKind::Aux(_) => LANE_AUX,
    }
}

/// A FIFO of items in flight whose arrival events ride one queue lane.
struct Pipe<T> {
    lane: usize,
    items: VecDeque<T>,
    /// Time of the last push. Pushes must not go backwards: an earlier
    /// event would leave the lane for the heap and pop ahead of items
    /// already in the pipe.
    tail: SimTime,
}

impl<T> Pipe<T> {
    fn new(lane: usize) -> Self {
        Pipe {
            lane,
            items: VecDeque::new(),
            tail: SimTime::ZERO,
        }
    }

    /// Appends `item` and schedules `ev`, its arrival, at `at`.
    fn push(&mut self, q: &mut EventQueue<Ev>, at: SimTime, item: T, ev: Ev) {
        debug_assert!(
            at >= self.tail,
            "pipe on lane {} pushed out of order: {at} < {}",
            self.lane,
            self.tail
        );
        self.tail = at;
        self.items.push_back(item);
        q.schedule_on(self.lane, at, ev);
    }

    /// The item whose arrival event is being dispatched.
    fn pop(&mut self) -> Option<T> {
        self.items.pop_front()
    }
}

/// The network simulator.
pub struct NetSim {
    q: EventQueue<Ev>,
    hops: Vec<Hop>,
    /// `pipes[h]`: packets on their way to hop `h`; `pipes[hops.len()]`
    /// leads to the receivers.
    pipes: Vec<Pipe<Packet>>,
    /// ACKs on the reverse channel.
    acks: Pipe<(FlowId, AckInfo)>,
    reverse_delay: SimDuration,
    flows: Vec<Flow>,
    cross: Vec<(CrossTraffic, bool)>,
    rng: SimRng,
    next_timer_id: u64,
    /// Packets currently being serialised per hop.
    in_service: Vec<Option<Queued>>,
    /// Whether a RateResume probe is pending per hop.
    resume_pending: Vec<bool>,
    /// Deepest reassembly (out-of-order) map seen across all flows.
    max_reassembly: usize,
}

impl Drop for NetSim {
    /// Flushes per-run totals into the ambient metrics scope (see
    /// `fiveg-obs`): packets forwarded/dropped across all hops, packets
    /// delivered to receivers, the reassembly high-watermark, and the
    /// event queue's totals (clamps only when non-zero). All are
    /// deterministic functions of the simulation seed.
    fn drop(&mut self) {
        if self.q.scheduled() > 0 {
            fiveg_obs::counter_add("sim.events.scheduled", self.q.scheduled());
            fiveg_obs::counter_add("sim.events.executed", self.q.executed());
        }
        if self.q.clamped() > 0 {
            fiveg_obs::counter_add("sim.events.clamped", self.q.clamped());
        }
        let forwarded: u64 = self.hops.iter().map(|h| h.stats.forwarded).sum();
        let dropped: u64 = self.hops.iter().map(|h| h.stats.dropped()).sum();
        let delivered: u64 = self
            .flows
            .iter()
            .map(|f| f.receiver.stats.packets_received)
            .sum();
        if forwarded + dropped + delivered > 0 {
            fiveg_obs::counter_add("net.packets.forwarded", forwarded);
            fiveg_obs::counter_add("net.packets.dropped", dropped);
            fiveg_obs::counter_add("net.packets.delivered", delivered);
            fiveg_obs::gauge_max("net.reassembly.max_depth", self.max_reassembly as u64);
        }
    }
}

impl NetSim {
    /// Builds a simulator over a path.
    pub fn new(path: PathConfig, seed: u64) -> Self {
        let hops: Vec<Hop> = path.hops.into_iter().map(Hop::new).collect();
        let n = hops.len();
        assert!(n > 0, "a path needs at least one hop");
        NetSim {
            q: EventQueue::with_lanes(LANE_PIPE0 + 2 * n + 1),
            hops,
            pipes: (0..=n).map(|h| Pipe::new(LANE_PIPE0 + h)).collect(),
            acks: Pipe::new(LANE_ACK),
            reverse_delay: path.reverse_delay,
            flows: Vec::new(),
            cross: Vec::new(),
            rng: SimRng::new(seed),
            next_timer_id: 0,
            in_service: (0..n).map(|_| None).collect(),
            resume_pending: vec![false; n],
            max_reassembly: 0,
        }
    }

    /// Registers a flow with the given sender; returns its id.
    ///
    /// `wants_acks` enables the receiver's cumulative-ACK generation
    /// (true for TCP-like senders, false for UDP). `record_seqs` logs
    /// every received sequence number (memory-heavy; used for the
    /// loss-pattern figure).
    pub fn add_flow(
        &mut self,
        sender: Box<dyn Endpoint>,
        wants_acks: bool,
        record_seqs: bool,
    ) -> FlowId {
        let id = FlowId(self.flows.len() as u32);
        self.flows.push(Flow {
            sender,
            receiver: Receiver {
                expected: 0,
                ooo: BTreeMap::new(),
                ooo_total: 0,
                highest_seq: 0,
                wants_acks,
                record_seqs,
                sack_cursor: 0,
                stats: FlowStats::default(),
            },
            started: false,
        });
        id
    }

    /// Attaches a cross-traffic source.
    pub fn add_cross_traffic(&mut self, ct: CrossTraffic) {
        assert!(ct.hop < self.hops.len(), "cross-traffic hop out of range");
        let idx = self.cross.len();
        self.cross.push((ct, false));
        // First burst begins after one OFF period.
        let off = {
            let (ct, _) = &self.cross[idx];
            ct.off_ms.sample(&mut self.rng).max(0.0)
        };
        self.q.schedule_at(
            SimTime::ZERO + SimDuration::from_millis_f64(off),
            Ev::CrossToggle { idx, on: true },
        );
    }

    /// Current time.
    pub fn now(&self) -> SimTime {
        self.q.now()
    }

    /// Read-only access to a hop's statistics.
    pub fn hop_stats(&self, idx: usize) -> &HopStats {
        &self.hops[idx].stats
    }

    /// Read-only access to all hops.
    pub fn hops(&self) -> &[Hop] {
        &self.hops
    }

    /// Read-only access to a flow's delivery statistics.
    pub fn flow_stats(&self, flow: FlowId) -> &FlowStats {
        &self.flows[flow.0 as usize].receiver.stats
    }

    /// Runs until `deadline` (inclusive of events at the deadline).
    pub fn run_until(&mut self, deadline: SimTime) {
        self.start_pending_flows();
        while let Some(ev) = self.q.pop_until(deadline) {
            self.dispatch(ev.payload);
        }
        self.q.advance_to(deadline);
    }

    /// Runs until `flow` has `bytes` delivered in order, or `deadline`
    /// passes. Returns the delivery time if reached.
    pub fn run_until_delivered(
        &mut self,
        flow: FlowId,
        bytes: u64,
        deadline: SimTime,
    ) -> Option<SimTime> {
        self.start_pending_flows();
        while self.flows[flow.0 as usize].receiver.stats.bytes_in_order < bytes {
            let ev = self.q.pop_until(deadline)?;
            self.dispatch(ev.payload);
        }
        Some(self.q.now())
    }

    fn start_pending_flows(&mut self) {
        for i in 0..self.flows.len() {
            if !self.flows[i].started {
                self.flows[i].started = true;
                self.with_sender(FlowId(i as u32), |s, ctx| s.on_start(ctx));
            }
        }
    }

    /// Runs a sender callback with a context assembled from the world.
    fn with_sender<F: FnOnce(&mut dyn Endpoint, &mut Ctx)>(&mut self, flow: FlowId, f: F) {
        let mut sender = std::mem::replace(
            &mut self.flows[flow.0 as usize].sender,
            Box::new(NullEndpoint),
        );
        {
            let mut ctx = Ctx {
                now: self.q.now(),
                flow,
                q: &mut self.q,
                inject: &mut self.pipes[0],
                rng: &mut self.rng,
                next_timer_id: &mut self.next_timer_id,
            };
            f(sender.as_mut(), &mut ctx);
        }
        self.flows[flow.0 as usize].sender = sender;
    }

    fn dispatch(&mut self, ev: Ev) {
        match ev {
            Ev::Arrive { hop } => {
                let Some(pkt) = self.pipes[hop].pop() else {
                    debug_assert!(false, "Arrive with an empty pipe");
                    return;
                };
                self.on_arrive(hop, pkt);
            }
            Ev::TxDone { hop } => self.on_tx_done(hop),
            Ev::RateResume { hop } => {
                self.resume_pending[hop] = false;
                self.try_start_service(hop);
            }
            Ev::AckArrive => {
                let Some((flow, ack)) = self.acks.pop() else {
                    debug_assert!(false, "AckArrive with an empty pipe");
                    return;
                };
                self.with_sender(flow, |s, ctx| s.on_ack(ack, ctx));
            }
            Ev::Timer { flow, kind, id } => {
                self.with_sender(flow, |s, ctx| s.on_timer(kind, id, ctx));
            }
            Ev::CrossToggle { idx, on } => self.on_cross_toggle(idx, on),
            Ev::CrossEmit { idx } => self.on_cross_emit(idx),
        }
    }

    fn on_arrive(&mut self, hop_idx: usize, pkt: Packet) {
        if hop_idx >= self.hops.len() {
            self.deliver(pkt);
            return;
        }
        let now = self.q.now();
        // Fault injection: random early drop.
        let drop_prob = self.hops[hop_idx].config.drop_prob;
        if drop_prob > 0.0 && self.rng.chance(drop_prob) {
            self.hops[hop_idx].stats.dropped_random += 1;
            return;
        }
        let hop = &mut self.hops[hop_idx];
        if hop.busy {
            if hop.queue.len() < hop.config.capacity_pkts {
                hop.queue.push_back(Queued { pkt, arrived: now });
                let len = hop.queue.len();
                hop.stats.max_queue_pkts = hop.stats.max_queue_pkts.max(len);
            } else {
                hop.stats.dropped_overflow += 1;
            }
        } else {
            hop.queue.push_back(Queued { pkt, arrived: now });
            self.try_start_service(hop_idx);
        }
    }

    /// If the hop is idle and has queued packets, begin serialising the
    /// head-of-line packet (or arm a resume probe during an outage).
    fn try_start_service(&mut self, hop_idx: usize) {
        let now = self.q.now();
        let hop = &mut self.hops[hop_idx];
        if hop.busy {
            return;
        }
        let Some(&head) = hop.queue.front() else {
            return;
        };
        match hop.service_time(&head.pkt, now) {
            Some(ser) => {
                hop.busy = true;
                hop.queue.pop_front();
                // Queueing-delay accounting happens at service start.
                let qd = now.since(head.arrived);
                if qd > hop.stats.max_queue_delay {
                    hop.stats.max_queue_delay = qd;
                }
                self.in_service[hop_idx] = Some(head);
                let lane = LANE_PIPE0 + self.pipes.len() + hop_idx;
                self.q
                    .schedule_on(lane, now + ser, Ev::TxDone { hop: hop_idx });
            }
            None => {
                // Outage: wait for the rate to come back.
                if !self.resume_pending[hop_idx] {
                    if let Some(t) = hop.config.rate.next_change_after(now) {
                        self.resume_pending[hop_idx] = true;
                        self.q.schedule_at(t, Ev::RateResume { hop: hop_idx });
                    }
                    // A permanent outage simply strands the queue.
                }
            }
        }
    }

    fn on_tx_done(&mut self, hop_idx: usize) {
        let now = self.q.now();
        let Some(served) = self.in_service[hop_idx].take() else {
            debug_assert!(false, "TxDone without a packet in service");
            return;
        };
        // Per-packet latency jitter (HARQ rounds) is applied after
        // serialisation so it does not consume link capacity. Exits are
        // clamped to in-order delivery at no faster than the link rate
        // (RLC reordering delays the stream but cannot burst it out
        // beyond what the air interface carries — without the spacing
        // clamp, a jitter stall would release a same-instant burst that
        // looks like super-link-rate delivery to rate estimators).
        let jitter = match &self.hops[hop_idx].config.extra_delay_ms {
            Some(d) => SimDuration::from_millis_f64(d.sample(&mut self.rng).max(0.0)),
            None => SimDuration::ZERO,
        };
        let exit_at = {
            let hop = &mut self.hops[hop_idx];
            let ser = hop
                .service_time(&served.pkt, now)
                .unwrap_or(SimDuration::ZERO);
            hop.busy = false;
            hop.stats.forwarded += 1;
            let t = (now + hop.config.prop_delay + jitter).max(hop.last_exit + ser);
            hop.last_exit = t;
            t
        };
        // Cross-traffic is sunk after crossing its hop; data moves on.
        if !served.pkt.flow.is_cross() {
            let hop = hop_idx + 1;
            self.pipes[hop].push(&mut self.q, exit_at, served.pkt, Ev::Arrive { hop });
        }
        self.try_start_service(hop_idx);
    }

    /// Receiver-side processing at the end of the path.
    fn deliver(&mut self, pkt: Packet) {
        let now = self.q.now();
        let flow_idx = pkt.flow.0 as usize;
        let rx = &mut self.flows[flow_idx].receiver;
        rx.stats.packets_received += 1;
        rx.stats.bytes_received += pkt.size as u64;
        if rx.record_seqs {
            rx.stats.seq_log.push(pkt.seq);
        }
        // Throughput windows.
        let w = (now.as_nanos() / THROUGHPUT_WINDOW.as_nanos()) as usize;
        if rx.stats.window_bytes.len() <= w {
            rx.stats.window_bytes.resize(w + 1, 0.0);
        }
        rx.stats.window_bytes[w] += pkt.size as f64;

        rx.highest_seq = rx.highest_seq.max(pkt.seq_end());
        let depth = rx.reassemble(pkt.seq, pkt.seq_end());
        self.max_reassembly = self.max_reassembly.max(depth);
        rx.stats.bytes_in_order = rx.expected;

        if rx.wants_acks {
            let mut sack = [(0u64, 0u64); 3];
            let mut sack_len = 0u8;
            // The map is disjoint and above `expected`, so the exact
            // out-of-order byte count is just the maintained total.
            let ooo_bytes = rx.ooo_total;
            if !rx.ooo.is_empty() {
                // Real TCP advertises the block containing the packet
                // that triggered this ACK first, then rotates through
                // older blocks — over a train of ACKs the sender learns
                // the whole scoreboard even when holes outnumber the
                // three advertised blocks.
                if let Some((&s, &e)) = rx.ooo.range(..=pkt.seq).next_back() {
                    if pkt.seq < e {
                        sack[0] = (s, e);
                        sack_len = 1;
                    }
                }
                let n = rx.ooo.len();
                let mut cursor = rx.sack_cursor;
                let mut scanned = 0;
                while (sack_len as usize) < sack.len() && scanned < n {
                    let Some(cand) = rx
                        .ooo
                        .range(cursor..)
                        .next()
                        .or_else(|| rx.ooo.iter().next())
                        .map(|(&s, &e)| (s, e))
                    else {
                        break;
                    };
                    cursor = cand.0 + 1;
                    scanned += 1;
                    if !sack[..sack_len as usize].contains(&cand) {
                        sack[sack_len as usize] = cand;
                        sack_len += 1;
                    }
                }
                rx.sack_cursor = cursor;
            }
            let ack = AckInfo {
                cum_ack: rx.expected,
                highest_seq: rx.highest_seq,
                echo_sent_at: pkt.sent_at,
                echo_retx: pkt.retx,
                delivered_bytes: rx.expected,
                sack,
                sack_len,
                ooo_bytes,
            };
            let at = now + self.reverse_delay;
            self.acks
                .push(&mut self.q, at, (pkt.flow, ack), Ev::AckArrive);
        }
    }

    fn on_cross_toggle(&mut self, idx: usize, on: bool) {
        let now = self.q.now();
        self.cross[idx].1 = on;
        let (dur_ms, next_on) = {
            let ct = &self.cross[idx].0;
            if on {
                (ct.on_ms.sample(&mut self.rng).max(0.1), false)
            } else {
                (ct.off_ms.sample(&mut self.rng).max(0.1), true)
            }
        };
        self.q.schedule_at(
            now + SimDuration::from_millis_f64(dur_ms),
            Ev::CrossToggle { idx, on: next_on },
        );
        if on {
            self.q.schedule_on(LANE_CROSS, now, Ev::CrossEmit { idx });
        }
    }

    fn on_cross_emit(&mut self, idx: usize) {
        if !self.cross[idx].1 {
            return; // burst ended
        }
        let now = self.q.now();
        let (hop, gap) = {
            let ct = &self.cross[idx].0;
            let gap = SimDuration::from_secs_f64(ct.rate.secs_for_bits(MSS_BYTES as f64 * 8.0));
            (ct.hop, gap)
        };
        let pkt = Packet {
            flow: FlowId::CROSS,
            seq: 0,
            size: MSS_BYTES,
            sent_at: now,
            retx: false,
        };
        self.on_arrive(hop, pkt);
        self.q
            .schedule_on(LANE_CROSS, now + gap, Ev::CrossEmit { idx });
    }
}

/// Placeholder endpoint used while a real sender is checked out during a
/// callback; never invoked.
struct NullEndpoint;

impl Endpoint for NullEndpoint {
    fn on_start(&mut self, _: &mut Ctx) {
        unreachable!("null endpoint invoked")
    }
    fn on_ack(&mut self, _: AckInfo, _: &mut Ctx) {
        unreachable!("null endpoint invoked")
    }
    fn on_timer(&mut self, _: TimerKind, _: u64, _: &mut Ctx) {
        unreachable!("null endpoint invoked")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hop::HopConfig;

    /// A sender that blasts `n` back-to-back packets at start.
    struct Blaster {
        n: u64,
        acks_seen: u64,
        last_cum: u64,
    }

    impl Endpoint for Blaster {
        fn on_start(&mut self, ctx: &mut Ctx) {
            for i in 0..self.n {
                ctx.send_packet(i * MSS_BYTES as u64, MSS_BYTES, false);
            }
        }
        fn on_ack(&mut self, ack: AckInfo, _: &mut Ctx) {
            self.acks_seen += 1;
            assert!(ack.cum_ack >= self.last_cum, "cumulative ACK regressed");
            self.last_cum = ack.cum_ack;
        }
        fn on_timer(&mut self, _: TimerKind, _: u64, _: &mut Ctx) {}
    }

    fn one_hop_path(rate_mbps: f64, cap: usize) -> PathConfig {
        PathConfig {
            hops: vec![HopConfig::wired(
                "only",
                rate_mbps,
                SimDuration::from_millis(1),
                cap,
            )],
            reverse_delay: SimDuration::from_millis(2),
        }
    }

    #[test]
    fn packets_flow_end_to_end() {
        let mut sim = NetSim::new(one_hop_path(100.0, 1000), 1);
        let flow = sim.add_flow(
            Box::new(Blaster {
                n: 100,
                acks_seen: 0,
                last_cum: 0,
            }),
            true,
            false,
        );
        sim.run_until(SimTime::from_secs(1));
        let st = sim.flow_stats(flow);
        assert_eq!(st.packets_received, 100);
        assert_eq!(st.bytes_in_order, 100 * MSS_BYTES as u64);
        assert_eq!(sim.hop_stats(0).forwarded, 100);
        assert_eq!(sim.hop_stats(0).dropped(), 0);
    }

    #[test]
    fn droptail_overflows_at_capacity() {
        // 100 packets blasted into a 10-packet queue on a slow link:
        // 1 in service + 10 queued survive the initial burst.
        let mut sim = NetSim::new(one_hop_path(1.0, 10), 2);
        let flow = sim.add_flow(
            Box::new(Blaster {
                n: 100,
                acks_seen: 0,
                last_cum: 0,
            }),
            true,
            false,
        );
        sim.run_until(SimTime::from_secs(30));
        let st = sim.flow_stats(flow);
        assert_eq!(st.packets_received, 11);
        assert_eq!(sim.hop_stats(0).dropped_overflow, 89);
        assert_eq!(sim.hop_stats(0).max_queue_pkts, 10);
    }

    #[test]
    fn delivery_time_matches_store_and_forward() {
        // One 1448 B packet at 100 Mbps + 1 ms prop: delivery at
        // ser (115.84 us) + 1 ms.
        let mut sim = NetSim::new(one_hop_path(100.0, 10), 3);
        let flow = sim.add_flow(
            Box::new(Blaster {
                n: 1,
                acks_seen: 0,
                last_cum: 0,
            }),
            true,
            false,
        );
        let t = sim
            .run_until_delivered(flow, MSS_BYTES as u64, SimTime::from_secs(1))
            .expect("delivered");
        let expect = 1448.0 * 8.0 / 100e6 + 1e-3;
        assert!((t.as_secs_f64() - expect).abs() < 1e-9, "{t}");
    }

    #[test]
    fn out_of_order_reassembly() {
        /// Sends segment 1 then segment 0.
        struct Reorder;
        impl Endpoint for Reorder {
            fn on_start(&mut self, ctx: &mut Ctx) {
                ctx.send_packet(MSS_BYTES as u64, MSS_BYTES, false);
                ctx.send_packet(0, MSS_BYTES, false);
            }
            fn on_ack(&mut self, _: AckInfo, _: &mut Ctx) {}
            fn on_timer(&mut self, _: TimerKind, _: u64, _: &mut Ctx) {}
        }
        let mut sim = NetSim::new(one_hop_path(100.0, 10), 4);
        let flow = sim.add_flow(Box::new(Reorder), true, false);
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.flow_stats(flow).bytes_in_order, 2 * MSS_BYTES as u64);
    }

    #[test]
    fn outage_stalls_then_resumes() {
        use crate::ratemodel::RateModel;
        use fiveg_simcore::BitRate;
        let mut path = one_hop_path(100.0, 1000);
        path.hops[0].rate = RateModel::piecewise(vec![
            (SimTime::ZERO, BitRate::from_mbps(100.0)),
            (SimTime::from_millis(0), BitRate::ZERO),
            (SimTime::from_millis(100), BitRate::from_mbps(100.0)),
        ]);
        let mut sim = NetSim::new(path, 5);
        let flow = sim.add_flow(
            Box::new(Blaster {
                n: 5,
                acks_seen: 0,
                last_cum: 0,
            }),
            true,
            false,
        );
        let t = sim
            .run_until_delivered(flow, 5 * MSS_BYTES as u64, SimTime::from_secs(1))
            .expect("delivered after outage");
        assert!(
            t >= SimTime::from_millis(100),
            "delivered during outage: {t}"
        );
        assert!(t < SimTime::from_millis(110));
    }

    #[test]
    fn cross_traffic_congests_shared_hop() {
        use crate::crosstraffic::CrossTraffic;
        use fiveg_simcore::dist::Dist;
        // A 10 Mbps hop with 8 Mbps cross traffic always on: our CBR-ish
        // blast must see queueing and drops.
        let mut sim = NetSim::new(one_hop_path(10.0, 50), 6);
        sim.add_cross_traffic(CrossTraffic {
            hop: 0,
            rate: fiveg_simcore::BitRate::from_mbps(8.0),
            on_ms: Dist::Constant(10_000.0),
            off_ms: Dist::Constant(0.1),
        });
        let flow = sim.add_flow(
            Box::new(Blaster {
                n: 2_000,
                acks_seen: 0,
                last_cum: 0,
            }),
            true,
            false,
        );
        sim.run_until(SimTime::from_secs(5));
        assert!(sim.hop_stats(0).dropped_overflow > 0);
        assert!(sim.flow_stats(flow).packets_received < 2_000);
    }

    #[test]
    fn random_drop_fault_injection() {
        let mut path = one_hop_path(100.0, 10_000);
        path.hops[0].drop_prob = 0.5;
        let mut sim = NetSim::new(path, 7);
        let flow = sim.add_flow(
            Box::new(Blaster {
                n: 1_000,
                acks_seen: 0,
                last_cum: 0,
            }),
            true,
            false,
        );
        sim.run_until(SimTime::from_secs(5));
        let received = sim.flow_stats(flow).packets_received;
        assert!((300..700).contains(&(received as i64)), "{received}");
        assert!(sim.hop_stats(0).dropped_random > 0);
    }

    #[test]
    fn timers_fire_in_order() {
        struct TimerUser {
            fired: Vec<u64>,
        }
        impl Endpoint for TimerUser {
            fn on_start(&mut self, ctx: &mut Ctx) {
                ctx.set_timer(TimerKind::Aux(0), SimDuration::from_millis(20));
                ctx.set_timer(TimerKind::Aux(1), SimDuration::from_millis(10));
            }
            fn on_ack(&mut self, _: AckInfo, _: &mut Ctx) {}
            fn on_timer(&mut self, kind: TimerKind, _: u64, _: &mut Ctx) {
                if let TimerKind::Aux(n) = kind {
                    self.fired.push(n as u64);
                }
            }
        }
        let mut sim = NetSim::new(one_hop_path(100.0, 10), 8);
        sim.add_flow(Box::new(TimerUser { fired: vec![] }), true, false);
        sim.run_until(SimTime::from_secs(1));
        // Inspect by re-borrowing the sender box — easiest is indirect:
        // the ordering property is already exercised by the event queue
        // tests; here we just ensure timers do not panic.
    }

    fn receiver() -> Receiver {
        Receiver {
            expected: 0,
            ooo: BTreeMap::new(),
            ooo_total: 0,
            highest_seq: 0,
            wants_acks: true,
            record_seqs: false,
            sack_cursor: 0,
            stats: FlowStats::default(),
        }
    }

    /// Maximal runs of received bytes in `bytes`.
    fn runs(bytes: &[bool]) -> usize {
        bytes
            .iter()
            .enumerate()
            .filter(|&(i, &b)| b && (i == 0 || !bytes[i - 1]))
            .count()
    }

    #[test]
    fn reassembly_matches_a_byte_map() {
        const LEN: usize = 3_000;
        let mut rng = SimRng::new(0x0dd);
        for _ in 0..60 {
            let mut rx = receiver();
            // The naive model: one flag per byte.
            let mut got = vec![false; 2 * LEN];
            let mut sent: Vec<(u64, u64)> = Vec::new();
            let mut next = 0u64;
            while (rx.expected as usize) < LEN {
                // Mostly in sequence with holes left behind, plus
                // duplicates of earlier segments and random overlaps.
                let (seq, end) = match rng.index(10) {
                    0..=4 if next < LEN as u64 => {
                        let len = rng.range_u64(1, 64);
                        let seg = (next, next + len);
                        next += len;
                        if rng.chance(0.15) {
                            continue; // lost
                        }
                        seg
                    }
                    5 | 6 if !sent.is_empty() => sent[rng.index(sent.len())],
                    _ => {
                        let seq = rng.range_u64(0, LEN as u64);
                        (seq, seq + rng.range_u64(1, 64))
                    }
                };
                sent.push((seq, end));
                let before = rx.expected as usize;
                let depth = rx.reassemble(seq, end);
                got[seq as usize..end as usize].fill(true);
                let expected = got.iter().position(|&b| !b).unwrap_or(got.len());
                assert_eq!(rx.expected as usize, expected, "after [{seq}, {end})");
                let above = &got[expected..];
                assert_eq!(rx.ooo_total as usize, above.iter().filter(|&&b| b).count());
                assert_eq!(rx.ooo.len(), runs(above), "after [{seq}, {end})");
                let want = if end as usize > before {
                    runs(&got[before..])
                } else {
                    0
                };
                assert_eq!(depth, want, "depth after [{seq}, {end})");
            }
        }
    }

    #[test]
    fn seq_log_records_arrival_order() {
        let mut sim = NetSim::new(one_hop_path(100.0, 100), 9);
        let flow = sim.add_flow(
            Box::new(Blaster {
                n: 5,
                acks_seen: 0,
                last_cum: 0,
            }),
            false,
            true,
        );
        sim.run_until(SimTime::from_secs(1));
        let log = &sim.flow_stats(flow).seq_log;
        assert_eq!(log.len(), 5);
        assert!(log.windows(2).all(|w| w[0] < w[1]));
    }
}
