//! Property-based tests for the simulation kernel.

use fiveg_simcore::{Cdf, Dist, EventQueue, Histogram, SimDuration, SimRng, SimTime};
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One step of a random event-queue workload. Times are offsets from the
/// queue's current time, so nothing is scheduled in the past.
#[derive(Debug, Clone)]
enum QueueOp {
    At(u64),
    On(usize, u64),
    Keyed(u64),
    Pop,
    PopUntil(u64),
}

const LANES: usize = 3;

/// First caller-supplied seq of `Keyed` ops: far above the queue's own
/// stamps, as the shard engine's origin-packed keys are.
const KEYED_SEQ0: u64 = 1 << 40;

fn queue_op() -> impl Strategy<Value = QueueOp> {
    prop_oneof![
        (0u64..50).prop_map(QueueOp::At),
        // Small offsets keep lane pushes mostly in order; the occasional
        // one behind its lane's tail must fall back to the heap.
        (0..LANES, 0u64..50).prop_map(|(l, t)| QueueOp::On(l, t)),
        (0u64..50).prop_map(QueueOp::Keyed),
        Just(QueueOp::Pop),
        (0u64..30).prop_map(QueueOp::PopUntil),
    ]
}

/// The order lanes must not change: one binary heap on `(at, seq)`,
/// with the same clock and sequence rules as the queue.
#[derive(Default)]
struct ReferenceQueue {
    heap: BinaryHeap<Reverse<(SimTime, u64, usize)>>,
    now: SimTime,
    next_seq: u64,
}

impl ReferenceQueue {
    fn schedule(&mut self, at: SimTime, payload: usize) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.schedule_keyed(at, seq, payload);
        seq
    }

    fn schedule_keyed(&mut self, at: SimTime, seq: u64, payload: usize) {
        self.heap.push(Reverse((at, seq, payload)));
    }

    fn pop_until(&mut self, deadline: SimTime) -> Option<(SimTime, u64, usize)> {
        let &Reverse((at, ..)) = self.heap.peek()?;
        if at > deadline {
            return None;
        }
        let Reverse(ev) = self.heap.pop()?;
        self.now = ev.0;
        Some(ev)
    }
}

proptest! {
    /// Lanes change where events wait, never the order they pop in:
    /// any mix of heap, lane and caller-keyed schedules, pops and
    /// deadline pops gives the reference heap's `(at, seq, payload)`
    /// sequence.
    #[test]
    fn lanes_pop_in_reference_heap_order(ops in prop::collection::vec(queue_op(), 1..300)) {
        let mut q = EventQueue::with_lanes(LANES);
        let mut reference = ReferenceQueue::default();
        let mut keyed_seq = KEYED_SEQ0;
        let mut scheduled = 0;
        let key = |e: fiveg_simcore::ScheduledEvent<usize>| (e.at, e.seq, e.payload);
        for (payload, op) in ops.into_iter().enumerate() {
            let now = q.now();
            let offset = |t: u64| now + SimDuration::from_nanos(t);
            match op {
                QueueOp::At(t) => {
                    let at = offset(t);
                    prop_assert_eq!(q.schedule_at(at, payload), reference.schedule(at, payload));
                }
                QueueOp::On(lane, t) => {
                    let at = offset(t);
                    prop_assert_eq!(q.schedule_on(lane, at, payload), reference.schedule(at, payload));
                }
                QueueOp::Keyed(t) => {
                    let at = offset(t);
                    q.schedule_keyed(at, keyed_seq, payload);
                    reference.schedule_keyed(at, keyed_seq, payload);
                    keyed_seq += 1;
                }
                QueueOp::Pop => {
                    prop_assert_eq!(q.pop().map(key), reference.pop_until(SimTime::MAX));
                }
                QueueOp::PopUntil(t) => {
                    let deadline = offset(t);
                    prop_assert_eq!(q.pop_until(deadline).map(key), reference.pop_until(deadline));
                }
            }
            if !matches!(op, QueueOp::Pop | QueueOp::PopUntil(_)) {
                scheduled += 1;
            }
            prop_assert_eq!(q.len(), reference.heap.len());
            prop_assert_eq!(q.now(), reference.now);
            prop_assert_eq!(q.scheduled(), scheduled);
        }
        while let Some(expect) = reference.pop_until(SimTime::MAX) {
            prop_assert_eq!(q.pop().map(key), Some(expect));
        }
        prop_assert!(q.pop().is_none());
    }
}

proptest! {
    /// Events always pop in non-decreasing time order, with FIFO ties.
    #[test]
    fn event_queue_orders_all_schedules(times in prop::collection::vec(0u64..1_000_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule_at(SimTime::from_nanos(t), i);
        }
        let mut last: Option<(SimTime, usize)> = None;
        while let Some(ev) = q.pop() {
            if let Some((lt, li)) = last {
                prop_assert!(ev.at >= lt);
                if ev.at == lt {
                    // FIFO among equal timestamps: later insertion pops later.
                    prop_assert!(ev.payload > li || times[ev.payload] != times[li]);
                }
            }
            last = Some((ev.at, ev.payload));
        }
        prop_assert_eq!(q.executed(), times.len() as u64);
    }

    /// The clock never runs backwards, whatever mix of operations runs.
    #[test]
    fn clock_is_monotonic(ops in prop::collection::vec((0u64..1_000_000, prop::bool::ANY), 1..100)) {
        let mut q = EventQueue::new();
        let mut prev = SimTime::ZERO;
        for (t, push) in ops {
            if push {
                let at = q.now() + SimDuration::from_nanos(t);
                q.schedule_at(at, ());
            } else {
                q.pop();
            }
            prop_assert!(q.now() >= prev);
            prev = q.now();
        }
    }

    /// CDF quantiles are monotone in q and bounded by min/max.
    #[test]
    fn cdf_quantiles_monotone(samples in prop::collection::vec(-1e6f64..1e6, 1..300)) {
        let c = Cdf::from_samples(samples.clone());
        let mut prev = f64::NEG_INFINITY;
        for i in 0..=20 {
            let v = c.quantile(i as f64 / 20.0);
            prop_assert!(v >= prev);
            prev = v;
        }
        let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
        let max = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(c.quantile(0.0) >= min - 1e-9);
        prop_assert!(c.quantile(1.0) <= max + 1e-9);
    }

    /// Histogram never loses a sample.
    #[test]
    fn histogram_conserves_counts(samples in prop::collection::vec(-200f64..200.0, 0..500)) {
        let mut h = Histogram::new(vec![-100.0, -50.0, 0.0, 50.0, 100.0]);
        for &s in &samples {
            h.push(s);
        }
        prop_assert_eq!(h.total(), samples.len() as u64);
        let frac_sum: f64 = (0..h.counts().len()).map(|i| h.fraction(i)).sum();
        prop_assert!(frac_sum <= 1.0 + 1e-9);
    }

    /// Seeded streams replay identically and substreams are stable.
    #[test]
    fn rng_determinism(seed in any::<u64>(), label in "[a-z]{1,8}") {
        use rand::RngCore;
        let mut a = SimRng::new(seed).substream(&label);
        let mut b = SimRng::new(seed).substream(&label);
        for _ in 0..16 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    /// Distribution samples respect their support.
    #[test]
    fn dist_support(seed in any::<u64>(), mean in 0.1f64..100.0, sd in 0.1f64..10.0) {
        let mut rng = SimRng::new(seed);
        let clamped = Dist::NormalClamped { mean, std_dev: sd, min: 0.0 };
        let pareto = Dist::Pareto { x_min: mean, alpha: 1.5 };
        let exp = Dist::Exponential { mean };
        for _ in 0..50 {
            prop_assert!(clamped.sample(&mut rng) >= 0.0);
            prop_assert!(pareto.sample(&mut rng) >= mean);
            prop_assert!(exp.sample(&mut rng) >= 0.0);
        }
    }

    /// Duration arithmetic saturates instead of wrapping.
    #[test]
    fn duration_saturates(a in any::<u64>(), b in any::<u64>()) {
        let da = SimDuration::from_nanos(a);
        let db = SimDuration::from_nanos(b);
        let sum = da + db;
        prop_assert!(sum >= da || sum == SimDuration::MAX);
        let diff = da - db;
        prop_assert!(diff <= da);
    }
}
