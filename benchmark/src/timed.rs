//! A transparent timing wrapper around a transport sender.

use crate::stats::LatencyHistogram;
use fiveg_core::net::{AckInfo, Ctx, Endpoint, TimerKind};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Time spent inside one sender's callbacks.
#[derive(Debug, Default)]
pub struct CallStats {
    /// Sum of callback durations. Includes the sender's own calls back
    /// into the simulator (`send_packet`, `set_timer`), which schedule
    /// events on its behalf.
    pub total: Duration,
    /// Per-callback latency distribution.
    pub hist: LatencyHistogram,
}

/// Wraps an [`Endpoint`] and times every callback the simulator makes
/// into it, without changing what the sender does: a wrapped flow gives
/// the same bytes, counters and event order as an unwrapped one.
pub struct Timed<E> {
    inner: E,
    stats: Rc<RefCell<CallStats>>,
}

impl<E: Endpoint> Timed<E> {
    /// Wraps `inner`, accumulating into `stats`.
    pub fn new(inner: E, stats: Rc<RefCell<CallStats>>) -> Timed<E> {
        Timed { inner, stats }
    }

    fn timed(&mut self, f: impl FnOnce(&mut E)) {
        let start = Instant::now();
        f(&mut self.inner);
        let d = start.elapsed();
        let mut s = self.stats.borrow_mut();
        s.total += d;
        s.hist.record(d);
    }
}

impl<E: Endpoint> Endpoint for Timed<E> {
    fn on_start(&mut self, ctx: &mut Ctx) {
        self.timed(|e| e.on_start(ctx));
    }

    fn on_ack(&mut self, ack: AckInfo, ctx: &mut Ctx) {
        self.timed(|e| e.on_ack(ack, ctx));
    }

    fn on_timer(&mut self, kind: TimerKind, id: u64, ctx: &mut Ctx) {
        self.timed(|e| e.on_timer(kind, id, ctx));
    }
}
