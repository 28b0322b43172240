//! lint-fixture-path: crates/core/src/fixture.rs
//!
//! S-rule positives: shard-safety hazards the semantic pass must
//! catch, plus the sanctioned patterns it must stay silent on. This
//! file is never compiled — the self-test only parses it.

static SEQ: AtomicU64 = AtomicU64::new(0);
static LIMIT: usize = 8;

thread_local! {
    static SCRATCH_POOL: RefCell<Vec<f64>> = RefCell::new(Vec::new());
}

impl ShardLogic for FixtureNode {
    type Event = FixtureEvent;

    fn handle(&mut self, at: u64, ev: FixtureEvent) {
        self.on_event(at, ev);
        self.record_direct();
        ambient_seq_bump();
        let _ = LIMIT; // immutable static: not a shard hazard
    }
}

impl FixtureNode {
    fn on_event(&mut self, at: u64, _ev: FixtureEvent) {
        // Reached from the handler through one hop: still tainted.
        fiveg_obs::counter_add("fixture.events", 1); //~ S001
        let _ = at;
    }

    fn record_direct(&mut self) {
        // fiveg-lint: allow(S001) -- fixture: pragma-suppressed metric write
        fiveg_obs::gauge_max("fixture.peak", 1.0);
    }
}

fn ambient_seq_bump() {
    SEQ.fetch_add(1, Ordering::Relaxed); //~ S003
    SCRATCH_POOL.with(|p| p.borrow_mut().clear()); //~ S003
}

/// The sanctioned per-origin scratch flush: obs writes inside a `Drop`
/// impl are chunk-structured and shard-invariant by construction.
impl Drop for FixtureScratch {
    fn drop(&mut self) {
        fiveg_obs::counter_add("fixture.flush", self.n);
        fiveg_obs::observe("fixture.hist", EDGES, self.v);
    }
}

fn untainted_writer() {
    // Not reachable from any ShardLogic impl: no S001.
    fiveg_obs::counter_add("fixture.setup", 1);
}

#[cfg(test)]
mod tests {
    impl ShardLogic for TestOnlyNode {
        fn handle(&mut self) {
            // Test-region impls never seed taint.
            fiveg_obs::counter_add("fixture.test", 1);
        }
    }
}
