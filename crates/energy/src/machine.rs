//! The RRC + DRX radio state machine (paper Fig. 25), replayed over a
//! traffic trace.
//!
//! Given a sequence of [`Burst`]s (arrival time + bytes), the machine
//! walks the timeline: idle paging → promotion (single for LTE, triple
//! for NSA NR) → continuous reception while a backlog exists →
//! inactivity window → C-DRX tail → idle, re-entering continuous
//! reception directly if data arrives before the tail expires. The
//! output is a power time-series (the pwrStrip trace of Fig. 23) plus
//! integrated energy.

use crate::params::RadioModel;
use fiveg_simcore::{Energy, Power, SimDuration, SimTime, TimeSeries};
use serde::Serialize;

/// One application traffic burst.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Burst {
    /// Arrival time of the data (request issued / frame captured).
    pub at: SimTime,
    /// Bytes to transfer.
    pub bytes: u64,
    /// Peak rate the burst demands, Mbps (drives the dynamic-switching
    /// decision in `sched`).
    pub peak_rate_mbps: f64,
}

/// Radio machine states (for the trace annotation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum RadioState {
    /// RRC_IDLE with paging DRX.
    Idle,
    /// Connection establishment / promotion.
    Promotion,
    /// Continuous reception (data moving).
    Active,
    /// Inactivity window after the last data (full receive power).
    Inactive,
    /// C-DRX tail.
    Tail,
}

/// Result of a replay.
#[derive(Debug, Clone, Serialize)]
pub struct EnergyTrace {
    /// Power samples over time (100 ms grid, like pwrStrip).
    pub series: TimeSeries,
    /// Total radio energy.
    pub energy: Energy,
    /// Time spent in continuous reception.
    pub active_time: SimDuration,
    /// When the radio finally returned to RRC_IDLE.
    pub idle_at: SimTime,
    /// `(state, start, end)` intervals, for assertions and plots.
    pub intervals: Vec<(RadioState, SimTime, SimTime)>,
}

impl EnergyTrace {
    /// Mean power over `[0, until]`.
    pub fn mean_power_until(&self, until: SimTime) -> Power {
        let secs = until.as_secs_f64();
        if secs <= 0.0 {
            return Power::from_milliwatts(0.0);
        }
        Power::from_watts(self.energy.joules() / secs)
    }
}

/// Replays bursts through a radio model.
#[derive(Debug, Clone)]
pub struct RadioStateMachine {
    /// The radio being modelled.
    pub radio: RadioModel,
    /// Whether promotion/tail overheads apply (false = the paper's
    /// "Oracle" with perfect sleep/wake).
    pub overheads: bool,
}

impl RadioStateMachine {
    /// A realistic machine for the radio.
    pub fn new(radio: RadioModel) -> Self {
        RadioStateMachine {
            radio,
            overheads: true,
        }
    }

    /// The paper's Oracle variant: no promotion, no inactivity window,
    /// no tail — the radio is powered exactly while data moves.
    pub fn oracle(radio: RadioModel) -> Self {
        RadioStateMachine {
            radio,
            overheads: false,
        }
    }

    /// Replays `bursts` (must be sorted by arrival time). The trace runs
    /// until the radio returns to idle after the last burst.
    pub fn replay(&self, bursts: &[Burst]) -> EnergyTrace {
        assert!(
            bursts.windows(2).all(|w| w[0].at <= w[1].at),
            "bursts must be time-sorted"
        );
        let rate_bps = self.radio.rate_mbps * 1e6;
        let drx = &self.radio.drx;
        let pw = &self.radio.power;
        let mut intervals: Vec<(RadioState, SimTime, SimTime)> = Vec::new();

        // Phase 1: compute transfer (Active) intervals under the serial
        // backlog model: a burst starts when it arrives and the radio is
        // free (after promotion if the radio had gone idle).
        let mut connected_until = SimTime::ZERO; // end of tail coverage
        let mut busy_until = SimTime::ZERO;
        let mut first = true;
        for b in bursts {
            let arrival = b.at;
            let need_promotion = self.overheads
                && (first || {
                    // The radio fell back to idle if the tail expired before
                    // this arrival and no transfer is pending.
                    arrival > connected_until && arrival >= busy_until
                });
            let mut start = arrival.max(busy_until);
            if need_promotion {
                let promo = drx.total_promotion();
                intervals.push((RadioState::Promotion, start, start + promo));
                start += promo;
            }
            let dur = SimDuration::from_secs_f64(b.bytes as f64 * 8.0 / rate_bps);
            intervals.push((RadioState::Active, start, start + dur));
            busy_until = start + dur;
            connected_until = busy_until + drx.t_inactivity + drx.t_tail;
            first = false;
        }

        // Phase 2: fill gaps between transfers with inactivity/tail/idle.
        let mut enriched: Vec<(RadioState, SimTime, SimTime)> = Vec::new();
        let mut cursor = SimTime::ZERO;
        for &(state, s, e) in &intervals {
            if s > cursor {
                if self.overheads && !enriched.is_empty() {
                    // Post-transfer: inactivity, then tail, then idle.
                    let inact_end = (cursor + drx.t_inactivity).min(s);
                    if inact_end > cursor {
                        enriched.push((RadioState::Inactive, cursor, inact_end));
                    }
                    let tail_end = (inact_end + drx.t_tail).min(s);
                    if tail_end > inact_end {
                        enriched.push((RadioState::Tail, inact_end, tail_end));
                    }
                    if s > tail_end {
                        enriched.push((RadioState::Idle, tail_end, s));
                    }
                } else {
                    enriched.push((RadioState::Idle, cursor, s));
                }
            }
            enriched.push((state, s, e));
            cursor = cursor.max(e);
        }
        // Trailing inactivity + tail after the final transfer.
        if self.overheads && !enriched.is_empty() {
            let inact_end = cursor + drx.t_inactivity;
            enriched.push((RadioState::Inactive, cursor, inact_end));
            enriched.push((RadioState::Tail, inact_end, inact_end + drx.t_tail));
            cursor = inact_end + drx.t_tail;
        }

        // Phase 3: integrate power and build the 100 ms series.
        let power_of = |state: RadioState| -> Power {
            match state {
                RadioState::Idle => pw.idle,
                RadioState::Promotion => pw.promotion,
                RadioState::Active => pw.active,
                RadioState::Inactive => pw.cdrx_on,
                RadioState::Tail => pw.tail_average(drx),
            }
        };
        let mut energy = Energy::from_joules(0.0);
        let mut active_time = SimDuration::ZERO;
        for &(state, s, e) in &enriched {
            let dur = e.since(s).as_secs_f64();
            energy += power_of(state).over_seconds(dur);
            if state == RadioState::Active {
                active_time += e.since(s);
            }
            // Dwell times are virtual (simulation-clock) nanoseconds, so
            // they are deterministic per seed despite being "time".
            let label = match state {
                RadioState::Idle => "energy.dwell_ns.idle",
                RadioState::Promotion => "energy.dwell_ns.promotion",
                RadioState::Active => "energy.dwell_ns.active",
                RadioState::Inactive => "energy.dwell_ns.inactive",
                RadioState::Tail => "energy.dwell_ns.tail",
            };
            fiveg_obs::counter_add(label, e.since(s).as_nanos());
        }
        fiveg_obs::counter_add("energy.transitions", enriched.len() as u64);
        let mut series = TimeSeries::new();
        let step = SimDuration::from_millis(100);
        let mut t = SimTime::ZERO;
        let mut idx = 0usize;
        while t <= cursor {
            while idx < enriched.len() && enriched[idx].2 <= t {
                idx += 1;
            }
            let p = if idx < enriched.len() && enriched[idx].1 <= t {
                power_of(enriched[idx].0)
            } else {
                pw.idle
            };
            series.push(t, p.milliwatts());
            t += step;
        }

        EnergyTrace {
            series,
            energy,
            active_time,
            idle_at: cursor,
            intervals: enriched,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::RadioModel;

    fn burst(at_ms: u64, bytes: u64) -> Burst {
        Burst {
            at: SimTime::from_millis(at_ms),
            bytes,
            peak_rate_mbps: 10.0,
        }
    }

    #[test]
    fn single_burst_walks_all_states() {
        let m = RadioStateMachine::new(RadioModel::nr_nsa_day());
        let tr = m.replay(&[burst(0, 10_000_000)]);
        let states: Vec<RadioState> = tr.intervals.iter().map(|&(s, ..)| s).collect();
        assert!(states.contains(&RadioState::Promotion));
        assert!(states.contains(&RadioState::Active));
        assert!(states.contains(&RadioState::Inactive));
        assert!(states.contains(&RadioState::Tail));
        // Promotion for NSA ≈ 3.5 s, transfer ≈ 91 ms, tail 21.4 s.
        assert!((tr.idle_at.as_secs_f64() - (3.542 + 0.0909 + 0.1 + 21.44)).abs() < 0.05);
    }

    #[test]
    fn nsa_tail_twice_the_lte_tail() {
        // Fig. 23: 4G returns to idle ≈10 s after the transfer, 5G ≈20 s.
        let lte = RadioStateMachine::new(RadioModel::lte_day()).replay(&[burst(0, 1_000_000)]);
        let nr = RadioStateMachine::new(RadioModel::nr_nsa_day()).replay(&[burst(0, 1_000_000)]);
        let lte_after = lte.idle_at.as_secs_f64();
        let nr_after = nr.idle_at.as_secs_f64();
        assert!((9.0..13.0).contains(&(lte_after - 0.7)), "lte {lte_after}");
        assert!(nr_after > lte_after + 9.0, "nr {nr_after} lte {lte_after}");
    }

    #[test]
    fn back_to_back_bursts_skip_promotion() {
        let m = RadioStateMachine::new(RadioModel::nr_nsa_day());
        let tr = m.replay(&[burst(0, 1_000_000), burst(4_500, 1_000_000)]);
        let promos = tr
            .intervals
            .iter()
            .filter(|&&(s, ..)| s == RadioState::Promotion)
            .count();
        assert_eq!(promos, 1, "second burst lands inside the tail");
    }

    #[test]
    fn long_idle_gap_repromotes() {
        let m = RadioStateMachine::new(RadioModel::nr_nsa_day());
        // Second burst 40 s later: tail (21.4 s + promo ≈3.5 + transfer)
        // has expired.
        let tr = m.replay(&[burst(0, 1_000_000), burst(40_000, 1_000_000)]);
        let promos = tr
            .intervals
            .iter()
            .filter(|&&(s, ..)| s == RadioState::Promotion)
            .count();
        assert_eq!(promos, 2);
    }

    #[test]
    fn oracle_has_no_overheads() {
        let real = RadioStateMachine::new(RadioModel::nr_nsa_day());
        let oracle = RadioStateMachine::oracle(RadioModel::nr_nsa_day());
        let bursts = [burst(0, 50_000_000)];
        let e_real = real.replay(&bursts).energy.joules();
        let e_oracle = oracle.replay(&bursts).energy.joules();
        assert!(e_oracle < e_real);
        // Oracle energy ≈ transfer time × active power.
        let expect = 50_000_000.0 * 8.0 / 880e6 * 2.9;
        assert!(
            (e_oracle - expect).abs() / expect < 0.05,
            "{e_oracle} vs {expect}"
        );
    }

    #[test]
    fn energy_positive_and_series_covers_timeline() {
        let m = RadioStateMachine::new(RadioModel::lte_day());
        let tr = m.replay(&[burst(0, 5_000_000), burst(3_000, 5_000_000)]);
        assert!(tr.energy.joules() > 0.0);
        assert!(!tr.series.is_empty());
        let last = tr.series.last().expect("non-empty").0;
        assert!(last + SimDuration::from_millis(200) >= tr.idle_at);
        assert!(tr.active_time > SimDuration::ZERO);
    }

    #[test]
    fn jagged_pattern_for_spaced_loads() {
        // Fig. 23: web loads every 3 s produce jagged power (active
        // spikes over a tail plateau).
        let m = RadioStateMachine::new(RadioModel::nr_nsa_day());
        let bursts: Vec<Burst> = (0..10)
            .map(|i| burst(10_000 + i * 3_000, 2_000_000))
            .collect();
        let tr = m.replay(&bursts);
        let v = tr.series.values();
        let max = v.iter().copied().fold(f64::MIN, f64::max);
        let min_mid: f64 = v
            .iter()
            .skip(150)
            .take(100)
            .copied()
            .fold(f64::MAX, f64::min);
        assert!(max >= 2_800.0, "active peaks {max}");
        assert!(min_mid < 1_000.0, "between loads drops to DRX {min_mid}");
    }

    #[test]
    #[should_panic(expected = "time-sorted")]
    fn rejects_unsorted_bursts() {
        let m = RadioStateMachine::new(RadioModel::lte_day());
        let _ = m.replay(&[burst(1_000, 1), burst(0, 1)]);
    }
}
