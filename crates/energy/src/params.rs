//! Energy-model parameters.
//!
//! DRX timers are the operator's values extracted via XCAL (paper
//! Tab. 7). Power draws are calibrated so the paper's headline ratios
//! emerge: the 5G module draws 2–3× the 4G module and ≈1.8× the screen,
//! accounts for ≈55 % of the phone's budget under load (Fig. 21), and
//! its energy-per-bit at saturation is ≈¼–⅓ of 4G's (Fig. 22).

use fiveg_simcore::{Power, SimDuration};
use serde::Serialize;

/// DRX/RRC timer set (paper Tab. 7).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct DrxParams {
    /// Paging DRX cycle in RRC_IDLE.
    pub t_idle_cycle: SimDuration,
    /// On-duration per DRX cycle.
    pub t_on: SimDuration,
    /// Promotion delay from idle to connected (LTE leg).
    pub t_lte_promotion: SimDuration,
    /// LTE→NR activation delay (NSA only).
    pub t_4r_5r: SimDuration,
    /// NR promotion delay (NSA only).
    pub t_nr_promotion: SimDuration,
    /// DRX inactivity timer after the last data.
    pub t_inactivity: SimDuration,
    /// Long C-DRX cycle during the tail.
    pub t_long_cycle: SimDuration,
    /// Connected-DRX tail before falling back to idle.
    pub t_tail: SimDuration,
}

impl DrxParams {
    /// The paper's LTE configuration (Tab. 7).
    pub fn paper_lte() -> Self {
        DrxParams {
            t_idle_cycle: SimDuration::from_millis(1280),
            t_on: SimDuration::from_millis(10),
            t_lte_promotion: SimDuration::from_millis(623),
            t_4r_5r: SimDuration::ZERO,
            t_nr_promotion: SimDuration::ZERO,
            t_inactivity: SimDuration::from_millis(80),
            t_long_cycle: SimDuration::from_millis(320),
            t_tail: SimDuration::from_millis(10_720),
        }
    }

    /// The paper's NSA NR configuration (Tab. 7): the radio must first
    /// promote through the LTE state machine (623 ms), activate the NR
    /// leg (1238 ms) and promote it (1681 ms); the tail is twice LTE's.
    pub fn paper_nr_nsa() -> Self {
        DrxParams {
            t_idle_cycle: SimDuration::from_millis(1280),
            t_on: SimDuration::from_millis(10),
            t_lte_promotion: SimDuration::from_millis(623),
            t_4r_5r: SimDuration::from_millis(1238),
            t_nr_promotion: SimDuration::from_millis(1681),
            t_inactivity: SimDuration::from_millis(100),
            t_long_cycle: SimDuration::from_millis(320),
            t_tail: SimDuration::from_millis(21_440),
        }
    }

    /// Total promotion latency from idle to data transfer.
    pub fn total_promotion(&self) -> SimDuration {
        self.t_lte_promotion + self.t_4r_5r + self.t_nr_promotion
    }
}

/// Radio power draws per state, mW.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct RadioPower {
    /// RRC_IDLE average (paging duty cycle folded in).
    pub idle: Power,
    /// During promotion signalling.
    pub promotion: Power,
    /// Continuous reception (active transfer).
    pub active: Power,
    /// C-DRX on-duration during the tail.
    pub cdrx_on: Power,
    /// C-DRX sleep during the tail.
    pub cdrx_sleep: Power,
}

impl RadioPower {
    /// Calibrated 4G module.
    pub fn paper_lte() -> Self {
        RadioPower {
            idle: Power::from_milliwatts(15.0),
            promotion: Power::from_milliwatts(1_100.0),
            active: Power::from_milliwatts(1_350.0),
            cdrx_on: Power::from_milliwatts(1_100.0),
            cdrx_sleep: Power::from_milliwatts(210.0),
        }
    }

    /// Calibrated 5G NSA module (includes the LTE anchor's share; the
    /// separate-modem + 4G SoC packaging of early 5G phones is what
    /// makes it so hungry — Sec. 6.1).
    pub fn paper_nr_nsa() -> Self {
        RadioPower {
            idle: Power::from_milliwatts(25.0),
            promotion: Power::from_milliwatts(2_300.0),
            active: Power::from_milliwatts(2_900.0),
            cdrx_on: Power::from_milliwatts(2_300.0),
            // The early separate-modem 5G packaging sleeps badly — ≈1.4×
            // the 4G module's C-DRX floor, and the tail lasts twice as
            // long (Tab. 7), so the Fig. 23 showcase lands at ≈2.3× the
            // 4G energy.
            cdrx_sleep: Power::from_milliwatts(300.0),
        }
    }

    /// Average power over one C-DRX tail cycle.
    pub fn tail_average(&self, drx: &DrxParams) -> Power {
        let on = drx.t_on.as_secs_f64();
        let cycle = drx.t_long_cycle.as_secs_f64();
        let duty = (on / cycle).clamp(0.0, 1.0);
        self.cdrx_on * duty + self.cdrx_sleep * (1.0 - duty)
    }
}

/// A radio model: timers + powers + achievable downlink rate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct RadioModel {
    /// Human-readable name ("LTE", "NR NSA", ...).
    pub name: &'static str,
    /// DRX timers.
    pub drx: DrxParams,
    /// Power draws.
    pub power: RadioPower,
    /// Effective transfer rate for trace replay, Mbps.
    pub rate_mbps: f64,
}

impl RadioModel {
    /// The 4G module at the daytime downlink baseline.
    pub fn lte_day() -> Self {
        RadioModel {
            name: "LTE",
            drx: DrxParams::paper_lte(),
            power: RadioPower::paper_lte(),
            rate_mbps: 130.0,
        }
    }

    /// The 5G NSA module at the daytime downlink baseline.
    pub fn nr_nsa_day() -> Self {
        RadioModel {
            name: "NR NSA",
            drx: DrxParams::paper_nr_nsa(),
            power: RadioPower::paper_nr_nsa(),
            rate_mbps: 880.0,
        }
    }
}

/// Non-radio component power draws (Fig. 21's other bars), mW.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ComponentPower {
    /// Android system baseline (airplane mode, screen off).
    pub system: Power,
    /// Screen at maximum brightness.
    pub screen: Power,
    /// Application CPU/GPU (depends on the app).
    pub app: Power,
}

impl ComponentPower {
    /// Calibrated phone: 0.5 W system, 1.6 W screen (the pre-5G king of
    /// the power budget) plus the given app draw.
    pub fn paper(app_mw: f64) -> Self {
        ComponentPower {
            system: Power::from_milliwatts(500.0),
            screen: Power::from_milliwatts(1_600.0),
            app: Power::from_milliwatts(app_mw),
        }
    }

    /// Sum of the non-radio components.
    pub fn total(&self) -> Power {
        self.system + self.screen + self.app
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table7_values() {
        let nr = DrxParams::paper_nr_nsa();
        assert_eq!(nr.t_idle_cycle, SimDuration::from_millis(1280));
        assert_eq!(nr.t_on, SimDuration::from_millis(10));
        assert_eq!(nr.t_lte_promotion, SimDuration::from_millis(623));
        assert_eq!(nr.t_4r_5r, SimDuration::from_millis(1238));
        assert_eq!(nr.t_nr_promotion, SimDuration::from_millis(1681));
        assert_eq!(nr.t_long_cycle, SimDuration::from_millis(320));
        assert_eq!(nr.t_tail, SimDuration::from_millis(21_440));
        let lte = DrxParams::paper_lte();
        assert_eq!(lte.t_tail, SimDuration::from_millis(10_720));
    }

    #[test]
    fn nr_promotion_is_much_longer() {
        // NSA must pass through the LTE machine first (Fig. 25).
        let nr = DrxParams::paper_nr_nsa().total_promotion();
        let lte = DrxParams::paper_lte().total_promotion();
        assert!(nr.as_millis_f64() > 3.5 * lte.as_millis_f64());
    }

    #[test]
    fn nr_active_power_is_2_to_3x_lte() {
        let r = RadioPower::paper_nr_nsa().active.milliwatts()
            / RadioPower::paper_lte().active.milliwatts();
        assert!((2.0..3.0).contains(&r), "ratio {r}");
    }

    #[test]
    fn nr_power_exceeds_screen_by_about_1_8x() {
        let nr = RadioPower::paper_nr_nsa().active.milliwatts();
        let screen = ComponentPower::paper(0.0).screen.milliwatts();
        let r = nr / screen;
        assert!((1.5..2.2).contains(&r), "ratio {r}");
    }

    #[test]
    fn energy_per_bit_ratio_about_a_quarter() {
        // Fig. 22: at saturation 5G spends ≈¼–⅓ of 4G's energy per bit.
        let nr = RadioPower::paper_nr_nsa().active.watts() / 880e6;
        let lte = RadioPower::paper_lte().active.watts() / 130e6;
        let ratio = nr / lte;
        assert!((0.2..0.4).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn tail_average_between_sleep_and_on() {
        let p = RadioPower::paper_nr_nsa();
        let d = DrxParams::paper_nr_nsa();
        let avg = p.tail_average(&d).milliwatts();
        assert!(avg > p.cdrx_sleep.milliwatts());
        assert!(avg < p.cdrx_on.milliwatts());
        // ~3 % duty on a 320 ms cycle: close to the sleep floor.
        assert!(avg < 1_100.0, "{avg}");
    }
}
