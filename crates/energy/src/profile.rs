//! Application power breakdowns (Fig. 21) and energy-per-bit (Fig. 22).

use crate::machine::{Burst, RadioStateMachine};
use crate::params::{ComponentPower, RadioModel};
use fiveg_simcore::{Power, SimTime};
use serde::Serialize;

/// The four daily applications of Fig. 21.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum AppKind {
    /// Google-Chrome-style browser.
    Browser,
    /// Streaming video player.
    Player,
    /// Cloud game (Arrow.io).
    Game,
    /// Bulk file downloader.
    Download,
}

impl AppKind {
    /// All apps in the figure's order.
    pub const ALL: [AppKind; 4] = [
        AppKind::Browser,
        AppKind::Player,
        AppKind::Game,
        AppKind::Download,
    ];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            AppKind::Browser => "Browser",
            AppKind::Player => "Player",
            AppKind::Game => "Game",
            AppKind::Download => "Download",
        }
    }

    /// Application compute power (CPU/GPU), mW.
    pub fn app_power_mw(self) -> f64 {
        match self {
            AppKind::Browser => 600.0,
            AppKind::Player => 900.0,
            AppKind::Game => 1_500.0,
            AppKind::Download => 250.0,
        }
    }

    /// Traffic trace over a session of `secs` seconds: bursts whose
    /// spacing and size reflect the app's intensity.
    pub fn bursts(self, secs: u64, radio_rate_mbps: f64) -> Vec<Burst> {
        let mut out = Vec::new();
        match self {
            // A page load every 3 s.
            AppKind::Browser => {
                let mut t = 0;
                while t < secs * 1000 {
                    out.push(Burst {
                        at: SimTime::from_millis(t),
                        bytes: 2_000_000,
                        peak_rate_mbps: 20.0,
                    });
                    t += 3_000;
                }
            }
            // Streaming: a 4 s chunk of a 8 Mbps stream every 4 s.
            AppKind::Player => {
                let mut t = 0;
                while t < secs * 1000 {
                    out.push(Burst {
                        at: SimTime::from_millis(t),
                        bytes: 4_000_000,
                        peak_rate_mbps: 30.0,
                    });
                    t += 4_000;
                }
            }
            // Cloud game: continuous small exchanges every 100 ms.
            AppKind::Game => {
                let mut t = 0;
                while t < secs * 1000 {
                    out.push(Burst {
                        at: SimTime::from_millis(t),
                        bytes: 60_000,
                        peak_rate_mbps: 8.0,
                    });
                    t += 100;
                }
            }
            // Saturated download: one burst sized to keep the radio busy
            // for the whole session.
            AppKind::Download => {
                out.push(Burst {
                    at: SimTime::ZERO,
                    bytes: (radio_rate_mbps * 1e6 / 8.0 * secs as f64) as u64,
                    peak_rate_mbps: radio_rate_mbps,
                });
            }
        }
        out
    }
}

/// Fig. 21-style session power breakdown, mW averages over the session.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct PowerBreakdown {
    /// Android system baseline.
    pub system: Power,
    /// Screen at full brightness.
    pub screen: Power,
    /// Application compute.
    pub app: Power,
    /// Radio module (4G or 5G), averaged over the session.
    pub radio: Power,
}

impl PowerBreakdown {
    /// Total phone power.
    pub fn total(&self) -> Power {
        self.system + self.screen + self.app + self.radio
    }

    /// The radio's share of the total.
    #[cfg(test)]
    fn radio_share(&self) -> f64 {
        self.radio.milliwatts() / self.total().milliwatts()
    }
}

/// Computes the Fig. 21 breakdown: mean power by component while running
/// `app` for `secs` seconds on `radio`.
pub fn app_session_breakdown(app: AppKind, radio: &RadioModel, secs: u64) -> PowerBreakdown {
    let comps = ComponentPower::paper(app.app_power_mw());
    let bursts = app.bursts(secs, radio.rate_mbps);
    let trace = RadioStateMachine::new(*radio).replay(&bursts);
    // Average the radio over the nominal session length (all apps run
    // for the same wall time in Fig. 21).
    let session = SimTime::from_secs(secs);
    let radio_avg = trace.mean_power_until(session.max(trace.idle_at));
    PowerBreakdown {
        system: comps.system,
        screen: comps.screen,
        app: comps.app,
        radio: radio_avg,
    }
}

/// Fig. 22: energy per bit for a saturated transfer of `secs` seconds —
/// fixed promotion/tail overheads amortise as the transfer grows.
pub fn energy_per_bit(radio: &RadioModel, secs: f64) -> f64 {
    let bytes = (radio.rate_mbps * 1e6 / 8.0 * secs) as u64;
    let trace = RadioStateMachine::new(*radio).replay(&[Burst {
        at: SimTime::ZERO,
        bytes,
        peak_rate_mbps: radio.rate_mbps,
    }]);
    let bits = bytes as f64 * 8.0;
    trace.energy.micro_joules_per_bit(bits)
}

/// Convenience: run the transfer-duration sweep of Fig. 22.
pub fn energy_per_bit_sweep(radio: &RadioModel, secs: &[f64]) -> Vec<(f64, f64)> {
    secs.iter()
        .map(|&s| (s, energy_per_bit(radio, s)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fiveg_radio_dominates_the_budget() {
        // Fig. 21: the 5G module ≈55 % of the budget on average across
        // the four apps, exceeding the screen.
        let mut shares = Vec::new();
        for app in AppKind::ALL {
            let b = app_session_breakdown(app, &RadioModel::nr_nsa_day(), 60);
            shares.push(b.radio_share());
        }
        let mean = shares.iter().sum::<f64>() / shares.len() as f64;
        assert!((0.25..0.65).contains(&mean), "mean 5G radio share {mean}");
        // Download (saturated) must exceed the screen's draw.
        let dl = app_session_breakdown(AppKind::Download, &RadioModel::nr_nsa_day(), 60);
        assert!(dl.radio.milliwatts() > dl.screen.milliwatts());
    }

    #[test]
    fn fourg_radio_share_is_smaller() {
        // Fig. 21: 4G accounts for 24–50 %.
        for app in AppKind::ALL {
            let b5 = app_session_breakdown(app, &RadioModel::nr_nsa_day(), 60);
            let b4 = app_session_breakdown(app, &RadioModel::lte_day(), 60);
            assert!(
                b4.radio.milliwatts() < b5.radio.milliwatts(),
                "{app:?}: 4G {} vs 5G {}",
                b4.radio,
                b5.radio
            );
            assert!((0.05..0.52).contains(&b4.radio_share()), "{app:?}");
        }
    }

    #[test]
    fn total_power_rises_with_traffic_intensity() {
        let radio = RadioModel::nr_nsa_day();
        let browser = app_session_breakdown(AppKind::Browser, &radio, 60);
        let download = app_session_breakdown(AppKind::Download, &radio, 60);
        assert!(download.radio.milliwatts() > browser.radio.milliwatts());
    }

    #[test]
    fn energy_per_bit_decays_with_duration() {
        let radio = RadioModel::nr_nsa_day();
        let sweep = energy_per_bit_sweep(&radio, &[5.0, 10.0, 20.0, 50.0]);
        for w in sweep.windows(2) {
            assert!(w[1].1 < w[0].1, "not decaying: {sweep:?}");
        }
    }

    #[test]
    fn fiveg_energy_per_bit_is_fraction_of_4g() {
        // Fig. 22: ≈¼–⅓ at long transfers.
        let nr = energy_per_bit(&RadioModel::nr_nsa_day(), 50.0);
        let lte = energy_per_bit(&RadioModel::lte_day(), 50.0);
        let ratio = nr / lte;
        assert!((0.2..0.45).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn breakdown_components_sum() {
        let b = app_session_breakdown(AppKind::Game, &RadioModel::lte_day(), 30);
        let sum = b.system.milliwatts()
            + b.screen.milliwatts()
            + b.app.milliwatts()
            + b.radio.milliwatts();
        assert!((b.total().milliwatts() - sum).abs() < 1e-9);
        assert!(b.radio_share() > 0.0 && b.radio_share() < 1.0);
    }
}
