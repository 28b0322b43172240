//! Energy experiments: Fig. 21, Fig. 22, Fig. 23, Tab. 4.

use crate::report;
use fiveg_energy::{
    app_session_breakdown, energy_per_bit_sweep, replay_energy, AppKind, Burst, RadioModel,
    RadioStateMachine, Strategy, TrafficTrace,
};
use fiveg_simcore::SimTime;
use serde::Serialize;

/// Fig. 21: component power per app and tech.
#[derive(Debug, Clone, Serialize)]
pub struct Fig21 {
    /// `(app, tech, system mW, screen mW, app mW, radio mW)`.
    pub rows: Vec<(String, String, f64, f64, f64, f64)>,
}

impl Fig21 {
    /// Mean 5G radio share of the total budget.
    pub fn mean_5g_share(&self) -> f64 {
        let shares: Vec<f64> = self
            .rows
            .iter()
            .filter(|(_, t, ..)| t == "5G")
            .map(|&(.., sy, sc, ap, ra)| ra / (sy + sc + ap + ra))
            .collect();
        shares.iter().sum::<f64>() / shares.len().max(1) as f64
    }

    /// Renders the figure.
    pub fn to_text(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|(a, t, sy, sc, ap, ra)| {
                vec![
                    a.clone(),
                    t.clone(),
                    format!("{sy:.0}"),
                    format!("{sc:.0}"),
                    format!("{ap:.0}"),
                    format!("{ra:.0}"),
                    format!("{:.0}", sy + sc + ap + ra),
                ]
            })
            .collect();
        let mut s = report::table(
            "Fig. 21: session power breakdown (mW)",
            &["app", "tech", "system", "screen", "app", "radio", "total"],
            &rows,
        );
        s += &report::compare(
            "mean 5G radio share",
            crate::calib::PAPER_5G_RADIO_SHARE * 100.0,
            self.mean_5g_share() * 100.0,
            "%",
        );
        s.push('\n');
        s
    }
}

/// Runs Fig. 21 over the four apps and both radios.
pub fn fig21(session_secs: u64) -> Fig21 {
    let mut rows = Vec::new();
    for app in AppKind::ALL {
        for (tech, radio) in [
            ("4G", RadioModel::lte_day()),
            ("5G", RadioModel::nr_nsa_day()),
        ] {
            let b = app_session_breakdown(app, &radio, session_secs);
            rows.push((
                app.label().to_owned(),
                tech.to_owned(),
                b.system.milliwatts(),
                b.screen.milliwatts(),
                b.app.milliwatts(),
                b.radio.milliwatts(),
            ));
        }
    }
    Fig21 { rows }
}

/// Fig. 22: energy-per-bit vs transfer duration.
#[derive(Debug, Clone, Serialize)]
pub struct Fig22 {
    /// `(secs, uJ/bit)` for 4G.
    pub lte: Vec<(f64, f64)>,
    /// `(secs, uJ/bit)` for 5G.
    pub nr: Vec<(f64, f64)>,
}

impl Fig22 {
    /// The long-transfer energy-per-bit ratio 5G / 4G.
    pub fn asymptotic_ratio(&self) -> f64 {
        let last = |v: &[(f64, f64)]| v.last().map_or(f64::NAN, |&(_, e)| e);
        last(&self.nr) / last(&self.lte)
    }

    /// Renders the figure.
    pub fn to_text(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .lte
            .iter()
            .zip(&self.nr)
            .map(|(&(s, e4), &(_, e5))| {
                vec![
                    format!("{s:.0}"),
                    format!("{:.4}", e4),
                    format!("{:.4}", e5),
                ]
            })
            .collect();
        let mut s = report::table(
            "Fig. 22: energy per bit (uJ/bit) vs transfer time",
            &["secs", "4G", "5G"],
            &rows,
        );
        s += &format!(
            "asymptotic 5G/4G energy-per-bit ratio: {:.2} (paper: ≈0.25)\n",
            self.asymptotic_ratio()
        );
        s
    }
}

/// Runs Fig. 22 over the paper's 5–50 s sweep.
pub fn fig22() -> Fig22 {
    let secs = [5.0, 10.0, 20.0, 30.0, 40.0, 50.0];
    Fig22 {
        lte: energy_per_bit_sweep(&RadioModel::lte_day(), &secs),
        nr: energy_per_bit_sweep(&RadioModel::nr_nsa_day(), &secs),
    }
}

/// Fig. 23: the pwrStrip power trace for 10 web loads 3 s apart.
#[derive(Debug, Clone, Serialize)]
pub struct Fig23 {
    /// `(t_s, power_mW)` for the 5G radio.
    pub trace_5g: Vec<(f64, f64)>,
    /// `(t_s, power_mW)` for the 4G radio.
    pub trace_4g: Vec<(f64, f64)>,
    /// Seconds after the last transfer until the 4G radio reached idle.
    pub tail_4g_s: f64,
    /// Seconds after the last transfer until the 5G radio reached idle.
    pub tail_5g_s: f64,
    /// Session energy, J (4G, 5G).
    pub energy_j: (f64, f64),
}

impl Fig23 {
    /// Renders the figure.
    pub fn to_text(&self) -> String {
        format!(
            "== Fig. 23: web-loading power trace ==\n\
             4G energy {:.1} J, tail {:.1} s after last transfer (paper ≈10 s)\n\
             5G energy {:.1} J, tail {:.1} s after last transfer (paper ≈20 s)\n\
             5G/4G session energy ratio {:.2} (paper 1.67)\n",
            self.energy_j.0,
            self.tail_4g_s,
            self.energy_j.1,
            self.tail_5g_s,
            self.energy_j.1 / self.energy_j.0,
        )
    }
}

/// Runs Fig. 23: a web page load every 3 s for 10 loads starting at 10 s
/// (the paper's t1 = 10 s, t3 = 40 s showcase).
pub fn fig23() -> Fig23 {
    let bursts: Vec<Burst> = (0..10)
        .map(|i| Burst {
            at: SimTime::from_millis(10_000 + i * 3_000),
            bytes: 2_000_000,
            peak_rate_mbps: 20.0,
        })
        .collect();
    let run = |radio: RadioModel| {
        let tr = RadioStateMachine::new(radio).replay(&bursts);
        let series: Vec<(f64, f64)> = tr
            .series
            .iter()
            .map(|(t, p)| (t.as_secs_f64(), p))
            .collect();
        // End of the last Active interval.
        let last_active = tr
            .intervals
            .iter()
            .filter(|(s, ..)| *s == fiveg_energy::RadioState::Active)
            .map(|&(_, _, e)| e)
            .max()
            // A burst schedule with no Active interval (empty replay)
            // has no tail: idle since "now".
            .unwrap_or(tr.idle_at);
        let tail = tr.idle_at.since(last_active).as_secs_f64();
        (series, tail, tr.energy.joules())
    };
    let (trace_4g, tail_4g_s, e4) = run(RadioModel::lte_day());
    let (trace_5g, tail_5g_s, e5) = run(RadioModel::nr_nsa_day());
    Fig23 {
        trace_5g,
        trace_4g,
        tail_4g_s,
        tail_5g_s,
        energy_j: (e4, e5),
    }
}

/// Tab. 4: strategy × workload energy matrix.
#[derive(Debug, Clone, Serialize)]
pub struct Table4 {
    /// `(workload, strategy, joules)`.
    pub cells: Vec<(String, String, f64)>,
}

impl Table4 {
    /// Looks up one cell.
    pub fn get(&self, workload: &str, strategy: &str) -> f64 {
        self.cells
            .iter()
            .find(|(w, s, _)| w == workload && s == strategy)
            .map_or(f64::NAN, |&(.., j)| j)
    }

    /// Renders the table with the paper's values.
    pub fn to_text(&self) -> String {
        let paper = |w: &str, i: usize| -> f64 {
            match w {
                "Web" => crate::calib::PAPER_TAB4_WEB[i],
                "Video" => crate::calib::PAPER_TAB4_VIDEO[i],
                _ => crate::calib::PAPER_TAB4_FILE[i],
            }
        };
        let strategies = ["LTE", "NR NSA", "NR Oracle", "Dyn. switch"];
        let mut rows = Vec::new();
        for (i, s) in strategies.iter().enumerate() {
            let mut row = vec![s.to_string()];
            for w in ["Web", "Video", "File"] {
                row.push(format!("{:.1} ({:.1})", self.get(w, s), paper(w, i)));
            }
            rows.push(row);
        }
        let mut out = report::table(
            "Table 4: energy (J) per model — measured (paper)",
            &["model", "Web", "Video", "File"],
            &rows,
        );
        let dyn_saving = 1.0 - self.get("Web", "Dyn. switch") / self.get("Web", "NR NSA");
        out += &report::compare(
            "dynamic web saving vs NSA",
            crate::calib::PAPER_DYNAMIC_WEB_SAVING * 100.0,
            dyn_saving * 100.0,
            "%",
        );
        out.push('\n');
        out
    }
}

/// Runs Tab. 4.
pub fn table4() -> Table4 {
    let mut cells = Vec::new();
    for trace in TrafficTrace::paper_all() {
        for s in Strategy::ALL {
            cells.push((
                trace.name.to_owned(),
                s.label().to_owned(),
                replay_energy(&trace, s).joules(),
            ));
        }
    }
    Table4 { cells }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig21_shares() {
        let f = fig21(60);
        assert_eq!(f.rows.len(), 8);
        let share = f.mean_5g_share();
        assert!((0.2..0.7).contains(&share), "5G share {share}");
        // 5G radio > 4G radio for every app.
        for app in ["Browser", "Player", "Game", "Download"] {
            let radio = |tech: &str| {
                f.rows
                    .iter()
                    .find(|(a, t, ..)| a == app && t == tech)
                    .map(|&(.., r)| r)
                    .unwrap()
            };
            assert!(radio("5G") > radio("4G"), "{app}");
        }
    }

    #[test]
    fn fig22_ratio() {
        let f = fig22();
        let r = f.asymptotic_ratio();
        assert!((0.2..0.45).contains(&r), "ratio {r}");
        // Decaying curves.
        assert!(f.nr.windows(2).all(|w| w[1].1 <= w[0].1));
    }

    #[test]
    fn fig23_tails_match_paper() {
        let f = fig23();
        assert!(
            (9.0..13.0).contains(&f.tail_4g_s),
            "4G tail {}",
            f.tail_4g_s
        );
        assert!(
            (19.0..24.0).contains(&f.tail_5g_s),
            "5G tail {}",
            f.tail_5g_s
        );
        let ratio = f.energy_j.1 / f.energy_j.0;
        assert!((1.2..3.2).contains(&ratio), "energy ratio {ratio}");
        assert!(!f.trace_5g.is_empty() && !f.trace_4g.is_empty());
    }

    #[test]
    fn table4_orderings() {
        let t = table4();
        // Web: dynamic ≈ LTE < NSA.
        assert!(t.get("Web", "Dyn. switch") < t.get("Web", "NR NSA"));
        // Video/File: LTE is the most expensive.
        for w in ["Video", "File"] {
            assert!(t.get(w, "LTE") > t.get(w, "NR NSA"), "{w}");
            assert!(t.get(w, "NR Oracle") < t.get(w, "NR NSA"), "{w}");
        }
        assert!(!t.to_text().is_empty());
    }
}
