//! Carrier configurations.
//!
//! Tab. 1 of the paper: the 4G network runs on LTE band 3 (downlink
//! 1840–1860 MHz, FDD, 20 MHz) and the 5G network on NR band n78
//! (3500–3600 MHz, TDD with a 3:1 downlink:uplink slot ratio, 100 MHz).

use fiveg_simcore::{Bandwidth, BitRate, Dbm, Frequency};
use serde::Serialize;

/// Radio access technology generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum Tech {
    /// 4G LTE.
    Lte,
    /// 5G New Radio (sub-6 GHz, NSA).
    Nr,
}

impl Tech {
    /// Human-readable name as used in the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            Tech::Lte => "4G",
            Tech::Nr => "5G",
        }
    }
}

/// Duplexing scheme.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum Duplex {
    /// Frequency-division duplexing: full bandwidth in each direction.
    Fdd,
    /// Time-division duplexing with the given downlink slot fraction.
    Tdd {
        /// Fraction of slots assigned to the downlink (paper ISP: 3:1 → 0.75).
        dl_fraction: f64,
    },
}

/// A carrier configuration — everything the bitrate and measurement
/// models need to know about the air interface.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Carrier {
    /// Technology generation.
    pub tech: Tech,
    /// Downlink centre frequency.
    pub freq: Frequency,
    /// Channel bandwidth.
    pub bandwidth: Bandwidth,
    /// Duplexing scheme.
    pub duplex: Duplex,
    /// Subcarrier spacing in Hz (LTE: 15 kHz; NR n78: 30 kHz).
    pub subcarrier_spacing_hz: f64,
    /// Number of physical resource blocks in the channel.
    pub num_prbs: u32,
    /// Total transmit power of one sector.
    pub tx_power: Dbm,
    /// Effective antenna + beamforming gain applied to reference signals, dB.
    pub ref_signal_gain_db: f64,
    /// Peak downlink PHY bitrate with every PRB and the top MCS
    /// (paper Sec. 4.1: 1200.98 Mbps for the NR cell, implied ≈206 Mbps
    /// for the LTE cell).
    pub max_phy_dl: BitRate,
    /// Receiver noise figure, dB.
    pub noise_figure_db: f64,
}

impl Carrier {
    /// The paper ISP's LTE band-3 carrier.
    pub fn lte_b3() -> Carrier {
        Carrier {
            tech: Tech::Lte,
            freq: Frequency::from_mhz(1850.0),
            bandwidth: Bandwidth::from_mhz(20.0),
            duplex: Duplex::Fdd,
            subcarrier_spacing_hz: 15_000.0,
            num_prbs: 100,
            tx_power: Dbm::new(39.0), // ~8 W per-CRS-port macro sector
            // Effective gain on the cell-specific reference signals;
            // low because CRS are wide-beam. Calibrated with the clutter
            // line so the road-survey mean RSRP lands at the paper's
            // −84.8 dBm (Tab. 1) and the −105 dBm edge at ≈520 m.
            ref_signal_gain_db: 4.0,
            max_phy_dl: BitRate::from_mbps(206.0),
            noise_figure_db: 7.0,
        }
    }

    /// The paper ISP's NR n78 carrier (3.5 GHz, 100 MHz, TDD 3:1).
    pub fn nr_n78() -> Carrier {
        Carrier {
            tech: Tech::Nr,
            freq: Frequency::from_mhz(3550.0),
            bandwidth: Bandwidth::from_mhz(100.0),
            duplex: Duplex::Tdd { dl_fraction: 0.75 },
            subcarrier_spacing_hz: 30_000.0,
            num_prbs: 273,
            tx_power: Dbm::new(53.0), // ~200 W massive-MIMO sector
            // RSRP is measured on beam-swept SSBs, which carry the full
            // massive-MIMO array gain — that is why operational 5G shows
            // the same mean RSRP as 4G (Tab. 1: −84.0 vs −84.8 dBm)
            // despite the much harsher 3.5 GHz propagation.
            ref_signal_gain_db: 26.0,
            max_phy_dl: BitRate::from_mbps(1200.98),
            noise_figure_db: 7.0,
        }
    }

    /// Number of subcarriers (resource elements per symbol).
    pub fn num_subcarriers(&self) -> u32 {
        self.num_prbs * 12
    }

    /// Transmit power per resource element, dBm — the quantity RSRP
    /// measures at the receiver after propagation loss.
    pub fn tx_power_per_re(&self) -> Dbm {
        let total_mw = self.tx_power.to_milliwatts().milliwatts();
        Dbm::from_milliwatts(fiveg_simcore::Power::from_milliwatts(
            total_mw / self.num_subcarriers() as f64,
        ))
    }

    /// Thermal noise power in one resource element's bandwidth, dBm,
    /// including the receiver noise figure: `-174 + 10·log10(Δf) + NF`.
    pub fn noise_per_re(&self) -> Dbm {
        Dbm::new(-174.0 + 10.0 * self.subcarrier_spacing_hz.log10() + self.noise_figure_db)
    }

    /// Peak downlink bitrate scaled by the fraction of PRBs allocated.
    pub fn dl_rate_at_peak_mcs(&self, prb_fraction: f64) -> BitRate {
        self.max_phy_dl * prb_fraction.clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_band_parameters() {
        let lte = Carrier::lte_b3();
        assert_eq!(lte.tech, Tech::Lte);
        assert_eq!(lte.freq.mhz(), 1850.0);
        assert_eq!(lte.bandwidth.mhz(), 20.0);
        assert_eq!(lte.num_prbs, 100);

        let nr = Carrier::nr_n78();
        assert_eq!(nr.tech, Tech::Nr);
        assert_eq!(nr.freq.mhz(), 3550.0);
        assert_eq!(nr.bandwidth.mhz(), 100.0);
        assert_eq!(nr.num_prbs, 273);
        assert!((nr.max_phy_dl.mbps() - 1200.98).abs() < 1e-9);
    }

    #[test]
    fn per_re_power_is_total_minus_subcarrier_count() {
        let nr = Carrier::nr_n78();
        let per_re = nr.tx_power_per_re().value();
        let expect = 53.0 - 10.0 * (273.0f64 * 12.0).log10();
        assert!((per_re - expect).abs() < 1e-9, "{per_re} vs {expect}");
    }

    #[test]
    fn noise_floor_values() {
        let nr = Carrier::nr_n78();
        // -174 + 10log10(30k) + 7 = -122.2 dBm.
        assert!((nr.noise_per_re().value() + 122.2).abs() < 0.1);
        let lte = Carrier::lte_b3();
        assert!((lte.noise_per_re().value() + 125.2).abs() < 0.1);
    }

    #[test]
    fn prb_scaling() {
        let nr = Carrier::nr_n78();
        assert_eq!(nr.dl_rate_at_peak_mcs(0.5).bps(), nr.max_phy_dl.bps() * 0.5);
        assert_eq!(nr.dl_rate_at_peak_mcs(2.0).bps(), nr.max_phy_dl.bps());
    }
}
