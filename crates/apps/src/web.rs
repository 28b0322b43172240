//! Mobile web browsing model (Figs. 16–17).
//!
//! Page-load time decomposes into *content downloading* (transport-
//! limited) and *page rendering* (device-limited). The paper measured
//! five page categories on a laptop over HTTP/2 + BBR, clearing caches
//! between loads, and found (i) rendering dominates PLT, and (ii) even
//! the download part gains only ≈20 % from 5G because pages finish
//! inside TCP's startup transient.

use fiveg_net::path::PathConfig;
use fiveg_net::NetSim;
use fiveg_simcore::{Dist, SimDuration, SimRng, SimTime};
use fiveg_transport::{CcAlgorithm, TcpSender};
use serde::Serialize;

/// The paper's five page categories (Fig. 16).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum PageCategory {
    /// Web search result pages.
    Search,
    /// Image-heavy pages.
    Image,
    /// On-line shopping.
    Shopping,
    /// Map navigation.
    Map,
    /// HTTP video-streaming landing pages.
    Video,
}

impl PageCategory {
    /// All categories in the paper's presentation order.
    pub const ALL: [PageCategory; 5] = [
        PageCategory::Search,
        PageCategory::Image,
        PageCategory::Shopping,
        PageCategory::Map,
        PageCategory::Video,
    ];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            PageCategory::Search => "Search",
            PageCategory::Image => "Image",
            PageCategory::Shopping => "Shopping",
            PageCategory::Map => "Map",
            PageCategory::Video => "Video",
        }
    }

    /// Page payload size distribution, megabytes. "Most web pages are
    /// only a few MB" (Sec. 5.1).
    pub fn size_mb(self) -> Dist {
        match self {
            PageCategory::Search => Dist::Uniform { lo: 0.4, hi: 1.2 },
            PageCategory::Image => Dist::Uniform { lo: 2.0, hi: 6.0 },
            PageCategory::Shopping => Dist::Uniform { lo: 2.5, hi: 6.5 },
            PageCategory::Map => Dist::Uniform { lo: 3.0, hi: 8.0 },
            PageCategory::Video => Dist::Uniform { lo: 4.0, hi: 10.0 },
        }
    }

    /// Render-time model: fixed layout/script cost plus per-megabyte
    /// decode/raster cost, seconds. Calibrated so category PLTs land on
    /// Fig. 16's 1–5.5 s range with rendering the dominant share.
    pub fn render_seconds(self, size_mb: f64) -> f64 {
        let (base, per_mb) = match self {
            PageCategory::Search => (0.55, 0.22),
            PageCategory::Image => (0.9, 0.28),
            PageCategory::Shopping => (1.3, 0.30),
            PageCategory::Map => (1.7, 0.32),
            PageCategory::Video => (1.9, 0.33),
        };
        base + per_mb * size_mb
    }
}

/// A web page to load.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct WebPage {
    /// Category (drives the render model).
    pub category: PageCategory,
    /// Payload size, bytes.
    pub size_bytes: u64,
}

impl WebPage {
    /// Samples a page of the given category.
    pub fn sample(category: PageCategory, rng: &mut SimRng) -> WebPage {
        let mb = category.size_mb().sample(rng).max(0.1);
        WebPage {
            category,
            size_bytes: (mb * 1e6) as u64,
        }
    }
}

/// The image-size sweep of Fig. 17 (pages dominated by one image of
/// 1/2/4/8/16 MB).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ImagePage {
    /// Image size, megabytes (the paper sweeps 1–16).
    pub image_mb: u64,
}

impl ImagePage {
    /// The page as a loadable unit: image plus ~200 kB of scaffolding.
    pub fn page(self) -> WebPage {
        WebPage {
            category: PageCategory::Image,
            size_bytes: self.image_mb * 1_000_000 + 200_000,
        }
    }

    /// Render time: image decode/raster scales with pixels ≈ bytes.
    pub fn render_seconds(self) -> f64 {
        0.35 + 0.11 * self.image_mb as f64
    }
}

/// One page-load measurement.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct PageLoadResult {
    /// Content downloading time.
    pub download: SimDuration,
    /// Page rendering time.
    pub render: SimDuration,
}

impl PageLoadResult {
    /// Total page-load time.
    #[cfg(test)]
    fn plt(&self) -> SimDuration {
        self.download + self.render
    }
}

/// Downloads `page` over `path` with the given congestion control
/// (paper methodology: HTTP/2 single connection + BBR) and applies the
/// render model. Returns `None` if the download does not finish within
/// `deadline`.
pub fn load_page(
    page: WebPage,
    path: PathConfig,
    cross: Option<fiveg_net::CrossTraffic>,
    alg: CcAlgorithm,
    render_seconds: f64,
    seed: u64,
    deadline: SimDuration,
) -> Option<PageLoadResult> {
    let mut sim = NetSim::new(path, seed);
    if let Some(ct) = cross {
        sim.add_cross_traffic(ct);
    }
    let (sender, _report) = TcpSender::new(alg, Some(page.size_bytes));
    let flow = sim.add_flow(Box::new(sender), true, false);
    let done = sim.run_until_delivered(flow, page.size_bytes, SimTime::ZERO + deadline)?;
    Some(PageLoadResult {
        download: done.since(SimTime::ZERO),
        render: SimDuration::from_secs_f64(render_seconds),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fiveg_net::path::{Direction, PaperPathParams};

    fn load(page: WebPage, params: &PaperPathParams, render: f64, seed: u64) -> PageLoadResult {
        let path = PathConfig::paper(params, Direction::Downlink);
        let cross = path.paper_cross_traffic();
        load_page(
            page,
            path,
            Some(cross),
            CcAlgorithm::Bbr,
            render,
            seed,
            SimDuration::from_secs(60),
        )
        .expect("page loads within a minute")
    }

    #[test]
    fn page_sampling_in_range() {
        let mut rng = SimRng::new(1);
        for cat in PageCategory::ALL {
            for _ in 0..50 {
                let p = WebPage::sample(cat, &mut rng);
                assert!(p.size_bytes >= 100_000, "{cat:?} too small");
                assert!(p.size_bytes <= 12_000_000, "{cat:?} too large");
            }
        }
    }

    #[test]
    fn rendering_dominates_plt() {
        // Fig. 17's first cause: rendering takes the dominant fraction.
        let page = WebPage {
            category: PageCategory::Shopping,
            size_bytes: 4_000_000,
        };
        let render = PageCategory::Shopping.render_seconds(4.0);
        let r = load(page, &PaperPathParams::nr_day(), render, 2);
        assert!(
            r.render > r.download,
            "render {} dl {}",
            r.render,
            r.download
        );
    }

    #[test]
    fn fiveg_gains_little_plt() {
        // Fig. 16: ≈5 % PLT reduction despite 5× throughput.
        let page = WebPage {
            category: PageCategory::Image,
            size_bytes: 3_000_000,
        };
        let render = PageCategory::Image.render_seconds(3.0);
        let nr = load(page, &PaperPathParams::nr_day(), render, 3);
        let lte = load(page, &PaperPathParams::lte_day(), render, 3);
        let gain = 1.0 - nr.plt().as_secs_f64() / lte.plt().as_secs_f64();
        assert!(gain < 0.35, "PLT gain {gain}");
        assert!(nr.plt() <= lte.plt());
    }

    #[test]
    fn download_gain_is_modest_for_short_flows() {
        // Fig. 17's second cause: short flows end inside the startup
        // transient, so even pure download time gains far less than the
        // 5× capacity ratio.
        let page = WebPage {
            category: PageCategory::Image,
            size_bytes: 2_000_000,
        };
        let nr = load(page, &PaperPathParams::nr_day(), 0.0, 4);
        let lte = load(page, &PaperPathParams::lte_day(), 0.0, 4);
        let speedup = lte.download.as_secs_f64() / nr.download.as_secs_f64();
        assert!(
            speedup < 4.0,
            "2 MB download sped up {speedup}x (capacity ratio is 6.8x)"
        );
    }

    #[test]
    fn bigger_images_download_longer() {
        let mut prev = SimDuration::ZERO;
        for mb in [1u64, 4, 16] {
            let ip = ImagePage { image_mb: mb };
            let r = load(
                ip.page(),
                &PaperPathParams::nr_day(),
                ip.render_seconds(),
                5,
            );
            assert!(r.download >= prev, "{mb} MB not slower");
            prev = r.download;
        }
    }

    #[test]
    fn category_plts_in_paper_band() {
        // Fig. 16: category means between ~1 s and ~6 s.
        let mut rng = SimRng::new(7);
        for cat in PageCategory::ALL {
            let p = WebPage::sample(cat, &mut rng);
            let render = cat.render_seconds(p.size_bytes as f64 / 1e6);
            let r = load(p, &PaperPathParams::nr_day(), render, 8);
            let plt = r.plt().as_secs_f64();
            assert!((0.5..7.0).contains(&plt), "{cat:?} PLT {plt}");
        }
    }
}
