//! The paper's 20 nationwide SPEEDTEST servers (Tab. 6 / Appendix C),
//! used as the workload for the end-to-end latency study (Sec. 4.4).

use serde::Serialize;

/// One remote measurement server.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Server {
    /// SPEEDTEST server id.
    pub id: u32,
    /// Server name.
    pub name: &'static str,
    /// Host city.
    pub city: &'static str,
    /// Latitude, degrees.
    pub lat: f64,
    /// Longitude, degrees.
    pub lon: f64,
    /// Great-circle distance from the measurement campus, km.
    pub distance_km: f64,
}

/// The paper's Tab. 6, verbatim.
pub const PAPER_SERVERS: [Server; 20] = [
    Server {
        id: 5145,
        name: "Beijing Unicom",
        city: "Beijing",
        lat: 39.9289,
        lon: 116.3883,
        distance_km: 1.67,
    },
    Server {
        id: 27154,
        name: "China Unicom 5G",
        city: "Tianjin",
        lat: 39.1422,
        lon: 117.1767,
        distance_km: 111.65,
    },
    Server {
        id: 5039,
        name: "China Unicom Jinan Branch",
        city: "Jinan",
        lat: 36.6683,
        lon: 116.9972,
        distance_km: 366.42,
    },
    Server {
        id: 25728,
        name: "China Mobile Liaoning Branch Dalian",
        city: "Dalian",
        lat: 38.9128,
        lon: 121.4989,
        distance_km: 462.77,
    },
    Server {
        id: 27100,
        name: "Shandong CMCC 5G",
        city: "Qingdao",
        lat: 36.1748,
        lon: 120.4284,
        distance_km: 553.80,
    },
    Server {
        id: 5396,
        name: "China Telecom Jiangsu 5G",
        city: "Suzhou",
        lat: 31.3566,
        lon: 120.4682,
        distance_km: 638.00,
    },
    Server {
        id: 16375,
        name: "China Mobile Jilin",
        city: "Changchun",
        lat: 43.7914,
        lon: 125.4784,
        distance_km: 859.32,
    },
    Server {
        id: 5724,
        name: "China Unicom",
        city: "Hefei",
        lat: 31.8639,
        lon: 117.2808,
        distance_km: 900.06,
    },
    Server {
        id: 5485,
        name: "China Unicom Hubei Branch",
        city: "Wuhan",
        lat: 30.5801,
        lon: 114.2734,
        distance_km: 1056.52,
    },
    Server {
        id: 4690,
        name: "China Unicom Lanzhou Branch Co.Ltd",
        city: "Lanzhou",
        lat: 36.0564,
        lon: 103.7922,
        distance_km: 1183.99,
    },
    Server {
        id: 6715,
        name: "China Mobile Zhejiang 5G",
        city: "Ningbo",
        lat: 29.8573,
        lon: 121.6323,
        distance_km: 1213.23,
    },
    Server {
        id: 4870,
        name: "Changsha Hunan Unicom Server1",
        city: "Changsha",
        lat: 28.1792,
        lon: 113.1136,
        distance_km: 1341.73,
    },
    Server {
        id: 5530,
        name: "CCN",
        city: "Chongqing",
        lat: 29.5628,
        lon: 106.5528,
        distance_km: 1459.16,
    },
    Server {
        id: 4884,
        name: "China Unicom Fujian",
        city: "Fuzhou",
        lat: 26.0614,
        lon: 119.3061,
        distance_km: 1563.93,
    },
    Server {
        id: 16398,
        name: "China Mobile Guizhou",
        city: "Guiyang",
        lat: 26.6639,
        lon: 106.6779,
        distance_km: 1730.12,
    },
    Server {
        id: 26678,
        name: "Guangzhou Unicom 5G",
        city: "Guangzhou",
        lat: 23.1167,
        lon: 113.25,
        distance_km: 1890.52,
    },
    Server {
        id: 5674,
        name: "GX Unicom",
        city: "Nanning",
        lat: 22.8167,
        lon: 108.3167,
        distance_km: 2048.98,
    },
    Server {
        id: 16503,
        name: "China Mobile Hainan",
        city: "Haikou",
        lat: 19.9111,
        lon: 110.3301,
        distance_km: 2285.12,
    },
    Server {
        id: 27575,
        name: "Xinjiang Telecom Cloud",
        city: "Urumqi",
        lat: 43.801,
        lon: 87.6005,
        distance_km: 2404.01,
    },
    Server {
        id: 17245,
        name: "China Mobile Group Xinjiang",
        city: "Kashi",
        lat: 39.4694,
        lon: 76.0739,
        distance_km: 3426.37,
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    /// Great-circle distance between two (lat, lon) points, km (haversine).
    fn haversine_km(lat1: f64, lon1: f64, lat2: f64, lon2: f64) -> f64 {
        let r = 6371.0;
        let (p1, p2) = (lat1.to_radians(), lat2.to_radians());
        let dp = (lat2 - lat1).to_radians();
        let dl = (lon2 - lon1).to_radians();
        let a = (dp / 2.0).sin().powi(2) + p1.cos() * p2.cos() * (dl / 2.0).sin().powi(2);
        2.0 * r * a.sqrt().atan2((1.0 - a).sqrt())
    }

    /// The paper's campus is at BUPT, Beijing (≈39.96 N, 116.35 E).
    const CAMPUS: (f64, f64) = (39.9608, 116.3526);

    #[test]
    fn twenty_servers_sorted_by_distance() {
        assert_eq!(PAPER_SERVERS.len(), 20);
        assert!(PAPER_SERVERS
            .windows(2)
            .all(|w| w[0].distance_km <= w[1].distance_km));
    }

    #[test]
    fn distances_consistent_with_coordinates() {
        // The tabulated distances should roughly match haversine from
        // the campus. The paper's own table carries a couple of
        // inconsistent rows (e.g. Suzhou is listed at 638 km but its
        // coordinates put it ≈1030 km away), so require 85 % agreement
        // rather than all rows.
        let consistent = PAPER_SERVERS
            .iter()
            .filter(|s| {
                let d = haversine_km(CAMPUS.0, CAMPUS.1, s.lat, s.lon);
                (d - s.distance_km).abs() / s.distance_km.max(30.0) < 0.35
            })
            .count();
        assert!(consistent >= 17, "only {consistent}/20 rows consistent");
    }

    #[test]
    fn distance_span_matches_paper_claims() {
        // Paper: servers located 1 km to 3400 km away.
        assert!(PAPER_SERVERS[0].distance_km < 5.0);
        assert!(PAPER_SERVERS[19].distance_km > 3400.0);
    }

    #[test]
    fn haversine_sanity() {
        // Beijing to Shanghai ≈ 1070 km.
        let d = haversine_km(39.9042, 116.4074, 31.2304, 121.4737);
        assert!((d - 1067.0).abs() < 30.0, "{d}");
        assert_eq!(haversine_km(10.0, 20.0, 10.0, 20.0), 0.0);
    }
}
