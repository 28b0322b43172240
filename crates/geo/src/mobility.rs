//! Mobility models producing timestamped position traces.
//!
//! Three models cover the paper's measurement procedures:
//!
//! * [`RoadSurvey`] — the Sec. 3.1 blanket survey: traverse every road
//!   segment at walking speed (4–5 km/h) while sampling KPIs.
//! * [`LinearTransect`] — the Sec. 3.2 line-of-sight walks away from a
//!   cell, and the Fig. 4 hand-off transects between two cells.
//! * [`RandomWaypoint`] — the Sec. 3.4 hand-off campaign: 80 minutes of
//!   walking/bicycling at 3–10 km/h around campus.

use crate::map::CampusMap;
use crate::point::Point;
use fiveg_simcore::{SimDuration, SimRng, SimTime};
use serde::Serialize;

/// One sample of a mobility trace.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct TracePoint {
    /// Sample time.
    pub t: SimTime,
    /// Position at that time.
    pub pos: Point,
}

/// A timestamped sequence of positions at a fixed sampling interval.
#[derive(Debug, Clone, Default, Serialize)]
pub struct MobilityTrace {
    /// The samples, in time order.
    pub points: Vec<TracePoint>,
}

impl MobilityTrace {
    /// Number of samples.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Total duration from first to last sample.
    pub fn duration(&self) -> SimDuration {
        match (self.points.first(), self.points.last()) {
            (Some(a), Some(b)) => b.t - a.t,
            _ => SimDuration::ZERO,
        }
    }

    /// Total path length, metres.
    #[cfg(test)]
    fn path_length(&self) -> f64 {
        self.points
            .windows(2)
            .map(|w| w[0].pos.distance(w[1].pos))
            .sum()
    }

    /// Iterator over the samples.
    pub fn iter(&self) -> impl Iterator<Item = TracePoint> + '_ {
        self.points.iter().copied()
    }
}

/// Converts a speed in km/h to m/s.
pub fn kmh_to_ms(kmh: f64) -> f64 {
    kmh / 3.6
}

/// Blanket road survey: walks every road of the map end-to-end at a
/// constant speed, sampling at `interval`.
#[derive(Debug, Clone)]
pub struct RoadSurvey {
    /// Walking speed, km/h (the paper walked at 4–5 km/h).
    pub speed_kmh: f64,
    /// Sampling interval.
    pub interval: SimDuration,
}

impl RoadSurvey {
    /// Creates a survey at the paper's walking speed (4.5 km/h) sampling
    /// once per second.
    pub fn paper_default() -> Self {
        RoadSurvey {
            speed_kmh: 4.5,
            interval: SimDuration::from_secs(1),
        }
    }

    /// Generates the survey trace over all roads of `map`.
    pub fn generate(&self, map: &CampusMap) -> MobilityTrace {
        assert!(self.speed_kmh > 0.0, "survey speed must be positive");
        let speed = kmh_to_ms(self.speed_kmh);
        let dt = self.interval.as_secs_f64();
        let step = speed * dt;
        let mut points = Vec::new();
        let mut t = SimTime::ZERO;
        for road in &map.roads {
            let len = road.length();
            let mut s = 0.0;
            while s <= len {
                points.push(TracePoint {
                    t,
                    pos: road.at_distance(s),
                });
                s += step;
                t += self.interval;
            }
        }
        MobilityTrace { points }
    }
}

/// A straight walk from `from` to `to` at constant speed.
#[derive(Debug, Clone)]
pub struct LinearTransect {
    /// Start point.
    pub from: Point,
    /// End point.
    pub to: Point,
    /// Speed, km/h.
    pub speed_kmh: f64,
    /// Sampling interval.
    pub interval: SimDuration,
}

impl LinearTransect {
    /// Generates the transect trace.
    pub fn generate(&self) -> MobilityTrace {
        assert!(self.speed_kmh > 0.0, "transect speed must be positive");
        let speed = kmh_to_ms(self.speed_kmh);
        let total = self.from.distance(self.to);
        let dt = self.interval.as_secs_f64();
        let step = speed * dt;
        let mut points = Vec::new();
        let mut s = 0.0;
        let mut t = SimTime::ZERO;
        loop {
            let frac = if total > 0.0 {
                (s / total).min(1.0)
            } else {
                1.0
            };
            points.push(TracePoint {
                t,
                pos: self.from.lerp(self.to, frac),
            });
            if s >= total {
                break;
            }
            s += step;
            t += self.interval;
        }
        MobilityTrace { points }
    }
}

/// Random-waypoint mobility within the campus bounds, avoiding building
/// interiors, with per-leg speed drawn uniformly from a range.
#[derive(Debug, Clone)]
pub struct RandomWaypoint {
    /// Minimum leg speed, km/h.
    pub speed_min_kmh: f64,
    /// Maximum leg speed, km/h.
    pub speed_max_kmh: f64,
    /// Total trace duration.
    pub duration: SimDuration,
    /// Sampling interval.
    pub interval: SimDuration,
}

impl RandomWaypoint {
    /// The paper's hand-off campaign profile: 3–10 km/h for 80 minutes.
    #[cfg(test)]
    fn paper_handoff_campaign() -> Self {
        RandomWaypoint {
            speed_min_kmh: 3.0,
            speed_max_kmh: 10.0,
            duration: SimDuration::from_secs(80 * 60),
            interval: SimDuration::from_millis(500),
        }
    }

    fn random_outdoor_point(map: &CampusMap, rng: &mut SimRng) -> Point {
        // Rejection-sample an outdoor point; the campus is mostly outdoor
        // so this terminates fast. Cap iterations for pathological maps.
        for _ in 0..10_000 {
            let p = Point::new(
                rng.range_f64(map.bounds.min.x, map.bounds.max.x),
                rng.range_f64(map.bounds.min.y, map.bounds.max.y),
            );
            if !map.is_indoor(p) {
                return p;
            }
        }
        map.bounds.center()
    }

    /// Generates a trace over `map` using `rng`.
    pub fn generate(&self, map: &CampusMap, rng: &mut SimRng) -> MobilityTrace {
        assert!(
            self.speed_min_kmh > 0.0 && self.speed_max_kmh >= self.speed_min_kmh,
            "invalid speed range"
        );
        let mut points = Vec::new();
        let mut t = SimTime::ZERO;
        let end = SimTime::ZERO + self.duration;
        let mut pos = Self::random_outdoor_point(map, rng);
        let dt = self.interval.as_secs_f64();
        'outer: while t <= end {
            let target = Self::random_outdoor_point(map, rng);
            let speed = kmh_to_ms(rng.range_f64(self.speed_min_kmh, self.speed_max_kmh));
            let leg_len = pos.distance(target);
            let steps = (leg_len / (speed * dt)).ceil().max(1.0) as usize;
            for i in 0..=steps {
                if t > end {
                    break 'outer;
                }
                let frac = i as f64 / steps as f64;
                points.push(TracePoint {
                    t,
                    pos: pos.lerp(target, frac),
                });
                t += self.interval;
            }
            pos = target;
        }
        MobilityTrace { points }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::building::{Building, Material};
    use crate::map::Road;
    use crate::point::Rect;

    fn map() -> CampusMap {
        CampusMap::new(
            Rect::from_origin_size(Point::new(0.0, 0.0), 500.0, 920.0),
            vec![Building::new(
                Rect::from_origin_size(Point::new(100.0, 100.0), 50.0, 50.0),
                Material::Brick,
                15.0,
            )],
            vec![Road::new(vec![
                Point::new(0.0, 0.0),
                Point::new(500.0, 0.0),
            ])],
        )
    }

    #[test]
    fn kmh_conversion() {
        assert!((kmh_to_ms(3.6) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn road_survey_covers_road() {
        let m = map();
        let trace = RoadSurvey::paper_default().generate(&m);
        assert!(!trace.is_empty());
        // Path covers essentially the whole 500 m road.
        assert!(trace.path_length() > 495.0, "len {}", trace.path_length());
        // Walking 500 m at 4.5 km/h takes 400 s.
        assert!((trace.duration().as_secs_f64() - 400.0).abs() < 2.0);
    }

    #[test]
    fn transect_endpoints() {
        let tr = LinearTransect {
            from: Point::new(0.0, 0.0),
            to: Point::new(100.0, 0.0),
            speed_kmh: 3.6, // 1 m/s
            interval: SimDuration::from_secs(1),
        }
        .generate();
        assert_eq!(tr.points.first().unwrap().pos, Point::new(0.0, 0.0));
        assert_eq!(tr.points.last().unwrap().pos, Point::new(100.0, 0.0));
        assert_eq!(tr.len(), 101);
    }

    #[test]
    fn random_waypoint_stays_outdoor_and_in_bounds() {
        let m = map();
        let mut rng = SimRng::new(1);
        let rwp = RandomWaypoint {
            speed_min_kmh: 3.0,
            speed_max_kmh: 10.0,
            duration: SimDuration::from_secs(120),
            interval: SimDuration::from_millis(500),
        };
        let trace = rwp.generate(&m, &mut rng);
        assert!(!trace.is_empty());
        for p in trace.iter() {
            assert!(m.bounds.contains(p.pos), "escaped bounds at {}", p.pos);
        }
        // Waypoints themselves are outdoor; intermediate samples on a leg
        // may clip a building corner, but the vast majority are outdoor.
        let indoor = trace.iter().filter(|p| m.is_indoor(p.pos)).count();
        assert!(indoor * 10 < trace.len(), "{indoor}/{}", trace.len());
    }

    #[test]
    fn random_waypoint_deterministic() {
        let m = map();
        let rwp = RandomWaypoint::paper_handoff_campaign();
        let a = rwp.generate(&m, &mut SimRng::new(7));
        let b = rwp.generate(&m, &mut SimRng::new(7));
        assert_eq!(a.len(), b.len());
        assert_eq!(
            a.points.first().map(|p| p.pos),
            b.points.first().map(|p| p.pos)
        );
        assert_eq!(
            a.points.last().map(|p| p.pos),
            b.points.last().map(|p| p.pos)
        );
    }

    #[test]
    fn trace_duration_and_length_empty() {
        let t = MobilityTrace::default();
        assert_eq!(t.duration(), SimDuration::ZERO);
        assert_eq!(t.path_length(), 0.0);
    }
}
