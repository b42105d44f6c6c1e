//! The independent detection reference: what the paper's rules detect on
//! a live day, computed without the program's lookups, its MapReduce job,
//! its CEP engine or its topology.
//!
//! * Enrichment by brute force: every quadtree region is tested for
//!   containment, and the nearest stop is found by a full scan of the
//!   stops serving the trace's line and direction.
//! * Statistics straight from the history: per (attribute, location,
//!   hour, day type) mean and population stdv, kept when at least
//!   `min_samples` values were seen.
//! * Listing 1 per rule: a sliding window of the rule's length per
//!   location, compared against `mean + s·stdv` with the rule's own `s`.
//!
//! The program's thresholds come from history values it stores with three
//! decimals, so a window average within [`MARGIN`] of its threshold may
//! fire either way; every other evaluation must match exactly.

use std::collections::{BTreeMap, HashMap, VecDeque};
use tms_core::rules::{LocationSelector, RuleSpec, SpatialContext};
use tms_core::thresholds::Detection;
use tms_geo::{BoundingBox, GeoPoint};
use tms_traffic::{Attribute, BusTrace, DAY_MS, HOUR_MS};

/// Largest gap between a window average and its threshold, in the
/// attribute's unit, at which the program may decide either way.
pub const MARGIN: f64 = 0.01;

/// Relative tolerance on a detection's window average.
const OBSERVED_TOL: f64 = 1e-6;

const EARTH_RADIUS_M: f64 = 6_371_008.8;

fn haversine_m(a: GeoPoint, b: GeoPoint) -> f64 {
    let (lat1, lon1) = (a.lat.to_radians(), a.lon.to_radians());
    let (lat2, lon2) = (b.lat.to_radians(), b.lon.to_radians());
    let h = ((lat2 - lat1) / 2.0).sin().powi(2)
        + lat1.cos() * lat2.cos() * ((lon2 - lon1) / 2.0).sin().powi(2);
    2.0 * EARTH_RADIUS_M * h.sqrt().asin()
}

/// Squared planar distance with longitude scaled by the cosine of the
/// mean latitude: the ranking the paper's nearest-stop lookup uses.
fn planar_dist2(a: GeoPoint, b: GeoPoint) -> f64 {
    let scale = ((a.lat + b.lat) * 0.5).to_radians().cos();
    let dlat = a.lat - b.lat;
    let dlon = (a.lon - b.lon) * scale;
    dlat * dlat + dlon * dlon
}

/// The quadtree's regions and the recovered stops as plain lists.
/// Location index `i < regions.len()` is a region, the rest are stops.
#[derive(Debug, Clone)]
pub struct Spatial {
    regions: Vec<BoundingBox>,
    leaf: Vec<bool>,
    root: BoundingBox,
    stops: Vec<GeoPoint>,
    /// Stops per (line, direction) they serve, in id order.
    serving: HashMap<(u32, bool), Vec<usize>>,
    index: HashMap<String, u32>,
}

impl Spatial {
    /// Copies the regions and stops out of the program's spatial context.
    pub fn new(ctx: &SpatialContext) -> Spatial {
        let mut regions = Vec::new();
        let mut leaf = Vec::new();
        let mut names = Vec::new();
        let mut all: Vec<_> = ctx.quadtree.iter().collect();
        all.sort_by_key(|r| (r.layer, r.id.0));
        for r in all {
            regions.push(r.bbox);
            leaf.push(r.is_leaf());
            names.push(format!("R{}", r.id.0));
        }
        let mut stops = Vec::new();
        let mut serving: HashMap<(u32, bool), Vec<usize>> = HashMap::new();
        for (i, s) in ctx.stops.stops().iter().enumerate() {
            stops.push(s.location);
            for &key in &s.serving {
                serving.entry(key).or_default().push(i);
            }
            names.push(format!("S{}", s.id));
        }
        let index = names
            .into_iter()
            .enumerate()
            .map(|(i, n)| (n, i as u32))
            .collect();
        Spatial {
            regions,
            leaf,
            root: ctx.quadtree.bbox(),
            stops,
            serving,
            index,
        }
    }

    /// A single leaf region `R0` covering `bbox`, and no stops.
    #[cfg(test)]
    pub fn single_region(bbox: BoundingBox) -> Spatial {
        Spatial {
            regions: vec![bbox],
            leaf: vec![true],
            root: bbox,
            stops: Vec::new(),
            serving: HashMap::new(),
            index: HashMap::from([("R0".to_string(), 0)]),
        }
    }

    /// The regions containing `p`, root first, by testing every region.
    /// Boxes are min-inclusive and max-exclusive, except on the root's
    /// north and east edges, which belong to the regions touching them.
    pub fn areas(&self, p: GeoPoint) -> Vec<u32> {
        let on_edge = p.lat == self.root.max_lat || p.lon == self.root.max_lon;
        let mut out = Vec::new();
        for (i, b) in self.regions.iter().enumerate() {
            let inside = p.lat >= b.min_lat
                && p.lon >= b.min_lon
                && (p.lat < b.max_lat
                    || (on_edge && p.lat == b.max_lat && b.max_lat == self.root.max_lat))
                && (p.lon < b.max_lon
                    || (on_edge && p.lon == b.max_lon && b.max_lon == self.root.max_lon));
            if inside {
                out.push(i as u32);
            }
        }
        out
    }

    /// The nearest stop serving `(line, direction)`, by scanning all of
    /// them, or the nearest of all stops when none serves it; the lowest
    /// id wins a tie.
    pub fn stop(&self, line: u32, direction: bool, p: GeoPoint) -> Option<u32> {
        let all: Vec<usize>;
        let candidates = match self.serving.get(&(line, direction)) {
            Some(c) => c,
            None => {
                all = (0..self.stops.len()).collect();
                &all
            }
        };
        let mut best: Option<(f64, usize)> = None;
        for &i in candidates {
            let d = planar_dist2(p, self.stops[i]);
            if best.is_none_or(|(bd, _)| d < bd) {
                best = Some((d, i));
            }
        }
        best.map(|(_, i)| (self.regions.len() + i) as u32)
    }

    /// The location index of an id, if it names a region or stop.
    pub fn lookup(&self, name: &str) -> Option<u32> {
        self.index.get(name).copied()
    }

    /// The location a trace feeds for a selector.
    fn location_for(&self, sel: &LocationSelector, t: &RefTrace) -> Option<u32> {
        match sel {
            LocationSelector::QuadtreeLeaves => {
                t.areas.last().copied().filter(|&a| self.leaf[a as usize])
            }
            LocationSelector::BusStops => t.stop,
            other => panic!("{other:?} rules are not part of any workload"),
        }
    }
}

/// A trace enriched by the reference.
#[derive(Debug, Clone)]
pub struct RefTrace {
    /// Timestamp, ms.
    pub ts: u64,
    /// Hour of day.
    pub hour: u8,
    /// Whether the day is a weekend (day 0 is a Monday).
    pub weekend: bool,
    /// Containing regions, root first.
    pub areas: Vec<u32>,
    /// Nearest stop.
    pub stop: Option<u32>,
    /// Reported delay, s.
    pub delay: f64,
    /// Change in delay since the vehicle's previous report, s.
    pub actual_delay: Option<f64>,
    /// Speed since the vehicle's previous report, km/h.
    pub speed: Option<f64>,
}

impl RefTrace {
    fn value(&self, a: Attribute) -> Option<f64> {
        match a {
            Attribute::Delay => Some(self.delay),
            Attribute::ActualDelay => self.actual_delay,
            Attribute::Speed => self.speed,
            Attribute::DelayAndCongestion => {
                panic!("congestion rules are not part of any workload")
            }
        }
    }
}

/// Enriches a day of traces in replay order.
pub fn enrich(spatial: &Spatial, traces: &[BusTrace]) -> Vec<RefTrace> {
    let mut last: HashMap<u32, (u64, GeoPoint, f64)> = HashMap::new();
    traces
        .iter()
        .map(|t| {
            let prev = last.insert(t.vehicle_id, (t.timestamp_ms, t.position, t.delay_s));
            let (speed, actual_delay) = match prev {
                Some((pts, ppos, pdelay)) if t.timestamp_ms > pts => {
                    let hours = (t.timestamp_ms - pts) as f64 / HOUR_MS as f64;
                    (
                        Some(haversine_m(t.position, ppos) / 1000.0 / hours),
                        Some(t.delay_s - pdelay),
                    )
                }
                _ => (None, None),
            };
            RefTrace {
                ts: t.timestamp_ms,
                hour: ((t.timestamp_ms % DAY_MS) / HOUR_MS) as u8,
                weekend: (t.timestamp_ms / DAY_MS) % 7 >= 5,
                areas: spatial.areas(t.position),
                stop: spatial.stop(t.line_id, t.direction, t.position),
                delay: t.delay_s,
                actual_delay,
                speed,
            }
        })
        .collect()
}

type CellKey = (Attribute, u32, u8, bool);

/// Per-cell mean and population stdv of the history, for cells with at
/// least `min_samples` values.
pub fn statistics(
    history: &[RefTrace],
    attributes: &[Attribute],
    min_samples: u64,
) -> HashMap<CellKey, (f64, f64)> {
    let cells = |t: &RefTrace, a: Attribute| -> Vec<(CellKey, f64)> {
        let Some(v) = t.value(a) else {
            return Vec::new();
        };
        t.areas
            .iter()
            .copied()
            .chain(t.stop)
            .map(|loc| ((a, loc, t.hour, t.weekend), v))
            .collect()
    };
    let mut sums: HashMap<CellKey, (u64, f64)> = HashMap::new();
    for t in history {
        for &a in attributes {
            for (k, v) in cells(t, a) {
                let e = sums.entry(k).or_default();
                e.0 += 1;
                e.1 += v;
            }
        }
    }
    let mut squares: HashMap<CellKey, f64> = HashMap::new();
    for t in history {
        for &a in attributes {
            for (k, v) in cells(t, a) {
                let (n, sum) = sums[&k];
                let d = v - sum / n as f64;
                *squares.entry(k).or_default() += d * d;
            }
        }
    }
    sums.into_iter()
        .filter(|(_, (n, _))| *n >= min_samples)
        .map(|(k, (n, sum))| (k, (sum / n as f64, (squares[&k] / n as f64).sqrt())))
        .collect()
}

/// The reference's verdict on one evaluation of a rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The window average crosses the threshold by more than [`MARGIN`].
    Fire,
    /// The window average stays short of the threshold by more than
    /// [`MARGIN`].
    Quiet,
    /// Within [`MARGIN`]: the program may fire or not.
    Either,
}

/// One evaluation of Listing 1: a rule at a location, triggered by a trace.
#[derive(Debug, Clone, Copy)]
pub struct Evaluation {
    /// Index of the triggering trace in the live day.
    pub trace: usize,
    /// Index of the rule.
    pub rule: usize,
    /// Location index.
    pub loc: u32,
    /// Window average.
    pub observed: f64,
    /// `mean + s·stdv` for the trace's cell.
    pub threshold: f64,
    /// Whether the rule fires.
    pub verdict: Verdict,
}

/// Evaluates every rule over the live day, calling `f` for each
/// evaluation in replay order. Evaluations only exist where the cell has
/// statistics, as in Listing 1's join.
pub fn evaluate(
    spatial: &Spatial,
    rules: &[RuleSpec],
    stats: &HashMap<CellKey, (f64, f64)>,
    live: &[RefTrace],
    mut f: impl FnMut(Evaluation),
) {
    let mut windows: HashMap<(usize, u32), VecDeque<f64>> = HashMap::new();
    for (i, t) in live.iter().enumerate() {
        for (r, rule) in rules.iter().enumerate() {
            let Some(v) = t.value(rule.attribute) else {
                continue;
            };
            let Some(loc) = spatial.location_for(&rule.location, t) else {
                continue;
            };
            let w = windows.entry((r, loc)).or_default();
            w.push_back(v);
            if w.len() > rule.window_length {
                w.pop_front();
            }
            let Some((mean, stdv)) = stats.get(&(rule.attribute, loc, t.hour, t.weekend)) else {
                continue;
            };
            let observed = w.iter().sum::<f64>() / w.len() as f64;
            let threshold = mean + rule.s * stdv;
            let excess = if rule.attribute.abnormal_is_high() {
                observed - threshold
            } else {
                threshold - observed
            };
            let verdict = if excess.abs() <= MARGIN {
                Verdict::Either
            } else if excess > 0.0 {
                Verdict::Fire
            } else {
                Verdict::Quiet
            };
            f(Evaluation {
                trace: i,
                rule: r,
                loc,
                observed,
                threshold,
                verdict,
            });
        }
    }
}

/// Everything the reference needs about one workload input.
#[derive(Debug)]
pub struct Reference {
    /// Regions and stops.
    pub spatial: Spatial,
    /// The rules, in workload order.
    pub rules: Vec<RuleSpec>,
    /// History statistics.
    pub stats: HashMap<CellKey, (f64, f64)>,
    /// The enriched live day.
    pub live: Vec<RefTrace>,
}

impl Reference {
    /// Enriches both days and computes the history statistics.
    pub fn new(
        ctx: &SpatialContext,
        rules: &[RuleSpec],
        history: &[BusTrace],
        live: &[BusTrace],
        min_samples: u64,
    ) -> Reference {
        let spatial = Spatial::new(ctx);
        let mut attributes: Vec<Attribute> = Vec::new();
        for r in rules {
            if !attributes.contains(&r.attribute) {
                attributes.push(r.attribute);
            }
        }
        let stats = statistics(&enrich(&spatial, history), &attributes, min_samples);
        let live = enrich(&spatial, live);
        Reference {
            spatial,
            rules: rules.to_vec(),
            stats,
            live,
        }
    }

    /// Checks a replay's detections against the reference, trace by trace.
    /// With `dedup`, a detection repeated exactly counts once, on both
    /// sides.
    pub fn check(&self, detections: &[Detection], dedup: bool) -> Check {
        let rule_index: HashMap<&str, usize> = self
            .rules
            .iter()
            .enumerate()
            .map(|(i, r)| (r.name.as_str(), i))
            .collect();
        let mut check = Check {
            traces: self.live.len(),
            ..Check::default()
        };
        let mut found: HashMap<(usize, u32, u64), Vec<Found>> = HashMap::new();
        for d in detections {
            let (Some(&r), Some(loc)) = (
                rule_index.get(d.rule.as_str()),
                self.spatial.lookup(&d.location),
            ) else {
                check.unattributed += 1;
                continue;
            };
            let slot = found.entry((r, loc, d.timestamp_ms)).or_default();
            let repeat = slot
                .iter()
                .any(|(o, t, _)| o.to_bits() == d.observed.to_bits() && *t == d.threshold);
            if !(dedup && repeat) {
                slot.push((d.observed, d.threshold, false));
            }
        }
        // Rules fault 1 can change: those that share an attribute, and so
        // a `thresholds_<attr>` stream, with a rule of another s.
        let mixed_s: Vec<bool> = self
            .rules
            .iter()
            .map(|r| {
                self.rules
                    .iter()
                    .any(|o| o.attribute == r.attribute && o.s != r.s)
            })
            .collect();
        let mut failed = vec![false; self.live.len()];
        let mut unexplained = vec![false; self.live.len()];
        let mut fail = |check: &mut Check, e: &Evaluation| {
            *check
                .failed_by_rule
                .entry(self.rules[e.rule].name.clone())
                .or_default() += 1;
            if !failed[e.trace] {
                failed[e.trace] = true;
                check.failed += 1;
            }
            if !mixed_s[e.rule] && !unexplained[e.trace] {
                unexplained[e.trace] = true;
                check.unexplained += 1;
            }
        };
        evaluate(&self.spatial, &self.rules, &self.stats, &self.live, |e| {
            if e.verdict == Verdict::Fire {
                check.expected += 1;
            }
            let key = (e.rule, e.loc, self.live[e.trace].ts);
            let same = |o: f64| (o - e.observed).abs() <= OBSERVED_TOL * e.observed.abs().max(1.0);
            let hit = found.get_mut(&key).and_then(|slot| {
                match slot.iter_mut().find(|(o, _, m)| !m && same(*o)) {
                    Some(p) => {
                        p.2 = true;
                        Some(p.1)
                    }
                    // An exact repeat of a detection that was already
                    // matched fires once after dedup.
                    None if dedup => slot.iter().find(|(o, _, _)| same(*o)).map(|p| p.1),
                    None => None,
                }
            });
            let failure = match hit {
                None if e.verdict == Verdict::Fire => Some(&mut check.missing),
                None => None,
                Some(_) if e.verdict == Verdict::Quiet => Some(&mut check.extra),
                Some(Some(t)) if (t - e.threshold).abs() > MARGIN => {
                    Some(&mut check.wrong_threshold)
                }
                Some(_) => None,
            };
            if let Some(count) = failure {
                *count += 1;
                fail(&mut check, &e);
            }
        });
        check.unattributed += found.values().flatten().filter(|p| !p.2).count();
        check
    }
}

/// A program detection under its (rule, location, timestamp) key:
/// observed, reported threshold, and whether an evaluation matched it.
type Found = (f64, Option<f64>, bool);

/// The outcome of checking one replay.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Check {
    /// Live traces replayed.
    pub traces: usize,
    /// Traces whose detections differ from the reference.
    pub failed: usize,
    /// Detections the reference says must fire.
    pub expected: usize,
    /// Program detections no evaluation of the reference accounts for.
    pub unattributed: usize,
    /// Evaluations that must fire and have no detection.
    pub missing: usize,
    /// Detections where the window stays short of its threshold.
    pub extra: usize,
    /// Detections that fire as they should but report another threshold.
    pub wrong_threshold: usize,
    /// Failed traces with a failing evaluation of a rule that fault 1
    /// cannot change (no other rule on its attribute has another s).
    pub unexplained: usize,
    /// Failing evaluations per rule.
    pub failed_by_rule: BTreeMap<String, usize>,
}

impl Check {
    /// Whether the replay holds nothing but what the reference and fault 1
    /// account for: no unattributed detection and no unexplained failure.
    pub fn correct(&self) -> bool {
        self.unattributed == 0 && self.unexplained == 0
    }
}
