//! The three benchmark workloads: their inputs, rules and system
//! configuration. Every input is a pure function of the workload and the
//! seed.

use tms_core::rules::{LocationSelector, RuleSpec};
use tms_core::system::SystemConfig;
use tms_dsps::runtime::{BatchConfig, ReliabilityConfig};
use tms_geo::GeoPoint;
use tms_traffic::{Attribute, BusTrace, FleetConfig, FleetGenerator};

/// Engines every workload's start-up plan allocates.
pub const ENGINES: usize = 3;

/// The fleet every workload uses. Its history day fixes the start-up
/// plan: on fleets where the optimizer merges the leaves and bus-stops
/// groupings, traces outside the quadtree reach no stop rule and leaf
/// rules also fire at stops (see `README.md`), on some seeds only.
pub const FLEET_SEED: u64 = 2024;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Two Delay rules on the default per-tuple, at-most-once plane.
    Day,
    /// Twelve rules: CEP evaluation and the detections storer dominate.
    RuleGrid,
    /// `Day` with at-least-once delivery on the micro-batched plane.
    DayReliable,
}

impl Workload {
    /// All workloads, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::Day, Workload::RuleGrid, Workload::DayReliable];

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Day => "day",
            Workload::RuleGrid => "rule_grid",
            Workload::DayReliable => "day_reliable",
        }
    }

    /// The rules the workload installs.
    pub fn rules(self) -> Vec<RuleSpec> {
        match self {
            Workload::Day | Workload::DayReliable => vec![
                rule(
                    "delay-leaves-10",
                    Attribute::Delay,
                    LocationSelector::QuadtreeLeaves,
                    10,
                    2.0,
                ),
                rule(
                    "delay-stops-10",
                    Attribute::Delay,
                    LocationSelector::BusStops,
                    10,
                    2.0,
                ),
            ],
            Workload::RuleGrid => {
                let mut out = Vec::new();
                for (attr, short) in [
                    (Attribute::Delay, "delay"),
                    (Attribute::Speed, "speed"),
                    (Attribute::ActualDelay, "actual"),
                ] {
                    for (location, place) in [
                        (LocationSelector::QuadtreeLeaves, "leaves"),
                        (LocationSelector::BusStops, "stops"),
                    ] {
                        for window in [10, 100] {
                            // The window-100 Speed rules share their
                            // threshold stream with the window-10 ones at a
                            // different s: fault 1 stays visible.
                            let s = if attr == Attribute::Speed && window == 100 {
                                2.5
                            } else {
                                1.5
                            };
                            out.push(rule(
                                &format!("{short}-{place}-{window}"),
                                attr,
                                location.clone(),
                                window,
                                s,
                            ));
                        }
                    }
                }
                out
            }
        }
    }

    /// The system configuration the workload runs.
    pub fn config(self) -> SystemConfig {
        match self {
            Workload::Day | Workload::RuleGrid => SystemConfig::default(),
            Workload::DayReliable => SystemConfig {
                reliability: Some(ReliabilityConfig::default()),
                batch: Some(BatchConfig::default()),
                ..SystemConfig::default()
            },
        }
    }

    /// Whether detections are compared after removing exact duplicates
    /// (at-least-once delivery may store a detection twice).
    pub fn dedup(self) -> bool {
        self == Workload::DayReliable
    }
}

fn rule(
    name: &str,
    attribute: Attribute,
    location: LocationSelector,
    window: usize,
    s: f64,
) -> RuleSpec {
    let mut r = RuleSpec::new(name, attribute, location, window);
    r.s = s;
    r
}

/// A workload's generated input.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Route vertices: the quadtree's seed points.
    pub seeds: Vec<GeoPoint>,
    /// Day 0: the history the off-line component learns from.
    pub history: Vec<BusTrace>,
    /// Day 1: the live day replayed through the topology.
    pub live: Vec<BusTrace>,
}

/// Generates a workload's input for a seed: one full service day of
/// history (day 0) and one live day of `FleetConfig::small(FLEET_SEED)`.
/// The seed picks the live day, a Tuesday (`day` and `day_reliable`
/// only: `rule_grid` keeps day 1, so the traces fault 1 fails are the same
/// in every run), and relabels the vehicles.
pub fn inputs(workload: Workload, seed: u64) -> Inputs {
    let fleet = FleetConfig::small(FLEET_SEED);
    let history_gen = FleetGenerator::new(fleet.clone(), 0).expect("small fleet config is valid");
    let seeds = history_gen.route_seed_points();
    let mut history: Vec<BusTrace> = history_gen.collect();
    let live_day = match workload {
        Workload::RuleGrid => 1,
        Workload::Day | Workload::DayReliable => 1 + 7 * (seed % 1000) as u32,
    };
    let mut live: Vec<BusTrace> = FleetGenerator::new(fleet, live_day)
        .expect("small fleet config is valid")
        .collect();
    relabel_vehicles(&mut history, seed);
    relabel_vehicles(&mut live, seed);
    Inputs {
        seeds,
        history,
        live,
    }
}

/// Renames the vehicles by a seeded permutation. Detections do not depend
/// on vehicle ids, but the spout stripes and the preprocess fields
/// grouping do, so the seed changes how tasks divide the input.
pub fn relabel_vehicles(traces: &mut [BusTrace], seed: u64) {
    let mut ids: Vec<u32> = traces.iter().map(|t| t.vehicle_id).collect();
    ids.sort_unstable();
    ids.dedup();
    let mut shuffled = ids.clone();
    let mut state = seed;
    for i in (1..shuffled.len()).rev() {
        let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
        shuffled.swap(i, j);
    }
    for t in traces {
        let at = ids
            .binary_search(&t.vehicle_id)
            .expect("id collected above");
        t.vehicle_id = shuffled[at];
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
