//! Tests of the benchmark itself: the reference on a hand-computed case,
//! the check against perturbed detections, and fault 1 at its known
//! counts; then reproducers of the program's open faults. Run with
//! `cargo test --release`: the full-day tests replay 151,200 traces.

use crate::reference::{evaluate, Check, RefTrace, Reference, Spatial, Verdict};
use crate::workload::{inputs, Inputs, Workload, ENGINES};
use std::collections::HashMap;
use tms_core::rules::{LocationSelector, RuleSpec};
use tms_core::system::{SystemConfig, TrafficSystem};
use tms_core::thresholds::{Detection, RetrievalMethod, RuleEngine};
use tms_core::KappaConfig;
use tms_dsps::runtime::BatchConfig;
use tms_geo::{GeoPoint, DUBLIN_BBOX};
use tms_storage::{DayType, StatRecord, TableStore, ThresholdStore};
use tms_traffic::{
    Attribute, BusTrace, EnrichedTrace, FleetConfig, FleetGenerator, DAY_MS, HOUR_MS,
};

/// Delays reported at one location during one hour: windows of three give
/// averages 100, 110, 116.67, 113.33 and 120.
const DELAYS: [f64; 5] = [100.0, 120.0, 130.0, 90.0, 140.0];

fn delay_rule(name: &str, window: usize, s: f64) -> RuleSpec {
    let mut r = RuleSpec::new(
        name,
        Attribute::Delay,
        LocationSelector::QuadtreeLeaves,
        window,
    );
    r.s = s;
    r
}

/// Five traces of one bus at region R0, 08:00 on day 1 (a weekday), 20 s
/// apart.
fn traces() -> Vec<BusTrace> {
    DELAYS
        .iter()
        .enumerate()
        .map(|(i, &delay_s)| BusTrace {
            timestamp_ms: DAY_MS + 8 * HOUR_MS + i as u64 * 20_000,
            line_id: 1,
            direction: true,
            position: GeoPoint::new_unchecked(53.34, -6.26),
            delay_s,
            congestion: false,
            reported_stop: None,
            at_stop: false,
            vehicle_id: 7,
        })
        .collect()
}

/// A reference with one leaf region R0 whose 08:00 weekday delay has mean
/// 100 and stdv 10.
fn hand_reference(rules: Vec<RuleSpec>) -> Reference {
    let spatial = Spatial::single_region(DUBLIN_BBOX);
    let live = traces()
        .iter()
        .map(|t| RefTrace {
            ts: t.timestamp_ms,
            hour: 8,
            weekend: false,
            areas: vec![0],
            stop: None,
            delay: t.delay_s,
            actual_delay: None,
            speed: None,
        })
        .collect();
    let stats = HashMap::from([((Attribute::Delay, 0, 8, false), (100.0, 10.0))]);
    Reference {
        spatial,
        rules,
        stats,
        live,
    }
}

/// The same case through the program's CEP layer: one engine with the
/// rules installed and the statistics published to its store.
fn engine_detections(rules: &[RuleSpec]) -> Vec<Detection> {
    let store = TableStore::new();
    let thresholds = ThresholdStore::new(store);
    thresholds
        .publish(
            "delay",
            &[StatRecord {
                area_id: "R0".into(),
                hour: 8,
                day_type: DayType::Weekday,
                mean: 100.0,
                stdv: 10.0,
                count: 50,
            }],
        )
        .unwrap();
    let mut engine = RuleEngine::new(RetrievalMethod::ThresholdStream, thresholds, None);
    engine.install_rules(rules, ["R0".to_string()]).unwrap();
    for t in traces() {
        let e = EnrichedTrace {
            trace: t,
            speed_kmh: None,
            actual_delay_s: None,
            areas: vec!["R0".into()],
            bus_stop: None,
        };
        engine.send_trace(&e).unwrap();
    }
    let sink = engine.detections();
    let out = sink.lock().clone();
    out
}

#[test]
fn hand_computed_windows_fire_where_expected() {
    // s = 1: threshold 110. Windows of three average 100, 110, 116.67,
    // 113.33, 120: the second sits on the threshold, the last three cross.
    let reference = hand_reference(vec![delay_rule("r", 3, 1.0)]);
    let mut verdicts = Vec::new();
    evaluate(
        &reference.spatial,
        &reference.rules,
        &reference.stats,
        &reference.live,
        |e| {
            assert_eq!(e.threshold, 110.0);
            verdicts.push((e.trace, e.observed, e.verdict));
        },
    );
    let expected = [
        (0, 100.0, Verdict::Quiet),
        (1, 110.0, Verdict::Either),
        (2, 350.0 / 3.0, Verdict::Fire),
        (3, 340.0 / 3.0, Verdict::Fire),
        (4, 120.0, Verdict::Fire),
    ];
    assert_eq!(verdicts.len(), expected.len());
    for ((t, o, v), (et, eo, ev)) in verdicts.iter().zip(expected) {
        assert_eq!((*t, *v), (et, ev));
        assert!((o - eo).abs() < 1e-9, "trace {t}: {o} vs {eo}");
    }
    // The program's CEP layer agrees on the same input.
    let detections = engine_detections(&reference.rules);
    assert_eq!(detections.len(), 3);
    let check = reference.check(&detections, false);
    assert_eq!(
        check,
        Check {
            traces: 5,
            expected: 3,
            ..Check::default()
        }
    );
}

#[test]
fn perturbed_detections_are_reported_as_failed() {
    let reference = hand_reference(vec![delay_rule("r", 3, 1.0)]);
    let good = engine_detections(&reference.rules);
    assert_eq!(reference.check(&good, false).failed, 0);

    // A missing detection fails its trace.
    let mut missing = good.clone();
    missing.remove(1);
    let c = reference.check(&missing, false);
    assert_eq!((c.failed, c.missing, c.unattributed), (1, 1, 0));
    // The lone rule shares its threshold stream with no rule of another s,
    // so fault 1 cannot explain the failure.
    assert_eq!(c.unexplained, 1);
    assert!(!c.correct());

    // A detection where the window stays below its threshold fails too.
    let mut extra = good.clone();
    extra.push(Detection {
        observed: 100.0,
        timestamp_ms: DAY_MS + 8 * HOUR_MS,
        ..good[0].clone()
    });
    let c = reference.check(&extra, false);
    assert_eq!((c.failed, c.extra, c.unattributed), (1, 1, 0));

    // A wrong window average matches nothing: its trace fails and the
    // stray detection is unattributed.
    let mut shifted = good.clone();
    shifted[2].observed += 0.5;
    let c = reference.check(&shifted, false);
    assert_eq!((c.failed, c.missing, c.unattributed), (1, 1, 1));

    // A wrong threshold on a detection that should fire.
    let mut threshold = good.clone();
    threshold[0].threshold = Some(111.0);
    let c = reference.check(&threshold, false);
    assert_eq!((c.failed, c.wrong_threshold), (1, 1));

    // Exact repeats fail without dedup and pass with it.
    let mut repeated = good.clone();
    repeated.push(good[0].clone());
    assert_eq!(reference.check(&repeated, false).unattributed, 1);
    assert_eq!(
        reference.check(&repeated, true),
        reference.check(&good, true)
    );

    // A detection of an unknown rule or location is unattributed.
    let mut unknown = good.clone();
    unknown[0].location = "R999".into();
    assert_eq!(reference.check(&unknown, false).unattributed, 1);
}

#[test]
fn fault_1_mixed_s_in_one_engine_averages_thresholds() {
    // Window 3 at s = 1 (threshold 110) next to window 5 at s = 3
    // (threshold 130): both statements join the one `thresholds_delay`
    // stream and compare against the average, 120. The window-3 rule then
    // misses its three crossings (116.67, 113.33 and 120 are not above 120).
    let rules = vec![delay_rule("w3", 3, 1.0), delay_rule("w5", 5, 3.0)];
    let reference = hand_reference(rules.clone());
    let detections = engine_detections(&rules);
    assert!(detections.is_empty(), "{detections:?}");
    let c = reference.check(&detections, false);
    assert_eq!((c.failed, c.missing, c.expected), (3, 3, 3));
    assert_eq!(c.failed_by_rule.get("w3"), Some(&3));
    assert_eq!(c.unexplained, 0);
    assert!(c.correct());
    // Next to a rule of the same s, the same missing detections are not
    // fault 1's.
    let same_s = hand_reference(vec![delay_rule("w3", 3, 1.0), delay_rule("w5", 5, 1.0)]);
    let c = same_s.check(&detections, false);
    assert_eq!((c.failed, c.unexplained), (3, 3));
    // Alone, the window-3 rule fires as the reference says.
    let alone = hand_reference(vec![rules[0].clone()]);
    assert_eq!(
        alone.check(&engine_detections(&rules[..1]), false).failed,
        0
    );
}

/// Detections of the full topology under `config` on `input`, and the
/// reference's check of them.
fn replay(input: &Inputs, config: SystemConfig, rules: &[RuleSpec]) -> (Vec<Detection>, Check) {
    let min_samples = config.offline.min_samples;
    let system =
        TrafficSystem::bootstrap(DUBLIN_BBOX, &input.seeds, &input.history, config).unwrap();
    let plan = system.startup_plan(rules, ENGINES).unwrap();
    let report = system.run(input.live.clone(), &plan, None).unwrap();
    let reference = Reference::new(
        &system.artifacts.spatial,
        rules,
        &input.history,
        &input.live,
        min_samples,
    );
    let check = reference.check(&report.detections, false);
    (report.detections, check)
}

/// `FleetConfig::small(2024)`, days 0 and 1: the input of `rule_grid`.
fn fleet_2024() -> Inputs {
    inputs(Workload::RuleGrid, 0)
}

#[test]
fn fault_1_at_its_known_count() {
    let input = fleet_2024();
    let lone = delay_rule("delay-leaves-10", 10, 1.0);
    let (detections, check) = replay(&input, SystemConfig::default(), std::slice::from_ref(&lone));
    assert_eq!(detections.len(), 18_493);
    assert_eq!((check.failed, check.unattributed), (0, 0));

    let paired = [lone.clone(), delay_rule("delay-leaves-100", 100, 2.5)];
    let (detections, check) = replay(&input, SystemConfig::default(), &paired);
    let fired = detections.iter().filter(|d| d.rule == lone.name).count();
    assert_eq!(fired, 7_860);
    assert!(check.failed > 0);
    assert_eq!((check.unexplained, check.unattributed), (0, 0));
}

// The tests below reproduce open faults of the program: each asserts the
// correct behaviour and fails while its fault is open. They are ignored so
// the suite passes; run one with `cargo test --release -- --ignored <name>`.

#[test]
#[ignore = "fails while fault 2 is open"]
fn fault_2_batched_plane_keeps_replay_order() {
    // Without spout max-pending, the batched plane holds more tuples in
    // flight than the splitter's resequencer keeps, so it skips gaps that
    // were never lost and the engines see a reordered stream.
    let config = SystemConfig {
        batch: Some(BatchConfig::default()),
        ..SystemConfig::default()
    };
    let input = fleet_2024();
    let rules = Workload::RuleGrid.rules();
    let (per_tuple, _) = replay(&input, SystemConfig::default(), &rules);
    for _ in 0..3 {
        let (batched, _) = replay(&input, config.clone(), &rules);
        assert_eq!(batched.len(), per_tuple.len());
    }
}

#[test]
#[ignore = "fails while fault 3 is open"]
fn fault_3_in_stream_thresholds_are_deterministic() {
    // Refresh notices reach the engines over their own edge, so where an
    // engine swaps thresholds depends on thread scheduling.
    let config = SystemConfig {
        kappa: Some(KappaConfig::default()),
        ..SystemConfig::default()
    };
    let input = fleet_2024();
    let rules = Workload::Day.rules();
    let (first, _) = replay(&input, config.clone(), &rules);
    for _ in 0..3 {
        assert_eq!(replay(&input, config.clone(), &rules).0.len(), first.len());
    }
}

#[test]
#[ignore = "fails while faults 4 and 5 are open"]
fn faults_4_and_5_merged_groupings_detect_as_the_reference() {
    // On this fleet the start-up optimizer merges the leaves and bus-stops
    // groupings into one partitioned at quadtree layer 6. Traces outside
    // the quadtree then reach no engine, so the stop rule misses them
    // (fault 4), and the leaf rule also fires at every stop its engine
    // monitors (fault 5).
    let fleet = FleetConfig::small(2);
    let history_gen = FleetGenerator::new(fleet.clone(), 0).unwrap();
    let input = Inputs {
        seeds: history_gen.route_seed_points(),
        history: history_gen.collect(),
        live: FleetGenerator::new(fleet, 1).unwrap().collect(),
    };
    let (_, check) = replay(&input, SystemConfig::default(), &Workload::Day.rules());
    assert_eq!((check.failed, check.unattributed), (0, 0), "{check:?}");
}
