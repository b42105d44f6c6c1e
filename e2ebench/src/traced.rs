//! The traced pass: the layer calls of set-up and of the Figure 8
//! pipeline composed on one thread, with a span around each call into a
//! layer. The per-layer metrics are derived from the spans. The same
//! composition with spans off gives the single-threaded baseline.

use crate::sys::Usage;
use crate::workload::{Inputs, Workload, ENGINES};
use std::io::Write;
use std::time::Instant;
use tms_batch::Dfs;
use tms_core::latency::EstimationModel;
use tms_core::offline::{self, OfflineArtifacts, OfflineConfig};
use tms_core::rules::{RuleSpec, SpatialContext};
use tms_core::system::{StartupPlan, TrafficSystem};
use tms_core::thresholds::{Detection, RuleEngine};
use tms_core::topology::detected_events_schema;
use tms_geo::{BusStopIndex, RegionQuadtree, DUBLIN_BBOX};
use tms_storage::{TableStore, ThresholdStore, Value};
use tms_traffic::{BusTrace, EnrichedTrace, Preprocessor};

/// Names of the spans, indexed by [`Span::name`].
pub const NAMES: [&str; 16] = [
    "setup",
    "core.stop_observations",
    "geo.quadtree_build",
    "geo.stop_index_build",
    "core.enrich_and_store",
    "batch.statistics_job",
    "core.region_rates",
    "core.startup_plan",
    "cep.install_rules",
    "trace",
    "traffic.preprocess",
    "geo.locate_all_layers",
    "geo.closest_stop",
    "core.split",
    "cep.send_trace",
    "storage.insert",
];

const SETUP: u8 = 0;
const STOP_OBSERVATIONS: u8 = 1;
const QUADTREE: u8 = 2;
const STOP_INDEX: u8 = 3;
const ENRICH_AND_STORE: u8 = 4;
const STATISTICS: u8 = 5;
const REGION_RATES: u8 = 6;
const STARTUP_PLAN: u8 = 7;
const INSTALL_RULES: u8 = 8;
const TRACE: u8 = 9;
const PREPROCESS: u8 = 10;
const LOCATE: u8 = 11;
const CLOSEST_STOP: u8 = 12;
const SPLIT: u8 = 13;
const SEND_TRACE: u8 = 14;
const INSERT: u8 = 15;

const NO_PARENT: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Index into [`NAMES`].
    pub name: u8,
    /// Index of the enclosing span, or `u32::MAX`.
    pub parent: u32,
    /// Start, ns since the pass began.
    pub start_ns: u64,
    /// End, ns since the pass began.
    pub end_ns: u64,
}

/// Span recorder; with `enabled` off, [`Tracer::span`] only runs the call.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder that keeps spans in memory when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; returns its index for [`Tracer::close`] and as a
    /// parent for nested spans.
    fn open(&mut self, name: u8, parent: u32) -> u32 {
        if !self.enabled {
            return NO_PARENT;
        }
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        (self.spans.len() - 1) as u32
    }

    fn close(&mut self, id: u32) {
        if self.enabled {
            let end = self.now();
            self.spans[id as usize].end_ns = end;
        }
    }

    /// Runs `f` inside a span named `name`.
    fn span<T>(&mut self, name: u8, parent: u32, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, parent);
        let out = f();
        self.close(id);
        out
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as tab-separated lines.
    pub fn write(&self, out: &mut impl Write) -> std::io::Result<()> {
        writeln!(out, "span\tparent\tname\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                String::from("-")
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}",
                NAMES[s.name as usize], s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Set-up as `TrafficSystem::bootstrap` and `startup_plan` do it, one
/// layer call at a time.
pub fn setup(
    tracer: &mut Tracer,
    workload: Workload,
    input: &Inputs,
) -> (TrafficSystem, StartupPlan) {
    let config = workload.config();
    let off: OfflineConfig = config.offline.clone();
    let root = tracer.open(SETUP, NO_PARENT);
    let observations = tracer.span(STOP_OBSERVATIONS, root, || {
        offline::stop_observations(&input.history)
    });
    let quadtree = tracer
        .span(QUADTREE, root, || {
            RegionQuadtree::build(DUBLIN_BBOX, &input.seeds, off.quadtree)
        })
        .expect("quadtree over the route vertices");
    let stops = tracer
        .span(STOP_INDEX, root, || {
            BusStopIndex::build(&observations, off.denclue, off.subcluster)
        })
        .expect("stop index over the history's stop reports");
    let spatial = SpatialContext { quadtree, stops };
    let dfs = Dfs::with_defaults();
    tracer
        .span(ENRICH_AND_STORE, root, || {
            offline::enrich_and_store(&input.history, &spatial, &dfs, "/history/day0.csv")
        })
        .expect("history stored in the DFS");
    let store = TableStore::new();
    tracer
        .span(STATISTICS, root, || {
            offline::run_statistics_job(&dfs, &["/history/day0.csv"], &store, &off)
        })
        .expect("statistics job");
    let rates = tracer.span(REGION_RATES, root, || {
        offline::region_rates(&input.history, &spatial)
    });
    let artifacts = OfflineArtifacts::new(spatial, rates, ThresholdStore::new(store.clone()));
    let system = TrafficSystem {
        artifacts,
        store,
        model: EstimationModel::default_paper_shaped(),
        config,
    };
    let plan = tracer
        .span(STARTUP_PLAN, root, || {
            system.startup_plan(&workload.rules(), ENGINES)
        })
        .expect("start-up plan");
    tracer.close(root);
    (system, plan)
}

/// What one replay of the composed pipeline produced.
#[derive(Debug, Default)]
pub struct Replay {
    /// Engine deliveries (the splitter's fan-out summed over traces).
    pub deliveries: u64,
    /// Events sent into the engines.
    pub events: u64,
    /// Detections, in firing order.
    pub detections: Vec<Detection>,
}

/// Replays the live day through the pipeline's layer calls on this
/// thread: engines prepared as the Esper bolts prepare them, then per
/// trace preprocess, area and stop enrichment, split, engine delivery and
/// storage of each detection.
pub fn replay(
    tracer: &mut Tracer,
    system: &TrafficSystem,
    plan: &StartupPlan,
    live: &[BusTrace],
) -> Replay {
    let config = &system.config;
    let mut engines: Vec<RuleEngine> = Vec::new();
    for rules in &plan.engine_plan.per_engine {
        let mut engine = RuleEngine::new(
            config.method.clone(),
            ThresholdStore::new(system.store.clone()),
            None,
        );
        engine
            .set_incremental_enabled(config.incremental)
            .expect("fresh engine");
        engine
            .set_sharing_enabled(config.sharing)
            .expect("fresh engine");
        // One install per monitored-location set, as the Esper bolt does.
        let mut batches: Vec<(&Vec<String>, Vec<RuleSpec>)> = Vec::new();
        for (spec, monitored) in rules {
            match batches.iter_mut().find(|(m, _)| *m == monitored) {
                Some((_, specs)) => specs.push(spec.clone()),
                None => batches.push((monitored, vec![spec.clone()])),
            }
        }
        for (monitored, specs) in batches {
            tracer
                .span(INSTALL_RULES, NO_PARENT, || {
                    engine.install_rules(&specs, monitored.iter().cloned())
                })
                .expect("rules install");
        }
        engines.push(engine);
    }
    let detections_store = TableStore::new();
    detections_store
        .create_table_if_missing("detected_events", detected_events_schema())
        .expect("fresh store");
    let sinks: Vec<_> = engines.iter().map(RuleEngine::detections).collect();
    let spatial = &system.artifacts.spatial;
    let mut pre = Preprocessor::new();
    let mut out = Replay::default();
    for t in live {
        let root = tracer.open(TRACE, NO_PARENT);
        let mut e: EnrichedTrace = tracer.span(PREPROCESS, root, || pre.enrich(*t));
        e.areas = tracer.span(LOCATE, root, || {
            spatial
                .quadtree
                .locate_all_layers(&e.trace.position)
                .iter()
                .map(|r| SpatialContext::region_id(r.id))
                .collect()
        });
        e.bus_stop = tracer.span(CLOSEST_STOP, root, || {
            spatial
                .stops
                .closest_stop(e.trace.line_id, e.trace.direction, &e.trace.position)
                .map(|s| SpatialContext::stop_id(s.id))
        });
        let targets = tracer.span(SPLIT, root, || plan.split_plan.engines_for(&e));
        out.deliveries += targets.len() as u64;
        for engine in targets {
            let sent = tracer
                .span(SEND_TRACE, root, || engines[engine].send_trace(&e))
                .expect("engine accepts the trace");
            out.events += sent as u64;
            let fired: Vec<Detection> = sinks[engine].lock().drain(..).collect();
            for d in fired {
                tracer
                    .span(INSERT, root, || {
                        detections_store.insert(
                            "detected_events",
                            vec![
                                Value::from(d.rule.clone()),
                                Value::from(d.location.clone()),
                                Value::Float(d.observed),
                                d.threshold.map(Value::Float).unwrap_or(Value::Null),
                                Value::Int(d.timestamp_ms as i64),
                            ],
                        )
                    })
                    .expect("detected_events exists");
                out.detections.push(d);
            }
        }
        tracer.close(root);
    }
    out
}

/// Mean duration of the spans named `name`, ns, and their total.
fn durations(spans: &[Span], name: u8) -> (f64, f64) {
    let (n, total) = spans
        .iter()
        .filter(|s| s.name == name)
        .fold((0u64, 0u64), |(n, t), s| {
            (n + 1, t + (s.end_ns - s.start_ns))
        });
    (
        if n == 0 { 0.0 } else { total as f64 / n as f64 },
        total as f64,
    )
}

/// Derives the per-layer metrics, `(name, unit, value)` in
/// `BENCHMARK.json` order, from the spans and the counts of a traced
/// replay. `sequential_cpu_us` is the spans-off pass's CPU time per trace
/// and `topology_cpu_us` the measured round's.
pub fn layers(
    spans: &[Span],
    replay: &Replay,
    traces: usize,
    sequential_cpu_us: f64,
    topology_cpu_us: f64,
) -> Vec<(&'static str, &'static str, f64)> {
    let ms = |name| durations(spans, name).1 / 1e6;
    let ns = |name| durations(spans, name).0;
    let per_trace = |v: u64| v as f64 / traces as f64;
    vec![
        ("geo.stop_index_build_ms", "ms", ms(STOP_INDEX)),
        ("core.enrich_and_store_ms", "ms", ms(ENRICH_AND_STORE)),
        ("batch.statistics_job_ms", "ms", ms(STATISTICS)),
        ("core.region_rates_ms", "ms", ms(REGION_RATES)),
        ("core.startup_plan_ms", "ms", ms(STARTUP_PLAN)),
        ("cep.install_rules_ms", "ms", ms(INSTALL_RULES)),
        ("traffic.preprocess_ns", "ns", ns(PREPROCESS)),
        ("geo.locate_all_layers_ns", "ns", ns(LOCATE)),
        ("geo.closest_stop_ns", "ns", ns(CLOSEST_STOP)),
        ("core.split_ns", "ns", ns(SPLIT)),
        ("cep.send_trace_ns", "ns", ns(SEND_TRACE)),
        ("storage.insert_ns", "ns", ns(INSERT)),
        ("core.fanout", "count", per_trace(replay.deliveries)),
        ("cep.events_per_trace", "count", per_trace(replay.events)),
        ("cep.detections", "count", replay.detections.len() as f64),
        ("sequential.cpu_us_per_trace", "us", sequential_cpu_us),
        (
            "dsps.overhead_us_per_trace",
            "us",
            topology_cpu_us - sequential_cpu_us,
        ),
    ]
}

/// The single-threaded baseline: the same replay with spans off, CPU
/// time per trace in µs, accounted as for the measured rounds.
pub fn sequential(system: &TrafficSystem, plan: &StartupPlan, live: &[BusTrace]) -> f64 {
    let mut tracer = Tracer::new(false);
    let start = Usage::now();
    replay(&mut tracer, system, plan, live);
    start.until(&Usage::now()).cpu_s * 1e6 / live.len() as f64
}
