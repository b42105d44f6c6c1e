//! The measured process: generates the input, sets the system up and
//! replays the live day through the Figure 8 topology once, with tracing
//! off. Each round runs in a child process of its own, so its peak
//! resident set covers nothing but that round's input, set-up and replay;
//! the parent checks the detections it prints.

use crate::sys::{self, Interval, Usage};
use crate::workload::{inputs, Workload, ENGINES};
use std::io::{BufRead, Write};
use tms_core::system::TrafficSystem;
use tms_core::thresholds::Detection;
use tms_geo::DUBLIN_BBOX;

/// One round: a fresh bootstrap and start-up plan, then one replay.
#[derive(Debug, Clone, Default)]
pub struct Round {
    /// `bootstrap` on the history day plus `startup_plan`.
    pub setup: Interval,
    /// `TrafficSystem::run`.
    pub run: Interval,
    /// Live traces replayed.
    pub traces: usize,
    /// Peak resident set of the measured process, MB.
    pub peak_rss_mb: f64,
    /// The detections the topology stored.
    pub detections: Vec<Detection>,
}

/// Makes one round and prints it to `out`: a `round` line, one line per
/// detection, and the peak resident set.
pub fn run(workload: Workload, seed: u64, out: &mut impl Write) -> std::io::Result<()> {
    let input = inputs(workload, seed);
    let u0 = Usage::now();
    let system =
        TrafficSystem::bootstrap(DUBLIN_BBOX, &input.seeds, &input.history, workload.config())
            .expect("bootstrap on the generated history");
    let plan = system
        .startup_plan(&workload.rules(), ENGINES)
        .expect("start-up plan");
    let u1 = Usage::now();
    let live = input.live.clone();
    let traces = live.len();
    let u2 = Usage::now();
    let report = system.run(live, &plan, None).expect("topology run");
    let u3 = Usage::now();
    let (setup, run) = (u0.until(&u1), u2.until(&u3));
    writeln!(
        out,
        "round {} {} {} {} {} {} {traces}",
        setup.wall_s, setup.cpu_s, setup.steal_share, run.wall_s, run.cpu_s, run.steal_share
    )?;
    for d in &report.detections {
        match d.threshold {
            Some(t) => writeln!(
                out,
                "d {} {} {} {:?} {:?}",
                d.rule, d.location, d.timestamp_ms, d.observed, t
            )?,
            None => writeln!(
                out,
                "d {} {} {} {:?} -",
                d.rule, d.location, d.timestamp_ms, d.observed
            )?,
        }
    }
    writeln!(out, "peak_rss_mb {}", sys::peak_rss_mb())?;
    out.flush()
}

/// Parses what one measured process printed.
pub fn parse(input: impl BufRead) -> Result<Round, String> {
    let mut round = None;
    let mut rss = None;
    for line in input.lines() {
        let line = line.map_err(|e| e.to_string())?;
        let mut f = line.split(' ');
        match f.next() {
            Some("round") => {
                let mut num = || -> Result<f64, String> {
                    f.next()
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| format!("bad line {line:?}"))
                };
                let mut interval = || -> Result<Interval, String> {
                    Ok(Interval {
                        wall_s: num()?,
                        cpu_s: num()?,
                        steal_share: num()?,
                    })
                };
                let (setup, run) = (interval()?, interval()?);
                let traces = num()? as usize;
                round = Some(Round {
                    setup,
                    run,
                    traces,
                    ..Round::default()
                });
            }
            Some("d") => {
                let d = parse_detection(&line).ok_or_else(|| format!("bad detection {line:?}"))?;
                round
                    .as_mut()
                    .ok_or("detection before the round line")?
                    .detections
                    .push(d);
            }
            Some("peak_rss_mb") => rss = f.next().and_then(|v| v.parse().ok()),
            _ => return Err(format!("unexpected line {line:?}")),
        }
    }
    let mut round = round.ok_or("no round line")?;
    round.peak_rss_mb = rss.ok_or("no peak_rss_mb line")?;
    Ok(round)
}

fn parse_detection(line: &str) -> Option<Detection> {
    let mut f = line.split(' ').skip(1);
    let rule = f.next()?.to_string();
    let location = f.next()?.to_string();
    let timestamp_ms = f.next()?.parse().ok()?;
    let observed = f.next()?.parse().ok()?;
    let threshold = match f.next()? {
        "-" => None,
        t => Some(t.parse().ok()?),
    };
    Some(Detection {
        rule,
        location,
        observed,
        threshold,
        timestamp_ms,
    })
}
