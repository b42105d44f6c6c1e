//! End-to-end benchmark of the Figure 8 pipeline.
//!
//! ```text
//! tms-e2ebench --workload <day|rule_grid|day_reliable> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs each measured round in a child process of its own (`measure`
//! below), checks every round's detections against the independent
//! reference, and prints one JSON object as the last line of standard
//! output. With `--trace 1` it also makes the traced pass and prints the
//! per-layer metrics instead of the end-to-end ones. See `README.md` next
//! to this crate.

mod measure;
mod reference;
mod sys;
mod traced;
mod workload;

#[cfg(test)]
mod tests;

use reference::{Check, Reference};
use std::io::{BufReader, Write};
use std::process::{Command, Stdio};
use std::time::Instant;
use tms_core::offline;
use tms_geo::DUBLIN_BBOX;
use workload::{inputs, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(0.0..=3600.0).contains(&s) {
                    return Err(format!("seconds out of range: {value}"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(20.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("measure") {
        // One measured round: `measure <workload> <seed>`.
        let workload = Workload::parse(&args[1]).expect("parent passes a known workload");
        let seed = args[2].parse().expect("parent passes a numeric seed");
        let stdout = std::io::stdout();
        let mut out = std::io::BufWriter::new(stdout.lock());
        measure::run(workload, seed, &mut out).expect("stdout is writable");
        return;
    }
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: tms-e2ebench --workload <day|rule_grid|day_reliable> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    match bench(&args) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

/// Fewest rounds an end-to-end run makes, so each metric is a median of
/// several.
const MIN_ROUNDS: usize = 3;

/// Runs one measured round in a child process and parses what it printed.
fn measure_round(args: &Args) -> Result<measure::Round, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut child = Command::new(exe)
        .args(["measure", args.workload.name(), &args.seed.to_string()])
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot start the measured process: {e}"))?;
    let stdout = child.stdout.take().expect("stdout was piped");
    let parsed = measure::parse(BufReader::new(stdout));
    let status = child.wait().map_err(|e| e.to_string())?;
    if !status.success() {
        return Err(format!("measured process failed: {status}"));
    }
    parsed
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn bench(args: &Args) -> Result<String, String> {
    // The reference, from the same generated input the rounds use.
    let input = inputs(args.workload, args.seed);
    let config = args.workload.config();
    let spatial = offline::build_spatial(
        DUBLIN_BBOX,
        &input.seeds,
        &offline::stop_observations(&input.history),
        &config.offline,
    )
    .map_err(|e| format!("spatial index for the reference: {e}"))?;
    let reference = Reference::new(
        &spatial,
        &args.workload.rules(),
        &input.history,
        &input.live,
        config.offline.min_samples,
    );

    // Whole rounds until `seconds` have passed; the traced run needs one.
    let min_rounds = if args.trace { 1 } else { MIN_ROUNDS };
    let start = Instant::now();
    let mut rounds: Vec<measure::Round> = Vec::new();
    let mut checks: Vec<Check> = Vec::new();
    while rounds.len() < min_rounds || (!args.trace && start.elapsed().as_secs_f64() < args.seconds)
    {
        let mut r = measure_round(args)?;
        let c = reference.check(&r.detections, args.workload.dedup());
        eprintln!(
            "round {}: setup {:.3} s ({:.0}% stolen), run {:.3} s ({:.0}% stolen, {:.3} s CPU), \
             {} detections, {} expected, {} failed traces {:?}, {} unexplained, {} unattributed",
            rounds.len(),
            r.setup.wall_s,
            r.setup.steal_share * 100.0,
            r.run.wall_s,
            r.run.steal_share * 100.0,
            r.run.cpu_s,
            r.detections.len(),
            c.expected,
            c.failed,
            c.failed_by_rule,
            c.unexplained,
            c.unattributed
        );
        r.detections = Vec::new();
        rounds.push(r);
        checks.push(c);
    }
    let cpu_us = median(
        rounds
            .iter()
            .map(|r| r.run.cpu_s * 1e6 / r.traces as f64)
            .collect(),
    );

    let metrics = if args.trace {
        let mut tracer = traced::Tracer::new(true);
        let (system, plan) = traced::setup(&mut tracer, args.workload, &input);
        let replay = traced::replay(&mut tracer, &system, &plan, &input.live);
        write_spans(&tracer, args.workload)?;
        let c = reference.check(&replay.detections, false);
        eprintln!(
            "traced pass: {} detections, {} failed traces {:?}, {} unexplained, {} unattributed",
            replay.detections.len(),
            c.failed,
            c.failed_by_rule,
            c.unexplained,
            c.unattributed
        );
        checks.push(c);
        let seq_cpu_us = traced::sequential(&system, &plan, &input.live);
        traced::layers(
            tracer.spans(),
            &replay,
            input.live.len(),
            seq_cpu_us,
            cpu_us,
        )
    } else {
        let med = |f: fn(&measure::Round) -> f64| median(rounds.iter().map(f).collect());
        vec![
            (
                "throughput_tps",
                "traces/s",
                med(|r| r.traces as f64 / r.run.unstolen_s()),
            ),
            ("cpu_us_per_trace", "us", cpu_us),
            ("setup_s", "s", med(|r| r.setup.unstolen_s())),
            // The highest round: whether the replay's queues outgrow the
            // set-up's peak varies from round to round.
            (
                "peak_rss_mb",
                "MB",
                rounds.iter().map(|r| r.peak_rss_mb).fold(0.0, f64::max),
            ),
        ]
    };

    let attempted: usize = checks.iter().map(|c| c.traces).sum();
    let failed: usize = checks.iter().map(|c| c.failed).sum();
    let correct = checks.iter().all(Check::correct);
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*v)
            )
        })
        .collect();
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    ))
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

/// Writes the traced pass's spans next to the benchmark, one file per
/// workload (the latest run's).
fn write_spans(tracer: &traced::Tracer, workload: Workload) -> Result<(), String> {
    let dir = std::path::Path::new("e2ebench/out");
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join(format!("spans-{}.tsv", workload.name()));
    let file = std::fs::File::create(&path)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    let mut w = std::io::BufWriter::new(file);
    tracer
        .write(&mut w)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    w.flush().map_err(|e| e.to_string())
}
