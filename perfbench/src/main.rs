//! Pinned, fixed-work benchmark of the cpplookup serving stack.
//!
//! ```text
//! perfbench --workload <query_hot|batch_cold|edit_mix> --seed N --seconds S --trace <0|1>
//! ```
//!
//! `--trace 0` runs the workload's fixed request stream untraced and
//! reports the end-to-end metrics; `--trace 1` replays a prefix of the
//! same stream through each layer's public entry points and reports the
//! per-layer metrics. Either way the last line of standard output is one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`. Every
//! answer is checked before anything is reported. See README.md.

mod host;
mod inputs;
mod serve;
mod stats;
mod trace;

use std::io;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use host::{HostRecord, Placement};
use inputs::{Inputs, Workload};
use serve::{PostEditSample, Tally, Timed};
use stats::{median, Summary};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad seconds {value}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(30),
        trace: trace.unwrap_or(false),
    })
}

/// One reported metric: name, value, unit.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

fn json_line(correct: bool, tally: &Tally, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let work = PathBuf::from(".bench_out").join(format!("work-{}", std::process::id()));
    let result = run(&args, &work);
    let _ = std::fs::remove_dir_all(&work);
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!(
                "perfbench: {} seed {}: {e}",
                args.workload.name(),
                args.seed
            );
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args, work: &Path) -> io::Result<String> {
    let host = HostRecord::start();
    let placement = Placement::pin_server_side()?;
    let inputs = Inputs::generate(args.workload, args.seed, args.seconds);
    println!(
        "workload {} seed {}: {} tenants x {} classes, {} live pairs, {} requests{}",
        args.workload.name(),
        args.seed,
        inputs.spec.tenants,
        inputs.spec.classes,
        inputs.tenants.iter().map(|t| t.pairs.len()).sum::<usize>(),
        inputs.ops.len(),
        if inputs.script.is_empty() {
            String::new()
        } else {
            format!(", {} edits", inputs.script.len())
        }
    );
    let (correct, tally, metrics) = if args.trace {
        trace::run(&inputs, work, &placement)?
    } else {
        untraced(&inputs, work, &placement)?
    };
    println!("{}", host.finish(&placement));
    Ok(json_line(correct, &tally, &metrics))
}

/// The untraced run behind every end-to-end metric.
///
/// The timed stream is cut into `spec.slices` slices, and every slice
/// first takes one set-up sample and `spec.restarts_per_slice` restart
/// samples, so each metric's median covers the whole run. On the
/// read-only workloads the last restart of a slice serves its rounds.
/// On edit_mix one server, the first set-up's, serves the whole
/// stream, since its edits must land in order on one log; the restarts
/// replay a log of the same script written up front, and the timed
/// server's log is checked to hold the same records at the end.
fn untraced(
    inputs: &Inputs,
    work: &Path,
    placement: &Placement,
) -> io::Result<(bool, Tally, Vec<Metric>)> {
    let spec = &inputs.spec;
    let edits = !inputs.script.is_empty();
    let main_dir = work.join("main");
    let log_dir = work.join("log");
    let mut setup_s = Vec::new();
    let mut recovery_s = Vec::new();
    let mut timed = Timed::default();

    let (mut server, first_epoch, secs) = serve::setup(inputs, &main_dir, placement)?;
    setup_s.push(secs);
    timed.last_epoch = first_epoch;
    let mut tally = serve::check_all_pairs(&server, inputs, placement)?;
    println!(
        "check before timing: every live pair in {} bulk requests, {} failed",
        tally.attempted, tally.failed
    );
    let sample = edits.then(|| PostEditSample::build(inputs));
    if edits {
        setup_s.push(serve::prepare_log(inputs, &log_dir, placement, &mut tally)?);
    }

    let rounds = inputs.ops.len().div_ceil(spec.round);
    let slice_len = rounds.div_ceil(spec.slices) * spec.round;
    for (i, ops) in inputs.ops.chunks(slice_len).enumerate() {
        if let Some(sample) = &sample {
            if i > 0 {
                let (setup_server, _, secs) = serve::setup(inputs, &work.join("setup"), placement)?;
                setup_s.push(secs);
                serve::shut_down(setup_server);
            }
            for _ in 0..spec.restarts_per_slice {
                let (restarted, secs) = serve::restart(inputs, &log_dir, placement)?;
                recovery_s.push(secs);
                sample.check(&restarted, placement, &mut tally)?;
                serve::shut_down(restarted);
            }
        } else {
            // Each server is shut down before the next starts, so peak
            // memory stays that of one.
            if i > 0 {
                serve::shut_down(server);
                let (fresh, _, secs) = serve::setup(inputs, &main_dir, placement)?;
                setup_s.push(secs);
                server = fresh;
            }
            for _ in 0..spec.restarts_per_slice {
                serve::shut_down(server);
                let (restarted, secs) = serve::restart(inputs, &main_dir, placement)?;
                recovery_s.push(secs);
                server = restarted;
            }
        }
        serve::timed_loop(&server, inputs, placement, ops, &mut timed, &mut tally)?;
    }
    let peak_rss_mb = host::peak_rss_mib().unwrap_or(f64::NAN);

    if let Some(sample) = &sample {
        sample.check(&server, placement, &mut tally)?;
        tally.record(serve::same_log(
            &serve::wal_path(&main_dir),
            &serve::wal_path(&log_dir),
        ));
    }
    serve::shut_down(server);

    let mut read_us = timed.read_us;
    let mut edit_ms = timed.edit_ms;
    let mut rates = timed.round_probes_per_s;
    let read = Summary::of(&mut read_us).ok_or_else(|| io::Error::other("no reads"))?;
    let setup_med = median(&mut setup_s).expect("set-ups ran");
    let recovery_med = median(&mut recovery_s).expect("restarts ran");
    let rate = median(&mut rates).expect("rounds ran");
    println!(
        "set-ups: {}, seconds {}",
        setup_s.len(),
        stats::five_numbers(&mut setup_s, 4)
    );
    println!(
        "restarts: {}, seconds {}",
        recovery_s.len(),
        stats::five_numbers(&mut recovery_s, 4)
    );
    println!(
        "rounds: {} of {} requests, probes/s {}",
        rates.len(),
        inputs.spec.round,
        stats::five_numbers(&mut rates, 0)
    );

    let gated = [
        ("setup_s", setup_med, "s", setup_s.len()),
        ("probes_per_s", rate, "1/s", rates.len()),
        ("req_p50_us", read.p50, "us", read.count),
        ("req_p75_us", read.p75, "us", read.count),
        ("recovery_s", recovery_med, "s", recovery_s.len()),
        ("peak_rss_mb", peak_rss_mb, "MiB", 1),
    ];
    let mut printed = vec![
        ("req_p90_us", read.p90, "us", read.count),
        ("req_p95_us", read.p95, "us", read.count),
        ("req_p99_us", read.p99, "us", read.count),
    ];
    if let Some(edit) = Summary::of(&mut edit_ms) {
        printed.push(("edit_p50_ms", edit.p50, "ms", edit.count));
        printed.push(("edit_p95_ms", edit.p95, "ms", edit.count));
    }
    printed.push((
        "fail_frac",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        "",
        tally.attempted as usize,
    ));
    println!("{:<16} {:>14} {:<6} samples", "metric", "value", "unit");
    for (name, value, unit, n) in gated.iter().chain(&printed) {
        println!("{name:<16} {value:>14.4} {unit:<6} {n}");
    }
    for note in &tally.notes {
        println!("failure: {note}");
    }

    let metrics: Vec<Metric> = gated
        .iter()
        .map(|&(name, value, unit, _)| Metric { name, value, unit })
        .collect();
    let correct = tally.failed == 0 && metrics.iter().all(|m| m.value.is_finite());
    Ok((correct, tally, metrics))
}
