//! `perfbench --workload <decode|timetravel|fuzz> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload in this process and prints a human-readable report
//! followed, as the last line, by one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! With `--trace 0` the metrics are the end-to-end ones; with `--trace 1`
//! the per-layer ones, and the spans are written to
//! `.bench_out/trace-<workload>-<seed>.json`. Exits 1 if any correctness
//! check failed, 2 on bad arguments.

use std::process::ExitCode;

use perfbench::{decode, fuzz, timetravel, Outcome, END_TO_END, PER_LAYER};

const USAGE: &str =
    "usage: perfbench --workload <decode|timetravel|fuzz> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {val}");
        match flag.as_str() {
            "--workload" => a.workload = val.clone(),
            "--seed" => a.seed = val.parse().map_err(|_| bad())?,
            "--seconds" => a.seconds = val.parse().map_err(|_| bad())?,
            "--trace" => a.trace = val.parse::<u8>().map_err(|_| bad())? == 1,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(a)
}

fn json(o: &Outcome, table: &[(&str, &str)]) -> String {
    let metrics: Vec<String> = table
        .iter()
        .map(|&(name, unit)| {
            // A failed run can leave a metric without samples; JSON has no NaN.
            let v = o
                .metrics
                .get(name)
                .map(|m| m.value)
                .filter(|v| v.is_finite());
            let v = v.map_or("null".to_string(), |v| v.to_string());
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.failed == 0,
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let a = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let (out, tracer) = match (a.workload.as_str(), a.trace) {
        ("decode", false) => (decode::run(a.seed, a.seconds, decode::N_MBS), None),
        ("decode", true) => {
            let (o, t) = decode::run_traced(a.seed, decode::N_MBS);
            (o, Some(t))
        }
        ("timetravel", false) => (
            timetravel::run(a.seed, a.seconds, timetravel::N_MBS, timetravel::TRIPLES),
            None,
        ),
        ("timetravel", true) => {
            let (o, t) = timetravel::run_traced(a.seed, timetravel::N_MBS, timetravel::TRIPLES);
            (o, Some(t))
        }
        ("fuzz", false) => (fuzz::run(a.seed, a.seconds, fuzz::APPS), None),
        ("fuzz", true) => {
            let (o, t) = fuzz::run_traced(a.seed, fuzz::TRACE_APPS);
            (o, Some(t))
        }
        (w, _) => {
            eprintln!("unknown workload `{w}`\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let table = if a.trace { PER_LAYER } else { END_TO_END };
    println!(
        "workload {} seed {} trace {}",
        a.workload, a.seed, a.trace as u8
    );
    for line in &out.notes {
        println!("  {line}");
    }
    for &(name, unit) in table {
        if let Some(m) = out.metrics.get(name) {
            println!("  {name:<28} {:>16.6} {unit:<6} n={}", m.value, m.samples);
        }
    }
    println!(
        "  error_rate {} ({} failed / {} attempted)",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    );
    for e in &out.errors {
        println!("  FAILED: {e}");
    }
    if let Some(t) = tracer {
        let path = format!(".bench_out/trace-{}-{}.json", a.workload, a.seed);
        let written =
            std::fs::create_dir_all(".bench_out").and_then(|()| std::fs::write(&path, t.to_json()));
        match written {
            Ok(()) => println!("  spans: {} written to {path}", t.spans().len()),
            Err(e) => println!("  spans: {} (not written: {e})", t.spans().len()),
        }
    }
    println!("{}", json(&out, table));
    if out.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
