//! `dfdbg-serve` — the remote multi-session debug server.
//!
//! ```text
//! dfdbg-serve --serve 127.0.0.1:4711 [--idle-timeout-ms N] [--cmd-timeout-ms N]
//!             [--max-output-bytes N] [--evict-after-ms N] [--state-dir DIR]
//!             [--no-attach-cache]
//! dfdbg-serve --self-check
//! ```
//!
//! `--serve` binds the wire protocol (see README "Remote debugging") and
//! blocks until SIGTERM/SIGINT or a client issues `shutdown`; either way
//! the server drains gracefully, checkpointing live time-travel sessions
//! before closing. With `--state-dir`, the drain also persists each
//! session's replay recipe and announces a resume token; a reconnecting
//! `dfdbg-repl --connect` continues with `resume <token>`. With
//! `--evict-after-ms`, idle sessions are demoted to their recipe (memory
//! freed) and transparently rebuilt on the next command.
//! `--no-attach-cache` disables the compile-once attach cache — only
//! useful to measure the per-session-recompile baseline (E8).
//!
//! `--self-check` is the CI gate: it boots the server on an ephemeral
//! port, drives the scripted §III deadlock diagnosis over real TCP,
//! byte-compares the remote transcript against the in-process run of the
//! same script, repeats the comparison for the static-analysis script
//! (`analyze` + `analyze --json`) on the deadlock and race variants,
//! scrapes `/metrics` over HTTP and sanity-checks the counters. Any
//! difference exits nonzero with both transcripts printed.

use std::sync::{Arc, OnceLock};
use std::time::Duration;

use dataflow_debugger::h264::Bug;
use dataflow_debugger::server::{
    local_transcript, remote_transcript, scrape_metrics, Server, ServerConfig, Shared,
    ANALYZE_SCRIPT, DEADLOCK_SCRIPT, EXPLORE_SCRIPT, SCRIPT_N_MBS,
};

const USAGE: &str = "usage: dfdbg-serve --serve <addr> [--idle-timeout-ms N] \
                     [--cmd-timeout-ms N] [--max-output-bytes N] [--evict-after-ms N] \
                     [--state-dir DIR] [--no-attach-cache] | --self-check";

/// The signal handler can only reach process globals; the serving
/// instance registers its shared state here.
static SIGNALLED: OnceLock<Arc<Shared>> = OnceLock::new();

#[cfg(unix)]
mod sig {
    //! Minimal SIGTERM/SIGINT hookup without the libc crate (the build
    //! environment is offline): `signal` comes from the C runtime we are
    //! already linked against, and the handler only performs an atomic
    //! store, which is async-signal-safe.
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" fn on_signal(_sig: i32) {
        if let Some(shared) = super::SIGNALLED.get() {
            shared.request_shutdown();
        }
    }

    pub fn install() {
        unsafe {
            signal(SIGTERM, on_signal);
            signal(SIGINT, on_signal);
        }
    }
}

fn main() {
    let mut addr: Option<String> = None;
    let mut self_check = false;
    let mut cfg = ServerConfig::default();
    let mut args = std::env::args().skip(1);
    let missing = |flag: &str| {
        eprintln!("dfdbg-serve: {flag} needs a value\n{USAGE}");
        std::process::exit(2);
    };
    while let Some(a) = args.next() {
        match a.as_str() {
            "--serve" => addr = Some(args.next().unwrap_or_else(|| missing("--serve"))),
            "--self-check" => self_check = true,
            "--idle-timeout-ms" => {
                let v = args.next().unwrap_or_else(|| missing("--idle-timeout-ms"));
                cfg.idle_timeout = Duration::from_millis(parse_num(&v, "--idle-timeout-ms"));
            }
            "--cmd-timeout-ms" => {
                let v = args.next().unwrap_or_else(|| missing("--cmd-timeout-ms"));
                cfg.cmd_timeout = Duration::from_millis(parse_num(&v, "--cmd-timeout-ms"));
            }
            "--max-output-bytes" => {
                let v = args.next().unwrap_or_else(|| missing("--max-output-bytes"));
                cfg.max_output_bytes = parse_num(&v, "--max-output-bytes") as usize;
            }
            "--evict-after-ms" => {
                let v = args.next().unwrap_or_else(|| missing("--evict-after-ms"));
                cfg.evict_after = Some(Duration::from_millis(parse_num(&v, "--evict-after-ms")));
            }
            "--state-dir" => {
                let v = args.next().unwrap_or_else(|| missing("--state-dir"));
                cfg.state_dir = Some(std::path::PathBuf::from(v));
            }
            "--no-attach-cache" => cfg.attach_cache = false,
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other => {
                eprintln!("dfdbg-serve: unexpected argument `{other}`\n{USAGE}");
                std::process::exit(2);
            }
        }
    }
    if self_check {
        std::process::exit(run_self_check(cfg));
    }
    let Some(addr) = addr else {
        eprintln!("dfdbg-serve: --serve <addr> or --self-check required\n{USAGE}");
        std::process::exit(2);
    };
    let server = match Server::bind(&addr, cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("dfdbg-serve: binding {addr}: {e}");
            std::process::exit(1);
        }
    };
    let shared = server.shared();
    let _ = SIGNALLED.set(Arc::clone(&shared));
    #[cfg(unix)]
    sig::install();
    println!(
        "dfdbg-serve: listening on {} (wire protocol; GET /metrics for metrics)",
        server.local_addr()
    );
    server.run();
    println!("dfdbg-serve: drained, bye");
}

fn parse_num(s: &str, flag: &str) -> u64 {
    match s.parse::<u64>() {
        Ok(n) => n,
        Err(_) => {
            eprintln!("dfdbg-serve: bad value `{s}` for {flag}\n{USAGE}");
            std::process::exit(2);
        }
    }
}

/// The CI gate: remote transcript over real TCP must be byte-identical
/// to the in-process run, and `/metrics` must add up.
fn run_self_check(cfg: ServerConfig) -> i32 {
    println!("self-check: booting the server on an ephemeral port");
    let server = match Server::bind("127.0.0.1:0", cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("self-check: bind failed: {e}");
            return 1;
        }
    };
    let addr = server.local_addr();
    let shared = server.shared();
    let server_thread = std::thread::spawn(move || server.run());

    println!("self-check: running the scripted deadlock diagnosis in-process");
    let local = match local_transcript(Bug::Deadlock, SCRIPT_N_MBS, DEADLOCK_SCRIPT) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("self-check: in-process transcript failed: {e}");
            shared.request_shutdown();
            let _ = server_thread.join();
            return 1;
        }
    };
    println!("self-check: replaying the same script over TCP ({addr})");
    let remote = match remote_transcript(addr, Bug::Deadlock, SCRIPT_N_MBS, DEADLOCK_SCRIPT) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("self-check: remote transcript failed: {e}");
            shared.request_shutdown();
            let _ = server_thread.join();
            return 1;
        }
    };
    let mut failures = 0;
    if local == remote {
        println!(
            "self-check: transcripts are byte-identical ({} bytes, {} commands)",
            local.len(),
            DEADLOCK_SCRIPT.len()
        );
    } else {
        failures += 1;
        eprintln!("self-check: TRANSCRIPTS DIFFER");
        eprintln!("---- in-process ----\n{local}");
        eprintln!("---- remote ----\n{remote}");
    }

    // Static-analysis parity: the findings table and its JSON rendering
    // (dfa + bcv + sched merged) must be byte-identical remotely for a
    // dataflow bug and a race bug.
    for (bug, name) in [(Bug::Deadlock, "deadlock"), (Bug::SharedScratch, "race")] {
        println!("self-check: analyzer parity on the {name} variant");
        let local = match local_transcript(bug, SCRIPT_N_MBS, ANALYZE_SCRIPT) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("self-check: in-process {name} analysis failed: {e}");
                failures += 1;
                continue;
            }
        };
        let remote = match remote_transcript(addr, bug, SCRIPT_N_MBS, ANALYZE_SCRIPT) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("self-check: remote {name} analysis failed: {e}");
                failures += 1;
                continue;
            }
        };
        if local == remote {
            println!(
                "self-check: {name} analyzer transcripts are byte-identical ({} bytes)",
                local.len()
            );
        } else {
            failures += 1;
            eprintln!("self-check: {name} ANALYZER TRANSCRIPTS DIFFER");
            eprintln!("---- in-process ----\n{local}");
            eprintln!("---- remote ----\n{remote}");
        }
    }

    // Multiverse parity: the bounded exploration (search narration,
    // witness line, summary) is deterministic, so the remote transcript
    // must be byte-identical to the in-process one.
    const EXPLORE_N_MBS: u64 = 4;
    println!("self-check: explore parity on the race variant");
    match (
        local_transcript(Bug::SharedScratch, EXPLORE_N_MBS, EXPLORE_SCRIPT),
        remote_transcript(addr, Bug::SharedScratch, EXPLORE_N_MBS, EXPLORE_SCRIPT),
    ) {
        (Ok(local), Ok(remote)) if local == remote => {
            if local.contains("WITNESS MV702") {
                println!(
                    "self-check: explore transcripts are byte-identical ({} bytes, witnessed)",
                    local.len()
                );
            } else {
                failures += 1;
                eprintln!("self-check: explore found no MV702 witness\n{local}");
            }
        }
        (Ok(local), Ok(remote)) => {
            failures += 1;
            eprintln!("self-check: EXPLORE TRANSCRIPTS DIFFER");
            eprintln!("---- in-process ----\n{local}");
            eprintln!("---- remote ----\n{remote}");
        }
        (Err(e), _) | (_, Err(e)) => {
            failures += 1;
            eprintln!("self-check: explore transcript failed: {e}");
        }
    }

    let metrics = match scrape_metrics(addr) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("self-check: /metrics scrape failed: {e}");
            shared.request_shutdown();
            let _ = server_thread.join();
            return 1;
        }
    };
    // The series count, not the byte count: histogram sums are wall times,
    // so the text's length varies from run to run.
    println!(
        "self-check: /metrics scraped ({} series)",
        metrics.lines().filter(|l| l.starts_with("# TYPE ")).count()
    );
    for (name, at_least) in [
        ("dfdbg_sessions_total", 1),
        ("dfdbg_commands_total", DEADLOCK_SCRIPT.len() as u64),
        ("dfdbg_command_seconds_count", DEADLOCK_SCRIPT.len() as u64),
        ("dfdbg_bytes_out_total", 1),
        ("dfdbg_attach_cache_misses_total", 1),
        ("dfdbg_attach_seconds_count", 1),
    ] {
        match metric_value(&metrics, name) {
            Some(v) if v >= at_least => {
                println!("self-check: {name} = {v} (>= {at_least})");
            }
            Some(v) => {
                failures += 1;
                eprintln!("self-check: {name} = {v}, expected >= {at_least}");
            }
            None => {
                failures += 1;
                eprintln!("self-check: {name} missing from /metrics:\n{metrics}");
            }
        }
    }

    shared.request_shutdown();
    let _ = server_thread.join();
    if failures == 0 {
        println!("self-check: OK");
        0
    } else {
        eprintln!("self-check: {failures} failure(s)");
        1
    }
}

/// Read one un-labelled counter/gauge value from the text exposition.
fn metric_value(metrics: &str, name: &str) -> Option<u64> {
    metrics.lines().find_map(|l| {
        let rest = l.strip_prefix(name)?;
        let rest = rest.strip_prefix(' ')?;
        rest.trim().parse::<f64>().ok().map(|v| v as u64)
    })
}
