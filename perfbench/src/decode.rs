//! `decode`: one long clean H.264 decode under the debugger in the
//! paper's default mode (every function breakpoint armed, time travel
//! off), repeated for the whole run. The simulator (`p2012`, `pedf`) and
//! event capture (`core`) do nearly all the work; build, the static
//! passes and `replay` do almost none.
//!
//! One operation is set-up (build, attach, boot, environment) followed
//! by a decode driven as `run` slices of [`SLICE`] cycles, the way a user
//! drives the REPL with `run N`. The sink checksum of every decode is
//! checked against `h264_pipeline::golden`.

use std::time::Instant;

use dfdbg::{Session, Stop};
use h264_pipeline::{attach_env, build_decoder, golden, Bug, CompiledApp};
use p2012::PlatformConfig;

use crate::sim::{bare_decoder, count_run, timed_run};
use crate::stats::{best_by_index, fastest, mean, median, percentile};
use crate::trace::Tracer;
use crate::{
    peak_rss_mb, set_self_and_overhead, set_sim, Cpus, Outcome, Rng, MIN_PASSES, SETUPS_PER_PASS,
};

/// Macroblocks per decode: long enough that per-decode set-up is under
/// 1% of the decode.
pub const N_MBS: u64 = 2048;
/// Cycles per `run` command; the latency metric is the wall time of one.
/// A decode takes about 117 of them, enough for a p90 with ten beyond.
const SLICE: u64 = 5_000;
/// Decodes compared traced vs. untraced in a traced run.
const TRACE_REPS: usize = 3;

/// The bitstream seed the environment source is driven with.
fn env_seed(seed: u64) -> u32 {
    Rng::new(seed).next_u64() as u32 | 1
}

/// Set-up: build, attach, boot, environment.
fn setup(t: &mut Tracer, n_mbs: u64, env: u32) -> Result<(Session, CompiledApp), String> {
    let (sys, app) = t
        .span("mind.build", |_| {
            build_decoder(Bug::None, n_mbs, PlatformConfig::default())
        })
        .map_err(|e| format!("build: {e}"))?;
    let mut s = t.span("core.attach", |_| Session::attach(sys, app.info.clone()));
    t.span("core.boot", |_| s.boot(app.boot_entry))?;
    t.span("pedf.env", |_| attach_env(&mut s.sys, &app, n_mbs, env))?;
    Ok((s, app))
}

/// Decode to the end in `run` slices; returns each slice's wall time in ms.
fn decode(t: &mut Tracer, s: &mut Session) -> Result<Vec<f64>, String> {
    let mut slices = Vec::new();
    loop {
        let t0 = Instant::now();
        let stop = t.span("core.run", |_| s.run(SLICE));
        slices.push(t0.elapsed().as_secs_f64() * 1e3);
        match stop {
            Stop::Quiescent => return Ok(slices),
            Stop::Deadlock => return Err(format!("deadlock at cycle {}", s.clock())),
            Stop::Fault { pe, fault } => return Err(format!("fault on {pe}: {fault}")),
            _ => {}
        }
    }
}

/// The sink checksum against the golden model's.
fn checksum_ok(s: &Session, app: &CompiledApp, expect: u64) -> bool {
    s.sys
        .runtime
        .sink_for(app.boundary_out["frame_out"])
        .is_some_and(|sink| sink.checksum == expect)
}

struct OpResult {
    setup_s: f64,
    decode_s: f64,
    slices: Vec<f64>,
    tokens: u64,
    ok: Result<(), String>,
}

/// One operation: set up, decode, check.
fn op(t: &mut Tracer, n_mbs: u64, env: u32, expect: u64) -> OpResult {
    t.next_op();
    t.span("bench.decode", |t| {
        let t0 = Instant::now();
        let (mut s, app) = match setup(t, n_mbs, env) {
            Ok(v) => v,
            Err(e) => {
                return OpResult {
                    setup_s: 0.0,
                    decode_s: 0.0,
                    slices: vec![],
                    tokens: 0,
                    ok: Err(e),
                }
            }
        };
        let setup_s = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let run = decode(t, &mut s);
        let decode_s = t1.elapsed().as_secs_f64();
        let ok = match &run {
            Err(e) => Err(e.clone()),
            Ok(_) if t.span("bench.check", |_| checksum_ok(&s, &app, expect)) => Ok(()),
            Ok(_) => Err("sink checksum differs from the golden model".to_string()),
        };
        OpResult {
            setup_s,
            decode_s,
            slices: run.unwrap_or_default(),
            tokens: s.model.tokens.allocated(),
            ok,
        }
    })
}

fn expected_checksum(n_mbs: u64, env: u32) -> u64 {
    golden::checksum(&golden::decode_stream(n_mbs as u32, env))
}

/// The untraced run: decode in passes for `seconds` (see [`MIN_PASSES`]
/// for why the fastest pass counts), report the end-to-end metrics.
pub fn run(seed: u64, seconds: f64, n_mbs: u64) -> Outcome {
    let env = env_seed(seed);
    let expect = expected_checksum(n_mbs, env);
    let mut t = Tracer::new(false);
    let mut out = Outcome::default();
    // Warm-up: first-touch page faults are not what a user of a
    // long-lived debugger pays per decode. Memory is read after it: what
    // one decode needs. Later growth comes from allocator reuse patterns
    // that differ run to run.
    let _ = op(&mut t, n_mbs, env, expect);
    let rss = peak_rss_mb();
    let (mut setups, mut slices) = (Vec::new(), Vec::new());
    let cpus = Cpus::allowed();
    let start = Instant::now();
    while slices.len() < MIN_PASSES || start.elapsed().as_secs_f64() < seconds {
        cpus.pin(slices.len());
        let mut pass_setups = Vec::new();
        for _ in 1..SETUPS_PER_PASS {
            let t0 = Instant::now();
            let built = setup(&mut t, n_mbs, env);
            pass_setups.push(t0.elapsed().as_secs_f64());
            out.check(built.is_ok(), || built.err().unwrap_or_default());
        }
        let r = op(&mut t, n_mbs, env, expect);
        out.check(r.ok.is_ok(), || r.ok.clone().unwrap_err());
        if r.ok.is_err() {
            break;
        }
        pass_setups.push(r.setup_s);
        setups.push(fastest(&pass_setups));
        slices.push(r.slices);
    }
    let passes = slices.len();
    let slices = best_by_index(&slices);
    // The decode's undisturbed time: its slices, each at its fastest.
    let rate = 1e3 * n_mbs as f64 / slices.iter().sum::<f64>();
    out.set("setup_s", median(&setups), setups.len());
    out.set("throughput", rate, passes);
    out.set("latency_p50_ms", median(&slices), slices.len());
    out.set("latency_p90_ms", percentile(&slices, 90.0), slices.len());
    out.set("peak_rss_mb", rss, 1);
    out.notes = vec![
        format!("setup_s          {:.6} s     median over {passes} passes of the fastest of {SETUPS_PER_PASS} set-ups (build, attach, boot, env)", median(&setups)),
        format!("decode_mb_per_s  {rate:.1} MB/s  {n_mbs} macroblocks over the decode's slices, each its fastest of {passes}"),
        format!("run_slice_p50_ms {:.4} ms    `run {SLICE}` latency, {} slices, each its fastest of {passes}", median(&slices), slices.len()),
        format!("run_slice_p90_ms {:.4} ms    `run {SLICE}` latency, {} slices, each its fastest of {passes}", percentile(&slices, 90.0), slices.len()),
        format!("peak_rss_mb      {rss:.3} MB    after the first decode"),
    ];
    out
}

/// The traced run: the same operation traced and untraced, then bare-
/// simulator probes for the `p2012` / `pedf` split.
pub fn run_traced(seed: u64, n_mbs: u64) -> (Outcome, Tracer) {
    let env = env_seed(seed);
    let expect = expected_checksum(n_mbs, env);
    let mut out = Outcome::per_layer_zeroed();
    let mut off = Tracer::new(false);
    let _ = op(&mut off, n_mbs, env, expect);
    let mut t = Tracer::new(true);
    let (mut walls_off, mut walls_on) = (Vec::new(), Vec::new());
    let mut tokens = 0;
    for _ in 0..TRACE_REPS {
        for (tr, walls) in [(&mut off, &mut walls_off), (&mut t, &mut walls_on)] {
            let r = op(tr, n_mbs, env, expect);
            out.check(r.ok.is_ok(), || r.ok.clone().unwrap_err());
            walls.push(r.setup_s + r.decode_s);
            tokens = r.tokens;
        }
    }
    let workload_ops = 1..=t.op();
    let core_run = t.durations_ms("core.run").iter().sum::<f64>() / TRACE_REPS as f64;

    // Bare-simulator probes on the same input: timed runs, then one
    // counted run (its per-cycle status sampling is not timed).
    let mut bare_ms = Vec::new();
    for _ in 0..TRACE_REPS {
        t.next_op();
        let mut sys = bare_decoder(n_mbs, env);
        bare_ms.push(t.span("pedf.run", |_| {
            timed_run(&mut sys, u64::MAX, |s| s.platform.is_quiescent())
        }));
    }
    let mut sys = bare_decoder(n_mbs, env);
    let c = count_run(&mut sys, u64::MAX, |s| s.platform.is_quiescent());
    let sink_ok = sys
        .runtime
        .sinks()
        .first()
        .is_some_and(|s| s.checksum == expect);
    out.check(sink_ok, || {
        "bare decode checksum differs from the golden model".into()
    });

    let pedf_run = mean(&bare_ms);
    out.set(
        "mind.build_ms",
        mean(&t.durations_ms("mind.build")),
        TRACE_REPS,
    );
    set_sim(&mut out, &c, pedf_run, TRACE_REPS);
    out.set("core.run_ms", core_run, TRACE_REPS);
    out.set("core.capture_ms", core_run - pedf_run, TRACE_REPS);
    out.set("core.tokens_tracked", tokens as f64, 1);
    set_self_and_overhead(&mut out, &t, workload_ops, &walls_on, &walls_off);
    (out, t)
}
