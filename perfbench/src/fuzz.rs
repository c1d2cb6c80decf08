//! `fuzz`: a seeded stream of `appgen::generate` apps, each checked by
//! `appgen::check_spec`, which runs every oracle D1–D8. Many small
//! builds, the three static passes, one time-travel baseline per app (the
//! D6 oracle) and multiverse searches (D8); long-run simulation is almost
//! absent. Every app must show zero divergences, and the per-oracle and
//! per-outcome counts must equal `bench::fuzz_study` over the same seeds.

use std::collections::BTreeMap;
use std::time::Instant;

use appgen::oracle::{dynamic_run, MAX_CYCLES};
use appgen::{check_spec, explore_probe, generate, static_pass, AppSpec, CheckReport};
use bench::fuzz_farm::{fuzz_study, iter_seed};
use dfdbg::{Session, Stop};
use p2012::PlatformConfig;

use crate::sim::{count_run, SimCounts};
use crate::stats::{best_by_index, fastest, mean, median, percentile};
use crate::trace::Tracer;
use crate::{
    peak_rss_mb, set_self_and_overhead, set_sim, Cpus, Outcome, MIN_PASSES, SETUPS_PER_PASS,
};

/// Apps per run: enough that the mix of shapes, and so the rate, varies
/// little from seed to seed, and for a p90 with ten beyond.
pub const APPS: u64 = 160;
/// Apps checked in a traced run.
pub const TRACE_APPS: u64 = 64;
/// Time-travel interval of the D6 oracle.
const TT_INTERVAL: u64 = 500;

fn specs(seed: u64, range: std::ops::Range<u64>) -> Vec<AppSpec> {
    range.map(|i| generate(iter_seed(seed, i))).collect()
}

/// The tallies `bench::fuzz_study` also keeps, for the agreement check.
#[derive(Debug, Default, PartialEq, Eq)]
struct Tally {
    outcomes: BTreeMap<String, u64>,
    divergences: BTreeMap<String, u64>,
    squeezed_links: u64,
    throughput_checks: u64,
    replay_checks: u64,
    explore_checks: u64,
}

impl Tally {
    fn add(&mut self, r: &Result<CheckReport, appgen::Divergence>) {
        match r {
            Ok(rep) => {
                *self.outcomes.entry(rep.observed.clone()).or_default() += 1;
                self.squeezed_links += rep.squeezed_links as u64;
                self.throughput_checks += rep.throughput_checked as u64;
                self.replay_checks += rep.replay_checked as u64;
                self.explore_checks += rep.explore_checked as u64;
            }
            Err(d) => *self.divergences.entry(d.oracle.clone()).or_default() += 1,
        }
    }

    /// The same tallies from the reference study (zero divergence buckets
    /// dropped, as `add` never creates them).
    fn of_study(seed: u64, n: u64) -> Tally {
        let s = fuzz_study(n, seed);
        Tally {
            outcomes: s.outcomes,
            divergences: s.divergences.into_iter().filter(|&(_, v)| v > 0).collect(),
            squeezed_links: s.squeezed_links,
            throughput_checks: s.throughput_checks,
            replay_checks: s.replay_checks,
            explore_checks: s.explore_checks,
        }
    }
}

/// Check one app, timed.
fn check_once(t: &mut Tracer, spec: &AppSpec) -> (Result<CheckReport, appgen::Divergence>, f64) {
    let t0 = Instant::now();
    let r = t.span("appgen.check", |_| check_spec(spec));
    (r, t0.elapsed().as_secs_f64() * 1e3)
}

/// Count a check's result; a divergence is a failed operation.
fn count(
    spec: &AppSpec,
    r: &Result<CheckReport, appgen::Divergence>,
    tally: &mut Tally,
    out: &mut Outcome,
) {
    out.check(r.is_ok(), || {
        let d = r.as_ref().unwrap_err();
        format!(
            "app seed {:#x}: {} divergence: {}",
            spec.seed, d.oracle, d.detail
        )
    });
    tally.add(r);
}

/// The untraced run: in passes for `seconds` (see [`MIN_PASSES`]),
/// generate the seeded apps and check each; every pass must report what
/// the first did. Then the same seed range goes through `fuzz_study` and
/// the tallies must agree.
pub fn run(seed: u64, seconds: f64, n: u64) -> Outcome {
    let mut out = Outcome::default();
    let mut t = Tracer::new(false);
    // Warm-up on apps outside the measured seed range; memory is read
    // after it.
    for spec in specs(!seed, 0..8) {
        let _ = check_spec(&spec);
    }
    let rss = peak_rss_mb();
    let (mut setups, mut lat, mut first) = (Vec::new(), Vec::new(), Vec::new());
    let mut tally = Tally::default();
    let cpus = Cpus::allowed();
    let start = Instant::now();
    while lat.len() < MIN_PASSES || start.elapsed().as_secs_f64() < seconds {
        cpus.pin(lat.len());
        let mut pass_setups = Vec::new();
        let mut apps = Vec::new();
        for _ in 0..SETUPS_PER_PASS {
            let t0 = Instant::now();
            apps = specs(seed, 0..n);
            pass_setups.push(t0.elapsed().as_secs_f64());
        }
        setups.push(fastest(&pass_setups));
        let mut pass_lat = Vec::with_capacity(apps.len());
        for (i, spec) in apps.iter().enumerate() {
            let (r, ms) = check_once(&mut t, spec);
            pass_lat.push(ms);
            if lat.is_empty() {
                count(spec, &r, &mut tally, &mut out);
                first.push(r);
            } else {
                out.check(r == first[i], || {
                    format!(
                        "app seed {:#x}: pass reported {r:?}, first pass {:?}",
                        spec.seed, first[i]
                    )
                });
            }
        }
        lat.push(pass_lat);
    }
    let passes = lat.len();
    let study = Tally::of_study(seed, n);
    out.check(study == tally, || {
        format!("tallies {tally:?} differ from fuzz_study {study:?}")
    });
    let lat = best_by_index(&lat);
    let rate = 1e3 * lat.len() as f64 / lat.iter().sum::<f64>();
    out.set("setup_s", median(&setups), setups.len());
    out.set("throughput", rate, passes);
    out.set("latency_p50_ms", median(&lat), lat.len());
    out.set("latency_p90_ms", percentile(&lat, 90.0), lat.len());
    out.set("peak_rss_mb", rss, 1);
    out.notes = vec![
        format!("setup_s          {:.6} s     median over {passes} passes of the fastest of {SETUPS_PER_PASS} generations of {n} specs", median(&setups)),
        format!("fuzz_apps_per_s  {rate:.2} apps/s  {n} apps through check_spec, each its fastest of {passes}"),
        format!("check_p50_ms     {:.4} ms    {n} apps, each its fastest of {passes}", median(&lat)),
        format!("check_p90_ms     {:.4} ms    {n} apps, each its fastest of {passes}", percentile(&lat, 90.0)),
        format!("peak_rss_mb      {rss:.3} MB    after the warm-up apps"),
    ];
    out
}

/// Build a generated app the way the oracle does: every module bounded
/// to the spec's step count.
fn build(spec: &AppSpec) -> Result<(pedf::System, mind::CompiledApp), String> {
    let (mut sys, app) = mind::build_with_caps(
        &spec.to_adl(),
        &spec.to_sources(),
        PlatformConfig::default(),
        &BTreeMap::new(),
    )
    .map_err(|e| e.to_string())?;
    for m in 0..spec.modules.len() {
        let id = app
            .actor(&format!("m{m}"))
            .ok_or_else(|| format!("module m{m} missing"))?;
        sys.runtime.set_max_steps(id, spec.steps);
    }
    Ok((sys, app))
}

/// Per-app layer probes, summed over the traced apps.
#[derive(Default)]
struct Probes {
    sim: SimCounts,
    tokens: u64,
    checkpoints: u64,
    pages: u64,
    universes: u64,
    pruned: u64,
    /// D8 pair time minus the static passes the pair repeats, per app.
    explore_ms: Vec<f64>,
    /// Whole D8 pair time per app (0 where the app is not eligible).
    pair_ms: Vec<f64>,
}

/// Ends a bare run the way `appgen::oracle::dynamic_run` does: quiescent,
/// faulted, or deadlocked for a stability window.
fn ended(stuck: &mut u32) -> impl FnMut(&pedf::System) -> bool + '_ {
    move |s| {
        if s.platform.is_quiescent() || s.first_fault().is_some() {
            return true;
        }
        *stuck = if s.platform.is_deadlocked() {
            *stuck + 1
        } else {
            0
        };
        *stuck > 1_000
    }
}

fn probe_app(t: &mut Tracer, spec: &AppSpec, p: &mut Probes) -> Result<(), String> {
    let (mut sys, app) = t.span("mind.build", |_| build(spec))?;
    let sources = spec.to_sources();
    t.span("dfa.analyze", |_| {
        dfa::analyze(&dfa::AnalysisInput::from_app(&app, &sources))
    });
    t.span("bcv.verify", |_| {
        bcv::verify(&bcv::AnalysisInput::from_app(&app))
    });
    t.span("sched.analyze", |_| {
        sched::analyze(&sched::AnalysisInput::from_app(&app, &sources))
    });
    let verdict = t.span("appgen.static", |_| static_pass(spec))?;
    t.span("appgen.dynamic", |_| dynamic_run(spec, &BTreeMap::new()))?;

    // Bare simulator: one timed run, one counted run on a fork.
    let mut counted = sys.fork();
    let under_debugger = sys.fork();
    sys.boot(app.boot_entry)?;
    let mut stuck = 0;
    t.span("pedf.run", |_| sys.run_until(MAX_CYCLES, ended(&mut stuck)));
    counted.boot(app.boot_entry)?;
    let mut stuck = 0;
    p.sim
        .add(&count_run(&mut counted, MAX_CYCLES, ended(&mut stuck)));

    // Under the debugger, then the D6 recording on a fork of it.
    let mut s = Session::attach(under_debugger, app.info.clone());
    s.boot(app.boot_entry)?;
    let mut rec = s.fork();
    t.span("core.run", |_| s.run(MAX_CYCLES));
    p.tokens += s.model.tokens.allocated();
    t.span("replay.baseline", |_| rec.enable_time_travel(TT_INTERVAL));
    while !matches!(
        rec.run(MAX_CYCLES),
        Stop::Quiescent | Stop::Deadlock | Stop::CycleLimit | Stop::Fault { .. }
    ) {}
    let (cps, pages) = rec.checkpoint_footprint();
    p.checkpoints += cps as u64;
    p.pages += pages as u64;

    // D8 pair, on the apps the oracle runs it for.
    let eligible = verdict.has(bcv::rules::UNORDERED_SHARED_ACCESS)
        || verdict.has(dfa::rules::STRUCTURAL_DEADLOCK)
        || verdict.has(dfa::rules::RATE_INCONSISTENT);
    let (mut pair, mut explore) = (0.0, 0.0);
    if eligible {
        let static_ms = t
            .durations_ms("appgen.static")
            .last()
            .copied()
            .unwrap_or(0.0);
        for optimized in [true, false] {
            let t0 = Instant::now();
            let rep = t
                .span("multiverse.explore", |_| explore_probe(spec, optimized))
                .map_err(|d| format!("{}: {}", d.oracle, d.detail))?;
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            pair += ms;
            explore += (ms - static_ms).max(0.0);
            p.universes += rep.stats.universes_explored;
            p.pruned += rep.stats.universes_pruned;
        }
    }
    p.pair_ms.push(pair);
    p.explore_ms.push(explore);
    Ok(())
}

/// The traced run: `n` apps checked untraced then traced, then per-app
/// layer probes.
pub fn run_traced(seed: u64, n: u64) -> (Outcome, Tracer) {
    let mut out = Outcome::per_layer_zeroed();
    let apps = specs(seed, 0..n);
    let mut off = Tracer::new(false);
    let mut t = Tracer::new(true);
    for spec in specs(!seed, 0..8) {
        let _ = check_spec(&spec);
    }
    // Each app untraced then traced, so drift hits both sides alike.
    let mut walls = [0.0; 2];
    let mut tallies = [Tally::default(), Tally::default()];
    for spec in &apps {
        for (i, tr) in [&mut off, &mut t].into_iter().enumerate() {
            tr.next_op();
            let t0 = Instant::now();
            let (r, _) = tr.span("bench.app", |tr| check_once(tr, spec));
            walls[i] += t0.elapsed().as_secs_f64();
            count(spec, &r, &mut tallies[i], &mut out);
        }
    }
    let study = Tally::of_study(seed, n);
    for tally in &tallies {
        out.check(*tally == study, || {
            format!("tallies {tally:?} differ from fuzz_study {study:?}")
        });
    }

    let mut p = Probes::default();
    for spec in &apps {
        t.next_op();
        let r = t.span("bench.probe", |t| probe_app(t, spec, &mut p));
        out.check(r.is_ok(), || {
            format!("probe of app seed {:#x}: {}", spec.seed, r.unwrap_err())
        });
    }

    let per_app = |name: &str| t.durations_ms(name).iter().sum::<f64>() / n as f64;
    let (check, stat, dynamic) = (
        per_app("appgen.check"),
        per_app("appgen.static"),
        per_app("appgen.dynamic"),
    );
    let pedf_run = per_app("pedf.run");
    let core_run = per_app("core.run");
    let n_us = n as usize;
    out.set("mind.build_ms", mean(&t.durations_ms("mind.build")), n_us);
    // Per-cycle and per-instruction costs over all apps' cycles.
    set_sim(&mut out, &p.sim, pedf_run * n as f64, n_us);
    out.set("pedf.run_ms", pedf_run, n_us);
    out.set("core.run_ms", core_run, n_us);
    out.set("core.capture_ms", core_run - pedf_run, n_us);
    out.set("core.tokens_tracked", p.tokens as f64, 1);
    out.set("replay.baseline_ms", per_app("replay.baseline"), n_us);
    out.set("replay.checkpoints", p.checkpoints as f64, 1);
    out.set("replay.pages", p.pages as f64, 1);
    out.set("dfa.analyze_ms", per_app("dfa.analyze"), n_us);
    out.set("bcv.verify_ms", per_app("bcv.verify"), n_us);
    out.set("sched.analyze_ms", per_app("sched.analyze"), n_us);
    out.set("multiverse.explore_ms", mean(&p.explore_ms), n_us);
    out.set("multiverse.universes", p.universes as f64, 1);
    out.set("multiverse.pruned", p.pruned as f64, 1);
    out.set("appgen.check_ms", check, n_us);
    out.set("appgen.static_ms", stat, n_us);
    out.set("appgen.dynamic_ms", dynamic, n_us);
    out.set(
        "appgen.rest_ms",
        check - stat - dynamic - mean(&p.pair_ms),
        n_us,
    );
    set_self_and_overhead(&mut out, &t, 1..=n as u32, &[walls[1]], &[walls[0]]);
    (out, t)
}
