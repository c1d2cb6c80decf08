//! The repository benchmark: three workloads (`decode`, `timetravel`,
//! `fuzz`) timed end to end from outside the program, plus a traced run
//! that splits each workload's cost by layer. See `README.md` for why each
//! workload exists and what each metric should move.
//!
//! Everything here calls the crates' public functions; nothing inside the
//! program is instrumented. Spans are recorded by this crate around those
//! calls ([`trace`]).

pub mod decode;
pub mod fuzz;
pub mod sim;
pub mod stats;
pub mod timetravel;
pub mod trace;

use std::collections::BTreeMap;

use stats::median;
use trace::Tracer;

/// How the untraced runs cope with a shared host. Other tenants slow
/// this process down in spells of seconds to tens of seconds, by up to
/// 2x; contention only ever adds time. So a run repeats the same seeded
/// work in passes until its time is up, at least this many times, and
/// every operation's time is the fastest it took in any pass
/// ([`stats::best_by_index`]). Medians and percentiles are then taken
/// across operations.
pub const MIN_PASSES: usize = 3;
/// Set-ups timed per pass; the fastest counts, and `setup_s` is the
/// median of those across passes.
pub const SETUPS_PER_PASS: usize = 3;

/// The CPUs this process may run on, for moving the untraced runs'
/// passes across them in turn. On a shared host one vCPU is often slowed
/// while another is not, for seconds at a time, and the scheduler leaves a
/// single thread where it is. Spread over every CPU, each operation's
/// fastest-of-passes time gets a chance on each of them.
pub struct Cpus(Vec<usize>);

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

impl Cpus {
    /// The CPUs allowed now (of the first 64); empty where unknown, and
    /// then [`Cpus::pin`] does nothing.
    pub fn allowed() -> Cpus {
        let mut mask = 0u64;
        #[cfg(target_os = "linux")]
        // SAFETY: pid 0 is this thread, and `mask` is a writable CPU set
        // of the size passed.
        if unsafe { sched_getaffinity(0, std::mem::size_of::<u64>(), &mut mask) } != 0 {
            mask = 0;
        }
        Cpus((0..64).filter(|c| mask >> c & 1 == 1).collect())
    }

    /// Run this thread on the `pass`-th allowed CPU, round robin. Best
    /// effort: where that fails the thread stays where it was.
    pub fn pin(&self, pass: usize) {
        if self.0.is_empty() {
            return;
        }
        let mask = 1u64 << self.0[pass % self.0.len()];
        #[cfg(target_os = "linux")]
        // SAFETY: pid 0 is this thread, and `mask` is a CPU set of the
        // size passed.
        unsafe {
            sched_setaffinity(0, std::mem::size_of::<u64>(), &mask);
        }
        #[cfg(not(target_os = "linux"))]
        let _ = mask;
    }
}

/// The end-to-end metrics every untraced run reports, with units. Their
/// meaning per workload is in `README.md`; the names mirror
/// `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics every traced run reports, with units. A layer
/// a workload never calls reports 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("mind.build_ms", "ms"),
    ("p2012.ns_per_cycle", "ns"),
    ("p2012.ns_per_insn", "ns"),
    ("p2012.cycles", "count"),
    ("p2012.insns", "count"),
    ("p2012.traps", "count"),
    ("p2012.insns_per_trap", "ratio"),
    ("p2012.pe_cycles.running", "count"),
    ("p2012.pe_cycles.blocked", "count"),
    ("p2012.pe_cycles.idle", "count"),
    ("pedf.run_ms", "ms"),
    ("pedf.firings", "count"),
    ("pedf.tokens", "count"),
    ("core.run_ms", "ms"),
    ("core.capture_ms", "ms"),
    ("core.tokens_tracked", "count"),
    ("replay.baseline_ms", "ms"),
    ("replay.checkpoint_ms", "ms"),
    ("replay.checkpoints", "count"),
    ("replay.pages", "count"),
    ("replay.bytes_per_checkpoint", "bytes"),
    ("replay.restore_ms", "ms"),
    ("replay.hash_ms", "ms"),
    ("dfa.analyze_ms", "ms"),
    ("bcv.verify_ms", "ms"),
    ("sched.analyze_ms", "ms"),
    ("multiverse.explore_ms", "ms"),
    ("multiverse.universes", "count"),
    ("multiverse.pruned", "count"),
    ("appgen.check_ms", "ms"),
    ("appgen.static_ms", "ms"),
    ("appgen.dynamic_ms", "ms"),
    ("appgen.rest_ms", "ms"),
    ("mind.self_ms", "ms"),
    ("pedf.self_ms", "ms"),
    ("core.self_ms", "ms"),
    ("replay.self_ms", "ms"),
    ("server.self_ms", "ms"),
    ("appgen.self_ms", "ms"),
    ("bench.self_ms", "ms"),
    ("trace.overhead", "ratio"),
];

/// The per-layer metrics that are exact work counts: they must repeat
/// byte-for-byte across traced runs of one seed.
pub const EXACT_COUNTS: &[&str] = &[
    "p2012.cycles",
    "p2012.insns",
    "p2012.traps",
    "p2012.pe_cycles.running",
    "p2012.pe_cycles.blocked",
    "p2012.pe_cycles.idle",
    "pedf.firings",
    "pedf.tokens",
    "core.tokens_tracked",
    "replay.checkpoints",
    "replay.pages",
    "multiverse.universes",
    "multiverse.pruned",
];

/// One reported number. `samples` is how many measurements it summarises
/// (1 for a count).
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub value: f64,
    pub samples: usize,
}

/// What one run of one workload produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Metric name -> value; the unit comes from [`END_TO_END`] /
    /// [`PER_LAYER`].
    pub metrics: BTreeMap<&'static str, Metric>,
    /// Workload-specific lines for the human-readable report (the
    /// workload's own metric names, e.g. `decode_mb_per_s`).
    pub notes: Vec<String>,
    /// First few failure descriptions.
    pub errors: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        self.metrics.insert(name, Metric { value, samples });
    }

    /// Count one checked operation; a failed one keeps its description.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.errors.len() < 8 {
                self.errors.push(what());
            }
        }
    }

    /// Start a traced outcome with every per-layer metric at zero.
    pub fn per_layer_zeroed() -> Outcome {
        let mut o = Outcome::default();
        for &(name, _) in PER_LAYER {
            o.set(name, 0.0, 0);
        }
        o
    }
}

/// A `/proc/self/status` field in kB, as MB (0 where unavailable).
fn status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}

/// Current resident set size of this process (`VmRSS`), in MB.
pub fn rss_mb() -> f64 {
    status_mb("VmRSS:")
}

/// SplitMix64: the benchmark's only source of randomness, seeded from
/// `--seed`, so the same seed always yields the same inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..hi` (`hi > lo`).
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo)
    }
}

/// The `p2012.*` and `pedf.*` metrics from one counted run and the mean
/// wall time of a timed one.
pub fn set_sim(out: &mut Outcome, c: &sim::SimCounts, pedf_run_ms: f64, samples: usize) {
    out.set("p2012.cycles", c.cycles as f64, 1);
    out.set("p2012.insns", c.insns as f64, 1);
    out.set("p2012.traps", c.traps as f64, 1);
    out.set(
        "p2012.insns_per_trap",
        c.insns as f64 / c.traps.max(1) as f64,
        1,
    );
    out.set("p2012.pe_cycles.running", c.running as f64, 1);
    out.set("p2012.pe_cycles.blocked", c.blocked as f64, 1);
    out.set("p2012.pe_cycles.idle", c.idle as f64, 1);
    out.set(
        "p2012.ns_per_cycle",
        pedf_run_ms * 1e6 / c.cycles.max(1) as f64,
        samples,
    );
    out.set(
        "p2012.ns_per_insn",
        pedf_run_ms * 1e6 / c.insns.max(1) as f64,
        samples,
    );
    out.set("pedf.run_ms", pedf_run_ms, samples);
    out.set("pedf.firings", c.firings as f64, 1);
    out.set("pedf.tokens", c.tokens as f64, 1);
}

/// Self time per layer over the workload's own traced operations (the
/// other ops are probes), and the tracing overhead.
pub fn set_self_and_overhead(
    out: &mut Outcome,
    t: &Tracer,
    workload_ops: std::ops::RangeInclusive<u32>,
    walls_on: &[f64],
    walls_off: &[f64],
) {
    for (layer, ms) in t.self_ms_by_layer(|op| workload_ops.contains(&op)) {
        let name = match layer {
            "mind" => "mind.self_ms",
            "pedf" => "pedf.self_ms",
            "core" => "core.self_ms",
            "replay" => "replay.self_ms",
            "server" => "server.self_ms",
            "appgen" => "appgen.self_ms",
            "bench" => "bench.self_ms",
            other => panic!("span layer `{other}` has no self-time metric"),
        };
        out.set(name, ms, 1);
    }
    out.set(
        "trace.overhead",
        median(walls_on) / median(walls_off),
        walls_on.len(),
    );
}
