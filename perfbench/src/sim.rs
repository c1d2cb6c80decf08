//! Bare-simulator layer probes: a decoder or generated app run on a
//! `pedf::System` with no debugger attached, stepped one cycle at a time
//! so every `CycleReport` and every PE's status can be counted.

use std::time::Instant;

use h264_pipeline::{attach_env, build_decoder, Bug};
use p2012::{PeStatus, PlatformConfig};
use pedf::System;

/// Exact work counts of one bare run, from `System::step` reports and
/// `pe_status` sampled after every step.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimCounts {
    pub cycles: u64,
    pub insns: u64,
    pub traps: u64,
    pub running: u64,
    pub blocked: u64,
    pub idle: u64,
    pub firings: u64,
    pub tokens: u64,
}

impl SimCounts {
    pub fn add(&mut self, o: &SimCounts) {
        self.cycles += o.cycles;
        self.insns += o.insns;
        self.traps += o.traps;
        self.running += o.running;
        self.blocked += o.blocked;
        self.idle += o.idle;
        self.firings += o.firings;
        self.tokens += o.tokens;
    }
}

/// Step `sys` until `done` holds or `max_cycles` pass, counting. Firings
/// and tokens are the runtime's own counters, taken as deltas so boot-time
/// activity is excluded.
pub fn count_run(
    sys: &mut System,
    max_cycles: u64,
    mut done: impl FnMut(&System) -> bool,
) -> SimCounts {
    let firings0 = sys.runtime.stats.work_invocations;
    let tokens0 = sys.runtime.stats.tokens_pushed;
    let mut c = SimCounts::default();
    while c.cycles < max_cycles && !done(sys) {
        let r = sys.step();
        c.cycles += 1;
        c.insns += r.executed as u64;
        c.traps += r.traps as u64;
        for pe in &sys.platform.pes {
            match pe.status {
                PeStatus::Running => c.running += 1,
                PeStatus::Blocked(_) => c.blocked += 1,
                _ => c.idle += 1,
            }
        }
    }
    c.firings = sys.runtime.stats.work_invocations - firings0;
    c.tokens = sys.runtime.stats.tokens_pushed - tokens0;
    c
}

/// Wall time of a plain `run_until` over the same condition, in ms.
pub fn timed_run(sys: &mut System, max_cycles: u64, done: impl FnMut(&System) -> bool) -> f64 {
    let t = Instant::now();
    sys.run_until(max_cycles, done);
    t.elapsed().as_secs_f64() * 1e3
}

/// The clean decoder with no debugger attached: built, booted, and fed
/// `n_mbs` macroblocks of the bitstream seeded `env`.
pub fn bare_decoder(n_mbs: u64, env: u32) -> System {
    let (mut sys, app) =
        build_decoder(Bug::None, n_mbs, PlatformConfig::default()).expect("decoder builds");
    sys.boot(app.boot_entry).expect("boot");
    attach_env(&mut sys, &app, n_mbs, env).expect("env");
    sys
}
