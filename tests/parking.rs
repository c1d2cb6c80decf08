//! Oracle D7: parking blocked PEs is invisible.
//!
//! The platform skips the runtime on a blocked trap while the trap's wait
//! key is unchanged (`TrapHandler::wait_key`). That is only sound if every
//! state change a blocked trap reads changes its key. D7 checks it against
//! the same loop with keys switched off: [`Polling`] delegates everything
//! to the runtime except `wait_key`, which it answers with `None`, so every
//! blocked trap is offered to the runtime every cycle. Both machines run in
//! lockstep from the same fork; every cycle's `CycleReport` (apart from
//! `dispatches`, the count that parking exists to cut) and every PE's
//! status must agree, and so must the final state hash, console and sink
//! checksums.
//!
//! Kept out of `appgen::check_spec` on purpose: the fuzz farm's per-app
//! cost does not pay for it.

use std::collections::BTreeMap;

use debuginfo::{Value, Word};
use h264_pipeline::{attach_env, build_decoder, Bug};
use p2012::{
    BlockReason, CycleReport, PeId, PeState, PeStatus, PlatformConfig, TrapCtx, TrapHandler,
    TrapResult,
};
use pedf::{LinkId, Runtime, System};

/// The runtime with wait keys switched off: polling is the `None` case of
/// the one simulator loop, not a second core.
struct Polling<'a>(&'a mut Runtime);

impl TrapHandler for Polling<'_> {
    fn trap(
        &mut self,
        ctx: &mut TrapCtx<'_>,
        pe: PeId,
        current: &mut PeState,
        id: u16,
        args: &[Word],
    ) -> TrapResult {
        self.0.trap(ctx, pe, current, id, args)
    }

    fn on_task_complete(&mut self, ctx: &mut TrapCtx<'_>, pe: PeId, current: &mut PeState) {
        self.0.on_task_complete(ctx, pe, current)
    }

    fn on_cycle(&mut self, ctx: &mut TrapCtx<'_>) {
        self.0.on_cycle(ctx)
    }

    fn choose_dma_order(&mut self, n_active: u32, clock: u64) -> u32 {
        self.0.choose_dma_order(n_active, clock)
    }
}

/// A broken key: the same stamp whatever happens, so a PE that blocks
/// once is never offered to the runtime again.
struct Frozen<'a>(Polling<'a>);

impl TrapHandler for Frozen<'_> {
    fn trap(
        &mut self,
        ctx: &mut TrapCtx<'_>,
        pe: PeId,
        current: &mut PeState,
        id: u16,
        args: &[Word],
    ) -> TrapResult {
        self.0.trap(ctx, pe, current, id, args)
    }

    fn on_task_complete(&mut self, ctx: &mut TrapCtx<'_>, pe: PeId, current: &mut PeState) {
        self.0.on_task_complete(ctx, pe, current)
    }

    fn on_cycle(&mut self, ctx: &mut TrapCtx<'_>) {
        self.0.on_cycle(ctx)
    }

    fn choose_dma_order(&mut self, n_active: u32, clock: u64) -> u32 {
        self.0.choose_dma_order(n_active, clock)
    }

    fn wait_key(&self, _reason: BlockReason) -> Option<u64> {
        Some(0)
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Keys {
    /// The runtime's own wait keys.
    Runtime,
    /// No keys: every blocked trap polls.
    Polling,
    /// A key that never changes.
    Frozen,
}

fn step(sys: &mut System, keys: Keys) -> CycleReport {
    match keys {
        Keys::Runtime => sys.step(),
        Keys::Polling => sys.platform.step_cycle(&mut Polling(&mut sys.runtime)),
        Keys::Frozen => sys
            .platform
            .step_cycle(&mut Frozen(Polling(&mut sys.runtime))),
    }
}

fn statuses(sys: &System) -> Vec<PeStatus> {
    sys.platform.pes.iter().map(|p| p.status).collect()
}

fn sink_checksums(sys: &System) -> Vec<(u64, u64)> {
    sys.runtime
        .sinks()
        .iter()
        .map(|k| (k.consumed, k.checksum))
        .collect()
}

/// Two forks of one machine, one parked on wait keys, the other under
/// `other` keys, stepped in lockstep.
struct Lockstep {
    parked: System,
    other: System,
    other_keys: Keys,
}

impl Lockstep {
    fn new(mut sys: System, other_keys: Keys) -> Lockstep {
        let other = sys.fork();
        Lockstep {
            parked: sys,
            other,
            other_keys,
        }
    }

    /// One cycle on both machines; the first disagreement, if any.
    fn step(&mut self) -> Result<(), String> {
        let mut a = step(&mut self.parked, Keys::Runtime);
        let mut b = step(&mut self.other, self.other_keys);
        (a.dispatches, b.dispatches) = (0, 0);
        let cycle = self.parked.clock();
        if a != b {
            return Err(format!("cycle {cycle}: report {a:?} vs {b:?}"));
        }
        let (sa, sb) = (statuses(&self.parked), statuses(&self.other));
        if sa != sb {
            return Err(format!("cycle {cycle}: PE status {sa:?} vs {sb:?}"));
        }
        Ok(())
    }

    /// Boot both machines from the host program at `entry`.
    fn boot(&mut self, entry: u32) -> Result<(), String> {
        for sys in [&mut self.parked, &mut self.other] {
            let host = sys.platform.host_id();
            sys.platform.invoke(host, entry, &[]);
        }
        for _ in 0..1_000_000 {
            self.step()?;
            if self.parked.runtime.booted {
                return Ok(());
            }
        }
        Err("boot did not complete".into())
    }

    /// Run until quiescence, a fault, a stable deadlock or `max_cycles`.
    fn run(&mut self, max_cycles: u64) -> Result<(), String> {
        let mut stuck = 0;
        for _ in 0..max_cycles {
            let s = &self.parked;
            if s.platform.is_quiescent() || s.first_fault().is_some() || stuck > 1_000 {
                break;
            }
            stuck = if s.platform.is_deadlocked() {
                stuck + 1
            } else {
                0
            };
            self.step()?;
        }
        Ok(())
    }

    /// Final agreement: state hash, console and sinks.
    fn finish(&self) -> Result<(), String> {
        let (a, b) = (&self.parked, &self.other);
        let (ha, hb) = (replay::full_state_hash(a), replay::full_state_hash(b));
        if ha != hb {
            return Err(format!("state hash {ha:#x} vs {hb:#x}"));
        }
        if a.runtime.console != b.runtime.console {
            return Err("console differs".into());
        }
        if sink_checksums(a) != sink_checksums(b) {
            return Err(format!(
                "sinks {:?} vs {:?}",
                sink_checksums(a),
                sink_checksums(b)
            ));
        }
        Ok(())
    }
}

/// The app generated from `seed`. Filters fire in lockstep steps, so at
/// the default capacities a producer almost never finds its link full.
/// `squeeze` shrinks every link to one slot: producers then wait for space
/// and a pop must wake them, or the app wedges (about half do), which D7
/// compares as well.
fn generated(seed: u64, squeeze: bool) -> (System, u32) {
    let spec = appgen::generate(seed);
    let build = |caps: &BTreeMap<String, u32>| {
        mind::build_with_caps(
            &spec.to_adl(),
            &spec.to_sources(),
            PlatformConfig::default(),
            caps,
        )
        .unwrap_or_else(|e| panic!("seed {seed}: build failed: {e}"))
    };
    let (mut sys, mut app) = build(&BTreeMap::new());
    if squeeze {
        let g = &app.graph;
        let one_slot = g
            .links
            .iter()
            .map(|l| {
                let from = g.conn(l.from);
                (format!("{}::{}", g.actor(from.actor).name, from.name), 1)
            })
            .collect();
        (sys, app) = build(&one_slot);
    }
    for m in 0..spec.modules.len() {
        let id = app.actor(&format!("m{m}")).expect("module actor");
        sys.runtime.set_max_steps(id, spec.steps);
    }
    (sys, app.boot_entry)
}

/// D7 over a range of generated apps; returns the divergences.
fn d7_generated(seeds: std::ops::Range<u64>) -> Vec<String> {
    let mut divergences = Vec::new();
    for seed in seeds {
        for squeeze in [false, true] {
            let (sys, entry) = generated(seed, squeeze);
            let mut l = Lockstep::new(sys, Keys::Polling);
            let r = l
                .boot(entry)
                .and_then(|()| l.run(appgen::oracle::MAX_CYCLES))
                .and_then(|()| l.finish());
            if let Err(e) = r {
                divergences.push(format!("seed {seed} (squeezed: {squeeze}): {e}"));
            }
        }
    }
    divergences
}

// Generated apps are split over a few tests so the harness runs them in
// parallel; 300 seeds in all.
#[test]
fn d7_generated_apps_0() {
    assert_eq!(d7_generated(0..75), Vec::<String>::new());
}

#[test]
fn d7_generated_apps_1() {
    assert_eq!(d7_generated(75..150), Vec::<String>::new());
}

#[test]
fn d7_generated_apps_2() {
    assert_eq!(d7_generated(150..225), Vec::<String>::new());
}

#[test]
fn d7_generated_apps_3() {
    assert_eq!(d7_generated(225..300), Vec::<String>::new());
}

const DECODER_MBS: u64 = 4;
const DECODER_SEED: u32 = 0xbeef;

/// A decoder variant booted in lockstep, environment attached to both.
fn decoder_lockstep(bug: Bug) -> Lockstep {
    let (sys, app) = build_decoder(bug, DECODER_MBS, PlatformConfig::default()).unwrap();
    let mut l = Lockstep::new(sys, Keys::Polling);
    l.boot(app.boot_entry).unwrap();
    for sys in [&mut l.parked, &mut l.other] {
        attach_env(sys, &app, DECODER_MBS, DECODER_SEED).unwrap();
    }
    l
}

#[test]
fn d7_every_decoder_variant() {
    for bug in [
        Bug::None,
        Bug::RateMismatch,
        Bug::WrongValue,
        Bug::Deadlock,
        Bug::OobStore,
        Bug::SharedScratch,
        Bug::BenignScratch,
        Bug::DmaOverlap,
        Bug::TightFifo,
    ] {
        let mut l = decoder_lockstep(bug);
        l.run(1_000_000)
            .and_then(|()| l.finish())
            .unwrap_or_else(|e| panic!("{bug:?}: {e}"));
    }
}

/// Run `bug` to its wedge, where `actor` must be blocked for `reason` on
/// `link_label`; apply the debugger's `edit` of that link to both machines.
/// `actor` must resume in the very next cycle whether it was parked or
/// polling, and the machines must then agree to the end.
fn untie(
    bug: Bug,
    actor: &str,
    link_label: &str,
    reason: fn(u32) -> BlockReason,
    edit: fn(&mut System, LinkId),
) -> Lockstep {
    let mut l = decoder_lockstep(bug);
    l.run(1_000_000).unwrap();
    assert!(
        l.parked.platform.is_deadlocked(),
        "{bug:?}: expected a wedge"
    );
    let g = &l.parked.runtime.graph;
    let link = (0..g.links.len() as u32)
        .map(LinkId)
        .find(|&k| g.link_label(k) == link_label)
        .expect("the wedged link");
    let pe = g.actor_by_name(actor).and_then(|a| a.pe).unwrap().index();
    assert_eq!(
        l.parked.platform.pes[pe].status,
        PeStatus::Blocked(reason(link.0)),
        "{bug:?}: {actor} waits on {link_label}"
    );
    for sys in [&mut l.parked, &mut l.other] {
        edit(sys, link);
    }
    l.step().unwrap();
    assert!(
        !matches!(l.parked.platform.pes[pe].status, PeStatus::Blocked(_)),
        "{bug:?}: {actor} resumes in the cycle after the edit"
    );
    l.run(1_000_000).and_then(|()| l.finish()).unwrap();
    l
}

/// The debugger unties the `Deadlock` variant by injecting the missing
/// residual token into the link `ipred` starves on.
#[test]
fn d7_token_injection_resumes_a_parked_consumer_on_the_same_cycle() {
    let pred = |l: &Lockstep| {
        let g = &l.parked.runtime.graph;
        l.parked
            .runtime
            .module_steps(g.actor_by_name("pred").unwrap().id)
    };
    let mut wedged = decoder_lockstep(Bug::Deadlock);
    wedged.run(1_000_000).unwrap();
    let before = pred(&wedged);
    let l = untie(
        Bug::Deadlock,
        "ipred",
        "red::red_ipred_out -> ipred::Red_in",
        |link| BlockReason::TokenWait { link },
        |sys, link| {
            let g = &sys.runtime.graph;
            let ty = g.conn(g.link(link).from).ty;
            let words = sys.runtime.types.size_words(ty) as usize;
            let token = Value::record(ty, vec![42; words]);
            sys.runtime
                .inject_token(&mut sys.platform.mem, link, &token)
                .unwrap();
        },
    );
    assert!(pred(&l) > before, "the injection untied the pipeline");
}

/// The `TightFifo` variant wedges `red` on a full one-slot link; the
/// debugger drops the queued token to make room.
#[test]
fn d7_token_drop_resumes_a_parked_producer_on_the_same_cycle() {
    untie(
        Bug::TightFifo,
        "red",
        "red::red_ipred_out -> ipred::Red_in",
        |link| BlockReason::SpaceWait { link },
        |sys, link| {
            sys.runtime
                .drop_token(&mut sys.platform.mem, link, 0)
                .unwrap()
        },
    );
}

/// Teeth: a key that never changes must be caught on a chain app.
#[test]
fn d7_catches_a_key_that_never_changes() {
    let seed = (0..)
        .find(|&s| appgen::generate(s).shape == "chain")
        .unwrap();
    let (sys, entry) = generated(seed, false);
    let mut l = Lockstep::new(sys, Keys::Frozen);
    let r = l
        .boot(entry)
        .and_then(|()| l.run(appgen::oracle::MAX_CYCLES))
        .and_then(|()| l.finish());
    assert!(r.is_err(), "a frozen wait key went unnoticed");
}

/// Parking cuts the runtime calls on the 64-macroblock clean decode while
/// the offered traps stay exactly those of polling. The bitstream seed is
/// the one the repository benchmark's seed 1 drives, whose counts the
/// benchmark pins.
#[test]
fn parking_cuts_dispatches_on_the_clean_decode() {
    let (mut sys, app) = build_decoder(Bug::None, 64, PlatformConfig::default()).unwrap();
    sys.boot(app.boot_entry).unwrap();
    attach_env(&mut sys, &app, 64, 0x8902_5cc1).unwrap();
    let (mut cycles, mut traps, mut dispatches) = (0u64, 0u64, 0u64);
    while !sys.platform.is_quiescent() && cycles < 100_000 {
        let r = sys.step();
        cycles += 1;
        traps += u64::from(r.traps);
        dispatches += u64::from(r.dispatches);
    }
    assert_eq!(cycles, 18_247);
    assert_eq!(traps, 79_328);
    assert!(dispatches <= 6_000, "{dispatches} dispatches");
}
