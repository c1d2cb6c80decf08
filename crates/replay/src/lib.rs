//! Deterministic checkpoint/replay for the P2012 + PEDF simulator.
//!
//! The simulator is cycle-stepped and fully deterministic: the same
//! machine state and the same (recorded) environment inputs always
//! produce the same execution. Reverse debugging therefore reduces to
//! *checkpoint + forward replay* — exactly GDB's record/replay strategy,
//! and the enabling primitive of multiverse debugging (MIO, PAPERS.md).
//!
//! A [`CheckpointManager`] owns a chain of checkpoints, and a checkpoint
//! is a copy-on-write [`System::fork`] of the whole machine — the same
//! snapshot the attach cache and the multiverse explorer take. A fork
//! costs a pointer per memory page; the pages themselves stay shared
//! until the live system writes them. So the chain is a chain of forks,
//! each holding exactly the page versions later execution overwrote.
//!
//! Each boundary carries a **chained state hash**: `hash[i] =
//! fnv64(hash[i-1], machine, changed pages)`. The changed pages are the
//! ones whose buffer differs from the memory at the *last boundary the
//! live system crossed* — recorded, verified or restored to
//! ([`p2012::Memory::changed_pages`]). A replayed execution recomputes the
//! chain and any mismatch is reported as a `REPLAY501` finding through
//! the shared `debuginfo::Finding` pipeline — the engine doubles as a
//! divergence detector proving the simulator stays deterministic.
//!
//! Restoring to checkpoint `C`, earlier or later than the current cycle,
//! replaces the live system with a fork of `C` ([`System::restore`]);
//! only what is not history carries over (installed watches, the
//! environment's recorded inputs). Later checkpoints are *kept*, so the
//! replay that follows verifies the hash chain boundary by boundary.

use debuginfo::{Finding, Severity};
use p2012::memory::FNV_PRIME;
use p2012::{Memory, PageId};
use pedf::System;

pub const RULE_DIVERGENCE: &str = "REPLAY501";

// ---- hashing ---------------------------------------------------------------

/// The state hasher, as a [`std::hash::Hasher`]. `DefaultHasher` is not
/// guaranteed stable across releases; divergence hashes must be, so runs
/// can be compared across processes (the CI determinism gate).
///
/// Byte slices ([`Hasher::write`](std::hash::Hasher::write)) are FNV-1a
/// 64, one byte per step. Integers are absorbed whole, one step per
/// value: `state = (state ^ value) * FNV_PRIME`. A whole memory takes the
/// same step per word through [`Fnv64::write_memory`], which folds each
/// untouched page in one multiply (see [`Memory::fnv_fold`]) with the
/// same result.
#[derive(Debug, Clone)]
pub struct Fnv64(u64);

impl Fnv64 {
    pub fn new() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }

    /// Continue a hash chain from a previous boundary value.
    pub fn chained(prev: u64) -> Self {
        let mut h = Fnv64::new();
        std::hash::Hasher::write_u64(&mut h, prev);
        h
    }

    /// Absorb the complete content of `mem`, bank by bank; the same value
    /// as `write_u32` on every word, at a cost in proportion to the pages
    /// written (see [`Memory::fnv_fold`]).
    pub fn write_memory(&mut self, mem: &Memory) {
        self.0 = mem.fnv_fold(self.0);
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

impl std::hash::Hasher for Fnv64 {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    // One step per integer, not one per byte: mixing a whole word per
    // multiply is plenty for divergence detection, and (unlike the default
    // `to_ne_bytes` forwarding) endian-independent.
    fn write_u8(&mut self, i: u8) {
        self.write_u64(u64::from(i));
    }

    fn write_u16(&mut self, i: u16) {
        self.write_u64(u64::from(i));
    }

    fn write_u32(&mut self, i: u32) {
        self.write_u64(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.0 = (self.0 ^ i).wrapping_mul(FNV_PRIME);
    }

    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }
}

// ---- state hashing ---------------------------------------------------------

fn hash_machine_into(sys: &System, h: &mut Fnv64) {
    sys.platform.hash_state(h);
    sys.runtime.hash_state(h);
}

/// Hash of the complete system state, *including* full memory content.
/// This is the strong equality used by tests and the CI determinism gate;
/// boundary hashes inside the chain only cover changed pages (cheap).
pub fn full_state_hash(sys: &System) -> u64 {
    use std::hash::Hasher;
    let mut h = Fnv64::new();
    hash_machine_into(sys, &mut h);
    h.write_memory(&sys.platform.mem);
    h.finish()
}

// ---- checkpoints -----------------------------------------------------------

/// One checkpoint: a fork of the machine, the number of pages changed
/// since the previous boundary, the chained hash at this boundary and a
/// client payload (the debugger stores its session-model snapshot there).
#[derive(Debug, Clone)]
pub struct Checkpoint<X> {
    pub id: u32,
    pub clock: u64,
    /// Chained boundary hash (see module docs).
    pub hash: u64,
    /// The machine at `clock`. Never stepped: restores fork it.
    pub sys: System,
    /// Pages changed since the previous checkpoint.
    pub pages: usize,
    pub payload: X,
}

/// Summary row for `info checkpoints`.
#[derive(Debug, Clone, Copy)]
pub struct CheckpointInfo {
    pub id: u32,
    pub clock: u64,
    pub pages: usize,
    pub hash: u64,
}

/// The checkpoint chain plus divergence findings.
#[derive(Debug, Clone)]
pub struct CheckpointManager<X> {
    /// Auto-checkpoint interval in cycles.
    pub interval: u64,
    checkpoints: Vec<Checkpoint<X>>,
    /// Memory at the last boundary the live system crossed, whether by
    /// recording, verifying or restoring it: the reference the next
    /// boundary's changed pages are taken against. `None` until the
    /// baseline exists.
    crossed: Option<Memory>,
    findings: Vec<Finding>,
    next_id: u32,
}

impl<X> CheckpointManager<X> {
    pub fn new(interval: u64) -> Self {
        assert!(interval >= 1, "checkpoint interval must be positive");
        CheckpointManager {
            interval,
            checkpoints: Vec::new(),
            crossed: None,
            findings: Vec::new(),
            next_id: 0,
        }
    }

    pub fn is_initialized(&self) -> bool {
        self.crossed.is_some()
    }

    /// Establish the baseline, hashed over the full memory. Becomes
    /// checkpoint 0 (with no changed pages).
    pub fn baseline(&mut self, sys: &mut System, payload: X) -> u32 {
        let hash = full_state_hash(sys);
        self.push(sys, hash, 0, payload)
    }

    /// Append a fork of `sys` to the chain; it becomes the reference for
    /// the next boundary.
    fn push(&mut self, sys: &mut System, hash: u64, pages: usize, payload: X) -> u32 {
        let id = self.next_id;
        self.next_id += 1;
        let snapshot = sys.fork();
        self.crossed = Some(snapshot.platform.mem.clone());
        self.checkpoints.push(Checkpoint {
            id,
            clock: sys.clock(),
            hash,
            sys: snapshot,
            pages,
            payload,
        });
        id
    }

    pub fn checkpoints(&self) -> impl Iterator<Item = CheckpointInfo> + '_ {
        self.checkpoints.iter().map(|c| CheckpointInfo {
            id: c.id,
            clock: c.clock,
            pages: c.pages,
            hash: c.hash,
        })
    }

    pub fn get(&self, id: u32) -> Option<&Checkpoint<X>> {
        self.checkpoints.iter().find(|c| c.id == id)
    }

    fn last_clock(&self) -> u64 {
        self.checkpoints.last().map_or(0, |c| c.clock)
    }

    /// Is there a recorded boundary at exactly this clock? (During replay
    /// the run loop verifies instead of re-creating.)
    pub fn has_checkpoint_at(&self, clock: u64) -> bool {
        self.checkpoints
            .binary_search_by_key(&clock, |c| c.clock)
            .is_ok()
    }

    /// Should the auto-policy create a checkpoint at this clock? (Only on
    /// first-run ground, i.e. past every recorded boundary.)
    pub fn creation_due(&self, clock: u64) -> bool {
        self.is_initialized() && clock >= self.last_clock() + self.interval
    }

    /// The latest checkpoint with `clock <= target`.
    pub fn nearest_at_or_before(&self, target: u64) -> Option<u32> {
        self.checkpoints
            .iter()
            .rev()
            .find(|c| c.clock <= target)
            .map(|c| c.id)
    }

    /// The latest checkpoint with `clock < target`.
    pub fn nearest_strictly_before(&self, target: u64) -> Option<u32> {
        self.checkpoints
            .iter()
            .rev()
            .find(|c| c.clock < target)
            .map(|c| c.id)
    }

    /// The pages `sys` changed since the last boundary it crossed.
    fn changed_pages(&self, sys: &System) -> Vec<PageId> {
        let crossed = self.crossed.as_ref().expect("baseline() first");
        sys.platform.mem.changed_pages(crossed)
    }

    /// The chained hash over machine state + a changed-page set.
    fn boundary_hash(prev: u64, sys: &System, pages: &[PageId]) -> u64 {
        use std::hash::Hasher;
        let mut h = Fnv64::chained(prev);
        hash_machine_into(sys, &mut h);
        for p in pages {
            p2012::hash_debug(&mut h, p);
            for w in sys.platform.mem.page_data(*p) {
                h.write_u32(*w);
            }
        }
        h.finish()
    }

    /// Record a new checkpoint at the current clock (first-run ground).
    pub fn checkpoint_at(&mut self, sys: &mut System, payload: X) -> u32 {
        let changed = self.changed_pages(sys);
        let prev = self.checkpoints.last().map_or(0, |c| c.hash);
        let hash = Self::boundary_hash(prev, sys, &changed);
        self.push(sys, hash, changed.len(), payload)
    }

    /// A replayed execution reached a recorded boundary: recompute the
    /// chained hash from the replay's own changed pages and compare. On
    /// mismatch, record a `REPLAY501` finding naming the diverging cycle.
    /// Either way the boundary counts as crossed, exactly as the original
    /// checkpoint creation did.
    pub fn verify_boundary(&mut self, sys: &mut System, clock: u64) {
        let Ok(idx) = self.checkpoints.binary_search_by_key(&clock, |c| c.clock) else {
            return;
        };
        let changed = self.changed_pages(sys);
        self.crossed = Some(sys.platform.mem.fork());
        if idx == 0 {
            // Baseline boundary: replays never land here (restores target
            // it directly), so there is nothing to verify.
            return;
        }
        let prev = self.checkpoints[idx - 1].hash;
        let replay_hash = Self::boundary_hash(prev, sys, &changed);
        let expect = self.checkpoints[idx].hash;
        if replay_hash != expect {
            self.findings.push(Finding::new(
                RULE_DIVERGENCE,
                Severity::Error,
                format!("cycle {clock}"),
                format!(
                    "replay diverged from the recorded execution at checkpoint \
                     boundary {} (cycle {clock}): recorded hash {expect:#018x}, \
                     replayed hash {replay_hash:#018x} — a nondeterministic \
                     input reached the simulation",
                    self.checkpoints[idx].id
                ),
            ));
        }
    }

    /// Rewind (or fast-forward) the system to checkpoint `id`: the live
    /// system becomes a fork of it (see [`System::restore`]). Later
    /// checkpoints are kept so the subsequent replay verifies against
    /// them.
    pub fn restore(&mut self, sys: &mut System, id: u32) -> Option<&Checkpoint<X>> {
        let cp = self.checkpoints.iter_mut().find(|c| c.id == id)?;
        sys.restore(&mut cp.sys);
        self.crossed = Some(cp.sys.platform.mem.clone());
        Some(cp)
    }

    /// Drop every checkpoint after `clock`: the debugger mutated history
    /// (token injection/alteration), so later boundaries describe a
    /// timeline that no longer exists. The baseline is always retained —
    /// restores need a checkpoint at or before every cycle.
    pub fn invalidate_after(&mut self, clock: u64) {
        let mut first = true;
        self.checkpoints.retain(|c| {
            let keep = first || c.clock <= clock;
            first = false;
            keep
        });
    }

    /// Divergence findings accumulated by [`Self::verify_boundary`].
    pub fn findings(&self) -> &[Finding] {
        &self.findings
    }

    pub fn clear_findings(&mut self) {
        self.findings.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use debuginfo::TypeTable;
    use p2012::memory::{L2_BASE, L3_BASE};

    #[test]
    fn divergence_rule_is_registered() {
        let r = debuginfo::registry::find(RULE_DIVERGENCE).expect("registered");
        assert_eq!(r.group, "REPLAY");
    }
    use p2012::{Insn, PeId, Platform, PlatformConfig, ProgramBuilder};
    use pedf::Runtime;

    /// A minimal system: one PE incrementing a counter in L2 forever.
    /// No dataflow graph — the runtime is a passive trap handler here.
    fn counter_system() -> System {
        counter_system_on(PlatformConfig::default())
    }

    fn counter_system_on(config: PlatformConfig) -> System {
        let mut b = ProgramBuilder::new();
        let entry = b.begin_func(1);
        b.emit(Insn::Enter(1));
        let top = b.here();
        b.emit(Insn::LoadLocal(0));
        b.emit(Insn::LoadLocal(0));
        b.emit(Insn::LoadMem);
        b.emit(Insn::Const(1));
        b.emit(Insn::Add);
        b.emit(Insn::StoreMem);
        b.emit(Insn::Jump(top));
        let prog = b.finish();
        let mut platform = Platform::new(config);
        platform.load(prog);
        platform.invoke(PeId(0), entry, &[L2_BASE]);
        platform.invoke(PeId(1), entry, &[L2_BASE + 5000]);
        System::new(platform, Runtime::new(TypeTable::new()))
    }

    #[test]
    fn restore_and_replay_reproduce_the_exact_state() {
        let mut sys = counter_system();
        let mut mgr: CheckpointManager<()> = CheckpointManager::new(100);
        mgr.baseline(&mut sys, ());
        sys.run(100);
        let cp = mgr.checkpoint_at(&mut sys, ());
        sys.run(250);
        let final_hash = full_state_hash(&sys);
        let final_counter = sys.platform.mem.peek(L2_BASE).unwrap();

        // Rewind to the checkpoint: memory, PEs and clock all go back.
        mgr.restore(&mut sys, cp).expect("checkpoint exists");
        assert_eq!(sys.clock(), 100);
        assert!(sys.platform.mem.peek(L2_BASE).unwrap() < final_counter);

        // Replay the same 250 cycles: bit-identical outcome.
        sys.run(250);
        assert_eq!(full_state_hash(&sys), final_hash);
        assert_eq!(sys.platform.mem.peek(L2_BASE).unwrap(), final_counter);
    }

    #[test]
    fn restore_to_baseline_rewinds_everything() {
        let mut sys = counter_system();
        let mut mgr: CheckpointManager<()> = CheckpointManager::new(50);
        let h0 = full_state_hash(&sys);
        let base = mgr.baseline(&mut sys, ());
        sys.run(50);
        mgr.checkpoint_at(&mut sys, ());
        sys.run(75);
        mgr.restore(&mut sys, base).unwrap();
        assert_eq!(sys.clock(), 0);
        assert_eq!(full_state_hash(&sys), h0);
    }

    #[test]
    fn restore_forward_lands_on_the_later_checkpoint() {
        let mut sys = counter_system();
        let mut mgr: CheckpointManager<()> = CheckpointManager::new(100);
        mgr.baseline(&mut sys, ());
        sys.run(100);
        let cp1 = mgr.checkpoint_at(&mut sys, ());
        // A page only the stretch before cp2 writes.
        sys.platform.mem.poke(L3_BASE, 77).unwrap();
        sys.run(100);
        let cp2 = mgr.checkpoint_at(&mut sys, ());
        let at_cp2 = full_state_hash(&sys);
        sys.run(50);

        mgr.restore(&mut sys, cp1).unwrap();
        sys.run(10);
        mgr.restore(&mut sys, cp2).unwrap();
        assert_eq!(sys.clock(), 200);
        assert_eq!(sys.platform.mem.peek(L3_BASE).unwrap(), 77);
        assert_eq!(full_state_hash(&sys), at_cp2);
    }

    #[test]
    fn replays_across_two_boundaries_verify_clean() {
        // The changed pages at a boundary are relative to the last
        // boundary the replay crossed, not the last one recorded: a page
        // written only before cp1 must not count again at cp2.
        let mut sys = counter_system();
        let mut mgr: CheckpointManager<()> = CheckpointManager::new(100);
        let base = mgr.baseline(&mut sys, ());
        sys.run(50);
        sys.platform.mem.poke(L3_BASE, 5).unwrap();
        sys.run(50);
        mgr.checkpoint_at(&mut sys, ());
        sys.run(100);
        mgr.checkpoint_at(&mut sys, ());

        mgr.restore(&mut sys, base).unwrap();
        sys.run(50);
        sys.platform.mem.poke(L3_BASE, 5).unwrap();
        sys.run(50);
        mgr.verify_boundary(&mut sys, 100);
        sys.run(100);
        mgr.verify_boundary(&mut sys, 200);
        assert!(mgr.findings().is_empty(), "{:?}", mgr.findings());
        assert_eq!(
            mgr.checkpoints().map(|c| c.pages).collect::<Vec<_>>(),
            [0, 3, 2]
        );
    }

    #[test]
    fn verify_boundary_accepts_faithful_replays() {
        let mut sys = counter_system();
        let mut mgr: CheckpointManager<()> = CheckpointManager::new(100);
        mgr.baseline(&mut sys, ());
        sys.run(100);
        let cp1 = mgr.checkpoint_at(&mut sys, ());
        sys.run(100);
        mgr.checkpoint_at(&mut sys, ());

        mgr.restore(&mut sys, cp1).unwrap();
        sys.run(100);
        mgr.verify_boundary(&mut sys, 200);
        assert!(mgr.findings().is_empty(), "{:?}", mgr.findings());
    }

    #[test]
    fn verify_boundary_catches_divergence() {
        let mut sys = counter_system();
        let mut mgr: CheckpointManager<()> = CheckpointManager::new(100);
        mgr.baseline(&mut sys, ());
        sys.run(100);
        let cp1 = mgr.checkpoint_at(&mut sys, ());
        sys.run(100);
        mgr.checkpoint_at(&mut sys, ());

        mgr.restore(&mut sys, cp1).unwrap();
        // Corrupt one word the program is working on: the replayed
        // execution now differs from the recorded one.
        sys.platform.mem.poke(L2_BASE, 424_242).unwrap();
        sys.run(100);
        mgr.verify_boundary(&mut sys, 200);
        let fs = mgr.findings();
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].rule, RULE_DIVERGENCE);
        assert!(fs[0].message.contains("cycle 200"), "{}", fs[0].message);
    }

    #[test]
    fn nearest_queries_and_invalidation() {
        let mut sys = counter_system();
        let mut mgr: CheckpointManager<()> = CheckpointManager::new(10);
        let c0 = mgr.baseline(&mut sys, ());
        sys.run(10);
        let c1 = mgr.checkpoint_at(&mut sys, ());
        sys.run(10);
        let c2 = mgr.checkpoint_at(&mut sys, ());
        assert_eq!(mgr.nearest_at_or_before(20), Some(c2));
        assert_eq!(mgr.nearest_strictly_before(20), Some(c1));
        assert_eq!(mgr.nearest_strictly_before(1), Some(c0));
        assert_eq!(mgr.nearest_strictly_before(0), None);
        assert!(mgr.has_checkpoint_at(10));
        assert!(!mgr.has_checkpoint_at(11));
        assert!(mgr.creation_due(30));
        assert!(!mgr.creation_due(29));
        mgr.invalidate_after(10);
        assert_eq!(mgr.nearest_at_or_before(u64::MAX), Some(c1));
        assert_eq!(mgr.checkpoints().count(), 2);
    }

    /// The state hash definition itself, pinned: these values must never
    /// change, or hashes persisted by one build (evicted sessions, CI
    /// transcripts) stop matching the next.
    #[test]
    fn full_state_hash_values_are_pinned() {
        let mut sys = counter_system();
        assert_eq!(full_state_hash(&sys), 0x24e6_09b0_4278_4919, "fresh");
        sys.run(250);
        assert_eq!(
            full_state_hash(&sys),
            0xbf8c_a317_d27c_e7e5,
            "after 250 cycles"
        );

        // Banks ending in a partial page, and a page written back to all
        // zeros (no longer the bank's zero page, still all zeros).
        let mut sys = counter_system_on(PlatformConfig {
            mem: p2012::MemoryMap {
                l2_words: 8 * p2012::PAGE_WORDS + 300,
                l3_words: 2 * p2012::PAGE_WORDS + 7,
                ..p2012::MemoryMap::default()
            },
            ..PlatformConfig::default()
        });
        sys.run(100);
        let mem = &mut sys.platform.mem;
        mem.poke(L3_BASE + p2012::PAGE_WORDS + 3, 9).unwrap();
        mem.poke(L3_BASE + p2012::PAGE_WORDS + 3, 0).unwrap();
        mem.poke(L3_BASE + 2 * p2012::PAGE_WORDS + 6, 11).unwrap();
        mem.poke(L2_BASE + 8 * p2012::PAGE_WORDS + 299, 13).unwrap();
        assert_eq!(
            full_state_hash(&sys),
            0xf96b_b0fc_c477_2339,
            "partial pages"
        );
    }

    #[test]
    fn fnv64_is_stable_across_runs() {
        use std::hash::Hasher;
        let mut h = Fnv64::new();
        h.write(b"determinism");
        // Pinned: this value must never change between releases, or CI
        // hash comparisons across binaries break.
        assert_eq!(h.finish(), 0x3100_2e8e_b74a_e062);
        let mut a = Fnv64::new();
        let mut b = Fnv64::new();
        a.write(b"xyz");
        b.write(b"xyz");
        assert_eq!(a.finish(), b.finish());
        let mut c = Fnv64::chained(a.finish());
        let mut d = Fnv64::chained(b.finish());
        c.write_u32(7);
        d.write_u32(7);
        assert_eq!(c.finish(), d.finish());
        d.write_u32(8);
        assert_ne!(c.finish(), d.finish());
    }
}
