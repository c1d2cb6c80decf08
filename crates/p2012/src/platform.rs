//! The assembled platform: clusters, PEs, host, memories, DMA and the
//! cooperative cycle-stepped scheduler.
//!
//! Fig. 1 of the paper: a general-purpose host processor plus clusters of
//! STxP70 processing elements (optionally with wired hardware accelerators),
//! per-cluster shared L1, chip-wide L2 and external L3 behind DMA.
//!
//! Scheduling is deliberately primitive and deterministic — each cycle every
//! PE in index order advances by at most one instruction, exactly like the
//! SystemC functional simulator's cooperative user-level threads. The same
//! program and inputs therefore always produce the same interleaving, which
//! is what makes the paper's breakpoint-heavy debugging non-intrusive.
//!
//! A blocked PE is offered its pending trap at its turn in every cycle, but
//! the loop is event-driven: when the trap blocked, the platform recorded
//! the handler's [`TrapHandler::wait_key`], and while that key is unchanged
//! the offer is counted without calling the handler. A changed key re-offers
//! the trap in the same PE slot of the same cycle as polling would, so the
//! interleaving is the same with or without keys.

use std::sync::Arc;

use debuginfo::{CodeAddr, Word};

use crate::dma::DmaEngine;
use crate::isa::Program;
use crate::memory::{Memory, MemoryMap};
use crate::trap::{TrapCtx, TrapHandler, TrapResult};
use crate::vm::{PeState, PeStatus, StepEvent, VmFault};

/// Index of a processing element (global, across clusters; the host is the
/// last id).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PeId(pub u16);

impl PeId {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for PeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PE{}", self.0)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ClusterId(pub u16);

/// Kind of processing element.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeClass {
    /// STxP70 configurable processor (fabric).
    Stxp70,
    /// Wired hardware accelerator controlled by its cluster (filters are
    /// "intended to be synthesized into hardware accelerators", §IV-C).
    HwAccel,
    /// The general-purpose host processor.
    ArmHost,
}

impl PeClass {
    pub fn name(self) -> &'static str {
        match self {
            PeClass::Stxp70 => "STxP70",
            PeClass::HwAccel => "HWPE",
            PeClass::ArmHost => "ARM-host",
        }
    }
}

/// Static description of one PE.
#[derive(Debug, Clone)]
pub struct PeInfo {
    pub id: PeId,
    pub class: PeClass,
    /// Cluster index; the host reports the pseudo-cluster `u16::MAX`.
    pub cluster: u16,
    pub name: String,
}

/// Platform shape. The default (2 clusters × 4 PEs + 1 accelerator, one
/// host) is the configuration used by every experiment unless stated
/// otherwise in EXPERIMENTS.md.
#[derive(Debug, Clone)]
pub struct PlatformConfig {
    pub clusters: u16,
    pub pes_per_cluster: u16,
    pub accels_per_cluster: u16,
    pub mem: MemoryMap,
    pub dma_words_per_cycle: u32,
}

impl Default for PlatformConfig {
    fn default() -> Self {
        PlatformConfig {
            clusters: 2,
            pes_per_cluster: 4,
            accels_per_cluster: 1,
            mem: MemoryMap::default(),
            dma_words_per_cycle: 4,
        }
    }
}

/// Aggregate counters for one simulated cycle (cheap enough for the fast
/// path; the debugger inspects PE state directly for anything richer).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CycleReport {
    pub executed: u32,
    /// Trap offers: first offers plus every cycle a blocked PE spends
    /// waiting on its pending trap.
    pub traps: u32,
    pub completions: u32,
    pub faults: u32,
    /// Trap offers that called the handler; the rest were skipped because
    /// the blocked trap's wait key had not changed.
    pub dispatches: u32,
}

impl CycleReport {
    pub fn merge(&mut self, other: CycleReport) {
        self.executed += other.executed;
        self.traps += other.traps;
        self.completions += other.completions;
        self.faults += other.faults;
        self.dispatches += other.dispatches;
    }
}

/// The simulated machine.
#[derive(Debug, Clone)]
pub struct Platform {
    pub config: PlatformConfig,
    pub infos: Vec<PeInfo>,
    pub pes: Vec<PeState>,
    pub mem: Memory,
    pub dma: Vec<DmaEngine>,
    /// The linked image: immutable once loaded, so forks share it.
    pub program: Arc<Program>,
    pub clock: u64,
    /// Scratch list of the DMA engines in flight this cycle, kept so the
    /// cycle loop does not allocate.
    dma_active: Vec<usize>,
}

impl Platform {
    pub fn new(config: PlatformConfig) -> Self {
        let mut infos = Vec::new();
        for c in 0..config.clusters {
            for p in 0..config.pes_per_cluster {
                infos.push(PeInfo {
                    id: PeId(infos.len() as u16),
                    class: PeClass::Stxp70,
                    cluster: c,
                    name: format!("cluster{c}.pe{p}"),
                });
            }
            for a in 0..config.accels_per_cluster {
                infos.push(PeInfo {
                    id: PeId(infos.len() as u16),
                    class: PeClass::HwAccel,
                    cluster: c,
                    name: format!("cluster{c}.hwpe{a}"),
                });
            }
        }
        infos.push(PeInfo {
            id: PeId(infos.len() as u16),
            class: PeClass::ArmHost,
            cluster: u16::MAX,
            name: "host".to_string(),
        });
        // One DMA controller per cluster plus the host's.
        let dma = (0..=config.clusters)
            .map(|_| DmaEngine::new(config.dma_words_per_cycle))
            .collect();
        let pes = infos.iter().map(|_| PeState::default()).collect();
        Platform {
            mem: Memory::new(config.mem.clone()),
            pes,
            infos,
            dma,
            program: Arc::default(),
            clock: 0,
            dma_active: Vec::new(),
            config,
        }
    }

    /// Install the linked program image.
    pub fn load(&mut self, program: Program) {
        self.program = Arc::new(program);
    }

    pub fn pe_count(&self) -> usize {
        self.pes.len()
    }

    pub fn host_id(&self) -> PeId {
        PeId(self.infos.len() as u16 - 1)
    }

    /// The `idx`-th general-purpose PE of `cluster`.
    pub fn pe_on(&self, cluster: u16, idx: u16) -> Option<PeId> {
        self.infos
            .iter()
            .filter(|i| i.cluster == cluster && i.class == PeClass::Stxp70)
            .nth(idx as usize)
            .map(|i| i.id)
    }

    /// The `idx`-th hardware accelerator of `cluster`.
    pub fn accel_on(&self, cluster: u16, idx: u16) -> Option<PeId> {
        self.infos
            .iter()
            .filter(|i| i.cluster == cluster && i.class == PeClass::HwAccel)
            .nth(idx as usize)
            .map(|i| i.id)
    }

    pub fn info(&self, pe: PeId) -> &PeInfo {
        &self.infos[pe.index()]
    }

    /// Start a task on an idle PE from outside a trap (initial boot).
    pub fn invoke(&mut self, pe: PeId, addr: CodeAddr, args: &[Word]) {
        self.pes[pe.index()].invoke(addr, args);
    }

    /// Advance the whole machine by one cycle.
    pub fn step_cycle(&mut self, handler: &mut dyn TrapHandler) -> CycleReport {
        let mut report = CycleReport::default();

        handler.on_cycle(&mut TrapCtx {
            mem: &mut self.mem,
            dma: &mut self.dma,
            pes: &mut self.pes,
            clock: self.clock,
        });
        // DMA-completion ordering is a scheduler choice point: when two or
        // more engines are in flight, the handler elects which advances
        // first (rotation over the active set). The default answer keeps
        // the historical index order, and engines with nothing in flight
        // never observe the rotation (their step is a no-op).
        let mut active = std::mem::take(&mut self.dma_active);
        active.clear();
        active.extend((0..self.dma.len()).filter(|&i| self.dma[i].in_flight() > 0));
        if active.len() >= 2 {
            let r =
                handler.choose_dma_order(active.len() as u32, self.clock) as usize % active.len();
            for k in 0..active.len() {
                let i = active[(k + r) % active.len()];
                self.dma[i].step(&mut self.mem);
            }
        } else if let Some(&i) = active.first() {
            self.dma[i].step(&mut self.mem);
        }
        self.dma_active = active;

        for i in 0..self.pes.len() {
            let pe = &mut self.pes[i];
            let trap = match pe.status {
                PeStatus::Blocked(reason) => match pe.pending_trap(&self.program) {
                    Some(trap) => {
                        report.traps += 1;
                        // Parked: nothing the blocked trap reads has changed
                        // since it blocked, so the handler would block it
                        // again.
                        if pe.wait_key.is_some() && pe.wait_key == handler.wait_key(reason) {
                            continue;
                        }
                        trap
                    }
                    None => {
                        // Blocked without a pending trap cannot happen for
                        // well-formed runtimes; fault loudly instead of
                        // spinning forever.
                        pe.status =
                            PeStatus::Faulted(VmFault::Runtime("blocked without pending trap"));
                        report.faults += 1;
                        continue;
                    }
                },
                _ => match pe.step(&self.program, &mut self.mem) {
                    StepEvent::TrapPending { id, argc, retc } => {
                        report.traps += 1;
                        (id, argc, retc)
                    }
                    StepEvent::TaskComplete => {
                        report.completions += 1;
                        let mut pe = std::mem::take(&mut self.pes[i]);
                        handler.on_task_complete(
                            &mut TrapCtx {
                                mem: &mut self.mem,
                                dma: &mut self.dma,
                                pes: &mut self.pes,
                                clock: self.clock,
                            },
                            PeId(i as u16),
                            &mut pe,
                        );
                        self.pes[i] = pe;
                        continue;
                    }
                    StepEvent::Executed | StepEvent::Called { .. } | StepEvent::Returned { .. } => {
                        report.executed += 1;
                        continue;
                    }
                    StepEvent::Fault(_) => {
                        report.faults += 1;
                        continue;
                    }
                    StepEvent::Stalled | StepEvent::Idle | StepEvent::Halted => continue,
                },
            };
            report.dispatches += 1;
            self.dispatch_trap(handler, i, trap);
        }
        self.clock += 1;
        report
    }

    /// Offer PE `i`'s pending trap `(id, argc, retc)` to the handler.
    fn dispatch_trap(&mut self, handler: &mut dyn TrapHandler, i: usize, trap: (u16, u8, u8)) {
        let (trap_id, argc, retc) = trap;
        debug_assert!(argc as usize <= 8, "trap arity limited to 8");
        let mut pe = std::mem::take(&mut self.pes[i]);
        let mut buf = [0 as Word; 8];
        let args = pe.trap_args(argc);
        buf[..args.len()].copy_from_slice(args);
        let result = handler.trap(
            &mut TrapCtx {
                mem: &mut self.mem,
                dma: &mut self.dma,
                pes: &mut self.pes,
                clock: self.clock,
            },
            PeId(i as u16),
            &mut pe,
            trap_id,
            &buf[..argc as usize],
        );
        match result {
            TrapResult::Done => {
                debug_assert_eq!(retc, 0, "trap {trap_id} must return a value");
                pe.complete_trap(argc, &[]);
            }
            TrapResult::Done1(w) => {
                debug_assert_eq!(retc, 1, "trap {trap_id} returns no value");
                pe.complete_trap(argc, &[w]);
            }
            TrapResult::Block(reason) => {
                pe.block(reason);
                pe.wait_key = handler.wait_key(reason);
            }
            TrapResult::Fault(msg) => {
                pe.status = PeStatus::Faulted(VmFault::Runtime(msg));
            }
        }
        self.pes[i] = pe;
    }

    /// Run for `cycles` cycles (fast path, no per-cycle inspection).
    pub fn run(&mut self, handler: &mut dyn TrapHandler, cycles: u64) -> CycleReport {
        let mut total = CycleReport::default();
        for _ in 0..cycles {
            total.merge(self.step_cycle(handler));
        }
        total
    }

    /// True when nothing can make progress any more: every PE idle, halted
    /// or faulted, and no DMA in flight. Blocked PEs mean a deadlock or a
    /// starved source, *not* quiescence.
    pub fn is_quiescent(&self) -> bool {
        self.pes.iter().all(|p| {
            matches!(
                p.status,
                PeStatus::Idle | PeStatus::Halted | PeStatus::Faulted(_)
            )
        }) && self.dma.iter().all(|d| d.in_flight() == 0)
    }

    /// All PEs blocked (or idle/halted) with at least one blocked: the
    /// machine can only be unstuck by external action — a deadlock from the
    /// application's point of view. The debugger's token-injection commands
    /// exist precisely to untie this state (§III).
    pub fn is_deadlocked(&self) -> bool {
        let mut any_blocked = false;
        for p in &self.pes {
            match p.status {
                PeStatus::Running => return false,
                PeStatus::Blocked(_) => any_blocked = true,
                _ => {}
            }
        }
        any_blocked && self.dma.iter().all(|d| d.in_flight() == 0)
    }

    /// Copy-on-write fork of the whole machine: PE/DMA/clock state is
    /// cloned outright (it is small), memory forks page-wise via
    /// [`Memory::fork`] so the two machines share every untouched page.
    pub fn fork(&mut self) -> Platform {
        let mem = self.mem.fork();
        Platform {
            config: self.config.clone(),
            infos: self.infos.clone(),
            pes: self.pes.clone(),
            mem,
            dma: self.dma.clone(),
            program: self.program.clone(),
            clock: self.clock,
            dma_active: Vec::new(),
        }
    }

    /// Feed the full machine state (sans memory content) to a hasher.
    pub fn hash_state(&self, h: &mut dyn std::hash::Hasher) {
        h.write_u64(self.clock);
        h.write_u64(self.mem.reads);
        h.write_u64(self.mem.writes);
        for pe in &self.pes {
            pe.hash_state(h);
        }
        for d in &self.dma {
            d.hash_state(h);
        }
    }

    /// Human-readable topology description (the `platform_tour` example and
    /// the `info platform` debugger command).
    pub fn describe(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "Platform 2012 functional model: {} cluster(s), {} PE(s) total\n",
            self.config.clusters,
            self.pes.len()
        ));
        for c in 0..self.config.clusters {
            out.push_str(&format!(
                "  cluster {c}: {} x STxP70 + {} x HWPE, L1 @0x{:08x} ({} words, {} cy)\n",
                self.config.pes_per_cluster,
                self.config.accels_per_cluster,
                self.config.mem.l1_base(c),
                self.config.mem.l1_words,
                self.config.mem.l1_latency,
            ));
        }
        out.push_str(&format!(
            "  L2 @0x{:08x} ({} words, {} cy) — inter-cluster\n",
            crate::memory::L2_BASE,
            self.config.mem.l2_words,
            self.config.mem.l2_latency,
        ));
        out.push_str(&format!(
            "  L3 @0x{:08x} ({} words, {} cy) — host side, via DMA ({} engines, {} words/cy)\n",
            crate::memory::L3_BASE,
            self.config.mem.l3_words,
            self.config.mem.l3_latency,
            self.dma.len(),
            self.config.dma_words_per_cycle,
        ));
        out.push_str(&format!("  host: {}\n", self.info(self.host_id()).name));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{Insn, ProgramBuilder};
    use crate::memory::L2_BASE;
    use crate::trap::NullHandler;
    use crate::vm::BlockReason;

    #[test]
    fn topology_matches_config() {
        let p = Platform::new(PlatformConfig::default());
        // 2 clusters x (4 + 1) + host
        assert_eq!(p.pe_count(), 11);
        assert_eq!(p.info(p.host_id()).class, PeClass::ArmHost);
        assert_eq!(p.pe_on(1, 0), Some(PeId(5)));
        assert_eq!(p.accel_on(0, 0), Some(PeId(4)));
        assert_eq!(p.pe_on(2, 0), None);
        assert_eq!(p.dma.len(), 3);
        let d = p.describe();
        assert!(d.contains("cluster 1"));
        assert!(d.contains("host"));
    }

    #[test]
    fn two_pes_interleave_deterministically() {
        // Both PEs increment their own counter in L2; after N cycles both
        // have retired the same instruction count.
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

        let mut p = Platform::new(PlatformConfig::default());
        p.load(prog);
        p.invoke(PeId(0), entry, &[L2_BASE]);
        p.invoke(PeId(1), entry, &[L2_BASE + 1]);
        let mut h = NullHandler;
        p.run(&mut h, 1000);
        let a = p.mem.peek(L2_BASE).unwrap();
        let c = p.mem.peek(L2_BASE + 1).unwrap();
        assert_eq!(a, c, "fixed-order scheduling must be fair here");
        assert!(a > 0);
        assert_eq!(p.clock, 1000);
    }

    struct CountingHandler {
        served: u32,
        block_first: bool,
    }

    impl TrapHandler for CountingHandler {
        fn trap(
            &mut self,
            _ctx: &mut TrapCtx<'_>,
            _pe: PeId,
            _current: &mut PeState,
            id: u16,
            args: &[Word],
        ) -> TrapResult {
            assert_eq!(id, 42);
            assert_eq!(args, &[5]);
            if self.block_first {
                self.block_first = false;
                return TrapResult::Block(BlockReason::Other("test"));
            }
            self.served += 1;
            TrapResult::Done1(args[0] * 2)
        }
    }

    #[test]
    fn blocked_trap_is_retried_until_served() {
        let mut b = ProgramBuilder::new();
        let entry = b.begin_func(0);
        b.emit(Insn::Enter(0));
        b.emit(Insn::Const(L2_BASE));
        b.emit(Insn::Const(5));
        b.emit(Insn::Trap {
            id: 42,
            argc: 1,
            retc: 1,
        });
        b.emit(Insn::StoreMem);
        b.emit(Insn::Halt);
        let prog = b.finish();

        let mut p = Platform::new(PlatformConfig::default());
        p.load(prog);
        p.invoke(PeId(0), entry, &[]);
        let mut h = CountingHandler {
            served: 0,
            block_first: true,
        };
        p.run(&mut h, 20);
        assert_eq!(h.served, 1);
        assert_eq!(p.mem.peek(L2_BASE).unwrap(), 10);
        assert!(matches!(p.pes[0].status, PeStatus::Halted));
    }

    /// Blocks trap 42 until opened; its wait key is `stamp`.
    struct Gate {
        open: bool,
        stamp: u64,
        calls: u32,
    }

    impl TrapHandler for Gate {
        fn trap(
            &mut self,
            _ctx: &mut TrapCtx<'_>,
            _pe: PeId,
            _current: &mut PeState,
            _id: u16,
            args: &[Word],
        ) -> TrapResult {
            self.calls += 1;
            if self.open {
                TrapResult::Done1(args[0] * 2)
            } else {
                TrapResult::Block(BlockReason::Other("gate"))
            }
        }

        fn wait_key(&self, _reason: BlockReason) -> Option<u64> {
            Some(self.stamp)
        }
    }

    #[test]
    fn parked_trap_is_offered_to_the_handler_only_when_its_key_changes() {
        let mut b = ProgramBuilder::new();
        let entry = b.begin_func(0);
        b.emit(Insn::Enter(0));
        b.emit(Insn::Const(L2_BASE));
        b.emit(Insn::Const(5));
        b.emit(Insn::Trap {
            id: 42,
            argc: 1,
            retc: 1,
        });
        b.emit(Insn::StoreMem);
        b.emit(Insn::Halt);
        let mut p = Platform::new(PlatformConfig::default());
        p.load(b.finish());
        p.invoke(PeId(0), entry, &[]);
        let mut h = Gate {
            open: false,
            stamp: 0,
            calls: 0,
        };
        // Enter, Const, Const, then the first offer blocks; six parked
        // offers follow without a handler call.
        let r = p.run(&mut h, 10);
        assert_eq!((r.traps, r.dispatches, h.calls), (7, 1, 1));
        // Opening the gate alone changes nothing the key stamps.
        h.open = true;
        let r = p.run(&mut h, 3);
        assert_eq!((r.traps, r.dispatches, h.calls), (3, 0, 1));
        assert!(matches!(p.pes[0].status, PeStatus::Blocked(_)));
        // A new stamp re-offers the trap in the very next cycle.
        h.stamp = 1;
        let r = p.step_cycle(&mut h);
        assert_eq!((r.traps, r.dispatches, h.calls), (1, 1, 2));
        assert_eq!(p.pes[0].status, PeStatus::Running);
        p.run(&mut h, 2);
        assert_eq!(p.mem.peek(L2_BASE).unwrap(), 10);
    }

    #[test]
    fn quiescence_and_deadlock_detection() {
        let mut p = Platform::new(PlatformConfig::default());
        assert!(p.is_quiescent());
        assert!(!p.is_deadlocked());
        p.pes[0].status = PeStatus::Blocked(BlockReason::TokenWait { link: 1 });
        assert!(!p.is_quiescent());
        assert!(p.is_deadlocked());
        p.pes[1].status = PeStatus::Running;
        assert!(!p.is_deadlocked());
    }

    #[test]
    fn task_completion_reaches_handler() {
        struct H {
            done: u32,
        }
        impl TrapHandler for H {
            fn trap(
                &mut self,
                _c: &mut TrapCtx<'_>,
                _p: PeId,
                _cur: &mut PeState,
                _id: u16,
                _a: &[Word],
            ) -> TrapResult {
                TrapResult::Fault("unexpected")
            }
            fn on_task_complete(&mut self, _c: &mut TrapCtx<'_>, pe: PeId, _cur: &mut PeState) {
                assert_eq!(pe, PeId(2));
                self.done += 1;
            }
        }
        let mut b = ProgramBuilder::new();
        let entry = b.begin_func(0);
        b.emit(Insn::Enter(0));
        b.emit(Insn::Ret { retc: 0 });
        let prog = b.finish();
        let mut p = Platform::new(PlatformConfig::default());
        p.load(prog);
        p.invoke(PeId(2), entry, &[]);
        let mut h = H { done: 0 };
        p.run(&mut h, 5);
        assert_eq!(h.done, 1);
        assert!(p.is_quiescent());
    }
}
