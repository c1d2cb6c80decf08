//! The trap interface between programs and the runtime system.
//!
//! PEDF is a *software* framework: filter kernels call framework functions
//! (`pedf_push_token`, `pedf_actor_start`, …). In the simulator these
//! functions are bytecode stubs whose body is a single `Trap` instruction;
//! the platform forwards the trap to a [`TrapHandler`] — the `pedf` crate's
//! runtime — together with a [`TrapCtx`] granting access to the rest of the
//! machine.
//!
//! Keeping the runtime *outside* the platform mirrors the paper's layering
//! (Fig. 3): the debugger owns both the machine and the runtime, observes
//! the machine through breakpoints, and never needs the runtime's
//! cooperation (except in the `framework cooperation` ablation).

use debuginfo::Word;

use crate::dma::DmaEngine;
use crate::memory::Memory;
use crate::platform::PeId;
use crate::vm::{BlockReason, PeState};

/// Outcome of a trap, sized to avoid allocation on the token hot path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrapResult {
    /// Commit; the trap produces no result (retc must be 0).
    Done,
    /// Commit with one result word (retc must be 1).
    Done1(Word),
    /// The condition is not satisfiable this cycle; park the PE. The trap
    /// stays pending and is offered again at the PE's turn in every later
    /// cycle. The handler itself is consulted again only once the block's
    /// [`TrapHandler::wait_key`] changes (or always, when it has none).
    Block(BlockReason),
    /// The runtime detected a protocol violation (e.g. unknown trap id);
    /// the PE faults and the debugger reports it.
    Fault(&'static str),
}

/// Mutable view of the machine handed to the runtime during a trap.
///
/// `pes` contains **all** processing elements, but the slot of the PE
/// currently trapping holds a placeholder (its state travels separately as
/// the `current` argument of [`TrapHandler::trap`]); the runtime must not
/// schedule work onto the trapping PE.
pub struct TrapCtx<'a> {
    pub mem: &'a mut Memory,
    pub dma: &'a mut [DmaEngine],
    pub pes: &'a mut [PeState],
    pub clock: u64,
}

impl TrapCtx<'_> {
    /// Start task `addr` on an idle PE (the runtime scheduling a filter's
    /// WORK method after ACTOR_START).
    pub fn invoke(&mut self, pe: PeId, addr: debuginfo::CodeAddr, args: &[Word]) {
        self.pes[pe.index()].invoke(addr, args);
    }

    pub fn pe(&self, pe: PeId) -> &PeState {
        &self.pes[pe.index()]
    }

    pub fn pe_mut(&mut self, pe: PeId) -> &mut PeState {
        &mut self.pes[pe.index()]
    }
}

/// The runtime system's side of the trap interface.
pub trait TrapHandler {
    /// Service trap `id` raised by `pe` with operands `args`.
    fn trap(
        &mut self,
        ctx: &mut TrapCtx<'_>,
        pe: PeId,
        current: &mut PeState,
        id: u16,
        args: &[Word],
    ) -> TrapResult;

    /// A task started with [`TrapCtx::invoke`] (or
    /// [`crate::Platform::invoke`]) ran to completion on `pe`.
    fn on_task_complete(&mut self, ctx: &mut TrapCtx<'_>, pe: PeId, current: &mut PeState) {
        let _ = (ctx, pe, current);
    }

    /// Called once per cycle before any PE is stepped; the runtime uses it
    /// for housekeeping such as feeding environment sources.
    fn on_cycle(&mut self, ctx: &mut TrapCtx<'_>) {
        let _ = ctx;
    }

    /// Elect the order in which the `n_active` concurrently in-flight DMA
    /// engines advance this cycle: the return value rotates the engine
    /// list (`r % n_active`). Only called when two or more engines have
    /// transfers in flight — a genuine nondeterministic choice point on
    /// real hardware that the deterministic simulator must pick *some*
    /// answer for. The default (0) keeps the historical index order.
    fn choose_dma_order(&mut self, n_active: u32, clock: u64) -> u32 {
        let _ = (n_active, clock);
        0
    }

    /// A stamp of every piece of handler state a trap blocked on `reason`
    /// reads to decide that it is still blocked. The platform records it
    /// when the trap blocks and skips the handler on later offers while the
    /// stamp is unchanged: the offer still counts in
    /// [`crate::CycleReport::traps`], but the handler is not called.
    ///
    /// Soundness rule: every state change such a trap reads must change
    /// the stamp. A stamp that changes without need only costs a redundant
    /// offer. `None` (the default) means "no stamp": the trap is offered
    /// to the handler every cycle.
    fn wait_key(&self, reason: BlockReason) -> Option<u64> {
        let _ = reason;
        None
    }
}

/// A handler that faults on every trap — used by platform-only tests and as
/// the default when running bare programs.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullHandler;

impl TrapHandler for NullHandler {
    fn trap(
        &mut self,
        _ctx: &mut TrapCtx<'_>,
        _pe: PeId,
        _current: &mut PeState,
        _id: u16,
        _args: &[Word],
    ) -> TrapResult {
        TrapResult::Fault("no runtime installed")
    }
}
