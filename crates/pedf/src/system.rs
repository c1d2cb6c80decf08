//! The assembled system: platform + runtime.
//!
//! [`System`] is what a debugging session attaches to — the equivalent of
//! GDB connecting to the P2012 simulator process (bottom of Fig. 3). It
//! owns the [`p2012::Platform`] and the [`Runtime`] and advances them in
//! lock-step; the debugger crate drives it cycle by cycle, everything else
//! (examples, benchmarks) uses the bulk `run*` helpers.

use p2012::{PeId, Platform};

use crate::runtime::Runtime;

/// A booted (or bootable) PEDF machine.
#[derive(Debug, Clone)]
pub struct System {
    pub platform: Platform,
    pub runtime: Runtime,
}

impl System {
    pub fn new(platform: Platform, runtime: Runtime) -> Self {
        System { platform, runtime }
    }

    /// Fork this system into an independent copy that shares memory pages
    /// copy-on-write with `self`. Both halves diverge freely afterwards;
    /// only pages one side writes are physically duplicated. This is the
    /// cheap path for spawning many sessions from one booted baseline.
    pub fn fork(&mut self) -> System {
        System {
            platform: self.platform.fork(),
            runtime: self.runtime.clone(),
        }
    }

    /// Rewind to `snapshot`, an earlier [`System::fork`] of this system:
    /// become a fork of it again. Only what is not history carries over
    /// from the timeline being left: the installed memory watches (their
    /// pending hits are dropped), each env source's append-only recording
    /// and the generator of `re_pull` test sources. Everything else —
    /// clock, PEs, DMA, memory, FIFOs, scheduler, sinks — is the
    /// snapshot's.
    pub fn restore(&mut self, snapshot: &mut System) {
        let abandoned = std::mem::replace(self, snapshot.fork());
        self.platform.mem.inherit_watches(&abandoned.platform.mem);
        self.runtime.inherit_env(abandoned.runtime);
    }

    /// Advance one cycle.
    pub fn step(&mut self) -> p2012::CycleReport {
        self.platform.step_cycle(&mut self.runtime)
    }

    /// Advance `cycles` cycles.
    pub fn run(&mut self, cycles: u64) -> p2012::CycleReport {
        let mut total = p2012::CycleReport::default();
        for _ in 0..cycles {
            total.merge(self.step());
        }
        total
    }

    pub fn clock(&self) -> u64 {
        self.platform.clock
    }

    /// Run the boot program at `entry` on the host PE until the framework
    /// reports boot completion (graph registered, controllers launched).
    pub fn boot(&mut self, entry: debuginfo::CodeAddr) -> Result<(), String> {
        let host = self.platform.host_id();
        self.platform.invoke(host, entry, &[]);
        for _ in 0..1_000_000u64 {
            self.step();
            if self.runtime.booted {
                return Ok(());
            }
            if let p2012::PeStatus::Faulted(f) = self.platform.pes[host.index()].status {
                return Err(format!(
                    "boot fault: {f}{}",
                    self.runtime
                        .protocol_errors
                        .last()
                        .map(|e| format!(" ({e})"))
                        .unwrap_or_default()
                ));
            }
        }
        Err("boot did not complete within 1M cycles".to_string())
    }

    /// Run until `pred` holds, at most `max_cycles`. Returns the cycle at
    /// which the predicate first held.
    pub fn run_until(
        &mut self,
        max_cycles: u64,
        mut pred: impl FnMut(&System) -> bool,
    ) -> Option<u64> {
        for _ in 0..max_cycles {
            if pred(self) {
                return Some(self.clock());
            }
            self.step();
        }
        if pred(self) {
            Some(self.clock())
        } else {
            None
        }
    }

    /// Run until the platform is quiescent (all controllers exited).
    pub fn run_to_quiescence(&mut self, max_cycles: u64) -> bool {
        self.run_until(max_cycles, |s| s.platform.is_quiescent())
            .is_some()
    }

    /// Status of the PE an actor is mapped to, for displays.
    pub fn pe_status(&self, pe: PeId) -> p2012::PeStatus {
        self.platform.pes[pe.index()].status
    }

    /// First faulted PE, if any, with its fault.
    pub fn first_fault(&self) -> Option<(PeId, p2012::VmFault)> {
        self.platform
            .pes
            .iter()
            .enumerate()
            .find_map(|(i, p)| match p.status {
                p2012::PeStatus::Faulted(f) => Some((PeId(i as u16), f)),
                _ => None,
            })
    }
}

#[cfg(test)]
mod tests {
    //! End-to-end substrate tests: a hand-assembled two-filter pipeline
    //! (the `AModule` shape of §IV-A) built directly in bytecode. This is
    //! the blueprint the ADL elaborator automates.

    use super::*;
    use crate::api::{self, ApiStubs, StringPool};
    use crate::envio::{EnvSink, EnvSource, ValueGen};
    use crate::graph::{ActorId, ConnId, LinkId};
    use crate::runtime::FilterSched;
    use debuginfo::{DebugInfoBuilder, TypeTable, Value};
    use p2012::{Insn, Platform, PlatformConfig, ProgramBuilder};

    struct Pipeline {
        sys: System,
        boot_entry: u32,
        #[allow(dead_code)]
        stubs: ApiStubs,
    }

    /// Build: module m { controller; f1 -> f2 }, f1 pushes `base + step#`,
    /// f2 pops, adds 1, prints. Controller FIREs both each step.
    fn build(max_steps: u64, f1_pushes_per_step: u32) -> Pipeline {
        let mut b = ProgramBuilder::new();
        let mut di = DebugInfoBuilder::new();
        let stubs = api::emit_stubs(&mut b, &mut di);

        // ---- filter 1 WORK: for i in 0..n { push_token(conn0, i, 7) } ----
        let f1 = b.begin_func(0);
        b.emit(Insn::Enter(1)); // local0 = i
        b.emit(Insn::Const(0));
        b.emit(Insn::StoreLocal(0));
        let loop_top = b.here();
        let done = b.new_label();
        b.emit(Insn::LoadLocal(0));
        b.emit(Insn::Const(f1_pushes_per_step));
        b.emit(Insn::LtU);
        b.jump_if_zero(done);
        b.emit(Insn::Const(0)); // conn 0
        b.emit(Insn::LoadLocal(0)); // index
        b.emit(Insn::Const(7)); // value
        b.emit(Insn::Call {
            addr: stubs.push_token,
            argc: 3,
        });
        b.emit(Insn::LoadLocal(0));
        b.emit(Insn::Const(1));
        b.emit(Insn::Add);
        b.emit(Insn::StoreLocal(0));
        b.emit(Insn::Jump(loop_top));
        b.bind(done);
        b.emit(Insn::Ret { retc: 0 });

        // ---- filter 2 WORK: v = pop(conn1, 0); print(v + 1) ----
        let f2 = b.begin_func(0);
        b.emit(Insn::Enter(0));
        b.emit(Insn::Const(1)); // conn 1
        b.emit(Insn::Const(0)); // index
        b.emit(Insn::Call {
            addr: stubs.pop_token,
            argc: 2,
        });
        b.emit(Insn::Const(1));
        b.emit(Insn::Add);
        b.emit(Insn::Call {
            addr: stubs.print,
            argc: 1,
        });
        b.emit(Insn::Ret { retc: 0 });

        // ---- controller WORK: while continue { fire f1; fire f2; wait } --
        let ctrl = b.begin_func(0);
        b.emit(Insn::Enter(0));
        let loop_top = b.here();
        let end = b.new_label();
        b.emit(Insn::Call {
            addr: stubs.continue_,
            argc: 0,
        });
        b.jump_if_zero(end);
        b.emit(Insn::Call {
            addr: stubs.step_begin,
            argc: 0,
        });
        for actor in [2u32, 3] {
            b.emit(Insn::Const(actor));
            b.emit(Insn::Call {
                addr: stubs.actor_fire,
                argc: 1,
            });
        }
        b.emit(Insn::Call {
            addr: stubs.wait_actor_init,
            argc: 0,
        });
        b.emit(Insn::Call {
            addr: stubs.wait_actor_sync,
            argc: 0,
        });
        b.emit(Insn::Call {
            addr: stubs.step_end,
            argc: 0,
        });
        b.emit(Insn::Jump(loop_top));
        b.bind(end);
        b.emit(Insn::Ret { retc: 0 });

        // ---- boot program (host) ----
        let mut pool = StringPool::new();
        let names: Vec<usize> = ["m", "ctrl", "f1", "f2"]
            .iter()
            .map(|n| pool.intern(n))
            .collect();
        let conn_names: Vec<usize> = ["an_output", "an_input", "m_in", "m_out"]
            .iter()
            .map(|n| pool.intern(n))
            .collect();
        pool.layout(p2012::memory::L3_BASE + 0x1000);

        let boot = b.begin_func(0);
        b.emit(Insn::Enter(0));
        // register_actor(id, kind, parent1, name_addr, name_len, pe1, work1)
        let actor_rows: [(u32, u32, u32, usize, u32, u32); 4] = [
            (0, 2, 0, names[0], 0, 0),
            (1, 1, 1, names[1], 1, ctrl + 1),
            (2, 0, 1, names[2], 2, f1 + 1),
            (3, 0, 1, names[3], 3, f2 + 1),
        ];
        for (id, kind, parent1, name, pe1, work1) in actor_rows {
            let (addr, len) = pool.addr_of(name);
            for w in [id, kind, parent1, addr, len, pe1, work1] {
                b.emit(Insn::Const(w));
            }
            b.emit(Insn::Call {
                addr: stubs.register_actor,
                argc: 7,
            });
        }
        // register_conn(id, actor, dir, type, name_addr, name_len)
        let conn_rows: [(u32, u32, u32, usize); 4] = [
            (0, 2, 1, conn_names[0]), // f1.an_output (out)
            (1, 3, 0, conn_names[1]), // f2.an_input (in)
            (2, 0, 0, conn_names[2]), // m.m_in (module in)
            (3, 0, 1, conn_names[3]), // m.m_out (module out)
        ];
        for (id, actor, dir, name) in conn_rows {
            let (addr, len) = pool.addr_of(name);
            for w in [id, actor, dir, TypeTable::U32.0, addr, len] {
                b.emit(Insn::Const(w));
            }
            b.emit(Insn::Call {
                addr: stubs.register_conn,
                argc: 6,
            });
        }
        // register_link(id, from, to, capacity, class, fifo_base)
        let l1 = p2012::memory::L1_BASE + 0x100;
        for w in [0, 0, 1, 8, 0, l1] {
            b.emit(Insn::Const(w));
        }
        b.emit(Insn::Call {
            addr: stubs.register_link,
            argc: 6,
        });
        b.emit(Insn::Call {
            addr: stubs.boot_complete,
            argc: 0,
        });
        b.emit(Insn::Ret { retc: 0 });

        let prog = b.finish();
        let mut platform = Platform::new(PlatformConfig::default());
        platform.load(prog);
        pool.install(&mut platform.mem).unwrap();
        let mut runtime = Runtime::new(TypeTable::new());
        runtime.set_max_steps(ActorId(0), max_steps);
        Pipeline {
            sys: System::new(platform, runtime),
            boot_entry: boot,
            stubs,
        }
    }

    #[test]
    fn boot_registers_the_graph() {
        let mut p = build(1, 1);
        p.sys.boot(p.boot_entry).unwrap();
        let g = &p.sys.runtime.graph;
        assert_eq!(g.actors.len(), 4);
        assert_eq!(g.links.len(), 1);
        assert_eq!(g.actor_by_name("f1").unwrap().pe, Some(PeId(1)));
        assert_eq!(g.qualified_name(ActorId(3)), "m.f2");
        assert_eq!(g.link_label(LinkId(0)), "f1::an_output -> f2::an_input");
    }

    #[test]
    fn pipeline_runs_steps_and_prints() {
        let mut p = build(3, 1);
        p.sys.boot(p.boot_entry).unwrap();
        assert!(p.sys.run_to_quiescence(100_000), "did not finish");
        assert_eq!(p.sys.first_fault(), None);
        // f2 printed 7+1 once per step.
        assert_eq!(p.sys.runtime.console, vec!["8", "8", "8"]);
        assert_eq!(p.sys.runtime.module_steps(ActorId(0)), 3);
        assert_eq!(p.sys.runtime.steps_done(ActorId(2)), 3);
        assert_eq!(p.sys.runtime.stats.tokens_pushed, 3);
        assert_eq!(p.sys.runtime.stats.tokens_popped, 3);
        // Link drained.
        assert_eq!(p.sys.runtime.occupancy(LinkId(0)), 0);
    }

    #[test]
    fn rate_mismatch_accumulates_tokens() {
        // f1 pushes 3 per step, f2 consumes 1: backlog grows by 2/step —
        // the §VI-D "over/underflow" situation in miniature.
        let mut p = build(3, 3);
        p.sys.boot(p.boot_entry).unwrap();
        assert!(p.sys.run_to_quiescence(100_000));
        assert_eq!(p.sys.first_fault(), None);
        assert_eq!(p.sys.runtime.occupancy(LinkId(0)), 6);
        let tokens = p.sys.runtime.queued_tokens(&p.sys.platform.mem, LinkId(0));
        assert_eq!(tokens.len(), 6);
        assert!(tokens.iter().all(|t| t.head_word() == 7));
        let (pushed, popped) = p.sys.runtime.counters(LinkId(0));
        assert_eq!((pushed, popped), (9, 3));
    }

    #[test]
    fn starved_filter_blocks_then_deadlock_is_untied_by_injection() {
        // f1 pushes nothing; f2 blocks waiting for a token. The controller
        // blocks in WAIT_FOR_ACTOR_SYNC: a deadlock the debugger unties by
        // injecting a token (§III "Altering the Normal Execution").
        let mut p = build(1, 0);
        p.sys.boot(p.boot_entry).unwrap();
        p.sys.run(5_000);
        assert!(p.sys.platform.is_deadlocked(), "expected a deadlock");
        let f2_pe = p.sys.runtime.graph.actor(ActorId(3)).pe.unwrap();
        assert!(matches!(
            p.sys.pe_status(f2_pe),
            p2012::PeStatus::Blocked(p2012::BlockReason::TokenWait { .. })
        ));
        // Debugger-style intervention:
        let v = Value::u32(41);
        p.sys
            .runtime
            .inject_token(&mut p.sys.platform.mem, LinkId(0), &v)
            .unwrap();
        assert!(p.sys.run_to_quiescence(50_000), "still stuck");
        assert_eq!(p.sys.runtime.console, vec!["42"]);
    }

    #[test]
    fn scheduling_states_are_observable() {
        let mut p = build(2, 1);
        p.sys.boot(p.boot_entry).unwrap();
        // Right after boot, filters are not scheduled yet.
        assert_eq!(
            p.sys.runtime.filter_sched(ActorId(2)),
            FilterSched::NotScheduled
        );
        p.sys.run_to_quiescence(100_000);
        // After the run every filter came back to rest.
        assert_eq!(
            p.sys.runtime.filter_sched(ActorId(2)),
            FilterSched::NotScheduled
        );
        assert_eq!(FilterSched::Scheduled.label(), "ready");
    }

    #[test]
    fn events_stream_when_enabled() {
        use crate::events::RuntimeEvent;
        let mut p = build(1, 1);
        p.sys.runtime.events.enable();
        p.sys.boot(p.boot_entry).unwrap();
        p.sys.run_to_quiescence(100_000);
        let evs: Vec<_> = p.sys.runtime.events.drain().collect();
        let pushes = evs
            .iter()
            .filter(|e| matches!(e, RuntimeEvent::TokenPushed { .. }))
            .count();
        let pops = evs
            .iter()
            .filter(|e| matches!(e, RuntimeEvent::TokenPopped { .. }))
            .count();
        assert_eq!(pushes, 1);
        assert_eq!(pops, 1);
        assert!(evs
            .iter()
            .any(|e| matches!(e, RuntimeEvent::StepBegun { step: 1, .. })));
        assert!(evs
            .iter()
            .any(|e| matches!(e, RuntimeEvent::WorkEnded { .. })));
        assert!(evs.contains(&RuntimeEvent::BootComplete));
    }

    #[test]
    fn env_source_and_sink_move_boundary_tokens() {
        // Attach a source to m.m_in and a sink to m.m_out through extra
        // links... the minimal pipeline has no boundary links, so validate
        // the rejection paths instead.
        let mut p = build(1, 1);
        p.sys.boot(p.boot_entry).unwrap();
        let err = p
            .sys
            .runtime
            .add_source(EnvSource::new(ConnId(0), 1, ValueGen::Constant(1)))
            .unwrap_err();
        assert!(err.contains("not a module input"), "{err}");
        let err = p
            .sys
            .runtime
            .add_sink(EnvSink::new(ConnId(1), 1))
            .unwrap_err();
        assert!(err.contains("not a module output"), "{err}");
        // m_in exists but is unbound.
        let err = p
            .sys
            .runtime
            .add_source(EnvSource::new(ConnId(2), 1, ValueGen::Constant(1)))
            .unwrap_err();
        assert!(err.contains("unbound"), "{err}");
    }

    #[test]
    fn token_alteration_set_and_drop() {
        let mut p = build(2, 3);
        p.sys.boot(p.boot_entry).unwrap();
        p.sys.run_to_quiescence(100_000);
        // Backlog of 4 tokens (6 pushed, 2 popped).
        assert_eq!(p.sys.runtime.occupancy(LinkId(0)), 4);
        p.sys
            .runtime
            .set_token(&mut p.sys.platform.mem, LinkId(0), 2, &Value::u32(70))
            .unwrap();
        let toks = p.sys.runtime.queued_tokens(&p.sys.platform.mem, LinkId(0));
        assert_eq!(toks[2].head_word(), 70);
        p.sys
            .runtime
            .drop_token(&mut p.sys.platform.mem, LinkId(0), 0)
            .unwrap();
        assert_eq!(p.sys.runtime.occupancy(LinkId(0)), 3);
        let toks = p.sys.runtime.queued_tokens(&p.sys.platform.mem, LinkId(0));
        assert_eq!(toks[1].head_word(), 70);
        // Type mismatch rejected.
        let bad = Value::scalar(TypeTable::U8, 1);
        assert!(p
            .sys
            .runtime
            .inject_token(&mut p.sys.platform.mem, LinkId(0), &bad)
            .is_err());
    }
}
