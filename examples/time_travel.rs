//! Time-travel debugging of the §III deadlock: reach the blocked state
//! first, then travel *backwards* to the firing that caused it.
//!
//! The forward story (`deadlock_untangle`) diagnoses the deadlock by
//! inspecting the blocked filters. This session shows the reverse-
//! execution workflow GDB users know from `record`/`reverse-continue`:
//! enable checkpointing, run into the deadlock, install a catchpoint
//! *after the fact*, and let `reverse-continue` land on the last firing
//! of `red' — then ask the token where it came from.
//!
//! ```text
//! cargo run --example time_travel
//! ```

use dataflow_debugger::dfdbg::{DfStop, Session, Stop};
use dataflow_debugger::h264::{build_decoder, Bug};
use dataflow_debugger::p2012::PlatformConfig;
use dataflow_debugger::pedf::{EnvSink, EnvSource, ValueGen};

fn main() {
    let (sys, app) = build_decoder(Bug::Deadlock, 8, PlatformConfig::default()).unwrap();
    let boot = app.boot_entry;
    let mut s = Session::attach(sys, app.info);
    s.boot(boot).expect("boot");
    s.sys
        .runtime
        .add_source(
            EnvSource::new(
                app.boundary_in["bits_in"],
                2,
                ValueGen::Lcg { state: 0xbeef },
            )
            .with_limit(8),
        )
        .unwrap();
    s.sys
        .runtime
        .add_source(
            EnvSource::new(
                app.boundary_in["cfg_in"],
                2,
                ValueGen::Counter { next: 0, step: 1 },
            )
            .with_limit(8),
        )
        .unwrap();
    s.sys
        .runtime
        .add_sink(EnvSink::new(app.boundary_out["frame_out"], 1))
        .unwrap();

    // Start recording: baseline now, a checkpoint (a copy-on-write fork
    // of the machine) every 500 cycles from here on.
    println!("(gdb) record");
    s.enable_time_travel(500);
    println!("[Recording enabled, checkpoint every 500 cycles]");

    println!("\n(gdb) continue");
    let stop = s.run(3_000_000);
    println!("{}", s.describe(&stop));
    assert_eq!(stop, Stop::Deadlock);
    let blocked_at = s.sys.clock();

    println!("\n(gdb) info checkpoints");
    print!("{}", s.checkpoints_info().unwrap());

    // The blocked filter waits on Red_in; who produced the last token on
    // that edge, and when? Install the catchpoint now — it was never
    // needed during the forward run — and search the recording backwards.
    println!("\n(gdb) catch send red::red_ipred_out");
    s.catch_iface_send("red::red_ipred_out").unwrap();
    println!("(gdb) reverse-continue");
    let stop = s.reverse_continue().unwrap();
    println!("{}", s.describe(&stop));
    let tok = match stop {
        Stop::Dataflow(DfStop::TokenSent { token, .. }) => token,
        other => panic!("expected the send catchpoint, got {other:?}"),
    };
    let landed = s.sys.clock();
    assert!(landed < blocked_at);
    println!(
        "[Landed at cycle {landed}, {} cycles before the deadlock]",
        blocked_at - landed
    );

    // The culprit token, pinned to its producing source line.
    println!("\n(gdb) token origin {tok}");
    let origin = s.token_origin(tok).unwrap();
    println!("{origin}");
    assert!(origin.contains(".red'"), "{origin}");
    assert!(origin.contains("red.c:9"), "{origin}");

    // Fine-grained reverse stepping works from here too.
    println!("\n(gdb) reverse-stepi");
    s.reverse_stepi().unwrap();
    println!("[cycle {}]", s.sys.clock());

    // And forward replay is bit-exact: return to the deadlock cycle.
    println!("\n(gdb) goto {blocked_at}");
    s.goto_cycle(blocked_at).unwrap();
    assert_eq!(s.sys.clock(), blocked_at);
    assert!(s.replay_findings().is_empty(), "{:?}", s.replay_findings());
    println!("[Back at cycle {}, replay verified clean]", s.sys.clock());

    println!(
        "\nDone: the deadlock was diagnosed backwards — catchpoint \
         installed after\nthe failure, reverse-continue found the last \
         `red' firing, and `token\norigin' named the producing source \
         line without re-running the program."
    );
}
