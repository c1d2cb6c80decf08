//! Byte-identity guard for the `analyze` differential gates: every gate
//! invocation CI runs must pass and print exactly its checked-in
//! transcript under `tests/golden/`. A change that moves a landing
//! cycle, a capacity, a witness or a hash must update the golden on
//! purpose.

fn gate(variant: &str, flag: &str, golden: &str) {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_analyze"))
        .args([variant, flag])
        .output()
        .expect("spawn analyze");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 transcript");
    assert!(
        out.status.success(),
        "analyze {variant} {flag} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let path = format!("{}/tests/golden/{golden}", env!("CARGO_MANIFEST_DIR"));
    let expect = std::fs::read_to_string(&path).expect("golden transcript");
    assert!(
        stdout == expect,
        "analyze {variant} {flag} drifted from {golden}:\n--- got ---\n{stdout}"
    );
}

#[test]
fn sched_check_clean() {
    gate("clean", "--sched-check", "sched-check-clean.txt");
}

#[test]
fn sched_check_capacity() {
    gate("capacity", "--sched-check", "sched-check-capacity.txt");
}

#[test]
fn replay_check_deadlock() {
    gate("deadlock", "--replay-check", "replay-check-deadlock.txt");
}

#[test]
fn replay_check_race() {
    gate("race", "--replay-check", "replay-check-race.txt");
}

#[test]
fn witness_check_deadlock() {
    gate("deadlock", "--witness-check", "witness-check-deadlock.txt");
}

#[test]
fn witness_check_race() {
    gate("race", "--witness-check", "witness-check-race.txt");
}

#[test]
fn witness_check_benign() {
    gate("benign", "--witness-check", "witness-check-benign.txt");
}

/// Oracle D6 on every decoder variant, `WrongValue` included (it has no
/// CLI name, so no gate covers it): record to the terminal stop,
/// reverse-continue, replay forward, and land on the same cycle and
/// state hash with no `REPLAY501` finding.
#[test]
fn replay_round_trip_holds_on_every_decoder_variant() {
    use dataflow_debugger::appgen::oracle;
    use dataflow_debugger::decoder::Decoder;
    use dataflow_debugger::h264::Bug;

    for (bug, terminal, end_cycle) in [
        (Bug::None, "quiescent", 3500),
        (Bug::RateMismatch, "quiescent", 3844),
        (Bug::WrongValue, "quiescent", 3544),
        (Bug::Deadlock, "deadlock", 1385),
        (Bug::OobStore, "fault", 1271),
        (Bug::SharedScratch, "quiescent", 3564),
        (Bug::BenignScratch, "quiescent", 3596),
        (Bug::DmaOverlap, "quiescent", 3772),
        (Bug::TightFifo, "deadlock", 1325),
    ] {
        let rt = oracle::replay_round_trip(&Decoder { bug, n_mbs: 8 })
            .unwrap_or_else(|d| panic!("{bug:?}: {d}"));
        rt.check().unwrap_or_else(|d| panic!("{bug:?}: {d}"));
        assert_eq!(
            (rt.terminal, rt.end_cycle),
            (terminal, end_cycle),
            "{bug:?} end state"
        );
    }
}
