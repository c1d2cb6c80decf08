//! The traced runs' work counts are exact: two traced runs of one seed
//! must agree byte-for-byte on every count in `EXACT_COUNTS`, and the
//! 64-macroblock decode must reproduce the counts the ROADMAP's
//! re-anchor probe measured.

use perfbench::{decode, fuzz, timetravel, Outcome, EXACT_COUNTS, PER_LAYER};

const SEED: u64 = 1;

/// The exact counts of a traced outcome, rendered as text so the
/// comparison is byte-for-byte.
fn counts(o: &Outcome) -> String {
    EXACT_COUNTS
        .iter()
        .map(|&name| format!("{name}={}\n", o.metrics[name].value))
        .collect()
}

fn assert_clean_and_complete(o: &Outcome) {
    assert_eq!(o.failed, 0, "{:?}", o.errors);
    assert!(o.attempted > 0);
    for &(name, _) in PER_LAYER {
        let v = o
            .metrics
            .get(name)
            .unwrap_or_else(|| panic!("{name} missing"))
            .value;
        assert!(v.is_finite(), "{name} = {v}");
    }
}

#[test]
fn decode_counts_repeat_and_match_the_reanchor_probe() {
    let (a, _) = decode::run_traced(SEED, 64);
    let (b, _) = decode::run_traced(SEED, 64);
    assert_clean_and_complete(&a);
    assert_eq!(counts(&a), counts(&b));
    let m = |name: &str| a.metrics[name].value;
    assert_eq!(m("p2012.cycles"), 18_247.0);
    assert_eq!(m("p2012.traps"), 79_328.0);
    assert_eq!(m("p2012.insns"), 25_803.0);
    assert_eq!(m("p2012.pe_cycles.blocked"), 76_510.0);
}

#[test]
fn timetravel_counts_repeat() {
    let (a, _) = timetravel::run_traced(SEED, 64, 3);
    let (b, _) = timetravel::run_traced(SEED, 64, 3);
    assert_clean_and_complete(&a);
    assert_eq!(counts(&a), counts(&b));
    assert!(a.metrics["replay.checkpoints"].value >= 2.0);
}

#[test]
fn fuzz_counts_repeat() {
    let (a, _) = fuzz::run_traced(SEED, 12);
    let (b, _) = fuzz::run_traced(SEED, 12);
    assert_clean_and_complete(&a);
    assert_eq!(counts(&a), counts(&b));
    assert!(a.metrics["multiverse.universes"].value > 0.0);
}
