//! `analyze` — run the static analyzers (dataflow `dfa` + bytecode
//! verifier `bcv` + performance analyzer `sched`) over the H.264
//! case-study graphs from the command line, for CI gating and quick
//! inspection.
//!
//! ```text
//! analyze [clean|deadlock|rate|oob|race|benign|dma|capacity]
//!         [--deny warnings] [--expect-findings] [--json]
//!         [--replay-check] [--sched-check] [--witness-check]
//! ```
//!
//! Exit status is non-zero when `--deny warnings` sees a finding at
//! warning level or above, or when `--expect-findings` sees none at
//! warning level or above (info-level findings — FIFO slack, throughput
//! bounds — are unconditionally present, so they satisfy neither gate) —
//! the two directions a CI gate needs (clean graphs must stay clean,
//! known-bad graphs must stay detected). `--json` replaces the human-readable output
//! with machine-readable findings in a deterministic, byte-stable order.
//!
//! The `--*-check` gates print thin transcripts over the differential
//! oracles of `appgen::oracle`, the same code the fuzz farm runs over
//! generated apps, with the decoder variant as the target
//! (`dataflow_debugger::decoder::Decoder`):
//!
//! * `--replay-check` is oracle D6: it *executes* the variant under the
//!   debugger with time travel enabled, drives a `reverse-continue`
//!   round trip, and prints byte-stable state hashes. CI byte-compares
//!   two runs and the checked-in transcript: any nondeterminism in the
//!   simulator or the replay engine shows up as a diff or as a
//!   `REPLAY501` finding (non-zero exit).
//! * `--sched-check` is oracles D3 + D5 for the `sched` capacity and
//!   throughput predictions: the variant completes with every analyzed
//!   FIFO pinned to its *predicted minimal* capacity; for every link whose
//!   minimum exceeds the floor of one, the variant wedges with that single
//!   link one slot below the minimum, a producer blocked on exactly the
//!   link the static `SCH501` finding blames. The measured end-to-end
//!   cycle count must also respect the static throughput lower bound.
//! * `--witness-check` is the differential gate for the multiverse engine
//!   (`crates/multiverse`): the seeded `deadlock` and `race` variants must
//!   yield *replayable* dynamic witnesses (MV701/MV702) that land a fresh
//!   session at the failure with the statically blamed edge/pair confirmed
//!   dynamically, while the `benign` variant — statically indistinguishable
//!   from the race (`RACE401` fires on the same shared word) but
//!   data-dependently immune — must be refuted within the default budget
//!   (MV703). Witnessed findings carry the replayable choice trace in the
//!   findings JSON (`witness` field).
//!
//! Everything the gates print is byte-stable; `tests/golden/` holds the
//! transcripts CI diffs against.

use std::error::Error;
use std::process::ExitCode;
use std::time::Instant;

use dataflow_debugger::appgen::oracle;
use dataflow_debugger::debuginfo::{
    render_findings, render_findings_json, sort_and_dedup_findings, Finding,
};
use dataflow_debugger::decoder::{Decoder, ENV_SEED};
use dataflow_debugger::h264::{golden, Bug};
use dataflow_debugger::p2012::{BlockReason, PeStatus};
use dataflow_debugger::pedf::{ActorId, LinkId};
use dataflow_debugger::{bcv, dfa, multiverse, sched};

/// A gate's verdict; the error is printed and fails the process.
type Gate = Result<(), Box<dyn Error>>;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut variant = Bug::None;
    let mut deny_warnings = false;
    let mut expect_findings = false;
    let mut json = false;
    let mut replay_check = false;
    let mut sched_check = false;
    let mut witness_check = false;
    for a in &args {
        match a.as_str() {
            "clean" => variant = Bug::None,
            "deadlock" => variant = Bug::Deadlock,
            "rate" => variant = Bug::RateMismatch,
            "oob" => variant = Bug::OobStore,
            "race" => variant = Bug::SharedScratch,
            "benign" => variant = Bug::BenignScratch,
            "dma" => variant = Bug::DmaOverlap,
            "capacity" => variant = Bug::TightFifo,
            "--deny" => {}
            "warnings" => deny_warnings = true,
            "--expect-findings" => expect_findings = true,
            "--json" => json = true,
            "--replay-check" => replay_check = true,
            "--sched-check" => sched_check = true,
            "--witness-check" => witness_check = true,
            other => {
                eprintln!(
                    "usage: analyze [clean|deadlock|rate|oob|race|benign|dma|capacity] \
                     [--deny warnings] [--expect-findings] [--json] \
                     [--replay-check] [--sched-check] [--witness-check] (got `{other}`)"
                );
                return ExitCode::FAILURE;
            }
        }
    }
    let verdict = if replay_check {
        run_replay_check(variant)
    } else if sched_check {
        run_sched_check(variant)
    } else if witness_check {
        run_witness_check(variant)
    } else {
        run_static(variant, deny_warnings, expect_findings, json)
    };
    match verdict {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The default mode: print the findings and gate on their severity.
fn run_static(variant: Bug, deny_warnings: bool, expect_findings: bool, json: bool) -> Gate {
    let t0 = Instant::now();
    let verdict = oracle::static_pass(&Decoder {
        bug: variant,
        n_mbs: 4,
    })?;
    let wall = t0.elapsed();
    let findings = &verdict.findings;

    if json {
        print!("{}", render_findings_json(findings));
    } else {
        let graph = &verdict.app.graph;
        println!(
            "analyzed {:?}: {} actors, {} links, {} kernels, {} functions in {:.2?}",
            variant,
            graph.actors.len(),
            graph.links.len(),
            verdict.app.kernel_files.len(),
            verdict.app.program.funcs.len(),
            wall
        );
        print!("{}", render_findings(findings));
        if !verdict.bcv.race_pairs.is_empty() {
            let names: Vec<String> = verdict
                .bcv
                .race_pairs
                .iter()
                .map(|&(a, b)| {
                    format!(
                        "{} <-> {}",
                        graph.qualified_name(ActorId(a)),
                        graph.qualified_name(ActorId(b))
                    )
                })
                .collect();
            println!("race pairs: {}", names.join(", "));
        }
    }

    let worst = findings.iter().map(|f| f.severity).max();
    if deny_warnings && worst >= Some(dfa::Severity::Warning) {
        return Err("findings at or above warning level (denied)".into());
    }
    if expect_findings && worst < Some(dfa::Severity::Warning) {
        return Err("expected warning-or-worse findings, analyzer reported none".into());
    }
    Ok(())
}

/// The CI determinism gate: oracle D6 on the variant. Within one
/// invocation the final state hash must survive restore + replay
/// unchanged and the replay engine must report zero `REPLAY501`
/// divergences.
fn run_replay_check(variant: Bug) -> Gate {
    let rt = oracle::replay_round_trip(&Decoder {
        bug: variant,
        n_mbs: 8,
    })?;
    println!(
        "replay-check {variant:?}: {} stops, terminal {}",
        rt.stops, rt.terminal
    );
    println!("end cycle {} hash {:#018x}", rt.end_cycle, rt.end_hash);
    println!("reverse-continue landed at cycle {}", rt.landed);
    println!(
        "replayed to cycle {} hash {:#018x}",
        rt.replayed_cycle, rt.replayed_hash
    );
    println!("replay findings: {}", rt.findings.len());
    if !rt.findings.is_empty() {
        print!("{}", render_findings(&rt.findings));
    }
    Ok(rt.check()?)
}

/// The differential gate for the static performance analyzer: oracles D3
/// and D5 on the variant, plus the static detection direction of
/// `SCH501` and, on the clean decoder, the golden output at the minimum.
fn run_sched_check(variant: Bug) -> Gate {
    const N_MBS: u64 = 8;
    let target = Decoder {
        bug: variant,
        n_mbs: N_MBS,
    };
    let verdict = oracle::static_pass(&target)?;

    // Static detection direction: the seeded capacity bug must already be
    // an SCH501 on the as-built graph; the clean graph must carry none.
    let sch501: Vec<&str> = verdict
        .findings
        .iter()
        .filter(|f| f.rule == sched::rules::CAPACITY_BELOW_MIN)
        .map(|f| f.subject.as_str())
        .collect();
    match variant {
        Bug::TightFifo if sch501.is_empty() => {
            return Err("seeded tight FIFO produced no SCH501 finding".into());
        }
        Bug::None if !sch501.is_empty() => {
            return Err(format!("clean graph produced SCH501 findings: {sch501:?}").into());
        }
        _ => {}
    }

    let check = oracle::check_capacity_arms(&target, &verdict)?
        .ok_or("no capacity prediction to check (structural deadlock or no analyzable link)")?;
    println!(
        "sched-check {variant:?}: {} analyzed links, period bound {} cycles",
        check.caps.len(),
        verdict.sched.period_lb
    );
    for (label, cap) in &check.caps {
        println!("  min cap {label} = {cap}");
    }
    println!("minimal capacities: completed in {} cycles", check.cycles);

    // The clean variant's output must still match the golden model — the
    // squeeze changes scheduling, never values.
    if variant == Bug::None {
        let expect = golden::decode_stream(N_MBS as u32, ENV_SEED);
        let sink = check
            .sys
            .runtime
            .sink_for(check.app.boundary_out["frame_out"])
            .expect("sink attached");
        if sink.checksum != golden::checksum(&expect) {
            return Err("output diverged from the golden model at minimal capacities".into());
        }
        println!("golden checksum intact at minimal capacities");
    }

    if let Some(bound) = oracle::check_throughput(&verdict.sched, N_MBS, check.cycles)? {
        println!(
            "throughput: {} cycles for {N_MBS} iterations >= static bound {bound}",
            check.cycles
        );
    }

    for (label, cap, label_full) in &check.squeezed {
        println!("  {label} at {cap}: wedges, dynamic blame and SCH501 agree on {label_full}");
    }
    if check.squeezed.is_empty() {
        println!("no analyzed link above the one-slot floor; squeeze arm vacuous");
        if variant == Bug::TightFifo {
            return Err("seeded tight FIFO exposed no above-floor link to squeeze".into());
        }
    }
    println!("sched-check PASS");
    Ok(())
}

/// The differential gate for the multiverse engine: the seeded `deadlock`
/// and `race` variants must yield dynamic witnesses whose replay lands a
/// *fresh* session at the failure with the statically blamed edge/pair
/// confirmed dynamically; the `benign` variant — same static `RACE401`,
/// data-dependently immune — must be refuted within the default budget.
/// Witnessed findings carry the choice trace in the findings JSON.
fn run_witness_check(variant: Bug) -> Gate {
    let until = match variant {
        Bug::Deadlock => multiverse::Until::Deadlock,
        Bug::SharedScratch | Bug::BenignScratch => multiverse::Until::Race,
        _ => return Err("--witness-check supports the deadlock, race and benign variants".into()),
    };
    let expect_witness = !matches!(variant, Bug::BenignScratch);
    let target = Decoder {
        bug: variant,
        n_mbs: 4,
    };

    // Static pass first: these are the claims the dynamic gate must
    // confirm or refute (the dfa + bcv findings only).
    let verdict = oracle::static_pass(&target)?;
    let mut findings = verdict.dfa.findings.clone();
    findings.extend(verdict.bcv.findings.iter().cloned());
    sort_and_dedup_findings(&mut findings);

    let static_edge = findings
        .iter()
        .find(|f| (f.rule == "DFA003" || f.rule == "DFA004") && f.subject.contains("->"))
        .map(|f| f.subject.clone());
    let race_pair = findings
        .iter()
        .find(|f| f.rule == bcv::rules::UNORDERED_SHARED_ACCESS)
        .map(|f| f.subject.clone());
    match variant {
        Bug::Deadlock if static_edge.is_none() => {
            return Err("deadlock variant carries no static DFA003/DFA004 edge finding".into());
        }
        Bug::SharedScratch | Bug::BenignScratch if race_pair.is_none() => {
            return Err("variant carries no static RACE401 — nothing to witness-check".into());
        }
        _ => {}
    }
    if let Some(pair) = &race_pair {
        println!("static RACE401 pair: {pair}");
    }
    if let Some(edge) = &static_edge {
        println!("static deadlock edge: {edge}");
    }

    // Boot the debugger session and explore from the initial state.
    let mut session = oracle::boot_session(&target)?;
    session.load_bcv_input(bcv::AnalysisInput::from_app(&verdict.app));
    println!(
        "witness-check {variant:?} ({} direction, until {})",
        if expect_witness {
            "must-witness"
        } else {
            "must-refute"
        },
        until.label()
    );
    let transcript = session
        .explore(None, None, until)
        .map_err(|e| format!("explore failed: {e}"))?;
    println!("{transcript}");
    let report = session
        .last_explore
        .clone()
        .expect("explore stores its report");

    // Every failed check is reported after the findings JSON.
    let mut errors: Vec<String> = Vec::new();
    match (&report.witness, expect_witness) {
        (Some(w), true) => {
            let expected_rule = match variant {
                Bug::Deadlock => multiverse::rules::WITNESSED_DEADLOCK,
                _ => multiverse::rules::WITNESSED_RACE,
            };
            if w.rule != expected_rule {
                errors.push(format!(
                    "witness rule {} (expected {expected_rule})",
                    w.rule
                ));
            }
            // The dynamic blame must name the statically blamed pair.
            if matches!(variant, Bug::SharedScratch) {
                let pair = race_pair.as_deref().unwrap_or("");
                for name in pair.split(" <-> ") {
                    if !w.blame.contains(name) {
                        errors.push(format!(
                            "witness blame misses racy actor `{name}`: {}",
                            w.blame
                        ));
                    }
                }
            }
            // Replay in a fresh session (anchor must match a from-scratch
            // build) and confirm the failure dynamically.
            let wstr = w.to_string();
            let replayed = oracle::boot_session(&target).and_then(|mut s| {
                println!("{}", s.explore_replay(&wstr)?);
                Ok(s)
            });
            match (replayed, variant) {
                (Ok(landed), Bug::Deadlock) => {
                    let clock = landed.sys.clock();
                    if !landed.sys.platform.is_deadlocked()
                        || landed.sys.runtime.pending_deferred(clock)
                    {
                        errors.push("replayed session is not deadlocked".into());
                    }
                    // The statically blamed edge starves an actor in the
                    // replayed machine.
                    let edge = static_edge.as_deref().unwrap_or("");
                    let g = &landed.sys.runtime.graph;
                    let starved = g.actors.iter().any(|a| {
                        a.pe.is_some_and(|pe| match landed.sys.pe_status(pe) {
                            PeStatus::Blocked(
                                BlockReason::TokenWait { link } | BlockReason::SpaceWait { link },
                            ) => g.link_label(LinkId(link)) == edge,
                            _ => false,
                        })
                    });
                    if !starved {
                        errors.push(format!("no PE blocked on the blamed edge `{edge}`"));
                    }
                    println!("replay confirmed: deadlocked at cycle {clock}, blocked on `{edge}`");
                }
                (Ok(landed), _) if landed.sys.clock() != w.failure_cycle => {
                    errors.push(format!(
                        "replay landed at cycle {} (witness fails at {})",
                        landed.sys.clock(),
                        w.failure_cycle
                    ));
                }
                (Ok(_), _) => {
                    println!(
                        "replay confirmed: landed at failure cycle {}",
                        w.failure_cycle
                    );
                }
                (Err(e), _) => errors.push(format!("witness replay failed: {e}")),
            }
            // Attach the replayable trace to the static finding it
            // confirms, and record the dynamic finding itself.
            for f in findings.iter_mut() {
                let confirms = match variant {
                    Bug::Deadlock => {
                        (f.rule == "DFA003" || f.rule == "DFA004")
                            && Some(&f.subject) == static_edge.as_ref()
                    }
                    _ => f.rule == bcv::rules::UNORDERED_SHARED_ACCESS,
                };
                if confirms {
                    f.witness = Some(wstr.clone());
                }
            }
            let subject = match variant {
                Bug::Deadlock => static_edge.clone().unwrap_or_default(),
                _ => race_pair.clone().unwrap_or_default(),
            };
            findings.push(
                Finding::new(
                    expected_rule,
                    dfa::Severity::Error,
                    subject,
                    format!(
                        "{} (witnessed at cycle {} under {} schedule override{})",
                        w.blame,
                        w.failure_cycle,
                        w.overrides.len(),
                        if w.overrides.len() == 1 { "" } else { "s" }
                    ),
                )
                .with_witness(wstr),
            );
        }
        (None, true) => {
            errors.push("expected a witness, exploration found none".into());
        }
        (Some(w), false) => {
            errors.push(format!(
                "data-dependent false positive produced a witness: {w}"
            ));
        }
        (None, false) => {
            println!(
                "refuted: static RACE401 is a data-dependent false positive here \
                 ({} universes explored, none diverged)",
                report.stats.universes_explored
            );
            findings.push(Finding::new(
                multiverse::rules::BUDGET_EXHAUSTED,
                dfa::Severity::Info,
                race_pair.clone().unwrap_or_default(),
                format!(
                    "no divergence witnessed in {} universes (bounded refutation of RACE401)",
                    report.stats.universes_explored
                ),
            ));
        }
    }

    print!("{}", render_findings_json(&findings));
    if !errors.is_empty() {
        return Err(errors.join("\nerror: ").into());
    }
    println!("witness-check PASS");
    Ok(())
}
