//! The state hash's memory fold against its definition.
//!
//! `replay::Fnv64::write_memory` (and through it `full_state_hash`,
//! checkpoint baselines and `Session::state_hash`) skips each untouched
//! page with one multiply by a power of the FNV prime. The
//! definition it must equal is the plain word-by-word fold: `write_u32`
//! on every word of every bank, L1 by cluster, then L2, then L3. These
//! tests hold the two together on random memories, forks and restored
//! systems, and on the end state of every decoder variant.

use std::hash::Hasher;

use dataflow_debugger::appgen::oracle;
use dataflow_debugger::decoder::Decoder;
use dataflow_debugger::h264::Bug;
use dfdbg::{Session, Stop};
use p2012::memory::{L1_BASE, L1_STRIDE, L2_BASE, L3_BASE};
use p2012::{Memory, MemoryMap, PageId, Region, PAGE_WORDS};
use proptest::TestRng;
use replay::Fnv64;

/// Every word of `mem`, one `write_u32` each: the definition.
fn reference_fold(h: &mut Fnv64, mem: &Memory) {
    let map = mem.map();
    let banks = (0..map.clusters)
        .map(|cluster| (Region::L1 { cluster }, map.l1_words))
        .chain([(Region::L2, map.l2_words), (Region::L3, map.l3_words)]);
    for (region, words) in banks {
        for page in 0..words.div_ceil(PAGE_WORDS) {
            for &w in mem.page_data(PageId { region, page }) {
                h.write_u32(w);
            }
        }
    }
}

fn fast_memory_hash(mem: &Memory) -> u64 {
    let mut h = Fnv64::new();
    h.write_memory(mem);
    h.finish()
}

fn reference_memory_hash(mem: &Memory) -> u64 {
    let mut h = Fnv64::new();
    reference_fold(&mut h, mem);
    h.finish()
}

/// `replay::full_state_hash` as it is defined: machine state, then every
/// memory word.
fn reference_state_hash(sys: &pedf::System) -> u64 {
    let mut h = Fnv64::new();
    sys.platform.hash_state(&mut h);
    sys.runtime.hash_state(&mut h);
    reference_fold(&mut h, &sys.platform.mem);
    h.finish()
}

/// A random address in one of `map`'s banks.
fn random_addr(rng: &mut TestRng, map: &MemoryMap) -> u32 {
    match rng.below(3) {
        0 => {
            let cluster = rng.below(u64::from(map.clusters)) as u32;
            L1_BASE + cluster * L1_STRIDE + rng.below(u64::from(map.l1_words)) as u32
        }
        1 => L2_BASE + rng.below(u64::from(map.l2_words)) as u32,
        _ => L3_BASE + rng.below(u64::from(map.l3_words)) as u32,
    }
}

/// A bank size: whole pages or a partial last page, sometimes under one
/// page.
fn random_words(rng: &mut TestRng, max_pages: u64) -> u32 {
    match rng.below(3) {
        0 => (1 + rng.below(max_pages)) as u32 * PAGE_WORDS,
        1 => 1 + rng.below(PAGE_WORDS.into()) as u32,
        _ => rng.below(max_pages) as u32 * PAGE_WORDS + 1 + rng.below(PAGE_WORDS.into()) as u32,
    }
}

#[test]
fn memory_fold_matches_the_definition_on_random_memories() {
    let mut rng = TestRng::seeded(0x0fa5_7f01d);
    for case in 0..40 {
        let map = MemoryMap {
            clusters: 1 + rng.below(3) as u16,
            l1_words: random_words(&mut rng, 16),
            l2_words: random_words(&mut rng, 24),
            l3_words: random_words(&mut rng, 24),
            ..MemoryMap::default()
        };
        // A pool of memories descending from one another by forks; every
        // operation acts on a random member, so writes land on both sides
        // of a fork.
        let mut pool = vec![Memory::new(map.clone())];
        for op in 0..300 {
            let at = rng.below(pool.len() as u64) as usize;
            let value = if rng.next_bool() { 0 } else { rng.next_u32() };
            match rng.below(10) {
                0..=3 => {
                    let addr = random_addr(&mut rng, &map);
                    pool[at].write(addr, value).unwrap();
                }
                4..=6 => {
                    let addr = random_addr(&mut rng, &map);
                    pool[at].poke(addr, value).unwrap();
                }
                7 if pool.len() < 6 => {
                    let child = pool[at].fork();
                    pool.push(child);
                }
                _ => {
                    // Write a run, then write it back to zeros: the page
                    // is no longer the zero page but reads all zero.
                    let start = random_addr(&mut rng, &map);
                    let (region, off) = map.decode(start).unwrap();
                    let end = match region {
                        Region::L1 { .. } => map.l1_words,
                        Region::L2 => map.l2_words,
                        Region::L3 => map.l3_words,
                    };
                    let len = (rng.below(3 * u64::from(PAGE_WORDS)) as u32).min(end - off);
                    for i in 0..len {
                        pool[at].poke(start + i, rng.next_u32()).unwrap();
                    }
                    for i in 0..len {
                        pool[at].poke(start + i, 0).unwrap();
                    }
                }
            }
            if op % 50 == 49 {
                for (i, m) in pool.iter().enumerate() {
                    assert_eq!(
                        fast_memory_hash(m),
                        reference_memory_hash(m),
                        "case {case}, op {op}, memory {i}, {map:?}"
                    );
                }
            }
        }
    }
}

fn run_to_terminal(s: &mut Session) -> Stop {
    loop {
        if let stop @ (Stop::Deadlock | Stop::Quiescent | Stop::Fault { .. } | Stop::CycleLimit) =
            s.run(oracle::MAX_CYCLES)
        {
            return stop;
        }
    }
}

/// Every decoder variant at 64 macroblocks, recorded under time travel:
/// the end state, a restore to a checkpoint, and a replay back to the
/// end all hash as the definition says.
#[test]
fn state_hash_matches_the_definition_on_every_decoder_variant() {
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
        let mut s = oracle::boot_session(&Decoder { bug, n_mbs: 64 }).unwrap();
        s.enable_time_travel(1_000);
        let start = s.sys.clock();
        assert_eq!(s.state_hash(), reference_state_hash(&s.sys), "{bug:?} boot");
        run_to_terminal(&mut s);
        let end = s.sys.clock();
        let mid = start + (end - start) / 2;
        assert_eq!(s.state_hash(), reference_state_hash(&s.sys), "{bug:?} end");

        s.goto_cycle(mid).unwrap();
        assert_eq!(
            s.state_hash(),
            reference_state_hash(&s.sys),
            "{bug:?} restored to cycle {mid}"
        );
        s.goto_cycle(end).unwrap();
        assert_eq!(
            s.state_hash(),
            reference_state_hash(&s.sys),
            "{bug:?} replayed"
        );
    }
}
