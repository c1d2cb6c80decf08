//! Token FIFOs backed by simulated memory.
//!
//! Every link owns a ring buffer of `capacity` tokens of `token_words`
//! words each, living at a fixed base address in the memory level chosen by
//! the mapper (L1 for intra-cluster links, L2 inter-cluster, L3 for
//! host-boundary links). Keeping payloads in *simulated* memory — instead
//! of hiding them in the runtime — matters twice for the paper:
//! watchpoints can fire on token traffic, and the debugger "could directly
//! read \[a link's content\] from the framework memory" (§VI-D).
//!
//! The monotonically increasing `pushed`/`popped` counters are the
//! "indexes of the token pushed in and out of the link" that Contribution
//! #3 intercepts: since dataflow order is preserved, the pair (link,
//! index) identifies one token for its whole life.

use debuginfo::Word;
use p2012::{MemError, Memory};

/// Runtime state of one link's FIFO.
#[derive(Debug, Clone)]
pub struct FifoState {
    pub base: u32,
    pub capacity: u32,
    pub token_words: u32,
    /// Tokens ever pushed (the next push gets this index).
    pub pushed: u64,
    /// Tokens ever popped (the next pop gets this index).
    pub popped: u64,
    /// Bumped by every change of the queue's contents (push, pop, inject,
    /// remove): the wait key of a PE blocked on this link. Not `pushed +
    /// popped`, because `remove` takes a token back. A cache stamp: never
    /// hashed.
    pub(crate) version: u64,
}

impl FifoState {
    pub fn new(base: u32, capacity: u32, token_words: u32) -> Self {
        assert!(capacity > 0 && token_words > 0);
        FifoState {
            base,
            capacity,
            token_words,
            pushed: 0,
            popped: 0,
            version: 0,
        }
    }

    pub fn occupancy(&self) -> u32 {
        (self.pushed - self.popped) as u32
    }

    pub fn is_full(&self) -> bool {
        self.occupancy() == self.capacity
    }

    pub fn is_empty(&self) -> bool {
        self.pushed == self.popped
    }

    fn slot_addr(&self, logical: u64) -> u32 {
        self.base + (logical % u64::from(self.capacity)) as u32 * self.token_words
    }

    /// Append a token. Returns the token's global index and the accumulated
    /// memory-stall cycles, or `None` when full (caller blocks the PE).
    pub fn push(
        &mut self,
        mem: &mut Memory,
        words: &[Word],
    ) -> Result<Option<(u64, u32)>, MemError> {
        debug_assert_eq!(words.len() as u32, self.token_words);
        if self.is_full() {
            return Ok(None);
        }
        let addr = self.slot_addr(self.pushed);
        let mut stall = 0;
        for (i, w) in words.iter().enumerate() {
            stall += mem.write(addr + i as u32, *w)?;
        }
        let index = self.pushed;
        self.pushed += 1;
        self.version += 1;
        Ok(Some((index, stall)))
    }

    /// Remove the oldest token into `out`. Returns its global index and the
    /// stall cycles, or `None` when empty.
    pub fn pop(
        &mut self,
        mem: &mut Memory,
        out: &mut Vec<Word>,
    ) -> Result<Option<(u64, u32)>, MemError> {
        if self.is_empty() {
            return Ok(None);
        }
        let addr = self.slot_addr(self.popped);
        let mut stall = 0;
        for i in 0..self.token_words {
            let (w, lat) = mem.read(addr + i)?;
            out.push(w);
            stall += lat;
        }
        let index = self.popped;
        self.popped += 1;
        self.version += 1;
        Ok(Some((index, stall)))
    }

    /// Read the `idx`-th *queued* token (0 = oldest) without consuming it.
    /// Debugger inspection path: uses `peek`, no latency, no watch hits.
    pub fn peek(&self, mem: &Memory, idx: u32) -> Option<Vec<Word>> {
        if idx >= self.occupancy() {
            return None;
        }
        let addr = self.slot_addr(self.popped + u64::from(idx));
        let mut out = Vec::with_capacity(self.token_words as usize);
        for i in 0..self.token_words {
            out.push(mem.peek(addr + i).ok()?);
        }
        Some(out)
    }

    /// Overwrite the `idx`-th queued token (debugger `token set`).
    pub fn overwrite(&mut self, mem: &mut Memory, idx: u32, words: &[Word]) -> Result<(), String> {
        if idx >= self.occupancy() {
            return Err(format!(
                "token index {idx} out of range (occupancy {})",
                self.occupancy()
            ));
        }
        if words.len() as u32 != self.token_words {
            return Err(format!(
                "payload is {} words, token type needs {}",
                words.len(),
                self.token_words
            ));
        }
        let addr = self.slot_addr(self.popped + u64::from(idx));
        for (i, w) in words.iter().enumerate() {
            mem.poke(addr + i as u32, *w).map_err(|e| e.to_string())?;
        }
        Ok(())
    }

    /// Append a token from outside the dataflow (debugger `token inject`,
    /// §III "Altering the Normal Execution" — e.g. untying a deadlock).
    /// Uses `poke`: the debugger's action must not cost simulated time.
    pub fn inject(&mut self, mem: &mut Memory, words: &[Word]) -> Result<u64, String> {
        if self.is_full() {
            return Err("link is full".to_string());
        }
        if words.len() as u32 != self.token_words {
            return Err(format!(
                "payload is {} words, token type needs {}",
                words.len(),
                self.token_words
            ));
        }
        let addr = self.slot_addr(self.pushed);
        for (i, w) in words.iter().enumerate() {
            mem.poke(addr + i as u32, *w).map_err(|e| e.to_string())?;
        }
        let index = self.pushed;
        self.pushed += 1;
        self.version += 1;
        Ok(index)
    }

    /// Delete the `idx`-th queued token, shifting younger tokens down
    /// (debugger `token drop`).
    pub fn remove(&mut self, mem: &mut Memory, idx: u32) -> Result<(), String> {
        let occ = self.occupancy();
        if idx >= occ {
            return Err(format!("token index {idx} out of range (occupancy {occ})"));
        }
        // Shift every younger token one slot towards the tail.
        for i in idx..occ - 1 {
            let src = self.slot_addr(self.popped + u64::from(i) + 1);
            let dst = self.slot_addr(self.popped + u64::from(i));
            for w in 0..self.token_words {
                let v = mem.peek(src + w).map_err(|e| e.to_string())?;
                mem.poke(dst + w, v).map_err(|e| e.to_string())?;
            }
        }
        self.pushed -= 1;
        self.version += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2012::memory::L2_BASE;
    use p2012::MemoryMap;

    fn setup(cap: u32, tw: u32) -> (FifoState, Memory) {
        (
            FifoState::new(L2_BASE + 64, cap, tw),
            Memory::new(MemoryMap::default()),
        )
    }

    #[test]
    fn fifo_order_is_preserved() {
        let (mut f, mut mem) = setup(4, 1);
        for v in [10, 20, 30] {
            f.push(&mut mem, &[v]).unwrap().unwrap();
        }
        assert_eq!(f.occupancy(), 3);
        let mut out = Vec::new();
        for expect in [10, 20, 30] {
            out.clear();
            let (idx, _) = f.pop(&mut mem, &mut out).unwrap().unwrap();
            assert_eq!(out, vec![expect]);
            assert_eq!(idx, (expect / 10 - 1) as u64);
        }
        assert!(f.is_empty());
        assert!(f.pop(&mut mem, &mut out).unwrap().is_none());
    }

    #[test]
    fn full_fifo_rejects_push() {
        let (mut f, mut mem) = setup(2, 1);
        assert!(f.push(&mut mem, &[1]).unwrap().is_some());
        assert!(f.push(&mut mem, &[2]).unwrap().is_some());
        assert!(f.is_full());
        assert!(f.push(&mut mem, &[3]).unwrap().is_none());
        // Global indexes keep counting after wrap-around.
        let mut out = Vec::new();
        f.pop(&mut mem, &mut out).unwrap().unwrap();
        let (idx, _) = f.push(&mut mem, &[3]).unwrap().unwrap();
        assert_eq!(idx, 2);
    }

    #[test]
    fn multi_word_tokens_round_trip() {
        let (mut f, mut mem) = setup(3, 3);
        f.push(&mut mem, &[1, 2, 3]).unwrap().unwrap();
        f.push(&mut mem, &[4, 5, 6]).unwrap().unwrap();
        assert_eq!(f.peek(&mem, 0), Some(vec![1, 2, 3]));
        assert_eq!(f.peek(&mem, 1), Some(vec![4, 5, 6]));
        assert_eq!(f.peek(&mem, 2), None);
        let mut out = Vec::new();
        f.pop(&mut mem, &mut out).unwrap().unwrap();
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn inject_overwrite_remove() {
        let (mut f, mut mem) = setup(4, 1);
        f.push(&mut mem, &[1]).unwrap().unwrap();
        f.push(&mut mem, &[2]).unwrap().unwrap();
        f.push(&mut mem, &[3]).unwrap().unwrap();

        f.overwrite(&mut mem, 1, &[99]).unwrap();
        assert_eq!(f.peek(&mem, 1), Some(vec![99]));

        f.remove(&mut mem, 0).unwrap();
        assert_eq!(f.occupancy(), 2);
        assert_eq!(f.peek(&mem, 0), Some(vec![99]));
        assert_eq!(f.peek(&mem, 1), Some(vec![3]));

        let idx = f.inject(&mut mem, &[7]).unwrap();
        assert_eq!(idx, 2); // pushed counter reflects the removal
        assert_eq!(f.peek(&mem, 2), Some(vec![7]));

        assert!(f.overwrite(&mut mem, 9, &[0]).is_err());
        assert!(f.remove(&mut mem, 9).is_err());
        assert!(f.inject(&mut mem, &[0, 0]).is_err());
    }

    #[test]
    fn wraparound_keeps_payload_integrity() {
        let (mut f, mut mem) = setup(2, 2);
        let mut out = Vec::new();
        for round in 0u32..10 {
            f.push(&mut mem, &[round, round + 100]).unwrap().unwrap();
            out.clear();
            f.pop(&mut mem, &mut out).unwrap().unwrap();
            assert_eq!(out, vec![round, round + 100]);
        }
        assert_eq!(f.pushed, 10);
        assert_eq!(f.popped, 10);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use p2012::memory::L2_BASE;
    use p2012::MemoryMap;
    use proptest::prelude::*;

    // Ops: true = push(value), false = pop.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The memory-backed ring behaves exactly like a reference
        /// VecDeque under arbitrary push/pop interleavings, including
        /// wrap-around and full/empty boundary conditions.
        #[test]
        fn fifo_matches_reference_deque(
            cap in 1u32..9,
            ops in prop::collection::vec((any::<bool>(), 0u32..1000), 0..200),
        ) {
            let mut mem = Memory::new(MemoryMap::default());
            let mut f = FifoState::new(L2_BASE, cap, 1);
            let mut reference = std::collections::VecDeque::new();
            let mut out = Vec::new();
            for (is_push, v) in ops {
                if is_push {
                    let res = f.push(&mut mem, &[v]).unwrap();
                    if reference.len() == cap as usize {
                        prop_assert!(res.is_none(), "push must refuse when full");
                    } else {
                        prop_assert!(res.is_some());
                        reference.push_back(v);
                    }
                } else {
                    out.clear();
                    let res = f.pop(&mut mem, &mut out).unwrap();
                    match reference.pop_front() {
                        Some(expect) => {
                            prop_assert!(res.is_some());
                            prop_assert_eq!(out[0], expect);
                        }
                        None => prop_assert!(res.is_none()),
                    }
                }
                prop_assert_eq!(f.occupancy() as usize, reference.len());
                // peek agrees with the reference at every position.
                for (i, expect) in reference.iter().enumerate() {
                    prop_assert_eq!(
                        f.peek(&mem, i as u32),
                        Some(vec![*expect])
                    );
                }
            }
        }
    }
}
