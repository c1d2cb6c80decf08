//! The P2012 memory hierarchy (Fig. 1 of the paper).
//!
//! Three levels, word-addressed:
//!
//! * **L1** — one bank per cluster, shared by the cluster's PEs (lowest
//!   latency; holds intra-cluster data links);
//! * **L2** — chip-wide, used for inter-cluster communication;
//! * **L3** — external memory reached through DMA, used for host↔fabric
//!   exchanges.
//!
//! The debugger's *watchpoints* hook the store/load paths here: every access
//! consults a (normally empty) watch list, and hits accumulate in a buffer
//! that the debugger drains after each simulated cycle. When no watchpoints
//! are set the check is a single branch on an empty `Vec`, keeping the
//! undebuggged fast path honest for the overhead benchmarks (experiment E1).
//!
//! Banks are stored as copy-on-write pages ([`PAGE_WORDS`] words each): a
//! page is either shared (`Arc`, refcounted with every fork that
//! references it) or privately owned. Reads never promote; the first
//! store to a shared page copies just that page. This is what makes
//! [`Memory::fork`] — and with it debugger-session forking, multiverse
//! universes and time-travel checkpoints — O(pages) in pointers rather
//! than O(words) in copies: a thousand forked sessions of the same booted
//! application share one set of page buffers until they actually diverge.
//!
//! The same sharing answers "what changed since that fork?": a page whose
//! buffer is no longer the fork's buffer was written since
//! ([`Memory::changed_pages`]). Checkpoint boundaries hash exactly those
//! pages. And a page still holding its bank's zero page is all zeros
//! without reading it, so a full-memory hash ([`Memory::fnv_fold`]) costs
//! what was written, not the size of the address space.

use std::sync::Arc;

use debuginfo::Word;

/// A level of the hierarchy plus its instance (cluster) when relevant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Region {
    L1 { cluster: u16 },
    L2,
    L3,
}

impl Region {
    pub fn name(self) -> String {
        match self {
            Region::L1 { cluster } => format!("L1[{cluster}]"),
            Region::L2 => "L2".to_string(),
            Region::L3 => "L3".to_string(),
        }
    }
}

/// Fixed address-space layout (word addresses).
///
/// * L1 of cluster `c`: `0x1000_0000 + c * 0x0001_0000`
/// * L2: `0x2000_0000`
/// * L3: `0x3000_0000`
#[derive(Debug, Clone)]
pub struct MemoryMap {
    pub clusters: u16,
    pub l1_words: u32,
    pub l2_words: u32,
    pub l3_words: u32,
    pub l1_latency: u32,
    pub l2_latency: u32,
    pub l3_latency: u32,
}

pub const L1_BASE: u32 = 0x1000_0000;
pub const L1_STRIDE: u32 = 0x0001_0000;
pub const L2_BASE: u32 = 0x2000_0000;
pub const L3_BASE: u32 = 0x3000_0000;

impl Default for MemoryMap {
    fn default() -> Self {
        MemoryMap {
            clusters: 2,
            l1_words: 16 * 1024,
            l2_words: 256 * 1024,
            l3_words: 1024 * 1024,
            l1_latency: 1,
            l2_latency: 8,
            l3_latency: 32,
        }
    }
}

impl MemoryMap {
    pub fn l1_base(&self, cluster: u16) -> u32 {
        L1_BASE + u32::from(cluster) * L1_STRIDE
    }

    /// Decode an address into (region, offset).
    pub fn decode(&self, addr: u32) -> Result<(Region, u32), MemError> {
        if (L1_BASE..L1_BASE + u32::from(self.clusters) * L1_STRIDE).contains(&addr) {
            let cluster = ((addr - L1_BASE) / L1_STRIDE) as u16;
            let off = (addr - L1_BASE) % L1_STRIDE;
            if off < self.l1_words {
                return Ok((Region::L1 { cluster }, off));
            }
        } else if (L2_BASE..L2_BASE + self.l2_words).contains(&addr) {
            return Ok((Region::L2, addr - L2_BASE));
        } else if (L3_BASE..L3_BASE + self.l3_words).contains(&addr) {
            return Ok((Region::L3, addr - L3_BASE));
        }
        Err(MemError::Unmapped { addr })
    }

    pub fn latency(&self, region: Region) -> u32 {
        match region {
            Region::L1 { .. } => self.l1_latency,
            Region::L2 => self.l2_latency,
            Region::L3 => self.l3_latency,
        }
    }
}

/// Memory access failure, surfaced to the debugger as a PE fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemError {
    Unmapped { addr: u32 },
}

impl std::fmt::Display for MemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MemError::Unmapped { addr } => {
                write!(f, "unmapped address 0x{addr:08x}")
            }
        }
    }
}

/// Copy-on-write granularity: a bank is split into pages of this many
/// words, and a store copies at most one page.
pub const PAGE_WORDS: u32 = 1024;

/// One page: a bank (region) plus the page index within it. Ordered so
/// page sets hash and compare deterministically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PageId {
    pub region: Region,
    pub page: u32,
}

/// One copy-on-write page of bank backing store. `Shared` pages are
/// referenced by forked memories; the first store promotes the page to
/// `Owned` by copying it.
#[derive(Debug, Clone)]
enum Page {
    Shared(Arc<[Word]>),
    Owned(Vec<Word>),
}

impl Page {
    #[inline]
    fn as_slice(&self) -> &[Word] {
        match self {
            Page::Shared(p) => p,
            Page::Owned(p) => p,
        }
    }

    /// Private, writable view; copies the page if it is shared.
    #[inline]
    fn make_owned(&mut self) -> &mut [Word] {
        if let Page::Shared(p) = self {
            *self = Page::Owned(p.to_vec());
        }
        match self {
            Page::Owned(p) => p,
            Page::Shared(_) => unreachable!("just promoted"),
        }
    }

    /// Freeze into shared form (fork time).
    fn share(&mut self) {
        if let Page::Owned(v) = self {
            *self = Page::Shared(Arc::from(std::mem::take(v).into_boxed_slice()));
        }
    }

    /// Is this still the very buffer `earlier` holds? Only a shared page
    /// can be: a store always leaves the page owned or re-shared anew.
    fn same_buffer(&self, earlier: &Page) -> bool {
        match (self, earlier) {
            (Page::Shared(a), Page::Shared(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

/// One bank as a vector of COW pages (the last page may be partial).
#[derive(Debug, Clone)]
struct Bank {
    pages: Vec<Page>,
    /// The bank's zero page: every full page starts as a reference to
    /// it, and a page still holding this very buffer is known to be all
    /// zeros without reading it ([`Bank::fnv_fold`]). Per bank rather
    /// than process-wide, so forks on different threads do not all
    /// contend on one refcount.
    zero: Arc<[Word]>,
}

impl Bank {
    fn new(words: u32) -> Bank {
        // Untouched banks are all zeros: every full page starts as a
        // reference to one shared zero page, so constructing (and forking)
        // a memory costs pointers, not megabytes.
        let zero: Arc<[Word]> = Arc::from(vec![0; PAGE_WORDS as usize].into_boxed_slice());
        let mut pages = Vec::with_capacity(pages_for(words));
        let mut remaining = words as usize;
        while remaining >= PAGE_WORDS as usize {
            pages.push(Page::Shared(Arc::clone(&zero)));
            remaining -= PAGE_WORDS as usize;
        }
        if remaining > 0 {
            pages.push(Page::Shared(Arc::from(
                vec![0; remaining].into_boxed_slice(),
            )));
        }
        Bank { pages, zero }
    }

    #[inline]
    fn get(&self, off: u32) -> Word {
        self.pages[(off / PAGE_WORDS) as usize].as_slice()[(off % PAGE_WORDS) as usize]
    }

    #[inline]
    fn get_mut(&mut self, off: u32) -> &mut Word {
        &mut self.pages[(off / PAGE_WORDS) as usize].make_owned()[(off % PAGE_WORDS) as usize]
    }

    fn page(&self, page: u32) -> &[Word] {
        self.pages[page as usize].as_slice()
    }

    /// Freeze every page into shared form (fork).
    fn share(&mut self) {
        for p in &mut self.pages {
            p.share();
        }
    }

    /// Append the pages whose buffer differs from `earlier`'s.
    fn changed_pages(&self, earlier: &Bank, region: Region, out: &mut Vec<PageId>) {
        for (page, (now, then)) in self.pages.iter().zip(&earlier.pages).enumerate() {
            if !now.same_buffer(then) {
                out.push(PageId {
                    region,
                    page: page as u32,
                });
            }
        }
    }

    /// Continue an FNV-64 state over every word of the bank, in order.
    fn fnv_fold(&self, mut state: u64) -> u64 {
        for p in &self.pages {
            match p {
                Page::Shared(buf) if Arc::ptr_eq(buf, &self.zero) => {
                    state = state.wrapping_mul(FNV_PRIME_POW_PAGE);
                }
                _ => {
                    for &w in p.as_slice() {
                        state = (state ^ u64::from(w)).wrapping_mul(FNV_PRIME);
                    }
                }
            }
        }
        state
    }

    fn owned_words(&self) -> usize {
        self.pages
            .iter()
            .filter(|p| matches!(p, Page::Owned(_)))
            .map(|p| p.as_slice().len())
            .sum()
    }
}

/// Watchpoint trigger kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WatchKind {
    Write,
    Read,
    Access,
}

#[derive(Debug, Clone, Copy)]
struct Watch {
    id: u32,
    lo: u32,
    hi: u32, // inclusive
    kind: WatchKind,
}

/// One recorded watchpoint hit: which watch, where, the value involved and
/// (for writes) the value it replaced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchHit {
    pub id: u32,
    pub addr: u32,
    pub was_write: bool,
    pub old: Word,
    pub new: Word,
}

/// The simulated memory system.
#[derive(Debug, Clone)]
pub struct Memory {
    map: MemoryMap,
    l1: Vec<Bank>,
    l2: Bank,
    l3: Bank,
    watches: Vec<Watch>,
    hits: Vec<WatchHit>,
    /// Total accesses, for the simulator-throughput benchmark (B4).
    pub reads: u64,
    pub writes: u64,
}

fn pages_for(words: u32) -> usize {
    words.div_ceil(PAGE_WORDS) as usize
}

impl Memory {
    pub fn new(map: MemoryMap) -> Self {
        let l1 = (0..map.clusters).map(|_| Bank::new(map.l1_words)).collect();
        Memory {
            l2: Bank::new(map.l2_words),
            l3: Bank::new(map.l3_words),
            l1,
            map,
            watches: Vec::new(),
            hits: Vec::new(),
            reads: 0,
            writes: 0,
        }
    }

    pub fn map(&self) -> &MemoryMap {
        &self.map
    }

    #[inline]
    fn bank(&self, region: Region) -> &Bank {
        match region {
            Region::L1 { cluster } => &self.l1[cluster as usize],
            Region::L2 => &self.l2,
            Region::L3 => &self.l3,
        }
    }

    #[inline]
    fn bank_mut(&mut self, region: Region) -> &mut Bank {
        match region {
            Region::L1 { cluster } => &mut self.l1[cluster as usize],
            Region::L2 => &mut self.l2,
            Region::L3 => &mut self.l3,
        }
    }

    /// Load a word; returns `(value, stall_cycles)`. Reads never promote a
    /// shared page — forked sessions stay deduplicated under read-mostly
    /// inspection workloads.
    pub fn read(&mut self, addr: u32) -> Result<(Word, u32), MemError> {
        self.reads += 1;
        let watched = self.match_watch(addr, false);
        let (region, off) = self.map.decode(addr)?;
        let lat = self.map.latency(region);
        let v = self.bank(region).get(off);
        if let Some(id) = watched {
            self.hits.push(WatchHit {
                id,
                addr,
                was_write: false,
                old: v,
                new: v,
            });
        }
        Ok((v, lat))
    }

    /// Store a word; returns the stall cycles.
    pub fn write(&mut self, addr: u32, value: Word) -> Result<u32, MemError> {
        self.writes += 1;
        let watched = self.match_watch(addr, true);
        let (region, off) = self.map.decode(addr)?;
        let lat = self.map.latency(region);
        let cell = self.bank_mut(region).get_mut(off);
        let old = *cell;
        *cell = value;
        if let Some(id) = watched {
            self.hits.push(WatchHit {
                id,
                addr,
                was_write: true,
                old,
                new: value,
            });
        }
        Ok(lat)
    }

    /// Read without latency accounting or watch triggering: the debugger's
    /// own inspection path (`print`, link occupancy displays) must not
    /// perturb the simulation — the paper stresses that debugger slowdown
    /// "does not alter the execution semantic".
    pub fn peek(&self, addr: u32) -> Result<Word, MemError> {
        let (region, off) = self.map.decode(addr)?;
        Ok(self.bank(region).get(off))
    }

    /// Write without latency/watch side effects: used by loaders and by the
    /// debugger's token-alteration commands (§III "Altering the Normal
    /// Execution").
    pub fn poke(&mut self, addr: u32, value: Word) -> Result<(), MemError> {
        let (region, off) = self.map.decode(addr)?;
        *self.bank_mut(region).get_mut(off) = value;
        Ok(())
    }

    fn match_watch(&self, addr: u32, is_write: bool) -> Option<u32> {
        if self.watches.is_empty() {
            return None;
        }
        self.watches
            .iter()
            .find(|w| {
                addr >= w.lo
                    && addr <= w.hi
                    && match w.kind {
                        WatchKind::Write => is_write,
                        WatchKind::Read => !is_write,
                        WatchKind::Access => true,
                    }
            })
            .map(|w| w.id)
    }

    /// Install a watch over `[lo, hi]` (inclusive, word addresses).
    pub fn add_watch(&mut self, id: u32, lo: u32, hi: u32, kind: WatchKind) {
        self.watches.push(Watch { id, lo, hi, kind });
    }

    pub fn remove_watch(&mut self, id: u32) {
        self.watches.retain(|w| w.id != id);
    }

    /// Drain the accumulated watch hits (debugger, once per cycle).
    pub fn take_hits(&mut self) -> Vec<WatchHit> {
        std::mem::take(&mut self.hits)
    }

    pub fn has_hits(&self) -> bool {
        !self.hits.is_empty()
    }

    // ---- forks and time travel -------------------------------------------

    /// The live words of `page` (last page of a bank may be partial).
    pub fn page_data(&self, p: PageId) -> &[Word] {
        self.bank(p.region).page(p.page)
    }

    /// Copy-on-write fork: every page of every bank becomes shared between
    /// `self` and the returned memory; the first store on either side
    /// copies just the page it touches. Watches and access counters carry
    /// over verbatim.
    pub fn fork(&mut self) -> Memory {
        for b in &mut self.l1 {
            b.share();
        }
        self.l2.share();
        self.l3.share();
        self.clone()
    }

    /// Pages changed since `earlier`, a fork this memory descends from:
    /// every page stored to (or poked) on this side since the fork,
    /// ordered by [`Region`] and then by page. Reads never count, and
    /// neither do writes `earlier` or any other fork made.
    pub fn changed_pages(&self, earlier: &Memory) -> Vec<PageId> {
        let mut out = Vec::new();
        for (c, (now, then)) in self.l1.iter().zip(&earlier.l1).enumerate() {
            now.changed_pages(then, Region::L1 { cluster: c as u16 }, &mut out);
        }
        self.l2.changed_pages(&earlier.l2, Region::L2, &mut out);
        self.l3.changed_pages(&earlier.l3, Region::L3, &mut out);
        out
    }

    /// Take over the watches installed on `abandoned`, the memory of a
    /// timeline time travel just left. Its pending hits are dropped: they
    /// belong to that timeline. Like GDB's, watchpoints survive time
    /// travel.
    pub fn inherit_watches(&mut self, abandoned: &Memory) {
        self.watches.clone_from(&abandoned.watches);
        self.hits.clear();
    }

    /// Words privately owned by this memory (copy-on-write pages actually
    /// duplicated, not shared with a fork ancestor). The multiverse
    /// universe pool uses this to account real bytes, not address space.
    pub fn owned_words(&self) -> usize {
        self.l1.iter().map(Bank::owned_words).sum::<usize>()
            + self.l2.owned_words()
            + self.l3.owned_words()
    }

    /// Continue an FNV-64 state over the complete memory content: every
    /// word of every bank (L1 by cluster, then L2, then L3), one step
    /// `state = (state ^ w) * FNV_PRIME` per word `w`. This is the
    /// full-memory part of a state hash (checkpoint baselines,
    /// `replay::full_state_hash`); boundary hashes only cover changed
    /// pages. A page still on its bank's zero page is `PAGE_WORDS` zero
    /// words, whose steps are bare multiplies: it costs one multiply by
    /// `FNV_PRIME^PAGE_WORDS`, with the same result. So the fold costs in
    /// proportion to the pages ever written, not to the size of the
    /// address space.
    pub fn fnv_fold(&self, mut state: u64) -> u64 {
        for bank in &self.l1 {
            state = bank.fnv_fold(state);
        }
        state = self.l2.fnv_fold(state);
        self.l3.fnv_fold(state)
    }
}

// ---- state hashing -------------------------------------------------------

/// The 64-bit FNV prime. A state hash absorbs a memory word `w` as
/// `state = (state ^ w) * FNV_PRIME` (wrapping).
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// `FNV_PRIME^PAGE_WORDS`: one untouched page.
const FNV_PRIME_POW_PAGE: u64 = FNV_PRIME.wrapping_pow(PAGE_WORDS);

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> Memory {
        Memory::new(MemoryMap::default())
    }

    #[test]
    fn decode_all_regions() {
        let m = MemoryMap::default();
        assert_eq!(m.decode(L1_BASE).unwrap().0, Region::L1 { cluster: 0 });
        assert_eq!(
            m.decode(L1_BASE + L1_STRIDE + 5).unwrap(),
            (Region::L1 { cluster: 1 }, 5)
        );
        assert_eq!(m.decode(L2_BASE + 10).unwrap(), (Region::L2, 10));
        assert_eq!(m.decode(L3_BASE).unwrap(), (Region::L3, 0));
        assert!(m.decode(0xdead_beef).is_err());
        // hole between end of L1 bank and next stride
        assert!(m.decode(L1_BASE + m.l1_words).is_err());
    }

    #[test]
    fn latency_increases_down_the_hierarchy() {
        let mut m = mem();
        let (_, l1) = m.read(L1_BASE).unwrap();
        let (_, l2) = m.read(L2_BASE).unwrap();
        let (_, l3) = m.read(L3_BASE).unwrap();
        assert!(l1 < l2 && l2 < l3, "{l1} {l2} {l3}");
    }

    #[test]
    fn read_back_what_was_written() {
        let mut m = mem();
        m.write(L2_BASE + 42, 0xabcd).unwrap();
        assert_eq!(m.read(L2_BASE + 42).unwrap().0, 0xabcd);
        assert_eq!(m.peek(L2_BASE + 42).unwrap(), 0xabcd);
    }

    #[test]
    fn watchpoints_record_old_and_new() {
        let mut m = mem();
        m.poke(L1_BASE + 7, 5).unwrap();
        m.add_watch(3, L1_BASE + 7, L1_BASE + 7, WatchKind::Write);
        m.read(L1_BASE + 7).unwrap(); // read: no hit for write watch
        assert!(!m.has_hits());
        m.write(L1_BASE + 7, 9).unwrap();
        let hits = m.take_hits();
        assert_eq!(
            hits,
            vec![WatchHit {
                id: 3,
                addr: L1_BASE + 7,
                was_write: true,
                old: 5,
                new: 9
            }]
        );
        assert!(!m.has_hits());
    }

    #[test]
    fn access_watch_fires_on_reads_too() {
        let mut m = mem();
        m.add_watch(1, L3_BASE, L3_BASE + 10, WatchKind::Access);
        m.read(L3_BASE + 4).unwrap();
        assert_eq!(m.take_hits().len(), 1);
    }

    #[test]
    fn peek_and_poke_bypass_watches() {
        let mut m = mem();
        m.add_watch(1, L2_BASE, L2_BASE, WatchKind::Access);
        m.poke(L2_BASE, 1).unwrap();
        let _ = m.peek(L2_BASE).unwrap();
        assert!(!m.has_hits());
    }

    #[test]
    fn remove_watch_stops_hits() {
        let mut m = mem();
        m.add_watch(1, L2_BASE, L2_BASE, WatchKind::Write);
        m.remove_watch(1);
        m.write(L2_BASE, 1).unwrap();
        assert!(!m.has_hits());
    }

    #[test]
    fn changed_pages_count_writes_and_pokes_of_this_fork_only() {
        let mut m = mem();
        m.write(L2_BASE, 1).unwrap();
        let base = m.fork();
        let mut sibling = m.fork();
        m.read(L1_BASE).unwrap();
        let _ = m.peek(L2_BASE + 5).unwrap();
        assert!(m.changed_pages(&base).is_empty(), "reads must not count");

        m.write(L3_BASE + PAGE_WORDS, 3).unwrap();
        m.write(L2_BASE, 1).unwrap(); // same value: still a store
        m.write(L2_BASE + 1, 2).unwrap(); // same page: no second entry
        m.poke(L1_BASE + L1_STRIDE, 4).unwrap(); // pokes count too
        m.write(L1_BASE, 5).unwrap();
        // The sibling fork's writes stay invisible here, and vice versa.
        sibling.write(L2_BASE + 4 * PAGE_WORDS, 6).unwrap();
        let page = |region, page| PageId { region, page };
        assert_eq!(
            m.changed_pages(&base),
            vec![
                page(Region::L1 { cluster: 0 }, 0),
                page(Region::L1 { cluster: 1 }, 0),
                page(Region::L2, 0),
                page(Region::L3, 1),
            ],
            "ordered by region, then page"
        );
        assert_eq!(sibling.changed_pages(&base), vec![page(Region::L2, 4)]);

        // A fresh fork is the new reference: nothing changed since it.
        let next = m.fork();
        assert!(m.changed_pages(&next).is_empty());
        m.write(L1_BASE, 9).unwrap();
        assert_eq!(
            m.changed_pages(&next),
            vec![page(Region::L1 { cluster: 0 }, 0)]
        );
    }

    #[test]
    fn forked_memories_do_not_alias() {
        let mut m = mem();
        m.write(L2_BASE, 1).unwrap();
        m.write(L3_BASE + 9, 7).unwrap();
        let mut child = m.fork();
        // Writes on either side stay invisible to the other.
        child.write(L2_BASE, 100).unwrap();
        m.write(L3_BASE + 9, 200).unwrap();
        assert_eq!(m.peek(L2_BASE).unwrap(), 1);
        assert_eq!(child.peek(L2_BASE).unwrap(), 100);
        assert_eq!(m.peek(L3_BASE + 9).unwrap(), 200);
        assert_eq!(child.peek(L3_BASE + 9).unwrap(), 7);
        // Untouched words are shared and identical.
        assert_eq!(
            m.peek(L1_BASE + 5).unwrap(),
            child.peek(L1_BASE + 5).unwrap()
        );
    }

    #[test]
    fn last_partial_page_has_short_slice() {
        let map = MemoryMap {
            l2_words: PAGE_WORDS + 10,
            ..MemoryMap::default()
        };
        let mut m = Memory::new(map);
        let base = m.fork();
        m.write(L2_BASE + PAGE_WORDS + 3, 1).unwrap();
        let changed = m.changed_pages(&base);
        assert_eq!(changed.len(), 1);
        assert_eq!(m.page_data(changed[0]).len(), 10);
    }
}
