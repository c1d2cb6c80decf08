//! The simulator's steady state does not touch the heap: once a decode is
//! past its warm-up, every buffer the cycle loop needs (call frames, read
//! windows, the DMA scratch list, env recordings) already has its
//! capacity, and blocked PEs are parked instead of re-running trap code.
//!
//! A counting global allocator counts this thread's allocations; the
//! 64-macroblock clean decode must make none from 2,000 cycles after boot
//! to quiescence.

use std::alloc::{GlobalAlloc, Layout, System as Heap};
use std::cell::Cell;

use h264_pipeline::{attach_env, build_decoder, Bug};
use p2012::PlatformConfig;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the slot is gone while the thread tears down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

struct Counting;

// SAFETY: every call forwards to the system allocator unchanged; the
// counter is a const-initialised thread-local with no destructor, so
// touching it never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        Heap.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        Heap.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        Heap.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        Heap.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

#[test]
fn steady_state_decode_makes_no_heap_allocations() {
    let (mut sys, app) = build_decoder(Bug::None, 64, PlatformConfig::default()).unwrap();
    sys.boot(app.boot_entry).unwrap();
    attach_env(&mut sys, &app, 64, 0x8902_5cc1).unwrap();
    sys.run(2_000);
    let before = allocs();
    let start = sys.clock();
    while !sys.platform.is_quiescent() && sys.clock() < 100_000 {
        sys.step();
    }
    let made = allocs() - before;
    assert!(sys.platform.is_quiescent(), "the decode finished");
    assert!(sys.clock() > start + 10_000, "the decode ran on");
    assert_eq!(made, 0, "heap allocations from cycle {start} to quiescence");
}
