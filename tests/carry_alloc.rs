//! What a stream's carries cost the allocator.
//!
//! A group's [`bitgen_ir::CarryState`] keeps every slot's carry in two
//! word buffers, so opening a stream, resuming and re-checkpointing it,
//! and dropping a checkpoint each allocate (or free) a handful of blocks
//! per *group*, whatever the number of carry slots. Counted here with a
//! `#[global_allocator]` on the served rule sets, whose slot counts are
//! far above any such bound: a layout that allocated per slot fails.

use bitgen::{BitGen, EngineConfig};
use bitgen_workloads::{generate, AppKind, WorkloadConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting this thread's allocations and frees.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static FREES: Cell<u64> = const { Cell::new(0) };
}

fn bump(counter: &'static std::thread::LocalKey<Cell<u64>>) {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = counter.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's layout and
// pointer unchanged; the counters never influence what is returned.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCS);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        bump(&FREES);
        // SAFETY: `ptr` came from `alloc`/`realloc` above with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(&ALLOCS);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Allocations and frees on this thread while `f` runs.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (a0, f0) = (ALLOCS.with(Cell::get), FREES.with(Cell::get));
    let out = f();
    (out, ALLOCS.with(Cell::get) - a0, FREES.with(Cell::get) - f0)
}

/// Allocations a stream may make per group (its carry state's three
/// buffers), and once per stream (the scanner's own vectors).
const PER_GROUP: u64 = 3;
const PER_STREAM: u64 = 8;

#[test]
fn opening_resuming_and_dropping_a_stream_allocate_per_group_not_per_slot() {
    for kind in [AppKind::Snort, AppKind::Tcp] {
        let w = generate(
            kind,
            &WorkloadConfig { regexes: 32, input_len: 4096, seed: 0xb17, witness_density: 0.05 },
        );
        let refs: Vec<&str> = w.patterns.iter().map(String::as_str).collect();
        let engine = BitGen::compile_with(&refs, EngineConfig::default()).expect("rules compile");
        let groups = engine.stream_programs().len() as u64;
        let slots: usize =
            engine.stream_programs().iter().map(|p| p.carry_layout().slot_count()).sum();
        let bound = PER_GROUP * groups + PER_STREAM;
        assert!(slots as u64 > 4 * bound, "{kind:?}: {slots} slots cannot tell slot from group");

        let (mut stream, opened, _) = counted(|| engine.streamer().expect("streamer"));
        assert!(opened <= bound, "{kind:?}: opening a stream allocated {opened} > {bound} times");

        stream.push(&w.input).expect("push");
        let checkpoint = stream.into_checkpoint();

        let (again, cycled, _) = counted(|| {
            engine.resume(&checkpoint).expect("resume").into_checkpoint()
        });
        assert!(cycled <= bound, "{kind:?}: resume, checkpoint allocated {cycled} > {bound} times");
        assert_eq!(again, checkpoint);

        let ((), _, freed) = counted(|| drop(again));
        assert!(freed <= bound, "{kind:?}: dropping a checkpoint freed {freed} > {bound} blocks");
    }
}
