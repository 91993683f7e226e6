//! The disabled sp-trace path must be zero-cost: feeding records into a
//! span ring built with capacity 0 (what `span_capacity: 0` builds)
//! performs no heap allocation and retains nothing.
//!
//! Lives in its own integration binary so the counting global allocator
//! cannot interfere with any other test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use sp_engine::{SpanRecord, SpanRecorder};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn disabled_span_recording_does_not_allocate() {
    let before = ALLOCS.load(Ordering::Relaxed);
    let mut rec = SpanRecorder::new(0);
    assert!(!rec.enabled());
    for i in 0..10_000u64 {
        rec.record(SpanRecord::at(i, 0, 0, i, i));
    }
    let after = ALLOCS.load(Ordering::Relaxed);

    assert_eq!(after, before, "disabled span path allocated");
    assert!(rec.is_empty(), "disabled span path retained records");
    assert_eq!(rec.evicted(), 0);

    // Sanity: an armed ring does record.
    let mut armed = SpanRecorder::new(64);
    armed.record(SpanRecord::at(1, 0, 0, 1, 1));
    assert_eq!(armed.len(), 1);
}
