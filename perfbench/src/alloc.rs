//! A tracking global allocator: live-heap high-water of one thread.
//!
//! Tracking is per thread so the daemon's and the session dropper's
//! threads, which run concurrently with the measured op, cannot move the
//! number. Only allocations and frees made on the tracking thread while
//! tracking is on are counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

pub struct Tracking;

thread_local! {
    static ON: Cell<bool> = const { Cell::new(false) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

fn note(delta: i64) {
    // `try_with`: thread-local storage may already be torn down while a
    // thread exits; such late frees are not part of any measured op.
    let _ = ON.try_with(|on| {
        if on.get() {
            let live = LIVE.with(|l| {
                l.set(l.get() + delta);
                l.get()
            });
            PEAK.with(|p| p.set(p.get().max(live)));
        }
    });
}

// SAFETY: every call is forwarded unchanged to `System`; the bookkeeping
// touches only const-initialized thread-local cells, which never allocate.
unsafe impl GlobalAlloc for Tracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }
}

/// Runs `f` on this thread and returns its result with the high-water of
/// bytes it held live at once (net of what it had freed so far).
pub fn peak_during<R>(f: impl FnOnce() -> R) -> (R, u64) {
    LIVE.with(|l| l.set(0));
    PEAK.with(|p| p.set(0));
    ON.with(|on| on.set(true));
    let r = f();
    ON.with(|on| on.set(false));
    (r, PEAK.with(Cell::get).max(0) as u64)
}
