//! A tuple of up to `INLINE_ATTRS` attributes never touches the allocator:
//! building, cloning and dropping one is a copy. A wider row is boxed once.
//!
//! A counting global allocator records each thread's allocations, so the
//! count a test reads is its own even while other tests run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

use skyline_core::tuple::INLINE_ATTRS;
use skyline_core::{Attrs, Tuple};

struct Counting;

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to `System`; the counter is a
// const-initialized thread-local, which itself never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> usize {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

const ROW: [f64; 6] = [1.0, -0.0, f64::NAN, 4.0, f64::INFINITY, 6.0];

#[test]
fn inline_tuples_build_clone_and_drop_without_allocating() {
    for d in [0, 1, INLINE_ATTRS] {
        let n = allocations(|| {
            let t = Tuple::from_slice(1.0, 2.0, &ROW[..d]);
            let copy = black_box(t.clone());
            drop(copy);
            drop(t);
        });
        assert_eq!(n, 0, "from_slice at d = {d}");
        let n = allocations(|| drop(black_box(ROW[..d].iter().copied().collect::<Attrs>())));
        assert_eq!(n, 0, "collect at d = {d}");
    }
}

#[test]
fn a_sixth_attribute_allocates_exactly_once() {
    let n = allocations(|| drop(black_box(Tuple::from_slice(1.0, 2.0, &ROW))));
    assert_eq!(n, 1, "from_slice at d = 6");
    let n = allocations(|| drop(black_box(ROW.iter().copied().collect::<Attrs>())));
    assert_eq!(n, 1, "collect at d = 6");
}
