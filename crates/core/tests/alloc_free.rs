//! A tuple of up to `INLINE_ATTRS` attributes never touches the allocator:
//! building, cloning and dropping one is a copy. A wider row is boxed once.
//! A diagram cell holds row handles of the diagram's site table, not tuple
//! copies, so the bytes it keeps live per site it holds stay small.
//!
//! A counting global allocator records each thread's allocations and live
//! bytes (allocated minus freed), so the counts a test reads are its own
//! even while other tests run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

use skyline_core::diagram::{CellKey, DiagramConfig, SkylineDiagram};
use skyline_core::tuple::INLINE_ATTRS;
use skyline_core::{Attrs, Tuple};

struct Counting;

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
    static LIVE_BYTES: Cell<isize> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to `System`; the counters are
// const-initialized thread-locals, which themselves never allocate. (A
// `realloc` goes through the default, an `alloc` plus a `dealloc`.)
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        LIVE_BYTES.with(|n| n.set(n.get() + layout.size() as isize));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.with(|n| n.set(n.get() - layout.size() as isize));
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

/// Bytes `f` leaves allocated on this thread (freed ones subtracted).
fn bytes_kept(f: impl FnOnce()) -> isize {
    let before = LIVE_BYTES.with(Cell::get);
    f();
    LIVE_BYTES.with(Cell::get) - before
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

#[test]
fn a_materialized_cell_keeps_at_most_48_bytes_per_site_it_holds() {
    // The serving diagram's shape: 125 m origin cells over a 1 km square,
    // 4 000 sites with d = 3. Every cell of one band is materialized; the
    // site table was built before, so only the cells' own structures
    // count: the index entry, bucket or member row and container slack of
    // each (site, cell) pair, plus each cell's fixed part.
    let cfg = DiagramConfig::new(125.0, vec![125.0, 250.0, 500.0]);
    let mut state = 0x5EED_2006u64;
    let mut next = || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let sites: Vec<Tuple> = (0..4_000)
        .map(|_| {
            let (x, y) = (next() * 1000.0, next() * 1000.0);
            Tuple::from_slice(x, y, &[next(), next(), next()])
        })
        .collect();
    let mut d = SkylineDiagram::with_sites(cfg.clone(), sites.iter().cloned());
    let keys: Vec<CellKey> = (0..8)
        .flat_map(|ix| (0..8).map(move |iy| CellKey { ix, iy, band: 1 }))
        .collect();
    let kept = bytes_kept(|| {
        for &key in &keys {
            d.materialize(key, 0);
        }
    });
    let entries: usize = keys
        .iter()
        .map(|&key| {
            let region = cfg.canonical_query(key);
            sites.iter().filter(|t| region.contains(t.location())).count()
        })
        .sum();
    assert!(entries > 40_000, "{entries} (site, cell) pairs");
    let per_entry = kept as f64 / entries as f64;
    assert!(per_entry <= 48.0, "{per_entry:.1} B per (site, cell) pair over {entries}");
    d.check_invariants().unwrap();
}
