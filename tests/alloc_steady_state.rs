//! Per-document allocation contract (DESIGN.md §14): every buffer of the
//! alignment hot path (scoring engine, retrieval scratch, CSR walk
//! buffers) is built for one document and dropped with it, so aligning
//! the same documents allocates exactly as often on the first run as on
//! every later one — no state survives a document. Within a document the
//! CSR walk buffers are reused, and a warm CSR walk is strictly
//! allocation-free.
//!
//! One `#[test]` only: the counter is process-global, and a second
//! concurrently-running test would pollute it.

use briq_core::pipeline::{Briq, BriqConfig};
use briq_corpus::corpus::{generate_corpus, CorpusConfig};
use briq_graph::{CsrGraph, CsrScratch, Graph, RwrConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

// Per-thread counter: the libtest harness thread occasionally allocates
// (progress reporting) while the test body runs, so a process-global
// counter is flaky. `try_with` keeps allocation during TLS teardown from
// panicking — those allocations simply go uncounted.
thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

struct CountingAllocator;

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations() -> usize {
    ALLOCATIONS.with(Cell::get)
}

#[test]
fn every_run_allocates_the_same_and_warm_csr_walk_is_alloc_free() {
    // --- Warm CSR walk: strictly zero allocations. ---
    let mut g = Graph::new(12);
    for i in 0..11usize {
        g.add_edge(i, i + 1, 0.3 + 0.05 * i as f64);
        g.add_edge(i, (i * 7 + 3) % 12, 0.2);
    }
    let csr = CsrGraph::from_graph(&g);
    let cfg = RwrConfig::default();
    let mut scratch = CsrScratch::default();
    csr.walk_into(0, &cfg, &mut scratch)
        .expect("warm-up walk succeeds");
    let before = allocations();
    for start in 0..12 {
        csr.walk_into(start, &cfg, &mut scratch)
            .expect("warm walk succeeds");
    }
    let walk_allocs = allocations() - before;
    assert_eq!(
        walk_allocs, 0,
        "warm CSR walks allocated {walk_allocs} times"
    );

    // --- Full document alignment: no state survives a document. ---
    // Alignment allocates per document (mention extraction, featurizer
    // invariants, scoring and walk buffers, the output itself). Nothing
    // is pooled or cached across documents, so the cold run allocates
    // exactly as often as the warm ones.
    let briq = Briq::untrained(BriqConfig::default());
    let corpus = generate_corpus(&CorpusConfig {
        n_documents: 3,
        seed: 17,
        ..Default::default()
    });
    let run = || {
        let before = allocations();
        let mut total = 0usize;
        for ld in &corpus.documents {
            total += briq.align(&ld.document).len();
        }
        (allocations() - before, total)
    };

    let (cold_allocs, cold_out) = run();
    let (warm1_allocs, warm1_out) = run();
    let (warm2_allocs, warm2_out) = run();

    assert_eq!(cold_out, warm1_out, "alignment output must be run-stable");
    assert_eq!(cold_out, warm2_out, "alignment output must be run-stable");
    assert!(
        cold_allocs == warm1_allocs && warm1_allocs == warm2_allocs,
        "every run must allocate identically (no state survives a document): \
         cold {cold_allocs}, warm {warm1_allocs} then {warm2_allocs}"
    );
}
