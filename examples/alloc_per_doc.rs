//! Heap allocations per document of untrained `Briq::align_with`, default
//! options, over the smoke corpus that `ci.sh` aligns: 60 generated
//! documents at seed 20190408, rendered 3 to a page, 59 documents after
//! segmentation. Prints one JSON line for that, then one for the heap
//! allocations per page of `segment_page` over the corpus's 20 pages;
//! `ci.sh determinism` adds both to the work golden (`BENCH_work.jsonl`).
//!
//! A counting allocator wraps the system one in this example only, and
//! nothing is timed. Every `alloc` and `realloc` counts as one
//! allocation; `bytes` sums the sizes they request.
//!
//! Run with `cargo run --release --example alloc_per_doc`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use briq::html::parse_page;
use briq::pipeline::{AlignOpts, Briq, BriqConfig};
use briq::segment::{segment_page, SegmentConfig};
use briq::substrates::corpus::corpus::CorpusConfig;
use briq::substrates::corpus::page::corpus_pages;
use briq::Document;

// Statistics only: the counters publish no other data, so `Relaxed`.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

struct CountingAllocator;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees hold; the counters are atomics.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: `layout` is the caller's, as `GlobalAlloc::alloc` requires.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`'s.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: the caller's arguments, as `GlobalAlloc::realloc` requires.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocations and bytes requested so far.
fn counts() -> (u64, u64) {
    (
        ALLOCATIONS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    )
}

fn main() {
    let cfg = CorpusConfig {
        n_documents: 60,
        seed: 20190408,
        ..Default::default()
    };
    let mut docs: Vec<Document> = Vec::new();
    let (mut pages, mut segment_allocations, mut segment_bytes) = (0u32, 0, 0);
    for html in corpus_pages(&cfg, 3) {
        let page = parse_page(&html);
        let (allocations, bytes) = counts();
        let segmented = segment_page(&page, &SegmentConfig::default(), docs.len());
        let (after_allocations, after_bytes) = counts();
        pages += 1;
        segment_allocations += after_allocations - allocations;
        segment_bytes += after_bytes - bytes;
        docs.extend(segmented);
    }
    let briq = Briq::untrained(BriqConfig::default());
    let opts = AlignOpts::default();
    let (allocations, bytes) = counts();
    for doc in &docs {
        std::hint::black_box(briq.align_with(doc, &opts));
    }
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - allocations;
    let bytes = BYTES.load(Ordering::Relaxed) - bytes;
    let n = docs.len().max(1) as f64;
    println!(
        "{{\"run\":\"alloc\",\"documents\":{},\"allocations\":{allocations},\"bytes\":{bytes},\"allocations_per_doc\":{:.1},\"bytes_per_doc\":{:.0}}}",
        docs.len(),
        allocations as f64 / n,
        bytes as f64 / n
    );
    let n = f64::from(pages.max(1));
    println!(
        "{{\"run\":\"segment\",\"pages\":{pages},\"allocations\":{segment_allocations},\"bytes\":{segment_bytes},\"allocations_per_page\":{:.1},\"bytes_per_page\":{:.0}}}",
        segment_allocations as f64 / n,
        segment_bytes as f64 / n
    );
}
