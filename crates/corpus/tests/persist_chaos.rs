//! Crash-recovery chaos suite for the durable alignment store (DESIGN.md
//! §16): across the adversarial perturbation families, a store persisted
//! to disk, destroyed without ceremony (dropped mid-stream, torn at an
//! arbitrary byte, corrupted, or version-skewed), and reopened must
//! recover to a state whose output is bit-identical to a cold full
//! recompute — alignments, filter-stat totals, kept candidates, and
//! diagnostics. Persistence is only allowed to change *when* work
//! happens, never what it produces; the adversarial generators
//! (non-finite numerics, regex-hostile text, colspan bombs, …) are
//! exactly the entries where a lossy codec or a trusted-but-corrupt
//! frame would slip through a clean-corpus test.
//!
//! The SIGKILL-mid-write path itself is driven end-to-end by `ci.sh
//! persist` (a real `briq-serve` process killed with `kill -9` and
//! restarted); these tests cover the same failure surface in-process by
//! dropping stores without snapshots and tearing log bytes directly.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use briq_core::obs::{names, Recorder};
use briq_core::pipeline::{AlignOpts, AlignOutput, Briq, BriqConfig};
use briq_core::store::persist::{LOG_FILE, MANIFEST_FILE};
use briq_core::store::{AlignmentStore, StoreOptions};
use briq_core::Budget;
use briq_corpus::perturb::{adversarial_documents, Adversary};
use briq_table::Document;

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

/// A unique scratch store directory, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "briq-persist-chaos-{tag}-{}-{n}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        TempDir(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// Align `doc` through `store` under document key `key`.
fn stored(
    briq: &Briq,
    store: &AlignmentStore,
    key: u64,
    doc: &Document,
    budget: Budget,
) -> AlignOutput {
    briq.align_with(
        doc,
        &AlignOpts {
            budget,
            store: Some((store, key)),
            ..AlignOpts::default()
        },
    )
}

/// Assert `got` matches the full-recompute `full` on every output
/// surface: alignments, filter stats, candidates, and diagnostics.
fn assert_same(got: &AlignOutput, full: &AlignOutput, label: &str) {
    assert_eq!(got.alignments, full.alignments, "{label} alignments");
    assert_eq!(got.stats, full.stats, "{label} filter stats");
    assert_eq!(got.candidates, full.candidates, "{label} candidates");
    assert_eq!(
        got.diagnostics.items, full.diagnostics.items,
        "{label} diagnostics"
    );
}

fn briq() -> Briq {
    Briq::untrained(BriqConfig::default())
}

/// The full-recompute oracle: `doc` aligned with no store, through the
/// plain pipeline, returning the same output surface as the store path.
fn storeless(briq: &Briq, doc: &Document, budget: Budget) -> AlignOutput {
    briq.align_with(
        doc,
        &AlignOpts {
            budget,
            ..AlignOpts::default()
        },
    )
}

fn open(briq: &Briq, dir: &Path) -> AlignmentStore {
    AlignmentStore::with_options(
        briq,
        &StoreOptions {
            dir: Some(dir.to_path_buf()),
            ..StoreOptions::default()
        },
    )
    .expect("open persistent store")
}

/// Restart-recovery across every chaos family: align each family's
/// documents through a persistent store, drop it with NO snapshot (the
/// in-process analogue of SIGKILL — only the incrementally-appended
/// novelty log survives), reopen, and re-drive. Every document must be
/// a full hit served bit-identically to the cold oracle.
#[test]
fn restart_recovery_matches_full_recompute_across_all_families() {
    let briq = briq();
    let budget = Budget::default();
    for kind in Adversary::ALL {
        let seed = 17u64;
        let docs = adversarial_documents(kind, seed);
        let dir = TempDir::new(kind.name());
        {
            let store = open(&briq, dir.path());
            assert_eq!(store.recovered_entries(), 0);
            for (i, doc) in docs.iter().enumerate() {
                stored(&briq, &store, i as u64, doc, budget);
            }
            // Dropped without store.snapshot(): recovery must come from
            // the novelty log alone.
        }
        let store = open(&briq, dir.path());
        assert_eq!(
            store.recovered_entries(),
            docs.len() as u64,
            "{}: every entry must survive the restart",
            kind.name()
        );
        assert!(!store.recover_truncated(), "{}: clean log", kind.name());
        for (i, doc) in docs.iter().enumerate() {
            let warm = stored(&briq, &store, i as u64, doc, budget);
            let full = storeless(&briq, doc, budget);
            assert_same(&warm, &full, &format!("{}: recovered doc {i}", kind.name()));
        }
        if !docs.is_empty() {
            assert_eq!(
                store.hits(),
                docs.len() as u64,
                "{}: recovered entries must serve warm (hit rate 1.0)",
                kind.name()
            );
        }
    }
}

/// Torn-tail chaos: persist one family, tear the log at every byte
/// granularity in a coarse sweep, and verify each reopen recovers a
/// valid prefix and re-drives to bit-identical output — the torn
/// suffix simply recomputes cold.
#[test]
fn torn_log_recovers_prefix_and_recomputes_rest() {
    let briq = briq();
    let budget = Budget::default();
    let docs = adversarial_documents(Adversary::NonFiniteNumerics, 23);
    assert!(docs.len() >= 2, "family must yield several documents");
    let (pristine, manifest) = {
        let dir = TempDir::new("pristine");
        let store = open(&briq, dir.path());
        for (i, doc) in docs.iter().enumerate() {
            stored(&briq, &store, i as u64, doc, budget);
        }
        (
            fs::read(dir.path().join(LOG_FILE)).expect("read pristine log"),
            fs::read(dir.path().join(MANIFEST_FILE)).expect("read pristine manifest"),
        )
    };
    // Tear at ~8 cut points spread over the record region (past the
    // 24-byte file header so the header itself stays valid).
    let span = pristine.len().saturating_sub(24);
    for step in 1..=8usize {
        let cut = 24 + span * step / 9;
        let dir = TempDir::new(&format!("torn-{step}"));
        fs::create_dir_all(dir.path()).expect("mk store dir");
        fs::write(dir.path().join(MANIFEST_FILE), &manifest).expect("write manifest");
        fs::write(dir.path().join(LOG_FILE), &pristine[..cut]).expect("write torn log");
        let store = open(&briq, dir.path());
        assert!(
            store.recovered_entries() <= docs.len() as u64,
            "cut {cut}: cannot recover more than was written"
        );
        for (i, doc) in docs.iter().enumerate() {
            let got = stored(&briq, &store, i as u64, doc, budget);
            let full = storeless(&briq, doc, budget);
            assert_same(&got, &full, &format!("cut {cut}: doc {i}"));
        }
        // After the re-drive repaired the tail, a second restart must
        // recover everything.
        drop(store);
        let store = open(&briq, dir.path());
        assert_eq!(
            store.recovered_entries(),
            docs.len() as u64,
            "cut {cut}: repaired log must recover fully"
        );
    }
}

/// Corruption chaos: flip single bytes at several offsets inside the
/// record region. Every corruption is caught by the frame checksum (or
/// the strict decoder) — recovery keeps the valid prefix, and the
/// re-drive stays bit-identical to the oracle.
#[test]
fn corrupted_log_bytes_never_poison_output() {
    let briq = briq();
    let budget = Budget::default();
    let docs = adversarial_documents(Adversary::RegexHostile, 31);
    let (pristine, manifest) = {
        let dir = TempDir::new("corrupt-src");
        let store = open(&briq, dir.path());
        for (i, doc) in docs.iter().enumerate() {
            stored(&briq, &store, i as u64, doc, budget);
        }
        (
            fs::read(dir.path().join(LOG_FILE)).expect("read pristine log"),
            fs::read(dir.path().join(MANIFEST_FILE)).expect("read pristine manifest"),
        )
    };
    let span = pristine.len().saturating_sub(24);
    for step in 1..=6usize {
        let at = 24 + span * step / 7;
        let mut bytes = pristine.clone();
        bytes[at] ^= 0x5A;
        let dir = TempDir::new(&format!("corrupt-{step}"));
        fs::create_dir_all(dir.path()).expect("mk store dir");
        fs::write(dir.path().join(MANIFEST_FILE), &manifest).expect("write manifest");
        fs::write(dir.path().join(LOG_FILE), &bytes).expect("write corrupt log");
        let store = open(&briq, dir.path());
        for (i, doc) in docs.iter().enumerate() {
            let got = stored(&briq, &store, i as u64, doc, budget);
            let full = storeless(&briq, doc, budget);
            assert_same(&got, &full, &format!("flip@{at}: doc {i}"));
        }
    }
}

/// Version/model-mismatch chaos: state persisted by a differently
/// configured system is rebuilt, not trusted — the reopened store starts
/// empty and cold output still matches the oracle.
#[test]
fn model_mismatch_rebuilds_and_stays_correct() {
    let budget = Budget::default();
    let docs = adversarial_documents(Adversary::MixedLocale, 41);
    let dir = TempDir::new("skew");
    {
        let old = briq();
        let store = open(&old, dir.path());
        for (i, doc) in docs.iter().enumerate() {
            stored(&old, &store, i as u64, doc, budget);
        }
        store.snapshot().expect("snapshot");
    }
    let mut cfg = BriqConfig::default();
    cfg.filter.k_exact += 1; // any config change flips the model fingerprint
    let skewed = Briq::untrained(cfg);
    let store = open(&skewed, dir.path());
    assert_eq!(
        store.recovered_entries(),
        0,
        "a reconfigured model must not trust old artifacts"
    );
    assert!(store.recover_rebuilt());
    for (i, doc) in docs.iter().enumerate() {
        let got = stored(&skewed, &store, i as u64, doc, budget);
        let full = storeless(&skewed, doc, budget);
        assert_same(&got, &full, &format!("skew: doc {i}"));
    }
}

/// Eviction under persistence: a byte-bounded persistent store still
/// recovers correctly (the log holds evicted entries; the memory bound
/// re-applies on recovery) and never changes output.
#[test]
fn bounded_persistent_store_matches_oracle_after_restart() {
    let briq = briq();
    let budget = Budget::default();
    let docs = adversarial_documents(Adversary::ColspanBomb, 53);
    let dir = TempDir::new("bounded");
    let opts = StoreOptions {
        dir: Some(dir.path().to_path_buf()),
        max_bytes: 1, // evict everything but the newest entry
        ..StoreOptions::default()
    };
    {
        let store = AlignmentStore::with_options(&briq, &opts).expect("open bounded");
        let rec = Recorder::enabled();
        for (i, doc) in docs.iter().enumerate() {
            let align = AlignOpts {
                budget,
                recorder: Some(&rec),
                store: Some((&store, i as u64)),
                ..AlignOpts::default()
            };
            briq.align_with(doc, &align);
        }
        if docs.len() > 1 {
            let metrics = rec.finish().expect("trace").metrics;
            assert!(
                metrics.counter(names::STORE_EVICTIONS) > 0,
                "budget must evict"
            );
            assert_eq!(store.len(), 1, "only the newest entry stays resident");
        }
    }
    let store = AlignmentStore::with_options(&briq, &opts).expect("reopen bounded");
    assert!(
        store.recovered_entries() <= 1,
        "recovery re-applies the memory budget"
    );
    for (i, doc) in docs.iter().enumerate() {
        let got = stored(&briq, &store, i as u64, doc, budget);
        let full = storeless(&briq, doc, budget);
        assert_same(&got, &full, &format!("bounded: doc {i}"));
    }
}
