//! Untimed inputs: the model, the page corpus and the seeded re-crawl
//! mutation. Everything here is a pure function of `--seed` (the model
//! of a fixed seed), and the on-disk parts are cached under
//! `target/briq-perf/`.

use std::path::{Path, PathBuf};

use briq_core::pipeline::{Briq, BriqConfig};
use briq_core::store::Fingerprint;
use briq_corpus::annotate::{annotate, AnnotatorConfig};
use briq_corpus::corpus::{generate_corpus, CorpusConfig};
use briq_corpus::page::corpus_pages;
use briq_ml::split::random_split;
use rand::prelude::*;

/// Documents the model is trained on. `briq-align --train-demo` uses
/// 200, which gives a 3.4 MB model whose load alone takes minutes (the
/// JSON parser is quadratic), and 50 give 1.1 MB and 7.5 s; 20 give
/// 0.5 MB and ~1.5 s on a 2-vCPU x86-64 machine, while the trained
/// forest, retrieval and bound pruning still run as in production.
pub const MODEL_DOCS: usize = 20;
/// Generated documents in the batch corpus, 3 per page.
pub const BATCH_DOCS: usize = 1800;
pub const DOCS_PER_PAGE: usize = 3;
/// The batch corpus splits into this many slices of ~200 pages (600
/// documents). One `batch_cold` pass aligns one slice, taking them in
/// turn, so a run covers three times the content a pass holds in
/// memory; `recrawl` uses the first slice.
pub const SLICES: usize = 3;
/// Share of pages whose digits rotate before each re-crawl pass.
pub const RECRAWL_CHANGE: f64 = 0.10;

/// Root of every cached input, relative to the checkout root.
pub fn cache_root() -> PathBuf {
    PathBuf::from("target/briq-perf")
}

pub fn seed_dir(seed: u64) -> PathBuf {
    cache_root().join(seed.to_string())
}

/// FNV-1a digest of a byte string (the store's fingerprint function).
pub fn digest(bytes: &[u8]) -> u64 {
    let mut f = Fingerprint::new();
    f.bytes(bytes);
    f.finish()
}

/// The generator of stream `stream` of `seed`: distinct streams are
/// independent sequences of the same seed.
fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

// ---------------------------------------------------------------- model

/// The trained model file and its digest.
pub struct Model {
    pub path: PathBuf,
    pub digest: u64,
}

/// Train the model with the `--train-demo` recipe on [`MODEL_DOCS`]
/// documents of seed 1, and cache it. Training is repeated on every
/// call (it takes a fraction of a second) so a model whose bytes change
/// between runs of one checkout is caught instead of silently reused.
pub fn prepare_model() -> Result<Model, String> {
    let corpus = generate_corpus(&CorpusConfig {
        n_documents: MODEL_DOCS,
        seed: 1,
        ..Default::default()
    });
    let mut docs = corpus.documents;
    annotate(&mut docs, &AnnotatorConfig::default());
    let split = random_split(docs.len(), 0.1, 0.0, 1);
    let train: Vec<_> = split.train.iter().map(|&i| docs[i].clone()).collect();
    let val: Vec<_> = split.validation.iter().map(|&i| docs[i].clone()).collect();
    let json = Briq::train(BriqConfig::default(), &train, &val)
        .to_json()
        .map_err(|e| format!("cannot serialize the model: {e}"))?;
    let fresh = digest(json.as_bytes());
    let path = cache_root().join("model.json");
    match std::fs::read(&path) {
        Ok(cached) if digest(&cached) == fresh => {}
        Ok(_) => {
            return Err(format!(
                "model JSON digest differs from the cached {}: training is not deterministic",
                path.display()
            ))
        }
        Err(_) => write_atomic(&path, json.as_bytes())?,
    }
    Ok(Model {
        path,
        digest: fresh,
    })
}

// -------------------------------------------------------------- corpora

/// The batch corpus of `seed` as HTML pages, also written to
/// `target/briq-perf/<seed>/pages-<digest>/` so `briq-align --batch` can
/// replay it.
pub fn batch_pages(seed: u64) -> Result<Vec<String>, String> {
    let pages = corpus_pages(
        &CorpusConfig {
            n_documents: BATCH_DOCS,
            seed,
            ..Default::default()
        },
        DOCS_PER_PAGE,
    );
    let dir = seed_dir(seed).join(format!("pages-{:016x}", digest(pages.concat().as_bytes())));
    if !dir.exists() {
        let tmp = dir.with_extension("tmp");
        let _ = std::fs::remove_dir_all(&tmp);
        mkdir(&tmp)?;
        for (i, html) in pages.iter().enumerate() {
            let p = tmp.join(page_name(i));
            std::fs::write(&p, html).map_err(|e| format!("cannot write {}: {e}", p.display()))?;
        }
        std::fs::rename(&tmp, &dir)
            .map_err(|e| format!("cannot publish {}: {e}", dir.display()))?;
    }
    Ok(pages)
}

/// Slice `i` of [`SLICES`] of the batch corpus.
pub fn slice(pages: &[String], i: usize) -> &[String] {
    let len = pages.len().div_ceil(SLICES);
    &pages[(i * len).min(pages.len())..((i + 1) * len).min(pages.len())]
}

/// File name of page `i`, as `briq-align --gen-corpus` names it.
pub fn page_name(i: usize) -> String {
    format!("page_{i:04}.html")
}

/// Store key of segment `si` of page `i`: the fingerprint `briq-align`
/// derives from the page's file name and the segment index, so a store
/// warmed here is also warm for `briq-align --store-dir`.
pub fn doc_key(page: usize, si: usize) -> u64 {
    let mut f = Fingerprint::new();
    f.str(&page_name(page));
    let base = f.finish();
    let mut f = Fingerprint::new();
    f.u64(base);
    f.usize(si);
    f.finish()
}

/// The pages whose digits rotate before re-crawl pass `pass`: a seeded
/// [`RECRAWL_CHANGE`] share of `n_pages`, ascending.
pub fn mutated_pages(seed: u64, pass: u64, n_pages: usize) -> Vec<usize> {
    let k = ((n_pages as f64 * RECRAWL_CHANGE).ceil() as usize).min(n_pages);
    let mut idx: Vec<usize> = (0..n_pages).collect();
    let mut rng = rng(seed, 0x5EC0_0000 + pass);
    for i in 0..k {
        let j = rng.random_range(i..n_pages);
        idx.swap(i, j);
    }
    let mut out = idx[..k].to_vec();
    out.sort_unstable();
    out
}

/// Every digit replaced by its successor (9 wraps to 0), as CI's store
/// stage mutates pages: numbers change on both the text and the table
/// side, so the page's documents go stale while keeping their shape.
pub fn rotate_digits(html: &str) -> String {
    html.chars()
        .map(|c| match c.to_digit(10) {
            Some(d) => char::from_digit((d + 1) % 10, 10).unwrap_or(c),
            None => c,
        })
        .collect()
}

// ------------------------------------------------------------- files

pub fn mkdir(p: &Path) -> Result<(), String> {
    std::fs::create_dir_all(p).map_err(|e| format!("cannot create {}: {e}", p.display()))
}

fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        mkdir(dir)?;
    }
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, bytes)
        .and_then(|()| std::fs::rename(&tmp, path))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Copy every regular file of `src` into a fresh `dst`, and flush the
/// copies to disk so their write-back does not overlap what is timed
/// next.
pub fn copy_dir(src: &Path, dst: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(dst);
    mkdir(dst)?;
    let entries =
        std::fs::read_dir(src).map_err(|e| format!("cannot read {}: {e}", src.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("cannot read {}: {e}", src.display()))?;
        let to = dst.join(entry.file_name());
        std::fs::copy(entry.path(), &to)
            .and_then(|_| std::fs::File::open(&to)?.sync_all())
            .map_err(|e| format!("cannot copy to {}: {e}", to.display()))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutation_is_a_pure_function_of_seed_and_pass() {
        let a = mutated_pages(20190408, 3, 200);
        assert_eq!(a, mutated_pages(20190408, 3, 200));
        assert_eq!(a.len(), 20);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert!(a.iter().all(|&p| p < 200));
        assert_ne!(a, mutated_pages(20190408, 4, 200));
        assert_ne!(a, mutated_pages(20190409, 3, 200));
        assert_eq!(mutated_pages(1, 0, 5).len(), 1);
    }

    #[test]
    fn digit_rotation_changes_only_digits() {
        assert_eq!(rotate_digits("<td>1,209</td> x9"), "<td>2,310</td> x0");
        let page = "<p>38 units, 1.5%</p>";
        let mut p = page.to_string();
        for _ in 0..10 {
            p = rotate_digits(&p);
        }
        assert_eq!(p, page);
    }

    #[test]
    fn doc_keys_match_briq_align_page_keys() {
        assert_ne!(doc_key(0, 0), doc_key(0, 1));
        assert_ne!(doc_key(0, 1), doc_key(1, 0));
        assert_eq!(doc_key(12, 2), doc_key(12, 2));
    }
}
