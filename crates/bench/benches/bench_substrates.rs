//! Substrate micro-benchmarks: quantity extraction, table parsing,
//! virtual-cell generation, random walks, and forest scoring.
//! These back the component-cost analysis of the Table VIII discussion.

use briq_corpus::corpus::{generate_corpus, CorpusConfig};
use briq_corpus::page::table_to_html;
use briq_graph::{random_walk_with_restart, Graph, RwrConfig};
use briq_ml::{Dataset, RandomForest, RandomForestConfig};
use briq_table::html::parse_page;
use briq_table::virtual_cells::{virtual_cells, VirtualCellConfig};
use briq_table::Table;
use briq_text::extract_quantities;
use criterion::{black_box, criterion_group, criterion_main, Criterion};

const SAMPLE_TEXT: &str = "In 2013 revenue of $3.26 billion CDN was up $70 million \
    CDN or 2% from the previous year. The net income of 2013 was $0.9 billion CDN. \
    Compared to the revenue of 2012, it increased by 1.5%. A total of 123 patients \
    reported side effects, with about 37K EUR in costs and margins up 60 bps to 13.3%.";

fn sample_table() -> Table {
    let c = generate_corpus(&CorpusConfig {
        n_documents: 6,
        seed: 5,
        ..Default::default()
    });
    c.documents
        .iter()
        .flat_map(|d| d.document.tables.iter())
        .max_by_key(|t| t.n_rows * t.n_cols)
        .unwrap()
        .clone()
}

fn bench_extraction(c: &mut Criterion) {
    c.bench_function("text/extract_quantities", |b| {
        b.iter(|| extract_quantities(black_box(SAMPLE_TEXT)).len())
    });
}

fn bench_table_parse(c: &mut Criterion) {
    let html = table_to_html(&sample_table());
    c.bench_function("table/html_parse_and_normalize", |b| {
        b.iter(|| {
            let page = parse_page(black_box(&html));
            Table::from_raw(&page.tables[0]).quantity_count()
        })
    });
}

fn bench_virtual_cells(c: &mut Criterion) {
    let table = sample_table();
    let cfg = VirtualCellConfig::default();
    c.bench_function("table/virtual_cells", |b| {
        b.iter(|| virtual_cells(black_box(&table), 0, &cfg).len())
    });
}

fn bench_rwr(c: &mut Criterion) {
    // A graph shaped like a candidate graph: 200 nodes, local structure.
    let mut g = Graph::new(200);
    for i in 0..200usize {
        for d in 1..5usize {
            let j = (i + d * 7) % 200;
            g.add_edge(i, j, 0.3 + (d as f64) * 0.1);
        }
    }
    let cfg = RwrConfig::default();
    c.bench_function("graph/rwr_200_nodes", |b| {
        b.iter(|| random_walk_with_restart(black_box(&g), 0, &cfg))
    });
}

fn bench_forest(c: &mut Criterion) {
    let mut data = Dataset::new();
    for i in 0..600 {
        let x = (i % 100) as f64 / 100.0;
        let y = ((i * 13) % 100) as f64 / 100.0;
        data.push(vec![x, y, x * y, x - y, 1.0 - x], x + y > 1.0);
    }
    let rf = RandomForest::fit(
        &data,
        RandomForestConfig {
            n_trees: 64,
            ..Default::default()
        },
    );
    c.bench_function("ml/forest_train_64", |b| {
        b.iter(|| {
            RandomForest::fit(
                black_box(&data),
                RandomForestConfig {
                    n_trees: 16,
                    ..Default::default()
                },
            )
        })
    });
    c.bench_function("ml/forest_score", |b| {
        b.iter(|| rf.predict_proba(black_box(&[0.4, 0.7, 0.28, -0.3, 0.6])))
    });
}

criterion_group!(
    benches,
    bench_extraction,
    bench_table_parse,
    bench_virtual_cells,
    bench_rwr,
    bench_forest
);
criterion_main!(benches);
