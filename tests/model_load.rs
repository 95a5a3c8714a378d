//! Model files are checked when loaded: a malformed tree, a split on a
//! feature the row does not have, a split threshold that is not finite,
//! or a leaf probability outside [0, 1] makes `Briq::from_json` return
//! an error naming the tree and node, before anything walks a tree or
//! scores a row. A config missing a field is refused and the error names
//! it; a field the config no longer has is ignored, so older model files
//! still load.

use std::sync::OnceLock;

use briq::features::FEATURE_COUNT;
use briq::pipeline::{Briq, BriqConfig};
use briq::substrates::corpus::annotate::{annotate, AnnotatorConfig};
use briq::substrates::corpus::corpus::{generate_corpus, CorpusConfig};
use briq::substrates::ml::RandomForestConfig;
use briq::tagger::TAGGER_FEATURE_COUNT;
use briq_json::Value;

/// A small trained model, serialized; trained once per test binary.
fn model_json() -> &'static str {
    static MODEL: OnceLock<String> = OnceLock::new();
    MODEL.get_or_init(|| {
        let corpus = generate_corpus(&CorpusConfig {
            n_documents: 16,
            seed: 17,
            ..Default::default()
        });
        let mut docs = corpus.documents;
        annotate(&mut docs, &AnnotatorConfig::default());
        let small = RandomForestConfig {
            n_trees: 4,
            ..Default::default()
        };
        let cfg = BriqConfig {
            forest: small,
            tagger_forest: small,
            ..Default::default()
        };
        let briq = Briq::train(cfg, &docs[..12], &docs[12..]);
        briq.to_json().expect("a trained model serializes")
    })
}

fn field<'v>(v: &'v mut Value, key: &str) -> &'v mut Value {
    match v {
        Value::Object(entries) => entries
            .iter_mut()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("no field {key}")),
        _ => panic!("not an object where {key} was expected"),
    }
}

fn item(v: &mut Value, i: usize) -> &mut Value {
    match v {
        Value::Array(items) => &mut items[i],
        _ => panic!("not an array"),
    }
}

/// The node list of tree `t` in a forest object.
fn nodes(forest: &mut Value, t: usize) -> &mut Vec<Value> {
    match field(item(field(forest, "trees"), t), "nodes") {
        Value::Array(nodes) => nodes,
        _ => panic!("nodes is not an array"),
    }
}

/// The index and fields of the first `kind` node (`"Split"` or `"Leaf"`)
/// at or after `from`.
fn first<'v>(nodes: &'v mut [Value], kind: &str, from: usize) -> (usize, &'v mut Value) {
    let at = (from..nodes.len())
        .find(|&i| nodes[i].get_variant(kind).is_some())
        .unwrap_or_else(|| panic!("the tree has no {kind} node from {from}"));
    (at, field(&mut nodes[at], kind))
}

fn set(split: &mut Value, key: &str, n: usize) {
    *field(split, key) = Value::Num(n as f64);
}

/// Edit the trained model, then load it; the load's error message.
fn load_edited(edit: impl FnOnce(&mut Value)) -> String {
    let mut model = briq_json::parse(model_json()).expect("the model parses");
    edit(&mut model);
    match Briq::from_json(&briq_json::to_string(&model)) {
        Ok(_) => panic!("the edited model loaded"),
        Err(e) => e.to_string(),
    }
}

fn classifier_forest(model: &mut Value) -> &mut Value {
    field(field(model, "classifier"), "forest")
}

fn assert_names(err: &str, parts: &[&str]) {
    for part in parts {
        assert!(err.contains(part), "{err:?} does not name {part:?}");
    }
}

#[test]
fn trained_model_round_trips() {
    let json = model_json();
    let briq = Briq::from_json(json).expect("the trained model loads");
    assert!(briq.is_trained());
    assert_eq!(briq.to_json().expect("serializes"), json);
}

#[test]
fn config_without_use_index_is_refused() {
    let err = load_edited(|m| match field(m, "cfg") {
        Value::Object(entries) => entries.retain(|(k, _)| k != "use_index"),
        _ => panic!("cfg is not an object"),
    });
    assert_names(&err, &["use_index"]);
}

/// Every model file written while the config had a `use_store` switch
/// carries it; such a file loads, and writes back without it.
#[test]
fn model_with_the_retired_use_store_field_loads() {
    let mut model = briq_json::parse(model_json()).expect("the model parses");
    match field(&mut model, "cfg") {
        Value::Object(entries) => {
            entries.retain(|(k, _)| k != "use_store");
            entries.push(("use_store".into(), Value::Bool(false)));
        }
        _ => panic!("cfg is not an object"),
    }
    let briq = Briq::from_json(&briq_json::to_string(&model)).expect("the old model loads");
    assert_eq!(briq.to_json().expect("serializes"), model_json());
}

#[test]
fn empty_tree_is_refused() {
    let err = load_edited(|m| nodes(classifier_forest(m), 2).clear());
    assert_names(&err, &["tree 2", "has no nodes"]);
}

#[test]
fn child_pointing_back_at_the_root_is_refused() {
    let mut at = 0;
    let err = load_edited(|m| {
        let (id, s) = first(nodes(classifier_forest(m), 1), "Split", 1);
        set(s, "left", 0);
        at = id;
    });
    assert_names(
        &err,
        &[
            "tree 1",
            &format!("node {at}"),
            "child index 0 is not greater than its parent's",
        ],
    );
}

#[test]
fn out_of_range_child_is_refused() {
    let mut at = 0;
    let err = load_edited(|m| {
        let nodes = nodes(classifier_forest(m), 3);
        let n = nodes.len();
        let (id, s) = first(nodes, "Split", 0);
        set(s, "right", n);
        at = id;
    });
    assert_names(&err, &["tree 3", &format!("node {at}"), "out of range"]);
}

#[test]
fn child_shared_by_two_splits_is_refused() {
    let err = load_edited(|m| {
        let (_, s) = first(nodes(classifier_forest(m), 0), "Split", 0);
        let left = field(s, "left").clone();
        *field(s, "right") = left;
    });
    assert_names(&err, &["tree 0", "node 0", "already has a parent"]);
}

#[test]
fn classifier_split_past_the_row_is_refused() {
    let mut at = 0;
    let err = load_edited(|m| {
        let (id, s) = first(nodes(classifier_forest(m), 1), "Split", 0);
        set(s, "feature", FEATURE_COUNT);
        at = id;
    });
    assert_names(
        &err,
        &[
            "classifier",
            "tree 1",
            &format!("node {at}"),
            &format!("split feature {FEATURE_COUNT}"),
        ],
    );
}

#[test]
fn split_threshold_null_is_refused() {
    // The JSON decoder reads `null` as NaN for an f64.
    let mut at = 0;
    let err = load_edited(|m| {
        let (id, s) = first(nodes(classifier_forest(m), 2), "Split", 1);
        *field(s, "threshold") = Value::Null;
        at = id;
    });
    assert_names(
        &err,
        &[
            "tree 2",
            &format!("node {at}"),
            "split threshold NaN is not finite",
        ],
    );
}

#[test]
fn leaf_probability_null_is_refused() {
    let mut at = 0;
    let err = load_edited(|m| {
        let (id, l) = first(nodes(classifier_forest(m), 1), "Leaf", 0);
        *field(l, "prob") = Value::Null;
        at = id;
    });
    assert_names(
        &err,
        &[
            "tree 1",
            &format!("node {at}"),
            "leaf probability NaN is outside [0, 1]",
        ],
    );
}

#[test]
fn leaf_probability_above_one_is_refused() {
    let mut at = 0;
    let err = load_edited(|m| {
        let (id, l) = first(nodes(classifier_forest(m), 3), "Leaf", 0);
        *field(l, "prob") = Value::Num(1.5);
        at = id;
    });
    assert_names(
        &err,
        &[
            "tree 3",
            &format!("node {at}"),
            "leaf probability 1.5 is outside [0, 1]",
        ],
    );
}

/// Replace tree 0 of the tagger's forest 2 with one split on `feature`.
fn set_tagger_split(model: &mut Value, feature: usize) {
    let tree = format!(
        r#"[{{"Split":{{"feature":{feature},"threshold":0.5,"left":1,"right":2}}}},
            {{"Leaf":{{"prob":0.25}}}},{{"Leaf":{{"prob":0.75}}}}]"#
    );
    let forest = item(field(field(model, "tagger"), "forests"), 2);
    *nodes(forest, 0) = match briq_json::parse(&tree).expect("the tree parses") {
        Value::Array(nodes) => nodes,
        _ => unreachable!(),
    };
}

#[test]
fn tagger_split_feature_is_checked_against_the_tagger_row() {
    // A column past the classifier row but inside the tagger row loads.
    const { assert!(TAGGER_FEATURE_COUNT > FEATURE_COUNT) };
    let mut model = briq_json::parse(model_json()).expect("the model parses");
    set_tagger_split(&mut model, TAGGER_FEATURE_COUNT - 1);
    Briq::from_json(&briq_json::to_string(&model)).expect("an in-range tagger split loads");

    let err = load_edited(|m| set_tagger_split(m, TAGGER_FEATURE_COUNT));
    assert_names(
        &err,
        &[
            "tagger",
            "forest 2",
            "tree 0",
            "node 0",
            &format!("split feature {TAGGER_FEATURE_COUNT}"),
        ],
    );
}
