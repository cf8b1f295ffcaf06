//! Scalability and thread-safety checks for the pipeline.

use xsdf::{ThresholdPolicy, Xsdf, XsdfConfig};

/// Builds a large synthetic catalog (~`records`·8 nodes).
fn big_doc(records: usize) -> xmltree::Document {
    let mut doc = xmltree::Document::new();
    let root = doc.add_element(None, "catalog");
    for i in 0..records {
        let cd = doc.add_element(Some(root), "cd");
        for (tag, value) in [
            ("title", "blues"),
            ("artist", "Olsson"),
            ("country", "Norway"),
            ("price", "12"),
            ("year", "1985"),
        ] {
            let e = doc.add_element(Some(cd), tag);
            doc.add_text(e, format!("{value}{}", i % 3));
        }
    }
    doc
}

#[test]
fn thousand_node_document_disambiguates() {
    let sn = semnet::mini_wordnet();
    let xsdf = Xsdf::new(sn, XsdfConfig::default());
    let doc = big_doc(150); // ~1200 tree nodes
    let tree = xsdf.build_tree(&doc);
    assert!(tree.len() > 1000, "tree has {} nodes", tree.len());
    let result = xsdf.disambiguate_tree(&tree);
    assert_eq!(result.reports.len(), tree.len());
    assert!(result.assigned_count() > 500);
}

#[test]
fn selection_scales_down_the_work() {
    // Motivation 1 at scale: the automatic threshold processes a strict
    // subset of the zero-threshold targets on a large document.
    let sn = semnet::mini_wordnet();
    let doc = big_doc(100);
    let all = Xsdf::new(sn, XsdfConfig::default());
    let tree = all.build_tree(&doc);
    let n_all = all.disambiguate_tree(&tree).targets().count();
    let auto = Xsdf::new(
        sn,
        XsdfConfig {
            threshold: ThresholdPolicy::Auto,
            ..XsdfConfig::default()
        },
    );
    let n_auto = auto.disambiguate_tree(&tree).targets().count();
    assert!(n_auto < n_all * 3 / 4, "auto {n_auto} vs all {n_all}");
}

#[test]
fn framework_types_are_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<semnet::SemanticNetwork>();
    assert_send_sync::<xmltree::XmlTree>();
    assert_send_sync::<XsdfConfig>();
    assert_send_sync::<Xsdf<'static>>();
}

#[test]
fn parallel_batch_on_many_documents() {
    let sn = semnet::mini_wordnet();
    let xsdf = Xsdf::new(sn, XsdfConfig::default());
    // The parallel executor is `runtime::BatchEngine`, covered by the
    // runtime and conformance suites; this checks the pipeline's side.
    for doc in (0..12).map(|_| big_doc(10)) {
        let result = xsdf.disambiguate_tree(&xsdf.build_tree(&doc));
        assert!(result.assigned_count() > 10);
    }
}
