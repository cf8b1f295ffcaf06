//! Micro-benchmarks of the pipeline stages: parsing, tree construction,
//! ambiguity scoring, sphere/vector construction, the three similarity
//! measures and their combination on a cache hit and on a miss, and
//! end-to-end disambiguation of single documents.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use xmltree::tree::TreeBuilder;
use xsdf::{LingTokenizer, Xsdf, XsdfConfig};

const FIG1: &str = r#"<films><picture title="Rear Window"><director>Hitchcock</director><year>1954</year><genre>mystery</genre><cast><star>Stewart</star><star>Kelly</star></cast><plot>A wheelchair bound photographer spies on his neighbors</plot></picture></films>"#;

fn shakespeare_doc() -> String {
    let sn = semnet::mini_wordnet();
    let doc = corpus::gen::generate_document(sn, corpus::DatasetId::Shakespeare, 0, 1);
    xmltree::serialize::to_string_compact(&doc.doc)
}

fn parsing(c: &mut Criterion) {
    let big = shakespeare_doc();
    let mut group = c.benchmark_group("parse");
    group.bench_function("figure1", |b| {
        b.iter(|| black_box(xmltree::parse(FIG1).unwrap()))
    });
    group.bench_function("shakespeare", |b| {
        b.iter(|| black_box(xmltree::parse(&big).unwrap()))
    });
    group.finish();
}

fn tree_building(c: &mut Criterion) {
    let sn = semnet::mini_wordnet();
    let doc = xmltree::parse(&shakespeare_doc()).unwrap();
    c.bench_function("tree_build_with_preprocessing", |b| {
        b.iter(|| {
            black_box(
                TreeBuilder::with_tokenizer(LingTokenizer::new(sn))
                    .build(&doc)
                    .unwrap()
                    .tree,
            )
        })
    });
}

fn ambiguity_scoring(c: &mut Criterion) {
    let sn = semnet::mini_wordnet();
    let doc = xmltree::parse(&shakespeare_doc()).unwrap();
    let tree = TreeBuilder::with_tokenizer(LingTokenizer::new(sn))
        .build(&doc)
        .unwrap()
        .tree;
    c.bench_function("ambiguity_select_targets", |b| {
        b.iter(|| {
            black_box(xsdf::ambiguity::select_targets(
                sn,
                &tree,
                xsdf::AmbiguityWeights::equal(),
                xsdf::ThresholdPolicy::Auto,
            ))
        })
    });
}

fn sphere_and_vectors(c: &mut Criterion) {
    let sn = semnet::mini_wordnet();
    let doc = xmltree::parse(&shakespeare_doc()).unwrap();
    let tree = TreeBuilder::with_tokenizer(LingTokenizer::new(sn))
        .build(&doc)
        .unwrap()
        .tree;
    let center = xmltree::NodeId(tree.len() as u32 / 2);
    let mut group = c.benchmark_group("context");
    for radius in [1u32, 2, 3] {
        group.bench_function(format!("xml_vector_r{radius}"), |b| {
            b.iter(|| black_box(xsdf::sphere::xml_context_vector(&tree, center, radius)))
        });
    }
    let concept = sn.by_key("cast.actors").unwrap();
    group.bench_function("concept_vector_r2", |b| {
        b.iter(|| {
            black_box(xsdf::sphere::concept_context_vector(
                sn,
                concept,
                2,
                &semnet::graph::RelationFilter::All,
            ))
        })
    });
    group.finish();
}

fn similarity_measures(c: &mut Criterion) {
    let sn = semnet::mini_wordnet();
    let a = sn.by_key("cast.actors").unwrap();
    let b_ = sn.by_key("star.performer").unwrap();
    let mut group = c.benchmark_group("similarity");
    group.bench_function("wu_palmer", |b| {
        b.iter(|| black_box(semsim::wu_palmer(sn, a, b_)))
    });
    group.bench_function("lin", |b| b.iter(|| black_box(semsim::lin(sn, a, b_))));
    group.bench_function("gloss_overlap", |b| {
        b.iter(|| black_box(semsim::extended_gloss_overlap(sn, a, b_)))
    });
    group.bench_function("combined_cached", |b| {
        let sim = semsim::CombinedSimilarity::default();
        b.iter(|| black_box(sim.similarity(sn, a, b_)))
    });
    // The miss path: every sense of "star" against every sense of "cast",
    // through a fresh measure each iteration so each pair runs the one
    // subsumer search and all three kernels.
    let pairs: Vec<_> = sn
        .senses("star")
        .iter()
        .flat_map(|&x| sn.senses("cast").iter().map(move |&y| (x, y)))
        .collect();
    group.bench_function("combined_miss", |b| {
        b.iter(|| {
            let sim = semsim::CombinedSimilarity::default();
            for &(x, y) in &pairs {
                black_box(sim.similarity(sn, x, y));
            }
        })
    });
    group.finish();
}

fn end_to_end(c: &mut Criterion) {
    let sn = semnet::mini_wordnet();
    let big = shakespeare_doc();
    let mut group = c.benchmark_group("end_to_end");
    group.sample_size(20);
    group.bench_function("figure1_default", |b| {
        let xsdf = Xsdf::new(sn, XsdfConfig::default());
        b.iter(|| black_box(xsdf.disambiguate_str(FIG1).unwrap()))
    });
    group.bench_function("shakespeare_optimal", |b| {
        let xsdf = Xsdf::new(sn, XsdfConfig::optimal_rich());
        b.iter(|| black_box(xsdf.disambiguate_str(&big).unwrap()))
    });
    group.finish();
}

criterion_group!(
    benches,
    parsing,
    tree_building,
    ambiguity_scoring,
    sphere_and_vectors,
    similarity_measures,
    end_to_end
);
criterion_main!(benches);
