//! Golden output digests: the annotated XML of a fixed document stream,
//! pinned across commits.
//!
//! One FNV-1a-64 digest of `to_annotated_xml()` per (configuration,
//! stream position) is committed in `fixtures/annotated_digests.txt`.
//! Performance work on the scoring core must leave every digest
//! unchanged; the test names the first (configuration, position) whose
//! output moved. Regenerate the fixture (only for an intended output
//! change) with
//!
//! ```text
//! cargo test -p xsdf --test golden_digests -- --ignored --nocapture print_digests
//! ```

use semnet::mini_wordnet;
use xsdf::{DisambiguationProcess, DistancePolicy, VectorSimilarity, Xsdf, XsdfConfig};

/// Seed of the `corpus::stream` documents.
const SEED: u64 = 7;

/// Stream positions `0..DOCS` are digested.
const DOCS: u64 = 100;

const FIXTURE: &str = include_str!("fixtures/annotated_digests.txt");

/// FNV-1a over bytes, 64-bit (the hash `SimilarityWeights::fingerprint`
/// uses): stable across Rust releases, unlike `DefaultHasher`.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &byte in bytes {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// The digested configurations: the three processes, plus the default
/// process a second time as `concept-exact`. Those rows were digested
/// when the scoring loop's exact early exit was opt-in; it now always
/// runs, and the rows still pin that it leaves the output unchanged.
/// The rows after it pin the footnote-10 vector measures, the combined
/// process at the other radii, and the concept process under the two
/// weighted distance policies `exp_distance` runs.
fn configurations() -> Vec<(&'static str, XsdfConfig)> {
    let combined = DisambiguationProcess::Combined {
        concept: 0.5,
        context: 0.5,
    };
    vec![
        ("concept", XsdfConfig::default()),
        (
            "context",
            XsdfConfig {
                process: DisambiguationProcess::ContextBased,
                ..XsdfConfig::default()
            },
        ),
        (
            "combined",
            XsdfConfig {
                process: combined,
                ..XsdfConfig::default()
            },
        ),
        ("concept-exact", XsdfConfig::default()),
        (
            "context-jaccard",
            XsdfConfig {
                process: DisambiguationProcess::ContextBased,
                vector_similarity: VectorSimilarity::Jaccard,
                ..XsdfConfig::default()
            },
        ),
        (
            "context-pearson",
            XsdfConfig {
                process: DisambiguationProcess::ContextBased,
                vector_similarity: VectorSimilarity::Pearson,
                ..XsdfConfig::default()
            },
        ),
        (
            "combined-r1",
            XsdfConfig {
                process: combined,
                radius: 1,
                ..XsdfConfig::default()
            },
        ),
        (
            "combined-r3",
            XsdfConfig {
                process: combined,
                radius: 3,
                ..XsdfConfig::default()
            },
        ),
        (
            "concept-directional",
            XsdfConfig {
                distance: DistancePolicy::Directional { up: 0.5, down: 1.0 },
                ..XsdfConfig::default()
            },
        ),
        (
            "concept-density",
            XsdfConfig {
                distance: DistancePolicy::DensityScaled { alpha: 1.0 },
                ..XsdfConfig::default()
            },
        ),
    ]
}

/// `(configuration, position, digest)` for every digested output, in
/// fixture order.
fn compute() -> Vec<(&'static str, u64, u64)> {
    let sn = mini_wordnet();
    let docs: Vec<String> = (0..DOCS)
        .map(|pos| {
            let doc = corpus::stream::document_at(sn, SEED, pos);
            xmltree::serialize::to_string_compact(&doc.doc)
        })
        .collect();
    let mut out = Vec::new();
    for (name, config) in configurations() {
        let xsdf = Xsdf::new(sn, config);
        for (pos, xml) in (0..).zip(&docs) {
            let annotated = xsdf
                .disambiguate_str(xml)
                .expect("stream documents parse")
                .semantic_tree
                .to_annotated_xml();
            out.push((name, pos, fnv1a64(annotated.as_bytes())));
        }
    }
    out
}

fn parse_fixture() -> Vec<(String, u64, u64)> {
    FIXTURE
        .lines()
        .filter(|line| !line.starts_with('#') && !line.trim().is_empty())
        .map(|line| {
            let fields: Vec<&str> = line.split_whitespace().collect();
            assert_eq!(fields.len(), 3, "malformed fixture line {line:?}");
            let pos = fields[1].parse().expect("fixture position");
            let digest = u64::from_str_radix(fields[2], 16).expect("fixture digest");
            (fields[0].to_string(), pos, digest)
        })
        .collect()
}

#[test]
fn fnv1a64_matches_reference_vectors() {
    // Published FNV-1a-64 test vectors.
    assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
    assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
}

#[test]
fn annotated_output_matches_golden_digests() {
    let expected = parse_fixture();
    let got = compute();
    assert_eq!(
        expected.len(),
        got.len(),
        "fixture holds {} digests, the test computes {}",
        expected.len(),
        got.len()
    );
    for ((name, pos, want), (got_name, got_pos, digest)) in expected.iter().zip(&got) {
        assert_eq!(
            (name.as_str(), *pos),
            (*got_name, *got_pos),
            "fixture order differs from the computed order"
        );
        assert_eq!(
            *want, *digest,
            "annotated XML changed: configuration {name}, stream position {pos} (seed {SEED})"
        );
    }
}

/// Prints the fixture for the current code (see the module docs).
#[test]
#[ignore = "regenerates the fixture; run explicitly"]
fn print_digests() {
    println!("# FNV-1a-64 of to_annotated_xml() per (configuration, corpus::stream position), seed {SEED}");
    for (name, pos, digest) in compute() {
        println!("{name} {pos} {digest:016x}");
    }
}
