//! Cold start: decoding a compiled snapshot must stay well ahead of
//! rebuilding the same network from its text export.
//!
//! *Rebuild* is what every process paid before snapshots: parse the text
//! format (full validation, depths, cumulative frequencies) and build the
//! gloss artifacts. *Load* is `snapshot::decode`, one validated read with
//! the artifacts already built. The floor is a same-machine ratio, so the
//! runner's speed cancels out; it holds in debug and release builds.

use std::hint::black_box;
use std::time::{Duration, Instant};

use xsdf_semnet::{format, snapshot, NetworkBuilder, PartOfSpeech, SemanticNetwork};

/// Concepts in the synthetic network.
const CONCEPTS: usize = 8_000;

/// The smallest rebuild/load ratio that passes.
const MIN_SPEEDUP: f64 = 3.0;

/// A WordNet-shaped synthetic network: `n` noun concepts under one root
/// in an 8-ary hypernym tree, each with one unique lemma, one lemma shared
/// with about three siblings (so the word index has multi-sense entries),
/// and a ~15-word gloss that gives the artifact build real tokenization
/// work. Everything is a pure function of `i`, so the network and its
/// snapshot are the same on every run.
fn synthetic_wordnet(n: usize) -> SemanticNetwork {
    let mut b = NetworkBuilder::new();
    b.concept(
        "entity.n",
        &["entity"],
        "the root of the synthetic wordnet scale taxonomy used by the cold start benchmark",
        1000,
        PartOfSpeech::Noun,
    );
    let shared = (n / 3).max(1);
    for i in 0..n {
        let key = format!("syn{i}.n");
        let parent = if i < 8 {
            "entity.n".to_string()
        } else {
            format!("syn{}.n", i / 8 - 1)
        };
        let unique = format!("term{i}");
        let common = format!("word{}", i % shared);
        let gloss = format!(
            "a synthetic concept number {i} of the scale benchmark whose gloss mentions \
             word{} and term{} so the artifact build tokenizes realistic sentences",
            (i + 7) % shared,
            (i + 13) % n,
        );
        b.noun(
            &key,
            &[&unique, &common],
            &gloss,
            (i % 1000) as u32 + 1,
            &parent,
        );
    }
    b.build().expect("synthetic wordnet is well-formed")
}

fn timed(f: impl FnOnce()) -> Duration {
    let started = Instant::now();
    f();
    started.elapsed()
}

#[test]
fn snapshot_load_is_at_least_3x_faster_than_a_rebuild() {
    let sn = synthetic_wordnet(CONCEPTS);
    assert_eq!(sn.len(), CONCEPTS + 1);
    let text = format::to_text(&sn);
    let snap = snapshot::encode(&sn);

    let rebuild = timed(|| {
        let rebuilt = format::from_text(&text).expect("text export parses");
        black_box(rebuilt.gloss_artifacts());
        black_box(&rebuilt);
    });
    let load = timed(|| {
        let loaded = snapshot::decode(&snap).expect("snapshot decodes");
        black_box(loaded.gloss_artifacts());
        // The loaded network is the whole network, so the ratio never
        // comes from skipped work.
        assert_eq!(loaded.len(), sn.len());
        assert_eq!(loaded.total_frequency(), sn.total_frequency());
        black_box(&loaded);
    });

    let speedup = rebuild.as_secs_f64() / load.as_secs_f64();
    eprintln!(
        "cold start over {CONCEPTS} concepts: rebuild {rebuild:?}, load {load:?} ({speedup:.1}x)"
    );
    assert!(
        speedup >= MIN_SPEEDUP,
        "snapshot load only {speedup:.2}x faster than a rebuild \
         ({load:?} against {rebuild:?}; floor {MIN_SPEEDUP}x)"
    );
}
