//! Shape tests for the reproduced tables and figures: on a reduced corpus,
//! the qualitative findings of the paper's Section 4 must hold. (The full
//! corpus numbers live in EXPERIMENTS.md and regenerate via the `exp_*`
//! binaries; these tests keep the shapes from regressing.)

use corpus::{Corpus, Group};
use xsdf_eval::experiments::{
    fig8, fig9, table1, table2, table3, table4, to_json, TARGETS_PER_DOC,
};

fn small_corpus() -> (&'static semnet::SemanticNetwork, Corpus) {
    let sn = semnet::mini_wordnet();
    // 3 documents per dataset keeps the suite fast while preserving shapes.
    (sn, Corpus::generate_small(sn, 2015, 3))
}

#[test]
fn table1_group_ordering() {
    let (sn, corpus) = small_corpus();
    let t1 = table1::run(sn, &corpus);
    let amb = |g: usize| t1.groups[g - 1].amb_deg;
    let st = |g: usize| t1.groups[g - 1].struct_deg;
    // Groups 1-2 are the high-ambiguity half; group 1 is the most
    // structured, group 2 the least.
    assert!(amb(1) > amb(3), "G1 {:.4} vs G3 {:.4}", amb(1), amb(3));
    assert!(amb(1) > amb(4));
    assert!(amb(2) > amb(4));
    assert!(st(1) > st(2), "G1 {:.4} vs G2 {:.4}", st(1), st(2));
}

#[test]
fn table2_group1_positive_group4_weak() {
    let (sn, corpus) = small_corpus();
    let t2 = table2::run(sn, &corpus, 13);
    // The paper's headline: strong positive correlation on Group 1,
    // weak-to-negative on Group 4 (whose personnel dataset is the most
    // negative row).
    assert!(
        t2.group1_correlation() > 0.15,
        "G1 {:.3}",
        t2.group1_correlation()
    );
    assert!(
        t2.group4_mean_correlation() < t2.group1_correlation() - 0.2,
        "G4 {:.3} vs G1 {:.3}",
        t2.group4_mean_correlation(),
        t2.group1_correlation()
    );
    let doc9 = &t2.rows[8];
    assert!(
        doc9.correlations[0] < 0.0,
        "personnel should correlate negatively"
    );
}

#[test]
fn table3_shakespeare_largest_catalog_smallest() {
    let (sn, corpus) = small_corpus();
    let t3 = table3::run(sn, &corpus);
    let nodes = |i: usize| t3.rows[i - 1].avg_nodes;
    assert!(nodes(1) > nodes(2), "shakespeare > amazon");
    assert!(nodes(2) > nodes(8), "amazon > plant catalog");
    // Polysemy: the high-ambiguity groups lead.
    let poly = |i: usize| t3.rows[i - 1].stats.polysemy_avg;
    assert!(
        poly(1) > poly(7),
        "shakespeare more polysemous than food menu"
    );
}

#[test]
fn table4_checklist_is_the_papers() {
    let rows = table4::rows();
    assert!(rows.iter().all(|f| f.xsdf), "XSDF checks every feature");
    assert_eq!(rows.iter().filter(|f| f.rpd).count(), 1);
    assert_eq!(rows.iter().filter(|f| f.vsd).count(), 5);
}

#[test]
fn fig9_xsdf_leads_where_the_paper_says() {
    let (sn, corpus) = small_corpus();
    let f9 = fig9::run(sn, &corpus, 13);
    // Group 1: the paper's largest improvement.
    assert!(
        f9.f(1, "XSDF") > f9.f(1, "RPD"),
        "G1: XSDF {:.3} vs RPD {:.3}",
        f9.f(1, "XSDF"),
        f9.f(1, "RPD")
    );
    assert!(f9.f(1, "XSDF") > f9.f(1, "VSD"));
    // Group 2: clear improvement too.
    assert!(f9.f(2, "XSDF") > f9.f(2, "RPD"));
    // Group 4: "almost 0% improvement... RPD produces better results":
    // RPD must at least win on precision there.
    let xsdf4 = f9.cell(4, "XSDF").unwrap();
    let rpd4 = f9.cell(4, "RPD").unwrap();
    assert!(rpd4.precision > xsdf4.precision, "RPD leads G4 precision");
    // And the f-gap on G4 is small (±10%).
    let gap = (xsdf4.f_value - rpd4.f_value).abs();
    assert!(gap < 0.1, "G4 f-gap {gap:.3} should be near zero");
}

#[test]
fn fig9_optimal_configs_match_paper() {
    assert_eq!(fig9::optimal_config(Group::G1).radius, 1);
    for g in [Group::G2, Group::G3, Group::G4] {
        assert_eq!(fig9::optimal_config(g).radius, 3);
    }
}

#[test]
fn f_values_in_papers_ballpark() {
    // The paper reports f-values roughly in [0.55, 0.69] for XSDF across
    // configurations; allow a generous band around it.
    let (sn, corpus) = small_corpus();
    let f9 = fig9::run(sn, &corpus, 13);
    for group in 1..=4 {
        let f = f9.f(group, "XSDF");
        assert!((0.45..=0.95).contains(&f), "group {group}: f = {f:.3}");
    }
}

/// FNV-1a over bytes, 64-bit (as `crates/xsdf/tests/golden_digests.rs`):
/// stable across Rust releases, unlike `DefaultHasher`.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &byte in bytes {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// The JSON that the six `exp_*` binaries dump, pinned on the small
/// corpus: a change that moves any Section 4 number, or the layout of the
/// dumped JSON, fails here. Update a digest only for an intended change,
/// from the values this test prints when it fails.
#[test]
fn experiment_json_digests_are_pinned() {
    const PINNED: [(&str, u64); 6] = [
        ("table1", 0xd279330c8a0f42c4),
        ("table2", 0xace987796729fff5),
        ("table3", 0x60528192939cb10d),
        ("table4", 0x19a8ed15bd53c32e),
        ("fig8", 0xbb168c88b9f9262d),
        ("fig9", 0xb7b80ad87451ee48),
    ];
    let (sn, corpus) = small_corpus();
    let json = [
        to_json(&table1::run(sn, &corpus)),
        to_json(&table2::run(sn, &corpus, TARGETS_PER_DOC)),
        to_json(&table3::run(sn, &corpus)),
        to_json(&table4::rows()),
        to_json(&fig8::run(sn, &corpus, TARGETS_PER_DOC)),
        to_json(&fig9::run(sn, &corpus, TARGETS_PER_DOC)),
    ];
    let digests: Vec<(&str, u64)> = PINNED
        .iter()
        .zip(&json)
        .map(|(&(name, _), text)| (name, fnv1a64(text.as_bytes())))
        .collect();
    let listing: String = digests
        .iter()
        .map(|(name, digest)| format!("(\"{name}\", {digest:#018x}),\n"))
        .collect();
    assert_eq!(digests, PINNED, "digests now:\n{listing}");
}
