//! Domain example: semantic-aware query rewriting and expansion — the
//! *first* application the paper's introduction motivates (references
//! [11, 40]: "expanding keyword queries by including semantically related
//! terms from XML documents to obtain relevant results").
//!
//! A keyword query ("star") over a heterogeneous movie corpus misses
//! documents that say `actor`, `performer`, or `lead`. After XSDF
//! disambiguation, both the query term and the documents live in concept
//! space: the query concept is expanded through the semantic network
//! (synonyms, hypernyms, hyponyms) and matched against each document's
//! disambiguated concepts.
//!
//! Run with: `cargo run -p xsdf --example query_expansion`

use std::collections::BTreeSet;

use semnet::graph::concept_sphere;
use xsdf::{Xsdf, XsdfConfig};

const CORPUS: &[(&str, &str)] = &[
    (
        "doc-1",
        r#"<films><picture><cast><star>Kelly</star></cast></picture></films>"#,
    ),
    (
        "doc-2",
        r#"<movies><movie><actors><actor>Grace Kelly</actor></actors></movie></movies>"#,
    ),
    (
        "doc-3",
        r#"<show><performer>Stewart</performer><stage>theater</stage></show>"#,
    ),
    (
        "doc-4",
        r#"<catalog><cd><artist>Olsson</artist><track>9</track></cd></catalog>"#,
    ),
    (
        "doc-5",
        r#"<menu><food><name>waffle</name><price>8</price></food></menu>"#,
    ),
];

fn main() {
    let sn = semnet::mini_wordnet();
    let xsdf = Xsdf::new(sn, XsdfConfig::default());

    // 1. Disambiguate every document into a set of concept keys.
    let doc_concepts: Vec<(&str, BTreeSet<String>)> = CORPUS
        .iter()
        .map(|(name, xml)| {
            let result = xsdf.disambiguate_str(xml).expect("well-formed corpus");
            let concepts = result
                .semantic_tree
                .annotations()
                .map(|(_, s)| s.concept.clone())
                .collect();
            (*name, concepts)
        })
        .collect();

    // 2. The user queries a bare keyword. Resolve it against the network;
    //    for a fair demo, pick the performing-arts reading as a film search
    //    UI would (the first sense in a movie vertical).
    let query = "star";
    let query_concept = sn
        .senses(query)
        .iter()
        .copied()
        .find(|&c| sn.concept(c).key == "star.performer")
        .expect("star has a performer sense");
    println!(
        "query keyword: {query:?} -> concept {}",
        sn.concept(query_concept).key
    );

    // 3. Expand the query concept through the semantic network: its
    //    synonyms plus everything within 2 semantic links (hypernyms,
    //    hyponyms, members — the paper's "semantically related terms").
    let mut expansion: BTreeSet<String> = BTreeSet::new();
    expansion.insert(sn.concept(query_concept).key.clone());
    for (concept, _) in concept_sphere(sn, query_concept, 2) {
        expansion.insert(sn.concept(concept).key.clone());
    }
    println!("\nexpanded to {} concepts, e.g.:", expansion.len());
    for key in expansion.iter().take(8) {
        println!("  {key}");
    }

    // 4. Match: a document is relevant if its concepts intersect the
    //    expansion.
    println!("\nresults:");
    let mut hits = Vec::new();
    for (name, concepts) in &doc_concepts {
        let matched: Vec<&String> = concepts.intersection(&expansion).collect();
        if !matched.is_empty() {
            hits.push(*name);
            println!("  {name}: matched via {matched:?}");
        }
    }
    println!(
        "\nnon-matches: {:?}",
        doc_concepts
            .iter()
            .map(|(n, _)| *n)
            .filter(|n| !hits.contains(n))
            .collect::<Vec<_>>()
    );

    // The syntactic query "star" only occurs in doc-1; semantic expansion
    // also finds the actor/performer documents but not music or food.
    assert!(hits.contains(&"doc-1"), "literal match");
    assert!(hits.contains(&"doc-2"), "actor document found via concepts");
    assert!(
        hits.contains(&"doc-3"),
        "performer document found via concepts"
    );
    assert!(
        !hits.contains(&"doc-5"),
        "the waffle stays out of the results"
    );
}
