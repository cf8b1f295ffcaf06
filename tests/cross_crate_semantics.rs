//! Cross-crate consistency tests: invariants that hold only when the
//! substrates (tree model, semantic network, similarity measures) agree
//! with the core framework's expectations.

use semsim::{extended_gloss_overlap, lin, wu_palmer, CombinedSimilarity};
use xmltree::tree::TreeBuilder;
use xsdf::senses::{disambiguation_candidates, SenseCandidates};
use xsdf::sphere::{concept_context_vector, xml_context_vector, LabelledVector};
use xsdf::LingTokenizer;

#[test]
fn similarity_measures_agree_on_identity_and_bounds() {
    let sn = semnet::mini_wordnet();
    let probe: Vec<_> = sn.all_concepts().step_by(97).collect();
    let sim = CombinedSimilarity::default();
    for &a in &probe {
        assert!((sim.similarity(sn, a, a) - 1.0).abs() < 1e-9);
        for &b in &probe {
            for (name, v) in [
                ("wp", wu_palmer(sn, a, b)),
                ("lin", lin(sn, a, b)),
                ("gloss", extended_gloss_overlap(sn, a, b)),
                ("combined", sim.similarity(sn, a, b)),
            ] {
                assert!(
                    (0.0..=1.0).contains(&v),
                    "{name}({}, {}) = {v}",
                    sn.concept(a).key,
                    sn.concept(b).key
                );
            }
        }
    }
}

#[test]
fn every_lexicon_word_produces_candidates() {
    // The lexicon predicate used by pre-processing and the candidate
    // resolution used by disambiguation must agree: every word the
    // network knows yields at least one candidate for an element node.
    let sn = semnet::mini_wordnet();
    for word in [
        "state",
        "cast",
        "head",
        "first name",
        "kelly",
        "waffle",
        "zone",
    ] {
        assert!(sn.has_word(word), "{word}");
        match disambiguation_candidates(sn, word, xmltree::NodeKind::Element) {
            SenseCandidates::Single(senses) => assert!(!senses.is_empty(), "{word}"),
            other => panic!("{word}: {other:?}"),
        }
    }
}

#[test]
fn xml_and_concept_vectors_share_one_label_space() {
    // Definition 10 compares XML-side and network-side vectors by cosine:
    // they must inhabit the same space of lowercase word labels.
    let sn = semnet::mini_wordnet();
    let doc = xmltree::parse(
        "<films><picture><cast><star>Stewart</star><star>Kelly</star></cast></picture></films>",
    )
    .unwrap();
    let tree = TreeBuilder::with_tokenizer(LingTokenizer::new(sn))
        .build(&doc)
        .unwrap()
        .tree;
    let cast = tree.preorder().find(|&n| tree.label(n) == "cast").unwrap();
    let xml_v = xml_context_vector(sn, &tree, cast, 2);
    let concept_v = concept_context_vector(sn, sn.by_key("cast.actors").unwrap(), 2);
    // Both vectors mention "star" (structural sibling / member concept).
    assert!(xml_v.get("star") > 0.0);
    let concept_labelled = LabelledVector::of_concept_vector(sn, concept_v.clone());
    assert!(concept_labelled.get("star") > 0.0);
    assert!(xml_v.vector().cosine(&concept_v) > 0.0);
}

#[test]
fn corpus_gold_is_always_reachable_by_the_pipeline() {
    // For every gold node of a sampled corpus, the gold key must be among
    // the disambiguation candidates the pipeline would consider.
    let sn = semnet::mini_wordnet();
    let corpus = corpus::Corpus::generate_small(sn, 1234, 1);
    for doc in corpus.documents() {
        for (&node, gold) in &doc.gold {
            let label = doc.tree.label(node);
            let kind = doc.tree.node(node).kind;
            let keys: Vec<String> = match disambiguation_candidates(sn, label, kind) {
                SenseCandidates::Unknown => Vec::new(),
                SenseCandidates::Single(senses) => {
                    senses.iter().map(|&c| sn.concept(c).key.clone()).collect()
                }
                SenseCandidates::Compound { first, second } => first
                    .iter()
                    .flat_map(|&a| {
                        second
                            .iter()
                            .map(move |&b| format!("{}+{}", sn.concept(a).key, sn.concept(b).key))
                    })
                    .collect(),
            };
            assert!(
                keys.contains(&gold.key()),
                "{label}: {:?} not in {keys:?}",
                gold.key()
            );
        }
    }
}

#[test]
fn baselines_and_xsdf_use_identical_trees() {
    // All methods must see the same pre-processed tree: assignments refer
    // to the same NodeIds.
    use baselines::{Disambiguator, Rpd, Vsd, XsdfDisambiguator};
    let sn = semnet::mini_wordnet();
    let doc = xmltree::parse("<films><picture><cast><star>Kelly</star></cast></picture></films>")
        .unwrap();
    let tree = TreeBuilder::with_tokenizer(LingTokenizer::new(sn))
        .build(&doc)
        .unwrap()
        .tree;
    let xsdf = XsdfDisambiguator::new(xsdf::XsdfConfig::default());
    let methods: [&dyn Disambiguator; 3] = [&xsdf, &Rpd::new(), &Vsd::new()];
    for m in methods {
        for &node in m.disambiguate(sn, &tree).keys() {
            assert!(
                node.index() < tree.len(),
                "{} assigned an out-of-tree node",
                m.name()
            );
        }
    }
}

#[test]
fn mini_wordnet_roundtrips_and_still_disambiguates() {
    // Serialize the builtin network to the text format, load it back, and
    // run the flagship example against the loaded copy.
    let sn = semnet::builtin::build_mini_wordnet();
    let text = semnet::format::to_text(&sn);
    let reloaded = semnet::format::from_text(&text).unwrap();
    let result = xsdf::Xsdf::new(&reloaded, xsdf::XsdfConfig::default())
        .disambiguate_str("<films><picture><cast><star>Kelly</star></cast></picture></films>")
        .unwrap();
    assert_eq!(result.assignment_for_label("kelly"), Some("kelly.grace"));
    assert_eq!(result.assignment_for_label("cast"), Some("cast.actors"));
}
