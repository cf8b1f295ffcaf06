//! Exact early-exit conformance: the scoring loop abandons candidates
//! whose running upper bound cannot beat the leader, and that must never
//! change a result. The differential suite (`tests/differential.rs`)
//! checks sampled choices against the never-pruning reference within its
//! float tolerance; this file checks every target of the sweep bit for
//! bit against exhaustive scoring, pins the one input where the early
//! exit abandons a whole candidate list, and checks that pruned batches
//! stay bit-identical at every thread count.

use std::collections::HashMap;

use conformance::harness::network;
use conformance::reference::scoring as ref_score;
use conformance::reference::similarity as ref_sim;
use semnet::ConceptId;
use semsim::CombinedSimilarity;
use xmltree::serialize::to_string_compact;
use xmltree::{NodeId, XmlTree};
use xsdf::concept_based::ConceptContext;
use xsdf::context_based::ContextVectorScorer;
use xsdf::senses::disambiguation_candidates;
use xsdf::{DisambiguationResult, Guard, SenseChoice, ThresholdPolicy, Xsdf, XsdfConfig};

use conformance::harness::{cases, nucleus};

/// Bitwise equality of two disambiguation results (same contract as the
/// metamorphic suite): node order, labels, ambiguity bits, selection,
/// candidate counts, and chosen (sense, score-bits) pairs.
fn assert_results_identical(a: &DisambiguationResult, b: &DisambiguationResult, ctx: &str) {
    assert_eq!(a.reports.len(), b.reports.len(), "{ctx}: report count");
    for (ra, rb) in a.reports.iter().zip(&b.reports) {
        assert_eq!(ra.node, rb.node, "{ctx}: node order");
        assert_eq!(ra.label, rb.label, "{ctx}: label of {:?}", ra.node);
        assert_eq!(
            ra.ambiguity.to_bits(),
            rb.ambiguity.to_bits(),
            "{ctx}: ambiguity of {:?}",
            ra.node
        );
        assert_eq!(
            ra.selected, rb.selected,
            "{ctx}: selection of {:?}",
            ra.node
        );
        assert_eq!(
            ra.candidates, rb.candidates,
            "{ctx}: candidate count of {:?}",
            ra.node
        );
        let key = |c: &Option<(SenseChoice, f64)>| c.map(|(s, f)| (s, f.to_bits()));
        assert_eq!(
            key(&ra.chosen),
            key(&rb.chosen),
            "{ctx}: chosen sense of {:?}",
            ra.node
        );
    }
}

/// Exhaustive scoring of one target: every candidate scored to its last
/// context entry with no bound, the first maximum kept, then the
/// annotation gate.
fn exhaustive_choice(xsdf: &Xsdf, tree: &XmlTree, target: NodeId) -> Option<(SenseChoice, f64)> {
    let (sn, cfg) = (xsdf.network(), xsdf.config());
    let (w_concept, w_context) = cfg.process.weights();
    let sim = CombinedSimilarity::new(cfg.similarity);
    let ctx = ConceptContext::build(sn, tree, target, cfg.radius);
    let scorer = ContextVectorScorer::build(sn, tree, target, cfg.radius)
        .with_measure(cfg.vector_similarity);
    let candidates = disambiguation_candidates(sn, tree.label(target), tree.node(target).kind);
    let mut best: Option<(SenseChoice, f64)> = None;
    for (choice, _) in candidates.choices() {
        let c = if w_concept > 0.0 {
            ctx.score(sn, &sim, choice, None).expect("unbounded")
        } else {
            0.0
        };
        let x = match (w_context > 0.0, choice) {
            (false, _) => 0.0,
            (true, SenseChoice::Single(s)) => scorer.score_single(sn, s),
            (true, SenseChoice::Pair(a, b)) => scorer.score_pair(sn, a, b),
        };
        let score = w_concept * c + w_context * x;
        if best.is_none_or(|(_, b)| score > b) {
            best = Some((choice, score));
        }
    }
    best.filter(|&(_, score)| score > cfg.min_score || candidates.candidate_count() == 1)
}

/// Every selected target of the sweep chooses the sense, and the score
/// bits, of exhaustive scoring: the early exit only ever abandons
/// candidates that could not have won.
#[test]
fn exact_pruning_is_bitwise_identical_across_the_sweep() {
    let sn = network();
    let all = cases(sn);
    let key = |c: Option<(SenseChoice, f64)>| c.map(|(s, f)| (s, f.to_bits()));
    let mut pruned = 0;
    for case in nucleus(&all, 3) {
        let xsdf = Xsdf::new(sn, case.config());
        let tree = xsdf.build_tree(&case.doc);
        let sim = CombinedSimilarity::new(case.config().similarity);
        let guard = Guard::unlimited();
        let result = xsdf
            .disambiguate_selected_guarded(
                &tree,
                &xsdf.select_guarded(&tree, &guard).unwrap(),
                &sim,
                &guard,
            )
            .expect("an unlimited guard cannot trip");
        pruned += guard.candidates_pruned();
        for r in result.targets().filter(|r| r.candidates > 0) {
            let want = exhaustive_choice(&xsdf, &tree, r.node);
            let ctx = format!("{} at {:?}", case.context(), r.label);
            assert_eq!(key(r.chosen), key(want), "{ctx}");
        }
    }
    assert!(pruned > 0, "the sweep must exercise the early exit");
}

/// The 48-sense target of `corpus::pathological::hyper_polysemous_network`,
/// where the early exit abandons every decoy: the winner is the one
/// exhaustive scoring chose before the early exit became unconditional
/// (its key and score bits were captured then and are pinned here), it
/// agrees with the reference, and all 47 decoys were abandoned.
#[test]
fn hyper_polysemous_winner_survives_the_early_exit() {
    let (sn, doc) = corpus::pathological::hyper_polysemous_network();
    let cfg = XsdfConfig {
        threshold: ThresholdPolicy::Fixed(0.2),
        ..XsdfConfig::default()
    };
    let report = runtime::BatchEngine::new(&sn, cfg.clone())
        .threads(1)
        .run(&[doc]);
    let result = report.results[0].as_ref().expect("document parses");
    let target = result
        .targets()
        .find(|r| r.label == "blob")
        .expect("the 48-sense word is the target");
    assert_eq!(target.candidates, 48);
    let (choice, score) = target.chosen.expect("the hub reading wins");
    assert_eq!(choice, SenseChoice::Single(sn.by_key("hub.n").unwrap()));
    assert_eq!(score.to_bits(), 0x3fbe_573a_c901_e574, "score {score}");
    assert_eq!(report.metrics.candidates_pruned, 47);

    let xsdf = Xsdf::new(&sn, cfg.clone());
    let tree = xsdf.build_tree(&xmltree::parse(doc).unwrap());
    let mut memo: HashMap<(ConceptId, ConceptId), f64> = HashMap::new();
    let mut sim = |a, b| {
        *memo
            .entry((a, b))
            .or_insert_with(|| ref_sim::combined_similarity(&sn, cfg.similarity, a, b))
    };
    let (want, _) = ref_score::score_target(&sn, &tree, target.node, &cfg, &mut sim)
        .expect("the reference annotates the target");
    assert_eq!(choice, want);
}

/// Pruned batches at 1, 2 and 8 threads are bit-identical to serial
/// `disambiguate_tree` runs, and the early exit demonstrably fires
/// (`candidates_pruned > 0`) over the sweep.
#[test]
fn exact_pruned_batches_are_bitwise_identical_at_1_2_8_threads() {
    let sn = network();
    let all = cases(sn);
    let subset = nucleus(&all, 5);
    // One config for the whole batch (batch runs share a pipeline).
    let base = subset[0].config();
    let serial = Xsdf::new(sn, base.clone());
    let sources: Vec<String> = subset.iter().map(|c| to_string_compact(&c.doc)).collect();
    let docs: Vec<&str> = sources.iter().map(String::as_str).collect();
    let reference: Vec<DisambiguationResult> = subset
        .iter()
        .map(|c| serial.disambiguate_tree(&serial.build_tree(&c.doc)))
        .collect();
    for threads in [1usize, 2, 8] {
        let report = runtime::BatchEngine::new(sn, base.clone())
            .threads(threads)
            .run(&docs);
        assert!(
            report.metrics.candidates_pruned > 0,
            "threads {threads}: the sweep must exercise the early exit for this check to bite"
        );
        for ((case, result), want) in subset.iter().zip(&report.results).zip(&reference) {
            let got = result.as_ref().expect("conformance case parses");
            assert_results_identical(
                want,
                got,
                &format!("{} pruned threads {threads}", case.context()),
            );
        }
    }
}
