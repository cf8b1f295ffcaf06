//! The end-to-end XSDF pipeline (Figure 3): parse → pre-process → select
//! targets → disambiguate → semantic XML tree.

use semnet::{ConceptId, SemanticNetwork};
use semsim::{CombinedSimilarity, SimilarityCache};
use xmltree::semantic::SenseAnnotation;
use xmltree::tree::{ContentMode, TreeBuilder};
use xmltree::{NodeId, ParseError, SemanticTree, XmlTree};

use crate::ambiguity::{select_targets, NodeAmbiguity};
use crate::concept_based::{ConceptContext, EvidenceMemo};
use crate::config::XsdfConfig;
use crate::context_based::ContextVectorScorer;
use crate::guard::{Guard, GuardError};
use crate::prune::PRUNE_SLACK;
use crate::senses::{LabelTable, LingTokenizer};
use crate::sphere::SphereScratch;

/// The sense (or sense pair, for compound labels) chosen for a target node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SenseChoice {
    /// One concept for a single-token label.
    Single(ConceptId),
    /// One concept per token of an unmatched compound label.
    Pair(ConceptId, ConceptId),
}

impl SenseChoice {
    /// The primary concept (the first of a pair).
    pub fn primary(self) -> ConceptId {
        match self {
            Self::Single(c) | Self::Pair(c, _) => c,
        }
    }
}

/// Per-node outcome of a disambiguation run.
#[derive(Debug, Clone)]
pub struct NodeReport {
    /// The tree node.
    pub node: NodeId,
    /// Its processed label.
    pub label: String,
    /// Its ambiguity degree (Definition 3).
    pub ambiguity: f64,
    /// Whether it was selected as a disambiguation target.
    pub selected: bool,
    /// Number of candidate senses (sense pairs for compounds).
    pub candidates: usize,
    /// The winning sense and its score, when one was assigned.
    pub chosen: Option<(SenseChoice, f64)>,
}

/// The result of running XSDF over one document.
#[derive(Debug, Clone)]
pub struct DisambiguationResult {
    /// The semantically augmented tree (Figure 4.b).
    pub semantic_tree: SemanticTree,
    /// Per-node reports in preorder.
    pub reports: Vec<NodeReport>,
}

impl DisambiguationResult {
    /// Nodes that were selected as targets.
    pub fn targets(&self) -> impl Iterator<Item = &NodeReport> {
        self.reports.iter().filter(|r| r.selected)
    }

    /// Number of targets that received a sense.
    pub fn assigned_count(&self) -> usize {
        self.reports.iter().filter(|r| r.chosen.is_some()).count()
    }

    /// Convenience lookup: the concept key assigned to the first node with
    /// the given label.
    pub fn assignment_for_label(&self, label: &str) -> Option<&str> {
        self.reports
            .iter()
            .find(|r| r.label == label && r.chosen.is_some())
            .and_then(|r| self.semantic_tree.sense(r.node).map(|s| s.concept.as_str()))
    }
}

/// The XML Semantic Disambiguation Framework: a reference semantic network
/// plus a pipeline configuration.
pub struct Xsdf<'sn> {
    sn: &'sn SemanticNetwork,
    config: XsdfConfig,
}

impl<'sn> Xsdf<'sn> {
    /// Creates a framework instance over the given network.
    pub fn new(sn: &'sn SemanticNetwork, config: XsdfConfig) -> Self {
        Self { sn, config }
    }

    /// The active configuration.
    pub fn config(&self) -> &XsdfConfig {
        &self.config
    }

    /// The reference semantic network.
    pub fn network(&self) -> &'sn SemanticNetwork {
        self.sn
    }

    /// Parses an XML string and disambiguates it.
    pub fn disambiguate_str(&self, xml: &str) -> Result<DisambiguationResult, ParseError> {
        let doc = xmltree::parse(xml)?;
        Ok(self.disambiguate_document(&doc))
    }

    /// Builds the pre-processed tree for a parsed document and
    /// disambiguates it.
    pub fn disambiguate_document(&self, doc: &xmltree::Document) -> DisambiguationResult {
        let tree = self.build_tree(doc);
        self.disambiguate_tree(&tree)
    }

    /// Builds the rooted ordered labeled tree with linguistic
    /// pre-processing, honoring the structure-only / structure-and-content
    /// configuration.
    pub fn build_tree(&self, doc: &xmltree::Document) -> XmlTree {
        let mode = if self.config.structure_and_content {
            ContentMode::StructureAndContent
        } else {
            ContentMode::StructureOnly
        };
        let mut build = TreeBuilder::with_tokenizer(LingTokenizer::new(self.sn))
            .content_mode(mode)
            .build(doc)
            // invariant: the parser rejects rootless input, so every
            // `Document` that reaches here has a root element
            .expect("document must have a root element");
        if self.config.resolve_hyperlinks {
            let links = xmltree::links::resolve_links(doc);
            xmltree::links::install_links(&mut build, &links);
        }
        build.tree
    }

    /// Runs selection + disambiguation over an already-built tree.
    pub fn disambiguate_tree(&self, tree: &XmlTree) -> DisambiguationResult {
        self.disambiguate_tree_with(tree, &CombinedSimilarity::new(self.config.similarity))
    }

    /// Disambiguates only the given nodes (the paper's evaluation protocol:
    /// target nodes are pre-selected, then disambiguated). Selection
    /// (ambiguity threshold) still applies within the restricted set;
    /// reports cover only the requested nodes, in preorder.
    pub fn disambiguate_nodes(&self, tree: &XmlTree, nodes: &[NodeId]) -> DisambiguationResult {
        let sim = CombinedSimilarity::new(self.config.similarity);
        self.run(tree, Some(nodes), &sim)
    }

    /// Disambiguates an already-built tree, memoizing pair similarities in
    /// the caller-supplied measure. This is the entry point for concurrent
    /// batch engines: build one shared cache, wrap it per worker in a
    /// [`CombinedSimilarity::with_cache`], and every document benefits from
    /// pairs scored for the others.
    pub fn disambiguate_tree_with<C: SimilarityCache>(
        &self,
        tree: &XmlTree,
        sim: &CombinedSimilarity<C>,
    ) -> DisambiguationResult {
        self.run(tree, None, sim)
    }

    /// Stage 2 of the pipeline (Section 3.3) under a resource [`Guard`]:
    /// computes the ambiguity degree of every node and marks selected
    /// targets per the configured threshold policy. Checks the tree-size
    /// bound and the deadline before computing ambiguity degrees, and the
    /// selected-target bound after, so one mega-fanout or hyper-polysemous
    /// document degrades into a per-document error instead of starving
    /// its worker. Exposed so staged callers (e.g. batch engines timing
    /// each stage) can run selection and disambiguation separately; feed
    /// the result to [`Xsdf::disambiguate_selected_guarded`], and pass
    /// [`Guard::unlimited`] for no bounds.
    pub fn select_guarded(
        &self,
        tree: &XmlTree,
        guard: &Guard,
    ) -> Result<Vec<NodeAmbiguity>, GuardError> {
        guard.check_nodes(tree.len())?;
        guard.check_deadline()?;
        let ambiguities = select_targets(
            self.sn,
            tree,
            self.config.ambiguity_weights,
            self.config.threshold,
        );
        guard.check_targets(ambiguities.iter().filter(|a| a.selected).count())?;
        Ok(ambiguities)
    }

    /// Selection and disambiguation without bounds, optionally restricted
    /// to `restrict`'s nodes.
    fn run<C: SimilarityCache>(
        &self,
        tree: &XmlTree,
        restrict: Option<&[NodeId]>,
        sim: &CombinedSimilarity<C>,
    ) -> DisambiguationResult {
        // invariant: an unlimited guard has no bounds, so no check fails
        const UNLIMITED: &str = "unlimited guard cannot trip";
        let guard = Guard::unlimited();
        let mut ambiguities = self.select_guarded(tree, &guard).expect(UNLIMITED);
        if let Some(nodes) = restrict {
            let wanted: std::collections::HashSet<NodeId> = nodes.iter().copied().collect();
            ambiguities.retain(|na| wanted.contains(&na.node));
        }
        self.disambiguate_selected_guarded(tree, &ambiguities, sim, &guard)
            .expect(UNLIMITED)
    }

    /// Stage 4 of the pipeline under a resource [`Guard`]: scores and
    /// annotates the given (pre-selected) targets, reporting one entry per
    /// element of `ambiguities` in order. The deadline is re-checked per
    /// target and every 32 scored sense pairs, and each candidate
    /// evaluation draws on the sense-pair budget (one unit per
    /// single-sense evaluation, two per compound pair — see
    /// [`Guard`]), so a runaway document returns a partial-result error
    /// instead of stalling its worker. The partial work is discarded —
    /// callers get `Err`, never a half-annotated tree.
    pub fn disambiguate_selected_guarded<C: SimilarityCache>(
        &self,
        tree: &XmlTree,
        ambiguities: &[NodeAmbiguity],
        sim: &CombinedSimilarity<C>,
        guard: &Guard,
    ) -> Result<DisambiguationResult, GuardError> {
        let cfg = &self.config;
        let (w_concept, w_context) = cfg.process.weights();

        // The clone shares the tree's nodes.
        let mut semantic_tree = SemanticTree::new(tree.clone());
        let mut reports = Vec::with_capacity(tree.len());
        // Label-level work is done once per document: each distinct
        // (label, kind) is resolved once, and each context entry's
        // evidence once per candidate (DESIGN.md, "Label table and
        // evidence memo"); one set of sphere buffers serves every target.
        // All of it is dropped with the document.
        let labels = LabelTable::new(self.sn, tree);
        let mut scope = DocumentScope {
            memo: EvidenceMemo::new(labels.len()),
            sphere: SphereScratch::new(&labels),
            labels,
        };

        for na in ambiguities {
            guard.check_deadline()?;
            let node = na.node;
            let candidates = scope.labels.candidates(node);
            let candidate_count = candidates.candidate_count();
            let mut report = NodeReport {
                node,
                label: tree.label(node).to_string(),
                ambiguity: na.degree,
                selected: na.selected,
                candidates: candidate_count,
                chosen: None,
            };
            if na.selected && candidate_count > 0 {
                if let Some((choice, score)) = self.score_candidates(
                    tree,
                    node,
                    &mut scope,
                    sim,
                    (w_concept, w_context),
                    guard,
                )? {
                    // Annotation gate (accepted deviation, see DESIGN.md):
                    // a multi-candidate winner must score *strictly* above
                    // `min_score` — a score exactly at the threshold
                    // abstains — while a monosemous label annotates
                    // unconditionally, evidence or not, because its sense
                    // is certain a priori.
                    if score > cfg.min_score || candidate_count == 1 {
                        self.annotate(&mut semantic_tree, node, choice, score);
                        report.chosen = Some((choice, score));
                    }
                }
            }
            reports.push(report);
        }
        Ok(DisambiguationResult {
            semantic_tree,
            reports,
        })
    }

    /// Scores every candidate sense of a target and returns the best: one
    /// loop over [`crate::SenseCandidates::choices`], combining Definition 8
    /// (Equation 10 for pairs) and Definition 10 by Equation 13. Both
    /// processes read one walk of the target's sphere under the
    /// configured distance policy.
    ///
    /// Budget: each candidate draws its cost from the guard's sense-pair
    /// budget before it is scored — one unit per sense, two per compound
    /// pair (it evaluates both token senses against the context).
    ///
    /// Tie-breaking is part of the determinism contract: the loop keeps
    /// the *first* maximum — a challenger must score strictly higher —
    /// for single senses, compound pairs and the one-sided compound
    /// fallback alike, mirrored by the conformance reference.
    ///
    /// The exact early exit ([`crate::prune`]) leans on that contract: a
    /// candidate whose running upper bound cannot strictly beat the
    /// leader is abandoned mid-scan and counted by
    /// [`Guard::note_pruned`]. Survivors reuse the bit-exact arithmetic
    /// of unbounded scoring, so the winner and its score never change.
    fn score_candidates<C: SimilarityCache>(
        &self,
        tree: &XmlTree,
        node: NodeId,
        scope: &mut DocumentScope,
        sim: &CombinedSimilarity<C>,
        (w_concept, w_context): (f64, f64),
        guard: &Guard,
    ) -> Result<Option<(SenseChoice, f64)>, GuardError> {
        let radius = self.config.radius;
        let labels = &scope.labels;
        scope
            .sphere
            .assemble(labels, tree, node, radius, self.config.distance);
        // Build each scorer lazily: pure processes need only one of them.
        // The concept context's suffix weight sums feed each candidate's
        // running concept-score bound.
        let concept = (w_concept > 0.0).then(|| {
            let ctx = ConceptContext::build_in(labels, &scope.memo, &scope.sphere);
            let suffix = ctx.suffix_weight_sums();
            (ctx, suffix)
        });
        let context_scorer = (w_context > 0.0).then(|| {
            ContextVectorScorer::new(scope.sphere.vector(labels.keys()), radius)
                .with_measure(self.config.vector_similarity)
        });

        let mut best: Option<(SenseChoice, f64)> = None;
        for (choice, cost) in labels.candidates(node).choices() {
            guard.tick_sense_pairs(cost)?;
            // The context score is one whole-vector comparison, so it is
            // computed first; the concept score then runs entry by entry
            // under the bound.
            let x = context_scorer.as_ref().map_or(0.0, |cs| match choice {
                SenseChoice::Single(s) => cs.score_single_cached(self.sn, s, sim.cache()),
                SenseChoice::Pair(a, b) => cs.score_pair(self.sn, a, b),
            });
            let leader = best.map(|(_, b)| b);
            let mut abandon =
                |ub: f64| leader.is_some_and(|l| w_concept * ub + w_context * x + PRUNE_SLACK <= l);
            let c = match &concept {
                Some((ctx, suffix)) => {
                    ctx.score(self.sn, sim, choice, Some((suffix, &mut abandon)))
                }
                None => Some(0.0),
            };
            match c {
                Some(c) => {
                    let score = w_concept * c + w_context * x;
                    if leader.is_none_or(|l| score > l) {
                        best = Some((choice, score));
                    }
                }
                None => guard.note_pruned(1),
            }
        }
        Ok(best)
    }

    fn annotate(
        &self,
        semantic_tree: &mut SemanticTree,
        node: NodeId,
        choice: SenseChoice,
        score: f64,
    ) {
        let concept = match choice {
            SenseChoice::Single(c) => self.sn.concept(c).key.clone(),
            SenseChoice::Pair(a, b) => {
                format!("{}+{}", self.sn.concept(a).key, self.sn.concept(b).key)
            }
        };
        semantic_tree.annotate(node, SenseAnnotation { concept, score });
    }
}

/// The label-level state one `disambiguate_selected_guarded` call shares
/// across its targets.
struct DocumentScope<'t> {
    labels: LabelTable<'t>,
    memo: EvidenceMemo,
    sphere: SphereScratch,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DisambiguationProcess, ThresholdPolicy};
    use crate::senses::disambiguation_candidates;
    use semnet::mini_wordnet;

    const FIGURE1_DOC1: &str = r#"<films>
        <picture title="Rear Window">
            <director>Hitchcock</director>
            <year>1954</year>
            <genre>mystery</genre>
            <cast><star>Stewart</star><star>Kelly</star></cast>
            <plot>A wheelchair bound photographer spies on his neighbors</plot>
        </picture>
    </films>"#;

    const FIGURE1_DOC2: &str = r#"<movies>
        <movie year="1954">
            <name>Rear Window</name>
            <directed_by>Alfred Hitchcock</directed_by>
            <actors>
                <actor><firstname>Grace</firstname><lastname>Kelly</lastname></actor>
                <actor><firstname>James</firstname><lastname>Stewart</lastname></actor>
            </actors>
        </movie>
    </movies>"#;

    fn run(xml: &str, config: XsdfConfig) -> DisambiguationResult {
        Xsdf::new(mini_wordnet(), config)
            .disambiguate_str(xml)
            .unwrap()
    }

    #[test]
    fn figure1_doc1_kelly_is_grace() {
        let result = run(FIGURE1_DOC1, XsdfConfig::default());
        assert_eq!(result.assignment_for_label("kelly"), Some("kelly.grace"));
    }

    #[test]
    fn figure1_doc1_cast_is_actors() {
        let result = run(FIGURE1_DOC1, XsdfConfig::default());
        assert_eq!(result.assignment_for_label("cast"), Some("cast.actors"));
    }

    #[test]
    fn figure1_doc1_star_is_performer() {
        let result = run(FIGURE1_DOC1, XsdfConfig::default());
        assert_eq!(result.assignment_for_label("star"), Some("star.performer"));
    }

    #[test]
    fn figure1_doc2_with_different_tagging_agrees() {
        // Figure 1's point: different structure/tagging, same entities.
        let result = run(FIGURE1_DOC2, XsdfConfig::default());
        assert_eq!(result.assignment_for_label("kelly"), Some("kelly.grace"));
        assert_eq!(
            result.assignment_for_label("stewart"),
            Some("stewart.james")
        );
        // movie resolves to the film sense.
        assert_eq!(result.assignment_for_label("movie"), Some("film.movie"));
    }

    #[test]
    fn context_based_process_runs() {
        let cfg = XsdfConfig {
            process: DisambiguationProcess::ContextBased,
            ..XsdfConfig::default()
        };
        let result = run(FIGURE1_DOC1, cfg);
        assert!(result.assigned_count() > 0);
    }

    #[test]
    fn combined_process_runs() {
        let cfg = XsdfConfig {
            process: DisambiguationProcess::Combined {
                concept: 0.5,
                context: 0.5,
            },
            ..XsdfConfig::default()
        };
        let result = run(FIGURE1_DOC1, cfg);
        assert_eq!(result.assignment_for_label("cast"), Some("cast.actors"));
    }

    #[test]
    fn threshold_one_selects_nothing() {
        let cfg = XsdfConfig {
            threshold: ThresholdPolicy::Fixed(1.1),
            ..XsdfConfig::default()
        };
        let result = run(FIGURE1_DOC1, cfg);
        assert_eq!(result.assigned_count(), 0);
        assert!(result.targets().count() == 0);
    }

    #[test]
    fn structure_only_has_no_value_nodes() {
        let cfg = XsdfConfig {
            structure_and_content: false,
            ..XsdfConfig::default()
        };
        let result = run(FIGURE1_DOC1, cfg);
        assert!(result.reports.iter().all(|r| r.label != "kelly"));
        // but tag names still disambiguated
        assert_eq!(result.assignment_for_label("cast"), Some("cast.actors"));
    }

    #[test]
    fn reports_cover_every_node_in_preorder() {
        let result = run(FIGURE1_DOC1, XsdfConfig::default());
        let n = result.semantic_tree.tree().len();
        assert_eq!(result.reports.len(), n);
        for (i, r) in result.reports.iter().enumerate() {
            assert_eq!(r.node.index(), i);
        }
    }

    #[test]
    fn scores_are_recorded_and_bounded() {
        let result = run(FIGURE1_DOC1, XsdfConfig::default());
        for r in &result.reports {
            if let Some((_, score)) = &r.chosen {
                assert!((0.0..=1.0).contains(score), "{}: {score}", r.label);
            }
        }
    }

    #[test]
    fn semantic_tree_annotations_match_reports() {
        let result = run(FIGURE1_DOC1, XsdfConfig::default());
        let annotated: Vec<_> = result.semantic_tree.annotations().map(|(n, _)| n).collect();
        let chosen: Vec<_> = result
            .reports
            .iter()
            .filter(|r| r.chosen.is_some())
            .map(|r| r.node)
            .collect();
        assert_eq!(annotated, chosen);
    }

    #[test]
    fn compound_label_gets_pair_or_single() {
        let result = run(
            "<films><star_picture/><cast/><actor/></films>",
            XsdfConfig::default(),
        );
        let report = result
            .reports
            .iter()
            .find(|r| r.label == "star picture")
            .unwrap();
        assert!(report.chosen.is_some());
        let concept = result.semantic_tree.sense(report.node).unwrap();
        assert!(
            concept.concept.contains('+'),
            "expected pair key, got {}",
            concept.concept
        );
    }

    #[test]
    fn min_score_gate_abstains_on_weak_evidence() {
        let cfg = XsdfConfig {
            min_score: 0.99,
            ..XsdfConfig::default()
        };
        let result = run(FIGURE1_DOC1, cfg);
        // With an absurd score floor, polysemous targets abstain; only
        // monosemous targets (candidate_count == 1) pass the gate.
        for r in &result.reports {
            if let Some((_, _)) = &r.chosen {
                assert_eq!(r.candidates, 1, "{} should have abstained", r.label);
            }
        }
    }

    #[test]
    fn radius_zero_yields_no_context_but_does_not_panic() {
        let cfg = XsdfConfig {
            radius: 0,
            ..XsdfConfig::default()
        };
        let result = run(FIGURE1_DOC1, cfg);
        // Concept scores are all zero (empty sphere): every selected node
        // with multiple senses keeps its first-scored candidate at 0.0 or
        // abstains; the run itself must succeed.
        assert_eq!(result.reports.len(), result.semantic_tree.tree().len());
    }

    #[test]
    fn hyperlinks_extend_the_context_graph() {
        // A book references its author by IDREF: with hyperlink resolution
        // the author's neighborhood reaches the book's, helping both sides.
        let xml = r##"<library>
            <performers><performer id="p1"><name>Kelly</name></performer></performers>
            <films><picture ref="p1"><cast><star>Stewart</star></cast></picture></films>
        </library>"##;
        let sn = mini_wordnet();
        let with_links = Xsdf::new(sn, XsdfConfig::default())
            .disambiguate_str(xml)
            .unwrap();
        assert!(with_links.semantic_tree.tree().link_count() > 0);
        // "Kelly" sits under performers; through the link its sphere also
        // sees picture/cast/star, and it resolves to the actress.
        assert_eq!(
            with_links.assignment_for_label("kelly"),
            Some("kelly.grace")
        );
        let without = Xsdf::new(
            sn,
            XsdfConfig {
                resolve_hyperlinks: false,
                ..XsdfConfig::default()
            },
        )
        .disambiguate_str(xml)
        .unwrap();
        assert_eq!(without.semantic_tree.tree().link_count(), 0);
    }

    #[test]
    fn compound_fallback_tie_keeps_first_sense() {
        // Regression for the tie-break contract divergence: the compound
        // one-token-unknown fallback was built on keep-last (`max_by`)
        // semantics while every other path kept the first maximum. Two
        // hand-built twin concepts — identical lemmas, glosses, frequency,
        // and taxonomy — force an exact positive tie; the keep-first
        // contract must pick the earlier sense (the pre-fix fallback
        // picked the later one).
        use semnet::{NetworkBuilder, PartOfSpeech};
        let mut b = NetworkBuilder::new();
        b.concept(
            "anchor.n",
            &["anchor"],
            "the shared anchor concept of the twins",
            10,
            PartOfSpeech::Noun,
        );
        b.noun(
            "twin.a",
            &["twin"],
            "one of two identical concepts",
            5,
            "anchor.n",
        );
        b.noun(
            "twin.b",
            &["twin"],
            "one of two identical concepts",
            5,
            "anchor.n",
        );
        let sn = b.build().unwrap();
        let senses = sn.senses("twin");
        assert_eq!(senses.len(), 2);
        // "blank" is unknown to this lexicon, so the compound label
        // "blank twin" takes the one-sided fallback over "twin"'s senses.
        let result = Xsdf::new(&sn, XsdfConfig::default())
            .disambiguate_str("<anchor><blank_twin/></anchor>")
            .unwrap();
        let report = result
            .reports
            .iter()
            .find(|r| r.label == "blank twin")
            .expect("compound label report");
        let (choice, score) = report.chosen.expect("tied positive score must annotate");
        assert!(score > 0.0, "twins must gather real evidence: {score}");
        let first_key = &sn.concept(senses[0]).key;
        match choice {
            SenseChoice::Single(c) => assert_eq!(&sn.concept(c).key, first_key),
            SenseChoice::Pair(..) => panic!("one-sided fallback must yield a single sense"),
        }
    }

    #[test]
    fn sense_pair_budget_counts_single_evaluations() {
        // Regression for the budget unit mismatch: a compound candidate
        // pair evaluates both token senses against the context
        // (Equation 10), so it must draw two budget units where a
        // single-sense candidate draws one. Pre-fix, the pair loop ticked
        // once per pair, making --max-sense-pairs mean different work
        // depending on label shape.
        let sn = mini_wordnet();
        let xsdf = Xsdf::new(sn, XsdfConfig::default());
        let doc = xmltree::parse("<films><star_picture/><cast/><actor/></films>").unwrap();
        let tree = xsdf.build_tree(&doc);
        let sim = CombinedSimilarity::default();

        for (label, units_per_candidate) in [("star picture", 2), ("cast", 1)] {
            let mut ambiguities = xsdf.select_guarded(&tree, &Guard::unlimited()).unwrap();
            ambiguities.retain(|na| tree.label(na.node) == label);
            assert_eq!(ambiguities.len(), 1, "{label}");
            let candidates =
                disambiguation_candidates(sn, label, tree.node(ambiguities[0].node).kind);
            let units = units_per_candidate * candidates.candidate_count() as u64;

            let exact = Guard::unlimited().with_max_sense_pairs(units);
            xsdf.disambiguate_selected_guarded(&tree, &ambiguities, &sim, &exact)
                .unwrap_or_else(|e| panic!("{label}: budget {units} must suffice: {e}"));
            assert_eq!(exact.pairs_scored(), units, "{label}");

            let short = Guard::unlimited().with_max_sense_pairs(units - 1);
            let err = xsdf
                .disambiguate_selected_guarded(&tree, &ambiguities, &sim, &short)
                .expect_err("one unit short must trip the budget");
            match err {
                GuardError::LimitExceeded { which, .. } => {
                    assert_eq!(which, crate::guard::LimitKind::SensePairs, "{label}")
                }
                other => panic!("{label}: unexpected error {other}"),
            }
        }
    }

    #[test]
    fn gate_boundary_score_at_threshold_abstains_monosemous_passes() {
        // Boundary pins for the annotation gate: at radius 0 every sphere
        // is empty and every concept score is exactly 0.0 == min_score, so
        // polysemous targets sit precisely on the threshold — they must
        // abstain (strict >) — while monosemous targets annotate even with
        // zero evidence (their sense is certain a priori).
        let cfg = XsdfConfig {
            radius: 0,
            ..XsdfConfig::default()
        };
        let result = run(FIGURE1_DOC1, cfg);
        let mut saw_polysemous = false;
        let mut saw_monosemous = false;
        for r in result.reports.iter().filter(|r| r.selected) {
            if r.candidates > 1 {
                saw_polysemous = true;
                assert!(
                    r.chosen.is_none(),
                    "{} scored exactly min_score and must abstain",
                    r.label
                );
            } else if r.candidates == 1 {
                saw_monosemous = true;
                let (_, score) = r.chosen.expect("monosemous targets bypass the gate");
                assert_eq!(score, 0.0, "{}", r.label);
            }
        }
        assert!(
            saw_polysemous && saw_monosemous,
            "{saw_polysemous} {saw_monosemous}"
        );
    }

    /// The winner of exhaustive scoring: every candidate scored to its
    /// last context entry with no bound, first maximum kept, then the
    /// annotation gate.
    fn exhaustive_choice(xsdf: &Xsdf, tree: &XmlTree, node: NodeId) -> Option<(SenseChoice, f64)> {
        let (sn, cfg) = (xsdf.network(), xsdf.config());
        let (w_concept, w_context) = cfg.process.weights();
        let sim = CombinedSimilarity::new(cfg.similarity);
        let ctx = ConceptContext::build(sn, tree, node, cfg.radius);
        let scorer = ContextVectorScorer::build(sn, tree, node, cfg.radius)
            .with_measure(cfg.vector_similarity);
        let candidates = disambiguation_candidates(sn, tree.label(node), tree.node(node).kind);
        let mut best: Option<(SenseChoice, f64)> = None;
        for (choice, _) in candidates.choices() {
            let c = if w_concept > 0.0 {
                ctx.score(sn, &sim, choice, None).unwrap()
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

    #[test]
    fn exact_pruning_is_bit_identical_across_processes_and_radii() {
        let compound_doc = "<films><star_picture/><cast/><actor/></films>";
        let bits = |c: Option<(SenseChoice, f64)>| c.map(|(s, f)| (s, f.to_bits()));
        for process in [
            DisambiguationProcess::ConceptBased,
            DisambiguationProcess::ContextBased,
            DisambiguationProcess::Combined {
                concept: 0.6,
                context: 0.4,
            },
        ] {
            for radius in [1, 2, 3] {
                let cfg = XsdfConfig {
                    radius,
                    process,
                    ..XsdfConfig::default()
                };
                let xsdf = Xsdf::new(mini_wordnet(), cfg);
                for xml in [FIGURE1_DOC1, FIGURE1_DOC2, compound_doc] {
                    let tree = xsdf.build_tree(&xmltree::parse(xml).unwrap());
                    let result = xsdf.disambiguate_tree(&tree);
                    for r in result.targets().filter(|r| r.candidates > 0) {
                        let want = exhaustive_choice(&xsdf, &tree, r.node);
                        let ctx = format!("{process:?} radius {radius}: {}", r.label);
                        assert_eq!(bits(r.chosen), bits(want), "{ctx}");
                    }
                }
            }
        }
    }

    #[test]
    fn exact_pruning_actually_prunes_polysemous_targets() {
        let xsdf = Xsdf::new(mini_wordnet(), XsdfConfig::default());
        let doc = xmltree::parse(FIGURE1_DOC1).unwrap();
        let tree = xsdf.build_tree(&doc);
        let ambiguities = xsdf.select_guarded(&tree, &Guard::unlimited()).unwrap();
        let sim = CombinedSimilarity::default();
        let guard = Guard::unlimited();
        xsdf.disambiguate_selected_guarded(&tree, &ambiguities, &sim, &guard)
            .unwrap();
        assert!(
            guard.candidates_pruned() > 0,
            "the polysemous Figure 1 document must see abandoned candidates"
        );
    }

    #[test]
    fn context_process_honours_the_distance_policy() {
        // Both processes score a target against one sphere: under a
        // weighted policy the context score compares the weighted
        // V_d(x), not the edge-count one.
        use crate::config::VectorSimilarity;
        use crate::sphere::{
            compound_concept_context_vector, concept_context_vector, xml_context_vector_weighted,
        };
        use xmltree::distance::DistancePolicy;

        let policy = DistancePolicy::Directional { up: 0.3, down: 1.0 };
        let cfg = XsdfConfig {
            process: DisambiguationProcess::ContextBased,
            distance: policy,
            ..XsdfConfig::default()
        };
        let xsdf = Xsdf::new(mini_wordnet(), cfg.clone());
        let sn = xsdf.network();
        let tree = xsdf.build_tree(&xmltree::parse(FIGURE1_DOC1).unwrap());
        let result = xsdf.disambiguate_tree(&tree);
        let bits = |c: Option<(SenseChoice, f64)>| c.map(|(s, f)| (s, f.to_bits()));
        let best_under = |node: NodeId, policy: DistancePolicy| {
            let xml = xml_context_vector_weighted(sn, &tree, node, cfg.radius, policy);
            let candidates = disambiguation_candidates(sn, tree.label(node), tree.node(node).kind);
            let mut best: Option<(SenseChoice, f64)> = None;
            for (choice, _) in candidates.choices() {
                let v = match choice {
                    SenseChoice::Single(s) => concept_context_vector(sn, s, cfg.radius),
                    SenseChoice::Pair(a, b) => {
                        compound_concept_context_vector(sn, a, b, cfg.radius)
                    }
                };
                let score = VectorSimilarity::Cosine.apply(xml.vector(), &v);
                if best.is_none_or(|(_, b)| score > b) {
                    best = Some((choice, score));
                }
            }
            best.filter(|&(_, score)| score > cfg.min_score || candidates.candidate_count() == 1)
        };
        let mut moved = 0;
        for r in result.targets().filter(|r| r.candidates > 0) {
            let weighted = best_under(r.node, policy);
            assert_eq!(bits(r.chosen), bits(weighted), "{}", r.label);
            moved +=
                usize::from(bits(weighted) != bits(best_under(r.node, DistancePolicy::EdgeCount)));
        }
        assert!(moved > 0, "the policy must move some context score");
    }

    #[test]
    fn semantic_tree_shares_the_input_tree() {
        let xsdf = Xsdf::new(mini_wordnet(), XsdfConfig::default());
        let tree = xsdf.build_tree(&xmltree::parse(FIGURE1_DOC1).unwrap());
        let guard = Guard::unlimited();
        let selected = xsdf.select_guarded(&tree, &guard).unwrap();
        let result = xsdf
            .disambiguate_selected_guarded(&tree, &selected, &CombinedSimilarity::default(), &guard)
            .unwrap();
        let root = tree.root();
        assert!(std::ptr::eq(
            result.semantic_tree.tree().node(root),
            tree.node(root)
        ));
    }

    #[test]
    fn annotated_xml_output_is_produced() {
        let result = run(FIGURE1_DOC1, XsdfConfig::default());
        let xml = result.semantic_tree.to_annotated_xml();
        assert!(xml.contains("concept=\"cast.actors\""));
        assert!(xml.contains("concept=\"kelly.grace\""));
    }
}
