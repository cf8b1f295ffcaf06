//! The differential-test harness: a deterministic document sweep over the
//! corpus generators (normal and pathological), each document paired with
//! cycling pipeline parameters so radii 1–3, all three vector measures,
//! and all three disambiguation processes get coverage, plus the failure
//! context needed to reproduce any divergence from its printed message.

use corpus::{pathological, Corpus};
use semnet::SemanticNetwork;
use xmltree::Document;
use xsdf::config::{DisambiguationProcess, VectorSimilarity, XsdfConfig};

/// `true` when `XSDF_CONFORMANCE_QUICK` is set to anything but `0`: the
/// sweep shrinks to one corpus seed for fast CI turnarounds.
pub fn quick() -> bool {
    match std::env::var("XSDF_CONFORMANCE_QUICK") {
        Ok(v) => !v.is_empty() && v != "0",
        Err(_) => false,
    }
}

/// The corpus seeds of the sweep (one in quick mode).
pub fn seeds() -> Vec<u64> {
    if quick() {
        vec![41]
    } else {
        vec![41, 42, 43, 44]
    }
}

/// The semantic network the conformance suites run against: the builtin
/// MiniWordNet by default, or — when `XSDF_CONFORMANCE_NETWORK` names a
/// file — a network loaded from a compiled snapshot or text export. CI
/// uses this to rerun the whole sweep over a snapshot-loaded network,
/// proving the load path score-identical to the in-process rebuild. A
/// bad path or corrupt file panics: a typo'd CI variable must not
/// silently fall back to the builtin network and vacuously pass.
pub fn network() -> &'static SemanticNetwork {
    use std::sync::OnceLock;
    static NETWORK: OnceLock<&'static SemanticNetwork> = OnceLock::new();
    NETWORK.get_or_init(|| match std::env::var("XSDF_CONFORMANCE_NETWORK") {
        Err(_) => semnet::mini_wordnet(),
        Ok(path) if path.is_empty() => semnet::mini_wordnet(),
        Ok(path) => {
            let bytes = std::fs::read(&path)
                .unwrap_or_else(|e| panic!("XSDF_CONFORMANCE_NETWORK={path:?}: {e}"));
            let sn = if semnet::snapshot::sniff(&bytes) {
                semnet::snapshot::decode(&bytes)
                    .unwrap_or_else(|e| panic!("XSDF_CONFORMANCE_NETWORK={path:?}: {e}"))
            } else {
                let text = String::from_utf8(bytes).unwrap_or_else(|e| {
                    panic!("XSDF_CONFORMANCE_NETWORK={path:?}: not UTF-8: {e}")
                });
                semnet::format::from_text(&text)
                    .unwrap_or_else(|e| panic!("XSDF_CONFORMANCE_NETWORK={path:?}: {e}"))
            };
            eprintln!(
                "conformance network: {} concepts loaded from {path}",
                sn.len()
            );
            Box::leak(Box::new(sn))
        }
    })
}

/// One document of the differential sweep with its cycling parameters.
pub struct DocCase {
    /// Where the document came from (seed, dataset, index — or the
    /// pathological generator's name), for failure messages.
    pub origin: String,
    /// The generator seed (0 for pathological documents, which are pure).
    pub seed: u64,
    /// The parsed document.
    pub doc: Document,
    /// Sphere radius for this document (cycles 1, 2, 3).
    pub radius: u32,
    /// Vector measure for this document (cycles the three of footnote 10).
    pub measure: VectorSimilarity,
    /// Disambiguation process for this document (cycles all three).
    pub process: DisambiguationProcess,
}

impl DocCase {
    /// The pipeline configuration this case runs under. The pipeline's
    /// scoring loop always runs the exact early exit and the reference
    /// never prunes, so every differential check is also an exactness
    /// check of the early exit.
    pub fn config(&self) -> XsdfConfig {
        XsdfConfig {
            radius: self.radius,
            vector_similarity: self.measure,
            process: self.process,
            ..XsdfConfig::default()
        }
    }

    /// The reproduction context printed by every failing assertion.
    pub fn context(&self) -> String {
        format!(
            "[{} radius={} measure={:?} process={:?}]",
            self.origin, self.radius, self.measure, self.process
        )
    }
}

fn params_for(i: usize) -> (u32, VectorSimilarity, DisambiguationProcess) {
    const MEASURES: [VectorSimilarity; 3] = [
        VectorSimilarity::Cosine,
        VectorSimilarity::Jaccard,
        VectorSimilarity::Pearson,
    ];
    const PROCESSES: [DisambiguationProcess; 3] = [
        DisambiguationProcess::ConceptBased,
        DisambiguationProcess::ContextBased,
        DisambiguationProcess::Combined {
            concept: 1.0,
            context: 1.0,
        },
    ];
    let radius = 1 + (i % 3) as u32;
    let measure = MEASURES[(i / 3) % 3];
    let process = PROCESSES[(i / 9) % 3];
    (radius, measure, process)
}

/// The full document sweep: every corpus document of every seed, plus the
/// pathological suite, each with deterministic cycling parameters. The
/// seeds in play are printed so a failure can be reproduced by running
/// the same binary again (the sweep is a pure function of the seeds).
pub fn cases(sn: &SemanticNetwork) -> Vec<DocCase> {
    let mut out = Vec::new();
    for seed in seeds() {
        let corpus = Corpus::generate(sn, seed);
        for (idx, ad) in corpus.documents().iter().enumerate() {
            let (radius, measure, process) = params_for(idx);
            out.push(DocCase {
                origin: format!("seed={seed} dataset={:?} doc={idx}", ad.dataset),
                seed,
                doc: ad.doc.clone(),
                radius,
                measure,
                process,
            });
        }
    }
    for (idx, (name, xml)) in pathological::suite().into_iter().enumerate() {
        let doc = xmltree::parse(&xml)
            .unwrap_or_else(|e| panic!("pathological doc {name} must parse: {e:?}"));
        let (radius, measure, process) = params_for(idx);
        out.push(DocCase {
            origin: format!("pathological={name}"),
            seed: 0,
            doc,
            radius,
            measure,
            process,
        });
    }
    eprintln!(
        "conformance sweep: {} documents (seeds {:?}, quick={}) — rerun with \
         XSDF_CONFORMANCE_QUICK={} to reproduce",
        out.len(),
        seeds(),
        quick(),
        u8::from(quick()),
    );
    out
}

/// Every `stride`-th case — the nucleus the expensive full-formula
/// differential runs on (the naive gloss and information-content
/// references re-derive everything per call, so the whole sweep would be
/// needlessly slow at zero extra coverage).
pub fn nucleus(cases: &[DocCase], stride: usize) -> Vec<&DocCase> {
    cases.iter().step_by(stride.max(1)).collect()
}
