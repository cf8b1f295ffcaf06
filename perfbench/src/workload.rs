//! The three named workloads and the inputs they run on.
//!
//! Every workload draws its documents from the seeded Table 3 stream
//! (`corpus::stream::document_at`: round-robin over all ten datasets),
//! serialized compact, so the program under test only ever sees XML
//! strings. The expected output of every document is the serial,
//! cacheless `Xsdf::disambiguate_str` + `to_annotated_xml` over the
//! built-in MiniWordNet, computed before any timing starts.

use runtime::CacheBudget;
use xsdf::{DisambiguationProcess, Xsdf, XsdfConfig};

/// Worker threads (batch) or keep-alive connections and server workers
/// (serve): `nproc` of the 2-vCPU machine the bounds were set on.
pub const THREADS: usize = 2;

/// The serve workload draws from its own stream, so its documents are
/// distinct from the batch workloads' for every seed.
const SERVE_SEED_OFFSET: u64 = 0x5E12E;

/// The soak's cache byte budget: small enough that the pair table evicts
/// continuously under a stream of distinct documents.
const SERVE_CACHE_BYTES: usize = 1 << 20;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One cold `BatchEngine` per batch, [`THREADS`] workers.
    Batch,
    /// An in-process `server::Server` driven over loopback by a closed
    /// loop of [`THREADS`] keep-alive connections.
    Serve,
}

#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    pub config: XsdfConfig,
    pub budget: CacheBudget,
    /// Distinct documents: one batch (batch) or the pool the closed loop
    /// cycles through (serve). The stated input size of `docs_per_s`.
    pub docs: usize,
    seed_offset: u64,
}

pub const NAMES: [&str; 3] = ["batch-concept", "batch-context", "serve-evict"];

impl Workload {
    pub fn by_name(name: &str) -> Option<Self> {
        let w = match name {
            // `xsdf batch` with the default configuration: the pair-cache
            // read path is the hot layer (~3.5k lookups per document).
            "batch-concept" => Workload {
                name: "batch-concept",
                kind: Kind::Batch,
                config: XsdfConfig::default(),
                budget: CacheBudget::unbounded(),
                docs: 2000,
                seed_offset: 0,
            },
            // Same stream, context-based process: no pair lookups at all,
            // so a pair-cache change must not move it; parse, tree build
            // and selection carry their largest shares here.
            "batch-context" => Workload {
                name: "batch-context",
                kind: Kind::Batch,
                config: XsdfConfig {
                    process: DisambiguationProcess::ContextBased,
                    ..XsdfConfig::default()
                },
                budget: CacheBudget::unbounded(),
                docs: 2000,
                seed_offset: 0,
            },
            // The only workload where the cache writes and evicts, where
            // the similarity kernels re-run after evictions, and where
            // HTTP and admission sit on the path.
            "serve-evict" => Workload {
                name: "serve-evict",
                kind: Kind::Serve,
                config: XsdfConfig::default(),
                budget: CacheBudget {
                    max_entries: 0,
                    max_bytes: SERVE_CACHE_BYTES,
                },
                docs: 2000,
                seed_offset: SERVE_SEED_OFFSET,
            },
            _ => return None,
        };
        Some(w)
    }
}

/// Generated documents plus their expected annotated XML.
pub struct Inputs {
    pub docs: Vec<String>,
    pub expected: Vec<String>,
}

impl Inputs {
    pub fn bytes(&self) -> usize {
        self.docs.iter().map(String::len).sum()
    }

    /// Borrowed views for `BatchEngine::run`.
    pub fn doc_refs(&self) -> Vec<&str> {
        self.docs.iter().map(String::as_str).collect()
    }

    /// How many of `outputs` differ from the expected annotated XML
    /// (`None` is a failed document).
    pub fn mismatches(&self, outputs: &[Option<String>]) -> usize {
        outputs
            .iter()
            .zip(&self.expected)
            .filter(|(got, want)| got.as_deref() != Some(want.as_str()))
            .count()
    }
}

/// Generates the workload's documents for `seed` and their expected
/// outputs, the latter on [`THREADS`] threads (each document is still
/// processed serially and without any shared cache).
pub fn prepare(w: &Workload, seed: u64) -> Result<Inputs, String> {
    let sn = semnet::mini_wordnet();
    let stream_seed = seed.wrapping_add(w.seed_offset);
    let docs: Vec<String> = (0..w.docs as u64)
        .map(|pos| {
            let doc = corpus::stream::document_at(sn, stream_seed, pos);
            xmltree::serialize::to_string_compact(&doc.doc)
        })
        .collect();
    let reference = Xsdf::new(sn, w.config.clone());
    let chunk = docs.len().div_ceil(THREADS);
    let expected = std::thread::scope(|s| {
        let handles: Vec<_> = docs
            .chunks(chunk.max(1))
            .map(|part| {
                let reference = &reference;
                s.spawn(move || {
                    part.iter()
                        .map(|xml| {
                            reference
                                .disambiguate_str(xml)
                                .map(|r| r.semantic_tree.to_annotated_xml())
                                .map_err(|e| format!("generated document does not parse: {e}"))
                        })
                        .collect::<Result<Vec<String>, String>>()
                })
            })
            .collect();
        let mut all = Vec::with_capacity(docs.len());
        for handle in handles {
            all.extend(handle.join().map_err(|_| "reference worker panicked")??);
        }
        Ok::<_, String>(all)
    })?;
    Ok(Inputs { docs, expected })
}
