//! Compiled binary snapshots of a [`SemanticNetwork`] **and** its
//! fully-built [`GlossArtifacts`], so cold start is a load, not a rebuild.
//!
//! Building a network from source (text format, WNDB files, or the
//! embedded MiniWordNet) re-runs tokenization, stop-filtering, Porter
//! stemming, interning, and neighbor-set sorting for every concept — fine
//! for the ~1k-synset MiniWordNet, a wall for the 117k-synset WordNet the
//! paper assumes. A snapshot serializes the *finished* state — concepts,
//! adjacency, word index, depths, cumulative frequencies, and the entire
//! artifact table — into one flat, offset-based binary that loads with a
//! single sequential read and no per-record parsing.
//!
//! ## Layout
//!
//! ```text
//! header   magic "XSDFSNAP" (8) | version u32 | payload_len u64
//!          | checksum u64 (FNV-1a folded over 8-byte LE words of the payload)
//! payload  a fixed sequence of sections, each:  tag u32 | body_len u64 | body
//!   META   concepts u32 | total_freq u64 | max_polysemy u64
//!   STRS   deduplicated string pool: count u32 | offsets (count+1)×u32 | UTF-8 blob
//!   CONC   key_sid n×u32 | gloss_sid n×u32 | freq n×u32 | pos n×u8
//!          | lemma offsets (n+1)×u32 | lemma_sid flat u32
//!   ADJC   edge offsets (n+1)×u32 | kind flat u8 | target flat u32
//!   DPTH   depths n×u32
//!   CUMF   cumulative frequencies n×u64
//!   WIDX   word index (sorted by lemma): count u32 | lemma_sid w×u32
//!          | sense offsets (w+1)×u32 | sense ids flat u32
//!   VOCB   interned token vocabulary: count u32 | sid v×u32
//!   ARTS   five list-of-lists (lemma/gloss/extended/token-set tokens,
//!          neighbor ids), each offsets (n+1)×u32 | flat u32
//! ```
//!
//! All integers are little-endian. `sid` values index the `STRS` pool;
//! every count, offset, string id, concept id, token id, relation code,
//! and part-of-speech code is bounds-checked on load, so corrupt or
//! truncated input yields a typed [`SnapshotError`] — never a panic, and
//! never an allocation sized by an unvalidated length prefix.
//!
//! ## Bit-identity
//!
//! Every field that influences scoring is serialized verbatim in its
//! stored order: concept order, adjacency order (which fixes extended-
//! gloss assembly), word-index sense order (which fixes first-sense
//! tie-breaks), and the interned artifact tables themselves. The loaded
//! artifacts are installed into the network's `OnceLock`, so batch
//! workers consume the exact bytes a rebuild would have produced; the
//! conformance suite and the CI batch differential pin this.
//!
//! The lemma, ancestor and token-occurrence tables are not stored. Each is
//! a function of stored sections, built on first use as on a rebuilt
//! network, so decoding does no work beyond reading what the file holds.

use std::collections::HashMap;
use std::path::Path;
use std::sync::OnceLock;

use crate::artifacts::GlossArtifacts;
use crate::model::{Concept, ConceptId, PartOfSpeech, RelationKind};
use crate::network::SemanticNetwork;

/// The 8-byte file magic; [`sniff`] uses it to tell snapshots from the
/// text format.
pub const MAGIC: [u8; 8] = *b"XSDFSNAP";

/// Current format version. Loading rejects any other version: layout
/// changes bump this, and there is deliberately no cross-version
/// migration — snapshots are cheap to recompile from source.
pub const VERSION: u32 = 1;

const HEADER_LEN: usize = 8 + 4 + 8 + 8;

const TAG_META: u32 = u32::from_le_bytes(*b"META");
const TAG_STRS: u32 = u32::from_le_bytes(*b"STRS");
const TAG_CONC: u32 = u32::from_le_bytes(*b"CONC");
const TAG_ADJC: u32 = u32::from_le_bytes(*b"ADJC");
const TAG_DPTH: u32 = u32::from_le_bytes(*b"DPTH");
const TAG_CUMF: u32 = u32::from_le_bytes(*b"CUMF");
const TAG_WIDX: u32 = u32::from_le_bytes(*b"WIDX");
const TAG_VOCB: u32 = u32::from_le_bytes(*b"VOCB");
const TAG_ARTS: u32 = u32::from_le_bytes(*b"ARTS");

/// Errors raised while loading a snapshot. Corrupt input of any shape —
/// wrong magic, foreign version, truncation at any byte, checksum damage,
/// or out-of-range indices — maps to one of these; the loader never
/// panics.
#[derive(Debug)]
pub enum SnapshotError {
    /// The file could not be read.
    Io(std::io::Error),
    /// The input does not start with the snapshot magic.
    Magic,
    /// The snapshot was written by an incompatible format version.
    Version {
        /// Version found in the header.
        found: u32,
        /// Version this build reads.
        expected: u32,
    },
    /// The input ends before the named structure is complete.
    Truncated {
        /// What was being read.
        context: &'static str,
        /// Byte offset (within the payload) where the read started.
        offset: usize,
    },
    /// The payload checksum does not match the header.
    Checksum {
        /// Checksum stored in the header.
        stored: u64,
        /// Checksum computed over the payload.
        computed: u64,
    },
    /// A count, offset, or id exceeds its valid range.
    Bounds {
        /// What was out of range.
        context: &'static str,
        /// The offending value.
        value: u64,
        /// The exclusive limit it violated.
        limit: u64,
    },
    /// A structurally invalid value (bad section tag, non-UTF-8 string,
    /// unknown relation or part-of-speech code, non-monotonic offsets).
    Corrupt {
        /// What was invalid.
        context: &'static str,
    },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "snapshot io error: {e}"),
            Self::Magic => write!(f, "not a network snapshot (bad magic)"),
            Self::Version { found, expected } => {
                write!(f, "snapshot version {found} (this build reads {expected})")
            }
            Self::Truncated { context, offset } => {
                write!(
                    f,
                    "snapshot truncated reading {context} at payload offset {offset}"
                )
            }
            Self::Checksum { stored, computed } => write!(
                f,
                "snapshot checksum mismatch (header {stored:#018x}, payload {computed:#018x})"
            ),
            Self::Bounds {
                context,
                value,
                limit,
            } => write!(
                f,
                "snapshot {context} out of range: {value} (limit {limit})"
            ),
            Self::Corrupt { context } => write!(f, "snapshot corrupt: {context}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

/// `true` if the bytes begin with the snapshot magic — the cheap sniff
/// callers use to route a `--network` file to [`decode`] or to the text
/// [`crate::format`].
pub fn sniff(bytes: &[u8]) -> bool {
    bytes.len() >= MAGIC.len() && bytes[..MAGIC.len()] == MAGIC
}

/// FNV-1a folded over 8-byte little-endian words (the trailing partial
/// word zero-padded). Byte-at-a-time FNV chains one multiply per *byte*;
/// at WordNet scale the payload is tens of megabytes and that serial
/// multiply chain alone would rival the rest of the load. Word folding
/// keeps the mixing (every input bit reaches the state through the same
/// xor-multiply round) at an eighth of the chain length. This is part of
/// the format definition, not an implementation detail — both sides of
/// the checksum must fold identically.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut chunks = bytes.chunks_exact(8);
    for w in &mut chunks {
        hash ^= u64::from_le_bytes([w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7]]);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    let rest = chunks.remainder();
    if !rest.is_empty() {
        let mut tail = [0u8; 8];
        tail[..rest.len()].copy_from_slice(rest);
        hash ^= u64::from_le_bytes(tail);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

/// Deduplicating string-pool builder: each distinct string is stored once
/// and referenced by its `u32` id everywhere (keys, glosses, lemmas,
/// word-index entries, and the artifact vocabulary all share the pool).
#[derive(Default)]
struct PoolBuilder {
    ids: HashMap<String, u32>,
    strings: Vec<String>,
}

impl PoolBuilder {
    fn sid(&mut self, s: &str) -> u32 {
        if let Some(&id) = self.ids.get(s) {
            return id;
        }
        let id = self.strings.len() as u32;
        self.ids.insert(s.to_string(), id);
        self.strings.push(s.to_string());
        id
    }
}

struct Writer {
    out: Vec<u8>,
    layout: Vec<(&'static str, usize)>,
}

impl Writer {
    fn u8(&mut self, v: u8) {
        self.out.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes one tagged section: the body is produced by `body`, and the
    /// length slot is patched afterwards. Records the section's absolute
    /// start offset in the layout (the corrupt-snapshot suite truncates
    /// at exactly these boundaries).
    fn section(&mut self, name: &'static str, tag: u32, body: impl FnOnce(&mut Self)) {
        self.layout.push((name, self.out.len()));
        self.u32(tag);
        let len_slot = self.out.len();
        self.u64(0);
        let body_start = self.out.len();
        body(self);
        let body_len = (self.out.len() - body_start) as u64;
        self.out[len_slot..len_slot + 8].copy_from_slice(&body_len.to_le_bytes());
    }

    /// A `(n+1)`-entry offset table plus the flattened items of a
    /// list-of-lists, the snapshot's repeated building block.
    fn list_of_lists<L: AsRef<[u32]>>(&mut self, lists: &[L]) {
        let mut offset = 0u32;
        self.u32(offset);
        for list in lists {
            offset += list.as_ref().len() as u32;
            self.u32(offset);
        }
        for list in lists {
            for &v in list.as_ref() {
                self.u32(v);
            }
        }
    }
}

/// Serializes a network (building its [`GlossArtifacts`] first if
/// needed) into snapshot bytes.
pub fn encode(sn: &SemanticNetwork) -> Vec<u8> {
    encode_with_layout(sn).0
}

/// [`encode`], also returning the absolute byte offset of every section
/// boundary (name, offset) — consumed by the corrupt-snapshot test suite
/// and the `compile-network` diagnostics.
pub fn encode_with_layout(sn: &SemanticNetwork) -> (Vec<u8>, Vec<(&'static str, usize)>) {
    let art = sn.gloss_artifacts();
    let n = sn.len();
    let mut pool = PoolBuilder::default();

    // Intern every string first so section bodies only carry ids.
    let mut key_sids = Vec::with_capacity(n);
    let mut gloss_sids = Vec::with_capacity(n);
    let mut lemma_sids: Vec<Vec<u32>> = Vec::with_capacity(n);
    for id in sn.all_concepts() {
        let c = sn.concept(id);
        key_sids.push(pool.sid(&c.key));
        gloss_sids.push(pool.sid(&c.gloss));
        lemma_sids.push(c.lemmas.iter().map(|l| pool.sid(l)).collect());
    }
    // Word index sorted by lemma for a canonical byte stream (HashMap
    // iteration order must not leak into the artifact).
    let mut words: Vec<(&String, &Vec<ConceptId>)> = sn.word_index.iter().collect();
    words.sort_by(|a, b| a.0.cmp(b.0));
    let word_sids: Vec<u32> = words.iter().map(|(w, _)| pool.sid(w)).collect();
    let vocab_sids: Vec<u32> = (0..art.vocab_len() as u32)
        .map(|t| pool.sid(art.token(t)))
        .collect();

    let mut w = Writer {
        out: Vec::new(),
        layout: Vec::new(),
    };
    // Header placeholder; patched after the payload is complete.
    w.out.extend_from_slice(&MAGIC);
    w.u32(VERSION);
    w.u64(0); // payload_len
    w.u64(0); // checksum

    w.section("META", TAG_META, |w| {
        w.u32(n as u32);
        w.u64(sn.total_freq);
        w.u64(sn.max_polysemy as u64);
    });
    w.section("STRS", TAG_STRS, |w| {
        w.u32(pool.strings.len() as u32);
        let mut offset = 0u32;
        w.u32(offset);
        for s in &pool.strings {
            offset += s.len() as u32;
            w.u32(offset);
        }
        for s in &pool.strings {
            w.out.extend_from_slice(s.as_bytes());
        }
    });
    w.section("CONC", TAG_CONC, |w| {
        for &sid in &key_sids {
            w.u32(sid);
        }
        for &sid in &gloss_sids {
            w.u32(sid);
        }
        for id in sn.all_concepts() {
            w.u32(sn.concept(id).frequency);
        }
        for id in sn.all_concepts() {
            w.u8(sn.concept(id).pos.code() as u8);
        }
        w.list_of_lists(&lemma_sids);
    });
    w.section("ADJC", TAG_ADJC, |w| {
        let mut offset = 0u32;
        w.u32(offset);
        for id in sn.all_concepts() {
            offset += sn.edges(id).len() as u32;
            w.u32(offset);
        }
        for id in sn.all_concepts() {
            for &(kind, _) in sn.edges(id) {
                w.u8(kind_code(kind));
            }
        }
        for id in sn.all_concepts() {
            for &(_, to) in sn.edges(id) {
                w.u32(to.0);
            }
        }
    });
    w.section("DPTH", TAG_DPTH, |w| {
        for &d in &sn.depths {
            w.u32(d);
        }
    });
    w.section("CUMF", TAG_CUMF, |w| {
        for &c in &sn.cumulative_freq {
            w.u64(c);
        }
    });
    w.section("WIDX", TAG_WIDX, |w| {
        w.u32(words.len() as u32);
        for &sid in &word_sids {
            w.u32(sid);
        }
        let sense_lists: Vec<Vec<u32>> = words
            .iter()
            .map(|(_, senses)| senses.iter().map(|c| c.0).collect())
            .collect();
        w.list_of_lists(&sense_lists);
    });
    w.section("VOCB", TAG_VOCB, |w| {
        w.u32(vocab_sids.len() as u32);
        for &sid in &vocab_sids {
            w.u32(sid);
        }
    });
    w.section("ARTS", TAG_ARTS, |w| {
        let collect = |f: &dyn Fn(ConceptId) -> Vec<u32>| -> Vec<Vec<u32>> {
            sn.all_concepts().map(f).collect()
        };
        w.list_of_lists(&collect(&|c| art.lemma_tokens(c).to_vec()));
        w.list_of_lists(&collect(&|c| art.gloss_tokens(c).to_vec()));
        w.list_of_lists(&collect(&|c| art.extended_gloss(c).to_vec()));
        w.list_of_lists(&collect(&|c| art.token_set(c).to_vec()));
        w.list_of_lists(&collect(&|c| {
            art.neighbors(c).iter().map(|n| n.0).collect()
        }));
    });
    w.layout.push(("END", w.out.len()));

    let payload_len = (w.out.len() - HEADER_LEN) as u64;
    let checksum = fnv1a64(&w.out[HEADER_LEN..]);
    w.out[12..20].copy_from_slice(&payload_len.to_le_bytes());
    w.out[20..28].copy_from_slice(&checksum.to_le_bytes());
    (w.out, w.layout)
}

/// Relation kinds are stored as their index in [`RelationKind::ALL`].
fn kind_code(kind: RelationKind) -> u8 {
    RelationKind::ALL
        .iter()
        .position(|&k| k == kind)
        .expect("RelationKind::ALL is exhaustive") as u8
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// Bounds-checked sequential reader over the payload.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

type Res<T> = Result<T, SnapshotError>;

impl<'a> Cursor<'a> {
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, len: usize, context: &'static str) -> Res<&'a [u8]> {
        if len > self.remaining() {
            return Err(SnapshotError::Truncated {
                context,
                offset: self.pos,
            });
        }
        let slice = &self.buf[self.pos..self.pos + len];
        self.pos += len;
        Ok(slice)
    }

    fn u32(&mut self, context: &'static str) -> Res<u32> {
        let b = self.take(4, context)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self, context: &'static str) -> Res<u64> {
        let b = self.take(8, context)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads `count` u32s. The element count was validated against the
    /// remaining bytes by `take`, so a corrupted count cannot trigger an
    /// oversized allocation: allocation happens only after the slice
    /// exists.
    fn u32_vec(&mut self, count: usize, context: &'static str) -> Res<Vec<u32>> {
        let bytes = self.take(
            count.checked_mul(4).ok_or(SnapshotError::Bounds {
                context,
                value: count as u64,
                limit: u32::MAX as u64,
            })?,
            context,
        )?;
        Ok(bytes
            .chunks_exact(4)
            .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
            .collect())
    }

    fn u64_vec(&mut self, count: usize, context: &'static str) -> Res<Vec<u64>> {
        let bytes = self.take(
            count.checked_mul(8).ok_or(SnapshotError::Bounds {
                context,
                value: count as u64,
                limit: u32::MAX as u64,
            })?,
            context,
        )?;
        Ok(bytes
            .chunks_exact(8)
            .map(|b| u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
            .collect())
    }

    /// Enters the next section, checking its tag and that its declared
    /// body length fits the remaining input; returns the expected end
    /// position so the caller can verify it consumed exactly the body.
    fn section(&mut self, tag: u32, context: &'static str) -> Res<usize> {
        let found = self.u32(context)?;
        if found != tag {
            return Err(SnapshotError::Corrupt { context });
        }
        let len = self.u64(context)?;
        if len > self.remaining() as u64 {
            return Err(SnapshotError::Truncated {
                context,
                offset: self.pos,
            });
        }
        Ok(self.pos + len as usize)
    }

    fn finish_section(&self, end: usize, context: &'static str) -> Res<()> {
        if self.pos != end {
            return Err(SnapshotError::Corrupt { context });
        }
        Ok(())
    }

    /// Reads one list-of-lists written by [`Writer::list_of_lists`]:
    /// `n+1` offsets (validated monotonic) and the flattened items,
    /// mapped through `f`. The flattened array is decoded straight from
    /// the payload slice into the per-list vectors — no intermediate
    /// `Vec<u32>` — because this path carries the artifact tables, by
    /// far the largest part of a snapshot, and cold-start load time is
    /// the whole point of the format.
    fn list_of_lists<T>(
        &mut self,
        n: usize,
        context: &'static str,
        f: impl Fn(u32) -> Res<T>,
    ) -> Res<Vec<Vec<T>>> {
        let offsets = self.u32_vec(n + 1, context)?;
        if offsets.first() != Some(&0) || offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err(SnapshotError::Corrupt { context });
        }
        let total = offsets[n] as usize;
        let bytes = self.take(
            total.checked_mul(4).ok_or(SnapshotError::Bounds {
                context,
                value: total as u64,
                limit: u32::MAX as u64,
            })?,
            context,
        )?;
        let mut out = Vec::with_capacity(n);
        for w in offsets.windows(2) {
            let span = &bytes[w[0] as usize * 4..w[1] as usize * 4];
            let list = span
                .chunks_exact(4)
                .map(|b| f(u32::from_le_bytes([b[0], b[1], b[2], b[3]])))
                .collect::<Res<Vec<T>>>()?;
            out.push(list);
        }
        Ok(out)
    }
}

fn check_index(value: u32, limit: usize, context: &'static str) -> Res<u32> {
    if (value as usize) < limit {
        Ok(value)
    } else {
        Err(SnapshotError::Bounds {
            context,
            value: value as u64,
            limit: limit as u64,
        })
    }
}

/// Decodes snapshot bytes into a [`SemanticNetwork`] with its
/// [`GlossArtifacts`] pre-installed. Corrupt input of any shape yields a
/// typed [`SnapshotError`]; this function never panics.
pub fn decode(bytes: &[u8]) -> Result<SemanticNetwork, SnapshotError> {
    if !sniff(bytes) {
        return Err(SnapshotError::Magic);
    }
    if bytes.len() < HEADER_LEN {
        return Err(SnapshotError::Truncated {
            context: "header",
            offset: bytes.len(),
        });
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    if version != VERSION {
        return Err(SnapshotError::Version {
            found: version,
            expected: VERSION,
        });
    }
    let payload_len = u64::from_le_bytes(bytes[12..20].try_into().unwrap());
    let stored = u64::from_le_bytes(bytes[20..28].try_into().unwrap());
    let payload = &bytes[HEADER_LEN..];
    if payload_len != payload.len() as u64 {
        return Err(SnapshotError::Truncated {
            context: "payload",
            offset: payload.len(),
        });
    }
    let computed = fnv1a64(payload);
    if computed != stored {
        return Err(SnapshotError::Checksum { stored, computed });
    }

    let mut c = Cursor {
        buf: payload,
        pos: 0,
    };

    // META
    let end = c.section(TAG_META, "META section")?;
    let n = c.u32("concept count")? as usize;
    let total_freq = c.u64("total frequency")?;
    let max_polysemy = c.u64("max polysemy")? as usize;
    c.finish_section(end, "META section")?;

    // STRS
    let end = c.section(TAG_STRS, "STRS section")?;
    let str_count = c.u32("string count")? as usize;
    let str_offsets = c.u32_vec(str_count + 1, "string offsets")?;
    if str_offsets.first() != Some(&0) || str_offsets.windows(2).any(|w| w[0] > w[1]) {
        return Err(SnapshotError::Corrupt {
            context: "string offsets",
        });
    }
    let blob = c.take(str_offsets[str_count] as usize, "string blob")?;
    let mut strings = Vec::with_capacity(str_count);
    for w in str_offsets.windows(2) {
        let s = std::str::from_utf8(&blob[w[0] as usize..w[1] as usize]).map_err(|_| {
            SnapshotError::Corrupt {
                context: "non-UTF-8 string",
            }
        })?;
        strings.push(s.to_string());
    }
    c.finish_section(end, "STRS section")?;
    let string_at = |sid: u32, context: &'static str| -> Res<&String> {
        check_index(sid, strings.len(), context).map(|sid| &strings[sid as usize])
    };

    // CONC
    let end = c.section(TAG_CONC, "CONC section")?;
    let key_sids = c.u32_vec(n, "concept keys")?;
    let gloss_sids = c.u32_vec(n, "concept glosses")?;
    let freqs = c.u32_vec(n, "concept frequencies")?;
    let pos_codes = c.take(n, "concept pos codes")?.to_vec();
    let lemma_lists = c.list_of_lists(n, "concept lemmas", |sid| {
        string_at(sid, "lemma string id").cloned()
    })?;
    c.finish_section(end, "CONC section")?;
    let mut concepts = Vec::with_capacity(n);
    for i in 0..n {
        let pos = PartOfSpeech::from_code(pos_codes[i] as char).ok_or(SnapshotError::Corrupt {
            context: "part-of-speech code",
        })?;
        concepts.push(Concept {
            key: string_at(key_sids[i], "concept key string id")?.clone(),
            lemmas: lemma_lists[i].clone(),
            gloss: string_at(gloss_sids[i], "concept gloss string id")?.clone(),
            frequency: freqs[i],
            pos,
        });
    }

    // ADJC
    let end = c.section(TAG_ADJC, "ADJC section")?;
    let edge_offsets = c.u32_vec(n + 1, "edge offsets")?;
    if edge_offsets.first() != Some(&0) || edge_offsets.windows(2).any(|w| w[0] > w[1]) {
        return Err(SnapshotError::Corrupt {
            context: "edge offsets",
        });
    }
    let edge_count = edge_offsets[n] as usize;
    let kinds = c.take(edge_count, "edge kinds")?.to_vec();
    let targets = c.u32_vec(edge_count, "edge targets")?;
    c.finish_section(end, "ADJC section")?;
    let mut adjacency = Vec::with_capacity(n);
    for w in edge_offsets.windows(2) {
        let mut out = Vec::with_capacity((w[1] - w[0]) as usize);
        for e in w[0] as usize..w[1] as usize {
            let kind = *RelationKind::ALL
                .get(kinds[e] as usize)
                .ok_or(SnapshotError::Corrupt {
                    context: "relation kind code",
                })?;
            let to = check_index(targets[e], n, "edge target id")?;
            out.push((kind, ConceptId(to)));
        }
        adjacency.push(out);
    }

    // DPTH
    let end = c.section(TAG_DPTH, "DPTH section")?;
    let depths = c.u32_vec(n, "depths")?;
    c.finish_section(end, "DPTH section")?;

    // CUMF
    let end = c.section(TAG_CUMF, "CUMF section")?;
    let cumulative_freq = c.u64_vec(n, "cumulative frequencies")?;
    c.finish_section(end, "CUMF section")?;

    // WIDX
    let end = c.section(TAG_WIDX, "WIDX section")?;
    let word_count = c.u32("word count")? as usize;
    let word_sids = c.u32_vec(word_count, "word strings")?;
    let sense_lists = c.list_of_lists(word_count, "word senses", |id| {
        check_index(id, n, "sense concept id").map(ConceptId)
    })?;
    c.finish_section(end, "WIDX section")?;
    let mut word_index = HashMap::with_capacity(word_count);
    for (sid, senses) in word_sids.into_iter().zip(sense_lists) {
        word_index.insert(string_at(sid, "word string id")?.clone(), senses);
    }

    // VOCB
    let end = c.section(TAG_VOCB, "VOCB section")?;
    let vocab_count = c.u32("vocab count")? as usize;
    let vocab_sids = c.u32_vec(vocab_count, "vocab strings")?;
    c.finish_section(end, "VOCB section")?;
    let mut vocab = Vec::with_capacity(vocab_count);
    for sid in vocab_sids {
        vocab.push(string_at(sid, "vocab string id")?.clone());
    }

    // ARTS
    let end = c.section(TAG_ARTS, "ARTS section")?;
    let token = |t: u32| check_index(t, vocab.len(), "artifact token id");
    let lemma_tokens = c.list_of_lists(n, "artifact lemma tokens", token)?;
    let gloss_tokens = c.list_of_lists(n, "artifact gloss tokens", token)?;
    let extended = c.list_of_lists(n, "artifact extended glosses", token)?;
    let token_sets = c.list_of_lists(n, "artifact token sets", token)?;
    let neighbors = c.list_of_lists(n, "artifact neighbors", |id| {
        check_index(id, n, "artifact neighbor id").map(ConceptId)
    })?;
    c.finish_section(end, "ARTS section")?;

    if c.remaining() != 0 {
        return Err(SnapshotError::Corrupt {
            context: "trailing bytes after final section",
        });
    }

    let key_index = concepts
        .iter()
        .enumerate()
        .map(|(i, c)| (c.key.clone(), ConceptId(i as u32)))
        .collect();
    let artifacts = OnceLock::new();
    let _ = artifacts.set(GlossArtifacts::from_parts(
        vocab,
        lemma_tokens,
        gloss_tokens,
        extended,
        token_sets,
        neighbors,
    ));
    Ok(SemanticNetwork {
        concepts,
        adjacency,
        word_index,
        key_index,
        depths,
        cumulative_freq,
        total_freq,
        max_polysemy,
        artifacts,
        lemmas: OnceLock::new(),
        ancestry: OnceLock::new(),
        occurrences: OnceLock::new(),
    })
}

/// Writes a snapshot of the network to a file.
pub fn write_file(sn: &SemanticNetwork, path: impl AsRef<Path>) -> Result<(), SnapshotError> {
    Ok(std::fs::write(path, encode(sn))?)
}

/// Loads a snapshot in one buffered sequential read.
pub fn load_file(path: impl AsRef<Path>) -> Result<SemanticNetwork, SnapshotError> {
    decode(&std::fs::read(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builtin::mini_wordnet;

    #[test]
    fn roundtrip_preserves_scoring_state() {
        let sn = mini_wordnet();
        let bytes = encode(sn);
        let loaded = decode(&bytes).expect("valid snapshot decodes");
        assert_eq!(sn.len(), loaded.len());
        assert_eq!(sn.total_frequency(), loaded.total_frequency());
        assert_eq!(sn.max_polysemy(), loaded.max_polysemy());
        for id in sn.all_concepts() {
            assert_eq!(sn.concept(id), loaded.concept(id));
            assert_eq!(sn.edges(id), loaded.edges(id));
            assert_eq!(sn.depth(id), loaded.depth(id));
            assert_eq!(sn.cumulative_frequency(id), loaded.cumulative_frequency(id));
        }
        for word in ["star", "cast", "head", "state", "kelly"] {
            assert_eq!(sn.senses(word), loaded.senses(word), "senses of {word}");
        }
        // The loaded artifacts must be the rebuild's, byte for byte —
        // installed eagerly, not rebuilt lazily.
        assert_eq!(sn.gloss_artifacts(), loaded.gloss_artifacts());
    }

    #[test]
    fn decode_builds_neither_scoring_table() {
        let loaded = decode(&encode(mini_wordnet())).expect("valid snapshot decodes");
        assert!(loaded.ancestry.get().is_none(), "ancestor table built");
        assert!(loaded.occurrences.get().is_none(), "occurrence table built");
        let rebuilt = mini_wordnet();
        assert_eq!(loaded.ancestor_table(), rebuilt.ancestor_table());
        assert_eq!(loaded.gloss_occurrences(), rebuilt.gloss_occurrences());
    }

    #[test]
    fn sniff_distinguishes_formats() {
        let bytes = encode(mini_wordnet());
        assert!(sniff(&bytes));
        assert!(!sniff(b"# a text network\n"));
        assert!(!sniff(b""));
        assert!(!sniff(b"XSDFSNA")); // one byte short of the magic
    }

    #[test]
    fn version_mismatch_rejected() {
        let mut bytes = encode(mini_wordnet());
        bytes[8] = VERSION as u8 + 1;
        match decode(&bytes) {
            Err(SnapshotError::Version { found, expected }) => {
                assert_eq!(found, VERSION + 1);
                assert_eq!(expected, VERSION);
            }
            other => panic!("expected version error, got {other:?}"),
        }
    }

    #[test]
    fn layout_is_ordered_and_complete() {
        let (bytes, layout) = encode_with_layout(mini_wordnet());
        let names: Vec<&str> = layout.iter().map(|(n, _)| *n).collect();
        assert_eq!(
            names,
            ["META", "STRS", "CONC", "ADJC", "DPTH", "CUMF", "WIDX", "VOCB", "ARTS", "END"]
        );
        assert!(layout.windows(2).all(|w| w[0].1 < w[1].1));
        assert_eq!(layout.last().unwrap().1, bytes.len());
    }
}
