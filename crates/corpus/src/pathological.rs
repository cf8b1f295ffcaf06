//! Pathological XML generators for robustness and chaos testing.
//!
//! Where the dataset generators ([`crate::gen`]) imitate the paper's
//! *realistic* corpus, these produce documents that are deliberately
//! hostile along one resource axis each — nesting depth, fanout, entity
//! density, or polysemy — so the runtime's resource limits and deadlines
//! have something real to trip on. All generators are pure functions of
//! their arguments: no RNG, byte-identical output on every call.

/// A document that is nothing but `depth` nested `<section>` elements.
///
/// Stresses the parser's recursion (and its `max_depth` guard): node count
/// grows linearly but the element stack grows just as fast.
pub fn deep_nesting(depth: usize) -> String {
    let mut xml = String::with_capacity(depth * 20 + 32);
    xml.push_str("<archive>");
    for _ in 0..depth {
        xml.push_str("<section>");
    }
    xml.push_str("core");
    for _ in 0..depth {
        xml.push_str("</section>");
    }
    xml.push_str("</archive>");
    xml
}

/// A two-level document whose root has `children` identical children.
///
/// Stresses anything linear in node count — tree building, selection, and
/// the node-budget check — without any depth at all.
pub fn mega_fanout(children: usize) -> String {
    let mut xml = String::with_capacity(children * 24 + 32);
    xml.push_str("<catalog>");
    for i in 0..children {
        xml.push_str("<item>entry ");
        xml.push_str(&i.to_string());
        xml.push_str("</item>");
    }
    xml.push_str("</catalog>");
    xml
}

/// A document whose text content is saturated with character entities.
///
/// Every text value is almost entirely `&amp;`/`&lt;`/`&gt;`/`&quot;`
/// escapes, so the byte size is many times the decoded size — the shape
/// that makes byte limits and parse-time budgets diverge from node counts.
pub fn entity_heavy(values: usize) -> String {
    let mut xml = String::with_capacity(values * 64 + 32);
    xml.push_str("<feed>");
    for _ in 0..values {
        xml.push_str("<entry>&amp;&lt;&gt;&quot;&apos;&amp;&lt;&gt;&quot;&apos;</entry>");
    }
    xml.push_str("</feed>");
    xml
}

/// A document built entirely from the most polysemous labels in the
/// reference vocabulary (`star`, `play`, `cast`, …), each repeated
/// `repeats` times.
///
/// Node count stays modest but the number of candidate sense pairs the
/// scoring loop must evaluate explodes — the axis the sense-pair budget
/// and per-document deadline exist for.
pub fn hyper_polysemous(repeats: usize) -> String {
    const AMBIGUOUS: [&str; 6] = ["play", "star", "cast", "picture", "character", "state"];
    let mut xml = String::with_capacity(repeats * AMBIGUOUS.len() * 24 + 32);
    xml.push_str("<plays>");
    for _ in 0..repeats {
        for label in AMBIGUOUS {
            xml.push('<');
            xml.push_str(label);
            xml.push('>');
            xml.push_str("star");
            xml.push_str("</");
            xml.push_str(label);
            xml.push('>');
        }
    }
    xml.push_str("</plays>");
    xml
}

/// A hand-built network with one 48-way ambiguous word, and a document
/// whose root is that word. MiniWordNet tops out at ~5 senses per word;
/// real lexicons (WordNet: dozens) are the regime where the scoring
/// loop's exact early exit abandons most candidates, and this pair
/// reproduces it. The intended reading of `blob` is listed first
/// (highest frequency) and carries every context label as a lemma, so
/// it gathers evidence from every context entry; each of the 47 decoys
/// has a running bound below that leader after one entry. Each context
/// label also has one unrelated low-frequency reading, so a decoy's
/// per-entry similarity is a fresh pair rather than a cache hit.
///
/// Run at an ambiguity threshold of 0.2, only `blob` is selected: its
/// polysemy factor is 1 and the two-sense context labels score ~1/47.
pub fn hyper_polysemous_network() -> (semnet::SemanticNetwork, &'static str) {
    use semnet::{NetworkBuilder, PartOfSpeech};
    const CONTEXT: [&str; 8] = [
        "alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta",
    ];
    let mut b = NetworkBuilder::new();
    b.concept(
        "entity.n",
        &["entity"],
        "the root of the synthetic taxonomy",
        50,
        PartOfSpeech::Noun,
    );
    // The intended reading: "blob" plus every context label as lemmas.
    let mut hub_lemmas = vec!["blob"];
    hub_lemmas.extend(CONTEXT);
    b.noun(
        "hub.n",
        &hub_lemmas,
        "the hub reading every context synonym points at",
        100,
        "entity.n",
    );
    b.noun(
        "noise.n",
        &["noiseword"],
        "the decoy parent away from the hub",
        1,
        "entity.n",
    );
    for name in CONTEXT {
        b.noun(
            &format!("{name}_alt.n"),
            &[name],
            &format!("an alternative reading of {name} unrelated to the hub"),
            1,
            "noise.n",
        );
    }
    for i in 0..47 {
        b.noun(
            &format!("decoy{i}.n"),
            &["blob"],
            &format!("unrelated decoy reading number {i} about nothing relevant"),
            1,
            "noise.n",
        );
    }
    let sn = b.build().expect("synthetic network is well-formed");
    (
        sn,
        "<blob><alpha/><beta/><gamma/><delta/><epsilon/><zeta/><eta/><theta/></blob>",
    )
}

/// The standard pathological document set for cross-crate harnesses (the
/// conformance differential suite in particular): one or two
/// representatives per hostility axis, each paired with a stable name for
/// failure reports, and every document parseable under the **default**
/// parser limits (nesting depths stay below the parser's `max_depth` of
/// 256 — generators above can exceed it when called directly).
pub fn suite() -> Vec<(&'static str, String)> {
    vec![
        ("deep_nesting_48", deep_nesting(48)),
        ("deep_nesting_200", deep_nesting(200)),
        ("mega_fanout_64", mega_fanout(64)),
        ("entity_heavy_16", entity_heavy(16)),
        ("hyper_polysemous_2", hyper_polysemous(2)),
        ("hyper_polysemous_6", hyper_polysemous(6)),
    ]
}

/// Stamps a chaos marker onto a document's root element as an attribute,
/// so marker-targeted failpoints (`panic-if`/`delay-if`) can select it by
/// substring while the document stays well-formed.
///
/// ```
/// let doc = xsdf_corpus::pathological::with_marker("<a><b/></a>", "CHAOS_PANIC");
/// assert_eq!(doc, "<a chaos=\"CHAOS_PANIC\"><b/></a>");
/// ```
pub fn with_marker(xml: &str, marker: &str) -> String {
    debug_assert!(
        !marker.contains('"') && !marker.contains('&') && !marker.contains('<'),
        "marker must be attribute-safe"
    );
    match xml.find(['>', '/']) {
        Some(end) => format!("{} chaos=\"{marker}\"{}", &xml[..end], &xml[end..]),
        None => xml.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deep_nesting_has_exact_depth() {
        let xml = deep_nesting(300);
        let mut parser = xmltree::parser::Parser::new(&xml);
        parser.max_depth = 400;
        let doc = parser.parse_document().expect("well-formed");
        assert_eq!(doc.element_count(), 301);
        // The default parser guard (256) must reject it.
        assert!(xmltree::parse(&xml).is_err());
    }

    #[test]
    fn mega_fanout_has_exact_node_count() {
        let doc = xmltree::parse(&mega_fanout(500)).expect("well-formed");
        assert_eq!(doc.element_count(), 501);
    }

    #[test]
    fn entity_heavy_parses_and_inflates_bytes() {
        let xml = entity_heavy(50);
        let doc = xmltree::parse(&xml).expect("well-formed");
        assert_eq!(doc.element_count(), 51);
        // Escapes make the raw form several times the decoded text.
        assert!(xml.len() > 50 * 40);
    }

    #[test]
    fn hyper_polysemous_is_well_formed() {
        let doc = xmltree::parse(&hyper_polysemous(10)).expect("well-formed");
        assert_eq!(doc.element_count(), 61);
    }

    #[test]
    fn suite_parses_under_default_limits() {
        let docs = suite();
        assert!(docs.len() >= 5);
        let mut names = std::collections::HashSet::new();
        for (name, xml) in &docs {
            assert!(names.insert(*name), "duplicate suite name {name}");
            xmltree::parse(xml).unwrap_or_else(|e| panic!("{name} must parse: {e:?}"));
        }
    }

    #[test]
    fn marker_keeps_documents_well_formed() {
        for xml in [
            deep_nesting(5),
            mega_fanout(3),
            entity_heavy(2),
            hyper_polysemous(1),
            "<solo/>".to_string(),
        ] {
            let marked = with_marker(&xml, "CHAOS_X");
            assert!(marked.contains("CHAOS_X"));
            let a = xmltree::parse(&xml).expect("input well-formed");
            let b = xmltree::parse(&marked).expect("marked still well-formed");
            assert_eq!(a.element_count(), b.element_count());
        }
    }
}
