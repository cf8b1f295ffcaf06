//! The semantically augmented output tree (Figure 4.b of the paper).
//!
//! After disambiguation, target nodes of the XML tree carry unambiguous
//! concept identifiers from the reference semantic network, while non-target
//! nodes remain untouched. [`SemanticTree`] pairs an [`XmlTree`] with a
//! sparse annotation map and can render itself as annotated XML.

use std::collections::BTreeMap;

use crate::tree::{NodeId, NodeKind, XmlTree};

/// The sense assigned to one node: an opaque concept identifier (the
/// semantic-network crate renders these as stable keys such as
/// `"star.performer"`) plus the score that won the disambiguation.
#[derive(Debug, Clone, PartialEq)]
pub struct SenseAnnotation {
    /// Stable textual identifier of the concept in the semantic network.
    pub concept: String,
    /// The disambiguation score that selected this sense, in `\[0, 1\]`.
    pub score: f64,
}

/// A node of the semantic tree: the original label plus an optional sense.
#[derive(Debug, Clone)]
pub struct SemanticNode {
    /// The node's label in the source tree.
    pub label: String,
    /// Element / attribute / value-token.
    pub kind: NodeKind,
    /// The assigned sense; `None` for nodes that were not targets (or for
    /// targets the disambiguator abstained on).
    pub sense: Option<SenseAnnotation>,
}

/// An XML tree whose target nodes have been resolved to semantic concepts.
#[derive(Debug, Clone)]
pub struct SemanticTree {
    tree: XmlTree,
    senses: BTreeMap<NodeId, SenseAnnotation>,
}

impl SemanticTree {
    /// Wraps a tree with an (initially empty) annotation map.
    pub fn new(tree: XmlTree) -> Self {
        Self {
            tree,
            senses: BTreeMap::new(),
        }
    }

    /// The underlying syntactic tree.
    pub fn tree(&self) -> &XmlTree {
        &self.tree
    }

    /// Assigns a sense to a node.
    pub fn annotate(&mut self, node: NodeId, sense: SenseAnnotation) {
        self.senses.insert(node, sense);
    }

    /// The sense assigned to `node`, if any.
    pub fn sense(&self, node: NodeId) -> Option<&SenseAnnotation> {
        self.senses.get(&node)
    }

    /// A view of one node, merging label and annotation.
    pub fn node(&self, node: NodeId) -> SemanticNode {
        let n = self.tree.node(node);
        SemanticNode {
            label: n.label.clone(),
            kind: n.kind,
            sense: self.senses.get(&node).cloned(),
        }
    }

    /// Number of annotated nodes.
    pub fn annotated_count(&self) -> usize {
        self.senses.len()
    }

    /// Iterates over `(node, sense)` pairs in preorder.
    pub fn annotations(&self) -> impl Iterator<Item = (NodeId, &SenseAnnotation)> {
        self.senses.iter().map(|(&k, v)| (k, v))
    }

    /// Renders the semantic tree as XML in which every annotated node gains
    /// a `concept` attribute (elements/attributes) or is wrapped in a
    /// `<token concept="..">` element (value tokens). This is the output
    /// format of Figure 4.b.
    pub fn to_annotated_xml(&self) -> String {
        let mut out = String::new();
        self.render(self.tree.root(), &mut out, 0);
        out
    }

    fn render(&self, node: NodeId, out: &mut String, indent: usize) {
        use std::fmt::Write;
        let n = self.tree.node(node);
        let pad = "  ".repeat(indent);
        match n.kind {
            NodeKind::Element | NodeKind::Attribute => {
                let tag = if n.kind == NodeKind::Attribute {
                    "attribute"
                } else {
                    "element"
                };
                write!(out, "{pad}<{tag} label=\"{}\"", escape(&n.label)).unwrap();
                if let Some(sense) = self.senses.get(&node) {
                    write!(out, " concept=\"{}\"", escape(&sense.concept)).unwrap();
                }
                if n.children.is_empty() {
                    out.push_str("/>\n");
                } else {
                    out.push_str(">\n");
                    for &c in &n.children {
                        self.render(c, out, indent + 1);
                    }
                    writeln!(out, "{pad}</{tag}>").unwrap();
                }
            }
            NodeKind::ValueToken => {
                write!(out, "{pad}<token text=\"{}\"", escape(&n.label)).unwrap();
                if let Some(sense) = self.senses.get(&node) {
                    write!(out, " concept=\"{}\"", escape(&sense.concept)).unwrap();
                }
                out.push_str("/>\n");
            }
        }
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '&' => out.push_str("&amp;"),
            '"' => out.push_str("&quot;"),
            _ => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;
    use crate::tree::TreeBuilder;

    fn tree() -> XmlTree {
        let doc = parse("<cast><star>Kelly</star></cast>").unwrap();
        TreeBuilder::new().build(&doc).unwrap().tree
    }

    #[test]
    fn annotation_roundtrip() {
        let t = tree();
        let kelly = t.preorder().find(|&id| t.label(id) == "Kelly").unwrap();
        let mut st = SemanticTree::new(t);
        st.annotate(
            kelly,
            SenseAnnotation {
                concept: "kelly.grace".into(),
                score: 0.9,
            },
        );
        assert_eq!(st.annotated_count(), 1);
        assert_eq!(st.sense(kelly).unwrap().concept, "kelly.grace");
        let view = st.node(kelly);
        assert_eq!(view.label, "Kelly");
        assert!(view.sense.is_some());
    }

    #[test]
    fn unannotated_nodes_have_no_sense() {
        let t = tree();
        let root = t.root();
        let st = SemanticTree::new(t);
        assert!(st.sense(root).is_none());
        assert_eq!(st.annotated_count(), 0);
    }

    #[test]
    fn annotated_xml_contains_concepts() {
        let t = tree();
        let cast = t.root();
        let kelly = t.preorder().find(|&id| t.label(id) == "Kelly").unwrap();
        let mut st = SemanticTree::new(t);
        st.annotate(
            cast,
            SenseAnnotation {
                concept: "cast.actors".into(),
                score: 0.8,
            },
        );
        st.annotate(
            kelly,
            SenseAnnotation {
                concept: "kelly.grace".into(),
                score: 0.7,
            },
        );
        let xml = st.to_annotated_xml();
        assert!(xml.contains("concept=\"cast.actors\""));
        assert!(xml.contains("<token text=\"Kelly\" concept=\"kelly.grace\"/>"));
    }

    #[test]
    fn annotated_xml_escapes_special_chars() {
        let doc = parse("<a>x</a>").unwrap();
        let t = TreeBuilder::new().build(&doc).unwrap().tree;
        let tok = t.preorder().find(|&id| t.label(id) == "x").unwrap();
        let mut st = SemanticTree::new(t);
        st.annotate(
            tok,
            SenseAnnotation {
                concept: "a<&\">b".into(),
                score: 1.0,
            },
        );
        let xml = st.to_annotated_xml();
        assert!(xml.contains("a&lt;&amp;&quot;&gt;b"));
    }

    #[test]
    fn annotations_iterate_in_preorder() {
        let t = tree();
        let ids: Vec<_> = t.preorder().collect();
        let mut st = SemanticTree::new(t);
        // Insert out of order.
        st.annotate(
            ids[2],
            SenseAnnotation {
                concept: "c2".into(),
                score: 0.1,
            },
        );
        st.annotate(
            ids[0],
            SenseAnnotation {
                concept: "c0".into(),
                score: 0.1,
            },
        );
        let order: Vec<_> = st.annotations().map(|(n, _)| n).collect();
        assert_eq!(order, vec![ids[0], ids[2]]);
    }
}
