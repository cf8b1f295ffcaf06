//! The rooted ordered labeled tree of Definition 1.
//!
//! An [`XmlTree`] is the flattened, preorder-indexed view of an XML document
//! that the whole XSDF pipeline operates on. Following Section 3.1 of the
//! paper:
//!
//! * element nodes are labeled with their tag names,
//! * attribute nodes appear as children of their containing element, sorted
//!   by attribute name and placed *before* all sub-elements,
//! * element/attribute text values are tokenized (via a pluggable
//!   [`ValueTokenizer`]) and each token becomes a leaf child, in order of
//!   appearance,
//! * each node knows its preorder index `T[i]`, label `T[i].ℓ`, depth
//!   `T[i].d` (in edges from the root), fan-out `T[i].f` (number of
//!   children), and *density* (number of children with **distinct** labels,
//!   the `x.f̄` of Proposition 3).

use std::collections::HashMap;
use std::sync::Arc;

use crate::document::{DocNodeId, Document};

/// Index of a node in an [`XmlTree`], equal to its preorder rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The raw preorder index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// What kind of XML construct a tree node came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// An element tag name.
    Element,
    /// An attribute name.
    Attribute,
    /// One token of an element or attribute text value.
    ValueToken,
}

/// One node of the rooted ordered labeled tree.
#[derive(Debug, Clone)]
pub struct TreeNode {
    /// Node label `T[i].ℓ`: a tag/attribute name or a value token. For tag
    /// names this is the *processed* label (after linguistic
    /// pre-processing), not the raw spelling of the document.
    pub label: String,
    /// Element, attribute, or value-token node.
    pub kind: NodeKind,
    /// Depth `T[i].d` in edges from the root (root has depth 0).
    pub depth: u32,
    /// Parent node, `None` only for the root.
    pub parent: Option<NodeId>,
    /// Ordered children.
    pub children: Vec<NodeId>,
}

impl TreeNode {
    /// Fan-out `T[i].f`: the number of children.
    pub fn fan_out(&self) -> usize {
        self.children.len()
    }
}

/// Splits a text value into tokens, one leaf node per token.
///
/// The default [`WhitespaceTokenizer`] splits on whitespace only; the
/// `xsdf-lingproc` crate provides a linguistically aware implementation
/// (stop-word removal, stemming, compound detection).
pub trait ValueTokenizer {
    /// Tokenizes a text value. Returning an empty vector drops the value.
    fn tokenize_value(&self, text: &str) -> Vec<String>;

    /// Normalizes a tag or attribute name into a node label. The default
    /// implementation returns the name unchanged.
    fn normalize_label(&self, name: &str) -> String {
        name.to_string()
    }
}

/// The trivial tokenizer: split on whitespace, no normalization.
#[derive(Debug, Clone, Copy, Default)]
pub struct WhitespaceTokenizer;

impl ValueTokenizer for WhitespaceTokenizer {
    fn tokenize_value(&self, text: &str) -> Vec<String> {
        text.split_whitespace().map(str::to_string).collect()
    }
}

/// Which parts of the document contribute nodes to the tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ContentMode {
    /// Elements, attributes, *and* tokenized text values (the paper's
    /// *structure-and-content* mode, used throughout its evaluation).
    #[default]
    StructureAndContent,
    /// Elements and attribute names only (*structure-only* mode).
    StructureOnly,
}

/// Builds [`XmlTree`]s from [`Document`]s.
#[derive(Default)]
pub struct TreeBuilder<T = WhitespaceTokenizer> {
    tokenizer: T,
    mode: ContentMode,
}

/// The result of a build: the tree plus alignment maps back to the source
/// document, used by corpus generators to attach gold-standard senses.
#[derive(Debug, Clone)]
pub struct BuildResult {
    /// The rooted ordered labeled tree.
    pub tree: XmlTree,
    /// Maps each document element to its tree node.
    pub element_nodes: HashMap<DocNodeId, NodeId>,
    /// Maps `(element, attribute index)` to the attribute's tree node.
    pub attribute_nodes: HashMap<(DocNodeId, usize), NodeId>,
    /// Maps `(text node, token index)` / `(element, attr idx << 16 | token)`
    /// is too clever; instead: maps each text-ish doc node to the tree nodes
    /// of its tokens, in order.
    pub token_nodes: HashMap<DocNodeId, Vec<NodeId>>,
    /// Maps `(element, attribute index)` to the tree nodes of the attribute
    /// value's tokens, in order.
    pub attr_token_nodes: HashMap<(DocNodeId, usize), Vec<NodeId>>,
}

impl TreeBuilder<WhitespaceTokenizer> {
    /// A builder with the default whitespace tokenizer and
    /// structure-and-content mode.
    pub fn new() -> Self {
        Self::default()
    }
}

impl<T: ValueTokenizer> TreeBuilder<T> {
    /// A builder with a custom tokenizer.
    pub fn with_tokenizer(tokenizer: T) -> Self {
        Self {
            tokenizer,
            mode: ContentMode::default(),
        }
    }

    /// Selects structure-only or structure-and-content mode.
    pub fn content_mode(mut self, mode: ContentMode) -> Self {
        self.mode = mode;
        self
    }

    /// Builds the tree for `doc`, starting at its root element.
    ///
    /// Returns `None` when the document has no root element.
    pub fn build(&self, doc: &Document) -> Option<BuildResult> {
        let root = doc.root_element()?;
        let mut nodes = Vec::new();
        let mut out = BuildResult {
            tree: XmlTree::unfinished(Vec::new()),
            element_nodes: HashMap::new(),
            attribute_nodes: HashMap::new(),
            token_nodes: HashMap::new(),
            attr_token_nodes: HashMap::new(),
        };
        self.build_element(doc, root, None, 0, &mut nodes, &mut out);
        out.tree = XmlTree::from_nodes(nodes);
        Some(out)
    }

    fn push_node(
        nodes: &mut Vec<TreeNode>,
        label: String,
        kind: NodeKind,
        depth: u32,
        parent: Option<NodeId>,
    ) -> NodeId {
        let id = NodeId(nodes.len() as u32);
        nodes.push(TreeNode {
            label,
            kind,
            depth,
            parent,
            children: Vec::new(),
        });
        if let Some(p) = parent {
            nodes[p.index()].children.push(id);
        }
        id
    }

    fn build_element(
        &self,
        doc: &Document,
        elem: DocNodeId,
        parent: Option<NodeId>,
        depth: u32,
        nodes: &mut Vec<TreeNode>,
        out: &mut BuildResult,
    ) -> NodeId {
        let name = doc.name(elem).expect("element node");
        let label = self.tokenizer.normalize_label(name);
        let node = Self::push_node(nodes, label, NodeKind::Element, depth, parent);
        out.element_nodes.insert(elem, node);

        // Attributes first, sorted by name (Section 3.1), before sub-elements.
        let mut attr_order: Vec<usize> = (0..doc.attributes(elem).len()).collect();
        attr_order.sort_by(|&a, &b| {
            doc.attributes(elem)[a]
                .name
                .cmp(&doc.attributes(elem)[b].name)
        });
        for idx in attr_order {
            let attr = &doc.attributes(elem)[idx];
            let attr_label = self.tokenizer.normalize_label(&attr.name);
            let attr_node = Self::push_node(
                nodes,
                attr_label,
                NodeKind::Attribute,
                depth + 1,
                Some(node),
            );
            out.attribute_nodes.insert((elem, idx), attr_node);
            if self.mode == ContentMode::StructureAndContent {
                let tokens = self.tokenizer.tokenize_value(&attr.value);
                let mut ids = Vec::with_capacity(tokens.len());
                for tok in tokens {
                    ids.push(Self::push_node(
                        nodes,
                        tok,
                        NodeKind::ValueToken,
                        depth + 2,
                        Some(attr_node),
                    ));
                }
                out.attr_token_nodes.insert((elem, idx), ids);
            }
        }

        // Children in document order.
        for &child in doc.children(elem) {
            match doc.node(child) {
                crate::document::DocNode::Element { .. } => {
                    self.build_element(doc, child, Some(node), depth + 1, nodes, out);
                }
                crate::document::DocNode::Text(t) | crate::document::DocNode::CData(t)
                    if self.mode == ContentMode::StructureAndContent =>
                {
                    let tokens = self.tokenizer.tokenize_value(t);
                    let mut ids = Vec::with_capacity(tokens.len());
                    for tok in tokens {
                        ids.push(Self::push_node(
                            nodes,
                            tok,
                            NodeKind::ValueToken,
                            depth + 1,
                            Some(node),
                        ));
                    }
                    out.token_nodes.insert(child, ids);
                }
                // Comments and PIs carry no labels; they are not part of the
                // rooted ordered labeled tree.
                _ => {}
            }
        }
        node
    }
}

/// The rooted ordered labeled tree (Definition 1), optionally augmented
/// with hyperlink edges (ID/IDREF — see [`crate::links`]) that sphere
/// traversals may cross. Links never change the tree structure (depth,
/// fan-out, density, preorder); they only add adjacency.
///
/// The nodes sit behind an [`Arc`] and never change once built, so a clone
/// (the semantic tree's copy of its input, say) shares them.
#[derive(Debug, Clone)]
pub struct XmlTree {
    nodes: Arc<[TreeNode]>,
    /// Symmetric hyperlink adjacency, sparse (empty for most documents).
    links: Vec<(NodeId, NodeId)>,
    /// `Max(depth(T))` of Proposition 2, set by [`XmlTree::finish`].
    max_depth: u32,
    /// `Max(fan-out(T))`, set by [`XmlTree::finish`].
    max_fan_out: usize,
    /// `Max(f̄an-out(T))` of Proposition 3, set by [`XmlTree::finish`].
    max_density: usize,
}

impl XmlTree {
    /// Creates a tree from raw nodes. Intended for tests and generators;
    /// callers must supply consistent parent/child links and depths.
    pub fn from_nodes(nodes: Vec<TreeNode>) -> Self {
        let mut t = Self::unfinished(nodes);
        t.finish();
        t
    }

    /// A tree over `nodes` whose per-tree maxima are not computed yet;
    /// [`XmlTree::finish`] must run before it is handed out.
    fn unfinished(nodes: Vec<TreeNode>) -> Self {
        Self {
            nodes: nodes.into(),
            links: Vec::new(),
            max_depth: 0,
            max_fan_out: 0,
            max_density: 0,
        }
    }

    /// Returns a copy of the tree with every label rewritten through `f`;
    /// structure, node kinds and hyperlink edges are untouched. Intended
    /// for metamorphic tests: sphere construction, distances and
    /// context-vector weights depend only on structure and label
    /// *identity*, so any injective relabeling must commute with them. A
    /// relabeling that merges labels changes node densities, so the cached
    /// maxima are recomputed.
    pub fn relabeled(&self, f: impl Fn(&str) -> String) -> Self {
        let mut nodes = self.nodes.to_vec();
        for n in &mut nodes {
            n.label = f(&n.label);
        }
        let mut t = Self::unfinished(nodes);
        t.links = self.links.clone();
        t.finish();
        t
    }

    /// Installs a hyperlink edge between two nodes (symmetric; duplicates
    /// and self-links are ignored).
    pub fn add_link(&mut self, a: NodeId, b: NodeId) {
        if a == b || a.index() >= self.nodes.len() || b.index() >= self.nodes.len() {
            return;
        }
        let key = if a <= b { (a, b) } else { (b, a) };
        if !self.links.contains(&key) {
            self.links.push(key);
        }
    }

    /// The hyperlink neighbors of a node.
    pub fn link_neighbors(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.links.iter().filter_map(move |&(a, b)| {
            if a == id {
                Some(b)
            } else if b == id {
                Some(a)
            } else {
                None
            }
        })
    }

    /// Number of installed hyperlink edges.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Computes the per-tree maxima of Propositions 2 and 3 once, so
    /// [`XmlTree::max_depth`], [`XmlTree::max_fan_out`] and
    /// [`XmlTree::max_density`] are O(1) and a whole-tree ambiguity or
    /// structure pass stays linear.
    fn finish(&mut self) {
        debug_assert!(self.check_consistency().is_ok(), "inconsistent tree");
        self.max_depth = self.nodes.iter().map(|n| n.depth).max().unwrap_or(0);
        self.max_fan_out = self
            .nodes
            .iter()
            .map(|n| n.children.len())
            .max()
            .unwrap_or(0);
        self.max_density = self
            .preorder()
            .map(|id| self.density(id))
            .max()
            .unwrap_or(0);
    }

    /// Verifies structural invariants: node 0 is the only root, parents
    /// precede children (preorder), depths increase by one along edges, and
    /// child lists match parent pointers.
    pub fn check_consistency(&self) -> Result<(), String> {
        if self.nodes.is_empty() {
            return Err("empty tree".into());
        }
        if self.nodes[0].parent.is_some() {
            return Err("node 0 must be the root".into());
        }
        if self.nodes[0].depth != 0 {
            return Err("root must have depth 0".into());
        }
        for (i, n) in self.nodes.iter().enumerate().skip(1) {
            let p = n.parent.ok_or_else(|| format!("node {i} has no parent"))?;
            if p.index() >= i {
                return Err(format!("node {i} appears before its parent (not preorder)"));
            }
            if self.nodes[p.index()].depth + 1 != n.depth {
                return Err(format!("node {i} depth inconsistent with parent"));
            }
            if !self.nodes[p.index()].children.contains(&NodeId(i as u32)) {
                return Err(format!("node {i} missing from parent's child list"));
            }
        }
        let child_total: usize = self.nodes.iter().map(|n| n.children.len()).sum();
        if child_total != self.nodes.len() - 1 {
            return Err("child-link count does not match node count".into());
        }
        Ok(())
    }

    /// The root node `R(T) = T\[0\]`.
    pub fn root(&self) -> NodeId {
        NodeId(0)
    }

    /// Number of nodes `|T|`.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` if the tree has no nodes (never the case for built trees).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Access to a node's data.
    pub fn node(&self, id: NodeId) -> &TreeNode {
        &self.nodes[id.index()]
    }

    /// The node label `T[i].ℓ`.
    pub fn label(&self, id: NodeId) -> &str {
        &self.nodes[id.index()].label
    }

    /// The node depth `T[i].d`.
    pub fn depth(&self, id: NodeId) -> u32 {
        self.nodes[id.index()].depth
    }

    /// The node fan-out `T[i].f`.
    pub fn fan_out(&self, id: NodeId) -> usize {
        self.nodes[id.index()].children.len()
    }

    /// The node *density* `x.f̄`: number of children with distinct labels
    /// (Proposition 3).
    pub fn density(&self, id: NodeId) -> usize {
        let children = &self.nodes[id.index()].children;
        if children.len() < 2 {
            return children.len();
        }
        let mut labels: Vec<&str> = children
            .iter()
            .map(|c| self.nodes[c.index()].label.as_str())
            .collect();
        labels.sort_unstable();
        labels.dedup();
        labels.len()
    }

    /// The parent of a node.
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        self.nodes[id.index()].parent
    }

    /// The ordered children of a node.
    pub fn children(&self, id: NodeId) -> &[NodeId] {
        &self.nodes[id.index()].children
    }

    /// Iterates over all nodes in preorder.
    pub fn preorder(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Maximum depth over all nodes, `Max(depth(T))` of Proposition 2.
    /// Computed once when the tree is built.
    pub fn max_depth(&self) -> u32 {
        self.max_depth
    }

    /// Maximum fan-out over all nodes, `Max(fan-out(T))`. Computed once
    /// when the tree is built.
    pub fn max_fan_out(&self) -> usize {
        self.max_fan_out
    }

    /// Maximum density over all nodes, `Max(f̄an-out(T))` of Proposition 3.
    /// Computed once when the tree is built.
    pub fn max_density(&self) -> usize {
        self.max_density
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    /// The paper's Figure 1.a / Figure 6 document.
    pub(crate) fn figure1_doc() -> Document {
        parse(
            r#"<films>
                 <picture title="Rear Window">
                   <cast>
                     <star>Stewart</star>
                     <star>Kelly</star>
                   </cast>
                   <plot>spies</plot>
                 </picture>
               </films>"#,
        )
        .unwrap()
    }

    #[test]
    fn preorder_indices_match_definition1() {
        // Build without attributes/values for a pure-structure check.
        let doc =
            parse("<films><picture><cast><star/><star/></cast><plot/></picture></films>").unwrap();
        let result = TreeBuilder::new().build(&doc).unwrap();
        let t = &result.tree;
        let labels: Vec<_> = t.preorder().map(|id| t.label(id).to_string()).collect();
        assert_eq!(labels, ["films", "picture", "cast", "star", "star", "plot"]);
        assert_eq!(t.depth(NodeId(0)), 0);
        assert_eq!(t.depth(NodeId(2)), 2);
        assert_eq!(t.fan_out(NodeId(2)), 2);
    }

    #[test]
    fn attributes_become_sorted_children_before_elements() {
        let doc = parse(r#"<movie year="1954" name="Rear Window"><actor/></movie>"#).unwrap();
        let result = TreeBuilder::new()
            .content_mode(ContentMode::StructureOnly)
            .build(&doc)
            .unwrap();
        let t = &result.tree;
        let root = t.root();
        let child_labels: Vec<_> = t
            .children(root)
            .iter()
            .map(|&c| t.label(c).to_string())
            .collect();
        // Sorted by attribute name: "name" < "year", then sub-elements.
        assert_eq!(child_labels, ["name", "year", "actor"]);
        let kinds: Vec<_> = t.children(root).iter().map(|&c| t.node(c).kind).collect();
        assert_eq!(
            kinds,
            [NodeKind::Attribute, NodeKind::Attribute, NodeKind::Element]
        );
    }

    #[test]
    fn value_tokens_are_leaf_children() {
        let doc = figure1_doc();
        let result = TreeBuilder::new().build(&doc).unwrap();
        let t = &result.tree;
        let star_nodes: Vec<_> = t.preorder().filter(|&id| t.label(id) == "star").collect();
        assert_eq!(star_nodes.len(), 2);
        let first_star_children: Vec<_> = t
            .children(star_nodes[0])
            .iter()
            .map(|&c| t.label(c).to_string())
            .collect();
        assert_eq!(first_star_children, ["Stewart"]);
        assert_eq!(
            t.node(t.children(star_nodes[0])[0]).kind,
            NodeKind::ValueToken
        );
    }

    #[test]
    fn structure_only_drops_values() {
        let doc = figure1_doc();
        let result = TreeBuilder::new()
            .content_mode(ContentMode::StructureOnly)
            .build(&doc)
            .unwrap();
        let t = &result.tree;
        assert!(t
            .preorder()
            .all(|id| t.node(id).kind != NodeKind::ValueToken));
        // title attribute still present as a node, but without value tokens.
        assert!(t.preorder().any(|id| t.label(id) == "title"));
    }

    #[test]
    fn density_counts_distinct_labels() {
        let doc = parse("<cast><star/><star/><director/></cast>").unwrap();
        let result = TreeBuilder::new().build(&doc).unwrap();
        let t = &result.tree;
        assert_eq!(t.fan_out(t.root()), 3);
        assert_eq!(t.density(t.root()), 2);
    }

    #[test]
    fn max_statistics() {
        let doc = figure1_doc();
        let t = TreeBuilder::new().build(&doc).unwrap().tree;
        assert_eq!(t.max_depth(), 4); // films/picture/cast/star/Stewart
        assert!(t.max_fan_out() >= 3); // picture: title, cast, plot
        assert!(t.max_density() >= 2);
    }

    #[test]
    fn alignment_maps_cover_document() {
        let doc = figure1_doc();
        let result = TreeBuilder::new().build(&doc).unwrap();
        // Every element of the document appears in the map.
        let n_elems = doc.element_count();
        assert_eq!(result.element_nodes.len(), n_elems);
        // The title attribute maps to a node labeled "title".
        let picture = doc
            .find_child(doc.root_element().unwrap(), "picture")
            .unwrap();
        let attr_node = result.attribute_nodes[&(picture, 0)];
        assert_eq!(result.tree.label(attr_node), "title");
        // Its value tokens are "Rear" and "Window".
        let toks = &result.attr_token_nodes[&(picture, 0)];
        let labels: Vec<_> = toks
            .iter()
            .map(|&t| result.tree.label(t).to_string())
            .collect();
        assert_eq!(labels, ["Rear", "Window"]);
    }

    #[test]
    fn consistency_check_catches_bad_parent() {
        let nodes = vec![
            TreeNode {
                label: "a".into(),
                kind: NodeKind::Element,
                depth: 0,
                parent: None,
                children: vec![NodeId(1)],
            },
            TreeNode {
                label: "b".into(),
                kind: NodeKind::Element,
                depth: 2, // wrong: should be 1
                parent: Some(NodeId(0)),
                children: vec![],
            },
        ];
        let t = XmlTree::unfinished(nodes);
        assert!(t.check_consistency().is_err());
    }

    #[test]
    fn relabeled_preserves_structure_and_links() {
        let doc = figure1_doc();
        let mut t = TreeBuilder::new().build(&doc).unwrap().tree;
        t.add_link(NodeId(0), NodeId(2));
        let r = t.relabeled(|l| format!("{l}_x"));
        assert_eq!(r.len(), t.len());
        assert_eq!(r.link_count(), 1);
        assert!(r.check_consistency().is_ok());
        for id in t.preorder() {
            assert_eq!(r.label(id), format!("{}_x", t.label(id)));
            assert_eq!(r.depth(id), t.depth(id));
            assert_eq!(r.children(id), t.children(id));
            assert_eq!(r.node(id).kind, t.node(id).kind);
        }
    }

    #[test]
    fn single_node_tree_is_consistent() {
        let doc = parse("<only/>").unwrap();
        let t = TreeBuilder::new().build(&doc).unwrap().tree;
        assert_eq!(t.len(), 1);
        assert!(t.check_consistency().is_ok());
        assert_eq!(t.max_depth(), 0);
        assert_eq!(t.density(t.root()), 0);
    }
}
