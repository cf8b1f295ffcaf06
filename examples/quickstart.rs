//! Quickstart: disambiguate the paper's Figure 1 document and print the
//! semantically annotated result.
//!
//! Run with: `cargo run -p xsdf --example quickstart`

use xsdf::{Xsdf, XsdfConfig};

const DOC: &str = r#"<?xml version="1.0"?>
<films>
  <picture title="Rear Window">
    <director>Hitchcock</director>
    <year>1954</year>
    <genre>mystery</genre>
    <cast>
      <star>Stewart</star>
      <star>Kelly</star>
    </cast>
    <plot>A wheelchair bound photographer spies on his neighbors</plot>
  </picture>
</films>"#;

fn main() {
    // 1. A reference semantic network: the built-in MiniWordNet (use
    //    semnet::format::from_text to load your own WordNet export).
    let network = semnet::mini_wordnet();

    // 2. The framework with its default configuration (threshold 0 =
    //    disambiguate every node; sphere radius 2; concept-based process).
    let xsdf = Xsdf::new(network, XsdfConfig::default());

    // 3. Run the full pipeline on an XML string.
    let result = xsdf.disambiguate_str(DOC).expect("well-formed XML");

    println!(
        "Resolved {} of {} nodes:\n",
        result.assigned_count(),
        result.reports.len()
    );
    for report in &result.reports {
        if let Some((choice, score)) = &report.chosen {
            let sense = result.semantic_tree.sense(report.node).unwrap();
            println!(
                "  {:12} -> {:20} (score {:.3}, ambiguity {:.3})",
                report.label, sense.concept, score, report.ambiguity
            );
            let gloss = &network.concept(choice.primary()).gloss;
            println!("               \"{gloss}\"");
        }
    }

    println!(
        "\nAnnotated XML:\n{}",
        result.semantic_tree.to_annotated_xml()
    );
}
