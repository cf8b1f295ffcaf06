//! Table 4 — the qualitative feature comparison of RPD, VSD, and XSDF.
//!
//! A static checklist in the paper; here each feature claim is tied to the
//! module that implements it, so the table doubles as a feature index of
//! this repository.

use crate::json::json_object;
use crate::report::Table;

/// One feature row of Table 4.
#[derive(Debug, Clone)]
pub struct Feature {
    /// The feature as phrased by the paper.
    pub feature: &'static str,
    /// Whether RPD (reference 50 of the paper) has it.
    pub rpd: bool,
    /// Whether VSD (reference 29 of the paper) has it.
    pub vsd: bool,
    /// Whether XSDF has it.
    pub xsdf: bool,
    /// Where this repository implements it (for XSDF) or models it.
    pub implemented_in: &'static str,
}

json_object!(Feature {
    feature,
    rpd,
    vsd,
    xsdf,
    implemented_in
});

/// The full Table 4.
pub fn rows() -> Vec<Feature> {
    vec![
        Feature {
            feature: "Considers linguistic pre-processing",
            rpd: true,
            vsd: true,
            xsdf: true,
            implemented_in: "xsdf-lingproc (tokenize, stopwords, Porter stem)",
        },
        Feature {
            feature: "Considers tag tokenization (compound terms)",
            rpd: false,
            vsd: true,
            xsdf: true,
            implemented_in: "lingproc::Preprocessor::process_tag_name",
        },
        Feature {
            feature: "Addresses XML node ambiguity",
            rpd: false,
            vsd: false,
            xsdf: true,
            implemented_in: "xsdf::ambiguity (Definition 3)",
        },
        Feature {
            feature: "Integrates an inclusive XML structure context",
            rpd: false,
            vsd: true,
            xsdf: true,
            implemented_in: "xsdf::sphere (Definitions 4-5)",
        },
        Feature {
            feature: "Flexible w.r.t. context size",
            rpd: false,
            vsd: true,
            xsdf: true,
            implemented_in: "XsdfConfig::radius / Vsd::sigma",
        },
        Feature {
            feature: "Adopts relational information approach",
            rpd: false,
            vsd: true,
            xsdf: true,
            implemented_in: "xsdf::sphere context vectors (Definitions 6-7)",
        },
        Feature {
            feature: "Combines the results of various semantic similarity measures",
            rpd: false,
            vsd: false,
            xsdf: true,
            implemented_in: "semsim::CombinedSimilarity (Definition 9)",
        },
        Feature {
            feature: "Straightforward mathematical functions",
            rpd: false,
            vsd: false,
            xsdf: true,
            implemented_in: "closed-form Amb_Deg / context weights",
        },
        Feature {
            feature: "Disambiguates XML structure and content",
            rpd: false,
            vsd: false,
            xsdf: true,
            implemented_in: "ContentMode::StructureAndContent",
        },
    ]
}

/// Renders Table 4 as text.
pub fn render() -> String {
    let mut t = Table::new(["Feature", "RPD [50]", "VSD [29]", "XSDF", "Implemented in"]);
    let mark = |b: bool| if b { "V" } else { "x" };
    for f in rows() {
        t.row([
            f.feature,
            mark(f.rpd),
            mark(f.vsd),
            mark(f.xsdf),
            f.implemented_in,
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_papers_table4_pattern() {
        let rows = rows();
        assert_eq!(rows.len(), 9);
        // XSDF checks every box; RPD only the first; VSD five of nine.
        assert!(rows.iter().all(|f| f.xsdf));
        assert_eq!(rows.iter().filter(|f| f.rpd).count(), 1);
        assert_eq!(rows.iter().filter(|f| f.vsd).count(), 5);
    }

    #[test]
    fn renders_marks() {
        let text = render();
        assert!(text.contains("Addresses XML node ambiguity"));
        assert!(text.contains('V'));
        assert!(text.contains('x'));
    }
}
