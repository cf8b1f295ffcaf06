//! Pinned parse outcomes for small documents exercising every grammar
//! production, valid and invalid, ASCII and multi-byte.
//!
//! Each input maps to `Ok` with its element count, or to the error kind,
//! line and column the parser reports. A change to any of them is a
//! change in what the parser accepts or where it reports a failure.

use xsdf_xmltree::parse;
use xsdf_xmltree::ParseErrorKind::{self, *};

/// `Ok(element count)` or `Err((kind, line, column))`.
type Outcome = Result<usize, (ParseErrorKind, u32, u32)>;

fn outcome(input: &str) -> Outcome {
    parse(input)
        .map(|doc| doc.element_count())
        .map_err(|e| (e.kind, e.line, e.column))
}

fn err(kind: ParseErrorKind, line: u32, column: u32) -> Outcome {
    Err((kind, line, column))
}

fn fixtures() -> Vec<(&'static str, Outcome)> {
    vec![
        // Valid.
        ("<a/>", Ok(1)),
        ("<r><a/><b/><c/></r>", Ok(4)),
        ("<m year=\"1954\" title='Rear Window'/>", Ok(1)),
        ("<t>Tom &amp; Jerry &lt;3 &#65;&#x42;</t>", Ok(1)),
        ("<t v=\"a&amp;b\"/>", Ok(1)),
        ("<t><![CDATA[<not-a-tag> & raw]]></t>", Ok(1)),
        ("<t><!-- hello --></t>", Ok(1)),
        (
            "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n<!DOCTYPE films [<!ELEMENT films (p*)>]>\n<films/>",
            Ok(1),
        ),
        ("<!DOCTYPE x SYSTEM \"a>b\"><x/>", Ok(1)),
        ("<!DOCTYPE x PUBLIC '-//a>b//[c]//EN' \"u>r[l]\"><x/>", Ok(1)),
        ("<?xml-stylesheet href=\"s.css\"?><r/>", Ok(1)),
        ("<r>\n  <a/>\n  <b/>\n</r>", Ok(3)),
        ("<t attr=\"héllo\">çafé ☕</t>", Ok(1)),
        ("\u{FEFF}<bom/>", Ok(1)),
        (
            "<r><inner><deep attr='v'>text</deep></inner><?pi data ?></r>",
            Ok(3),
        ),
        ("<r><a/>tail<!--c-->more<b/></r>", Ok(3)),
        ("<e a1='x' a2=\"y\" a3='&#x20;'/>", Ok(1)),
        // Invalid: structure.
        (
            "<a></b>",
            err(
                MismatchedTag {
                    expected: "a".into(),
                    found: "b".into(),
                },
                1,
                7,
            ),
        ),
        ("<a><b>", err(UnexpectedEof, 1, 7)),
        (
            "<a/><b/>",
            err(InvalidStructure("multiple root elements".into()), 1, 5),
        ),
        ("   ", err(InvalidStructure("no root element".into()), 1, 4)),
        ("", err(InvalidStructure("no root element".into()), 1, 1)),
        (
            "text<a/>",
            err(
                InvalidStructure("text content outside the root element".into()),
                1,
                1,
            ),
        ),
        (
            "<a/>junk",
            err(
                InvalidStructure("text content outside the root element".into()),
                1,
                5,
            ),
        ),
        // Invalid: names, entities, attributes.
        ("<1bad/>", err(InvalidName("1".into()), 1, 2)),
        ("<a>&nope;</a>", err(InvalidEntity("nope".into()), 1, 10)),
        (
            "<a>&unterminated",
            err(InvalidEntity("unterminate".into()), 1, 16),
        ),
        ("<a x='1' x='2'/>", err(DuplicateAttribute("x".into()), 1, 15)),
        ("<a x=1/>", err(UnexpectedChar('1'), 1, 6)),
        ("<a x/>", err(UnexpectedChar('/'), 1, 5)),
        // Invalid: forbidden character references (and valid boundaries).
        ("<t>&#0;</t>", err(InvalidEntity("#0".into()), 1, 8)),
        ("<t>&#8;</t>", err(InvalidEntity("#8".into()), 1, 8)),
        ("<t>&#x1F;</t>", err(InvalidEntity("#x1F".into()), 1, 10)),
        ("<t>&#x9;&#xA;&#xD;</t>", Ok(1)),
        // Invalid: unterminated constructs.
        ("<t><!-- unterminated", err(UnexpectedEof, 1, 21)),
        ("<t><![CDATA[ unterminated", err(UnexpectedEof, 1, 26)),
        ("<?xml version='1.0'", err(UnexpectedEof, 1, 20)),
        ("<!DOCTYPE x SYSTEM \"a>b><x/>", err(UnexpectedEof, 1, 29)),
        // Error positions on later lines.
        (
            "<a>\n\n</b>",
            err(
                MismatchedTag {
                    expected: "a".into(),
                    found: "b".into(),
                },
                3,
                4,
            ),
        ),
        (
            "<a>\n  <b x='1'\n     x='2'/>\n</a>",
            err(DuplicateAttribute("x".into()), 3, 11),
        ),
    ]
}

#[test]
fn every_fixture_parses_to_its_pinned_outcome() {
    for (input, want) in fixtures() {
        assert_eq!(outcome(input), want, "input {input:?}");
    }
}
