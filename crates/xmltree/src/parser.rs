//! A hand-written recursive-descent XML 1.0 parser.
//!
//! Supports the constructs the evaluation corpus needs (and the common ones
//! beyond it): elements, attributes with single or double quotes, text with
//! the five predefined entities plus decimal/hex character references, CDATA
//! sections, comments, processing instructions, the XML declaration, and
//! DOCTYPE declarations (skipped, including internal subsets).
//!
//! Whitespace-only text between elements is dropped; all other text is kept
//! verbatim (entity-resolved).

use crate::document::{DocNodeId, Document};
use crate::error::{ParseError, ParseErrorKind};

/// Is `c` a character the XML 1.0 `Char` production permits?
///
/// `Char ::= #x9 | #xA | #xD | [#x20-#xD7FF] | [#xE000-#xFFFD] |
/// [#x10000-#x10FFFF]` — surrogates are already unrepresentable as
/// `char`, so the checks left are the C0 controls (other than tab, LF,
/// CR) and the two non-characters `#xFFFE`/`#xFFFF`.
fn is_xml_char(c: char) -> bool {
    matches!(c,
        '\u{9}' | '\u{A}' | '\u{D}'
        | '\u{20}'..='\u{D7FF}'
        | '\u{E000}'..='\u{FFFD}'
        | '\u{10000}'..='\u{10FFFF}')
}

/// Resolves an entity name (the part between `&` and `;`) to its
/// character: the five predefined entities plus decimal/hex character
/// references. Numeric references are validated against the XML 1.0
/// `Char` production, so `&#0;` and the other forbidden control
/// characters are rejected rather than smuggled into content.
fn resolve_entity(name: &str) -> Option<char> {
    match name {
        "lt" => Some('<'),
        "gt" => Some('>'),
        "amp" => Some('&'),
        "apos" => Some('\''),
        "quot" => Some('"'),
        _ if name.starts_with("#x") => char_reference(&name[2..], 16),
        _ if name.starts_with('#') => char_reference(&name[1..], 10),
        _ => None,
    }
}

/// The character a reference's `digits` name in `radix`. Production [66]
/// allows digits only (after `&#`, or after a lowercase `&#x`);
/// `u32::from_str_radix` alone would also take a leading `+`.
fn char_reference(digits: &str, radix: u32) -> Option<char> {
    if !digits.chars().all(|c| c.is_digit(radix)) {
        return None;
    }
    let code = u32::from_str_radix(digits, radix).ok()?;
    char::from_u32(code).filter(|&c| is_xml_char(c))
}

/// May `b` start an XML name? (ASCII letters, `_`, `:`, and any
/// multi-byte UTF-8 lead/continuation byte.)
fn is_name_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b == b':' || b >= 0x80
}

/// May `b` continue an XML name?
fn is_name_char(b: u8) -> bool {
    is_name_start(b) || b.is_ascii_digit() || b == b'-' || b == b'.'
}

/// A recursive-descent XML parser over a string slice.
pub struct Parser<'a> {
    input: &'a [u8],
    pos: usize,
    line: u32,
    column: u32,
    depth: u32,
    /// Maximum element nesting depth before parsing fails (a stack-overflow
    /// guard for adversarial inputs: the parser recurses per element, and
    /// 2 MiB thread stacks comfortably hold ~256 frames in debug builds).
    /// Default 256.
    pub max_depth: u32,
}

impl<'a> Parser<'a> {
    /// Creates a parser over the given input.
    pub fn new(input: &'a str) -> Self {
        Self {
            input: input.as_bytes(),
            pos: 0,
            line: 1,
            column: 1,
            depth: 0,
            max_depth: 256,
        }
    }

    fn err(&self, kind: ParseErrorKind) -> ParseError {
        ParseError::new(kind, self.line, self.column)
    }

    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn peek_at(&self, offset: usize) -> Option<u8> {
        self.input.get(self.pos + offset).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
            self.column = 1;
        } else {
            self.column += 1;
        }
        Some(b)
    }

    fn starts_with(&self, s: &str) -> bool {
        self.input[self.pos..].starts_with(s.as_bytes())
    }

    fn consume(&mut self, s: &str) -> bool {
        if self.starts_with(s) {
            for _ in 0..s.len() {
                self.bump();
            }
            true
        } else {
            false
        }
    }

    fn expect(&mut self, s: &str) -> Result<(), ParseError> {
        if self.consume(s) {
            Ok(())
        } else {
            match self.peek() {
                Some(b) => Err(self.err(ParseErrorKind::UnexpectedChar(b as char))),
                None => Err(self.err(ParseErrorKind::UnexpectedEof)),
            }
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.bump();
        }
    }

    /// Scans until `delim` is found; returns the content before it and
    /// consumes the delimiter.
    fn take_until(&mut self, delim: &str, what: &str) -> Result<String, ParseError> {
        let start = self.pos;
        while self.pos < self.input.len() {
            if self.starts_with(delim) {
                let content = std::str::from_utf8(&self.input[start..self.pos])
                    .map_err(|_| {
                        self.err(ParseErrorKind::Malformed(format!(
                            "invalid UTF-8 in {what}"
                        )))
                    })?
                    .to_string();
                self.consume(delim);
                return Ok(content);
            }
            self.bump();
        }
        Err(self.err(ParseErrorKind::UnexpectedEof))
    }

    fn parse_name(&mut self) -> Result<String, ParseError> {
        let start = self.pos;
        match self.peek() {
            Some(b) if is_name_start(b) => {
                self.bump();
            }
            Some(b) => return Err(self.err(ParseErrorKind::InvalidName((b as char).to_string()))),
            None => return Err(self.err(ParseErrorKind::UnexpectedEof)),
        }
        while matches!(self.peek(), Some(b) if is_name_char(b)) {
            self.bump();
        }
        Ok(std::str::from_utf8(&self.input[start..self.pos])
            .map_err(|_| self.err(ParseErrorKind::InvalidName("<non-utf8>".into())))?
            .to_string())
    }

    fn parse_entity(&mut self) -> Result<char, ParseError> {
        // Caller consumed '&'.
        let start = self.pos;
        while self.pos < self.input.len() && self.peek() != Some(b';') {
            if self.pos - start > 10 {
                break;
            }
            self.bump();
        }
        let name = std::str::from_utf8(&self.input[start..self.pos])
            .unwrap_or("")
            .to_string();
        if self.peek() != Some(b';') {
            return Err(self.err(ParseErrorKind::InvalidEntity(name)));
        }
        self.bump(); // ';'
        resolve_entity(&name).ok_or_else(|| self.err(ParseErrorKind::InvalidEntity(name)))
    }

    fn parse_attr_value(&mut self) -> Result<String, ParseError> {
        let quote = match self.peek() {
            Some(q @ (b'"' | b'\'')) => {
                self.bump();
                q
            }
            Some(b) => return Err(self.err(ParseErrorKind::UnexpectedChar(b as char))),
            None => return Err(self.err(ParseErrorKind::UnexpectedEof)),
        };
        let mut value = String::new();
        loop {
            match self.peek() {
                Some(b) if b == quote => {
                    self.bump();
                    return Ok(value);
                }
                Some(b'&') => {
                    self.bump();
                    value.push(self.parse_entity()?);
                }
                Some(b'<') => return Err(self.err(ParseErrorKind::UnexpectedChar('<'))),
                Some(_) => {
                    // Collect a full UTF-8 codepoint.
                    let start = self.pos;
                    self.bump();
                    while self.pos < self.input.len() && (self.input[self.pos] & 0xC0) == 0x80 {
                        self.bump();
                    }
                    value.push_str(std::str::from_utf8(&self.input[start..self.pos]).map_err(
                        |_| self.err(ParseErrorKind::Malformed("invalid UTF-8".into())),
                    )?);
                }
                None => return Err(self.err(ParseErrorKind::UnexpectedEof)),
            }
        }
    }

    fn parse_text(&mut self) -> Result<String, ParseError> {
        let mut text = String::new();
        loop {
            match self.peek() {
                Some(b'<') | None => return Ok(text),
                Some(b'&') => {
                    self.bump();
                    text.push(self.parse_entity()?);
                }
                Some(_) => {
                    let start = self.pos;
                    while let Some(b) = self.peek() {
                        if b == b'<' || b == b'&' {
                            break;
                        }
                        self.bump();
                    }
                    text.push_str(std::str::from_utf8(&self.input[start..self.pos]).map_err(
                        |_| self.err(ParseErrorKind::Malformed("invalid UTF-8".into())),
                    )?);
                }
            }
        }
    }

    fn skip_doctype(&mut self) -> Result<(), ParseError> {
        // Caller consumed "<!DOCTYPE". Skip until the matching '>', allowing
        // internal subset brackets. A '>' (or bracket) inside a quoted
        // SYSTEM/PUBLIC literal is literal text and must not terminate the
        // declaration.
        let mut depth = 0usize;
        let mut quote: Option<u8> = None;
        loop {
            match self.bump() {
                Some(b) if quote == Some(b) => quote = None,
                Some(_) if quote.is_some() => {}
                Some(q @ (b'"' | b'\'')) => quote = Some(q),
                Some(b'[') => depth += 1,
                Some(b']') => depth = depth.saturating_sub(1),
                Some(b'>') if depth == 0 => return Ok(()),
                Some(_) => {}
                None => return Err(self.err(ParseErrorKind::UnexpectedEof)),
            }
        }
    }

    fn parse_element(
        &mut self,
        doc: &mut Document,
        parent: Option<DocNodeId>,
    ) -> Result<DocNodeId, ParseError> {
        // Caller consumed '<'.
        self.depth += 1;
        if self.depth > self.max_depth {
            return Err(self.err(ParseErrorKind::DepthExceeded {
                limit: self.max_depth,
            }));
        }
        let name = self.parse_name()?;
        let elem = doc.add_element(parent, name.clone());
        // Attributes.
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'/') => {
                    self.bump();
                    self.expect(">")?;
                    self.depth -= 1;
                    return Ok(elem);
                }
                Some(b'>') => {
                    self.bump();
                    break;
                }
                Some(b) if is_name_start(b) => {
                    let attr_name = self.parse_name()?;
                    self.skip_ws();
                    self.expect("=")?;
                    self.skip_ws();
                    let value = self.parse_attr_value()?;
                    doc.add_attribute(elem, attr_name, value)
                        .map_err(|e| ParseError::new(e.kind, self.line, self.column))?;
                }
                Some(b) => return Err(self.err(ParseErrorKind::UnexpectedChar(b as char))),
                None => return Err(self.err(ParseErrorKind::UnexpectedEof)),
            }
        }
        // Content.
        loop {
            if self.starts_with("</") {
                self.consume("</");
                let close = self.parse_name()?;
                if close != name {
                    return Err(self.err(ParseErrorKind::MismatchedTag {
                        expected: name,
                        found: close,
                    }));
                }
                self.skip_ws();
                self.expect(">")?;
                self.depth -= 1;
                return Ok(elem);
            } else if self.starts_with("<!--") {
                self.consume("<!--");
                let comment = self.take_until("-->", "comment")?;
                doc.add_comment(Some(elem), comment);
            } else if self.starts_with("<![CDATA[") {
                self.consume("<![CDATA[");
                let cdata = self.take_until("]]>", "CDATA section")?;
                doc.add_cdata(elem, cdata);
            } else if self.starts_with("<?") {
                self.consume("<?");
                let target = self.parse_name()?;
                self.skip_ws();
                let data = self.take_until("?>", "processing instruction")?;
                doc.add_pi(Some(elem), target, data.trim_end().to_string());
            } else if self.starts_with("<") {
                self.bump();
                self.parse_element(doc, Some(elem))?;
            } else if self.peek().is_none() {
                return Err(self.err(ParseErrorKind::UnexpectedEof));
            } else {
                let text = self.parse_text()?;
                if !text.chars().all(char::is_whitespace) {
                    doc.add_text(elem, text);
                }
            }
        }
    }

    /// Parses a complete document: optional XML declaration, prolog
    /// (comments, PIs, DOCTYPE), exactly one root element, optional epilog.
    pub fn parse_document(mut self) -> Result<Document, ParseError> {
        let mut doc = Document::new();
        // Byte-order mark.
        self.consume("\u{FEFF}");
        self.skip_ws();
        let is_decl = self.starts_with("<?xml")
            && matches!(self.peek_at(5), Some(b' ' | b'\t' | b'\r' | b'\n' | b'?'));
        if is_decl {
            self.consume("<?xml");
            self.take_until("?>", "XML declaration")?;
        }
        let mut saw_root = false;
        loop {
            self.skip_ws();
            if self.peek().is_none() {
                break;
            }
            if self.starts_with("<!--") {
                self.consume("<!--");
                let comment = self.take_until("-->", "comment")?;
                doc.add_comment(None, comment);
            } else if self.starts_with("<!DOCTYPE") {
                self.consume("<!DOCTYPE");
                self.skip_doctype()?;
            } else if self.starts_with("<?") {
                self.consume("<?");
                let target = self.parse_name()?;
                self.skip_ws();
                let data = self.take_until("?>", "processing instruction")?;
                doc.add_pi(None, target, data.trim_end().to_string());
            } else if self.starts_with("<") {
                if saw_root {
                    return Err(self.err(ParseErrorKind::InvalidStructure(
                        "multiple root elements".into(),
                    )));
                }
                self.bump();
                self.parse_element(&mut doc, None)?;
                saw_root = true;
            } else {
                return Err(self.err(ParseErrorKind::InvalidStructure(
                    "text content outside the root element".into(),
                )));
            }
        }
        if !saw_root {
            return Err(self.err(ParseErrorKind::InvalidStructure("no root element".into())));
        }
        Ok(doc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::document::DocNode;

    fn parse(s: &str) -> Document {
        Parser::new(s).parse_document().unwrap()
    }

    #[test]
    fn minimal_document() {
        let doc = parse("<a/>");
        assert_eq!(doc.name(doc.root_element().unwrap()), Some("a"));
    }

    #[test]
    fn nested_elements_in_order() {
        let doc = parse("<r><a/><b/><c/></r>");
        let root = doc.root_element().unwrap();
        let names: Vec<_> = doc
            .children(root)
            .iter()
            .map(|&c| doc.name(c).unwrap().to_string())
            .collect();
        assert_eq!(names, ["a", "b", "c"]);
    }

    #[test]
    fn attributes_both_quote_styles() {
        let doc = parse(r#"<m year="1954" title='Rear Window'/>"#);
        let root = doc.root_element().unwrap();
        assert_eq!(doc.attribute(root, "year"), Some("1954"));
        assert_eq!(doc.attribute(root, "title"), Some("Rear Window"));
    }

    #[test]
    fn text_with_entities() {
        let doc = parse("<t>Tom &amp; Jerry &lt;3 &#65;&#x42;</t>");
        let root = doc.root_element().unwrap();
        assert_eq!(doc.text_content(root), "Tom & Jerry <3 AB");
    }

    #[test]
    fn entity_in_attribute() {
        let doc = parse(r#"<t v="a&amp;b"/>"#);
        assert_eq!(doc.attribute(doc.root_element().unwrap(), "v"), Some("a&b"));
    }

    #[test]
    fn cdata_is_literal() {
        let doc = parse("<t><![CDATA[<not-a-tag> & raw]]></t>");
        let root = doc.root_element().unwrap();
        assert_eq!(doc.text_content(root), "<not-a-tag> & raw");
    }

    #[test]
    fn comments_preserved() {
        let doc = parse("<t><!-- hello --></t>");
        let root = doc.root_element().unwrap();
        let child = doc.children(root)[0];
        assert_eq!(doc.node(child), &DocNode::Comment(" hello ".into()));
    }

    #[test]
    fn xml_declaration_and_doctype_skipped() {
        let doc = parse(
            "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n<!DOCTYPE films [<!ELEMENT films (picture*)>]>\n<films/>",
        );
        assert_eq!(doc.name(doc.root_element().unwrap()), Some("films"));
    }

    #[test]
    fn processing_instruction_in_prolog() {
        let doc = parse("<?xml-stylesheet href=\"s.css\"?><r/>");
        let pi = doc.document_children()[0];
        match doc.node(pi) {
            DocNode::ProcessingInstruction { target, data } => {
                assert_eq!(target, "xml-stylesheet");
                assert_eq!(data, "href=\"s.css\"");
            }
            other => panic!("expected PI, got {other:?}"),
        }
    }

    #[test]
    fn whitespace_only_text_skipped() {
        let doc = parse("<r>\n  <a/>\n  <b/>\n</r>");
        let root = doc.root_element().unwrap();
        assert_eq!(doc.children(root).len(), 2);
    }

    #[test]
    fn mismatched_tag_error() {
        let err = Parser::new("<a></b>").parse_document().unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::MismatchedTag { .. }));
    }

    #[test]
    fn unexpected_eof_error() {
        let err = Parser::new("<a><b>").parse_document().unwrap_err();
        assert_eq!(err.kind, ParseErrorKind::UnexpectedEof);
    }

    #[test]
    fn duplicate_attribute_error() {
        let err = Parser::new(r#"<a x="1" x="2"/>"#)
            .parse_document()
            .unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::DuplicateAttribute(_)));
    }

    #[test]
    fn multiple_roots_rejected() {
        let err = Parser::new("<a/><b/>").parse_document().unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::InvalidStructure(_)));
    }

    #[test]
    fn empty_input_rejected() {
        let err = Parser::new("   ").parse_document().unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::InvalidStructure(_)));
    }

    #[test]
    fn unknown_entity_rejected() {
        let err = Parser::new("<a>&nope;</a>").parse_document().unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::InvalidEntity(_)));
    }

    #[test]
    fn forbidden_character_references_rejected() {
        // NUL, backspace, and unit separator are outside the XML 1.0
        // `Char` production; a reference to them must not resolve.
        for bad in ["&#0;", "&#8;", "&#x1F;", "&#x0;", "&#xFFFE;", "&#xFFFF;"] {
            let err = Parser::new(&format!("<t>{bad}</t>"))
                .parse_document()
                .unwrap_err();
            assert!(
                matches!(err.kind, ParseErrorKind::InvalidEntity(_)),
                "{bad}: expected InvalidEntity, got {:?}",
                err.kind
            );
        }
    }

    #[test]
    fn forbidden_character_reference_rejected_in_attribute() {
        let err = Parser::new(r#"<t v="&#0;"/>"#)
            .parse_document()
            .unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::InvalidEntity(_)));
    }

    #[test]
    fn boundary_character_references_accepted() {
        // Tab, LF, and CR are the only sub-0x20 characters XML permits.
        let doc = parse("<t>a&#x9;b&#xA;c&#xD;d&#x20;e</t>");
        let root = doc.root_element().unwrap();
        assert_eq!(doc.text_content(root), "a\tb\nc\rd e");
    }

    #[test]
    fn doctype_system_literal_containing_gt() {
        let doc = parse("<!DOCTYPE x SYSTEM \"a>b\"><x/>");
        assert_eq!(doc.name(doc.root_element().unwrap()), Some("x"));
    }

    #[test]
    fn doctype_public_literal_containing_brackets() {
        let doc = parse("<!DOCTYPE x PUBLIC '-//a>b//[c]//EN' \"u>r[l]\"><x/>");
        assert_eq!(doc.name(doc.root_element().unwrap()), Some("x"));
    }

    #[test]
    fn doctype_internal_subset_with_quoted_literals() {
        let doc = parse("<!DOCTYPE x [<!ENTITY e \"]>\">]><x/>");
        assert_eq!(doc.name(doc.root_element().unwrap()), Some("x"));
    }

    #[test]
    fn unterminated_doctype_literal_is_eof() {
        let err = Parser::new("<!DOCTYPE x SYSTEM \"a>b><x/>")
            .parse_document()
            .unwrap_err();
        assert_eq!(err.kind, ParseErrorKind::UnexpectedEof);
    }

    #[test]
    fn error_position_tracks_lines() {
        let err = Parser::new("<a>\n\n</b>").parse_document().unwrap_err();
        assert_eq!(err.line, 3);
    }

    #[test]
    fn unicode_content() {
        let doc = parse("<t attr=\"héllo\">çafé ☕</t>");
        let root = doc.root_element().unwrap();
        assert_eq!(doc.attribute(root, "attr"), Some("héllo"));
        assert_eq!(doc.text_content(root), "çafé ☕");
    }

    #[test]
    fn paper_figure1_doc1_parses() {
        let xml = r#"<?xml version="1.0"?>
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
        let doc = parse(xml);
        let films = doc.root_element().unwrap();
        let picture = doc.find_child(films, "picture").unwrap();
        assert_eq!(doc.attribute(picture, "title"), Some("Rear Window"));
        let cast = doc.find_child(picture, "cast").unwrap();
        assert_eq!(doc.element_children(cast).count(), 2);
    }

    #[test]
    fn nesting_beyond_max_depth_is_an_error() {
        let depth = 300;
        let mut s = String::new();
        for _ in 0..depth {
            s.push_str("<n>");
        }
        for _ in 0..depth {
            s.push_str("</n>");
        }
        let err = Parser::new(&s).parse_document().unwrap_err();
        assert_eq!(err.kind, ParseErrorKind::DepthExceeded { limit: 256 });
        // A raised limit accepts the same input.
        let mut p = Parser::new(&s);
        p.max_depth = 350;
        assert!(p.parse_document().is_ok());
    }

    #[test]
    fn deeply_nested_does_not_overflow_reasonably() {
        let depth = 200;
        let mut s = String::new();
        for i in 0..depth {
            s.push_str(&format!("<n{i}>"));
        }
        for i in (0..depth).rev() {
            s.push_str(&format!("</n{i}>"));
        }
        let doc = parse(&s);
        assert_eq!(doc.element_count(), depth);
    }
}
