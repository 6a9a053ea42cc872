//! SAX-style pull parsing and event serialization.
//!
//! The streaming PUL evaluator of §4.3 ("a specialized SAX parser and writer:
//! the original document is parsed generating a sequence of SAX events, that
//! are transformed on-the-fly applying the operations specified in the PUL and
//! immediately serialized to disk") is built on this module:
//!
//! * [`EventReader`] — a pull parser turning XML text into a stream of
//!   [`Event`]s, assigning node identifiers either *sequentially in document
//!   order* (the agreed identification algorithm of §4.1) or by reading them
//!   back from the *identified* serialization produced by
//!   [`crate::writer::write_document_identified`];
//! * [`EventWriter`] — an incremental serializer turning events back into XML
//!   (optionally re-embedding identifiers).

use std::collections::HashMap;

use crate::error::XdmError;
use crate::node::{NodeId, NodeKind};
use crate::writer::{escape_attr, escape_text, XAID_ATTR, XID_ATTR};
use crate::Result;

/// Processing-instruction target used to carry the identifier of the following
/// text node in the identified serialization.
pub const XTID_PI: &str = "xtid";

/// An attribute reported within a [`Event::StartElement`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttrEvent {
    /// Identifier of the attribute node.
    pub id: NodeId,
    /// Attribute name.
    pub name: String,
    /// Attribute value (entity-decoded).
    pub value: String,
}

/// A SAX-style parsing event carrying node identifiers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// Start of an element, together with all its attributes.
    StartElement {
        /// Identifier of the element node.
        id: NodeId,
        /// Element name.
        name: String,
        /// Attributes of the element.
        attributes: Vec<AttrEvent>,
    },
    /// A text node.
    Text {
        /// Identifier of the text node.
        id: NodeId,
        /// Text value (entity-decoded).
        value: String,
    },
    /// End of an element.
    EndElement {
        /// Identifier of the element node (same as the matching start event).
        id: NodeId,
        /// Element name.
        name: String,
    },
}

impl Event {
    /// Returns the identifier of the node this event refers to.
    pub fn node_id(&self) -> NodeId {
        match self {
            Event::StartElement { id, .. }
            | Event::Text { id, .. }
            | Event::EndElement { id, .. } => *id,
        }
    }
}

/// How the reader assigns identifiers to the nodes it encounters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IdMode {
    /// Assign identifiers sequentially in document order, starting at the given value.
    Sequential(u64),
    /// Read identifiers embedded in the identified serialization
    /// (`_xid`/`_xaid` attributes and `<?xtid ?>` processing instructions).
    Identified,
}

struct OpenElement {
    id: NodeId,
    name: String,
}

/// Decodes the five predefined entities plus decimal/hexadecimal character references.
pub fn decode_entities(s: &str) -> Result<String> {
    if !s.contains('&') {
        return Ok(s.to_string());
    }
    let mut out = String::with_capacity(s.len());
    let bytes = s.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'&' {
            let end = s[i..].find(';').map(|e| i + e).ok_or(XdmError::Parse {
                offset: i,
                message: "unterminated entity reference".into(),
            })?;
            let ent = &s[i + 1..end];
            match ent {
                "lt" => out.push('<'),
                "gt" => out.push('>'),
                "amp" => out.push('&'),
                "apos" => out.push('\''),
                "quot" => out.push('"'),
                _ if ent.starts_with("#x") || ent.starts_with("#X") => {
                    let code = u32::from_str_radix(&ent[2..], 16).map_err(|_| XdmError::Parse {
                        offset: i,
                        message: format!("invalid character reference &{ent};"),
                    })?;
                    out.push(char::from_u32(code).ok_or(XdmError::Parse {
                        offset: i,
                        message: format!("invalid code point &{ent};"),
                    })?);
                }
                _ if ent.starts_with('#') => {
                    let code: u32 = ent[1..].parse().map_err(|_| XdmError::Parse {
                        offset: i,
                        message: format!("invalid character reference &{ent};"),
                    })?;
                    out.push(char::from_u32(code).ok_or(XdmError::Parse {
                        offset: i,
                        message: format!("invalid code point &{ent};"),
                    })?);
                }
                _ => {
                    return Err(XdmError::Parse {
                        offset: i,
                        message: format!("unknown entity &{ent};"),
                    })
                }
            }
            i = end + 1;
        } else {
            // advance one UTF-8 character
            let ch_len = utf8_len(bytes[i]);
            out.push_str(&s[i..i + ch_len]);
            i += ch_len;
        }
    }
    Ok(out)
}

fn utf8_len(b: u8) -> usize {
    if b < 0x80 {
        1
    } else if b >> 5 == 0b110 {
        2
    } else if b >> 4 == 0b1110 {
        3
    } else {
        4
    }
}

/// A pull parser producing [`Event`]s from XML text.
pub struct EventReader<'a> {
    input: &'a str,
    pos: usize,
    mode: IdMode,
    next_seq: u64,
    keep_whitespace: bool,
    stack: Vec<OpenElement>,
    pending: Vec<Event>,
    pending_text_id: Option<NodeId>,
    finished: bool,
}

impl<'a> EventReader<'a> {
    /// Creates a reader assigning identifiers sequentially starting at 1.
    pub fn new(input: &'a str) -> Self {
        Self::with_mode(input, IdMode::Sequential(1))
    }

    /// Creates a reader reading embedded identifiers (identified serialization).
    pub fn identified(input: &'a str) -> Self {
        Self::with_mode(input, IdMode::Identified)
    }

    /// Creates a reader with an explicit identifier mode.
    pub fn with_mode(input: &'a str, mode: IdMode) -> Self {
        let next_seq = match mode {
            IdMode::Sequential(s) => s,
            IdMode::Identified => 1,
        };
        EventReader {
            input,
            pos: 0,
            mode,
            next_seq,
            keep_whitespace: false,
            stack: Vec::new(),
            pending: Vec::new(),
            pending_text_id: None,
            finished: false,
        }
    }

    /// Keep whitespace-only text nodes (they are skipped by default).
    pub fn keep_whitespace(mut self, keep: bool) -> Self {
        self.keep_whitespace = keep;
        self
    }

    fn bytes(&self) -> &'a [u8] {
        self.input.as_bytes()
    }

    fn err(&self, message: impl Into<String>) -> XdmError {
        XdmError::Parse { offset: self.pos, message: message.into() }
    }

    fn alloc_seq(&mut self) -> NodeId {
        let id = NodeId::new(self.next_seq);
        self.next_seq += 1;
        id
    }

    fn starts_with(&self, s: &str) -> bool {
        self.input[self.pos..].starts_with(s)
    }

    fn skip_until(&mut self, marker: &str) -> Result<()> {
        match self.input[self.pos..].find(marker) {
            Some(i) => {
                self.pos += i + marker.len();
                Ok(())
            }
            None => Err(self.err(format!("expected '{marker}' before end of input"))),
        }
    }

    fn read_name(&mut self) -> Result<String> {
        let start = self.pos;
        let bytes = self.bytes();
        while self.pos < bytes.len() {
            let b = bytes[self.pos];
            if b.is_ascii_alphanumeric() || matches!(b, b'_' | b'-' | b'.' | b':') || b >= 0x80 {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(self.err("expected a name"));
        }
        Ok(self.input[start..self.pos].to_string())
    }

    fn skip_ws(&mut self) {
        let bytes = self.bytes();
        while self.pos < bytes.len() && bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.pos < self.bytes().len() && self.bytes()[self.pos] == b {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", b as char)))
        }
    }

    fn read_attr_value(&mut self) -> Result<String> {
        let bytes = self.bytes();
        if self.pos >= bytes.len() {
            return Err(self.err("unexpected end of input in attribute value"));
        }
        let quote = bytes[self.pos];
        if quote != b'"' && quote != b'\'' {
            return Err(self.err("expected quoted attribute value"));
        }
        self.pos += 1;
        let start = self.pos;
        match self.input[self.pos..].find(quote as char) {
            Some(i) => {
                let raw = &self.input[start..start + i];
                self.pos = start + i + 1;
                decode_entities(raw)
            }
            None => Err(self.err("unterminated attribute value")),
        }
    }

    fn parse_start_element(&mut self) -> Result<Event> {
        // self.pos is just after '<'
        let name = self.read_name()?;
        let mut raw_attrs: Vec<(String, String)> = Vec::new();
        loop {
            self.skip_ws();
            let bytes = self.bytes();
            if self.pos >= bytes.len() {
                return Err(self.err("unexpected end of input in start tag"));
            }
            match bytes[self.pos] {
                b'>' => {
                    self.pos += 1;
                    break;
                }
                b'/' => {
                    self.pos += 1;
                    self.expect(b'>')?;
                    return self.finish_start(name, raw_attrs, true);
                }
                _ => {
                    let aname = self.read_name()?;
                    self.skip_ws();
                    self.expect(b'=')?;
                    self.skip_ws();
                    let value = self.read_attr_value()?;
                    raw_attrs.push((aname, value));
                }
            }
        }
        self.finish_start(name, raw_attrs, false)
    }

    fn finish_start(
        &mut self,
        name: String,
        raw_attrs: Vec<(String, String)>,
        self_closing: bool,
    ) -> Result<Event> {
        // Separate reserved identifier-carrying attributes from regular ones.
        let mut xid: Option<u64> = None;
        let mut xaid: HashMap<String, u64> = HashMap::new();
        let mut plain: Vec<(String, String)> = Vec::new();
        for (n, v) in raw_attrs {
            if n == XID_ATTR {
                xid = Some(
                    v.parse().map_err(|_| self.err(format!("invalid {XID_ATTR} value '{v}'")))?,
                );
            } else if n == XAID_ATTR {
                for pair in v.split_whitespace() {
                    let (an, aid) = pair
                        .rsplit_once(':')
                        .ok_or_else(|| self.err(format!("invalid {XAID_ATTR} entry '{pair}'")))?;
                    let aid: u64 = aid
                        .parse()
                        .map_err(|_| self.err(format!("invalid {XAID_ATTR} id '{aid}'")))?;
                    xaid.insert(an.to_string(), aid);
                }
            } else {
                plain.push((n, v));
            }
        }

        let elem_id = match self.mode {
            IdMode::Sequential(_) => self.alloc_seq(),
            IdMode::Identified => NodeId::new(xid.ok_or_else(|| {
                self.err(format!("element '{name}' lacks {XID_ATTR} in identified mode"))
            })?),
        };

        let mut attributes = Vec::with_capacity(plain.len());
        for (n, v) in plain {
            let aid = match self.mode {
                IdMode::Sequential(_) => self.alloc_seq(),
                IdMode::Identified => NodeId::new(*xaid.get(&n).ok_or_else(|| {
                    self.err(format!("attribute '{n}' of '{name}' lacks an id in {XAID_ATTR}"))
                })?),
            };
            attributes.push(AttrEvent { id: aid, name: n, value: v });
        }

        let start = Event::StartElement { id: elem_id, name: name.clone(), attributes };
        if self_closing {
            self.pending.push(Event::EndElement { id: elem_id, name });
        } else {
            self.stack.push(OpenElement { id: elem_id, name });
        }
        Ok(start)
    }

    fn parse_end_element(&mut self) -> Result<Event> {
        // self.pos is just after '</'
        let name = self.read_name()?;
        self.skip_ws();
        self.expect(b'>')?;
        let open = self
            .stack
            .pop()
            .ok_or_else(|| self.err(format!("unexpected closing tag </{name}>")))?;
        if open.name != name {
            return Err(self.err(format!(
                "mismatched closing tag: expected </{}>, found </{name}>",
                open.name
            )));
        }
        Ok(Event::EndElement { id: open.id, name })
    }

    fn make_text_event(&mut self, value: String) -> Result<Event> {
        let id = match self.mode {
            IdMode::Sequential(_) => self.alloc_seq(),
            IdMode::Identified => self.pending_text_id.take().ok_or_else(|| {
                self.err("text node lacks a preceding <?xtid?> instruction in identified mode")
            })?,
        };
        Ok(Event::Text { id, value })
    }

    fn next_event_inner(&mut self) -> Result<Option<Event>> {
        loop {
            if let Some(ev) = self.pending.pop() {
                return Ok(Some(ev));
            }
            if self.finished {
                return Ok(None);
            }
            if self.pos >= self.input.len() {
                if !self.stack.is_empty() {
                    return Err(self.err(format!(
                        "unexpected end of input: <{}> not closed",
                        self.stack.last().unwrap().name
                    )));
                }
                self.finished = true;
                return Ok(None);
            }
            if self.starts_with("<") {
                if self.starts_with("<?") {
                    // processing instruction: either an xtid carrier or ignorable
                    self.pos += 2;
                    let target = self.read_name().unwrap_or_default();
                    let start = self.pos;
                    self.skip_until("?>")?;
                    let content = self.input[start..self.pos - 2].trim();
                    if target == XTID_PI && self.mode == IdMode::Identified {
                        let id: u64 = content
                            .parse()
                            .map_err(|_| self.err(format!("invalid xtid value '{content}'")))?;
                        self.pending_text_id = Some(NodeId::new(id));
                        // An xtid carrier directly followed by markup (or the
                        // end of input) identifies an *empty* text node: emit
                        // it now, or the carrier would be silently dropped
                        // and the node lost on the round trip.
                        if self.pos >= self.input.len()
                            || (self.starts_with("<") && !self.starts_with("<![CDATA["))
                        {
                            return self.make_text_event(String::new()).map(Some);
                        }
                    }
                    continue;
                }
                if self.starts_with("<!--") {
                    self.pos += 4;
                    self.skip_until("-->")?;
                    continue;
                }
                if self.starts_with("<![CDATA[") {
                    self.pos += 9;
                    let start = self.pos;
                    self.skip_until("]]>")?;
                    let value = self.input[start..self.pos - 3].to_string();
                    if self.stack.is_empty() {
                        return Err(self.err("character data outside the root element"));
                    }
                    return self.make_text_event(value).map(Some);
                }
                if self.starts_with("<!DOCTYPE") || self.starts_with("<!doctype") {
                    // skip until the matching '>', tolerating an internal subset
                    let mut depth = 0usize;
                    while self.pos < self.input.len() {
                        match self.bytes()[self.pos] {
                            b'[' => depth += 1,
                            b']' => depth = depth.saturating_sub(1),
                            b'>' if depth == 0 => {
                                self.pos += 1;
                                break;
                            }
                            _ => {}
                        }
                        self.pos += 1;
                    }
                    continue;
                }
                if self.starts_with("</") {
                    self.pos += 2;
                    return self.parse_end_element().map(Some);
                }
                self.pos += 1; // consume '<'
                return self.parse_start_element().map(Some);
            }
            // character data
            let start = self.pos;
            let rel = self.input[self.pos..].find('<').unwrap_or(self.input.len() - self.pos);
            self.pos += rel;
            let raw = &self.input[start..self.pos];
            let is_ws = raw.chars().all(char::is_whitespace);
            if self.stack.is_empty() {
                if is_ws {
                    continue;
                }
                return Err(self.err("character data outside the root element"));
            }
            if is_ws && !self.keep_whitespace {
                continue;
            }
            let value = decode_entities(raw)?;
            return self.make_text_event(value).map(Some);
        }
    }

    /// Reads the next event, `Ok(None)` at end of input.
    pub fn next_event(&mut self) -> Result<Option<Event>> {
        self.next_event_inner()
    }
}

impl<'a> Iterator for EventReader<'a> {
    type Item = Result<Event>;

    fn next(&mut self) -> Option<Self::Item> {
        match self.next_event_inner() {
            Ok(Some(ev)) => Some(Ok(ev)),
            Ok(None) => None,
            Err(e) => {
                self.finished = true;
                Some(Err(e))
            }
        }
    }
}

/// Incremental XML serializer consuming [`Event`]s.
///
/// With `identified` set, node identifiers are re-embedded so that the output
/// can in turn be consumed by an identified [`EventReader`] — this is the
/// writer used by the streaming PUL evaluator.
pub struct EventWriter {
    out: String,
    identified: bool,
}

impl EventWriter {
    /// Creates a plain (non-identified) writer.
    pub fn new() -> Self {
        EventWriter { out: String::new(), identified: false }
    }

    /// Creates a writer that embeds node identifiers.
    pub fn identified() -> Self {
        EventWriter { out: String::new(), identified: true }
    }

    /// Writes a single event.
    pub fn write(&mut self, event: &Event) {
        match event {
            Event::StartElement { id, name, attributes } => {
                self.out.push('<');
                self.out.push_str(name);
                if self.identified {
                    self.out.push(' ');
                    self.out.push_str(XID_ATTR);
                    self.out.push_str("=\"");
                    self.out.push_str(&id.as_u64().to_string());
                    self.out.push('"');
                    if !attributes.is_empty() {
                        let pairs: Vec<String> = attributes
                            .iter()
                            .map(|a| format!("{}:{}", a.name, a.id.as_u64()))
                            .collect();
                        self.out.push(' ');
                        self.out.push_str(XAID_ATTR);
                        self.out.push_str("=\"");
                        self.out.push_str(&pairs.join(" "));
                        self.out.push('"');
                    }
                }
                for a in attributes {
                    self.out.push(' ');
                    self.out.push_str(&a.name);
                    self.out.push_str("=\"");
                    self.out.push_str(&escape_attr(&a.value));
                    self.out.push('"');
                }
                self.out.push('>');
            }
            Event::Text { id, value } => {
                if self.identified {
                    self.out.push_str("<?");
                    self.out.push_str(XTID_PI);
                    self.out.push(' ');
                    self.out.push_str(&id.as_u64().to_string());
                    self.out.push_str("?>");
                }
                self.out.push_str(&escape_text(value));
            }
            Event::EndElement { name, .. } => {
                self.out.push_str("</");
                self.out.push_str(name);
                self.out.push('>');
            }
        }
    }

    /// Writes every event of an iterator.
    pub fn write_all<'e>(&mut self, events: impl IntoIterator<Item = &'e Event>) {
        for e in events {
            self.write(e);
        }
    }

    /// Number of bytes produced so far.
    pub fn len(&self) -> usize {
        self.out.len()
    }

    /// Whether no output has been produced yet.
    pub fn is_empty(&self) -> bool {
        self.out.is_empty()
    }

    /// Finishes serialization and returns the produced XML.
    pub fn finish(self) -> String {
        self.out
    }
}

impl Default for EventWriter {
    fn default() -> Self {
        Self::new()
    }
}

/// Produces the event stream corresponding to a document subtree, using the
/// document's own node identifiers.
pub fn document_events(doc: &crate::Document, root: NodeId) -> Vec<Event> {
    fn rec(doc: &crate::Document, id: NodeId, out: &mut Vec<Event>) {
        let Ok(data) = doc.node(id) else { return };
        match data.kind {
            NodeKind::Text => {
                out.push(Event::Text { id, value: data.value.clone().unwrap_or_default() })
            }
            NodeKind::Attribute => {
                // standalone attribute: no event representation
            }
            NodeKind::Element => {
                let attributes = data
                    .attributes
                    .iter()
                    .filter_map(|&a| {
                        let ad = doc.node(a).ok()?;
                        Some(AttrEvent {
                            id: a,
                            name: ad.name.clone().unwrap_or_default(),
                            value: ad.value.clone().unwrap_or_default(),
                        })
                    })
                    .collect();
                let name = data.name.clone().unwrap_or_default();
                out.push(Event::StartElement { id, name: name.clone(), attributes });
                for &c in &data.children {
                    rec(doc, c, out);
                }
                out.push(Event::EndElement { id, name });
            }
        }
    }
    let mut out = Vec::new();
    rec(doc, root, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer;

    #[test]
    fn decode_entities_handles_all_predefined() {
        assert_eq!(
            decode_entities("a &lt; b &gt; c &amp; d &apos; e &quot; f").unwrap(),
            "a < b > c & d ' e \" f"
        );
        assert_eq!(decode_entities("&#65;&#x42;").unwrap(), "AB");
        assert!(decode_entities("&bogus;").is_err());
        assert!(decode_entities("&#xZZ;").is_err());
        assert!(decode_entities("&unterminated").is_err());
        assert_eq!(decode_entities("no entities").unwrap(), "no entities");
    }

    #[test]
    fn sequential_ids_follow_document_order() {
        let xml = "<issue volume=\"30\"><article><title>T</title></article><article/></issue>";
        let events: Vec<Event> = EventReader::new(xml).collect::<Result<Vec<_>>>().unwrap();
        // issue=1, volume=2, article=3, title=4, text=5, article2=6
        match &events[0] {
            Event::StartElement { id, name, attributes } => {
                assert_eq!(id.as_u64(), 1);
                assert_eq!(name, "issue");
                assert_eq!(attributes.len(), 1);
                assert_eq!(attributes[0].id.as_u64(), 2);
                assert_eq!(attributes[0].value, "30");
            }
            other => panic!("unexpected {other:?}"),
        }
        let ids: Vec<u64> = events
            .iter()
            .filter(|e| !matches!(e, Event::EndElement { .. }))
            .map(|e| e.node_id().as_u64())
            .collect();
        assert_eq!(ids, vec![1, 3, 4, 5, 6]);
        // last event closes the root
        assert!(
            matches!(events.last().unwrap(), Event::EndElement { name, .. } if name == "issue")
        );
    }

    #[test]
    fn empty_identified_text_nodes_survive() {
        // an xtid carrier with no following character data marks an *empty*
        // text node; it must produce a Text event, not vanish
        let xml = "<a _xid=\"1\"><?xtid 2?></a>";
        let events: Vec<Event> = EventReader::identified(xml).collect::<Result<Vec<_>>>().unwrap();
        assert!(
            events.iter().any(|e| matches!(e, Event::Text { id, value } if id.as_u64() == 2
                    && value.is_empty())),
            "empty text node lost: {events:?}"
        );
        // ... and only for the empty case: a carrier before CDATA still
        // feeds the CDATA text
        let xml = "<a _xid=\"1\"><?xtid 2?><![CDATA[x]]></a>";
        let events: Vec<Event> = EventReader::identified(xml).collect::<Result<Vec<_>>>().unwrap();
        let texts: Vec<_> = events.iter().filter(|e| matches!(e, Event::Text { .. })).collect();
        assert_eq!(texts.len(), 1);
        assert!(matches!(texts[0], Event::Text { id, value } if id.as_u64() == 2 && value == "x"));
    }

    #[test]
    fn whitespace_text_skipped_by_default_kept_on_request() {
        let xml = "<a>\n  <b/>\n</a>";
        let events: Vec<Event> = EventReader::new(xml).collect::<Result<Vec<_>>>().unwrap();
        assert!(events.iter().all(|e| !matches!(e, Event::Text { .. })));
        let events: Vec<Event> =
            EventReader::new(xml).keep_whitespace(true).collect::<Result<Vec<_>>>().unwrap();
        assert_eq!(events.iter().filter(|e| matches!(e, Event::Text { .. })).count(), 2);
    }

    #[test]
    fn comments_pis_doctype_and_cdata() {
        let xml = "<?xml version=\"1.0\"?><!DOCTYPE a [<!ELEMENT a ANY>]><a><!-- c --><![CDATA[x < y]]></a>";
        let events: Vec<Event> = EventReader::new(xml).collect::<Result<Vec<_>>>().unwrap();
        assert_eq!(events.len(), 3);
        assert!(matches!(&events[1], Event::Text { value, .. } if value == "x < y"));
    }

    #[test]
    fn malformed_inputs_error() {
        assert!(EventReader::new("<a><b></a>").collect::<Result<Vec<_>>>().is_err());
        assert!(EventReader::new("<a>").collect::<Result<Vec<_>>>().is_err());
        assert!(EventReader::new("text only").collect::<Result<Vec<_>>>().is_err());
        assert!(EventReader::new("<a x=noquote></a>").collect::<Result<Vec<_>>>().is_err());
        assert!(EventReader::new("</a>").collect::<Result<Vec<_>>>().is_err());
    }

    #[test]
    fn identified_roundtrip_through_writer_and_reader() {
        // Build a document, write it identified, read events back: identifiers must match.
        let mut d = crate::Document::new();
        let issue = d.new_element_with_id(10u64, "issue").unwrap();
        let vol = d.new_attribute_with_id(20u64, "volume", "30").unwrap();
        let art = d.new_element_with_id(30u64, "article").unwrap();
        let txt = d.new_text_with_id(40u64, "hello & bye").unwrap();
        d.set_root(issue).unwrap();
        d.add_attribute(issue, vol).unwrap();
        d.append_child(issue, art).unwrap();
        d.append_child(art, txt).unwrap();

        let xml = writer::write_document_identified(&d);
        let events: Vec<Event> = EventReader::identified(&xml).collect::<Result<Vec<_>>>().unwrap();
        let start_ids: Vec<u64> = events
            .iter()
            .filter(|e| !matches!(e, Event::EndElement { .. }))
            .map(|e| e.node_id().as_u64())
            .collect();
        assert_eq!(start_ids, vec![10, 30, 40]);
        match &events[0] {
            Event::StartElement { attributes, .. } => {
                assert_eq!(attributes[0].id.as_u64(), 20);
                assert_eq!(attributes[0].name, "volume");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn identified_mode_requires_ids() {
        let xml = "<a><b/></a>";
        assert!(EventReader::identified(xml).collect::<Result<Vec<_>>>().is_err());
    }

    #[test]
    fn event_writer_roundtrip() {
        let xml = "<issue volume=\"30\"><article><title>T &amp; U</title></article></issue>";
        let events: Vec<Event> = EventReader::new(xml).collect::<Result<Vec<_>>>().unwrap();
        let mut w = EventWriter::new();
        w.write_all(&events);
        let out = w.finish();
        // Re-parse and compare event streams (empty elements are written as <a></a>).
        let events2: Vec<Event> = EventReader::new(&out).collect::<Result<Vec<_>>>().unwrap();
        assert_eq!(events, events2);
    }

    #[test]
    fn identified_event_writer_roundtrip() {
        let xml = "<issue volume=\"30\"><article><title>T</title></article></issue>";
        let events: Vec<Event> = EventReader::new(xml).collect::<Result<Vec<_>>>().unwrap();
        let mut w = EventWriter::identified();
        w.write_all(&events);
        let out = w.finish();
        let events2: Vec<Event> =
            EventReader::identified(&out).collect::<Result<Vec<_>>>().unwrap();
        assert_eq!(events, events2);
    }

    #[test]
    fn document_events_match_reader_events() {
        let xml = "<issue volume=\"30\"><article><title>T</title></article><article/></issue>";
        let doc = crate::parser::parse_document(xml).unwrap();
        let from_doc = document_events(&doc, doc.root().unwrap());
        let from_reader: Vec<Event> = EventReader::new(xml).collect::<Result<Vec<_>>>().unwrap();
        assert_eq!(from_doc, from_reader);
    }
}
