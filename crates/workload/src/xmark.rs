//! XMark-shaped document generator.
//!
//! The generator reproduces the *shape* of the XMark auction-site documents
//! (regions/items, categories, people, open and closed auctions) with a
//! deterministic, seeded pseudo-random text payload. Absolute sizes are
//! controlled by [`XmarkConfig::target_nodes`]; the experiments of the paper
//! use documents between 1 MB and 256 MB, which we scale down proportionally
//! (the benchmark harness reports both node counts and serialized sizes so the
//! trends remain comparable).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xdm::{Document, NodeId};

/// Configuration of the generator.
#[derive(Debug, Clone)]
pub struct XmarkConfig {
    /// Approximate number of nodes (elements + attributes + text nodes).
    pub target_nodes: usize,
    /// RNG seed: equal seeds produce identical documents.
    pub seed: u64,
}

impl Default for XmarkConfig {
    fn default() -> Self {
        XmarkConfig { target_nodes: 2_000, seed: 42 }
    }
}

const REGIONS: [&str; 6] = ["africa", "asia", "australia", "europe", "namerica", "samerica"];
const WORDS: [&str; 16] = [
    "gold", "vintage", "rare", "mint", "boxed", "signed", "classic", "limited", "antique",
    "modern", "compact", "deluxe", "original", "restored", "portable", "heavy",
];

fn words(rng: &mut StdRng, n: usize) -> String {
    (0..n).map(|_| WORDS[rng.gen_range(0..WORDS.len())]).collect::<Vec<_>>().join(" ")
}

struct Builder {
    doc: Document,
    rng: StdRng,
}

impl Builder {
    fn el(&mut self, parent: NodeId, name: &str) -> NodeId {
        let e = self.doc.new_element(name);
        self.doc.append_child(parent, e).expect("append element");
        e
    }

    fn text_el(&mut self, parent: NodeId, name: &str, value: String) -> NodeId {
        let e = self.el(parent, name);
        let t = self.doc.new_text(value);
        self.doc.append_child(e, t).expect("append text");
        e
    }

    fn attr(&mut self, element: NodeId, name: &str, value: String) {
        let a = self.doc.new_attribute(name, value);
        self.doc.add_attribute(element, a).expect("add attribute");
    }

    fn item(&mut self, parent: NodeId, id: usize) {
        let item = self.el(parent, "item");
        self.attr(item, "id", format!("item{id}"));
        let name = words(&mut self.rng, 2);
        let location = words(&mut self.rng, 1);
        let quantity = format!("{}", self.rng.gen_range(1..5));
        self.text_el(item, "location", location);
        self.text_el(item, "quantity", quantity);
        self.text_el(item, "name", name);
        self.text_el(item, "payment", "Creditcard".to_string());
        let descr = self.el(item, "description");
        let n = self.rng.gen_range(3..8);
        let text = words(&mut self.rng, n);
        self.text_el(descr, "text", text);
    }

    fn person(&mut self, parent: NodeId, id: usize) {
        let person = self.el(parent, "person");
        self.attr(person, "id", format!("person{id}"));
        let name = words(&mut self.rng, 2);
        self.text_el(person, "name", name);
        self.text_el(person, "emailaddress", format!("mailto:{}@example.org", id));
        let addr = self.el(person, "address");
        let street = words(&mut self.rng, 2);
        let city = words(&mut self.rng, 1);
        let country = words(&mut self.rng, 1);
        self.text_el(addr, "street", street);
        self.text_el(addr, "city", city);
        self.text_el(addr, "country", country);
    }

    fn open_auction(&mut self, parent: NodeId, id: usize, n_items: usize, n_people: usize) {
        let auction = self.el(parent, "open_auction");
        self.attr(auction, "id", format!("open_auction{id}"));
        let initial = format!("{:.2}", self.rng.gen_range(1.0..200.0));
        self.text_el(auction, "initial", initial);
        let bidders = self.rng.gen_range(1..4);
        for _ in 0..bidders {
            let bidder = self.el(auction, "bidder");
            self.text_el(bidder, "date", "01/01/2001".to_string());
            let increase = format!("{:.2}", self.rng.gen_range(1.0..30.0));
            self.text_el(bidder, "increase", increase);
        }
        let current = format!("{:.2}", self.rng.gen_range(1.0..500.0));
        self.text_el(auction, "current", current);
        let itemref = self.el(auction, "itemref");
        let item_ref = format!("item{}", self.rng.gen_range(0..n_items.max(1)));
        self.attr(itemref, "item", item_ref);
        let seller = self.el(auction, "seller");
        let seller_ref = format!("person{}", self.rng.gen_range(0..n_people.max(1)));
        self.attr(seller, "person", seller_ref);
    }

    fn closed_auction(&mut self, parent: NodeId, n_items: usize, n_people: usize) {
        let auction = self.el(parent, "closed_auction");
        let seller = self.el(auction, "seller");
        let seller_ref = format!("person{}", self.rng.gen_range(0..n_people.max(1)));
        self.attr(seller, "person", seller_ref);
        let buyer = self.el(auction, "buyer");
        let buyer_ref = format!("person{}", self.rng.gen_range(0..n_people.max(1)));
        self.attr(buyer, "person", buyer_ref);
        let itemref = self.el(auction, "itemref");
        let item_ref = format!("item{}", self.rng.gen_range(0..n_items.max(1)));
        self.attr(itemref, "item", item_ref);
        let price = format!("{:.2}", self.rng.gen_range(1.0..500.0));
        self.text_el(auction, "price", price);
        self.text_el(auction, "date", "02/02/2002".to_string());
        let quantity = format!("{}", self.rng.gen_range(1..3));
        self.text_el(auction, "quantity", quantity);
    }

    fn category(&mut self, parent: NodeId, id: usize) {
        let cat = self.el(parent, "category");
        self.attr(cat, "id", format!("category{id}"));
        let name = words(&mut self.rng, 1);
        self.text_el(cat, "name", name);
        let descr = self.el(cat, "description");
        let n = self.rng.gen_range(2..6);
        let text = words(&mut self.rng, n);
        self.text_el(descr, "text", text);
    }
}

/// Generates an XMark-shaped document with approximately
/// [`XmarkConfig::target_nodes`] nodes. Node identifiers are assigned in
/// document order starting at 1 (the agreed identification algorithm of §4.1).
pub fn generate(config: &XmarkConfig) -> Document {
    let rng = StdRng::seed_from_u64(config.seed);
    let mut b = Builder { doc: Document::new(), rng };
    let site = b.doc.new_element("site");
    b.doc.set_root(site).expect("set root");

    // An item subtree is ~16 nodes, a person ~13, an open auction ~17, a closed
    // auction ~15, a category ~8. The default XMark proportions are roughly
    // items : people : open : closed : categories = 4 : 5 : 2 : 2 : 1.
    let unit = 4 * 16 + 5 * 13 + 2 * 17 + 2 * 15 + 8;
    let scale = (config.target_nodes / unit).max(1);
    let n_items = 4 * scale;
    let n_people = 5 * scale;
    let n_open = 2 * scale;
    let n_closed = 2 * scale;
    let n_categories = scale;

    let regions = b.el(site, "regions");
    let mut region_nodes = Vec::new();
    for r in REGIONS {
        region_nodes.push(b.el(regions, r));
    }
    for i in 0..n_items {
        let region = region_nodes[i % region_nodes.len()];
        b.item(region, i);
    }
    let categories = b.el(site, "categories");
    for i in 0..n_categories {
        b.category(categories, i);
    }
    let people = b.el(site, "people");
    for i in 0..n_people {
        b.person(people, i);
    }
    let open = b.el(site, "open_auctions");
    for i in 0..n_open {
        b.open_auction(open, i, n_items, n_people);
    }
    let closed = b.el(site, "closed_auctions");
    for _ in 0..n_closed {
        b.closed_auction(closed, n_items, n_people);
    }

    let mut doc = b.doc;
    doc.assign_preorder_ids(1);
    doc
}

#[cfg(test)]
mod tests {
    use super::*;
    use xdm::writer::write_document;

    #[test]
    fn generation_is_deterministic() {
        let a = generate(&XmarkConfig { target_nodes: 1000, seed: 7 });
        let b = generate(&XmarkConfig { target_nodes: 1000, seed: 7 });
        assert_eq!(write_document(&a), write_document(&b));
        let c = generate(&XmarkConfig { target_nodes: 1000, seed: 8 });
        assert_ne!(write_document(&a), write_document(&c));
    }

    #[test]
    fn node_count_tracks_target() {
        for target in [500usize, 2_000, 10_000] {
            let doc = generate(&XmarkConfig { target_nodes: target, ..XmarkConfig::default() });
            let n = doc.node_count();
            assert!(
                n as f64 > target as f64 * 0.5 && (n as f64) < target as f64 * 1.8,
                "target {target}, got {n}"
            );
        }
    }

    #[test]
    fn shape_has_the_xmark_sections() {
        let doc = generate(&XmarkConfig::default());
        for section in ["regions", "categories", "people", "open_auctions", "closed_auctions"] {
            assert!(doc.find_element(section).is_some(), "missing <{section}>");
        }
        assert!(!doc.find_elements("item").is_empty());
        assert!(!doc.find_elements("person").is_empty());
        // ids are preorder starting at 1
        let ids: Vec<u64> = doc.preorder_from_root().iter().map(|n| n.as_u64()).collect();
        assert_eq!(ids[0], 1);
        assert_eq!(*ids.last().unwrap() as usize, ids.len());
    }

    #[test]
    fn document_roundtrips_through_xml() {
        let doc = generate(&XmarkConfig { target_nodes: 600, seed: 3 });
        let xml = write_document(&doc);
        let back = xdm::parser::parse_document(&xml).unwrap();
        assert_eq!(back.node_count(), doc.node_count());
    }
}
