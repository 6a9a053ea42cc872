//! The durable store's binary formats: codec round trips and hostile input.
//!
//! * **PULs** (`pul::codec`, the WAL payload): seeded PULs from
//!   `workload::pulgen` — parallel ones carrying their target labels,
//!   sequential ones targeting nodes no label knows — plus a hand-built PUL
//!   holding every operation kind, every tree kind, empty content, both
//!   `repC` forms, markup and non-ASCII text. Each decoded PUL's wire XML
//!   must be byte-equal to the original's.
//! * **Checkpoint images** (`xlabel::codec` inside `pul_store`'s framing):
//!   `Executor` and `ShardedExecutor` at 2 and 4 shards, after seeded churn
//!   and again after `compact()`, restore `deep_eq` (document and labeling)
//!   and consistent, with slabs no sparser than the identified-XML parse
//!   they replace.
//! * **Hostile input**: both decoders on truncation at every byte, a
//!   re-sealed bit-flip sweep, `u64::MAX` counts, 1 M-deep nesting,
//!   duplicate identifiers, unknown tags, invalid UTF-8 and trailing bytes.
//!   Every refusal is `XPUL-E07`; bytes that still decode give a sound
//!   session; nothing panics or aborts.
//!
//! The `#[ignore]`d sweep (run nightly with `--ignored`) repeats the seeded
//! random-mutation test over 200 more seeds.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

use pul::codec::{pul_from_bytes, pul_to_bytes};
use pul::xmlio::pul_to_xml;
use pul_store::checkpoint::{self, CheckpointState};
use pul_store::wal::RECORD_HEADER_LEN;
use workload::pulgen::{differential_case, generate_pul, generate_sequential_puls};
use workload::{PulGenConfig, SequentialConfig};
use xdm::codec::{put_bytes, put_varint};
use xmlpul::prelude::*;
use xmlpul::{Durable, DurableBackend, DurableOptions};

fn producer() -> ApplyOptions {
    ApplyOptions { validate: true, preserve_content_ids: true }
}

// ---------------------------------------------------------------------------
// PUL round trips
// ---------------------------------------------------------------------------

/// Every operation kind on `doc`, with its target labels: attribute, text
/// and element trees (attributes, mixed content), empty content, both `repC`
/// forms, markup and non-ASCII values, and one target no label knows.
fn every_kind(doc: &Document, labeling: &Labeling, first_id: u64) -> Pul {
    let root = doc.root().unwrap();
    let order = doc.preorder_from_root();
    let of_kind =
        |kind| order.iter().copied().filter(move |&n| n != root && doc.kind(n) == Ok(kind));
    let (e1, e2) = (
        of_kind(NodeKind::Element).next().unwrap(),
        of_kind(NodeKind::Element).next_back().unwrap(),
    );
    let text = of_kind(NodeKind::Text).next().unwrap();
    let mut tree = Document::with_first_id(first_id);
    let r = tree.new_element("ünïcode");
    let a = tree.new_attribute("k", "<\"quoted\" & 'apos'>");
    let t = tree.new_text("a < b & c > d ✓");
    let e = tree.new_element("empty");
    tree.set_root(r).unwrap();
    tree.add_attribute(r, a).unwrap();
    tree.append_child(r, t).unwrap();
    tree.append_child(r, e).unwrap();
    let tree = Tree::from_document(tree).unwrap();
    let ops = vec![
        UpdateOp::ins_before(e1, vec![Tree::text("before"), Tree::element("b")]),
        UpdateOp::ins_after(e1, vec![tree]),
        UpdateOp::ins_first(e2, vec![Tree::element_with_text("f", "")]),
        UpdateOp::ins_last(root, vec![]),
        UpdateOp::ins_into(e2, vec![Tree::element("into")]),
        UpdateOp::ins_attributes(e2, vec![Tree::attribute("new", "]]> &amp;")]),
        UpdateOp::delete(text),
        UpdateOp::replace_node(e1, vec![]),
        UpdateOp::replace_value(text, "line\nbreak\ttab\r中文"),
        UpdateOp::replace_content(e2, None),
        UpdateOp::replace_content(e1, Some(String::new())),
        UpdateOp::replace_content(root, Some("<markup/>".into())),
        UpdateOp::rename(999_999u64, "unlabeled"),
    ];
    Pul::from_ops(ops, labeling)
}

fn assert_pul_round_trips(pul: &Pul, ctx: &str) {
    let back = pul_from_bytes(&pul_to_bytes(pul)).unwrap_or_else(|e| panic!("{ctx}: {e}"));
    assert_eq!(pul_to_xml(&back), pul_to_xml(pul), "{ctx}: wire XML differs");
    assert_eq!(back.labels(), pul.labels(), "{ctx}: labels differ");
}

#[test]
fn puls_round_trip_through_the_binary_codec() {
    assert_pul_round_trips(&Pul::new(), "empty PUL");
    for seed in 0..30u64 {
        let case = differential_case(seed);
        let labeling = Labeling::assign(&case.doc);
        let mut puls = case.puls.clone();
        puls.push(generate_pul(
            &case.doc,
            &labeling,
            &PulGenConfig {
                n_ops: 60,
                reducible_ratio: 0.6,
                content_id_base: case.doc.next_id() + 50_000,
                seed: seed.wrapping_mul(7919),
            },
        ));
        puls.extend(generate_sequential_puls(
            &case.doc,
            &SequentialConfig { n_puls: 3, ops_per_pul: 30, new_node_ratio: 0.5, seed },
        ));
        puls.push(every_kind(&case.doc, &labeling, case.doc.next_id() + 90_000));
        let kinds: std::collections::HashSet<OpName> =
            puls.iter().flat_map(|p| p.ops().iter().map(|op| op.name())).collect();
        assert_eq!(kinds.len(), OpName::ALL.len(), "seed {seed}: every operation kind");
        assert!(puls.iter().any(|p| p.ops().iter().any(|op| p.label(op.target()).is_none())));
        for (i, pul) in puls.iter().enumerate() {
            assert_pul_round_trips(pul, &format!("seed {seed}, PUL {i}"));
        }
    }
}

// ---------------------------------------------------------------------------
// checkpoint round trips
// ---------------------------------------------------------------------------

/// Freezes `session` through the store's framing and restores it.
fn round_trip<B: DurableBackend>(session: &B) -> B {
    let image = checkpoint::encode(&session.checkpoint_state());
    B::restore(&checkpoint::decode(&image).unwrap()).unwrap()
}

/// Three rounds of seeded PULs generated against the oracle's document and
/// committed on the oracle and, through `commit`, on the session under test:
/// inserts, deletes, replacements and renames, so the arenas hold dead slots
/// and producer-chosen identifiers.
fn churn(seed: u64, oracle: &mut Executor, mut commit: impl FnMut(Pul)) {
    for round in 0..3u64 {
        let doc = oracle.document().clone();
        let pul = generate_pul(
            &doc,
            oracle.labeling(),
            &PulGenConfig {
                n_ops: 40,
                reducible_ratio: 0.2,
                content_id_base: doc.next_id() + 10,
                seed: seed * 31 + round,
            },
        );
        let id = oracle.submit(pul.clone());
        match oracle.commit() {
            Ok(_) => commit(pul),
            Err(_) => drop(oracle.withdraw(id)),
        }
    }
}

fn oracle(seed: u64) -> Executor {
    Executor::new(differential_case(seed).doc).policy(Policy::relaxed()).apply_options(producer())
}

/// The restored executor equals the live one and is no sparser than the
/// identified-XML parse and ascending label inserts the old format restored
/// through.
fn assert_executor_restores(session: &Executor, ctx: &str) {
    let restored = round_trip(session);
    assert!(restored.document().deep_eq(session.document()), "{ctx}: document");
    assert!(restored.labeling().deep_eq(session.labeling()), "{ctx}: labeling");
    assert_eq!(restored.version(), session.version(), "{ctx}: version");
    restored.assert_consistent();
    assert_restored_no_sparser(session.core(), restored.core(), ctx);
}

fn assert_restored_no_sparser(live: &ExecutorCore, restored: &ExecutorCore, ctx: &str) {
    let parsed = xdm::parser::parse_document_identified(&live.serialize_identified()).unwrap();
    let mut labels: Vec<NodeLabel> = live.labeling().iter().cloned().collect();
    labels.sort_unstable_by_key(|l| l.id);
    let mut ascending = Labeling::new();
    labels.into_iter().for_each(|l| ascending.insert(l));
    let (nodes, label_slab) = (restored.document().slab_stats(), restored.labeling().slab_stats());
    assert!(nodes.spill <= parsed.slab_stats().spill, "{ctx}: node spill {nodes:?}");
    assert!(label_slab.spill <= ascending.slab_stats().spill, "{ctx}: label spill {label_slab:?}");
}

#[test]
fn executor_checkpoints_round_trip_after_churn_and_compaction() {
    for seed in 0..12u64 {
        let mut session = oracle(seed);
        churn(seed, &mut oracle(seed), |pul| {
            session.submit(pul);
            session.commit().unwrap();
        });
        assert!(session.slab_stats().nodes.dead > 0, "seed {seed}: churn leaves dead slots");
        assert_executor_restores(&session, &format!("seed {seed}, churned"));
        session.compact().unwrap();
        assert_executor_restores(&session, &format!("seed {seed}, compacted"));
    }
}

fn assert_sharded_restores(session: &ShardedExecutor, ctx: &str) {
    let restored = round_trip(session);
    assert_eq!(restored.shard_count(), session.shard_count(), "{ctx}: shards");
    assert_eq!(restored.version(), session.version(), "{ctx}: version");
    for k in 0..session.shard_count() {
        let (live, back) = (session.shard(k), restored.shard(k));
        assert!(back.document().deep_eq(live.document()), "{ctx}: shard {k} document");
        assert!(back.labeling().deep_eq(live.labeling()), "{ctx}: shard {k} labeling");
        assert_eq!(back.version(), live.version(), "{ctx}: shard {k} version");
        assert_eq!(restored.shard_interval(k), session.shard_interval(k), "{ctx}: shard {k}");
    }
    assert!(restored.document().deep_eq(&session.document()), "{ctx}: reassembled document");
    restored.assert_consistent();
}

#[test]
fn sharded_checkpoints_round_trip_after_churn_and_compaction() {
    for seed in 0..6u64 {
        for shards in [2, 4] {
            let doc = differential_case(seed).doc;
            let mut session = ShardedExecutor::new(doc, shards)
                .unwrap()
                .policy(Policy::relaxed())
                .apply_options(producer());
            churn(seed, &mut oracle(seed), |pul| {
                let id = session.submit(pul);
                if session.commit().is_err() {
                    drop(session.withdraw(id));
                }
            });
            let ctx = format!("seed {seed}, {shards} shards");
            assert_sharded_restores(&session, &format!("{ctx}, churned"));
            session.compact().unwrap();
            assert_sharded_restores(&session, &format!("{ctx}, compacted"));
        }
    }
}

// ---------------------------------------------------------------------------
// hostile input
// ---------------------------------------------------------------------------

/// A small session after two commits (between-keys, inserted identifiers)
/// and its checkpoint state: the template every hostile image replaces the
/// shard image of.
fn template() -> (Executor, CheckpointState) {
    let mut session =
        Executor::parse("<lib k=\"v\"><b1 id=\"1\"><t>A</t></b1><b2><t>B</t>tail</b2><b3/></lib>")
            .unwrap();
    let b1 = session.document().find_element("b1").unwrap();
    let b3 = session.document().find_element("b3").unwrap();
    let pul = session.pul_from_ops(vec![
        UpdateOp::ins_after(b1, vec![Tree::element_with_text("n", "ü")]),
        UpdateOp::ins_attributes(b3, vec![Tree::attribute("a", "1")]),
    ]);
    session.submit(pul);
    session.commit().unwrap();
    let state = session.checkpoint_state();
    (session, state)
}

/// Restores `image` in the template's place, framed and sealed by the store
/// (a valid CRC): either an `XPUL-E07` refusal or a sound session — never a
/// panic. Returns whether it was refused.
fn restore_hostile(state: &CheckpointState, image: &[u8], ctx: &str) -> bool {
    let mut state = state.clone();
    state.shards[0].image = image.to_vec();
    let framed = checkpoint::decode(&checkpoint::encode(&state)).expect("the framing is sound");
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let restored = Executor::restore(&framed);
        if let Ok(session) = &restored {
            session.assert_consistent();
        }
        restored
    }));
    match outcome {
        Err(_) => panic!("{ctx}: restoring the image panicked"),
        Ok(Err(e)) => {
            assert_eq!(e.code(), "XPUL-E07", "{ctx}: {e}");
            true
        }
        Ok(Ok(_)) => false,
    }
}

/// Replays `pul_bytes` as a `D` record on a clone of `session`: bytes that
/// do not decode are refused with `XPUL-E07`; bytes that decode may apply or
/// fail like any record; the session stays consistent and nothing panics.
/// Returns whether the decoder refused them.
fn replay_hostile(session: &Executor, pul_bytes: &[u8], ctx: &str) -> bool {
    let refused = pul_from_bytes(pul_bytes).is_err();
    let mut payload = b"DP".to_vec();
    payload.extend_from_slice(pul_bytes);
    let mut session = session.clone();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let replayed = session.replay(&payload);
        session.assert_consistent();
        replayed
    }));
    match outcome {
        Err(_) => panic!("{ctx}: replaying the record panicked"),
        Ok(Err(e)) if refused => assert_eq!(e.code(), "XPUL-E07", "{ctx}: {e}"),
        Ok(Ok(())) if refused => panic!("{ctx}: bytes the decoder refuses replayed"),
        Ok(_) => {}
    }
    refused
}

/// A PUL touching the template's document with every parameter shape.
fn template_pul(session: &Executor) -> Pul {
    let doc = session.document();
    let b2 = doc.find_element("b2").unwrap();
    let t = doc.find_element("t").unwrap();
    let text = doc.children(t).unwrap()[0];
    let mut tree = Document::with_first_id(500);
    let r = tree.new_element("x");
    let a = tree.new_attribute("q", "w");
    let c = tree.new_text("y");
    tree.set_root(r).unwrap();
    tree.add_attribute(r, a).unwrap();
    tree.append_child(r, c).unwrap();
    session.pul_from_ops(vec![
        UpdateOp::ins_last(b2, vec![Tree::from_document(tree).unwrap(), Tree::text("z")]),
        UpdateOp::rename(t, "title"),
        UpdateOp::replace_value(text, "new"),
        UpdateOp::replace_content(b2, None),
        UpdateOp::delete(doc.find_element("b3").unwrap()),
    ])
}

/// Every single-bit flip of `bytes`, one at a time.
fn bit_flips(bytes: &[u8]) -> impl Iterator<Item = (usize, Vec<u8>)> + '_ {
    (0..bytes.len() * 8).map(move |bit| {
        let mut flipped = bytes.to_vec();
        flipped[bit / 8] ^= 1 << (bit % 8);
        (bit, flipped)
    })
}

#[test]
fn hostile_checkpoint_images_are_refused_or_restore_soundly() {
    let (_, state) = template();
    let image = state.shards[0].image.clone();
    assert!(!restore_hostile(&state, &image, "the template itself"));
    for cut in 0..image.len() {
        assert!(restore_hostile(&state, &image[..cut], &format!("cut at {cut}")));
    }
    let mut longer = image.clone();
    longer.push(0);
    assert!(restore_hostile(&state, &longer, "a trailing byte"));
    let refused = bit_flips(&image)
        .filter(|(bit, flipped)| restore_hostile(&state, flipped, &format!("bit {bit} flipped")))
        .count();
    assert!(refused > image.len(), "most flips must be refused, {refused} were");

    // Hand-built images: `<r>` holding whatever `body` lays out, behind an
    // extent of `nodes` identifiers from 1.
    let build = |nodes: u64, body: &[u8]| {
        let mut out = Vec::new();
        for v in [nodes, 1, nodes.saturating_sub(1)] {
            put_varint(&mut out, v);
        }
        out.extend_from_slice(body);
        out
    };
    let element =
        |out: &mut Vec<u8>, id: u64, name: &[u8], attrs: u64, kids: u64, keys: [&[u8]; 2]| {
            out.push(b'e');
            put_varint(out, id);
            put_bytes(out, name);
            put_varint(out, attrs);
            put_varint(out, kids);
            keys.iter().for_each(|k| put_bytes(out, k));
        };
    let mut leaf = Vec::new();
    element(&mut leaf, 1, b"r", 0, 0, [&[1], &[2]]);
    assert!(!restore_hostile(&state, &build(1, &leaf), "a one-node image"));
    let mut cases: Vec<(&str, Vec<u8>)> = Vec::new();
    cases.push(("u64::MAX nodes", build(u64::MAX, &leaf)));
    let mut body = Vec::new();
    element(&mut body, 1, b"r", u64::MAX, u64::MAX, [&[1], &[2]]);
    cases.push(("u64::MAX attributes and children", build(1, &body)));
    let mut body = vec![b'e', 1];
    put_varint(&mut body, u64::MAX);
    cases.push(("u64::MAX name length", build(1, &body)));
    let mut body = Vec::new();
    element(&mut body, 1, b"r", 0, 1, [&[1], &[9]]);
    element(&mut body, 1, b"c", 0, 0, [&[2], &[3]]);
    cases.push(("a duplicate identifier", build(2, &body)));
    let mut body = Vec::new();
    element(&mut body, 1, b"r", 0, 1, [&[1], &[9]]);
    body.extend_from_slice(&[b'x', 2, 0]);
    cases.push(("an unknown node tag", build(2, &body)));
    let mut body = Vec::new();
    element(&mut body, 1, b"\xC3\x28", 0, 0, [&[1], &[2]]);
    cases.push(("an invalid UTF-8 name", build(1, &body)));
    let mut body = Vec::new();
    element(&mut body, 1, b"r", 0, 0, [&[1, 0], &[2]]);
    cases.push(("a key ending in 0", build(1, &body)));
    let mut body = Vec::new();
    element(&mut body, 1, b"r", 0, 1, [&[5], &[9]]);
    element(&mut body, 2, b"c", 0, 0, [&[3], &[4]]);
    cases.push(("a child keyed before its parent", build(2, &body)));
    let mut body = Vec::new();
    element(&mut body, 1, b"r", 0, 0, [&[2], &[1]]);
    cases.push(("an end key before its start", build(1, &body)));
    for (what, image) in &cases {
        assert!(restore_hostile(&state, image, what), "{what} restored");
    }
}

#[test]
fn hostile_wal_payloads_are_refused_or_replay_soundly() {
    let (session, _) = template();
    let bytes = pul_to_bytes(&template_pul(&session));
    assert!(!replay_hostile(&session, &bytes, "the template PUL"));
    for cut in 0..bytes.len() {
        assert!(replay_hostile(&session, &bytes[..cut], &format!("cut at {cut}")));
    }
    let mut longer = bytes.clone();
    longer.push(0);
    assert!(replay_hostile(&session, &longer, "a trailing byte"));
    for (bit, flipped) in bit_flips(&bytes) {
        replay_hostile(&session, &flipped, &format!("bit {bit} flipped"));
    }

    let huge = |prefix: &[u8]| {
        let mut out = prefix.to_vec();
        put_varint(&mut out, u64::MAX);
        out
    };
    let cases: Vec<(&str, Vec<u8>)> = vec![
        ("u64::MAX operations", huge(&[])),
        ("u64::MAX content trees", huge(&[1, 3, 2, 0])),
        ("u64::MAX name length", huge(&[1, 10, 2, 0])),
        ("an unknown operation tag", vec![1, 11, 2, 0]),
        ("a label flag of 2", vec![1, 6, 2, 2]),
        ("a repC flag of 2", vec![1, 9, 2, 0, 2]),
        ("an invalid UTF-8 name", vec![1, 10, 2, 0, 2, 0xC3, 0x28]),
        ("a content tree repeating an identifier", {
            let mut out = vec![1, 3, 2, 0, 1];
            out.extend_from_slice(&[2, 7, 1, b'e', 7, 1, b'a', 0, 1, b't', 7, 0]);
            out
        }),
    ];
    for (what, bytes) in &cases {
        assert!(replay_hostile(&session, bytes, what), "{what} decoded");
    }
    // a sharded record announcing u64::MAX shard PULs is refused as well
    let mut sharded = b"SP".to_vec();
    put_varint(&mut sharded, u64::MAX);
    assert_eq!(session.clone().replay(&sharded).unwrap_err().code(), "XPUL-E07");
}

/// A chain of `depth` nested elements whose deepest one announces a child
/// that never comes: the decoders must walk it on the heap and refuse it.
fn deep_chain(depth: u64, keys: bool) -> Vec<u8> {
    let mut out = Vec::new();
    for v in [depth + 1, 1, depth] {
        put_varint(&mut out, v);
    }
    for id in 1..=depth {
        out.push(b'e');
        put_varint(&mut out, id);
        out.extend_from_slice(&[0, 0, 1]); // empty name, no attributes, one child
        if keys {
            // four nonzero base-255 digits, ascending with the identifier
            let digits: Vec<u8> =
                (0..4).rev().map(|j| 1 + (id / 255u64.pow(j) % 255) as u8).collect();
            put_bytes(&mut out, &digits);
            put_bytes(&mut out, &[255, 255, 255, 255, 255]);
        }
    }
    out
}

#[test]
fn million_deep_nesting_is_refused_without_overflowing_the_stack() {
    let (session, state) = template();
    assert!(restore_hostile(&state, &deep_chain(1_000_000, true), "a 1M-deep image"));
    let mut pul = vec![1, 3, 2, 0, 1]; // one insLast on node 2 with one tree
    pul.extend_from_slice(&deep_chain(1_000_000, false));
    assert!(replay_hostile(&session, &pul, "a 1M-deep content tree"));
}

/// A tiny seeded generator (xorshift64*), so mutation sweeps replay from
/// their seed alone.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// One random corruption of `bytes`: flipped bits, overwritten or inserted
/// or deleted bytes, a cut, or a slice repeated.
fn mutate(rng: &mut Rng, bytes: &[u8]) -> Vec<u8> {
    let mut out = bytes.to_vec();
    for _ in 0..1 + rng.below(3) {
        let at = rng.below(out.len());
        match rng.below(6) {
            0 => out[at] ^= 1 << rng.below(8),
            1 => out[at] = rng.next() as u8,
            2 => out.insert(at, rng.next() as u8),
            3 if out.len() > 1 => drop(out.remove(at)),
            4 => out.truncate(at),
            _ => {
                let end = (at + 1 + rng.below(16)).min(out.len());
                let slice = out[at..end].to_vec();
                out.splice(at..at, slice);
            }
        }
        if out.is_empty() {
            break;
        }
    }
    out
}

/// Seeded sessions (a generated document after one seeded commit) and a
/// seeded resolution PUL, each corrupted `rounds` times.
fn mutation_sweep(seed: u64, rounds: usize) {
    let case = differential_case(seed);
    let mut session = Executor::new(case.doc.clone()).policy(Policy::relaxed());
    let mut rng = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
    for pul in &case.puls {
        session.submit(pul.clone());
    }
    // The WAL payload is the seed's round as resolved (its first PUL when
    // the round is unsolvable); the image is the session after the commit,
    // or before it when the commit fails.
    let resolved = session.resolve().map(|r| r.into_pul()).unwrap_or_else(|_| case.puls[0].clone());
    drop(session.commit());
    let state = session.checkpoint_state();
    let image = state.shards[0].image.clone();
    let wal = pul_to_bytes(&resolved);
    for round in 0..rounds {
        let ctx = format!("seed {seed}, round {round}");
        restore_hostile(&state, &mutate(&mut rng, &image), &format!("{ctx}, image"));
        replay_hostile(&session, &mutate(&mut rng, &wal), &format!("{ctx}, WAL payload"));
    }
}

#[test]
fn seeded_mutations_are_refused_or_decode_soundly() {
    for seed in 0..3 {
        mutation_sweep(seed, 200);
    }
}

#[test]
#[ignore = "many-seed sweep, run nightly with --ignored"]
fn seeded_mutations_are_refused_or_decode_soundly_sweep() {
    for seed in 3..203 {
        mutation_sweep(seed, 200);
    }
}

// ---------------------------------------------------------------------------
// segment-level WAL damage
// ---------------------------------------------------------------------------

/// A fresh store directory under the system temp dir.
fn store_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xmlpul_binfmt_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Commits one `<eV>` entry per version `v` in `versions`.
fn commit_entries(durable: &mut Durable<Executor>, versions: std::ops::RangeInclusive<u64>) {
    for v in versions {
        let root = durable.document().root().unwrap();
        let pul = durable.pul_from_ops(vec![UpdateOp::ins_last(
            root,
            vec![Tree::element_with_text(format!("e{v}"), "entry")],
        )]);
        durable.submit(pul);
        assert_eq!(durable.commit().unwrap().version, v);
    }
}

/// Ten commits into a store at `dir`, checkpointed after v4 and v8. Segment 0
/// was sealed empty by the base checkpoint, sealed segment 1 holds v1..v4,
/// sealed segment 2 holds v5..v8, and the live segment 3 holds v9 and v10.
/// Returns the serialization at every version.
fn segmented_store(dir: &Path) -> Vec<String> {
    let session = Executor::parse("<log><head/></log>").unwrap();
    let mut durable = Durable::create(dir, session, DurableOptions::default()).unwrap();
    let mut history = vec![durable.serialize()];
    for v in 1..=10u64 {
        commit_entries(&mut durable, v..=v);
        history.push(durable.serialize());
        if v % 4 == 0 {
            durable.checkpoint().unwrap();
        }
    }
    assert_eq!(durable.checkpoints(), [0, 4, 8]);
    history
}

/// A byte flipped inside the middle frame of a sealed segment: `open`, whose
/// base checkpoint (v8) lies past the damage, recovers the right version;
/// reads served from checkpoints at or after v4, or from the intact prefix
/// before the damaged frame, still serve; a read whose replay crosses the
/// damage is refused with `XPUL-E07`.
#[test]
fn damage_in_a_sealed_segment_fails_only_the_reads_that_cross_it() {
    let dir = store_dir("sealed_damage");
    let history = segmented_store(&dir);
    let segment = dir.join("wal-000001.log");
    let mut bytes = std::fs::read(&segment).unwrap();
    let records = pul_store::wal::scan(&bytes).records;
    assert_eq!(records.iter().map(|r| r.version).collect::<Vec<_>>(), [1, 2, 3, 4]);
    let second = RECORD_HEADER_LEN + records[0].payload.len();
    bytes[second + RECORD_HEADER_LEN + records[1].payload.len() / 2] ^= 0x20;
    std::fs::write(&segment, &bytes).unwrap();

    let durable: Durable<Executor> =
        Durable::open(&dir, DurableOptions::default()).expect("the base checkpoint is intact");
    assert_eq!(durable.version(), 10);
    assert_eq!(durable.serialize(), history[10]);
    for v in [0, 1, 4, 5, 6, 7, 8, 9] {
        let at = durable.read_at(v).unwrap_or_else(|e| panic!("read_at({v}): {e}"));
        assert_eq!(at.serialize(), history[v as usize], "read_at({v})");
    }
    for v in [2, 3] {
        let err = durable.read_at(v).expect_err("a replay across the damage must fail");
        assert_eq!(err.code(), "XPUL-E07", "read_at({v}): {err}");
    }
    drop(durable);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The live segment copied under the next segment number holds every one of
/// its records twice: recovery must refuse the store with `XPUL-E07` rather
/// than replay a record onto the version it already produced.
#[test]
fn a_live_segment_duplicated_under_the_next_number_fails_to_open_with_e07() {
    let dir = store_dir("dup_segment");
    segmented_store(&dir);
    assert!(!dir.join("wal-000004.log").exists());
    std::fs::copy(dir.join("wal-000003.log"), dir.join("wal-000004.log")).unwrap();
    let err = Durable::<Executor>::open(&dir, DurableOptions::default())
        .expect_err("a store with a duplicated segment must not open");
    assert_eq!(err.code(), "XPUL-E07", "{err}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The live segment overwritten by a copy of an older sealed one ends at v4,
/// below the v8 base checkpoint: recovery must refuse the store with
/// `XPUL-E07` rather than open at v8 and silently lose v9 and v10.
#[test]
fn a_live_segment_overwritten_by_an_older_one_fails_to_open_with_e07() {
    let dir = store_dir("overwritten_segment");
    segmented_store(&dir);
    std::fs::copy(dir.join("wal-000001.log"), dir.join("wal-000003.log")).unwrap();
    let err = Durable::<Executor>::open(&dir, DurableOptions::default())
        .expect_err("a live segment ending below the base checkpoint must not open");
    assert_eq!(err.code(), "XPUL-E07", "{err}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The live segment deleted: sealed segment 2 ends at v8, exactly at the
/// last checkpoint. The segment after a checkpoint is created before the
/// checkpoint is renamed in, so no crash leaves this state; recovery must
/// refuse it with `XPUL-E07` rather than open at v8 and silently lose v9 and
/// v10.
#[test]
fn a_deleted_live_segment_fails_to_open_with_e07() {
    let dir = store_dir("deleted_segment");
    segmented_store(&dir);
    std::fs::remove_file(dir.join("wal-000003.log")).unwrap();
    let err = Durable::<Executor>::open(&dir, DurableOptions::default())
        .expect_err("a store missing its live segment must not open");
    assert_eq!(err.code(), "XPUL-E07", "{err}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A byte flipped inside v2's payload in the live segment, with the valid
/// frames of v3..v5 behind it: that is corruption with acknowledged commits
/// after it, not a torn tail. Recovery must refuse with `XPUL-E07` and leave
/// the segment byte for byte as it found it, instead of opening at v1 and
/// truncating v3..v5 away.
#[test]
fn damage_in_the_middle_of_the_live_segment_fails_to_open_with_e07() {
    let dir = store_dir("live_damage");
    let session = Executor::parse("<log><head/></log>").unwrap();
    let mut durable = Durable::create(&dir, session, DurableOptions::default()).unwrap();
    commit_entries(&mut durable, 1..=5);
    drop(durable);
    let segment = dir.join("wal-000001.log");
    let mut bytes = std::fs::read(&segment).unwrap();
    let records = pul_store::wal::scan(&bytes).records;
    assert_eq!(records.iter().map(|r| r.version).collect::<Vec<_>>(), [1, 2, 3, 4, 5]);
    let second = RECORD_HEADER_LEN + records[0].payload.len();
    bytes[second + RECORD_HEADER_LEN + records[1].payload.len() / 2] ^= 0x20;
    std::fs::write(&segment, &bytes).unwrap();

    let err = Durable::<Executor>::open(&dir, DurableOptions::default())
        .expect_err("damage with later commits behind it must not open");
    assert_eq!(err.code(), "XPUL-E07", "{err}");
    assert_eq!(std::fs::read(&segment).unwrap(), bytes, "a refused open changes no byte");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A checkpoint whose WAL rotation failed fails before its rename: no image
/// of v3 exists, and a reopen lands on v3 from the base checkpoint by
/// replaying the live segment.
#[test]
fn a_checkpoint_with_a_failed_rotation_reopens_at_its_version() {
    let dir = store_dir("failed_rotation");
    let session = Executor::parse("<log><head/></log>").unwrap();
    let mut durable = Durable::create(&dir, session, DurableOptions::default()).unwrap();
    commit_entries(&mut durable, 1..=3);
    durable.inject_faults(
        FaultPlan::new(1)
            .fail(xmlpul::fault_site::WAL_ROTATE, Trigger::Nth(1), FaultKind::Permanent)
            .arm(),
    );
    let err = durable.checkpoint().expect_err("the rotation fault fails the checkpoint");
    assert_eq!(err.code(), "XPUL-E07", "{err}");
    assert!(!dir.join("ckpt-000000000003.snap").exists(), "the image was never renamed in");
    let expected = durable.serialize();
    drop(durable);
    let reopened: Durable<Executor> = Durable::open(&dir, DurableOptions::default()).unwrap();
    assert_eq!(reopened.last_checkpoint(), Some(0));
    assert_eq!(reopened.version(), 3);
    assert_eq!(reopened.serialize(), expected);
    drop(reopened);
    std::fs::remove_dir_all(&dir).unwrap();
}
