//! Seeded input generator and sequential oracle.
//!
//! The generator keeps its own model of the document — the unit subtrees
//! with their live targets, and the identifiers it handed out for inserted
//! content — so producing a submission costs O(its operations): the document
//! is scanned once per set-up, never per submission. Labels and expected
//! outputs come from a sequential oracle session replaying the generated
//! inputs in generation order during set-up; its final serialization is what
//! every run is checked against.
//!
//! Equal seeds give byte-identical wire inputs. No generated operation fails:
//! producers own disjoint units, so submissions of different producers
//! commute and the oracle's order stands for every interleaving.

use std::collections::HashSet;

use crate::sut::{self, Document, Executor, Labeling, NodeId, Pul, Session, UnitNodes, UpdateOp};

/// SplitMix64: small, fast, and the same everywhere.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn chance(&mut self, p: f64) -> bool {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64 <= p
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    /// An independent stream for a sub-task.
    pub fn fork(&mut self, tag: u64) -> Rng {
        Rng::new(self.next_u64() ^ tag.wrapping_mul(0xA24B_AED4_963E_E407))
    }
}

/// One step of an input set: PULs that enter the session together and are
/// committed as one round.
pub struct Step {
    /// Parallel producer PULs, or — for [`StepKind::Chain`] — one producer's
    /// sequential PULs, aggregated on entry.
    pub puls: Vec<Pul>,
    pub kind: StepKind,
    /// Which load thread sends this step in the queue workloads.
    pub producer: usize,
    /// What the queue-fronted rungs and workloads enqueue for this step: the
    /// wire form of the submission itself (streams), or of the round's
    /// resolved PUL (bulk rounds, whose conflicting PULs only make sense
    /// reasoned on together).
    pub wire: String,
    /// Operations submitted by this step.
    pub ops: usize,
    /// Bit `k` is set when the step targets a unit of top-level section `k`.
    pub section_mask: u32,
}

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum StepKind {
    Parallel,
    Chain,
}

/// Steps that apply in order to a fresh clone of the base session, and the
/// oracle's serialization after the last one.
pub struct InputSet {
    pub steps: Vec<Step>,
    pub expected: String,
}

/// Everything a workload runs on.
pub struct Inputs {
    pub doc: Document,
    pub labeling: Labeling,
    pub sets: Vec<InputSet>,
}

impl Inputs {
    /// A fresh session over the base document (an O(document) clone).
    pub fn fresh_session(&self) -> Executor {
        sut::session(self.doc.clone(), self.labeling.clone())
    }

    pub fn total_ops(&self) -> usize {
        self.sets.iter().flat_map(|s| &s.steps).map(|s| s.ops).sum()
    }
}

// ---------------------------------------------------------------------------
// the generator's model
// ---------------------------------------------------------------------------

struct Unit {
    nodes: UnitNodes,
    /// Roots of this unit's own live inserted trees (insertable, deletable).
    own: Vec<NodeId>,
}

struct Model {
    units: Vec<Unit>,
    next_id: u64,
    /// Feeds unique names and values, so no two wire documents are equal.
    counter: u64,
}

impl Model {
    fn new(doc: &Document) -> Model {
        let units =
            sut::scan_units(doc).into_iter().map(|nodes| Unit { nodes, own: Vec::new() }).collect();
        Model { units, next_id: sut::next_free_id(doc), counter: 0 }
    }

    fn tick(&mut self) -> u64 {
        self.counter += 1;
        self.counter
    }

    /// A 3-node element tree with producer-chosen identifiers.
    fn tree(&mut self) -> (sut::Tree, u64) {
        let first = self.next_id;
        self.next_id += 3;
        let n = self.tick();
        (sut::content_tree(first, &format!("generated {n}")), first)
    }

    fn attribute(&mut self) -> sut::Tree {
        let id = self.next_id;
        self.next_id += 1;
        let n = self.tick();
        sut::attribute_tree(id, &format!("gen{n}"), &format!("v{n}"))
    }
}

fn pick<T: Copy>(rng: &mut Rng, items: &[T]) -> Option<T> {
    if items.is_empty() {
        None
    } else {
        Some(items[rng.below(items.len())])
    }
}

// ---------------------------------------------------------------------------
// submission streams (ingest_small, stack_mixed, recover_read)
// ---------------------------------------------------------------------------

/// Shape of a stream of small submissions.
#[derive(Clone, Copy)]
pub struct StreamSpec {
    pub doc_nodes: usize,
    pub submissions: usize,
    pub producers: usize,
    /// Share of submissions that are medium (32–64 operations over as many
    /// units); the rest carry 1–4 operations on one unit.
    pub medium_share: f64,
    /// Share of small submissions that reuse the unit — and the sibling gap —
    /// of the same producer's previous submission, forcing the queue's
    /// serialize path.
    pub gap_share: f64,
}

/// Small operations on one unit. `force_gap` adds the `insLast` on the unit
/// root that a gap-sharing pair collides on.
fn small_ops(
    model: &mut Model,
    rng: &mut Rng,
    unit: usize,
    count: usize,
    force_gap: bool,
    ops: &mut Vec<UpdateOp>,
    inserted: &mut Vec<(usize, NodeId)>,
) {
    let mut used: HashSet<(NodeId, u8)> = HashSet::new();
    if force_gap {
        let root = model.units[unit].nodes.root;
        let (tree, first) = model.tree();
        used.insert((root, 2));
        ops.push(UpdateOp::ins_last(root, vec![tree]));
        inserted.push((unit, NodeId::new(first)));
    }
    let mut attempts = 0;
    while ops.len() < count && attempts < 4 * count {
        attempts += 1;
        let roll = rng.below(100);
        let op = if roll < 35 {
            let Some(e) = pick(rng, &model.units[unit].nodes.elements) else { continue };
            if !used.insert((e, 0)) {
                continue;
            }
            UpdateOp::rename(e, format!("n{}", model.tick()))
        } else if roll < 70 {
            let Some(t) = pick(rng, &model.units[unit].nodes.texts) else { continue };
            if !used.insert((t, 1)) {
                continue;
            }
            UpdateOp::replace_value(t, format!("v{}", model.tick()))
        } else if roll < 85 || model.units[unit].own.is_empty() {
            let target = if rng.chance(0.5) {
                model.units[unit].nodes.root
            } else {
                pick(rng, &model.units[unit].nodes.elements).unwrap_or(model.units[unit].nodes.root)
            };
            if !used.insert((target, 2)) {
                continue;
            }
            let (tree, first) = model.tree();
            inserted.push((unit, NodeId::new(first)));
            UpdateOp::ins_last(target, vec![tree])
        } else {
            let own = &mut model.units[unit].own;
            let victim = own.swap_remove(rng.below(own.len()));
            UpdateOp::delete(victim)
        };
        ops.push(op);
    }
}

/// Generates a stream and replays it through the oracle, in generation order.
pub fn stream(seed: u64, spec: StreamSpec) -> Inputs {
    let mut rng = Rng::new(seed);
    let doc = sut::xmark(spec.doc_nodes, rng.next_u64());
    let labeling = sut::assign_labels(&doc);
    let mut model = Model::new(&doc);
    let sections = model.units.iter().map(|u| u.nodes.section).max().map_or(1, |m| m + 1);

    // Producers own disjoint units, dealt round-robin in document order so
    // every producer reaches every section.
    let mut owned: Vec<Vec<usize>> = vec![Vec::new(); spec.producers];
    for unit in 0..model.units.len() {
        owned[unit % spec.producers].push(unit);
    }
    for units in &mut owned {
        rng.shuffle(units);
    }
    let mut cursor = vec![0usize; spec.producers];
    let mut previous: Vec<Option<usize>> = vec![None; spec.producers];
    let next_unit = |p: usize, cursor: &mut Vec<usize>| {
        let unit = owned[p][cursor[p] % owned[p].len()];
        cursor[p] += 1;
        unit
    };

    let mut oracle = sut::session(doc.clone(), labeling.clone());
    let mut steps = Vec::with_capacity(spec.submissions);
    let mut pair_open = vec![false; spec.producers];
    // Sizes and kinds follow fixed rotations from seeded starting points, not
    // independent draws: the share of medium submissions, of gap-sharing
    // pairs and the operation counts are then the same for every seed, and
    // what differs between seeds is which nodes are hit, not how much work a
    // round holds.
    let (small_phase, medium_phase) = (rng.below(4), rng.below(33));
    let due = |i: usize, share: f64| ((i + 1) as f64 * share).floor() > (i as f64 * share).floor();
    let (mut mediums, mut smalls) = (0usize, 0usize);
    for i in 0..spec.submissions {
        let p = i % spec.producers;
        let mut ops = Vec::new();
        let mut inserted = Vec::new();
        let mut units_hit: Vec<usize> = Vec::new();
        if due(i / spec.producers, spec.medium_share) {
            // Medium: one operation per unit. Half of them stay inside one
            // top-level section; the others draw units wherever the cursor
            // lands, which spans every section of the document.
            let count = 32 + (medium_phase + 13 * mediums) % 33;
            // Confined ones take the sections in turn, so every round holds
            // the same mix of them whatever the seed.
            let home = (mediums % 2 == 0).then_some((mediums / 2) % sections);
            mediums += 1;
            let mut scanned = 0;
            while ops.len() < count && scanned < 64 * count {
                scanned += 1;
                let unit = next_unit(p, &mut cursor);
                let section = model.units[unit].nodes.section;
                if units_hit.contains(&unit) || home.is_some_and(|home| home != section) {
                    continue;
                }
                let before = ops.len();
                small_ops(&mut model, &mut rng, unit, before + 1, false, &mut ops, &mut inserted);
                if ops.len() > before {
                    units_hit.push(unit);
                }
            }
            pair_open[p] = false;
        } else {
            let count = 1 + (small_phase + smalls) % 4;
            smalls += 1;
            let second_of_pair = pair_open[p];
            let unit = match previous[p] {
                Some(unit) if second_of_pair => unit,
                _ => next_unit(p, &mut cursor),
            };
            // The first of a gap-sharing pair is chosen here, so that it
            // already carries the colliding insertion.
            let first_of_pair = !second_of_pair && due(smalls / spec.producers, spec.gap_share);
            let force = first_of_pair || second_of_pair;
            small_ops(&mut model, &mut rng, unit, count, force, &mut ops, &mut inserted);
            pair_open[p] = first_of_pair;
            previous[p] = Some(unit);
            units_hit.push(unit);
        }
        // The oracle commits each submission before the next is generated:
        // labels of own earlier inserts exist by the time they are targeted.
        let pul = sut::pul_from_ops(ops, sut::labeling_of(&oracle));
        let wire = sut::encode_pul(&pul);
        oracle.submit_pul(pul.clone());
        oracle.commit_round().expect("generated submissions always commit");
        for (unit, root) in inserted {
            model.units[unit].own.push(root);
        }
        let section_mask =
            units_hit.iter().fold(0u32, |mask, &u| mask | 1 << model.units[u].nodes.section);
        steps.push(Step {
            ops: pul.len(),
            puls: vec![pul],
            kind: StepKind::Parallel,
            producer: p,
            wire,
            section_mask,
        });
    }
    let expected = oracle.to_xml();
    oracle.check_consistent();
    Inputs { doc, labeling, sets: vec![InputSet { steps, expected }] }
}

// ---------------------------------------------------------------------------
// bulk rounds (bulk_reason)
// ---------------------------------------------------------------------------

/// Shape of the paper-regime rounds (Fig. 6.b–e).
#[derive(Clone, Copy)]
pub struct BulkSpec {
    pub doc_nodes: usize,
    pub sets: usize,
    pub parallel_puls: usize,
    pub ops_per_parallel_pul: usize,
    /// Successful reduction-rule applications per operation.
    pub reducible_ratio: f64,
    /// Share of the parallel operations that sit in an injected conflict.
    pub conflict_fraction: f64,
    pub ops_per_conflict: usize,
    pub chain_puls: usize,
    pub ops_per_chain_pul: usize,
    /// Share of chain operations that target nodes an earlier PUL of the
    /// chain inserted.
    pub new_node_ratio: f64,
}

/// Phase A: parallel producer PULs over disjoint units, with reducible pairs
/// inside each PUL and conflicts injected across them on dedicated units.
fn parallel_puls(
    model: &mut Model,
    rng: &mut Rng,
    spec: &BulkSpec,
    conflict_units: &[usize],
    producer_units: &[Vec<usize>],
    labeling: &Labeling,
) -> Vec<Pul> {
    let n = spec.parallel_puls;
    let mut per_pul: Vec<Vec<UpdateOp>> = vec![Vec::new(); n];

    // 1. conflicts, cycling through the five types of Fig. 3
    let involved = spec.ops_per_conflict.clamp(2, n);
    for (c, &unit) in conflict_units.iter().enumerate() {
        let mut parts: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut parts);
        let parts = &parts[..involved];
        let root = model.units[unit].nodes.root;
        let texts = model.units[unit].nodes.texts.clone();
        let elements = model.units[unit].nodes.elements.clone();
        match c % 5 {
            0 if !texts.is_empty() => {
                let t = texts[rng.below(texts.len())];
                for (j, &p) in parts.iter().enumerate() {
                    per_pul[p].push(UpdateOp::replace_value(t, format!("conflict{c} v{j}")));
                }
            }
            1 => {
                for (j, &p) in parts.iter().enumerate() {
                    let id = model.next_id;
                    model.next_id += 1;
                    let attr = sut::attribute_tree(id, &format!("conf{c}"), &format!("v{j}"));
                    per_pul[p].push(UpdateOp::ins_attributes(root, vec![attr]));
                }
            }
            2 => {
                for &p in parts {
                    per_pul[p].push(UpdateOp::ins_after(root, vec![model.tree().0]));
                }
            }
            3 => {
                per_pul[parts[0]].push(UpdateOp::delete(root));
                for (j, &p) in parts.iter().enumerate().skip(1) {
                    per_pul[p].push(UpdateOp::rename(root, format!("conf{c}n{j}")));
                }
            }
            _ => {
                per_pul[parts[0]].push(UpdateOp::delete(root));
                for (j, &p) in parts.iter().enumerate().skip(1) {
                    let d = elements[j % elements.len()];
                    per_pul[p].push(UpdateOp::rename(d, format!("conf{c}d{j}")));
                }
            }
        }
    }

    // 2. per PUL: reducible pairs, then independent fill, inside its own units
    let pairs = (spec.ops_per_parallel_pul as f64 * spec.reducible_ratio).round() as usize;
    for (p, ops) in per_pul.iter_mut().enumerate() {
        let units = &producer_units[p];
        let mut used: HashSet<(NodeId, u8)> = HashSet::new();
        let mut pair_targets: HashSet<NodeId> = HashSet::new();
        let mut made = 0;
        let mut attempts = 0;
        while made < pairs && ops.len() + 2 <= spec.ops_per_parallel_pul && attempts < 8 * pairs {
            attempts += 1;
            let unit = units[rng.below(units.len())];
            let Some(target) = pick(rng, &model.units[unit].nodes.elements) else { continue };
            if !pair_targets.insert(target) {
                continue;
            }
            match made % 4 {
                // O1: a rename overridden by the deletion of the same node
                0 => {
                    used.insert((target, 0));
                    ops.push(UpdateOp::rename(target, format!("renamed{}", model.tick())));
                    ops.push(UpdateOp::delete(target));
                }
                // I5: two insertions of one type on one node
                1 => {
                    ops.push(UpdateOp::ins_last(target, vec![model.tree().0]));
                    ops.push(UpdateOp::ins_last(target, vec![model.tree().0]));
                }
                // I7: ins↓ folded into ins↘ on the same node
                2 => {
                    ops.push(UpdateOp::ins_into(target, vec![model.tree().0]));
                    ops.push(UpdateOp::ins_last(target, vec![model.tree().0]));
                }
                // IR9: ins→ folded into the replacement of the same node
                _ => {
                    ops.push(UpdateOp::replace_node(target, vec![model.tree().0]));
                    ops.push(UpdateOp::ins_after(target, vec![model.tree().0]));
                }
            }
            made += 1;
        }
        let mut kind = p;
        let mut barren = 0;
        while ops.len() < spec.ops_per_parallel_pul && barren < 64 {
            kind += 1;
            barren += 1;
            let unit = units[rng.below(units.len())];
            let nodes = &model.units[unit].nodes;
            let op = match kind % 6 {
                0 => {
                    let Some(t) = pick(rng, &nodes.texts) else { continue };
                    if !used.insert((t, 1)) {
                        continue;
                    }
                    UpdateOp::replace_value(t, format!("p{p} {}", model.tick()))
                }
                1 => {
                    let Some(e) = pick(rng, &nodes.elements) else { continue };
                    if !used.insert((e, 0)) {
                        continue;
                    }
                    UpdateOp::rename(e, format!("p{p}n{}", model.tick()))
                }
                2 => {
                    let Some(e) = pick(rng, &nodes.elements) else { continue };
                    UpdateOp::ins_last(e, vec![model.tree().0])
                }
                3 => {
                    let Some(e) = pick(rng, &nodes.elements) else { continue };
                    UpdateOp::ins_after(e, vec![model.tree().0])
                }
                4 => {
                    let Some(e) = pick(rng, &nodes.elements) else { continue };
                    UpdateOp::ins_attributes(e, vec![model.attribute()])
                }
                _ => {
                    let Some(a) = pick(rng, &nodes.attributes) else { continue };
                    if !used.insert((a, 1)) {
                        continue;
                    }
                    UpdateOp::replace_value(a, format!("p{p}a{}", model.tick()))
                }
            };
            ops.push(op);
            barren = 0;
        }
    }
    per_pul.into_iter().map(|ops| sut::pul_from_ops(ops, labeling)).collect()
}

/// Phase B: one producer's chain of sequential PULs; a share of each PUL's
/// operations targets nodes that earlier PULs of the chain inserted, which is
/// what aggregation rule D6 folds.
fn chain_puls(
    model: &mut Model,
    rng: &mut Rng,
    spec: &BulkSpec,
    units: &[usize],
    labeling: &Labeling,
) -> Vec<Pul> {
    // (element, its text child if it has one) for every inserted element
    let mut inserted: Vec<(NodeId, Option<NodeId>)> = Vec::new();
    let mut chain = Vec::with_capacity(spec.chain_puls);
    for _ in 0..spec.chain_puls {
        let mut ops: Vec<UpdateOp> = Vec::with_capacity(spec.ops_per_chain_pul);
        // At most one operation per (target, kind) in a PUL keeps it
        // deterministic, so aggregated and sequential application coincide.
        let mut used: HashSet<(NodeId, u8)> = HashSet::new();
        let mut fresh: Vec<(NodeId, Option<NodeId>)> = Vec::new();
        let mut kind = 0usize;
        let mut barren = 0;
        while ops.len() < spec.ops_per_chain_pul && barren < 256 {
            kind += 1;
            barren += 1;
            let on_new = !inserted.is_empty() && rng.chance(spec.new_node_ratio);
            let (target, text) = if on_new {
                inserted[rng.below(inserted.len())]
            } else {
                let unit = units[rng.below(units.len())];
                let nodes = &model.units[unit].nodes;
                let Some(e) = pick(rng, &nodes.elements) else { continue };
                (e, pick(rng, &nodes.texts))
            };
            let code = (kind % 6) as u8;
            let op_target = if code == 4 {
                let Some(t) = text else { continue };
                t
            } else {
                target
            };
            if !used.insert((op_target, code)) {
                continue;
            }
            let grow = |model: &mut Model, fresh: &mut Vec<(NodeId, Option<NodeId>)>| {
                let (tree, first) = model.tree();
                fresh.push((NodeId::new(first), None));
                fresh.push((NodeId::new(first + 1), Some(NodeId::new(first + 2))));
                tree
            };
            let op = match code {
                0 => UpdateOp::ins_last(target, vec![grow(model, &mut fresh)]),
                1 => UpdateOp::rename(target, format!("renamed{}", model.tick())),
                2 => UpdateOp::ins_after(target, vec![grow(model, &mut fresh)]),
                3 => UpdateOp::ins_attributes(target, vec![model.attribute()]),
                4 => UpdateOp::replace_value(op_target, format!("edited {}", model.tick())),
                _ => UpdateOp::ins_first(target, vec![grow(model, &mut fresh)]),
            };
            ops.push(op);
            barren = 0;
        }
        inserted.extend(fresh);
        chain.push(sut::pul_from_ops(ops, labeling));
    }
    chain
}

/// Generates the bulk rounds and their oracle outputs. Every set starts from
/// the same base document.
pub fn bulk(seed: u64, spec: BulkSpec) -> Inputs {
    let mut rng = Rng::new(seed);
    let doc = sut::xmark(spec.doc_nodes, rng.next_u64());
    let labeling = sut::assign_labels(&doc);
    let mut model = Model::new(&doc);
    let sections = model.units.iter().map(|u| u.nodes.section).max().map_or(0, |m| m + 1);
    let first_content_id = model.next_id;

    let total = spec.parallel_puls * spec.ops_per_parallel_pul;
    let n_conflicts =
        ((total as f64 * spec.conflict_fraction) as usize / spec.ops_per_conflict.max(2)).max(1);
    assert!(
        model.units.len() > 2 * n_conflicts + 2 * spec.parallel_puls,
        "document too small for the bulk rounds: {} units",
        model.units.len()
    );

    let mut sets = Vec::with_capacity(spec.sets);
    for set in 0..spec.sets {
        let mut rng = rng.fork(set as u64);
        // Every set applies to the base document: identifiers restart.
        model.next_id = first_content_id;
        let mut order: Vec<usize> = (0..model.units.len()).collect();
        rng.shuffle(&mut order);
        let (conflict_units, rest) = order.split_at(n_conflicts);
        // A tenth of the remaining units carries the chain; the parallel
        // producers share the others round-robin.
        let (chain_units, parallel_units) = rest.split_at(rest.len() / 10);
        let mut producer_units: Vec<Vec<usize>> = vec![Vec::new(); spec.parallel_puls];
        for (i, &unit) in parallel_units.iter().enumerate() {
            producer_units[i % spec.parallel_puls].push(unit);
        }

        let parallel =
            parallel_puls(&mut model, &mut rng, &spec, conflict_units, &producer_units, &labeling);
        let chain = chain_puls(&mut model, &mut rng, &spec, chain_units, &labeling);

        let mut oracle = sut::session(doc.clone(), labeling.clone());
        let mut steps = Vec::with_capacity(2);
        for (puls, kind) in [(parallel, StepKind::Parallel), (chain, StepKind::Chain)] {
            let ops = puls.iter().map(Pul::len).sum();
            match kind {
                StepKind::Parallel => puls.iter().for_each(|p| oracle.submit_pul(p.clone())),
                StepKind::Chain => {
                    sut::submit_sequence(&mut oracle, &puls).expect("generated chains aggregate")
                }
            }
            let resolved = sut::resolve_pul(&oracle).expect("relaxed policies always reconcile");
            let wire = sut::encode_pul(&resolved);
            oracle.commit_round().expect("generated rounds always commit");
            steps.push(Step {
                puls,
                kind,
                producer: 0,
                wire,
                ops,
                section_mask: (1 << sections) - 1,
            });
        }
        oracle.check_consistent();
        sets.push(InputSet { steps, expected: oracle.to_xml() });
    }
    Inputs { doc, labeling, sets }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_stream(seed: u64) -> Inputs {
        stream(
            seed,
            StreamSpec {
                doc_nodes: 3_000,
                submissions: 400,
                producers: 2,
                medium_share: 0.2,
                gap_share: 0.1,
            },
        )
    }

    fn small_bulk(seed: u64) -> Inputs {
        bulk(
            seed,
            BulkSpec {
                doc_nodes: 8_000,
                sets: 2,
                parallel_puls: 4,
                ops_per_parallel_pul: 60,
                reducible_ratio: 0.1,
                conflict_fraction: 0.2,
                ops_per_conflict: 4,
                chain_puls: 3,
                ops_per_chain_pul: 40,
                new_node_ratio: 0.5,
            },
        )
    }

    fn wires(inputs: &Inputs) -> Vec<&str> {
        inputs.sets.iter().flat_map(|s| &s.steps).map(|s| s.wire.as_str()).collect()
    }

    #[test]
    fn equal_seeds_give_byte_identical_wire_inputs() {
        let (a, b) = (small_stream(7), small_stream(7));
        assert_eq!(wires(&a), wires(&b));
        assert_eq!(a.sets[0].expected, b.sets[0].expected);
        let (a, b) = (small_bulk(7), small_bulk(7));
        assert_eq!(wires(&a), wires(&b));
        assert_eq!(a.sets[1].expected, b.sets[1].expected);
    }

    #[test]
    fn different_seeds_give_different_inputs() {
        assert_ne!(wires(&small_stream(7)), wires(&small_stream(8)));
        assert_ne!(wires(&small_bulk(7)), wires(&small_bulk(8)));
    }

    #[test]
    fn wire_documents_never_repeat() {
        let inputs = small_stream(3);
        let all = wires(&inputs);
        let distinct: HashSet<&str> = all.iter().copied().collect();
        assert_eq!(distinct.len(), all.len(), "the reduction cache must always miss");
    }

    #[test]
    fn streams_mix_sizes_and_share_gaps() {
        let inputs = small_stream(5);
        let steps = &inputs.sets[0].steps;
        assert!(steps.iter().any(|s| s.ops >= 32), "medium submissions present");
        assert!(steps.iter().any(|s| s.ops <= 4), "small submissions present");
        assert!(steps.iter().any(|s| s.section_mask.count_ones() > 1));
        assert!(steps.iter().any(|s| s.producer == 1));
    }

    #[test]
    fn rng_is_stable() {
        let mut rng = Rng::new(42);
        let first: Vec<u64> = (0..3).map(|_| rng.next_u64()).collect();
        let mut again = Rng::new(42);
        assert_eq!(first, (0..3).map(|_| again.next_u64()).collect::<Vec<_>>());
        assert!((0..100).all(|_| rng.below(7) < 7));
    }
}
