//! The traced run: the per-layer numbers.
//!
//! The same generated inputs are replayed through a ladder of rungs, each one
//! layer above the last, with benchmark-owned spans around the calls into
//! each layer's public functions:
//!
//! ```text
//! raw pul_core / pul / xlabel / xdm calls  →  ExecutorCore::commit_pul
//!   →  Executor  →  ShardedExecutor  →  IngestQueue<Executor>
//!   →  Durable<Executor> loop (+ bare Store)  →  the full stack
//! ```
//!
//! so every layer's tax over the one below is a column, not an inference.
//! Counts that cannot be seen from outside (rounds coalesced, fsyncs) are
//! read from an armed telemetry handle — in this run only; the timed runs
//! keep telemetry disabled.
//!
//! Every `*_ms` metric is per input set (one bulk round of two steps, or the
//! ladder's slice of a submission stream); `*_us_per_sub` metrics are per
//! submission. Each rung repeats its pass until its share of `--seconds` is
//! used, and the reported value is the median over passes.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use crate::gen::{self, InputSet, Inputs, Step, StepKind};
use crate::stats::{self, ms, us};
use crate::sut::{self, Executor, Pul, ReadQuery, Session, SyncPolicy};
use crate::trace::Tracer;
use crate::workloads::{self, Drive, Metric, Outcome, RunConfig, Workload};

/// The per-layer metrics, in the order `BENCHMARK.json` lists them.
pub const PER_LAYER: [(&str, &str); 59] = [
    ("pul_core.reduce_ms", "ms"),
    ("pul_core.reduce_ops_in", "count"),
    ("pul_core.reduce_ops_out", "count"),
    ("pul_core.integrate_ms", "ms"),
    ("pul_core.conflicts", "count"),
    ("pul_core.reconcile_ms", "ms"),
    ("pul_core.reconciled_ops", "count"),
    ("pul_core.aggregate_ms", "ms"),
    ("pul_core.aggregate_ops_in", "count"),
    ("pul_core.aggregate_ops_out", "count"),
    ("pul.decode_us_per_sub", "us"),
    ("pul.apply_ms", "ms"),
    ("pul.apply_plain_ms", "ms"),
    ("pul.merge_us_per_round", "us"),
    ("xlabel.patch_ms", "ms"),
    ("xlabel.assign_ms", "ms"),
    ("xdm.parse_ms", "ms"),
    ("xdm.serialize_ms", "ms"),
    ("xdm.clone_ms", "ms"),
    ("executor.core_commit_ms", "ms"),
    ("executor.resolve_ms", "ms"),
    ("executor.commit_ms", "ms"),
    ("executor.overhead_ratio", "ratio"),
    ("executor.loop_us_per_sub", "us"),
    ("shard.resolve_ms", "ms"),
    ("shard.commit_ms", "ms"),
    ("shard.loop_us_per_sub", "us"),
    ("shard.cross_shard_share", "ratio"),
    ("ingest.queue_us_per_sub", "us"),
    ("ingest.queue_tax_us_per_sub", "us"),
    ("ingest.enqueue_us", "us"),
    ("ingest.wait_ms_p50", "ms"),
    ("ingest.rounds", "count"),
    ("ingest.rounds_coalesced", "count"),
    ("ingest.rounds_serialized", "count"),
    ("ingest.subs_per_round", "ratio"),
    ("ingest.ticket_ms_p99", "ms"),
    ("durable.commit_tax_us", "us"),
    ("durable.replay_us_per_record", "us"),
    ("durable.checkpoint_ms", "ms"),
    ("durable.open_ms", "ms"),
    ("durable.read_at_ms", "ms"),
    ("pul_store.append_us", "us"),
    ("pul_store.sync_us", "us"),
    ("pul_store.syncs", "count"),
    ("pul_store.wal_bytes", "B"),
    ("pul_store.wal_bytes_per_op", "B/op"),
    ("pul_store.checkpoints", "count"),
    ("pul_store.checkpoint_bytes", "B"),
    ("pul_store.image_bytes_per_doc_byte", "ratio"),
    ("pul_store.ckpt_decode_ms", "ms"),
    ("snapshot.cold_ms", "ms"),
    ("snapshot.cached_us", "us"),
    ("snapshot.publish_tax_us_per_round", "us"),
    ("stack.us_per_sub", "us"),
    ("stack.read_ms_p50", "ms"),
    ("pul_telemetry.armed_overhead_ratio", "ratio"),
    ("gen.late_ms_p99", "ms"),
    ("gen.backlog_end", "count"),
];

/// The counts that must repeat exactly for one seed: they come from the
/// single-threaded rungs and depend on nothing but the inputs.
pub const EXACT_COUNTS: [&str; 6] = [
    "pul_core.reduce_ops_out",
    "pul_core.conflicts",
    "pul_core.aggregate_ops_out",
    "pul_core.reconciled_ops",
    "pul_store.wal_bytes_per_op",
    "pul_store.image_bytes_per_doc_byte",
];

/// Samples per metric name. A timing's value is the median of its samples. A
/// count from the single-threaded rungs depends on nothing but the input set:
/// it is kept per set, must read the same on every pass over that set, and
/// its value is the mean over sets — the same number however many passes a
/// run had time for.
#[derive(Default)]
pub struct Samples {
    timings: BTreeMap<&'static str, Vec<f64>>,
    counts: BTreeMap<&'static str, BTreeMap<usize, Vec<f64>>>,
}

impl Samples {
    fn push(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "unlisted metric {name}");
        self.timings.entry(name).or_default().push(value);
    }

    fn push_count(&mut self, name: &'static str, set: usize, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "unlisted metric {name}");
        self.counts.entry(name).or_default().entry(set).or_default().push(value);
    }

    pub fn value(&self, name: &str) -> f64 {
        if let Some(per_set) = self.counts.get(name) {
            return per_set.values().map(|v| v[0]).sum::<f64>() / per_set.len() as f64;
        }
        self.timings.get(name).map_or(0.0, |v| stats::median(v))
    }

    /// Names of per-set counts that did not read the same on every pass.
    pub fn unstable_counts(&self) -> Vec<&'static str> {
        self.counts
            .iter()
            .filter(|(_, per_set)| per_set.values().any(|v| v.iter().any(|x| *x != v[0])))
            .map(|(name, _)| *name)
            .collect()
    }

    fn spread(&self, name: &str) -> Option<(f64, f64)> {
        stats::quartiles(self.timings.get(name)?)
    }
}

/// The inputs the ladder replays for a workload: the workload's own
/// generator and seed at the ladder's size (for streams, a prefix of what the
/// timed run sends).
pub fn ladder_inputs(workload: Workload, seed: u64, smoke: bool) -> Inputs {
    let sizes = workloads::sizes(smoke);
    let prefix = |spec: gen::StreamSpec| gen::StreamSpec {
        submissions: spec.submissions.min(sizes.ladder_stream),
        ..spec
    };
    match workload {
        Workload::BulkReason => {
            gen::bulk(seed, gen::BulkSpec { sets: sizes.ladder_sets, ..sizes.bulk })
        }
        Workload::IngestSmall => gen::stream(seed, prefix(sizes.ingest)),
        Workload::StackMixed => gen::stream(seed, prefix(sizes.stack)),
        Workload::RecoverRead => gen::stream(seed, prefix(sizes.recover)),
    }
}

/// Repeats `pass` over the input sets, cycling, until `budget` is used; every
/// set is visited at least once.
fn passes(
    inputs: &Inputs,
    budget: Duration,
    tracer: &mut Tracer,
    mut pass: impl FnMut(&mut Tracer, usize, &InputSet) -> Result<(), String>,
) -> Result<(), String> {
    let deadline = Instant::now() + budget;
    let mut n = 0usize;
    while n < inputs.sets.len() || Instant::now() < deadline {
        let index = n % inputs.sets.len();
        tracer.set_pass(n as u32);
        pass(tracer, index, &inputs.sets[index])?;
        n += 1;
    }
    Ok(())
}

fn expect_document(rung: &str, got: &str, set: &InputSet) -> Result<(), String> {
    workloads::check_document(&format!("ladder rung {rung}"), got, &set.expected)
}

// ---------------------------------------------------------------------------
// rung 1: raw pul_core, pul, xlabel and xdm calls
// ---------------------------------------------------------------------------

/// Replays every set through the bare reasoning and apply functions. Returns
/// the resolved PUL of every step, for the `ExecutorCore` rung.
fn rung_raw(
    inputs: &Inputs,
    budget: Duration,
    tracer: &mut Tracer,
    samples: &mut Samples,
) -> Result<Vec<Vec<Pul>>, String> {
    let mut resolved_by_set: Vec<Vec<Pul>> = vec![Vec::new(); inputs.sets.len()];
    passes(inputs, budget, tracer, |tracer, index, set| {
        let (mut doc, _) = tracer.span("xdm.clone", |_| inputs.doc.clone());
        let mut labeling = inputs.labeling.clone();
        let mut plain = inputs.doc.clone();
        let (mut decode, mut merge) = (Duration::ZERO, Duration::ZERO);
        let (mut reduce, mut integrate, mut reconcile) =
            (Duration::ZERO, Duration::ZERO, Duration::ZERO);
        let (mut aggregate, mut apply, mut apply_plain) =
            (Duration::ZERO, Duration::ZERO, Duration::ZERO);
        let (mut ops_in, mut ops_out, mut conflicts, mut reconciled_ops) =
            (0usize, 0usize, 0usize, 0usize);
        let (mut agg_in, mut agg_out) = (0usize, 0usize);
        let mut resolved_steps = Vec::with_capacity(set.steps.len());
        let mut has_chain = false;
        tracer
            .span("rung.raw", |tracer| -> Result<(), String> {
                for step in &set.steps {
                    let (decoded, d) = tracer.span("pul.decode", |_| sut::decode_pul(&step.wire));
                    decoded?;
                    decode += d;
                    let parallel: Vec<Pul> = match step.kind {
                        StepKind::Parallel => step.puls.clone(),
                        StepKind::Chain => {
                            has_chain = true;
                            let (one, d) =
                                tracer.span("pul_core.aggregate", |_| sut::aggregate(&step.puls));
                            let one = one?;
                            aggregate += d;
                            agg_in += step.ops;
                            agg_out += one.len();
                            vec![one]
                        }
                    };
                    // mergeUpdates of the round, as the ingest committer does for
                    // a coalesced round (conflicting rounds have no such union).
                    let (merged, d) = tracer.span("pul.merge_all", |_| sut::merge_all(&parallel));
                    drop(merged);
                    merge += d;
                    let (reduced, d) = tracer.span("pul_core.reduce", |_| {
                        parallel.iter().map(sut::reduce).collect::<Vec<_>>()
                    });
                    reduce += d;
                    ops_in += parallel.iter().map(Pul::len).sum::<usize>();
                    ops_out += reduced.iter().map(Pul::len).sum::<usize>();
                    let (integration, d) =
                        tracer.span("pul_core.integrate", |_| sut::integrate(&reduced));
                    integrate += d;
                    conflicts += integration.conflicts();
                    let (reconciled, d) = tracer
                        .span("pul_core.reconcile", |_| sut::reconcile(&reduced, &integration));
                    let reconciled = reconciled?;
                    reconcile += d;
                    reconciled_ops += reconciled.len();
                    let (resolved, d) =
                        tracer.span("pul_core.reduce", |_| sut::reduce(&reconciled));
                    reduce += d;
                    let (applied, d) = tracer.span("pul.apply_journaled", |_| {
                        sut::apply_journaled(&mut doc, &mut labeling, &resolved)
                    });
                    applied?;
                    apply += d;
                    let (applied, d) =
                        tracer.span("pul.apply_plain", |_| sut::apply_plain(&mut plain, &resolved));
                    applied?;
                    apply_plain += d;
                    resolved_steps.push(resolved);
                }
                Ok(())
            })
            .0?;
        if !has_chain {
            // Streams carry no chain step: aggregate what one producer sent,
            // sixteen consecutive submissions at a time (a disconnected
            // client's session). The result is measured, not applied.
            let own: Vec<&Step> = set.steps.iter().filter(|s| s.producer == 0).collect();
            for chunk in own.chunks(16) {
                let sequence: Vec<Pul> = chunk.iter().map(|s| s.puls[0].clone()).collect();
                let (one, d) = tracer.span("pul_core.aggregate", |_| sut::aggregate(&sequence));
                aggregate += d;
                agg_in += sequence.iter().map(Pul::len).sum::<usize>();
                agg_out += one?.len();
            }
        }
        let (xml, serialize) = tracer.span("xdm.serialize", |_| sut::serialize_doc(&doc));
        expect_document("raw (journaled apply)", &xml, set)?;
        expect_document("raw (plain apply)", &sut::serialize_doc(&plain), set)?;
        if index == 0 && resolved_by_set[0].is_empty() {
            sut::assert_doc_consistent(&doc, &labeling);
        }
        let (parsed, parse) = tracer.span("xdm.parse", |_| sut::parse_doc(&xml));
        let parsed = parsed?;
        let (_, assign) = tracer.span("xlabel.assign", |_| sut::assign_labels(&parsed));
        let clone = tracer.span("xdm.clone", |_| inputs.doc.clone()).1;

        samples.push("pul.decode_us_per_sub", us(decode) / set.steps.len() as f64);
        samples.push("pul.merge_us_per_round", us(merge) / set.steps.len() as f64);
        samples.push("pul_core.reduce_ms", ms(reduce));
        samples.push_count("pul_core.reduce_ops_in", index, ops_in as f64);
        samples.push_count("pul_core.reduce_ops_out", index, ops_out as f64);
        samples.push("pul_core.integrate_ms", ms(integrate));
        samples.push_count("pul_core.conflicts", index, conflicts as f64);
        samples.push("pul_core.reconcile_ms", ms(reconcile));
        samples.push_count("pul_core.reconciled_ops", index, reconciled_ops as f64);
        samples.push("pul_core.aggregate_ms", ms(aggregate));
        samples.push_count("pul_core.aggregate_ops_in", index, agg_in as f64);
        samples.push_count("pul_core.aggregate_ops_out", index, agg_out as f64);
        samples.push("pul.apply_ms", ms(apply));
        samples.push("pul.apply_plain_ms", ms(apply_plain));
        samples.push("xlabel.patch_ms", ms(apply) - ms(apply_plain));
        samples.push("xlabel.assign_ms", ms(assign));
        samples.push("xdm.parse_ms", ms(parse));
        samples.push("xdm.serialize_ms", ms(serialize));
        samples.push("xdm.clone_ms", ms(clone));
        resolved_by_set[index] = resolved_steps;
        Ok(())
    })?;
    Ok(resolved_by_set)
}

// ---------------------------------------------------------------------------
// rung 2: ExecutorCore::commit_pul
// ---------------------------------------------------------------------------

fn rung_core(
    inputs: &Inputs,
    resolved: &[Vec<Pul>],
    budget: Duration,
    tracer: &mut Tracer,
    samples: &mut Samples,
) -> Result<(), String> {
    passes(inputs, budget, tracer, |tracer, index, set| {
        let mut core = sut::core(inputs.doc.clone(), inputs.labeling.clone());
        let (done, spent) = tracer.span("executor.core_commit", |_| {
            resolved[index].iter().try_for_each(|pul| sut::core_commit(&mut core, pul))
        });
        done?;
        samples.push("executor.core_commit_ms", ms(spent));
        expect_document("ExecutorCore", &sut::core_xml(&core), set)
    })
}

// ---------------------------------------------------------------------------
// rungs 3 and 4: Executor and ShardedExecutor sessions
// ---------------------------------------------------------------------------

struct SessionNames {
    rung: &'static str,
    submit: &'static str,
    resolve: &'static str,
    commit: &'static str,
    resolve_ms: &'static str,
    commit_ms: &'static str,
    loop_us: &'static str,
}

const EXECUTOR: SessionNames = SessionNames {
    rung: "rung.executor",
    submit: "executor.submit",
    resolve: "executor.resolve",
    commit: "executor.commit",
    resolve_ms: "executor.resolve_ms",
    commit_ms: "executor.commit_ms",
    loop_us: "executor.loop_us_per_sub",
};

const SHARD: SessionNames = SessionNames {
    rung: "rung.shard",
    submit: "shard.submit",
    resolve: "shard.resolve",
    commit: "shard.commit",
    resolve_ms: "shard.resolve_ms",
    commit_ms: "shard.commit_ms",
    loop_us: "shard.loop_us_per_sub",
};

/// The plain `submit → resolve → commit` loop over a session: one commit per
/// step. Streams enter as wire text, like the queue receives them.
fn rung_session<S: Session>(
    names: &SessionNames,
    template: &S,
    inputs: &Inputs,
    budget: Duration,
    tracer: &mut Tracer,
    samples: &mut Samples,
) -> Result<(), String> {
    passes(inputs, budget, tracer, |tracer, _, set| {
        let mut session = template.clone();
        let (mut resolve, mut commit) = (Duration::ZERO, Duration::ZERO);
        let mut submissions = 0usize;
        let (done, spent) = tracer.span(names.rung, |tracer| -> Result<(), String> {
            for step in &set.steps {
                submissions += step.puls.len();
                tracer
                    .span(names.submit, |_| match (step.kind, step.puls.len()) {
                        (StepKind::Parallel, 1) => session.submit_wire(&step.wire),
                        (StepKind::Parallel, _) => {
                            step.puls.iter().for_each(|p| session.submit_pul(p.clone()));
                            Ok(())
                        }
                        (StepKind::Chain, _) => {
                            sut::aggregate(&step.puls).map(|one| session.submit_pul(one))
                        }
                    })
                    .0?;
                let (resolved, d) = tracer.span(names.resolve, |_| session.resolve_round());
                resolve += d;
                let resolved = resolved?;
                let (version, d) = tracer.span(names.commit, |_| session.commit_resolved(resolved));
                version?;
                commit += d;
            }
            Ok(())
        });
        done?;
        samples.push(names.resolve_ms, ms(resolve));
        samples.push(names.commit_ms, ms(commit));
        samples.push(names.loop_us, us(spent) / submissions as f64);
        expect_document(names.rung, &session.to_xml(), set)
    })
}

// ---------------------------------------------------------------------------
// rung 5: IngestQueue<Executor>
// ---------------------------------------------------------------------------

fn rung_ingest(
    inputs: &Inputs,
    budget: Duration,
    tracer: &mut Tracer,
    samples: &mut Samples,
) -> Result<(), String> {
    let mut sat_rate = Vec::new();
    let mut plain_wall = Vec::new();
    // Saturated, snapshot publication off then on, telemetry armed for the
    // round counts.
    passes(inputs, budget.mul_f64(0.7), tracer, |tracer, _, set| {
        let producers = workloads::steps_by_producer(set);
        for publish in [false, true] {
            let telemetry = sut::armed_telemetry();
            let config = sut::ingest_config(publish, telemetry.clone());
            let queue = sut::queue(inputs.fresh_session(), config);
            let name = if publish { "ingest.queue_publishing" } else { "ingest.queue" };
            let ((log, ()), _) = tracer.span(name, |_| {
                workloads::drive_round(&queue, &producers, Drive::Saturated, |_| ())
            });
            let session: Executor = sut::close_queue(queue)?;
            expect_document("IngestQueue<Executor>", &session.to_xml(), set)?;
            if log.producers.failed > 0 {
                return Err(format!("ladder rung ingest: {} tickets failed", log.producers.failed));
            }
            let counters = sut::metrics(&telemetry);
            let rounds = (counters.rounds_coalesced + counters.rounds_serialized).max(1) as f64;
            let n = set.steps.len() as f64;
            if publish {
                let plain = plain_wall.last().copied().unwrap_or(0.0);
                samples.push("snapshot.publish_tax_us_per_round", (us(log.wall) - plain) / rounds);
                continue;
            }
            plain_wall.push(us(log.wall));
            sat_rate.push(n / log.wall.as_secs_f64());
            samples.push("ingest.queue_us_per_sub", us(log.wall) / n);
            samples.push("ingest.enqueue_us", us(log.producers.enqueue) / n);
            samples
                .push("ingest.wait_ms_p50", log.producers.latency.percentile(50.0).unwrap_or(0.0));
            samples.push("ingest.rounds", rounds);
            samples.push("ingest.rounds_coalesced", counters.rounds_coalesced as f64);
            samples.push("ingest.rounds_serialized", counters.rounds_serialized as f64);
            samples.push("ingest.subs_per_round", n / rounds);
        }
        Ok(())
    })?;
    // Paced at half of what this rung just sustained: the open-loop numbers.
    let rate = (stats::median(&sat_rate) / 2.0).max(1.0);
    let mut tickets = crate::stats::LatencyLog::default();
    let mut late = Vec::new();
    let mut backlog = 0usize;
    passes(inputs, budget.mul_f64(0.3), tracer, |tracer, _, set| {
        let producers = workloads::steps_by_producer(set);
        let queue = sut::queue(
            inputs.fresh_session(),
            sut::ingest_config(false, sut::disabled_telemetry()),
        );
        let ((log, ()), _) = tracer.span("ingest.queue_paced", |_| {
            workloads::drive_round(&queue, &producers, Drive::Paced(rate), |_| ())
        });
        let session: Executor = sut::close_queue(queue)?;
        expect_document("IngestQueue<Executor> (paced)", &session.to_xml(), set)?;
        tickets.merge(log.producers.latency);
        late.extend(log.producers.late_ms);
        backlog = backlog.max(log.producers.backlog_end);
        Ok(())
    })?;
    samples.push("ingest.ticket_ms_p99", tickets.percentile(99.0).unwrap_or(0.0));
    samples.push("gen.late_ms_p99", stats::percentile(&stats::sorted(late), 99.0).unwrap_or(0.0));
    samples.push("gen.backlog_end", backlog as f64);
    Ok(())
}

// ---------------------------------------------------------------------------
// rung 6: Durable<Executor> loop, bare Store, cold reads
// ---------------------------------------------------------------------------

/// One commit per step; `commit` returns the WAL length after it (zero for a
/// bare session). Returns the loop time and the WAL growth of every commit.
fn commit_loop(
    set: &InputSet,
    mut commit: impl FnMut(&Step) -> Result<u64, String>,
) -> Result<(Duration, Vec<u64>), String> {
    let mut grown = Vec::with_capacity(set.steps.len());
    let mut before = 0u64;
    let t0 = Instant::now();
    for step in &set.steps {
        let after = commit(step)?;
        // a checkpoint rotates the WAL: the length restarts
        grown.push(after.checked_sub(before).unwrap_or(after));
        before = after;
    }
    Ok((t0.elapsed(), grown))
}

fn rung_durable(
    inputs: &Inputs,
    dir: &Path,
    budget: Duration,
    tracer: &mut Tracer,
    samples: &mut Samples,
) -> Result<(), String> {
    let query = ReadQuery::new();
    passes(inputs, budget, tracer, |tracer, index, set| {
        let commits = set.steps.len() as f64;
        let ops: usize = set.steps.iter().map(|s| s.ops).sum();

        // the plain loop over exactly what the durable loops commit
        let mut plain = inputs.fresh_session();
        let (looped, _) = tracer.span("durable.plain_loop", |_| {
            commit_loop(set, |step| {
                plain.submit_wire(&step.wire)?;
                plain.commit_round().map(|_| 0)
            })
        });
        let (plain_loop, _) = looped?;

        // durable, unsynced, no automatic checkpoint: the commit tax, then
        // open / replay / cold reads on the store it leaves
        workloads::clean_dir(dir)?;
        let manual = sut::manual_checkpoint_options(SyncPolicy::Off);
        let mut durable = sut::durable_create(dir, inputs.fresh_session(), manual)?;
        let (looped, _) = tracer.span("durable.loop_unsynced", |_| {
            commit_loop(set, |step| {
                durable.submit_wire(&step.wire)?;
                durable.commit_round()?;
                Ok(sut::wal_bytes(&durable))
            })
        });
        let (off_loop, grown) = looped?;
        samples.push("durable.commit_tax_us", (us(off_loop) - us(plain_loop)) / commits);
        expect_document("Durable<Executor>", &durable.to_xml(), set)?;
        let final_version = durable.current_version();
        let (wal_tail, image_v0) = sut::store_bytes(dir).map_err(|e| e.to_string())?;
        drop(durable);

        let (opened, with_tail) =
            tracer.span("durable.open", |_| sut::durable_open::<Executor>(dir, manual));
        let mut durable = opened?;
        expect_document("Durable::open", &durable.to_xml(), set)?;
        samples.push("durable.open_ms", ms(with_tail));
        let (read, spent) = tracer.span("durable.read_at", |_| {
            sut::read_at(&durable, (final_version / 2).max(1)).map(|s| query.read(&s))
        });
        read?;
        samples.push("durable.read_at_ms", ms(spent));

        durable.submit_pul(sut::root_rename(&inputs.doc, &inputs.labeling));
        durable.commit_round()?;
        let (_, cold) = tracer.span("snapshot.cold", |_| durable.pin());
        samples.push("snapshot.cold_ms", ms(cold));
        let (_, cached) = tracer.span("snapshot.cached", |_| {
            (0..1_000).for_each(|_| drop(std::hint::black_box(durable.pin())))
        });
        samples.push("snapshot.cached_us", us(cached) / 1_000.0);

        let (written, spent) = tracer.span("durable.checkpoint", |_| sut::checkpoint(&mut durable));
        written?;
        samples.push("durable.checkpoint_ms", ms(spent));
        let doc_bytes = durable.to_xml().len() as f64;
        let (_, images) = sut::store_bytes(dir).map_err(|e| e.to_string())?;
        samples.push_count(
            "pul_store.image_bytes_per_doc_byte",
            index,
            (images - image_v0) as f64 / doc_bytes,
        );
        samples.push_count("pul_store.wal_bytes_per_op", index, wal_tail as f64 / ops as f64);
        drop(durable);

        let (decoded, spent) = tracer.span("pul_store.load_checkpoint", |_| {
            sut::store_open(dir).and_then(|store| sut::store_load_last_checkpoint(&store))
        });
        decoded?;
        samples.push("pul_store.ckpt_decode_ms", ms(spent));
        let (opened, without_tail) =
            tracer.span("durable.open_empty_tail", |_| sut::durable_open::<Executor>(dir, manual));
        drop(opened?);
        samples.push(
            "durable.replay_us_per_record",
            (us(with_tail) - us(without_tail)) / (commits + 1.0),
        );

        // durable, synced per commit, default checkpoint triggers, telemetry
        // armed: the store's own counters
        workloads::clean_dir(dir)?;
        let telemetry = sut::armed_telemetry();
        let synced = sut::durable_options(SyncPolicy::PerCommit);
        let mut durable = sut::durable_create(dir, inputs.fresh_session(), synced)?;
        sut::arm_durable(&mut durable, telemetry.clone());
        let (looped, _) = tracer.span("durable.loop_synced", |_| {
            commit_loop(set, |step| {
                durable.submit_wire(&step.wire)?;
                sut::commit_durable(&mut durable)
            })
        });
        looped?;
        expect_document("Durable<Executor> (synced)", &durable.to_xml(), set)?;
        let counters = sut::metrics(&telemetry);
        samples.push_count("pul_store.syncs", index, counters.wal_sync_ns.count as f64);
        samples.push_count("pul_store.wal_bytes", index, counters.wal_append_bytes as f64);
        samples.push_count("pul_store.checkpoints", index, sut::checkpoints(&durable).len() as f64);
        let (_, images) = sut::store_bytes(dir).map_err(|e| e.to_string())?;
        samples.push_count("pul_store.checkpoint_bytes", index, images as f64);
        drop(durable);

        // bare Store::append with the frame sizes just seen, unsynced and
        // synced: the append cost and what the fsync adds to it
        let mut per_append = [0.0f64; 2];
        for (slot, sync) in [SyncPolicy::Off, SyncPolicy::PerCommit].into_iter().enumerate() {
            workloads::clean_dir(dir)?;
            let mut store = sut::store_create(dir, sync)?;
            let payloads: Vec<Vec<u8>> = grown
                .iter()
                .map(|&len| vec![0x5A; (len as usize).saturating_sub(16).max(1)])
                .collect();
            let name = if slot == 0 { "pul_store.append" } else { "pul_store.append_synced" };
            let (appended, spent) = tracer.span(name, |_| {
                payloads.iter().enumerate().try_for_each(|(v, payload)| {
                    sut::store_append(&mut store, v as u64 + 1, payload)
                })
            });
            appended?;
            per_append[slot] = us(spent) / commits;
        }
        samples.push("pul_store.append_us", per_append[0]);
        samples.push("pul_store.sync_us", per_append[1] - per_append[0]);
        Ok(())
    })?;
    workloads::clean_dir(dir)
}

// ---------------------------------------------------------------------------
// rung 7: the full stack
// ---------------------------------------------------------------------------

fn rung_stack(
    inputs: &Inputs,
    dir: &Path,
    budget: Duration,
    tracer: &mut Tracer,
    samples: &mut Samples,
) -> Result<(), String> {
    let template = sut::sharded(inputs.doc.clone(), 2)?;
    let query = ReadQuery::new();
    let mut armed_first = false;
    passes(inputs, budget, tracer, |tracer, _, set| {
        let producers = workloads::steps_by_producer(set);
        let mut wall = [0.0f64; 2];
        // which of the two goes first alternates, so neither always runs on
        // the warmer cache
        armed_first = !armed_first;
        for armed in [armed_first, !armed_first] {
            let slot = usize::from(armed);
            let telemetry = if armed { sut::armed_telemetry() } else { sut::disabled_telemetry() };
            let queue = workloads::full_stack(&template, dir, telemetry)?;
            let name = if armed { "stack.armed" } else { "stack.disabled" };
            let ((log, pins), _) = tracer.span(name, |_| {
                workloads::drive_round(&queue, &producers, Drive::Saturated, |done| {
                    workloads::reader(&queue, &query, done)
                })
            });
            workloads::close_and_check_stack(queue, dir, &set.expected, &pins)?;
            wall[slot] = us(log.wall);
            if !armed {
                samples.push("stack.us_per_sub", us(log.wall) / set.steps.len() as f64);
                let reads: Vec<f64> = pins.iter().map(|p| p.read_ms).collect();
                samples.push("stack.read_ms_p50", stats::median(&reads));
            }
        }
        samples.push("pul_telemetry.armed_overhead_ratio", wall[1] / wall[0]);
        Ok(())
    })?;
    workloads::clean_dir(dir)
}

// ---------------------------------------------------------------------------
// the ladder
// ---------------------------------------------------------------------------

/// Runs every rung over the workload's inputs. `budget` is the measuring
/// time of the whole ladder.
pub fn climb(
    inputs: &Inputs,
    out_dir: &Path,
    budget: Duration,
    tracer: &mut Tracer,
) -> Result<Samples, String> {
    let mut samples = Samples::default();
    let share = |weight: f64| budget.mul_f64(weight / 10.0);
    let resolved = rung_raw(inputs, share(1.5), tracer, &mut samples)?;
    rung_core(inputs, &resolved, share(0.5), tracer, &mut samples)?;
    rung_session(&EXECUTOR, &inputs.fresh_session(), inputs, share(1.0), tracer, &mut samples)?;
    let sharded = sut::sharded(inputs.doc.clone(), 2)?;
    rung_session(&SHARD, &sharded, inputs, share(1.0), tracer, &mut samples)?;
    let shard_of = sut::section_shards(&sharded, &inputs.doc);
    let steps: Vec<&Step> = inputs.sets.iter().flat_map(|s| &s.steps).collect();
    let crossing = steps.iter().filter(|s| crosses_shards(s.section_mask, &shard_of)).count();
    samples.push("shard.cross_shard_share", crossing as f64 / steps.len() as f64);
    rung_ingest(inputs, share(2.0), tracer, &mut samples)?;
    rung_durable(inputs, &out_dir.join("ladder-store"), share(2.0), tracer, &mut samples)?;
    rung_stack(inputs, &out_dir.join("ladder-stack"), share(2.0), tracer, &mut samples)?;

    // derived columns
    let raw = ["pul_core.reduce_ms", "pul_core.integrate_ms", "pul_core.reconcile_ms"]
        .iter()
        .map(|name| samples.value(name))
        .sum::<f64>();
    let overhead = samples.value("executor.resolve_ms") / raw;
    samples.push("executor.overhead_ratio", overhead);
    let tax = samples.value("ingest.queue_us_per_sub") - samples.value("executor.loop_us_per_sub");
    samples.push("ingest.queue_tax_us_per_sub", tax);
    Ok(samples)
}

fn crosses_shards(section_mask: u32, shard_of: &[usize]) -> bool {
    let mut shards = shard_of
        .iter()
        .enumerate()
        .filter(|(section, _)| section_mask & (1 << section) != 0)
        .map(|(_, &shard)| shard);
    shards.next().is_some_and(|first| shards.any(|other| other != first))
}

pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let inputs = ladder_inputs(cfg.workload, cfg.seed, cfg.smoke);
    let mut tracer = Tracer::new();
    let budget = Duration::from_secs_f64(cfg.seconds);
    let samples = climb(&inputs, &cfg.out_dir, budget, &mut tracer)?;

    let header = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"sets\":{},\"steps_per_set\":{},\"ops\":{}}}",
        cfg.workload.name(),
        cfg.seed,
        inputs.sets.len(),
        inputs.sets[0].steps.len(),
        inputs.total_ops(),
    );
    let trace_file = cfg.out_dir.join(format!("trace-{}.json", cfg.workload.name()));
    tracer
        .write(&trace_file, &header)
        .map_err(|e| format!("write {}: {e}", trace_file.display()))?;

    let mut notes = vec![format!(
        "{}: ladder over {} input set(s) of {} step(s); spans in {}",
        cfg.workload.name(),
        inputs.sets.len(),
        inputs.sets[0].steps.len(),
        trace_file.display()
    )];
    let unstable = samples.unstable_counts();
    if !unstable.is_empty() {
        return Err(format!("counts differ between passes over one input set: {unstable:?}"));
    }
    notes.push(format!(
        "exact counts read the same on every pass over an input set: {}",
        EXACT_COUNTS.join(", ")
    ));
    notes.push(format!(
        "ladder columns: ingest.queue_tax_us_per_sub {:.3} + executor.loop_us_per_sub {:.3} = ingest.queue_us_per_sub {:.3}; threaded round counts (spread over passes): rounds {:?}",
        samples.value("ingest.queue_tax_us_per_sub"),
        samples.value("executor.loop_us_per_sub"),
        samples.value("ingest.queue_us_per_sub"),
        samples.spread("ingest.rounds"),
    ));
    for (name, calls, total, own) in tracer.totals() {
        notes.push(format!("span {name}: calls {calls}, total {total:.3} ms, self {own:.3} ms"));
    }
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric { name, value: samples.value(name), unit })
        .collect();
    let steps: usize = inputs.sets.iter().map(|s| s.steps.len()).sum();
    Ok(Outcome { attempted: steps as u64, failed: 0, metrics, notes })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts(workload: Workload, seed: u64) -> Vec<f64> {
        let inputs = ladder_inputs(workload, seed, true);
        let dir = std::env::temp_dir().join(format!(
            "pulbench-test-{}-{}-{seed}",
            workload.name(),
            std::process::id()
        ));
        let mut tracer = Tracer::new();
        let mut samples = Samples::default();
        let budget = Duration::from_millis(1);
        rung_raw(&inputs, budget, &mut tracer, &mut samples).unwrap();
        rung_durable(&inputs, &dir.join("store"), budget, &mut tracer, &mut samples).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        EXACT_COUNTS.iter().map(|name| samples.value(name)).collect()
    }

    #[test]
    fn exact_counts_repeat_exactly_for_one_seed() {
        for workload in [Workload::BulkReason, Workload::StackMixed] {
            let first = counts(workload, 11);
            assert_eq!(first, counts(workload, 11), "{}", workload.name());
            assert!(first.iter().all(|v| v.is_finite()));
            assert_ne!(first, counts(workload, 12), "another seed gives other inputs");
        }
    }

    #[test]
    fn shard_crossing_follows_the_section_mask() {
        let shard_of = [0, 0, 1, 1, 1];
        assert!(!crosses_shards(0b00011, &shard_of));
        assert!(!crosses_shards(0b10100, &shard_of));
        assert!(crosses_shards(0b00110, &shard_of));
        assert!(!crosses_shards(0, &shard_of));
    }

    #[test]
    fn every_listed_metric_has_a_unique_name() {
        let mut names: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PER_LAYER.len());
        assert!(EXACT_COUNTS.iter().all(|c| names.contains(c)));
    }
}
