//! The four timed workloads. Telemetry stays disabled here; the per-layer
//! numbers come from the traced ladder run (`ladder.rs`) over the same
//! generated inputs.
//!
//! A run measures rounds of fixed operation counts until `--seconds` of wall
//! time are used (at least a minimum number of rounds), and reports medians
//! over rounds. Every round ends in the correctness gate: the final document
//! must equal the oracle's serialization.

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use crate::gen::{self, BulkSpec, InputSet, Inputs, Step, StreamSpec};
use crate::stats::{self, ms, LatencyLog, Schedule};
use crate::sut::{self, Executor, IngestQueue, ReadQuery, Session, ShardedExecutor, SyncPolicy};

// ---------------------------------------------------------------------------
// sizes and frozen rates
// ---------------------------------------------------------------------------

/// Open-loop rate of `ingest_small`'s paced phase, submissions per second
/// over both producers: half the median saturated throughput (34 500/s) of
/// ten runs of the commit that defined the benchmark, to two significant
/// digits.
pub const INGEST_PACED_RATE: f64 = 17_000.0;
/// `stack_mixed` (one producer): a fifth of its saturated throughput (200/s),
/// not half — service time is bimodal there (about 1.5 ms for a small
/// submission, 20-30 ms for a medium one) and above a fifth the queueing
/// behind medium submissions makes the median swing several-fold run to run.
pub const STACK_PACED_RATE: f64 = 40.0;

/// Outstanding tickets per producer in the closed-loop phases.
pub const SAT_WINDOW: usize = 32;
/// Share of a queue workload's run spent in the saturated phase.
const SAT_SHARE: f64 = 0.4;
/// Set-ups beyond the minimum stop once this much time went into them, or
/// after this many.
const SETUP_BUDGET: Duration = Duration::from_millis(1_500);
const MAX_SETUPS: usize = 25;
/// How often an idle open-loop producer or reader looks again.
const POLL: Duration = Duration::from_micros(100);

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    BulkReason,
    IngestSmall,
    StackMixed,
    RecoverRead,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::BulkReason, Workload::IngestSmall, Workload::StackMixed, Workload::RecoverRead];

    pub fn name(self) -> &'static str {
        match self {
            Workload::BulkReason => "bulk_reason",
            Workload::IngestSmall => "ingest_small",
            Workload::StackMixed => "stack_mixed",
            Workload::RecoverRead => "recover_read",
        }
    }

    /// Why the workload exists, for the contract file.
    pub fn why(self) -> &'static str {
        match self {
            Workload::BulkReason => "paper regime (Fig. 6.b-e): big parallel PULs with conflicts plus a sequential chain on a bare Executor; pul_core, apply and label patching do the work, ingest and the store none",
            Workload::IngestSmall => "tiny wire submissions from 2 producers through IngestQueue<Executor>: fixed per-submission costs (handoffs, footprints, merge) dominate, pul_core does little; saturated then paced",
            Workload::StackMixed => "every floor at once: IngestQueue<Durable<ShardedExecutor>>, fsync per commit, checkpoints, published snapshots, a reader beside the writer; small and medium submissions",
            Workload::RecoverRead => "the store layer used for reads: Durable::open over a checkpoint and a WAL tail, cold read_at of historical versions, checkpoint and cold snapshot on fresh handles",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Operation counts of every workload, full size or smoke size.
#[derive(Clone, Copy)]
pub struct Sizes {
    pub bulk: BulkSpec,
    pub ingest: StreamSpec,
    pub stack: StreamSpec,
    pub recover: StreamSpec,
    /// `recover_read`: commits before the second checkpoint; the rest of the
    /// stream is the WAL tail `open` replays.
    pub recover_second_checkpoint: usize,
    /// `recover_read`: historical versions read per repetition, out of
    /// [`Sizes::recover_versions`] spread over the history.
    pub recover_reads_per_rep: usize,
    pub recover_versions: usize,
    /// Submissions the traced ladder replays from a stream.
    pub ladder_stream: usize,
    /// Bulk sets the traced ladder replays.
    pub ladder_sets: usize,
    pub min_rounds: usize,
    pub setups: usize,
}

pub fn sizes(smoke: bool) -> Sizes {
    if smoke {
        return Sizes {
            bulk: BulkSpec {
                doc_nodes: 6_000,
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
            ingest: StreamSpec {
                doc_nodes: 3_000,
                submissions: 600,
                producers: 2,
                medium_share: 0.0,
                gap_share: 0.1,
            },
            stack: StreamSpec {
                doc_nodes: 3_000,
                submissions: 200,
                producers: 1,
                medium_share: 0.2,
                gap_share: 0.1,
            },
            recover: StreamSpec {
                doc_nodes: 3_000,
                submissions: 90,
                producers: 1,
                medium_share: 0.2,
                gap_share: 0.1,
            },
            recover_second_checkpoint: 30,
            recover_reads_per_rep: 2,
            recover_versions: 6,
            ladder_stream: 120,
            ladder_sets: 1,
            min_rounds: 1,
            setups: 1,
        };
    }
    Sizes {
        bulk: BulkSpec {
            doc_nodes: 50_000,
            sets: 10,
            parallel_puls: 8,
            ops_per_parallel_pul: 500,
            reducible_ratio: 0.1,
            conflict_fraction: 0.2,
            ops_per_conflict: 5,
            chain_puls: 5,
            ops_per_chain_pul: 250,
            new_node_ratio: 0.5,
        },
        ingest: StreamSpec {
            doc_nodes: 20_000,
            submissions: 10_000,
            producers: 2,
            medium_share: 0.0,
            gap_share: 0.1,
        },
        stack: StreamSpec {
            doc_nodes: 20_000,
            submissions: 100,
            producers: 1,
            medium_share: 0.2,
            gap_share: 0.1,
        },
        recover: StreamSpec {
            doc_nodes: 20_000,
            submissions: 900,
            producers: 1,
            medium_share: 0.2,
            gap_share: 0.1,
        },
        recover_second_checkpoint: 300,
        recover_reads_per_rep: 2,
        recover_versions: 20,
        ladder_stream: 400,
        ladder_sets: 4,
        min_rounds: 3,
        setups: 3,
    }
}

pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
    pub out_dir: PathBuf,
}

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable lines for the run footer (sample counts and the like).
    pub notes: Vec<String>,
}

/// The end-to-end metrics, in the order `BENCHMARK.json` lists them: name,
/// unit, which direction is better, and the share of the parent's median by
/// which the metric may worsen before a change is refused.
pub const END_TO_END: [(&str, &str, &str, f64); 6] = [
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "ops/s", "higher", 0.25),
    ("submissions_per_s", "1/s", "higher", 0.25),
    ("latency_ms_p50", "ms", "lower", 0.25),
    ("read_ms_p50", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
];

/// A run cut into blocks — one cycle over the input sets, one round of a
/// queue workload, one sweep of the history — each giving a rate or a median.
///
/// The box is a 2-core VM on a shared host: it alternates, for seconds at a
/// time, between a quiet mode and one about a fifth slower, and the share of
/// a run spent in each differs from run to run. A plain median over the run
/// follows that share. The run therefore reports the **near-best block**: the
/// nearest-rank 10th percentile over blocks of a block's median time (90th of
/// its rate) — the second best of up to twenty blocks, not the extreme. Tails
/// are printed in the footer with their sample counts, not gated.
#[derive(Default)]
struct Blocks {
    ops_per_s: Vec<f64>,
    submissions_per_s: Vec<f64>,
    latency_ms_p50: Vec<f64>,
    read_ms_p50: Vec<f64>,
    /// Every latency sample of the run, for the footer's tail.
    latency_ms: Vec<f64>,
}

impl Blocks {
    fn rates(&mut self, ops: usize, submissions: usize, busy: Duration) {
        self.ops_per_s.push(ops as f64 / busy.as_secs_f64());
        self.submissions_per_s.push(submissions as f64 / busy.as_secs_f64());
    }

    fn metrics(&self, setup_s: f64) -> Vec<Metric> {
        let values = [
            setup_s,
            stats::near_best(&self.ops_per_s, false),
            stats::near_best(&self.submissions_per_s, false),
            stats::near_best(&self.latency_ms_p50, true),
            stats::near_best(&self.read_ms_p50, true),
            peak_rss_mb(),
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit, _, _), value)| Metric { name, value, unit })
            .collect()
    }

    /// The footer's tail line: the highest percentile of the run's latencies
    /// that still has ten samples beyond it.
    fn tail_note(&self, what: &str) -> String {
        let n = self.latency_ms.len();
        let all = stats::sorted(self.latency_ms.clone());
        match stats::highest_reportable(n) {
            Some(p) => format!(
                "{what}: n={n}, whole-run p50 {:.3} ms, p{p} {:.3} ms (the highest percentile with >=10 samples beyond it; reported, not gated)",
                stats::percentile(&all, 50.0).unwrap_or(0.0),
                stats::percentile(&all, p).unwrap_or(0.0),
            ),
            None => format!("{what}: n={n}, too few samples for any percentile"),
        }
    }
}

/// Process high-water resident set, from `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Builds the inputs at least `times` times — and up to [`MAX_SETUPS`] times
/// while set-up is cheap, where a single build is too short to time well —
/// and reports the median build time: set-up is measured like everything
/// else, so work moved into it shows.
pub fn timed_setup<T>(
    times: usize,
    mut build: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let started = Instant::now();
    let mut seconds = Vec::with_capacity(MAX_SETUPS);
    let mut last = None;
    while seconds.len() < times.max(1)
        || (times > 1 && seconds.len() < MAX_SETUPS && started.elapsed() < SETUP_BUDGET)
    {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(build()?);
        seconds.push(t0.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one set-up"), stats::median(&seconds)))
}

pub fn check_document(what: &str, got: &str, expected: &str) -> Result<(), String> {
    if got == expected {
        return Ok(());
    }
    let at = got.bytes().zip(expected.bytes()).position(|(a, b)| a != b).unwrap_or(0);
    Err(format!(
        "{what}: final document differs from the oracle's ({} vs {} bytes, first difference at byte {at})",
        got.len(),
        expected.len()
    ))
}

pub fn clean_dir(dir: &Path) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("remove {}: {e}", dir.display()))?;
    }
    Ok(())
}

pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    match cfg.workload {
        Workload::BulkReason => bulk_reason(cfg),
        Workload::IngestSmall => ingest_small(cfg),
        Workload::StackMixed => stack_mixed(cfg),
        Workload::RecoverRead => recover_read(cfg),
    }
}

// ---------------------------------------------------------------------------
// bulk_reason
// ---------------------------------------------------------------------------

fn bulk_reason(cfg: &RunConfig) -> Result<Outcome, String> {
    let sizes = sizes(cfg.smoke);
    let (inputs, setup_s) = timed_setup(sizes.setups, || Ok(gen::bulk(cfg.seed, sizes.bulk)))?;
    let query = ReadQuery::new();
    let deadline = Instant::now() + Duration::from_secs_f64(cfg.seconds);
    let mut blocks = Blocks::default();
    let mut attempted = 0u64;
    let mut cycles = 0usize;
    // A block is one cycle over the input sets.
    while Instant::now() < deadline || cycles < sizes.min_rounds {
        let (mut round_ms, mut read_ms) = (Vec::new(), Vec::new());
        let (mut ops, mut submissions, mut busy) = (0usize, 0usize, Duration::ZERO);
        for set in &inputs.sets {
            // Outside the timed window: the fresh session and the owned PULs.
            let mut session = inputs.fresh_session();
            let parallel = set.steps[0].puls.clone();
            let chain = &set.steps[1].puls;
            let t0 = Instant::now();
            for pul in parallel {
                session.submit_pul(pul);
            }
            session.commit_round()?;
            sut::submit_sequence(&mut session, chain)?;
            session.commit_round()?;
            let elapsed = t0.elapsed();

            let r0 = Instant::now();
            let snapshot = session.pin();
            std::hint::black_box(query.read(&snapshot));
            read_ms.push(ms(r0.elapsed()));

            check_document("bulk_reason", &session.to_xml(), &set.expected)?;
            if cycles == 0 {
                session.check_consistent();
            }
            round_ms.push(ms(elapsed));
            busy += elapsed;
            ops += set.steps.iter().map(|s| s.ops).sum::<usize>();
            submissions += set.steps.iter().map(|s| s.puls.len()).sum::<usize>();
        }
        blocks.rates(ops, submissions, busy);
        blocks.latency_ms_p50.push(stats::median(&round_ms));
        blocks.read_ms_p50.push(stats::median(&read_ms));
        blocks.latency_ms.extend(round_ms);
        attempted += submissions as u64;
        cycles += 1;
    }
    let notes = vec![
        format!(
            "bulk_reason: {cycles} blocks of {} rounds (one per input set); latency = submit -> commit of a round (phase A + B); read = cold snapshot + query after each round; near-best block reported",
            inputs.sets.len()
        ),
        blocks.tail_note("bulk_reason round"),
    ];
    Ok(Outcome { attempted, failed: 0, metrics: blocks.metrics(setup_s), notes })
}

// ---------------------------------------------------------------------------
// load generation shared by the queue workloads
// ---------------------------------------------------------------------------

/// What one producer thread saw in a round.
#[derive(Default)]
pub struct ProducerLog {
    /// Paced: due time → completion. Saturated: enqueue → completion.
    pub latency: LatencyLog,
    /// How late each submission was sent (paced only).
    pub late_ms: Vec<f64>,
    pub failed: u64,
    /// Queue depth when the last submission had been sent (paced only).
    pub backlog_end: usize,
    /// Time spent inside the enqueue call, all submissions together.
    pub enqueue: Duration,
}

impl ProducerLog {
    fn merge(&mut self, other: ProducerLog) {
        self.latency.merge(other.latency);
        self.late_ms.extend(other.late_ms);
        self.failed += other.failed;
        self.backlog_end = self.backlog_end.max(other.backlog_end);
        self.enqueue += other.enqueue;
    }
}

/// Closed loop: keeps [`SAT_WINDOW`] tickets outstanding, waits for the
/// oldest before sending the next.
fn closed_loop<B: sut::Backend>(queue: &IngestQueue<B>, steps: &[&Step]) -> ProducerLog {
    let mut log = ProducerLog::default();
    let mut window: VecDeque<(sut::Ticket, Instant)> = VecDeque::with_capacity(SAT_WINDOW);
    let settle =
        |log: &mut ProducerLog, (ticket, sent): (sut::Ticket, Instant)| match sut::wait_ticket(
            &ticket,
        ) {
            Ok(_) => log.latency.record(sent.elapsed()),
            Err(_) => {
                log.latency.miss();
                log.failed += 1;
            }
        };
    for step in steps {
        if window.len() == SAT_WINDOW {
            let oldest = window.pop_front().expect("window is full");
            settle(&mut log, oldest);
        }
        let sent = Instant::now();
        match sut::enqueue_wire(queue, &step.wire) {
            Ok(ticket) => window.push_back((ticket, sent)),
            Err(_) => log.failed += 1,
        }
        log.enqueue += sent.elapsed();
    }
    for entry in window {
        settle(&mut log, entry);
    }
    log
}

/// Open loop: sends every submission that is due, whatever happened to the
/// ones before, and times each from its due time. Completions are harvested
/// between sends, oldest first.
fn open_loop<B: sut::Backend>(
    queue: &IngestQueue<B>,
    steps: &[&Step],
    schedule: Schedule,
) -> ProducerLog {
    let mut log = ProducerLog::default();
    let mut outstanding: VecDeque<(sut::Ticket, usize)> = VecDeque::new();
    let mut next = 0usize;
    loop {
        let now = Instant::now();
        while let Some((ticket, i)) = outstanding.front() {
            match sut::poll_ticket(ticket) {
                Some(Ok(_)) => log.latency.record(schedule.latency(*i, now)),
                Some(Err(_)) => {
                    log.latency.miss();
                    log.failed += 1;
                }
                None => break,
            }
            outstanding.pop_front();
        }
        while next < steps.len() && schedule.due(next) <= Instant::now() {
            let sent = Instant::now();
            log.late_ms.push(ms(schedule.lateness(next, sent)));
            match sut::enqueue_wire(queue, &steps[next].wire) {
                Ok(ticket) => outstanding.push_back((ticket, next)),
                Err(_) => {
                    log.latency.miss();
                    log.failed += 1;
                }
            }
            log.enqueue += sent.elapsed();
            next += 1;
            if next == steps.len() {
                log.backlog_end = sut::queue_depth(queue);
            }
        }
        if next == steps.len() && outstanding.is_empty() {
            return log;
        }
        let until_due = if next < steps.len() {
            schedule.due(next).saturating_duration_since(Instant::now())
        } else {
            POLL
        };
        if !until_due.is_zero() {
            std::thread::sleep(until_due.min(POLL));
        }
    }
}

/// A set's steps split by the load thread that sends them.
pub fn steps_by_producer(set: &InputSet) -> Vec<Vec<&Step>> {
    let producers = set.steps.iter().map(|s| s.producer).max().map_or(1, |m| m + 1);
    let mut per_producer: Vec<Vec<&Step>> = vec![Vec::new(); producers];
    for step in &set.steps {
        per_producer[step.producer].push(step);
    }
    per_producer
}

/// How a producer thread drives the queue in one round.
#[derive(Clone, Copy)]
pub enum Drive {
    Saturated,
    /// Open loop at this many submissions per second over all producers.
    Paced(f64),
}

/// What one round over a queue produced: wall time from the common start to
/// the last completion, and the producers' merged logs.
pub struct RoundLog {
    pub wall: Duration,
    pub producers: ProducerLog,
}

/// Runs every producer's steps through the queue, all starting together.
/// `beside` runs on the calling thread for the duration of the round (the
/// reader of `stack_mixed`); it is told to stop when the producers are done.
pub fn drive_round<B: sut::Backend, R>(
    queue: &IngestQueue<B>,
    per_producer: &[Vec<&Step>],
    drive: Drive,
    beside: impl FnOnce(&AtomicBool) -> R,
) -> (RoundLog, R) {
    let producers = per_producer.len();
    let barrier = Barrier::new(producers + 1);
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let handles: Vec<_> = per_producer
            .iter()
            .enumerate()
            .map(|(p, steps)| {
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    let start = Instant::now();
                    match drive {
                        Drive::Saturated => (closed_loop(queue, steps), Instant::now()),
                        Drive::Paced(rate) => {
                            // Producers interleave: each sends at its share
                            // of the rate, offset by its index.
                            let interval = Duration::from_secs_f64(producers as f64 / rate);
                            let offset = interval.mul_f64(p as f64 / producers as f64);
                            let schedule = Schedule { start: start + offset, interval };
                            (open_loop(queue, steps, schedule), Instant::now())
                        }
                    }
                })
            })
            .collect();
        barrier.wait();
        let t0 = Instant::now();
        // The side task runs on this thread until the producers are done,
        // which a watcher thread signals once every producer has returned.
        let done = &done;
        let watcher = scope.spawn(move || {
            let mut merged = ProducerLog::default();
            let mut end = t0;
            for handle in handles {
                let (log, finished) = handle.join().expect("producer thread panicked");
                merged.merge(log);
                end = end.max(finished);
            }
            done.store(true, Ordering::SeqCst);
            (merged, end)
        });
        let side = beside(done);
        let (producers, end) = watcher.join().expect("watcher thread panicked");
        (RoundLog { wall: end.duration_since(t0), producers }, side)
    })
}

/// Phase bookkeeping of a queue workload's timed run: a block is one round.
#[derive(Default)]
struct QueueRun {
    blocks: Blocks,
    sat_rounds: usize,
    paced_rounds: usize,
    late_ms: Vec<f64>,
    backlog_end: usize,
    missing: usize,
    attempted: u64,
    failed: u64,
}

impl QueueRun {
    fn record(&mut self, drive: Drive, log: RoundLog, submissions: usize, ops: usize) {
        self.attempted += submissions as u64;
        self.failed += log.producers.failed;
        match drive {
            Drive::Saturated => {
                self.sat_rounds += 1;
                self.blocks.rates(ops, submissions, log.wall);
            }
            Drive::Paced(_) => {
                self.paced_rounds += 1;
                let latency = &log.producers.latency;
                self.blocks.latency_ms_p50.push(latency.percentile(50.0).unwrap_or(f64::INFINITY));
                self.blocks.latency_ms.extend(latency.measured());
                self.missing += latency.missing();
                self.late_ms.extend(log.producers.late_ms);
                self.backlog_end = self.backlog_end.max(log.producers.backlog_end);
            }
        }
    }

    fn outcome(self, name: &str, setup_s: f64, rate: f64) -> Outcome {
        let late = stats::sorted(self.late_ms);
        let notes = vec![
            format!(
                "{name}: saturated phase {} rounds (closed loop, {SAT_WINDOW} outstanding per producer); paced phase {} rounds at {rate} submissions/s (open loop, timed from due time); near-best round reported",
                self.sat_rounds, self.paced_rounds,
            ),
            self.blocks.tail_note(&format!("{name} paced ticket ({} failed)", self.missing)),
            format!(
                "{name}: generator lateness p99 {:.3} ms, queue depth at the end of sending {}",
                stats::percentile(&late, 99.0).unwrap_or(0.0),
                self.backlog_end,
            ),
        ];
        Outcome {
            attempted: self.attempted,
            failed: self.failed,
            metrics: self.blocks.metrics(setup_s),
            notes,
        }
    }
}

/// The saturated phase, then the paced phase, each a whole number of rounds.
fn phases(seconds: f64, rate: f64) -> [(Drive, Duration); 2] {
    let sat = Duration::from_secs_f64(seconds * SAT_SHARE);
    let paced = Duration::from_secs_f64(seconds * (1.0 - SAT_SHARE));
    [(Drive::Saturated, sat), (Drive::Paced(rate), paced)]
}

// ---------------------------------------------------------------------------
// ingest_small
// ---------------------------------------------------------------------------

fn ingest_small(cfg: &RunConfig) -> Result<Outcome, String> {
    let sizes = sizes(cfg.smoke);
    let (inputs, setup_s) = timed_setup(sizes.setups, || Ok(gen::stream(cfg.seed, sizes.ingest)))?;
    let per_producer = steps_by_producer(&inputs.sets[0]);
    let query = ReadQuery::new();
    let submissions = inputs.sets[0].steps.len();
    let ops = inputs.total_ops();
    let mut run = QueueRun::default();
    let mut first = true;
    for (drive, budget) in phases(cfg.seconds, INGEST_PACED_RATE) {
        let deadline = Instant::now() + budget;
        let mut rounds = 0;
        while Instant::now() < deadline || rounds < sizes.min_rounds {
            let config = sut::ingest_config(false, sut::disabled_telemetry());
            let queue = sut::queue(inputs.fresh_session(), config);
            let (log, ()) = drive_round(&queue, &per_producer, drive, |_| ());
            let session: Executor = sut::close_queue(queue)?;
            // Three cold reads of the round's final version, each on a
            // clone (a clone starts with an empty snapshot cache).
            let reads: Vec<f64> = (0..3)
                .map(|_| {
                    let cold = session.clone();
                    let r0 = Instant::now();
                    let snapshot = cold.pin();
                    std::hint::black_box(query.read(&snapshot));
                    ms(r0.elapsed())
                })
                .collect();
            run.blocks.read_ms_p50.push(stats::median(&reads));
            check_document("ingest_small", &session.to_xml(), &inputs.sets[0].expected)?;
            if first {
                session.check_consistent();
                first = false;
            }
            run.record(drive, log, submissions, ops);
            rounds += 1;
        }
    }
    Ok(run.outcome("ingest_small", setup_s, INGEST_PACED_RATE))
}

// ---------------------------------------------------------------------------
// stack_mixed
// ---------------------------------------------------------------------------

/// One read of the reader thread: what it pinned and how long the read took.
pub struct Pin {
    pub version: u64,
    pub bytes: usize,
    pub read_ms: f64,
}

/// The reader of `stack_mixed`: polls the queue's latest snapshot and, on
/// every new version, evaluates the fixed query and takes the serialized
/// length — while the committer keeps publishing.
pub fn reader<B: sut::Backend>(
    queue: &IngestQueue<B>,
    query: &ReadQuery,
    done: &AtomicBool,
) -> Vec<Pin> {
    let mut pins: Vec<Pin> = Vec::new();
    loop {
        let stop = done.load(Ordering::SeqCst);
        let t0 = Instant::now();
        match sut::latest_snapshot(queue) {
            Some(snapshot)
                if pins.last().is_none_or(|p| p.version != sut::snapshot_version(&snapshot)) =>
            {
                let (_, bytes) = query.read(&snapshot);
                pins.push(Pin {
                    version: sut::snapshot_version(&snapshot),
                    bytes,
                    read_ms: ms(t0.elapsed()),
                });
            }
            _ if stop => return pins,
            _ => std::thread::sleep(POLL),
        }
    }
}

/// The full stack over a fresh store: `IngestQueue<Durable<ShardedExecutor>>`.
pub fn full_stack(
    template: &ShardedExecutor,
    dir: &Path,
    telemetry: sut::Telemetry,
) -> Result<IngestQueue<sut::Durable<ShardedExecutor>>, String> {
    clean_dir(dir)?;
    let mut durable =
        sut::durable_create(dir, template.clone(), sut::durable_options(SyncPolicy::PerCommit))?;
    sut::arm_durable(&mut durable, telemetry.clone());
    Ok(sut::queue(durable, sut::ingest_config(true, telemetry)))
}

/// Closes the stack and runs its correctness gate: the live document equals
/// the oracle's, so does the reopened store's, and sampled reader pins are
/// reproduced by `read_at`.
pub fn close_and_check_stack(
    queue: IngestQueue<sut::Durable<ShardedExecutor>>,
    dir: &Path,
    expected: &str,
    pins: &[Pin],
) -> Result<(), String> {
    let durable = sut::close_queue(queue)?;
    check_document("stack_mixed (live)", &durable.to_xml(), expected)?;
    durable.check_consistent();
    let version = durable.current_version();
    drop(durable);
    let reopened: sut::Durable<ShardedExecutor> =
        sut::durable_open(dir, sut::durable_options(SyncPolicy::PerCommit))?;
    if reopened.current_version() != version {
        return Err(format!(
            "stack_mixed: reopened store is at version {} where the live session closed at {version}",
            reopened.current_version()
        ));
    }
    check_document("stack_mixed (reopened)", &reopened.to_xml(), expected)?;
    // read_at replays history: a handful of pins spread over the round.
    let stride = (pins.len() / 4).max(1);
    for pin in pins.iter().step_by(stride) {
        let snapshot = sut::read_at(&reopened, pin.version)?;
        let bytes = sut::snapshot_text(&snapshot).len();
        if bytes != pin.bytes {
            return Err(format!(
                "stack_mixed: reader pinned version {} with {} bytes, read_at reproduces {bytes}",
                pin.version, pin.bytes
            ));
        }
    }
    Ok(())
}

fn stack_mixed(cfg: &RunConfig) -> Result<Outcome, String> {
    let sizes = sizes(cfg.smoke);
    let (prepared, setup_s) = timed_setup(sizes.setups, || {
        let inputs = gen::stream(cfg.seed, sizes.stack);
        let template = sut::sharded(inputs.doc.clone(), 2)?;
        Ok((inputs, template))
    })?;
    let (inputs, template) = prepared;
    let per_producer = steps_by_producer(&inputs.sets[0]);
    let query = ReadQuery::new();
    let dir = cfg.out_dir.join("stack_mixed-store");
    let submissions = inputs.sets[0].steps.len();
    let ops = inputs.total_ops();
    let mut run = QueueRun::default();
    for (drive, budget) in phases(cfg.seconds, STACK_PACED_RATE) {
        let deadline = Instant::now() + budget;
        let mut rounds = 0;
        while Instant::now() < deadline || rounds < sizes.min_rounds {
            let queue = full_stack(&template, &dir, sut::disabled_telemetry())?;
            let (log, pins) =
                drive_round(&queue, &per_producer, drive, |done| reader(&queue, &query, done));
            close_and_check_stack(queue, &dir, &inputs.sets[0].expected, &pins)?;
            let reads: Vec<f64> = pins.iter().map(|p| p.read_ms).collect();
            run.blocks.read_ms_p50.push(stats::median(&reads));
            run.record(drive, log, submissions, ops);
            rounds += 1;
        }
    }
    clean_dir(&dir)?;
    Ok(run.outcome("stack_mixed", setup_s, STACK_PACED_RATE))
}

// ---------------------------------------------------------------------------
// recover_read
// ---------------------------------------------------------------------------

/// A store with history: checkpoint at version 0, commits, a second
/// checkpoint, then a WAL tail.
struct History {
    inputs: Inputs,
    dir: PathBuf,
    final_version: u64,
    /// `ops_upto[v]`: operations committed by versions `1..=v`.
    ops_upto: Vec<usize>,
    second_checkpoint: u64,
    /// A one-operation PUL that commits on the recovered document.
    extra: sut::Pul,
}

impl History {
    /// Operations `read_at(v)` / `open` re-apply to reach `v` from the
    /// nearest checkpoint at or below it.
    fn replayed_ops(&self, v: u64) -> usize {
        let base = if v >= self.second_checkpoint { self.second_checkpoint } else { 0 };
        self.ops_upto[v as usize] - self.ops_upto[base as usize]
    }

    fn replayed_records(&self, v: u64) -> u64 {
        if v >= self.second_checkpoint {
            v - self.second_checkpoint
        } else {
            v
        }
    }

    /// Versions spread evenly over the history (never the final one, which
    /// `read_at` serves from the live session).
    fn versions(&self, count: usize) -> Vec<u64> {
        (1..=count as u64).map(|k| (k * (self.final_version - 1) / count as u64).max(1)).collect()
    }
}

fn build_history(
    seed: u64,
    spec: StreamSpec,
    second_checkpoint: usize,
    dir: &Path,
) -> Result<History, String> {
    let inputs = gen::stream(seed, spec);
    clean_dir(dir)?;
    let options = sut::manual_checkpoint_options(SyncPolicy::Off);
    let mut durable = sut::durable_create(dir, inputs.fresh_session(), options)?;
    let mut ops_upto = vec![0usize];
    for (i, step) in inputs.sets[0].steps.iter().enumerate() {
        if i == second_checkpoint {
            sut::checkpoint(&mut durable)?;
        }
        durable.submit_wire(&step.wire)?;
        durable.commit_round()?;
        ops_upto.push(ops_upto[i] + step.ops);
    }
    let final_version = durable.current_version();
    check_document("recover_read (built)", &durable.to_xml(), &inputs.sets[0].expected)?;
    let extra = sut::root_rename(&inputs.doc, &inputs.labeling);
    drop(durable);
    Ok(History {
        inputs,
        dir: dir.to_path_buf(),
        final_version,
        ops_upto,
        second_checkpoint: second_checkpoint as u64,
        extra,
    })
}

fn copy_store(from: &Path, to: &Path) -> Result<(), String> {
    clean_dir(to)?;
    std::fs::create_dir_all(to).map_err(|e| format!("create {}: {e}", to.display()))?;
    for entry in std::fs::read_dir(from).map_err(|e| format!("read {}: {e}", from.display()))? {
        let entry = entry.map_err(|e| e.to_string())?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))
            .map_err(|e| format!("copy {}: {e}", entry.path().display()))?;
    }
    Ok(())
}

/// One repetition on a private copy of the store, every call on a fresh
/// handle so the snapshot cache is cold. Returns the timed spans.
struct RecoverRep {
    open: Duration,
    reads: Vec<Duration>,
    cold_snapshot: Duration,
    checkpoint: Duration,
    replayed_ops: usize,
    replayed_records: u64,
}

fn recover_rep(
    history: &History,
    work: &Path,
    versions: &[u64],
    query: &ReadQuery,
) -> Result<RecoverRep, String> {
    copy_store(&history.dir, work)?;
    let options = sut::manual_checkpoint_options(SyncPolicy::Off);
    let t0 = Instant::now();
    let mut durable: sut::Durable<Executor> = sut::durable_open(work, options)?;
    let open = t0.elapsed();
    if durable.current_version() != history.final_version {
        return Err(format!(
            "recover_read: recovered version {} where {} was built",
            durable.current_version(),
            history.final_version
        ));
    }
    check_document("recover_read", &durable.to_xml(), &history.inputs.sets[0].expected)?;

    let mut reads = Vec::with_capacity(versions.len());
    let mut replayed_ops = history.replayed_ops(history.final_version);
    let mut replayed_records = history.replayed_records(history.final_version);
    for &v in versions {
        let t0 = Instant::now();
        let snapshot = sut::read_at(&durable, v)?;
        std::hint::black_box(query.read(&snapshot));
        reads.push(t0.elapsed());
        if sut::snapshot_version(&snapshot) != v {
            return Err(format!("recover_read: read_at({v}) pinned another version"));
        }
        replayed_ops += history.replayed_ops(v);
        replayed_records += history.replayed_records(v);
    }

    durable.submit_pul(history.extra.clone());
    durable.commit_round()?;
    let t0 = Instant::now();
    let snapshot = durable.pin();
    let cold_snapshot = t0.elapsed();
    if sut::snapshot_version(&snapshot) != history.final_version + 1 {
        return Err("recover_read: the commit after recovery did not advance the version".into());
    }
    let t0 = Instant::now();
    sut::checkpoint(&mut durable)?;
    let checkpoint = t0.elapsed();
    Ok(RecoverRep { open, reads, cold_snapshot, checkpoint, replayed_ops, replayed_records })
}

fn recover_read(cfg: &RunConfig) -> Result<Outcome, String> {
    let sizes = sizes(cfg.smoke);
    let dir = cfg.out_dir.join("recover_read-store");
    let work = cfg.out_dir.join("recover_read-work");
    let (history, setup_s) = timed_setup(sizes.setups, || {
        build_history(cfg.seed, sizes.recover, sizes.recover_second_checkpoint, &dir)
    })?;
    let versions = history.versions(sizes.recover_versions);
    let query = ReadQuery::new();
    let deadline = Instant::now() + Duration::from_secs_f64(cfg.seconds);
    let reps_per_sweep = versions.len().div_ceil(sizes.recover_reads_per_rep);
    let mut blocks = Blocks::default();
    let mut sweeps = 0usize;
    // A block is one sweep: as many repetitions as it takes to read every
    // one of the spread versions once.
    while Instant::now() < deadline || sweeps < sizes.min_rounds {
        let (mut open_ms, mut read_ms) = (Vec::new(), Vec::new());
        let (mut ops, mut records, mut busy) = (0usize, 0u64, Duration::ZERO);
        for rep in 0..reps_per_sweep {
            let picked: Vec<u64> = versions
                .iter()
                .copied()
                .skip(rep * sizes.recover_reads_per_rep)
                .take(sizes.recover_reads_per_rep)
                .collect();
            let timed = recover_rep(&history, &work, &picked, &query)?;
            busy += timed.open
                + timed.reads.iter().sum::<Duration>()
                + timed.cold_snapshot
                + timed.checkpoint;
            open_ms.push(ms(timed.open));
            read_ms.extend(timed.reads.iter().map(|&d| ms(d)));
            ops += timed.replayed_ops;
            records += timed.replayed_records;
        }
        blocks.rates(ops, records as usize, busy);
        blocks.latency_ms_p50.push(stats::median(&open_ms));
        blocks.read_ms_p50.push(stats::median(&read_ms));
        blocks.latency_ms.extend(open_ms);
        sweeps += 1;
    }
    clean_dir(&work)?;
    clean_dir(&dir)?;
    let notes = vec![
        format!(
            "recover_read: {sweeps} blocks of {reps_per_sweep} repetitions on fresh handles (one sweep over {} historical versions); latency = Durable::open (checkpoint + {}-record tail); read = cold read_at(v) + query; throughput = replayed operations (records) per second of open + reads + cold snapshot + checkpoint; near-best block reported",
            versions.len(),
            history.final_version - history.second_checkpoint,
        ),
        blocks.tail_note("recover_read open"),
    ];
    let calls = sweeps * reps_per_sweep * (3 + sizes.recover_reads_per_rep);
    Ok(Outcome { attempted: calls as u64, failed: 0, metrics: blocks.metrics(setup_s), notes })
}
