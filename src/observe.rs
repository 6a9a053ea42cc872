//! The unified observability surface: one [`TelemetrySnapshot`] gathering the
//! metric registry of [`pul_telemetry`], the session's slab statistics, and
//! the tail of the structured event journal.
//!
//! Read everything through `telemetry_snapshot()` and, for scrape-style
//! export, [`TelemetrySnapshot::render_text`]. The session's own
//! `slab_stats()` getter stays because compaction and the checkpoint trigger
//! read it.

use pul_telemetry::{Event, MetricsSnapshot, Telemetry};

use crate::executor::SessionSlabStats;

/// A point-in-time freeze of everything a session can tell about itself:
/// the telemetry registry (when armed), the always-available structural
/// statistics, and the most recent journal events.
#[derive(Debug, Clone, Default)]
pub struct TelemetrySnapshot {
    /// The frozen metric registry — `None` when no telemetry handle was
    /// armed (the structural statistics below are collected regardless).
    pub metrics: Option<MetricsSnapshot>,
    /// Slot occupancy of the dense id-indexed stores (node arena, labeling).
    pub slab: SessionSlabStats,
    /// The tail of the bounded event journal, oldest first (empty when
    /// telemetry is disabled).
    pub recent_events: Vec<Event>,
    /// Events evicted from the journal ring since arming.
    pub events_dropped: u64,
}

impl TelemetrySnapshot {
    /// Assembles a snapshot from a telemetry handle plus the structural
    /// statistics the owning surface collects for itself.
    pub(crate) fn gather(telemetry: &Telemetry, slab: SessionSlabStats) -> TelemetrySnapshot {
        TelemetrySnapshot {
            metrics: telemetry.snapshot(),
            slab,
            recent_events: telemetry.recent_events(),
            events_dropped: telemetry.events_dropped(),
        }
    }

    /// Prometheus-style text exposition: the registry series first (when
    /// armed), then the structural statistics as gauges. Deterministic
    /// ordering, suitable for golden tests and scrape endpoints.
    pub fn render_text(&self) -> String {
        let mut out = match &self.metrics {
            Some(metrics) => metrics.render_text(),
            None => String::new(),
        };
        let mut gauge = |name: &str, help: &str, v: u64| {
            out.push_str(&format!(
                "# HELP xmlpul_{name} {help}\n# TYPE xmlpul_{name} gauge\nxmlpul_{name} {v}\n"
            ));
        };
        gauge(
            "slab_nodes_live",
            "Live dense slots in the node arena.",
            self.slab.nodes.live as u64,
        );
        gauge(
            "slab_nodes_dead",
            "Dead (never-reused) dense slots in the node arena.",
            self.slab.nodes.dead as u64,
        );
        gauge(
            "slab_nodes_spill",
            "Sparse spill entries of the node arena.",
            self.slab.nodes.spill as u64,
        );
        gauge(
            "slab_labels_live",
            "Live dense slots in the label store.",
            self.slab.labels.live as u64,
        );
        gauge(
            "slab_labels_dead",
            "Dead (never-reused) dense slots in the label store.",
            self.slab.labels.dead as u64,
        );
        gauge(
            "slab_labels_spill",
            "Sparse spill entries of the label store.",
            self.slab.labels.spill as u64,
        );
        gauge(
            "slab_epoch",
            "Compaction epoch the slab statistics were taken under.",
            self.slab.epoch,
        );
        gauge(
            "events_dropped",
            "Events evicted from the bounded journal ring.",
            self.events_dropped,
        );
        out
    }
}
