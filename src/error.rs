//! The unified error hierarchy of the façade.
//!
//! The workspace crates each have a focused error type (`xdm::XdmError`,
//! `pul::PulError`, `pul_core::ReconcileError`, `xqupdate::XqError`). Callers
//! of the [`Executor`](crate::Executor) session API never have to juggle them:
//! every fallible operation of the façade returns [`Error`], which wraps the
//! crate-level errors (with `From` impls, so `?` just works) and adds the
//! executor-level failure modes.
//!
//! Every error maps to a **stable error code** ([`Error::code`]) of the form
//! `XPUL-<layer><number>`, intended for logs, metrics and cross-service
//! matching: the code of an existing variant never changes, new variants get
//! new codes.

use std::fmt;
use std::io;

use pul::PulError;
use pul_core::ReconcileError;
use pul_store::StoreError;
use xdm::XdmError;
use xqupdate::XqError;

/// Convenience result alias for the façade API.
pub type Result<T> = std::result::Result<T, Error>;

/// The unified error type of the `xmlpul` façade.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// Document-model or XML syntax error.
    Xdm(XdmError),
    /// PUL validation, evaluation or exchange-format error.
    Pul(PulError),
    /// Reconciliation failed: a conflict cannot be solved without violating a
    /// producer policy.
    Reconcile(ReconcileError),
    /// The XQuery Update front-end rejected an expression.
    Query(XqError),
    /// A [`Resolution`](crate::Resolution) was computed against an earlier
    /// version of the executor's document and can no longer be committed.
    StaleResolution {
        /// The version the resolution was computed against.
        resolved_at: u64,
        /// The executor's current version.
        current: u64,
    },
    /// A submission identifier does not name a pending submission.
    UnknownSubmission(crate::SubmissionId),
    /// An I/O error. The originating [`std::io::ErrorKind`] is preserved so
    /// retry policies can classify the failure (see [`Error::is_transient`]).
    Io {
        /// The preserved kind of the underlying `std::io::Error`.
        kind: io::ErrorKind,
        /// Human-readable detail.
        msg: String,
    },
    /// A sharded-executor routing or partitioning failure: an operation that
    /// cannot be assigned to any shard (e.g. a whole-root replacement, or a
    /// target unknown to every shard).
    Shard(String),
    /// An ingestion-pipeline failure: the queue was closed when a submission
    /// arrived, or a ticket was poisoned by the pipeline shutting down before
    /// its submission could be committed.
    Ingest(String),
    /// A durable-store failure: the WAL could not be appended, a checkpoint
    /// could not be written or loaded, or recovery/`read_at` met a record
    /// stream inconsistent with the session it was replayed into. Carries the
    /// structured [`StoreError`] (operation, `io::ErrorKind`, WAL position).
    Store(StoreError),
    /// Admission control rejected a submission: an
    /// [`enqueue_all`](crate::IngestQueue::enqueue_all) group is larger than
    /// the ingest queue's capacity, so it could never fit.
    Overload(String),
    /// The durable session is in sticky read-only degraded mode: a WAL or
    /// checkpoint write exhausted its retry budget, so further commits are
    /// refused rather than risking a torn state. Reads still work; recovery
    /// is reopening the store.
    Degraded(String),
    /// A pending submission was admitted before the session's last compaction
    /// epoch: `compact()` renumbered every node identifier, so the ids the
    /// submission's PUL targets no longer name the nodes its producer meant.
    /// The submission is fenced rather than silently applied to the wrong
    /// nodes; the producer must withdraw it and re-submit against the
    /// current epoch's identifiers.
    EpochFenced {
        /// The fenced pending submission.
        submission: crate::SubmissionId,
        /// The epoch the submission was admitted under.
        submission_epoch: u64,
        /// The session's current epoch.
        current_epoch: u64,
    },
}

impl Error {
    /// The stable error code: `XPUL-` followed by a layer prefix (`D` for the
    /// document model, `P` for PULs, `C` for the reasoning core, `Q` for the
    /// query front-end, `E` for the executor) and a two-digit number.
    pub fn code(&self) -> &'static str {
        fn xdm_code(e: &XdmError) -> &'static str {
            match e {
                XdmError::NodeNotFound(_) => "XPUL-D01",
                XdmError::DuplicateNodeId(_) => "XPUL-D02",
                XdmError::InvalidStructure(_) => "XPUL-D03",
                XdmError::NoRoot => "XPUL-D04",
                XdmError::Parse { .. } => "XPUL-D05",
                XdmError::Detached(_) => "XPUL-D06",
            }
        }
        match self {
            Error::Xdm(e) => xdm_code(e),
            Error::Pul(e) => match e {
                PulError::NotApplicable { .. } => "XPUL-P01",
                PulError::Incompatible { .. } => "XPUL-P02",
                PulError::Dynamic(_) => "XPUL-P03",
                // `From<PulError>` flattens this variant into `Error::Xdm`;
                // a hand-built value still reports the document-model code.
                PulError::Xdm(inner) => xdm_code(inner),
                PulError::Format(_) => "XPUL-P05",
                PulError::TooManyOutcomes { .. } => "XPUL-P06",
            },
            Error::Reconcile(_) => "XPUL-C01",
            Error::Query(_) => "XPUL-Q01",
            Error::StaleResolution { .. } => "XPUL-E01",
            Error::UnknownSubmission(_) => "XPUL-E02",
            // XPUL-E03 is retired (the session streaming commit's stream
            // mismatch) and never reused.
            Error::Io { .. } => "XPUL-E04",
            Error::Shard(_) => "XPUL-E05",
            Error::Ingest(_) => "XPUL-E06",
            Error::Store(_) => "XPUL-E07",
            Error::Overload(_) => "XPUL-E08",
            Error::Degraded(_) => "XPUL-E09",
            Error::EpochFenced { .. } => "XPUL-E10",
        }
    }

    /// A session-level (logical) store error: malformed checkpoint contents,
    /// a replayed record stream inconsistent with the session, and the like.
    /// Surfaces as `XPUL-E07` with kind [`io::ErrorKind::InvalidData`].
    pub fn store(msg: impl Into<String>) -> Error {
        Error::Store(StoreError::new("session", io::ErrorKind::InvalidData, msg))
    }

    /// The error an armed fault of `kind` injects at a failpoint `site`
    /// outside the store (shard apply, ingest prepare and commit).
    pub fn injected(site: &'static str, kind: pul_store::FaultKind) -> Error {
        Error::Io { kind: kind.io_kind(), msg: format!("injected fault at {site}") }
    }

    /// The underlying `std::io::ErrorKind`, when this error carries one.
    pub fn io_kind(&self) -> Option<io::ErrorKind> {
        match self {
            Error::Io { kind, .. } => Some(*kind),
            Error::Store(e) => Some(e.kind),
            _ => None,
        }
    }

    /// Whether a retry of the failed operation may succeed. Only I/O-carrying
    /// errors with an interrupted / would-block / timed-out kind are
    /// transient; logical failures, overload shedding and degraded mode are
    /// permanent for the operation that observed them.
    pub fn is_transient(&self) -> bool {
        self.io_kind().is_some_and(pul_store::transient_kind)
    }

    /// The conflict that made reconciliation fail, when there is one.
    pub fn unsolvable_conflict(&self) -> Option<&pul_core::Conflict> {
        match self {
            Error::Reconcile(e) => Some(&e.conflict),
            _ => None,
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] ", self.code())?;
        match self {
            Error::Xdm(e) => write!(f, "{e}"),
            Error::Pul(e) => write!(f, "{e}"),
            Error::Reconcile(e) => write!(f, "{e}"),
            Error::Query(e) => write!(f, "{e}"),
            Error::StaleResolution { resolved_at, current } => write!(
                f,
                "stale resolution: computed against version {resolved_at}, executor is at version {current}"
            ),
            Error::UnknownSubmission(id) => write!(f, "no pending submission {id}"),
            Error::Io { kind, msg } => write!(f, "I/O error ({kind:?}): {msg}"),
            Error::Shard(msg) => write!(f, "sharding error: {msg}"),
            Error::Ingest(msg) => write!(f, "ingestion error: {msg}"),
            Error::Store(e) => write!(f, "durable store error: {e}"),
            Error::Overload(msg) => write!(f, "admission control: {msg}"),
            Error::Degraded(msg) => write!(f, "degraded mode: {msg}"),
            Error::EpochFenced { submission, submission_epoch, current_epoch } => write!(
                f,
                "{submission} was admitted under epoch {submission_epoch}, but compaction \
                 renumbered the document (epoch {current_epoch}): withdraw and re-submit \
                 against the current identifiers"
            ),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Xdm(e) => Some(e),
            Error::Pul(e) => Some(e),
            Error::Reconcile(e) => Some(e),
            Error::Query(e) => Some(e),
            _ => None,
        }
    }
}

impl From<XdmError> for Error {
    fn from(e: XdmError) -> Self {
        Error::Xdm(e)
    }
}

impl From<PulError> for Error {
    fn from(e: PulError) -> Self {
        // Flatten the document-model errors that bubbled up through the PUL
        // layer, so matching on `Error::Xdm` is reliable.
        match e {
            PulError::Xdm(inner) => Error::Xdm(inner),
            other => Error::Pul(other),
        }
    }
}

impl From<ReconcileError> for Error {
    fn from(e: ReconcileError) -> Self {
        Error::Reconcile(e)
    }
}

impl From<XqError> for Error {
    fn from(e: XqError) -> Self {
        Error::Query(e)
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io { kind: e.kind(), msg: e.to_string() }
    }
}

impl From<StoreError> for Error {
    fn from(e: StoreError) -> Self {
        Error::Store(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_and_prefixed() {
        let cases: Vec<(Error, &str)> = vec![
            (Error::from(XdmError::NoRoot), "XPUL-D04"),
            (Error::from(PulError::Dynamic("x".into())), "XPUL-P03"),
            (Error::from(XqError("bad".into())), "XPUL-Q01"),
            (Error::StaleResolution { resolved_at: 1, current: 2 }, "XPUL-E01"),
            (Error::Ingest("queue closed".into()), "XPUL-E06"),
            (Error::store("wal append failed"), "XPUL-E07"),
            (Error::Overload("queue at capacity".into()), "XPUL-E08"),
            (Error::Degraded("retries exhausted".into()), "XPUL-E09"),
            (
                Error::EpochFenced {
                    submission: crate::SubmissionId(7),
                    submission_epoch: 0,
                    current_epoch: 1,
                },
                "XPUL-E10",
            ),
        ];
        for (e, code) in cases {
            assert_eq!(e.code(), code);
            assert!(e.to_string().starts_with(&format!("[{code}]")), "{e}");
        }
    }

    #[test]
    fn io_errors_preserve_the_kind() {
        let e = Error::from(io::Error::new(io::ErrorKind::Interrupted, "try again"));
        assert_eq!(e.code(), "XPUL-E04");
        assert_eq!(e.io_kind(), Some(io::ErrorKind::Interrupted));
        assert!(e.is_transient());
        let e = Error::from(io::Error::other("gone"));
        assert!(!e.is_transient());
        let e = Error::from(StoreError::new(
            pul_store::site::WAL_APPEND,
            io::ErrorKind::TimedOut,
            "slow disk",
        ));
        assert_eq!(e.code(), "XPUL-E07");
        assert!(e.is_transient());
        assert!(!Error::store("malformed checkpoint").is_transient());
        assert!(!Error::Overload("shed".into()).is_transient());
        assert!(!Error::Degraded("sticky".into()).is_transient());
    }

    #[test]
    fn pul_wrapped_xdm_errors_are_flattened() {
        let e = Error::from(PulError::Xdm(XdmError::NoRoot));
        assert!(matches!(e, Error::Xdm(XdmError::NoRoot)));
        assert_eq!(e.code(), "XPUL-D04");
        // Even a hand-built (unflattened) value reports the inner D-code, so
        // one failure mode never maps to two codes.
        let e = Error::Pul(PulError::Xdm(XdmError::NoRoot));
        assert_eq!(e.code(), "XPUL-D04");
    }

    #[test]
    fn sources_are_linked() {
        let e = Error::from(PulError::Dynamic("boom".into()));
        assert!(std::error::Error::source(&e).is_some());
    }
}
