//! Serving-layer errors, and their projection onto the wire-facing
//! [`ApiError`] taxonomy.

use std::fmt;
use templar_api::{ApiError, SnapshotRejection};
use templar_core::{Obscurity, TemplarError};

/// Errors surfaced by [`TemplarService`](crate::TemplarService) operations.
#[derive(Debug)]
pub enum ServiceError {
    /// The bounded ingestion queue is at capacity; the entry was dropped.
    QueueFull,
    /// The service is shutting down and no longer accepts work.
    ShuttingDown,
    /// The Templar facade could not be constructed (obscurity mismatch).
    Construction(TemplarError),
    /// Snapshot persistence failed.
    Snapshot(SnapshotError),
    /// The write-ahead ingest journal failed (recovery or checkpointing).
    Wal(WalError),
    /// The operation requires a durable service (one started through
    /// [`TemplarService::recover`](crate::TemplarService::recover)).
    NotDurable,
    /// The service is in degraded read-only mode: the durable journal is
    /// failing, so writes are refused instead of queued into a wedged
    /// journal.  Translations and observability keep serving.
    Degraded,
    /// A service thread (the ingestion worker, or recovery's snapshot
    /// decoder) could not be spawned.
    Spawn(std::io::Error),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::QueueFull => write!(f, "ingestion queue is full"),
            ServiceError::ShuttingDown => write!(f, "service is shutting down"),
            ServiceError::Construction(e) => write!(f, "construction error: {e}"),
            ServiceError::Snapshot(e) => write!(f, "snapshot error: {e}"),
            ServiceError::Wal(e) => write!(f, "write-ahead journal error: {e}"),
            ServiceError::NotDurable => {
                write!(
                    f,
                    "service has no durable directory (not started via recover)"
                )
            }
            ServiceError::Degraded => {
                write!(f, "service is degraded (read-only): journal is failing")
            }
            ServiceError::Spawn(e) => write!(f, "failed to spawn a service thread: {e}"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<SnapshotError> for ServiceError {
    fn from(e: SnapshotError) -> Self {
        ServiceError::Snapshot(e)
    }
}

impl From<TemplarError> for ServiceError {
    fn from(e: TemplarError) -> Self {
        ServiceError::Construction(e)
    }
}

impl From<WalError> for ServiceError {
    fn from(e: WalError) -> Self {
        ServiceError::Wal(e)
    }
}

/// Errors reading or writing the write-ahead ingest journal.
#[derive(Debug)]
pub enum WalError {
    /// Underlying filesystem failure.
    Io(std::io::Error),
    /// The journal's promise was broken below the truncatable tail: a torn
    /// or gapped segment that is *not* the final one, or an undecodable
    /// record.  Evidence the journal durably accepted is gone, so recovery
    /// refuses to serve a silently thinner state.
    Corrupt {
        /// The segment file the damage was found in.
        segment: String,
        /// What was wrong.
        detail: String,
    },
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "io: {e}"),
            WalError::Corrupt { segment, detail } => {
                write!(f, "corrupt journal segment {segment}: {detail}")
            }
        }
    }
}

impl std::error::Error for WalError {}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        WalError::Io(e)
    }
}

/// Errors reading or writing an on-disk snapshot.
#[derive(Debug)]
pub enum SnapshotError {
    /// Underlying filesystem failure.
    Io(std::io::Error),
    /// The file does not start with the snapshot magic.
    BadMagic,
    /// The snapshot format version is not supported by this build.
    UnsupportedVersion { found: u32, supported: u32 },
    /// The snapshot was produced at a different obscurity level than the
    /// configuration expects; its counts would be meaningless to mix in.
    ObscurityMismatch {
        expected: Obscurity,
        found: Obscurity,
    },
    /// The snapshot body failed to parse.
    Corrupt(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "io: {e}"),
            SnapshotError::BadMagic => write!(f, "not a Templar snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported snapshot version {found} (this build supports {supported})"
            ),
            SnapshotError::ObscurityMismatch { expected, found } => write!(
                f,
                "snapshot obscurity level {} does not match configured {}",
                found.name(),
                expected.name()
            ),
            SnapshotError::Corrupt(msg) => write!(f, "corrupt snapshot: {msg}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

/// Project a snapshot error onto the wire taxonomy.  Every structured field
/// crosses as data; only the unserializable `io::Error` is stringified (via
/// `Display`, not `Debug`).
impl From<SnapshotError> for ApiError {
    fn from(e: SnapshotError) -> Self {
        match e {
            SnapshotError::Io(io) => ApiError::SnapshotIo {
                detail: io.to_string(),
            },
            SnapshotError::BadMagic => ApiError::SnapshotRejected {
                rejection: SnapshotRejection::BadMagic,
            },
            SnapshotError::UnsupportedVersion { found, supported } => ApiError::SnapshotRejected {
                rejection: SnapshotRejection::UnsupportedVersion { found, supported },
            },
            SnapshotError::ObscurityMismatch { expected, found } => ApiError::SnapshotRejected {
                rejection: SnapshotRejection::ObscurityMismatch { expected, found },
            },
            SnapshotError::Corrupt(detail) => ApiError::SnapshotRejected {
                rejection: SnapshotRejection::Corrupt { detail },
            },
        }
    }
}

/// Project a service error onto the wire taxonomy: queue-full becomes
/// [`ApiError::Backpressure`] so clients can distinguish "retry later" from
/// hard failures.
impl From<ServiceError> for ApiError {
    fn from(e: ServiceError) -> Self {
        match e {
            ServiceError::QueueFull => ApiError::Backpressure,
            ServiceError::ShuttingDown => ApiError::ShuttingDown,
            ServiceError::Construction(error) => ApiError::Construction { error },
            ServiceError::Snapshot(snapshot) => snapshot.into(),
            ServiceError::Wal(wal) => ApiError::Durability {
                detail: wal.to_string(),
            },
            ServiceError::NotDurable => ApiError::Durability {
                detail: "service has no durable directory".to_string(),
            },
            ServiceError::Degraded => ApiError::Degraded,
            ServiceError::Spawn(e) => ApiError::Durability {
                detail: format!("failed to spawn a service thread: {e}"),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_full_maps_to_backpressure() {
        assert_eq!(
            ApiError::from(ServiceError::QueueFull),
            ApiError::Backpressure
        );
        assert_eq!(
            ApiError::from(ServiceError::ShuttingDown),
            ApiError::ShuttingDown
        );
        assert_eq!(ApiError::from(ServiceError::Degraded), ApiError::Degraded);
    }

    #[test]
    fn corrupt_snapshots_cross_as_structured_data() {
        let api: ApiError =
            ServiceError::Snapshot(SnapshotError::Corrupt("truncated body".into())).into();
        assert_eq!(
            api,
            ApiError::SnapshotRejected {
                rejection: SnapshotRejection::Corrupt {
                    detail: "truncated body".into()
                }
            }
        );
        // Round-trip through the wire encoding loses nothing.
        let back: ApiError = serde_json::from_str(&serde_json::to_string(&api).unwrap()).unwrap();
        assert_eq!(back, api);
    }

    #[test]
    fn obscurity_mismatch_crosses_with_both_levels() {
        let api: ApiError = ServiceError::Snapshot(SnapshotError::ObscurityMismatch {
            expected: Obscurity::NoConstOp,
            found: Obscurity::Full,
        })
        .into();
        let ApiError::SnapshotRejected {
            rejection: SnapshotRejection::ObscurityMismatch { expected, found },
        } = api
        else {
            panic!("wrong projection: {api:?}");
        };
        assert_eq!(expected, Obscurity::NoConstOp);
        assert_eq!(found, Obscurity::Full);
    }
}
