//! Error type shared by every storage operation.

use crate::device::BlockId;
use std::fmt;

/// Result alias used across the storage crate.
pub type Result<T> = std::result::Result<T, StorageError>;

/// Errors produced by devices, the buffer pool, and the catalog.
#[derive(Debug)]
pub enum StorageError {
    /// A block id past the end of the device was accessed.
    OutOfBounds {
        /// Offending block id.
        block: BlockId,
        /// Device size in blocks at the time of the access.
        num_blocks: u64,
    },
    /// Every frame in the buffer pool is pinned; nothing can be evicted.
    PoolExhausted {
        /// Pool capacity in frames.
        frames: usize,
    },
    /// A buffer supplied to a device call does not match the block size.
    BadBufferLength {
        /// Expected length (the device block size).
        expected: usize,
        /// Length actually supplied.
        got: usize,
    },
    /// An object id unknown to the catalog was referenced.
    UnknownObject(u64),
    /// A fixed-size object was asked to grow; only objects allocated with
    /// `Catalog::alloc_growable` accept `extend`.
    NotGrowable(u64),
    /// A stored object could not be reopened from its name: no live
    /// object carries the name, or it lacks a (matching) catalog header.
    CannotReopen {
        /// The requested object name.
        name: String,
        /// Why the reopen failed.
        reason: &'static str,
    },
    /// A block read back with contents that do not match its recorded
    /// checksum (bit rot, torn write, or misdirected I/O). Raised by
    /// [`crate::VerifyingDevice`]; the data must not be consumed.
    Corruption {
        /// The (logical) block whose contents failed validation.
        block: BlockId,
    },
    /// A block range was freed while part of it was already free (a
    /// double free, or a range overlapping an earlier free).
    DoubleFree {
        /// The first block of the range that was already free.
        block: BlockId,
    },
    /// The underlying operating-system file operation failed.
    Io(std::io::Error),
    /// The query's [`crate::CancelToken`] was triggered; raised by the
    /// governance checkpoint that first observed it.
    Cancelled {
        /// Checkpoint label where the cancellation was observed.
        at: &'static str,
    },
    /// A [`crate::ResourceLimits`] budget was exceeded.
    BudgetExceeded {
        /// Which budget tripped (`"reads"`, `"writes"`, `"flops"`,
        /// `"deadline"`, `"pinned_frames"`, `"temp_blocks"`).
        resource: &'static str,
        /// Usage observed at the checkpoint (milliseconds for
        /// `"deadline"`, counts otherwise).
        used: u64,
        /// The configured limit in the same unit.
        limit: u64,
    },
    /// A pin request waited longer than the pool's configured
    /// `pin_timeout` for a frame to become available. Unlike
    /// [`StorageError::PoolExhausted`] (no frame can ever free up because
    /// everything is pinned and nothing is in flight), this bounds the
    /// *wait* for in-flight frames so a wedged load or write-back cannot
    /// hang a query forever.
    PinTimeout {
        /// Pool capacity in frames.
        frames: usize,
        /// How long the request waited before giving up.
        waited_ms: u64,
    },
}

/// Coarse failure classification driving retry decisions.
///
/// Transient errors are worth re-issuing after a backoff delay (a remote
/// backend timed out, a syscall was interrupted); permanent errors reflect
/// a caller bug or real data loss and must surface immediately.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorClass {
    /// Retrying the same operation may succeed.
    Transient,
    /// Retrying cannot help; surface the error.
    Permanent,
}

impl StorageError {
    /// Classify this error as transient (retryable) or permanent.
    ///
    /// Only OS-level I/O errors can be transient, and only for the kinds a
    /// healthy device or remote backend produces under load: interruption,
    /// timeout, would-block, and dropped connections. Logical errors
    /// (bounds, catalog, buffer length) and [`StorageError::Corruption`]
    /// are permanent — re-reading a bit-flipped block returns the same
    /// bits.
    pub fn class(&self) -> ErrorClass {
        match self {
            StorageError::Io(e) => match e.kind() {
                std::io::ErrorKind::Interrupted
                | std::io::ErrorKind::TimedOut
                | std::io::ErrorKind::WouldBlock
                | std::io::ErrorKind::ConnectionReset
                | std::io::ErrorKind::ConnectionAborted => ErrorClass::Transient,
                _ => ErrorClass::Permanent,
            },
            _ => ErrorClass::Permanent,
        }
    }

    /// `true` when [`StorageError::class`] is [`ErrorClass::Transient`].
    pub fn is_transient(&self) -> bool {
        self.class() == ErrorClass::Transient
    }

    /// `true` for the governance family — cancellation, budget
    /// exhaustion, and bounded pin waits. These are *abort* signals
    /// (the query must unwind and release its resources), not storage
    /// faults.
    pub fn is_governance(&self) -> bool {
        matches!(
            self,
            StorageError::Cancelled { .. }
                | StorageError::BudgetExceeded { .. }
                | StorageError::PinTimeout { .. }
        )
    }
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::OutOfBounds { block, num_blocks } => write!(
                f,
                "block {} out of bounds (device has {} blocks)",
                block.0, num_blocks
            ),
            StorageError::PoolExhausted { frames } => {
                write!(f, "buffer pool exhausted: all {frames} frames are pinned")
            }
            StorageError::BadBufferLength { expected, got } => write!(
                f,
                "buffer length {got} does not match block size {expected}"
            ),
            StorageError::UnknownObject(id) => write!(f, "unknown object id {id}"),
            StorageError::NotGrowable(id) => {
                write!(f, "object {id} is fixed-size; only growable objects extend")
            }
            StorageError::CannotReopen { name, reason } => {
                write!(f, "cannot reopen object '{name}': {reason}")
            }
            StorageError::Corruption { block } => {
                write!(
                    f,
                    "block {} failed checksum validation (corruption)",
                    block.0
                )
            }
            StorageError::DoubleFree { block } => {
                write!(f, "block {} freed while already free", block.0)
            }
            StorageError::Io(e) => write!(f, "I/O error: {e}"),
            StorageError::Cancelled { at } => {
                write!(f, "query cancelled at checkpoint '{at}'")
            }
            StorageError::BudgetExceeded {
                resource,
                used,
                limit,
            } => write!(
                f,
                "resource budget exceeded: {resource} used {used} > limit {limit}"
            ),
            StorageError::PinTimeout { frames, waited_ms } => write!(
                f,
                "pin wait timed out after {waited_ms} ms ({frames}-frame pool)"
            ),
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_out_of_bounds() {
        let e = StorageError::OutOfBounds {
            block: BlockId(7),
            num_blocks: 4,
        };
        assert_eq!(e.to_string(), "block 7 out of bounds (device has 4 blocks)");
    }

    #[test]
    fn display_pool_exhausted() {
        let e = StorageError::PoolExhausted { frames: 3 };
        assert!(e.to_string().contains("all 3 frames"));
    }

    #[test]
    fn io_error_source_is_preserved() {
        use std::error::Error;
        let e = StorageError::from(std::io::Error::other("boom"));
        assert!(e.source().is_some());
        assert!(e.to_string().contains("boom"));
    }

    #[test]
    fn transient_io_kinds_classify_as_transient() {
        use std::io::ErrorKind;
        for kind in [
            ErrorKind::Interrupted,
            ErrorKind::TimedOut,
            ErrorKind::WouldBlock,
            ErrorKind::ConnectionReset,
            ErrorKind::ConnectionAborted,
        ] {
            let e = StorageError::from(std::io::Error::new(kind, "flaky"));
            assert_eq!(e.class(), ErrorClass::Transient, "{kind:?}");
            assert!(e.is_transient());
        }
    }

    #[test]
    fn everything_else_classifies_as_permanent() {
        let io = StorageError::from(std::io::Error::other("dead disk"));
        assert_eq!(io.class(), ErrorClass::Permanent);
        let logical = StorageError::UnknownObject(3);
        assert_eq!(logical.class(), ErrorClass::Permanent);
        let corrupt = StorageError::Corruption { block: BlockId(4) };
        assert_eq!(corrupt.class(), ErrorClass::Permanent);
        assert!(!corrupt.is_transient());
        assert!(corrupt.to_string().contains("block 4"));
        assert!(corrupt.to_string().contains("corruption"));
    }

    #[test]
    fn governance_family_is_typed_and_permanent() {
        let cancelled = StorageError::Cancelled { at: "matmul.tile" };
        let budget = StorageError::BudgetExceeded {
            resource: "reads",
            used: 12,
            limit: 10,
        };
        let pin = StorageError::PinTimeout {
            frames: 4,
            waited_ms: 250,
        };
        for e in [&cancelled, &budget, &pin] {
            assert!(e.is_governance());
            assert_eq!(e.class(), ErrorClass::Permanent);
        }
        assert!(!StorageError::UnknownObject(1).is_governance());
        assert!(cancelled.to_string().contains("matmul.tile"));
        assert!(budget.to_string().contains("reads used 12 > limit 10"));
        assert!(pin.to_string().contains("250 ms"));
    }
}
