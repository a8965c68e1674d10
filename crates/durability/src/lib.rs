//! # dap-durability — commit log, snapshots, and crash recovery
//!
//! The serving engine (`dap-relalg`'s
//! [`PlanRegistry`](dap_relalg::PlanRegistry) plus `dap-core`'s
//! `DeletionContext`) forgets everything on exit. This crate makes the
//! served state survive: every applied deletion batch and every standing
//! query (un)registration is framed — length-prefixed, CRC-32
//! checksummed — and appended to a write-ahead commit log *before* it is
//! applied; periodic [`Snapshot`]s persist the source instance, the
//! committed tid set, and the durable view catalog (queries serialized
//! through their `Display` → parser round trip); and [`recover`] rebuilds
//! a process by loading the newest valid snapshot and replaying the log
//! tail through the exact serving paths a live commit uses.
//!
//! The crash model is taken seriously rather than assumed away: the
//! [`LogFile`] trait is the only thing touching bytes, so a test can swap
//! in a fault-injecting sink (`FaultyLog`, in `tests/support/faulty_log.rs`)
//! that simulates a crash at *any* byte offset of the write stream
//! (tearing the append that crosses it) plus bit-level media corruption.
//! The property suites in `tests/prop_durability.rs`
//! sweep every crash point of generated workloads and assert
//! **prefix-consistency**: recovery always lands on a state identical to
//! some prefix of the committed operations, corrupt tails are detected by
//! checksum, truncated at the last valid record, and reported — never a
//! panic, never a half-applied commit.
//!
//! ```
//! use dap_durability::{recover, DurableOptions, DurableState};
//! use dap_relalg::{parse_database, parse_query, tuple};
//!
//! let dir = std::env::temp_dir().join(format!("dap-doc-{}", std::process::id()));
//! let _ = std::fs::remove_dir_all(&dir);
//! let db = parse_database(
//!     "relation UserGroup(user, grp) { (ann, staff), (bob, dev) }
//!      relation GroupFile(grp, file) { (staff, report), (dev, main) }",
//! ).unwrap();
//! let q = parse_query("project(join(scan UserGroup, scan GroupFile), [user, file])").unwrap();
//!
//! let mut state = DurableState::create(&dir, &db, DurableOptions::default()).unwrap();
//! let id = state.register(&q).unwrap();
//! let dev = db.tid_of("UserGroup", &tuple(["bob", "dev"])).unwrap();
//! state.delete_sources(&[dev]).unwrap();
//! let before_crash: Vec<_> =
//!     state.registry().iter_query(id).map(|(t, _)| t.clone()).collect();
//! drop(state); // "crash"
//!
//! let (recovered, report) = recover(&dir).unwrap();
//! assert_eq!(report.records_replayed, 2);
//! let after: Vec<_> =
//!     recovered.registry().iter_query(id).map(|(t, _)| t.clone()).collect();
//! assert_eq!(after, before_crash);
//! # let _ = std::fs::remove_dir_all(&dir);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod crc;
pub mod frame;
pub mod log;
pub mod logfile;
pub mod snapshot;
pub mod state;

pub use crc::crc32;
pub use frame::{decode_all, decode_frame, encode_frame, frame_bytes, FrameError};
pub use log::{CommitLog, LogRecord};
pub use logfile::{FsyncMode, LogFile, MemLog, SharedBytes, StdLogFile};
pub use snapshot::Snapshot;
pub use state::{recover, recover_with, DurableOptions, DurableState, RecoveryReport, LOG_FILE};
