//! The byte sink the commit log writes through — a real file or an
//! in-memory buffer; the crash tests plug a fault-injecting sink
//! (`tests/support/faulty_log.rs`) into the same trait.
//!
//! Everything above this module ([`crate::log::CommitLog`],
//! [`crate::state::DurableState`]) is written against the [`LogFile`]
//! trait, so the crash-point property tests exercise the *production*
//! append/commit/recover code paths with only the bottom byte sink
//! swapped out.

use std::io::{self, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

/// How eagerly appended records are forced to stable storage. Read from
/// the `DAP_FSYNC` environment variable by [`FsyncMode::from_env`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum FsyncMode {
    /// `fsync` after every record — an acknowledged commit is durable.
    #[default]
    Always,
    /// `fsync` every [`FsyncMode::BATCH_INTERVAL`] records (and on
    /// explicit [`crate::log::CommitLog::sync`]) — a crash may lose the
    /// tail of acknowledged-but-unsynced records, never a prefix.
    Batch,
    /// Never `fsync`; the OS flushes when it pleases. Fastest, weakest.
    Never,
}

impl FsyncMode {
    /// Records between syncs in [`FsyncMode::Batch`].
    pub const BATCH_INTERVAL: usize = 8;

    /// Parse `DAP_FSYNC` (`always` | `batch` | `never`, default
    /// [`FsyncMode::Always`]; unknown values fall back to the default).
    pub fn from_env() -> FsyncMode {
        match std::env::var("DAP_FSYNC").as_deref() {
            Ok("batch") => FsyncMode::Batch,
            Ok("never") => FsyncMode::Never,
            _ => FsyncMode::Always,
        }
    }
}

impl std::fmt::Display for FsyncMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            FsyncMode::Always => "always",
            FsyncMode::Batch => "batch",
            FsyncMode::Never => "never",
        })
    }
}

/// An append-only byte sink with an explicit durability point.
///
/// The contract the recovery proofs rest on: bytes reach the sink in
/// append order, a failed [`LogFile::append`] may have persisted any
/// *prefix* of its bytes (a torn write), and after a crash the sink's
/// contents are some prefix of everything appended — possibly cut
/// mid-frame — plus, for the fault harness, injected corruption.
pub trait LogFile: Send {
    /// Append `bytes` at the end. On error, any prefix may have landed.
    fn append(&mut self, bytes: &[u8]) -> io::Result<()>;
    /// Force everything appended so far to stable storage.
    fn sync(&mut self) -> io::Result<()>;
    /// Bytes successfully appended so far.
    fn offset(&self) -> u64;
    /// Drop the first `keep_from` bytes — the rotation primitive. After
    /// a successful rotation [`LogFile::offset`] reports the shortened
    /// length. Rotation is an *optimization*: implementations that keep
    /// the prefix (the default) are still correct, recovery just skips
    /// the covered records. A crash mid-rotation must leave either the
    /// whole log or the rotated suffix — never a torn middle.
    fn rotate(&mut self, keep_from: u64) -> io::Result<()> {
        let _ = keep_from;
        Ok(())
    }
}

/// A real `std::fs::File` opened for append.
pub struct StdLogFile {
    file: std::fs::File,
    path: std::path::PathBuf,
    offset: u64,
}

impl StdLogFile {
    /// Open (creating if absent) `path` for appending; the logical offset
    /// starts at the current file length.
    pub fn open(path: &Path) -> io::Result<StdLogFile> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        let offset = file.metadata()?.len();
        Ok(StdLogFile {
            file,
            path: path.to_path_buf(),
            offset,
        })
    }

    /// The sibling path rotation stages the kept suffix under before the
    /// atomic rename — exposed so recovery can clean up a leftover.
    pub fn rotation_staging_path(path: &Path) -> std::path::PathBuf {
        let mut name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        name.push_str(".rot");
        path.with_file_name(name)
    }
}

impl LogFile for StdLogFile {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.file.write_all(bytes)?;
        self.offset += bytes.len() as u64;
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()
    }

    fn offset(&self) -> u64 {
        self.offset
    }

    /// Rotate via write-suffix-then-rename: the kept suffix is written to
    /// a `.rot` sibling, fsynced, and renamed over the log. A crash
    /// before the rename leaves the original log (plus a stale `.rot`
    /// staging file recovery deletes); a crash after it leaves exactly
    /// the rotated suffix — both recover cleanly.
    fn rotate(&mut self, keep_from: u64) -> io::Result<()> {
        if keep_from == 0 {
            return Ok(());
        }
        self.file.sync_data()?;
        let bytes = std::fs::read(&self.path)?;
        let keep = (keep_from.min(bytes.len() as u64)) as usize;
        let staging = StdLogFile::rotation_staging_path(&self.path);
        {
            let mut f = std::fs::File::create(&staging)?;
            f.write_all(&bytes[keep..])?;
            f.sync_all()?;
        }
        std::fs::rename(&staging, &self.path)?;
        if let Some(parent) = self.path.parent() {
            if let Ok(d) = std::fs::File::open(parent) {
                let _ = d.sync_all();
            }
        }
        self.file = std::fs::OpenOptions::new().append(true).open(&self.path)?;
        self.offset = self.file.metadata()?.len();
        Ok(())
    }
}

/// Shared in-memory image of a simulated log — what "the disk" holds.
/// Tests keep a clone of the handle, crash the writer, and hand the bytes
/// to recovery.
pub type SharedBytes = Arc<Mutex<Vec<u8>>>;

/// An in-memory [`LogFile`] over a [`SharedBytes`] buffer. Never fails.
pub struct MemLog {
    buf: SharedBytes,
}

impl MemLog {
    /// A fresh empty in-memory log plus the shared handle to its bytes.
    pub fn new() -> (MemLog, SharedBytes) {
        let buf: SharedBytes = Arc::default();
        (MemLog { buf: buf.clone() }, buf)
    }
}

impl LogFile for MemLog {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.buf.lock().expect("poisoned").extend_from_slice(bytes);
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        Ok(())
    }

    fn offset(&self) -> u64 {
        self.buf.lock().expect("poisoned").len() as u64
    }

    fn rotate(&mut self, keep_from: u64) -> io::Result<()> {
        let mut buf = self.buf.lock().expect("poisoned");
        let keep = (keep_from.min(buf.len() as u64)) as usize;
        buf.drain(..keep);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fsync_mode_parses_and_displays() {
        assert_eq!(FsyncMode::default(), FsyncMode::Always);
        assert_eq!(FsyncMode::Always.to_string(), "always");
        assert_eq!(FsyncMode::Batch.to_string(), "batch");
        assert_eq!(FsyncMode::Never.to_string(), "never");
    }

    #[test]
    fn mem_log_accumulates() {
        let (mut log, buf) = MemLog::new();
        log.append(b"ab").unwrap();
        log.append(b"cd").unwrap();
        log.sync().unwrap();
        assert_eq!(log.offset(), 4);
        assert_eq!(&*buf.lock().unwrap(), b"abcd");
    }

    #[test]
    fn std_log_file_appends_and_reopens() {
        let dir = std::env::temp_dir().join(format!("dap-logfile-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("probe.log");
        let _ = std::fs::remove_file(&path);
        {
            let mut f = StdLogFile::open(&path).unwrap();
            f.append(b"hello ").unwrap();
            f.sync().unwrap();
            assert_eq!(f.offset(), 6);
        }
        {
            let mut f = StdLogFile::open(&path).unwrap();
            assert_eq!(f.offset(), 6);
            f.append(b"again").unwrap();
        }
        assert_eq!(std::fs::read(&path).unwrap(), b"hello again");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn std_log_file_rotates_the_prefix_away() {
        let dir = std::env::temp_dir().join(format!("dap-logrot-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("probe.log");
        let _ = std::fs::remove_file(&path);
        let mut f = StdLogFile::open(&path).unwrap();
        f.append(b"oldnew").unwrap();
        f.rotate(3).unwrap();
        assert_eq!(f.offset(), 3);
        assert_eq!(std::fs::read(&path).unwrap(), b"new");
        // The append handle keeps working after the rename-and-reopen.
        f.append(b"er").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"newer");
        // Rotating past the end empties the log; rotating at 0 is a no-op.
        f.rotate(100).unwrap();
        assert_eq!(f.offset(), 0);
        f.rotate(0).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn mem_log_rotates() {
        let (mut log, buf) = MemLog::new();
        log.append(b"abcdef").unwrap();
        log.rotate(4).unwrap();
        assert_eq!(log.offset(), 2);
        assert_eq!(&*buf.lock().unwrap(), b"ef");
    }
}
