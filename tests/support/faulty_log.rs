//! The fault-injecting [`LogFile`] behind the crash-point sweeps: swapped
//! in beneath the production `CommitLog` / `DurableState` code paths via
//! `DurableState::create_with_log`.

use dap::durability::{LogFile, SharedBytes};
use std::io;
use std::sync::Arc;

/// The fault-injection [`LogFile`]: persists into a [`SharedBytes`]
/// buffer until a byte budget runs out, then *tears* the append that
/// crossed the budget (persisting only the prefix that fit) and fails it
/// and every later append — simulating a crash at an arbitrary byte
/// offset of the write stream. Optionally flips one bit of what was
/// persisted, simulating media corruption beneath a successful write.
///
/// The surviving buffer is exactly what recovery gets to see; tests sweep
/// the budget over every offset of a workload's write stream to prove
/// prefix-consistency at *every* crash point.
pub struct FaultyLog {
    buf: SharedBytes,
    /// Bytes still allowed to persist before the simulated crash.
    budget: usize,
    crashed: bool,
    /// `(offset, bit)` to corrupt once that offset exists.
    flip: Option<(usize, u8)>,
}

impl FaultyLog {
    /// A log that crashes once `budget` persisted bytes are exceeded.
    pub fn new(budget: usize) -> (FaultyLog, SharedBytes) {
        let buf: SharedBytes = Arc::default();
        (
            FaultyLog {
                buf: buf.clone(),
                budget,
                crashed: false,
                flip: None,
            },
            buf,
        )
    }

    /// Additionally flip bit `bit` of the byte at `offset` as soon as
    /// that byte is persisted.
    pub fn with_bit_flip(budget: usize, offset: usize, bit: u8) -> (FaultyLog, SharedBytes) {
        let (mut log, buf) = FaultyLog::new(budget);
        log.flip = Some((offset, bit % 8));
        (log, buf)
    }

    /// Has the simulated crash happened yet?
    pub fn crashed(&self) -> bool {
        self.crashed
    }
}

/// Fire a pending `(offset, bit)` flip once that offset is persisted.
fn apply_flip(flip: &mut Option<(usize, u8)>, buf: &mut [u8]) {
    if let Some((at, bit)) = *flip {
        if at < buf.len() {
            buf[at] ^= 1 << bit;
            *flip = None;
        }
    }
}

impl LogFile for FaultyLog {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        let mut buf = self.buf.lock().expect("poisoned");
        if self.crashed {
            return Err(io::Error::other("simulated crash: log file is gone"));
        }
        if bytes.len() <= self.budget {
            self.budget -= bytes.len();
            buf.extend_from_slice(bytes);
            apply_flip(&mut self.flip, &mut buf);
            return Ok(());
        }
        // Torn write: the prefix that fit the budget reaches the disk,
        // the rest of the record never does, and the writer sees a crash.
        let fit = self.budget;
        self.budget = 0;
        self.crashed = true;
        buf.extend_from_slice(&bytes[..fit]);
        apply_flip(&mut self.flip, &mut buf);
        Err(io::Error::other("simulated crash: torn append"))
    }

    fn sync(&mut self) -> io::Result<()> {
        if self.crashed {
            return Err(io::Error::other("simulated crash: log file is gone"));
        }
        Ok(())
    }

    fn offset(&self) -> u64 {
        self.buf.lock().expect("poisoned").len() as u64
    }

    fn rotate(&mut self, keep_from: u64) -> io::Result<()> {
        if self.crashed {
            return Err(io::Error::other("simulated crash: log file is gone"));
        }
        let mut buf = self.buf.lock().expect("poisoned");
        let keep = (keep_from.min(buf.len() as u64)) as usize;
        buf.drain(..keep);
        // A pending flip aimed at a rotated-away byte shifts with the
        // surviving suffix; one aimed inside the dropped prefix is spent.
        if let Some((at, bit)) = self.flip {
            self.flip = at.checked_sub(keep).map(|at| (at, bit));
        }
        Ok(())
    }
}
