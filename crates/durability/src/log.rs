//! The commit log: sequenced records of everything that mutates the
//! served state, framed (see [`crate::frame`]) and appended through a
//! [`LogFile`].
//!
//! Record payloads are UTF-8 text — one of
//!
//! ```text
//! <seq> delete <rel>#<row>,<rel>#<row>,...
//! <seq> register q<k> <query in Display/parser syntax>
//! <seq> unregister q<k>
//! ```
//!
//! — chosen over a binary encoding because every component already has a
//! pinned textual round trip (`Tid`/`QueryId` `Display`, the `Query`
//! `Display` → [`dap_relalg::parse_query`] law the catalog proptests
//! pin), and a human can read a damaged log with `dap log <dir>`.
//! Sequence numbers are explicit and strictly increasing so recovery can
//! cross-check the log tail against the snapshot it is replayed onto;
//! any violation is diagnosed as corruption, not applied.

use crate::frame::frame_bytes;
use crate::logfile::{FsyncMode, LogFile};
use dap_core::{CoreError, Result};
use dap_relalg::{parse_query, Query, QueryId, Tid};

/// One durable operation. `Delete` carries the tids of an applied source
/// deletion batch; `Register`/`Unregister` track the standing-query
/// catalog, with explicit [`QueryId`]s so replay reproduces the original
/// handles exactly (the live process may burn ids on ephemeral
/// registrations that are never logged).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum LogRecord {
    /// A committed source deletion batch.
    Delete(Vec<Tid>),
    /// A standing query entered the catalog under the given id.
    Register(QueryId, Query),
    /// A standing query left the catalog.
    Unregister(QueryId),
}

impl LogRecord {
    /// Render the payload text for this record under sequence number
    /// `seq`.
    pub fn encode_payload(&self, seq: u64) -> Vec<u8> {
        match self {
            LogRecord::Delete(tids) => {
                let list: Vec<String> = tids.iter().map(Tid::to_string).collect();
                format!("{seq} delete {}", list.join(","))
            }
            LogRecord::Register(id, q) => format!("{seq} register {id} {q}"),
            LogRecord::Unregister(id) => format!("{seq} unregister {id}"),
        }
        .into_bytes()
    }

    /// Parse a payload back into `(seq, record)`. Errors carry only the
    /// diagnosis; the caller owns the byte offset and lifts into
    /// [`CoreError::CorruptLog`].
    pub fn decode_payload(payload: &[u8]) -> std::result::Result<(u64, LogRecord), String> {
        let text = std::str::from_utf8(payload).map_err(|_| "record is not utf-8".to_string())?;
        let (seq_text, rest) = text
            .split_once(' ')
            .ok_or_else(|| "record missing sequence number".to_string())?;
        let seq: u64 = seq_text
            .parse()
            .map_err(|_| format!("bad sequence number `{seq_text}`"))?;
        let (op, args) = match rest.split_once(' ') {
            Some((op, args)) => (op, args),
            None => (rest, ""),
        };
        let record = match op {
            "delete" => {
                let mut tids = Vec::new();
                for part in args.split(',').filter(|p| !p.is_empty()) {
                    tids.push(parse_tid(part)?);
                }
                if tids.is_empty() {
                    return Err("delete record names no tuples".into());
                }
                LogRecord::Delete(tids)
            }
            "register" => {
                let (id_text, query_text) = args
                    .split_once(' ')
                    .ok_or_else(|| "register record missing query text".to_string())?;
                let id = parse_query_id(id_text)?;
                let q = parse_query(query_text)
                    .map_err(|e| format!("register record query does not parse: {e}"))?;
                LogRecord::Register(id, q)
            }
            "unregister" => LogRecord::Unregister(parse_query_id(args)?),
            other => return Err(format!("unknown record kind `{other}`")),
        };
        Ok((seq, record))
    }
}

/// Parse `rel#row` (the [`Tid`] `Display` form). Splits on the *last*
/// `#` — relation names may themselves contain one.
pub fn parse_tid(text: &str) -> std::result::Result<Tid, String> {
    let (rel, row) = text
        .rsplit_once('#')
        .ok_or_else(|| format!("bad tuple id `{text}` (want rel#row)"))?;
    if rel.is_empty() {
        return Err(format!("bad tuple id `{text}` (empty relation)"));
    }
    let row: usize = row
        .parse()
        .map_err(|_| format!("bad tuple id `{text}` (row is not a number)"))?;
    Ok(Tid::new(rel, row))
}

/// Parse `q<k>` (the [`QueryId`] `Display` form).
pub fn parse_query_id(text: &str) -> std::result::Result<QueryId, String> {
    let index = text
        .strip_prefix('q')
        .and_then(|k| k.parse::<u64>().ok())
        .ok_or_else(|| format!("bad query id `{text}` (want q<k>)"))?;
    Ok(QueryId::from_index(index))
}

/// The append half of the write-ahead log: frames records, hands them to
/// the [`LogFile`], and enforces the fsync discipline. The state layer
/// appends *before* applying — a record that fails to append is never
/// applied, so an acknowledged state change is always at least in the OS
/// write stream (and on stable storage under [`FsyncMode::Always`]).
pub struct CommitLog {
    file: Box<dyn LogFile>,
    mode: FsyncMode,
    appended_since_sync: usize,
    next_seq: u64,
}

impl CommitLog {
    /// A log writing through `file`, assigning sequence numbers from
    /// `next_seq`.
    pub fn new(file: Box<dyn LogFile>, mode: FsyncMode, next_seq: u64) -> CommitLog {
        CommitLog {
            file,
            mode,
            appended_since_sync: 0,
            next_seq,
        }
    }

    /// The fsync discipline in force.
    pub fn mode(&self) -> FsyncMode {
        self.mode
    }

    /// The sequence number the next append will carry.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Bytes appended so far (the durable offset under
    /// [`FsyncMode::Always`]).
    pub fn offset(&self) -> u64 {
        self.file.offset()
    }

    /// Append one record; returns its sequence number. On error nothing
    /// is acknowledged: the sequence does not advance and the caller must
    /// not apply the operation (the bytes may be torn on disk — recovery
    /// truncates them).
    pub fn append(&mut self, record: &LogRecord) -> Result<u64> {
        let seq = self.next_seq;
        let bytes = frame_bytes(&record.encode_payload(seq));
        self.file.append(&bytes).map_err(|e| CoreError::Io {
            context: format!("append to commit log: {e}"),
        })?;
        self.next_seq += 1;
        self.appended_since_sync += 1;
        match self.mode {
            FsyncMode::Always => self.sync()?,
            FsyncMode::Batch if self.appended_since_sync >= FsyncMode::BATCH_INTERVAL => {
                self.sync()?
            }
            _ => {}
        }
        Ok(seq)
    }

    /// Rotate the first `keep_from` bytes out of the underlying file —
    /// called by the state layer after a snapshot has made them
    /// redundant. Sequence numbers are unaffected; the next append
    /// continues the chain.
    pub fn rotate(&mut self, keep_from: u64) -> Result<()> {
        self.file.rotate(keep_from).map_err(|e| CoreError::Io {
            context: format!("rotate commit log: {e}"),
        })
    }

    /// Force everything appended so far to stable storage.
    pub fn sync(&mut self) -> Result<()> {
        self.file.sync().map_err(|e| CoreError::Io {
            context: format!("sync commit log: {e}"),
        })?;
        self.appended_since_sync = 0;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::decode_all;
    use crate::logfile::MemLog;
    use dap_relalg::parse_query;

    fn roundtrip(rec: LogRecord, seq: u64) {
        let payload = rec.encode_payload(seq);
        assert_eq!(LogRecord::decode_payload(&payload).unwrap(), (seq, rec));
    }

    #[test]
    fn records_round_trip() {
        roundtrip(
            LogRecord::Delete(vec![Tid::new("R", 0), Tid::new("S#odd", 12)]),
            7,
        );
        roundtrip(
            LogRecord::Register(
                QueryId::from_index(3),
                parse_query("select(project(join(scan R, scan S), [A, C]), A = 'it''s')").unwrap(),
            ),
            8,
        );
        roundtrip(LogRecord::Unregister(QueryId::from_index(3)), 9);
    }

    #[test]
    fn malformed_payloads_are_diagnosed() {
        for bad in [
            &b"\xff\xfe"[..],
            b"notanumber delete R#0",
            b"5",
            b"5 delete",
            b"5 delete ,",
            b"5 delete R0",
            b"5 delete R#x",
            b"5 delete #0",
            b"5 register q1",
            b"5 register q1 scan(",
            b"5 register one scan R",
            b"5 unregister 1",
            b"5 frobnicate",
        ] {
            assert!(
                LogRecord::decode_payload(bad).is_err(),
                "accepted {:?}",
                String::from_utf8_lossy(bad)
            );
        }
    }

    #[test]
    fn commit_log_sequences_and_frames() {
        let (mem, buf) = MemLog::new();
        let mut log = CommitLog::new(Box::new(mem), FsyncMode::Batch, 5);
        assert_eq!(
            log.append(&LogRecord::Delete(vec![Tid::new("R", 1)]))
                .unwrap(),
            5
        );
        assert_eq!(
            log.append(&LogRecord::Unregister(QueryId::from_index(0)))
                .unwrap(),
            6
        );
        assert_eq!(log.next_seq(), 7);
        let bytes = buf.lock().unwrap().clone();
        assert_eq!(log.offset(), bytes.len() as u64);
        let (frames, _, err) = decode_all(&bytes);
        assert!(err.is_none());
        let decoded: Vec<(u64, LogRecord)> = frames
            .iter()
            .map(|p| LogRecord::decode_payload(p).unwrap())
            .collect();
        assert_eq!(decoded[0], (5, LogRecord::Delete(vec![Tid::new("R", 1)])));
        assert_eq!(
            decoded[1],
            (6, LogRecord::Unregister(QueryId::from_index(0)))
        );
    }
}
