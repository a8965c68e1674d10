//! The wire protocol: text commands and responses inside the durability
//! layer's `[len][crc32][payload]` frames.
//!
//! Requests are `<client-id> <seq> <command...>`; responses echo the
//! sequence number (`<seq> ok ...` / `<seq> err ...` / `<seq>
//! overloaded`), and server-pushed subscription events use the reserved
//! sequence number `0` (`0 event ...`). Explicit client ids and sequence
//! numbers make retries idempotent: the engine remembers each client's
//! last answered sequence and replays the cached response instead of
//! re-executing, so a client that lost an ack can resubmit the same
//! request verbatim until it converges.
//!
//! The framing is exactly [`dap_durability::frame`]'s: a corrupt frame is
//! detected by checksum before any command parsing runs, and the
//! [`FrameReader`] enforces a maximum frame length so a hostile header
//! cannot make a session buffer unboundedly.

use dap_durability::{crc32, frame_bytes};
use dap_relalg::{parse_query, Query, QueryId, Tid, Tuple, Value};

/// Default cap on one frame's payload length (1 MiB) — far above any
/// legitimate command, far below what a hostile length header could ask
/// a session to buffer.
pub const MAX_FRAME: u32 = 1 << 20;

/// The reserved sequence number carried by server-pushed events.
pub const EVENT_SEQ: u64 = 0;

/// Everything a client can ask the server to do.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Command {
    /// Liveness + stats probe; answered without entering the commit queue.
    Ping,
    /// Durably register a standing query. Content-idempotent: registering
    /// a query textually identical to a catalog entry returns the
    /// existing id, so a retried `register` whose ack was lost converges
    /// instead of minting duplicates.
    Register(Query),
    /// Durably unregister a standing query.
    Unregister(QueryId),
    /// Open a per-session subscription on a standing query: subsequent
    /// committed deltas are pushed to this session as `event` frames.
    Subscribe(QueryId),
    /// Durably delete source tuples from every registered view.
    DeleteSource(Vec<Tid>),
    /// Solve a deletion-propagation instance against a standing query's
    /// current view, through the ILP solver under the server's node
    /// budget.
    Solve {
        /// The standing query whose view holds the target.
        id: QueryId,
        /// Which objective to minimize.
        objective: SolveObjective,
        /// The view tuple to delete.
        target: Tuple,
    },
    /// Gracefully stop the server: drain queued work, flush the WAL,
    /// snapshot, exit.
    Shutdown,
    /// Panic inside the engine while holding this job — the fault the
    /// per-session isolation and recover-self-heal paths exist for.
    /// Parsed (so a release server answers `err` instead of desyncing)
    /// but only *executed* under the `testing` feature.
    CrashTest,
}

/// The two objectives a `solve` command can name, on the wire as `view`
/// and `source`: the deletion objective [`dap_core::Objective`] itself.
pub use dap_core::Objective as SolveObjective;

/// One framed client request.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Request {
    /// Stable client identity (one token) — the idempotency key space.
    pub client: String,
    /// Client-assigned sequence number, strictly increasing per client;
    /// `0` is reserved for server events and rejected in requests.
    pub seq: u64,
    /// The command itself.
    pub cmd: Command,
}

/// One framed server response (or pushed event).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Response {
    /// The command succeeded; `body` is command-specific text.
    Ok {
        /// Echo of the request sequence number.
        seq: u64,
        /// Command-specific result text.
        body: String,
    },
    /// The command failed definitively — retrying the same request
    /// returns the same answer.
    Err {
        /// Echo of the request sequence number.
        seq: u64,
        /// Human-readable diagnosis.
        msg: String,
    },
    /// The admission queue was full; the command was *not* executed.
    /// Retry after backoff.
    Overloaded {
        /// Echo of the request sequence number.
        seq: u64,
    },
    /// A server-pushed subscription event (sequence number 0 on the
    /// wire).
    Event {
        /// Event text: `q<k> batch=<tids> removed=<n> changed=<n>`.
        body: String,
    },
}

impl Response {
    /// The sequence number this response answers (`EVENT_SEQ` for
    /// events).
    pub fn seq(&self) -> u64 {
        match self {
            Response::Ok { seq, .. } | Response::Err { seq, .. } | Response::Overloaded { seq } => {
                *seq
            }
            Response::Event { .. } => EVENT_SEQ,
        }
    }
}

/// Render `rel#row,...` for a tid batch.
fn render_tids(tids: &[Tid]) -> String {
    let parts: Vec<String> = tids.iter().map(Tid::to_string).collect();
    parts.join(",")
}

impl Request {
    /// Render the frame payload for this request.
    pub fn encode(&self) -> Vec<u8> {
        let cmd = match &self.cmd {
            Command::Ping => "ping".to_string(),
            Command::Register(q) => format!("register {q}"),
            Command::Unregister(id) => format!("unregister {id}"),
            Command::Subscribe(id) => format!("subscribe {id}"),
            Command::DeleteSource(tids) => format!("delete-source {}", render_tids(tids)),
            Command::Solve {
                id,
                objective,
                target,
            } => format!("solve {id} {objective} {target}"),
            Command::Shutdown => "shutdown".to_string(),
            Command::CrashTest => "crash-test".to_string(),
        };
        format!("{} {} {cmd}", self.client, self.seq).into_bytes()
    }

    /// Parse a frame payload into a request. Every error is a *protocol*
    /// error: the session answers it once and closes.
    pub fn decode(payload: &[u8]) -> Result<Request, String> {
        let text = std::str::from_utf8(payload).map_err(|_| "request is not utf-8".to_string())?;
        let mut parts = text.splitn(3, ' ');
        let client = parts.next().unwrap_or_default();
        if client.is_empty()
            || client.len() > 64
            || !client
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.'))
        {
            return Err(format!("bad client id `{client}`"));
        }
        let seq_text = parts.next().ok_or("request missing sequence number")?;
        let seq: u64 = seq_text
            .parse()
            .map_err(|_| format!("bad sequence number `{seq_text}`"))?;
        if seq == EVENT_SEQ {
            return Err("sequence number 0 is reserved for events".into());
        }
        let rest = parts.next().ok_or("request missing command")?;
        let (verb, args) = match rest.split_once(' ') {
            Some((verb, args)) => (verb, args),
            None => (rest, ""),
        };
        let cmd = match verb {
            "ping" => Command::Ping,
            "register" => {
                let q = parse_query(args).map_err(|e| format!("register: {e}"))?;
                Command::Register(q)
            }
            "unregister" => Command::Unregister(parse_query_id(args)?),
            "subscribe" => Command::Subscribe(parse_query_id(args)?),
            "delete-source" => {
                let mut tids = Vec::new();
                for part in args.split(',').filter(|p| !p.is_empty()) {
                    tids.push(dap_durability::log::parse_tid(part)?);
                }
                if tids.is_empty() {
                    return Err("delete-source names no tuples".into());
                }
                Command::DeleteSource(tids)
            }
            "solve" => {
                let (id_text, rest) = args
                    .split_once(' ')
                    .ok_or("solve: missing objective and target")?;
                let (obj_text, target_text) =
                    rest.split_once(' ').ok_or("solve: missing target tuple")?;
                let objective = match obj_text {
                    "view" => SolveObjective::View,
                    "source" => SolveObjective::Source,
                    other => return Err(format!("solve: unknown objective `{other}`")),
                };
                Command::Solve {
                    id: parse_query_id(id_text)?,
                    objective,
                    target: parse_tuple(target_text)?,
                }
            }
            "shutdown" => Command::Shutdown,
            "crash-test" => Command::CrashTest,
            other => return Err(format!("unknown command `{other}`")),
        };
        Ok(Request {
            client: client.to_string(),
            seq,
            cmd,
        })
    }
}

impl Response {
    /// Render the frame payload for this response.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Response::Ok { seq, body } if body.is_empty() => format!("{seq} ok"),
            Response::Ok { seq, body } => format!("{seq} ok {body}"),
            Response::Err { seq, msg } => format!("{seq} err {msg}"),
            Response::Overloaded { seq } => format!("{seq} overloaded"),
            Response::Event { body } => format!("{EVENT_SEQ} event {body}"),
        }
        .into_bytes()
    }

    /// Parse a frame payload into a response.
    pub fn decode(payload: &[u8]) -> Result<Response, String> {
        let text = std::str::from_utf8(payload).map_err(|_| "response is not utf-8".to_string())?;
        let (seq_text, rest) = text
            .split_once(' ')
            .ok_or("response missing sequence number")?;
        let seq: u64 = seq_text
            .parse()
            .map_err(|_| format!("bad sequence number `{seq_text}`"))?;
        let (kind, body) = match rest.split_once(' ') {
            Some((kind, body)) => (kind, body),
            None => (rest, ""),
        };
        match kind {
            "ok" => Ok(Response::Ok {
                seq,
                body: body.to_string(),
            }),
            "err" => Ok(Response::Err {
                seq,
                msg: body.to_string(),
            }),
            "overloaded" => Ok(Response::Overloaded { seq }),
            "event" if seq == EVENT_SEQ => Ok(Response::Event {
                body: body.to_string(),
            }),
            other => Err(format!("unknown response kind `{other}`")),
        }
    }
}

/// Parse `q<k>` (the [`QueryId`] `Display` form): the commit log's
/// parser, so the wire and the log read query ids one way.
pub use dap_durability::log::parse_query_id;

/// Parse a tuple literal — `bob,report` or `(bob, report)`, values as
/// int / bool / quoted-or-bare string. The `dap` CLI parses its tuple
/// arguments with it too.
pub fn parse_tuple(src: &str) -> Result<Tuple, String> {
    let inner = src.trim().trim_start_matches('(').trim_end_matches(')');
    if inner.trim().is_empty() {
        return Ok(Tuple::new(Vec::<Value>::new()));
    }
    let values: Vec<Value> = inner
        .split(',')
        .map(|raw| {
            let v = raw.trim().trim_matches('\'');
            if let Ok(i) = v.parse::<i64>() {
                Value::int(i)
            } else if v == "true" {
                Value::bool(true)
            } else if v == "false" {
                Value::bool(false)
            } else {
                Value::str(v)
            }
        })
        .collect();
    Ok(Tuple::new(values))
}

/// Wrap a payload into one wire frame (the durability framing verbatim).
pub fn encode_wire_frame(payload: &[u8]) -> Vec<u8> {
    frame_bytes(payload)
}

/// Incremental frame parser over a byte stream — the session reader's
/// (and client's) receive buffer. Unlike the durability crate's
/// [`dap_durability::decode_frame`] (which diagnoses a short tail as a
/// torn write), a partial frame here just means "keep reading"; errors
/// are reserved for real protocol violations: an oversized length header
/// or a checksum mismatch.
pub struct FrameReader {
    buf: Vec<u8>,
    max_frame: u32,
}

impl FrameReader {
    /// A reader enforcing `max_frame` as the payload length cap.
    pub fn new(max_frame: u32) -> FrameReader {
        FrameReader {
            buf: Vec::new(),
            max_frame,
        }
    }

    /// Feed freshly received bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed as a complete frame.
    pub fn pending(&self) -> usize {
        self.buf.len()
    }

    /// Try to take the next complete frame's payload. `Ok(None)` means
    /// more bytes are needed; `Err` is a protocol violation and the
    /// stream is unusable from here on.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, String> {
        if self.buf.len() < 8 {
            return Ok(None);
        }
        let len = u32::from_le_bytes([self.buf[0], self.buf[1], self.buf[2], self.buf[3]]);
        if len > self.max_frame {
            return Err(format!(
                "frame length {len} exceeds the {} byte cap",
                self.max_frame
            ));
        }
        let want = 8 + len as usize;
        if self.buf.len() < want {
            return Ok(None);
        }
        let expect = u32::from_le_bytes([self.buf[4], self.buf[5], self.buf[6], self.buf[7]]);
        let payload = &self.buf[8..want];
        let got = crc32(payload);
        if got != expect {
            return Err(format!(
                "frame checksum mismatch (stored {expect:#010x}, computed {got:#010x})"
            ));
        }
        let payload = payload.to_vec();
        self.buf.drain(..want);
        Ok(Some(payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dap_relalg::tuple;

    fn roundtrip_req(cmd: Command) {
        let req = Request {
            client: "cli-1".into(),
            seq: 42,
            cmd,
        };
        assert_eq!(Request::decode(&req.encode()).unwrap(), req);
    }

    #[test]
    fn tuple_parsing() {
        assert_eq!(parse_tuple("bob,report").unwrap(), tuple(["bob", "report"]));
        assert_eq!(
            parse_tuple("(bob, report)").unwrap(),
            tuple(["bob", "report"])
        );
        assert_eq!(
            parse_tuple("1, true, x").unwrap(),
            Tuple::new(vec![Value::int(1), Value::bool(true), Value::str("x")])
        );
        assert_eq!(parse_tuple("'quoted'").unwrap(), tuple(["quoted"]));
        assert_eq!(parse_tuple("()").unwrap().arity(), 0);
    }

    #[test]
    fn requests_round_trip() {
        roundtrip_req(Command::Ping);
        roundtrip_req(Command::Register(
            parse_query("project(join(scan UserGroup, scan GroupFile), [user, file])").unwrap(),
        ));
        roundtrip_req(Command::Unregister(QueryId::from_index(3)));
        roundtrip_req(Command::Subscribe(QueryId::from_index(0)));
        roundtrip_req(Command::DeleteSource(vec![
            Tid::new("UserGroup", 2),
            Tid::new("S#odd", 0),
        ]));
        roundtrip_req(Command::Solve {
            id: QueryId::from_index(1),
            objective: SolveObjective::View,
            target: tuple(["bob", "report"]),
        });
        roundtrip_req(Command::Solve {
            id: QueryId::from_index(1),
            objective: SolveObjective::Source,
            target: Tuple::new([Value::int(7), Value::bool(true)]),
        });
        roundtrip_req(Command::Shutdown);
        roundtrip_req(Command::CrashTest);
    }

    #[test]
    fn responses_round_trip() {
        for resp in [
            Response::Ok {
                seq: 7,
                body: "q3".into(),
            },
            Response::Ok {
                seq: 7,
                body: String::new(),
            },
            Response::Err {
                seq: 9,
                msg: "unknown query q9".into(),
            },
            Response::Overloaded { seq: 11 },
            Response::Event {
                body: "q1 batch=UserGroup#2 removed=1 changed=0".into(),
            },
        ] {
            assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
        }
    }

    #[test]
    fn malformed_requests_are_diagnosed() {
        for bad in [
            &b"\xff\xfe"[..],
            b"",
            b"cli",
            b"cli notanum ping",
            b"cli 0 ping",
            b"cli 1",
            b"cli 1 frobnicate",
            b"cli 1 register scan(",
            b"cli 1 unregister 3",
            b"cli 1 delete-source",
            b"cli 1 delete-source ,",
            b"cli 1 solve q1",
            b"cli 1 solve q1 view",
            b"cli 1 solve q1 sideways (a)",
            b"bad client id 1 ping",
            b"sp ace 1 ping",
        ] {
            assert!(
                Request::decode(bad).is_err(),
                "accepted {:?}",
                String::from_utf8_lossy(bad)
            );
        }
    }

    #[test]
    fn frame_reader_reassembles_split_frames() {
        let mut rd = FrameReader::new(MAX_FRAME);
        let frame = encode_wire_frame(b"hello");
        let (a, b) = frame.split_at(5);
        rd.push(a);
        assert_eq!(rd.next_frame().unwrap(), None);
        rd.push(b);
        assert_eq!(rd.next_frame().unwrap().as_deref(), Some(&b"hello"[..]));
        assert_eq!(rd.next_frame().unwrap(), None);
        assert_eq!(rd.pending(), 0);
    }

    #[test]
    fn frame_reader_rejects_oversize_and_corrupt_frames() {
        let mut rd = FrameReader::new(16);
        let mut oversize = encode_wire_frame(&[0u8; 32]);
        rd.push(&oversize);
        assert!(rd.next_frame().is_err(), "length cap must trip");

        let mut rd = FrameReader::new(MAX_FRAME);
        oversize = encode_wire_frame(b"payload");
        oversize[10] ^= 0x40; // flip a payload bit under the checksum
        rd.push(&oversize);
        assert!(rd.next_frame().is_err(), "checksum must trip");
    }
}
