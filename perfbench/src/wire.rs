//! A raw, pipelining connection to `dap serve`. The stock
//! `dap_serve::Client` waits for each reply and retries; the load
//! generator needs several requests in flight, one attempt each, and
//! every reply's arrival time.

use dap_serve::protocol::{encode_wire_frame, FrameReader, MAX_FRAME};
use dap_serve::{Command, Request, Response};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

fn write_request(
    stream: &mut TcpStream,
    client: &str,
    seq: u64,
    cmd: Command,
) -> std::io::Result<()> {
    let req = Request {
        client: client.to_string(),
        seq,
        cmd,
    };
    stream.write_all(&encode_wire_frame(&req.encode()))
}

pub struct Conn {
    stream: TcpStream,
    frames: FrameReader,
    client: String,
    next_seq: u64,
    buf: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: SocketAddr, client: &str) -> std::io::Result<Conn> {
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            stream,
            frames: FrameReader::new(MAX_FRAME),
            client: client.to_string(),
            next_seq: 1,
            buf: vec![0u8; 64 * 1024],
        })
    }

    /// Send one request; returns its sequence number.
    pub fn send(&mut self, cmd: Command) -> std::io::Result<u64> {
        let seq = self.next_seq;
        self.next_seq += 1;
        write_request(&mut self.stream, &self.client, seq, cmd)?;
        Ok(seq)
    }

    /// The next frame, waiting at most `timeout` (`None` = block).
    /// `Ok(None)` on timeout; an error on a dropped connection or a
    /// frame that does not decode.
    pub fn recv(&mut self, timeout: Option<Duration>) -> std::io::Result<Option<Response>> {
        loop {
            match self.frames.next_frame() {
                Ok(Some(payload)) => {
                    return Response::decode(&payload)
                        .map(Some)
                        .map_err(|e| std::io::Error::new(ErrorKind::InvalidData, e));
                }
                Ok(None) => {}
                Err(e) => return Err(std::io::Error::new(ErrorKind::InvalidData, e)),
            }
            self.stream
                .set_read_timeout(timeout.map(|t| t.max(Duration::from_micros(1))))?;
            match self.stream.read(&mut self.buf) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        ErrorKind::UnexpectedEof,
                        "server closed the connection",
                    ))
                }
                Ok(n) => self.frames.push(&self.buf[..n]),
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    return Ok(None)
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Send and wait for the matching reply, skipping events.
    pub fn call(&mut self, cmd: Command) -> std::io::Result<Response> {
        let seq = self.send(cmd)?;
        loop {
            match self.recv(Some(Duration::from_secs(120)))? {
                Some(resp) if resp.seq() == seq => return Ok(resp),
                Some(_) => {}
                None => {
                    return Err(std::io::Error::new(
                        ErrorKind::TimedOut,
                        format!("no reply to request {seq}"),
                    ))
                }
            }
        }
    }
}
