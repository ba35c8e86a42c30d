//! A minimal blocking client for the sweep server, used by the examples,
//! the bench harness, and the loopback tests. One TCP connection, one
//! request/reply conversation — asynchronous events that arrive while a
//! direct reply is awaited are buffered and yielded later in order.

use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};

use avr_types::CellSpec;

use crate::json::Json;
use crate::proto::Request;

/// Blocking sweep-server client.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    pending: VecDeque<Json>,
}

/// Everything one job streamed back: per-cell result events (indexed by
/// cell position in the submitted batch; `None` for failed and cancelled
/// cells) and the terminal completed/failed/cancelled counts.
#[derive(Debug)]
pub struct JobOutcome {
    pub job: u64,
    pub completed: u64,
    /// Cells whose simulation panicked; each streamed a `cell_error` event
    /// naming the cell and the panic message instead of a result.
    pub failed: u64,
    pub cancelled: u64,
    /// Full `result` events in batch order (`spec` + `metrics` objects).
    pub results: Vec<Option<Json>>,
}

fn bad_data(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

impl Client {
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Client { reader: BufReader::new(stream), writer, pending: VecDeque::new() })
    }

    fn read_message(&mut self) -> io::Result<Json> {
        let mut line = String::new();
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ));
            }
            let trimmed = line.trim();
            if trimmed.is_empty() {
                continue;
            }
            return Json::parse(trimmed).map_err(bad_data);
        }
    }

    /// Send a request and return its direct reply; events received in the
    /// meantime are buffered for [`Client::next_event`].
    pub fn request(&mut self, req: &Request) -> io::Result<Json> {
        let mut line = req.to_json().render();
        line.push('\n');
        self.writer.write_all(line.as_bytes())?;
        loop {
            let msg = self.read_message()?;
            if msg.get("event").is_some() {
                self.pending.push_back(msg);
            } else {
                return Ok(msg);
            }
        }
    }

    /// The next asynchronous event (buffered or read off the wire).
    pub fn next_event(&mut self) -> io::Result<Json> {
        if let Some(msg) = self.pending.pop_front() {
            return Ok(msg);
        }
        self.read_message()
    }

    /// Submit a batch; returns the job id from the ack.
    pub fn submit(&mut self, cells: Vec<CellSpec>) -> io::Result<u64> {
        self.submit_tagged(None, cells)
    }

    pub fn submit_tagged(&mut self, tag: Option<String>, cells: Vec<CellSpec>) -> io::Result<u64> {
        let reply = self.request(&Request::Submit { tag, cells })?;
        expect_ok(&reply)?;
        reply
            .get("job")
            .and_then(Json::as_u64)
            .ok_or_else(|| bad_data("submit ack without a job id"))
    }

    /// Re-subscribe to `job`, replaying finished cells from index `from`.
    pub fn results(&mut self, job: u64, from: usize) -> io::Result<Json> {
        let reply = self.request(&Request::Results { job, from })?;
        expect_ok(&reply)?;
        Ok(reply)
    }

    pub fn status(&mut self) -> io::Result<Json> {
        let reply = self.request(&Request::Status)?;
        expect_ok(&reply)?;
        Ok(reply)
    }

    pub fn cancel(&mut self, job: u64) -> io::Result<Json> {
        let reply = self.request(&Request::Cancel { job })?;
        expect_ok(&reply)?;
        Ok(reply)
    }

    pub fn drain(&mut self) -> io::Result<Json> {
        let reply = self.request(&Request::Drain)?;
        expect_ok(&reply)?;
        Ok(reply)
    }

    pub fn shutdown(&mut self) -> io::Result<Json> {
        let reply = self.request(&Request::Shutdown)?;
        expect_ok(&reply)?;
        Ok(reply)
    }

    /// Consume this job's event stream until its `job_done`, collecting
    /// result events by cell index. Events for other jobs are ignored.
    pub fn collect_job(&mut self, job: u64) -> io::Result<JobOutcome> {
        let mut results: Vec<Option<Json>> = Vec::new();
        loop {
            let event = self.next_event()?;
            if event.get("job").and_then(Json::as_u64) != Some(job) {
                continue;
            }
            match event.get("event").and_then(Json::as_str) {
                Some("result") => {
                    let cell = event
                        .get("cell")
                        .and_then(Json::as_u64)
                        .ok_or_else(|| bad_data("result event without a cell index"))?
                        as usize;
                    if results.len() <= cell {
                        results.resize(cell + 1, None);
                    }
                    results[cell] = Some(event);
                }
                Some("job_done") => {
                    let count = |key: &str| {
                        event
                            .get(key)
                            .and_then(Json::as_u64)
                            .ok_or_else(|| bad_data(format!("job_done without {key:?}")))
                    };
                    return Ok(JobOutcome {
                        job,
                        completed: count("completed")?,
                        failed: count("failed")?,
                        cancelled: count("cancelled")?,
                        results,
                    });
                }
                _ => {}
            }
        }
    }
}

fn expect_ok(reply: &Json) -> io::Result<()> {
    if reply.get("ok").and_then(Json::as_bool) == Some(true) {
        return Ok(());
    }
    let msg = reply.get("error").and_then(Json::as_str).unwrap_or("server rejected the request");
    Err(io::Error::other(msg.to_string()))
}
