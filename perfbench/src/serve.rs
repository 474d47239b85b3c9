//! One client of the query service: it submits each batch query in turn,
//! waits for the whole response at a timestamping sink, and decodes every
//! frame before sending the next.

use std::io::{self, Write};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use vida_core::server::read_response;
use vida_core::{QueryRequest, QueryServer};

#[derive(Default)]
struct Response {
    bytes: Vec<u8>,
    first_byte: Option<Instant>,
    last_byte: Option<Instant>,
}

/// A response sink that stamps its first and last byte. The service
/// flushes once, after the terminator frame (or after a busy rejection),
/// so `flush` marks the last byte.
#[derive(Clone, Default)]
struct StampedSink(Arc<(Mutex<Response>, Condvar)>);

impl StampedSink {
    fn wait(&self) -> Response {
        let (lock, cv) = &*self.0;
        let mut r = lock
            .lock()
            .expect("sink lock poisoned by a panicking executor");
        while r.last_byte.is_none() {
            r = cv
                .wait(r)
                .expect("sink lock poisoned by a panicking executor");
        }
        std::mem::take(&mut *r)
    }
}

impl Write for StampedSink {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let mut r = self.0 .0.lock().expect("sink lock poisoned");
        r.first_byte.get_or_insert_with(Instant::now);
        r.bytes.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        let (lock, cv) = &*self.0;
        lock.lock().expect("sink lock poisoned").last_byte = Some(Instant::now());
        cv.notify_all();
        Ok(())
    }
}

/// What the client saw over one pass.
#[derive(Default)]
pub struct ClientTally {
    /// Rejected, failed or malformed responses.
    pub failed: u64,
    /// Submit to last response byte, per answered query.
    pub latency_ns: Vec<u64>,
    /// Submit to first response byte, summed.
    pub first_byte_ns: u64,
    /// First to last response byte, summed.
    pub stream_ns: u64,
    /// The decoded rows of each answered query, by batch index.
    pub rows: Vec<(usize, Vec<Vec<u8>>)>,
}

/// Send every query of `batch` once, in order, each after the previous
/// response has ended.
pub fn send_batch(server: &QueryServer, batch: &[String]) -> ClientTally {
    let mut t = ClientTally::default();
    for (i, text) in batch.iter().enumerate() {
        let sink = StampedSink::default();
        let sent = Instant::now();
        let admitted = server.submit(QueryRequest::new(text.clone(), Box::new(sink.clone())));
        let resp = sink.wait();
        match read_response(&mut resp.bytes.as_slice()) {
            Ok(r) if admitted && r.is_ok() => t.rows.push((i, r.rows)),
            _ => {
                t.failed += 1;
                continue;
            }
        }
        let (first, last) = (
            resp.first_byte.unwrap_or(sent),
            resp.last_byte.unwrap_or(sent),
        );
        t.latency_ns.push(nanos(last - sent));
        t.first_byte_ns += nanos(first.saturating_duration_since(sent));
        t.stream_ns += nanos(last.saturating_duration_since(first));
    }
    t
}

pub fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}
