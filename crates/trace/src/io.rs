//! Compact binary trace (de)serialization.
//!
//! Format (all little-endian):
//!
//! ```text
//! magic   4 bytes  "MPT1"
//! nlen    2 bytes  workload-name length
//! name    nlen bytes (UTF-8)
//! count   8 bytes  number of records
//! record  18 bytes x count:
//!     arrival_ps  u64
//!     addr        u64
//!     flags       u8   (bit 0: write)
//!     core        u8
//! ```
//!
//! Generated traces are deterministic from `(spec, seed)`, so persisting
//! them is optional — but it lets the experiment harness reuse one trace
//! across the Fig. 6/7/8/9/10 sweeps without regeneration.

use std::io::{self, Read, Write};

use mempod_types::{AccessKind, Addr, CoreId, MemRequest, Picos};

use crate::trace::Trace;

const MAGIC: &[u8; 4] = b"MPT1";
const RECORD_BYTES: usize = 18;

/// A read cursor over a byte slice: the little-endian decoding helpers the
/// `bytes` crate used to provide, on plain std types.
struct Cursor<'a> {
    buf: &'a [u8],
}

impl<'a> Cursor<'a> {
    fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// Takes the next `n` bytes, or `None` if fewer remain.
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if self.buf.len() < n {
            return None;
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Some(head)
    }

    fn get_u8(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }

    fn get_u16_le(&mut self) -> Option<u16> {
        self.take(2)
            .and_then(|b| b.try_into().ok())
            .map(u16::from_le_bytes)
    }

    fn get_u64_le(&mut self) -> Option<u64> {
        self.take(8)
            .and_then(|b| b.try_into().ok())
            .map(u64::from_le_bytes)
    }
}

/// Serializes a trace to a writer.
///
/// # Errors
///
/// Returns any I/O error from the writer.
pub fn write_trace<W: Write>(trace: &Trace, mut w: W) -> io::Result<()> {
    let name = trace.name().as_bytes();
    let mut buf = Vec::with_capacity(14 + name.len() + trace.len() * RECORD_BYTES);
    buf.extend_from_slice(MAGIC);
    let nlen = u16::try_from(name.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "workload name too long"))?;
    buf.extend_from_slice(&nlen.to_le_bytes());
    buf.extend_from_slice(name);
    buf.extend_from_slice(&(trace.len() as u64).to_le_bytes());
    for r in trace.requests() {
        buf.extend_from_slice(&r.arrival.as_ps().to_le_bytes());
        buf.extend_from_slice(&r.addr.0.to_le_bytes());
        buf.push(u8::from(r.kind.is_write()));
        buf.push(r.core.0);
    }
    w.write_all(&buf)
}

/// Reads a trace from a reader.
///
/// # Errors
///
/// Returns an error on I/O failure, bad magic, a truncated stream, or
/// bytes after the last record.
pub fn read_trace<R: Read>(mut r: R) -> io::Result<Trace> {
    let mut raw = Vec::new();
    r.read_to_end(&mut raw)?;
    let mut buf = Cursor { buf: &raw };
    let fail = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());

    if buf.take(4) != Some(&MAGIC[..]) {
        return Err(fail("bad magic"));
    }
    let nlen = buf.get_u16_le().ok_or_else(|| fail("truncated header"))? as usize;
    let name_bytes = buf.take(nlen).ok_or_else(|| fail("truncated name"))?;
    let name = std::str::from_utf8(name_bytes)
        .map_err(|_| fail("name is not utf-8"))?
        .to_string();
    let count_u64 = buf
        .get_u64_le()
        .ok_or_else(|| fail("truncated record count"))?;
    let count = usize::try_from(count_u64).map_err(|_| fail("record count overflow"))?;
    let body = count
        .checked_mul(RECORD_BYTES)
        .ok_or_else(|| fail("record count overflow"))?;
    match buf.remaining().cmp(&body) {
        std::cmp::Ordering::Less => return Err(fail("truncated records")),
        std::cmp::Ordering::Greater => return Err(fail("trailing bytes after the last record")),
        std::cmp::Ordering::Equal => {}
    }
    let mut requests = Vec::with_capacity(count);
    for _ in 0..count {
        let arrival = Picos(buf.get_u64_le().ok_or_else(|| fail("truncated record"))?);
        let addr = Addr(buf.get_u64_le().ok_or_else(|| fail("truncated record"))?);
        let flags = buf.get_u8().ok_or_else(|| fail("truncated record"))?;
        let core = CoreId(buf.get_u8().ok_or_else(|| fail("truncated record"))?);
        let kind = if flags & 1 == 1 {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        requests.push(MemRequest::new(addr, kind, arrival, core));
    }
    Ok(Trace::new(name, requests))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{TraceGenerator, WorkloadSpec};
    use mempod_types::Geometry;

    #[test]
    fn roundtrip_preserves_everything() {
        let spec = WorkloadSpec::hotcold_demo();
        let t = TraceGenerator::new(spec, 3).take_requests(2000, &Geometry::tiny());
        let mut buf = Vec::new();
        write_trace(&t, &mut buf).expect("write");
        let back = read_trace(buf.as_slice()).expect("read");
        assert_eq!(back.name(), t.name());
        assert_eq!(back.requests(), t.requests());
    }

    #[test]
    fn empty_trace_roundtrips() {
        let t = Trace::new("empty", vec![]);
        let mut buf = Vec::new();
        write_trace(&t, &mut buf).expect("write");
        let back = read_trace(buf.as_slice()).expect("read");
        assert!(back.is_empty());
        assert_eq!(back.name(), "empty");
    }

    #[test]
    fn bad_magic_rejected() {
        let err = read_trace(&b"NOPE1234"[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncated_stream_rejected() {
        let spec = WorkloadSpec::hotcold_demo();
        let t = TraceGenerator::new(spec, 3).take_requests(3, &Geometry::tiny());
        let mut buf = Vec::new();
        write_trace(&t, &mut buf).expect("write");
        let count_at = 4 + 2 + t.name().len();
        for len in 0..buf.len() {
            let err = read_trace(&buf[..len]).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "prefix {len}");
            if (count_at..count_at + 8).contains(&len) {
                assert_eq!(err.to_string(), "truncated record count", "prefix {len}");
            }
        }
        buf.push(0);
        let err = read_trace(buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(err.to_string(), "trailing bytes after the last record");
    }

    #[test]
    fn record_size_is_compact() {
        let spec = WorkloadSpec::hotcold_demo();
        let t = TraceGenerator::new(spec, 3).take_requests(1000, &Geometry::tiny());
        let mut buf = Vec::new();
        write_trace(&t, &mut buf).expect("write");
        assert!(buf.len() <= 32 + 1000 * RECORD_BYTES);
    }
}
