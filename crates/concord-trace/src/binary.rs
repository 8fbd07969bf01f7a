//! Compact binary trace format (`CTRC`), for archival and the
//! `concord-trace` analyzer binary.
//!
//! Layout (all little-endian):
//!
//! ```text
//! header   magic      4 bytes  b"CTRC"
//!          version    u16      currently 1
//!          reserved   u16      0
//!          n_workers  u32
//!          n_records  u64
//! record   ts_ns      u64
//!          packed     u64      kind/gen/id as in `TraceEvent`
//!          track      u32
//! ```

use crate::event::{EventKind, Trace, TraceEvent, TraceRecord};
use std::io::{self, Read, Write};
use std::path::Path;

const MAGIC: [u8; 4] = *b"CTRC";
const VERSION: u16 = 1;

/// Serializes a trace to `w` in emission order.
pub fn write(trace: &Trace, w: &mut impl Write) -> io::Result<()> {
    w.write_all(&MAGIC)?;
    w.write_all(&VERSION.to_le_bytes())?;
    w.write_all(&0u16.to_le_bytes())?;
    w.write_all(&(trace.n_workers as u32).to_le_bytes())?;
    w.write_all(&(trace.records.len() as u64).to_le_bytes())?;
    for r in &trace.records {
        w.write_all(&r.ev.ts_ns.to_le_bytes())?;
        w.write_all(&r.ev.packed.to_le_bytes())?;
        w.write_all(&r.track.to_le_bytes())?;
    }
    Ok(())
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Deserializes a trace written by [`write()`]. Rejects bad magic, unknown
/// versions, and records with unknown event kinds.
pub fn read(r: &mut impl Read) -> io::Result<Trace> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if magic != MAGIC {
        return Err(bad("not a CTRC trace (bad magic)"));
    }
    let mut b2 = [0u8; 2];
    r.read_exact(&mut b2)?;
    let version = u16::from_le_bytes(b2);
    if version != VERSION {
        return Err(bad(format!("unsupported CTRC version {version}")));
    }
    r.read_exact(&mut b2)?; // reserved
    let mut b4 = [0u8; 4];
    r.read_exact(&mut b4)?;
    let n_workers = u32::from_le_bytes(b4) as usize;
    let mut b8 = [0u8; 8];
    r.read_exact(&mut b8)?;
    let n_records = u64::from_le_bytes(b8);

    let mut trace = Trace::new(n_workers);
    trace.records.reserve(n_records.min(1 << 24) as usize);
    for _ in 0..n_records {
        r.read_exact(&mut b8)?;
        let ts_ns = u64::from_le_bytes(b8);
        r.read_exact(&mut b8)?;
        let packed = u64::from_le_bytes(b8);
        r.read_exact(&mut b4)?;
        let track = u32::from_le_bytes(b4);
        if EventKind::from_u8((packed >> 56) as u8).is_none() {
            return Err(bad(format!("unknown event kind {}", packed >> 56)));
        }
        trace.records.push(TraceRecord {
            track,
            ev: TraceEvent { ts_ns, packed },
        });
    }
    Ok(trace)
}

/// Writes a trace to a file.
pub fn write_file(trace: &Trace, path: &Path) -> io::Result<()> {
    let mut f = io::BufWriter::new(std::fs::File::create(path)?);
    write(trace, &mut f)?;
    f.flush()
}

/// Reads a trace from a file.
pub fn read_file(path: &Path) -> io::Result<Trace> {
    read(&mut io::BufReader::new(std::fs::File::open(path)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_preserves_everything() {
        let mut t = Trace::new(3);
        for i in 0..50u64 {
            let kind = EventKind::ALL[(i as usize) % EventKind::ALL.len()];
            t.record((i % 4) as u32, TraceEvent::new(i * 10, kind, i, i % 7));
        }
        let mut buf = Vec::new();
        write(&t, &mut buf).unwrap();
        assert_eq!(buf.len(), 20 + 50 * 20);
        let back = read(&mut buf.as_slice()).unwrap();
        assert_eq!(back.n_workers, 3);
        assert_eq!(back.records, t.records);
    }

    #[test]
    fn rejects_bad_magic_and_version() {
        let mut t = Trace::new(1);
        t.record(0, TraceEvent::new(1, EventKind::Arrive, 1, 0));
        let mut buf = Vec::new();
        write(&t, &mut buf).unwrap();

        let mut bad_magic = buf.clone();
        bad_magic[0] = b'X';
        assert!(read(&mut bad_magic.as_slice()).is_err());

        let mut bad_version = buf.clone();
        bad_version[4] = 99;
        assert!(read(&mut bad_version.as_slice()).is_err());

        let mut bad_kind = buf;
        bad_kind[20 + 15] = 0xFF; // high byte of `packed`
        assert!(read(&mut bad_kind.as_slice()).is_err());
    }
}
