//! Harness-side trace digest: one 64-bit hash of the four CSV tables as
//! `borg_trace::csv` would write them, without touching the disk. Equal
//! digests mean a byte-identical trace directory, so the digest printed by
//! a parent commit and by a change can be compared directly.

use borg_trace::csv;
use borg_trace::trace::Trace;
use std::io::{self, BufWriter, Write};

/// FNV-1a over everything written to it, and how much that was.
struct Fnv {
    hash: u64,
    bytes: u64,
}

impl Fnv {
    fn new() -> Fnv {
        Fnv {
            hash: 0xcbf2_9ce4_8422_2325,
            bytes: 0,
        }
    }
}

impl Write for Fnv {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let mut h = self.hash;
        for &b in buf {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.hash = h;
        self.bytes += buf.len() as u64;
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Digest and byte length of the trace's CSV rendering.
pub fn trace_digest(trace: &Trace) -> (u64, u64) {
    let mut fnv = Fnv::new();
    {
        // The table writers issue one small write per field.
        let mut w = BufWriter::with_capacity(1 << 16, &mut fnv);
        let ok = csv::write_machine_events(&mut w, &trace.machine_events)
            .and_then(|()| csv::write_collection_events(&mut w, &trace.collection_events))
            .and_then(|()| csv::write_instance_events(&mut w, &trace.instance_events))
            .and_then(|()| csv::write_usage(&mut w, &trace.usage))
            .and_then(|()| w.flush());
        ok.expect("hashing writer cannot fail");
    }
    (fnv.hash, fnv.bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        let hash = |s: &[u8]| {
            let mut h = Fnv::new();
            h.write_all(s).unwrap();
            h.hash
        };
        assert_eq!(hash(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(hash(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(hash(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn digest_sees_every_table() {
        let empty = Trace::default();
        let (d0, bytes) = trace_digest(&empty);
        assert!(bytes > 0, "headers are hashed too");
        let mut one = Trace::default();
        one.machine_events
            .push(borg_trace::machine::MachineEvent::add(
                borg_trace::time::Micros::ZERO,
                borg_trace::machine::MachineId(1),
                borg_trace::resources::Resources::new(1.0, 1.0),
                borg_trace::machine::Platform(0),
            ));
        assert_ne!(trace_digest(&one).0, d0);
    }
}
