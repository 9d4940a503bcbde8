//! The on-disk record framing of the write-ahead op-log.
//!
//! A WAL file is a flat sequence of records, each framed as
//!
//! ```text
//! ┌─────────────┬─────────────┬───────────────┐
//! │ len: u32 LE │ crc: u32 LE │ payload bytes │
//! └─────────────┴─────────────┴───────────────┘
//! ```
//!
//! where `crc` is the IEEE CRC-32 of the payload. The framing makes the
//! log self-validating under the one failure mode an append-only file has:
//! a **torn tail** — the process (or the machine) died while the last
//! record was being written, leaving a truncated header, a short payload,
//! or a payload whose bytes never all reached the disk. [`scan`] walks the
//! records front to back and stops at the first frame that does not check
//! out, reporting the byte offset of the last fully valid record so the
//! caller can truncate the tear away and continue appending — recovery
//! never fails on a torn tail, it only loses the op that was mid-write
//! (which, by the write-through protocol, was never acknowledged to any
//! client).

use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;

/// Each record's frame header: payload length + CRC, both `u32` LE.
pub const FRAME_HEADER_BYTES: usize = 8;

/// Upper bound on one record's payload. The largest legitimate op is an
/// inline-CSV create capped by the HTTP layer at 64 MB; anything bigger in
/// a frame header is corruption, not data, and must not drive a huge
/// allocation while scanning.
pub const MAX_RECORD_BYTES: usize = 80 * 1024 * 1024;

/// IEEE CRC-32 lookup table (polynomial `0xEDB88320`), built at compile
/// time.
const CRC_TABLE: [u32; 256] = crc_table();

const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

/// IEEE CRC-32 of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// Frame `payload` into `len | crc | payload` bytes ready to append.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER_BYTES + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Append one framed record. The frame is written with a single
/// `write_all`, so a crash leaves at most one torn record at the tail.
pub fn append_record(file: &mut File, payload: &[u8]) -> std::io::Result<()> {
    file.write_all(&frame(payload))
}

/// The result of walking a WAL file front to back.
#[derive(Debug)]
pub struct WalScan {
    /// Payloads of every fully valid record, in log order.
    pub payloads: Vec<Vec<u8>>,
    /// Byte offset just past the last valid record — the length the file
    /// should be truncated to when `torn` is set.
    pub valid_len: u64,
    /// Whether trailing bytes after `valid_len` failed validation (short
    /// header, short payload, oversized length, or CRC mismatch).
    pub torn: bool,
}

/// Scan a WAL file, validating each frame. A missing file scans as empty.
/// Corruption anywhere invalidates that record *and everything after it*
/// (the framing is not self-synchronizing — there is no way to trust a
/// record that follows garbage), which collapses every corruption case
/// into the torn-tail case: keep the valid prefix, drop the rest.
pub fn scan(path: &Path) -> std::io::Result<WalScan> {
    scan_range(path, 0, u64::MAX)
}

/// [`scan`] over the bytes `start..end` of the file only: the records
/// between two frame boundaries, whatever was appended since. Offsets in
/// the result count from `start`.
pub fn scan_range(path: &Path, start: u64, end: u64) -> std::io::Result<WalScan> {
    let mut bytes = Vec::new();
    match File::open(path) {
        Ok(mut file) => {
            let len = file.metadata()?.len().min(end).saturating_sub(start);
            bytes.reserve_exact(len as usize);
            file.seek(SeekFrom::Start(start))?;
            file.take(len).read_to_end(&mut bytes)?;
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(e),
    }
    let mut payloads = Vec::new();
    let mut offset = 0usize;
    loop {
        let rest = &bytes[offset..];
        if rest.is_empty() {
            return Ok(WalScan {
                payloads,
                valid_len: offset as u64,
                torn: false,
            });
        }
        if rest.len() < FRAME_HEADER_BYTES {
            break; // torn header
        }
        let len = u32::from_le_bytes(rest[0..4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(rest[4..8].try_into().unwrap());
        if len > MAX_RECORD_BYTES || rest.len() < FRAME_HEADER_BYTES + len {
            break; // corrupt length or torn payload
        }
        let payload = &rest[FRAME_HEADER_BYTES..FRAME_HEADER_BYTES + len];
        if crc32(payload) != crc {
            break; // payload bytes damaged
        }
        payloads.push(payload.to_vec());
        offset += FRAME_HEADER_BYTES + len;
    }
    Ok(WalScan {
        payloads,
        valid_len: offset as u64,
        torn: true,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn temp_file(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("sider_wal_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn roundtrip_multiple_records() {
        let path = temp_file("roundtrip.wal");
        let mut file = std::fs::File::create(&path).unwrap();
        for payload in [b"alpha".as_slice(), b"".as_slice(), b"gamma!".as_slice()] {
            append_record(&mut file, payload).unwrap();
        }
        drop(file);
        let scan = scan(&path).unwrap();
        assert!(!scan.torn);
        assert_eq!(
            scan.payloads,
            vec![b"alpha".to_vec(), b"".to_vec(), b"gamma!".to_vec()]
        );
        assert_eq!(scan.valid_len, std::fs::metadata(&path).unwrap().len());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_file_scans_empty() {
        let scan = scan(Path::new("/nonexistent/sider.wal")).unwrap();
        assert!(scan.payloads.is_empty());
        assert_eq!(scan.valid_len, 0);
        assert!(!scan.torn);
    }

    #[test]
    fn torn_tail_is_detected_not_fatal() {
        let path = temp_file("torn.wal");
        let mut file = std::fs::File::create(&path).unwrap();
        append_record(&mut file, b"complete-record").unwrap();
        let good_len = file.metadata().unwrap().len();
        // A record whose payload was cut short by the crash.
        let torn = frame(b"never-finished-writing");
        file.write_all(&torn[..torn.len() - 5]).unwrap();
        drop(file);
        let scan = scan(&path).unwrap();
        assert!(scan.torn);
        assert_eq!(scan.payloads, vec![b"complete-record".to_vec()]);
        assert_eq!(scan.valid_len, good_len);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn damaged_payload_invalidates_tail() {
        let path = temp_file("damaged.wal");
        let mut file = std::fs::File::create(&path).unwrap();
        append_record(&mut file, b"first").unwrap();
        let good_len = file.metadata().unwrap().len();
        append_record(&mut file, b"second").unwrap();
        append_record(&mut file, b"third").unwrap();
        drop(file);
        // Flip one payload byte of "second": it and "third" are dropped —
        // nothing after damage can be trusted.
        let mut bytes = std::fs::read(&path).unwrap();
        let idx = good_len as usize + FRAME_HEADER_BYTES;
        bytes[idx] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let scan = scan(&path).unwrap();
        assert!(scan.torn);
        assert_eq!(scan.payloads, vec![b"first".to_vec()]);
        assert_eq!(scan.valid_len, good_len);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn absurd_length_header_is_torn_not_oom() {
        let path = temp_file("absurd.wal");
        let mut file = std::fs::File::create(&path).unwrap();
        append_record(&mut file, b"ok").unwrap();
        let good_len = file.metadata().unwrap().len();
        file.write_all(&u32::MAX.to_le_bytes()).unwrap();
        file.write_all(&[0u8; 100]).unwrap();
        drop(file);
        let scan = scan(&path).unwrap();
        assert!(scan.torn);
        assert_eq!(scan.valid_len, good_len);
        let _ = std::fs::remove_file(&path);
    }
}
