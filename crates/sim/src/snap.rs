//! Hand-rolled snapshot byte codec: little-endian, fixed-width, versioned
//! by the caller, zero dependencies (the vendor tree is offline, so there
//! is no serde to lean on).
//!
//! The writer appends primitives to a growable buffer; the reader walks the
//! same buffer and returns a structured [`SnapError`] — never a panic — on
//! truncated or corrupt input, so a damaged snapshot file fails closed.
//! Determinism contract: encoding the same logical state must produce the
//! same bytes, so callers serialize unordered containers (hash maps) in
//! sorted key order. Floats travel as IEEE-754 bit patterns
//! ([`f64::to_bits`]), making the round-trip exact.

use std::fmt;

/// Decode failure: offset of the read that failed plus what was expected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapError {
    /// Byte offset at which decoding failed.
    pub at: usize,
    /// Human-readable description of the expectation that was violated.
    pub what: String,
}

impl SnapError {
    pub fn new(at: usize, what: impl Into<String>) -> Self {
        SnapError {
            at,
            what: what.into(),
        }
    }
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "snapshot decode error at byte {}: {}",
            self.at, self.what
        )
    }
}

impl std::error::Error for SnapError {}

/// Append-only encoder for the snapshot byte format.
#[derive(Debug, Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn with_capacity(cap: usize) -> Self {
        SnapWriter {
            buf: Vec::with_capacity(cap),
        }
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Low 64 bits, then high 64 bits.
    pub fn put_u128(&mut self, v: u128) {
        self.put_u64(v as u64);
        self.put_u64((v >> 64) as u64);
    }

    /// Lengths/counts travel as u64 so the format is pointer-width-free.
    pub fn put_len(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Exact float transport via the IEEE-754 bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_len(v.len());
        self.buf.extend_from_slice(v);
    }

    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }

    pub fn put_opt_u64(&mut self, v: Option<u64>) {
        match v {
            Some(x) => {
                self.put_u8(1);
                self.put_u64(x);
            }
            None => self.put_u8(0),
        }
    }

    pub fn put_opt_u32(&mut self, v: Option<u32>) {
        match v {
            Some(x) => {
                self.put_u8(1);
                self.put_u32(x);
            }
            None => self.put_u8(0),
        }
    }
}

/// Cursor-style decoder over a snapshot byte slice. Every read is bounds-
/// checked and returns `Err(SnapError)` on truncation; no method panics on
/// malformed input.
#[derive(Debug)]
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        SnapReader { buf, pos: 0 }
    }

    /// Current read offset (for error context).
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Error constructor anchored at the current offset.
    pub fn err(&self, what: impl Into<String>) -> SnapError {
        SnapError::new(self.pos, what)
    }

    /// Fail unless the whole buffer was consumed (trailing garbage is as
    /// suspect as truncation).
    pub fn expect_end(&self) -> Result<(), SnapError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(self.err(format!(
                "{} trailing bytes after snapshot",
                self.remaining()
            )))
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        if self.remaining() < n {
            return Err(self.err(format!(
                "truncated: need {n} bytes, {} remain",
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub fn get_u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1)?[0])
    }

    pub fn get_bool(&mut self) -> Result<bool, SnapError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(SnapError::new(self.pos - 1, format!("bad bool byte {b}"))),
        }
    }

    pub fn get_u32(&mut self) -> Result<u32, SnapError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    pub fn get_u64(&mut self) -> Result<u64, SnapError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    pub fn get_u128(&mut self) -> Result<u128, SnapError> {
        Ok(u128::from(self.get_u64()?) | (u128::from(self.get_u64()?) << 64))
    }

    /// Length field with a sanity cap: a corrupted length must not drive a
    /// multi-gigabyte allocation before the next read fails.
    pub fn get_len(&mut self) -> Result<usize, SnapError> {
        let v = self.get_u64()?;
        if v > self.remaining() as u64 && v > (1 << 32) {
            return Err(SnapError::new(
                self.pos - 8,
                format!("implausible length {v}"),
            ));
        }
        Ok(v as usize)
    }

    pub fn get_f64(&mut self) -> Result<f64, SnapError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    pub fn get_bytes(&mut self) -> Result<&'a [u8], SnapError> {
        let n = self.get_len()?;
        self.take(n)
    }

    pub fn get_string(&mut self) -> Result<String, SnapError> {
        let at = self.pos;
        let b = self.get_bytes()?;
        String::from_utf8(b.to_vec()).map_err(|_| SnapError::new(at, "invalid utf-8 string"))
    }

    pub fn get_opt_u64(&mut self) -> Result<Option<u64>, SnapError> {
        match self.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.get_u64()?)),
            b => Err(SnapError::new(self.pos - 1, format!("bad option tag {b}"))),
        }
    }

    pub fn get_opt_u32(&mut self) -> Result<Option<u32>, SnapError> {
        match self.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.get_u32()?)),
            b => Err(SnapError::new(self.pos - 1, format!("bad option tag {b}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = SnapWriter::new();
        w.put_u8(7);
        w.put_bool(true);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 3);
        w.put_u128(u128::MAX - (5 << 64) - 2);
        w.put_f64(-0.1);
        w.put_str("héllo");
        w.put_bytes(&[1, 2, 3]);
        w.put_opt_u64(Some(9));
        w.put_opt_u64(None);
        w.put_opt_u32(Some(4));
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert!(r.get_bool().unwrap());
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.get_u128().unwrap(), u128::MAX - (5 << 64) - 2);
        assert_eq!(r.get_f64().unwrap().to_bits(), (-0.1f64).to_bits());
        assert_eq!(r.get_string().unwrap(), "héllo");
        assert_eq!(r.get_bytes().unwrap(), &[1, 2, 3]);
        assert_eq!(r.get_opt_u64().unwrap(), Some(9));
        assert_eq!(r.get_opt_u64().unwrap(), None);
        assert_eq!(r.get_opt_u32().unwrap(), Some(4));
        assert!(r.expect_end().is_ok());
    }

    #[test]
    fn truncation_errors_instead_of_panicking() {
        let mut w = SnapWriter::new();
        w.put_u64(42);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = SnapReader::new(&bytes[..cut]);
            assert!(r.get_u64().is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn bad_tags_are_rejected() {
        let bytes = [9u8];
        assert!(SnapReader::new(&bytes).get_bool().is_err());
        assert!(SnapReader::new(&bytes).get_opt_u64().is_err());
    }

    #[test]
    fn implausible_length_is_rejected_early() {
        let mut w = SnapWriter::new();
        w.put_u64(u64::MAX / 2); // absurd length prefix
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert!(r.get_bytes().is_err());
    }

    #[test]
    fn trailing_garbage_is_detected() {
        let mut w = SnapWriter::new();
        w.put_u32(1);
        let mut bytes = w.into_bytes();
        bytes.push(0xFF);
        let mut r = SnapReader::new(&bytes);
        r.get_u32().unwrap();
        assert!(r.expect_end().is_err());
    }

    #[test]
    fn float_transport_is_exact() {
        for v in [0.0, -0.0, f64::INFINITY, f64::MIN_POSITIVE, 1.0 / 3.0] {
            let mut w = SnapWriter::new();
            w.put_f64(v);
            let bytes = w.into_bytes();
            let got = SnapReader::new(&bytes).get_f64().unwrap();
            assert_eq!(got.to_bits(), v.to_bits());
        }
    }
}
