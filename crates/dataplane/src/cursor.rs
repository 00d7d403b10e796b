//! The one bounds-checked big-endian cursor, and the one decode error.
//!
//! Every decoder — packets and batch containers ([`crate::wire`]), the
//! stats snapshot and admin verbs ([`crate::obs`]), the cluster's call
//! frame — reads through [`Cursor`] and fails with [`DecodeError`], so
//! "never reads past its input, never panics on hostile bytes" is a
//! property of the few lines below rather than of each format.

/// Why a byte string failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The input ends before the field being read does.
    Truncated {
        /// Input length the field needs.
        needed: usize,
        /// Input length there is.
        have: usize,
    },
    /// The first two bytes are not the magic the decoder expects.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u8),
    /// Unknown packet kind discriminant.
    BadKind(u8),
    /// Flags contain bits this parser does not understand, or a bit the
    /// packet's kind may not carry.
    UnknownFlags(u8),
    /// Status flag bits are contradictory (both set) or set on a request
    /// packet — only responses carry a status.
    BadStatus {
        /// The offending flag byte.
        flags: u8,
        /// The wire kind discriminant the status appeared on.
        kind: u8,
    },
    /// A position coordinate is not finite.
    BadPosition,
    /// A tag byte (an admin verb, a boolean) holds no known value.
    BadTag(u8),
    /// Bytes remain after a complete value.
    TrailingGarbage {
        /// Number of unexpected trailing bytes.
        extra: usize,
    },
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated { needed, have } => {
                write!(f, "truncated: need {needed} bytes, have {have}")
            }
            DecodeError::BadMagic => write!(f, "missing GRED magic bytes"),
            DecodeError::BadVersion(v) => write!(f, "unsupported format version {v}"),
            DecodeError::BadKind(k) => write!(f, "unknown packet kind {k}"),
            DecodeError::UnknownFlags(b) => write!(f, "unknown flag bits {b:#010b}"),
            DecodeError::BadStatus { flags, kind } => {
                write!(f, "invalid status flags {flags:#010b} on kind {kind}")
            }
            DecodeError::BadPosition => write!(f, "non-finite virtual position"),
            DecodeError::BadTag(t) => write!(f, "unknown tag {t}"),
            DecodeError::TrailingGarbage { extra } => {
                write!(f, "{extra} trailing bytes after a complete value")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// A read position in a byte string. Every read is bounds-checked and
/// advances the position; nothing here allocates or panics.
#[derive(Debug, Clone)]
pub struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, at: 0 }
    }

    /// Bytes consumed so far.
    pub fn position(&self) -> usize {
        self.at
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.at
    }

    /// The next `n` bytes.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Truncated`] when fewer than `n` remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if n > self.remaining() {
            return Err(DecodeError::Truncated {
                needed: self.at.saturating_add(n),
                have: self.bytes.len(),
            });
        }
        let taken = &self.bytes[self.at..self.at + n];
        self.at += n;
        Ok(taken)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        Ok(self.take(N)?.try_into().expect("take returned N bytes"))
    }

    /// One byte.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Truncated`], as for every read below.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.array::<1>()?[0])
    }

    /// A big-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, DecodeError> {
        self.array().map(u16::from_be_bytes)
    }

    /// A big-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        self.array().map(u32::from_be_bytes)
    }

    /// A big-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        self.array().map(u64::from_be_bytes)
    }

    /// A big-endian IEEE-754 `f64`.
    pub fn f64(&mut self) -> Result<f64, DecodeError> {
        self.array().map(f64::from_be_bytes)
    }

    /// An empty vector for `count` items of at least `item_bytes` encoded
    /// bytes each. A count field is the sender's claim, not a size: the
    /// reservation is bounded by what the bytes still unread could hold.
    pub fn vec_for<T>(&self, count: usize, item_bytes: usize) -> Vec<T> {
        Vec::with_capacity(count.min(self.remaining() / item_bytes))
    }

    /// Ends the decode: the whole input must have been consumed.
    ///
    /// # Errors
    ///
    /// [`DecodeError::TrailingGarbage`] when bytes remain.
    pub fn finish(self) -> Result<(), DecodeError> {
        match self.remaining() {
            0 => Ok(()),
            extra => Err(DecodeError::TrailingGarbage { extra }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_advance_and_stop_at_the_end() {
        let bytes = [1, 0, 2, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 4, 9];
        let mut r = Cursor::new(&bytes);
        assert_eq!(r.u8(), Ok(1));
        assert_eq!(r.u16(), Ok(2));
        assert_eq!(r.u32(), Ok(3));
        assert_eq!(r.u64(), Ok(4));
        assert_eq!((r.position(), r.remaining()), (15, 1));
        assert_eq!(
            r.u16(),
            Err(DecodeError::Truncated {
                needed: 17,
                have: 16
            })
        );
        // A failed read consumes nothing.
        assert_eq!(r.clone().take(1), Ok(&[9u8][..]));
        assert_eq!(r.finish(), Err(DecodeError::TrailingGarbage { extra: 1 }));
    }

    #[test]
    fn a_huge_length_is_truncation_not_overflow() {
        let mut r = Cursor::new(b"abc");
        r.u8().unwrap();
        assert!(matches!(
            r.take(usize::MAX),
            Err(DecodeError::Truncated { have: 3, .. })
        ));
    }
}
