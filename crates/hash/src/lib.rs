#![warn(missing_docs)]

//! Hashing primitives for the GRED data placement and retrieval service.
//!
//! GRED maps every data identifier to a position in a virtual 2D unit square
//! by hashing the identifier with SHA-256 and interpreting the last eight
//! bytes of the digest as two fixed-point coordinates (Section III of the
//! paper). This crate provides:
//!
//! - [`sha256`]: a from-scratch FIPS 180-4 SHA-256 implementation, so the
//!   repository carries no external cryptography dependency: SHA-NI when
//!   the CPU has it, portable rounds otherwise, both tested,
//! - [`position`]: the digest → `[0,1]²` coordinate mapping,
//! - [`server`]: the `H(d) mod s` rule a switch uses to pick one of its
//!   attached edge servers,
//! - [`hex`]: small hex-encoding helpers used by tests and debug output.
//!
//! # Examples
//!
//! ```
//! use gred_hash::{DataId, position::virtual_position};
//!
//! let id = DataId::new("sensor-42/frame/0001");
//! let p = virtual_position(&id);
//! assert!((0.0..=1.0).contains(&p.0) && (0.0..=1.0).contains(&p.1));
//! ```

pub mod hex;
pub mod position;
pub mod server;
pub mod sha256;

pub use position::virtual_position;
pub use server::select_server;
pub use sha256::{Digest, Sha256};

use serde::{Deserialize, Serialize};

/// An application-level data identifier.
///
/// GRED treats identifiers as opaque byte strings; everything the protocol
/// needs (virtual position, owning server index, replica positions) is
/// derived from the SHA-256 digest of these bytes.
///
/// ```
/// use gred_hash::DataId;
/// let a = DataId::new("video/cam-3/chunk-17");
/// let b = DataId::from_bytes(b"video/cam-3/chunk-17".to_vec());
/// assert_eq!(a, b);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct DataId(Vec<u8>);

impl DataId {
    /// Creates an identifier from anything string-like.
    pub fn new(s: impl AsRef<str>) -> Self {
        DataId(s.as_ref().as_bytes().to_vec())
    }

    /// Creates an identifier from raw bytes.
    pub fn from_bytes(bytes: Vec<u8>) -> Self {
        DataId(bytes)
    }

    /// The raw identifier bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// SHA-256 digest of the identifier.
    pub fn digest(&self) -> Digest {
        sha256::digest(&self.0)
    }

    /// The identifier for the `serial`-th replica of this data item.
    ///
    /// The paper (Section VI, "Data copies") concatenates the identifier with
    /// a serial number and hashes the result, so every copy lands at an
    /// independent position in the virtual space. Serial 0 is the primary.
    pub fn replica(&self, serial: u32) -> DataId {
        if serial == 0 {
            return self.clone();
        }
        let mut bytes = self.0.clone();
        bytes.push(b'#');
        bytes.extend_from_slice(&serial.to_be_bytes());
        DataId(bytes)
    }
}

impl From<&str> for DataId {
    fn from(s: &str) -> Self {
        DataId::new(s)
    }
}

impl From<String> for DataId {
    fn from(s: String) -> Self {
        DataId(s.into_bytes())
    }
}

impl std::fmt::Display for DataId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match std::str::from_utf8(&self.0) {
            Ok(s) => write!(f, "{s}"),
            Err(_) => write!(f, "0x{}", hex::encode(&self.0)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replica_zero_is_primary() {
        let id = DataId::new("abc");
        assert_eq!(id.replica(0), id);
    }

    #[test]
    fn replicas_are_distinct() {
        let id = DataId::new("abc");
        let r1 = id.replica(1);
        let r2 = id.replica(2);
        assert_ne!(r1, r2);
        assert_ne!(r1, id);
        assert_ne!(r1.digest(), r2.digest());
    }

    #[test]
    fn display_utf8_and_binary() {
        assert_eq!(DataId::new("abc").to_string(), "abc");
        let bin = DataId::from_bytes(vec![0xff, 0xfe]);
        assert_eq!(bin.to_string(), "0xfffe");
    }

    #[test]
    fn from_conversions_agree() {
        let a: DataId = "k".into();
        let b: DataId = String::from("k").into();
        assert_eq!(a, b);
    }
}
