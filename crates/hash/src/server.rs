//! The `H(d) mod s` server-selection rule (Section V-B of the paper).
//!
//! A switch that wins the greedy routing for a data item owns the item, and
//! picks which of its `s` directly-attached edge servers stores it by taking
//! the data's hash modulo `s`. Because SHA-256 output is uniform, the rule
//! balances load across the servers behind one switch.

use crate::{DataId, Digest};

/// Selects the serial number (in `0..servers`) of the edge server that
/// stores `id`, among the `servers` servers attached to the owning switch.
///
/// # Panics
///
/// Panics if `servers == 0`; a switch participating in GRED placement always
/// has at least one attached edge server.
///
/// ```
/// use gred_hash::{DataId, select_server};
/// let s = select_server(&DataId::new("k"), 4);
/// assert!(s < 4);
/// // Deterministic:
/// assert_eq!(s, select_server(&DataId::new("k"), 4));
/// ```
pub fn select_server(id: &DataId, servers: usize) -> usize {
    digest_server(&id.digest(), servers)
}

/// [`select_server`] on a digest already computed, for a caller that
/// also needs the digest's position: `H(d) mod s`, read off the
/// digest's first eight bytes.
///
/// # Panics
///
/// Panics if `servers == 0`.
///
/// ```
/// use gred_hash::{server::digest_server, select_server, DataId};
/// let id = DataId::new("k");
/// assert_eq!(digest_server(&id.digest(), 4), select_server(&id, 4));
/// ```
pub fn digest_server(digest: &Digest, servers: usize) -> usize {
    assert!(servers > 0, "switch must have at least one edge server");
    (digest.head_u64() % servers as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn single_server_always_zero() {
        for i in 0..32 {
            assert_eq!(select_server(&DataId::new(format!("k{i}")), 1), 0);
        }
    }

    #[test]
    #[should_panic(expected = "at least one edge server")]
    fn zero_servers_panics() {
        select_server(&DataId::new("k"), 0);
    }

    /// Uniformity: 10_000 keys over 10 servers, each bucket should be near
    /// 1000. Bound of ±20% keeps the test deterministic yet meaningful.
    #[test]
    fn selection_is_balanced() {
        let servers = 10;
        let mut counts = vec![0u32; servers];
        for i in 0..10_000 {
            counts[select_server(&DataId::new(format!("balance-{i}")), servers)] += 1;
        }
        for (s, &c) in counts.iter().enumerate() {
            assert!((800..=1200).contains(&c), "server {s} got {c}");
        }
    }

    proptest! {
        #[test]
        fn prop_in_range(bytes in proptest::collection::vec(any::<u8>(), 0..32), servers in 1usize..64) {
            let s = select_server(&DataId::from_bytes(bytes), servers);
            prop_assert!(s < servers);
        }
    }
}
