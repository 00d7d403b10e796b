//! The per-switch GRED data plane.
//!
//! Each switch holds three match-action tables, which the greedy stage
//! (the data-plane half of the paper's Algorithm 2) reads:
//!
//! 1. **Neighbor table** — one entry per physical neighbor and per
//!    multi-hop DT neighbor, carrying the neighbor's virtual-space
//!    coordinates and the first-hop switch used to reach it. The P4
//!    prototype evaluates one match-action stage per neighbor to find the
//!    one closest to the packet's data position; the greedy stage performs
//!    the same computation.
//! 2. **Relay table** — virtual-link tuples `<sour, pred, succ, dest>`,
//!    matched by `(dest, sour)` when the switch is an intermediate relay.
//!    Stored compressed ([`RelayTable`]): one wildcard rule per
//!    destination plus exact-match exceptions, so the installed
//!    footprint stays sub-linear in the number of paths funneled through
//!    the switch while lookups behave exactly like the uncompressed
//!    table.
//! 3. **Extension table** — range-extension rewrites (paper Tables I/II)
//!    consulted when the switch delivers locally.
//!
//! Every table is a `Vec` of its own entries sorted by the entry's key:
//! a lookup is a binary search, iteration is in key order, and a table
//! of a few dozen entries costs one allocation.
//!
//! This module holds the tables and the lookups on them. What a switch
//! *does* with a packet — relay-header handling, then the greedy stage —
//! is [`SwitchDataplane::step`] in [`crate::step`], the only caller of
//! the data-path lookups outside tests and benchmarks.

use crate::entries::{DtTuple, ExtensionEntry, NeighborEntry};
use crate::relay::RelayTable;
use gred_geometry::Point2;
use gred_net::ServerId;
use std::sync::atomic::{AtomicU64, Ordering};

/// One switch's data plane: position, tables, and the greedy pipeline.
///
/// ```
/// use gred_dataplane::{Hop, NeighborEntry, SwitchDataplane};
/// use gred_geometry::Point2;
/// use gred_hash::DataId;
///
/// let mut sw = SwitchDataplane::new(0, Point2::new(0.1, 0.1), 2);
/// sw.install_neighbor(NeighborEntry {
///     neighbor: 1,
///     position: Point2::new(0.9, 0.9),
///     via: 1,
///     physical: true,
/// });
/// // A data item hashing near (0.9, 0.9) is forwarded to switch 1.
/// match sw.decide(Point2::new(0.85, 0.95), &DataId::new("k")) {
///     Hop::Forward { to, .. } => assert_eq!(to, 1),
///     other => panic!("expected forward, got {other:?}"),
/// }
/// ```
#[derive(Debug)]
pub struct SwitchDataplane {
    id: usize,
    position: Point2,
    server_count: usize,
    /// Sorted by neighbor id, one entry per neighbor: the key lives in
    /// the entry, so the table stores nothing else.
    neighbors: Vec<NeighborEntry>,
    relays: RelayTable,
    /// Sorted by `original`, one entry per extended server.
    extensions: Vec<ExtensionEntry>,
    /// P4-style counter: packets this switch processed (greedy decisions
    /// plus virtual-link relays).
    processed: AtomicU64,
}

impl Clone for SwitchDataplane {
    fn clone(&self) -> Self {
        SwitchDataplane {
            id: self.id,
            position: self.position,
            server_count: self.server_count,
            neighbors: self.neighbors.clone(),
            relays: self.relays.clone(),
            extensions: self.extensions.clone(),
            processed: AtomicU64::new(self.processed.load(Ordering::Relaxed)),
        }
    }
}

impl SwitchDataplane {
    /// A switch `id` at virtual position `position` with `server_count`
    /// directly attached edge servers.
    ///
    /// # Panics
    ///
    /// Panics if `server_count == 0`; a GRED placement switch always has
    /// at least one server (pure transit switches do not join the DT and
    /// never run the greedy stage, but still need a well-formed data plane — pass
    /// their real attached count or use [`SwitchDataplane::transit`]).
    pub fn new(id: usize, position: Point2, server_count: usize) -> Self {
        assert!(
            server_count > 0,
            "placement switch needs at least one server"
        );
        SwitchDataplane {
            id,
            position,
            server_count,
            neighbors: Vec::new(),
            relays: RelayTable::new(),
            extensions: Vec::new(),
            processed: AtomicU64::new(0),
        }
    }

    /// A transit-only switch: participates in relaying but owns no servers
    /// and no DT position of its own ("switches that are not directly
    /// connected to some edge servers will not participate in the
    /// construction of the DT", Section IV-C).
    pub fn transit(id: usize) -> Self {
        SwitchDataplane {
            id,
            position: Point2::ORIGIN,
            server_count: 0,
            neighbors: Vec::new(),
            relays: RelayTable::new(),
            extensions: Vec::new(),
            processed: AtomicU64::new(0),
        }
    }

    /// The switch id.
    pub fn id(&self) -> usize {
        self.id
    }

    /// The switch's virtual-space position.
    pub fn position(&self) -> Point2 {
        self.position
    }

    /// Number of directly attached servers.
    pub fn server_count(&self) -> usize {
        self.server_count
    }

    /// Installs (or replaces) a neighbor entry.
    pub fn install_neighbor(&mut self, entry: NeighborEntry) {
        match self.neighbor_slot(entry.neighbor) {
            Ok(at) => self.neighbors[at] = entry,
            Err(at) => self.neighbors.insert(at, entry),
        }
    }

    /// Removes the entry for `neighbor`, if any.
    pub fn remove_neighbor(&mut self, neighbor: usize) -> Option<NeighborEntry> {
        let at = self.neighbor_slot(neighbor).ok()?;
        let entry = self.neighbors.remove(at);
        release_slack(&mut self.neighbors);
        Some(entry)
    }

    fn neighbor_slot(&self, neighbor: usize) -> Result<usize, usize> {
        self.neighbors
            .binary_search_by_key(&neighbor, |e| e.neighbor)
    }

    /// Releases table storage beyond the installed entries (controller-side
    /// maintenance once a member's entries are installed).
    pub fn shrink_to_fit(&mut self) {
        self.neighbors.shrink_to_fit();
        self.relays.shrink_to_fit();
    }

    /// Iterates over installed neighbor entries.
    pub fn neighbor_entries(&self) -> impl Iterator<Item = &NeighborEntry> {
        self.neighbors.iter()
    }

    /// Installs a virtual-link relay tuple (keyed by `(dest, sour)`).
    pub fn install_relay(&mut self, tuple: DtTuple) {
        self.relays.insert(tuple);
    }

    /// Removes the relay tuple for the `(dest, sour)` path.
    pub fn remove_relay(&mut self, dest: usize, sour: usize) -> Option<DtTuple> {
        self.relays.remove(dest, sour)
    }

    /// Clears every relay tuple (fault-injection harnesses use it to break
    /// every chain through a switch).
    pub fn clear_relays(&mut self) {
        self.relays.clear();
    }

    /// Iterates over the logical relay tuples in `(dest, sour)` key
    /// order — one per virtual-link path through this switch, regardless
    /// of how the compressed table represents them.
    pub fn relay_entries(&self) -> impl Iterator<Item = &DtTuple> {
        self.relays.iter()
    }

    /// The successor to forward to when relaying a virtual-link packet
    /// addressed to `(dest, sour)` — the paper's "find tuple t with
    /// t.dest = d.dest, set d.relay = t.succ". Falls back to matching on
    /// `dest` alone (as the paper describes) when the exact path entry is
    /// missing.
    pub fn relay_next(&self, dest: usize, sour: usize) -> Option<usize> {
        self.count_packet();
        self.relays.next_hop(dest, sour)
    }

    /// Counter-free *exact* relay lookup: the logical tuple installed for
    /// `(dest, sour)`, with no dest-only fallback and no packet counted.
    /// Controller-side chain walking ([`crate::link_hops`]) uses this;
    /// the data path ([`SwitchDataplane::step`]) uses
    /// [`SwitchDataplane::relay_next`].
    pub fn relay_lookup(&self, dest: usize, sour: usize) -> Option<&DtTuple> {
        self.relays.lookup(dest, sour)
    }

    /// Installs a range-extension rewrite for `entry.original` (which must
    /// be a server of this switch).
    ///
    /// # Panics
    ///
    /// Panics if `entry.original.switch != self.id()`.
    pub fn install_extension(&mut self, entry: ExtensionEntry) {
        assert_eq!(
            entry.original.switch, self.id,
            "extension rewrites are installed at the overloaded server's switch"
        );
        match self.extension_slot(entry.original) {
            Ok(at) => self.extensions[at] = entry,
            Err(at) => self.extensions.insert(at, entry),
        }
    }

    /// Removes the extension rewrite for `original` (load drained back).
    pub fn remove_extension(&mut self, original: ServerId) -> Option<ExtensionEntry> {
        let at = self.extension_slot(original).ok()?;
        let entry = self.extensions.remove(at);
        release_slack(&mut self.extensions);
        Some(entry)
    }

    fn extension_slot(&self, original: ServerId) -> Result<usize, usize> {
        self.extensions
            .binary_search_by_key(&original, |e| e.original)
    }

    /// The takeover server for `original`, if its range is extended.
    pub fn extension_of(&self, original: ServerId) -> Option<ServerId> {
        let at = self.extension_slot(original).ok()?;
        Some(self.extensions[at].takeover)
    }

    /// Iterates over installed extension rewrites in original-server
    /// order — the one record of which ranges are extended.
    pub fn extension_entries(&self) -> impl Iterator<Item = &ExtensionEntry> {
        self.extensions.iter()
    }

    /// Packets this switch has processed (greedy decisions + relays) —
    /// a P4-style counter for forwarding-load experiments.
    pub fn packets_processed(&self) -> u64 {
        self.processed.load(Ordering::Relaxed)
    }

    /// Counts one packet on the P4-style counter.
    pub(crate) fn count_packet(&self) {
        self.processed.fetch_add(1, Ordering::Relaxed);
    }

    /// Resets the packet counter.
    pub fn reset_counters(&self) {
        self.processed.store(0, Ordering::Relaxed);
    }

    /// Total *installed* forwarding entries across all tables — the
    /// metric of Fig. 9(d). Relay entries are counted in their
    /// compressed, hardware form (one wildcard per destination plus
    /// exceptions), not one per logical path.
    pub fn entry_count(&self) -> usize {
        self.neighbors.len() + self.relays.installed_len() + self.extensions.len()
    }

    /// Per-table installed entry counts `(neighbors, relays, extensions)`.
    pub fn entry_breakdown(&self) -> (usize, usize, usize) {
        (
            self.neighbors.len(),
            self.relays.installed_len(),
            self.extensions.len(),
        )
    }
}

/// Halves `v`'s storage once it is three-quarters empty, so a table that
/// shrinks under churn gives memory back without reallocating on every
/// removal.
pub(crate) fn release_slack<T>(v: &mut Vec<T>) {
    if v.len() * 4 <= v.capacity() {
        v.shrink_to(v.len() * 2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::RelayHeader;
    use crate::step::{Delivery, Hop};
    use gred_hash::DataId;

    fn entry(neighbor: usize, x: f64, y: f64) -> NeighborEntry {
        NeighborEntry {
            neighbor,
            position: Point2::new(x, y),
            via: neighbor,
            physical: true,
        }
    }

    #[test]
    fn delivers_locally_when_closest() {
        let mut sw = SwitchDataplane::new(3, Point2::new(0.5, 0.5), 4);
        sw.install_neighbor(entry(1, 0.0, 0.0));
        sw.install_neighbor(entry(2, 1.0, 1.0));
        let id = DataId::new("k");
        match sw.decide(Point2::new(0.5, 0.52), &id) {
            Hop::Deliver(Delivery {
                server,
                extended_to,
            }) => {
                assert_eq!(server.switch, 3);
                assert_eq!(server.index, gred_hash::select_server(&id, 4));
                assert_eq!(extended_to, None);
            }
            other => panic!("expected local delivery, got {other:?}"),
        }
    }

    #[test]
    fn forwards_to_closest_neighbor() {
        let mut sw = SwitchDataplane::new(0, Point2::new(0.0, 0.0), 1);
        sw.install_neighbor(entry(1, 0.5, 0.5));
        sw.install_neighbor(entry(2, 1.0, 1.0));
        assert_eq!(
            sw.decide(Point2::new(0.9, 0.9), &DataId::new("k")),
            Hop::Forward { to: 2, relay: None }
        );
    }

    #[test]
    fn multi_hop_neighbor_uses_via() {
        let mut sw = SwitchDataplane::new(0, Point2::new(0.0, 0.0), 1);
        sw.install_neighbor(NeighborEntry {
            neighbor: 5,
            position: Point2::new(0.8, 0.8),
            via: 2,
            physical: false,
        });
        let relay = RelayHeader {
            dest: 5,
            sour: 0,
            relay: 2,
        };
        assert_eq!(
            sw.decide(Point2::new(0.8, 0.8), &DataId::new("k")),
            Hop::Forward {
                to: 2,
                relay: Some(relay)
            }
        );
    }

    #[test]
    fn equidistant_neighbors_tie_break_lexicographically() {
        let mut sw = SwitchDataplane::new(0, Point2::new(0.0, 0.0), 1);
        sw.install_neighbor(entry(1, 0.4, 0.6));
        sw.install_neighbor(entry(2, 0.6, 0.4));
        // Target equidistant from both neighbors.
        assert_eq!(
            sw.decide(Point2::new(0.5, 0.5), &DataId::new("k")),
            Hop::Forward { to: 1, relay: None },
            "lex-smaller position (0.4, 0.6) wins"
        );
    }

    #[test]
    fn extension_rewrite_applies_on_delivery() {
        let mut sw = SwitchDataplane::new(1, Point2::new(0.5, 0.5), 1);
        let (original, takeover) = (server(1, 0), server(2, 1));
        sw.install_extension(ExtensionEntry { original, takeover });
        assert_eq!(
            sw.decide(Point2::new(0.5, 0.5), &DataId::new("k")),
            Hop::Deliver(Delivery {
                server: original,
                extended_to: Some(takeover)
            })
        );
        // Retract and verify it is gone.
        assert!(sw.remove_extension(original).is_some());
        assert_eq!(sw.extension_of(original), None);
    }

    #[test]
    #[should_panic(expected = "overloaded server's switch")]
    fn extension_for_foreign_switch_panics() {
        let mut sw = SwitchDataplane::new(1, Point2::ORIGIN, 1);
        sw.install_extension(ExtensionEntry {
            original: server(9, 0),
            takeover: server(2, 0),
        });
    }

    #[test]
    fn relay_lookup_exact_and_fallback() {
        let mut sw = SwitchDataplane::new(4, Point2::ORIGIN, 1);
        sw.install_relay(DtTuple {
            sour: 1,
            pred: 1,
            succ: 7,
            dest: 9,
        });
        assert_eq!(sw.relay_next(9, 1), Some(7));
        // Fallback on dest alone when the exact (dest, sour) is missing.
        assert_eq!(sw.relay_next(9, 2), Some(7));
        assert_eq!(sw.relay_next(8, 1), None);
        assert_eq!(sw.remove_relay(9, 1).map(|t| t.succ), Some(7));
        assert_eq!(sw.relay_next(9, 1), None);
    }

    #[test]
    fn entry_accounting() {
        let mut sw = SwitchDataplane::new(0, Point2::ORIGIN, 2);
        sw.install_neighbor(entry(1, 0.1, 0.1));
        sw.install_neighbor(entry(2, 0.2, 0.2));
        sw.install_relay(DtTuple {
            sour: 0,
            pred: 0,
            succ: 1,
            dest: 5,
        });
        sw.install_extension(extend(1, server(1, 0)));
        assert_eq!(sw.entry_count(), 4);
        assert_eq!(sw.entry_breakdown(), (2, 1, 1));
        // Reinstalling a neighbor replaces, not duplicates.
        sw.install_neighbor(entry(1, 0.15, 0.15));
        assert_eq!(sw.entry_breakdown().0, 2);
        sw.clear_relays();
        assert_eq!(sw.entry_breakdown().1, 0);
    }

    #[test]
    #[should_panic(expected = "transit switch")]
    fn transit_switch_cannot_decide() {
        let sw = SwitchDataplane::transit(7);
        let _ = sw.decide(Point2::ORIGIN, &DataId::new("k"));
    }

    #[test]
    fn step_skips_suspect_neighbors() {
        let mut sw = SwitchDataplane::new(0, Point2::new(0.0, 0.0), 1);
        sw.install_neighbor(entry(1, 0.5, 0.5));
        sw.install_neighbor(entry(2, 0.9, 0.9));
        let id = DataId::new("k");
        let target = Point2::new(1.0, 1.0);
        let forward = |to| Hop::Forward { to, relay: None };

        // All alive: the closest neighbor (2) wins, no detour.
        assert_eq!(
            sw.step(target, &id, None, &|_| true),
            Ok((forward(2), false))
        );

        // Best neighbor suspect: fall back to the next-best, flagged.
        assert_eq!(
            sw.step(target, &id, None, &|n| n != 2),
            Ok((forward(1), true)),
            "skipping the true greedy hop is a detour"
        );

        // Every closer neighbor suspect: deliver locally, flagged.
        let (hop, detoured) = sw.step(target, &id, None, &|_| false).unwrap();
        assert!(matches!(hop, Hop::Deliver(_)));
        assert!(detoured);

        // Suspecting a neighbor the pipeline would not pick anyway is
        // not a detour.
        assert_eq!(
            sw.step(target, &id, None, &|n| n != 1),
            Ok((forward(2), false))
        );
    }

    #[test]
    fn step_local_minimum_never_detours() {
        let mut sw = SwitchDataplane::new(3, Point2::new(0.5, 0.5), 2);
        sw.install_neighbor(entry(1, 0.0, 0.0));
        let id = DataId::new("k");
        // The switch itself is nearest: delivery, detour-free, under any
        // filter (filtering cannot create a forwarding candidate).
        for alive in [true, false] {
            let (hop, detoured) = sw
                .step(Point2::new(0.5, 0.51), &id, None, &|_| alive)
                .unwrap();
            assert!(matches!(hop, Hop::Deliver(_)));
            assert!(!detoured);
        }
    }

    fn server(switch: usize, index: usize) -> ServerId {
        ServerId { switch, index }
    }

    fn extend(index: usize, takeover: ServerId) -> ExtensionEntry {
        let original = server(0, index);
        ExtensionEntry { original, takeover }
    }

    #[test]
    fn extension_table_iterates_in_original_order() {
        let mut sw = SwitchDataplane::new(0, Point2::ORIGIN, 3);
        for index in [2, 0, 1] {
            sw.install_extension(extend(index, server(5, index)));
        }
        let originals: Vec<usize> = sw.extension_entries().map(|e| e.original.index).collect();
        assert_eq!(originals, [0, 1, 2]);
    }

    #[test]
    fn extension_table_replaces_and_removes_by_original() {
        let mut sw = SwitchDataplane::new(0, Point2::ORIGIN, 3);
        sw.install_extension(extend(2, server(5, 0)));
        sw.install_extension(extend(0, server(6, 1)));
        // A re-install replaces the takeover, not duplicates the entry.
        sw.install_extension(extend(2, server(7, 0)));
        assert_eq!(sw.extension_of(server(0, 2)), Some(server(7, 0)));
        assert_eq!(sw.entry_breakdown().2, 2);
        // A removal returns the entry; a second finds nothing.
        let removed = sw.remove_extension(server(0, 2));
        assert_eq!(removed, Some(extend(2, server(7, 0))));
        assert_eq!(sw.remove_extension(server(0, 2)), None);
        assert_eq!(sw.extension_entries().count(), 1);
    }

    #[test]
    fn transit_switch_relays() {
        let mut sw = SwitchDataplane::transit(7);
        sw.install_relay(DtTuple {
            sour: 0,
            pred: 2,
            succ: 3,
            dest: 9,
        });
        assert_eq!(sw.relay_next(9, 0), Some(3));
        assert_eq!(sw.server_count(), 0);
    }
}
