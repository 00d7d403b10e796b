//! A prefix-compressed relay table.
//!
//! The relay table logically holds one `<sour, pred, succ, dest>` tuple
//! per virtual-link path through this switch, matched by `(dest, sour)`.
//! In practice most paths toward the same destination leave through the
//! same successor port — the network funnels them — so installing one
//! exact-match entry per path wastes hardware table space. This table
//! keeps the logical tuples but *installs* them in longest-prefix-match
//! style, per destination:
//!
//! - one wildcard rule `(dest, *) → default succ`, where the default is
//!   the tuple with the smallest source (exactly the entry the paper's
//!   dest-only fallback would have matched), and
//! - one exact-match rule `(dest, sour) → succ` per **exception**, a
//!   tuple whose successor differs from the default.
//!
//! Tuples that agree with the default ("covered") cost no installed
//! entry: the wildcard already forwards them correctly. The installed
//! footprint per destination is `1 + exceptions`, which is what a
//! hardware table would hold and what [`RelayTable::installed_len`]
//! reports — the paper's Fig. 9(d) metric. Lookup semantics are
//! bit-identical to the uncompressed table: an exact `(dest, sour)`
//! match wins, anything else with a matching `dest` falls back to the
//! smallest-source tuple's successor.
//!
//! The table stores the logical tuples themselves, one flat `Vec` sorted
//! by `(dest, sour)`: a destination's tuples are a contiguous run whose
//! first element is its wildcard default, so both lookups are binary
//! searches and the installed footprint is counted, not stored. The
//! representation is **canonical**: it is a pure function of the logical
//! tuple set, independent of install order, so two controllers that
//! install the same paths in different orders (the build's full
//! installation vs a delta) produce bit-identical tables.

use crate::entries::DtTuple;

/// The compressed relay table: per-destination wildcard defaults plus
/// exception entries, canonical in the logical tuple set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelayTable {
    /// Every logical tuple, sorted by `(dest, sour)`.
    tuples: Vec<DtTuple>,
    /// Installed entries: one wildcard per destination plus one per
    /// exception.
    installed: usize,
    high_water: usize,
}

impl Default for RelayTable {
    fn default() -> Self {
        RelayTable::new()
    }
}

impl RelayTable {
    /// An empty table.
    pub fn new() -> Self {
        RelayTable {
            tuples: Vec::new(),
            installed: 0,
            high_water: 0,
        }
    }

    /// The slot of `(dest, sour)`, or where it would be inserted.
    fn slot(&self, dest: usize, sour: usize) -> Result<usize, usize> {
        self.tuples
            .binary_search_by_key(&(dest, sour), |t| (t.dest, t.sour))
    }

    /// `dest`'s tuples, the wildcard default first.
    fn run(&self, dest: usize) -> &[DtTuple] {
        let start = self.tuples.partition_point(|t| t.dest < dest);
        let len = self.tuples[start..].partition_point(|t| t.dest == dest);
        &self.tuples[start..start + len]
    }

    /// Installed entries for `dest`: the wildcard plus its exceptions.
    fn installed_for(&self, dest: usize) -> usize {
        match self.run(dest) {
            [] => 0,
            [default, rest @ ..] => 1 + rest.iter().filter(|t| t.succ != default.succ).count(),
        }
    }

    /// Applies `edit` to the tuples, keeping the installed count of
    /// `dest` (the only destination `edit` touches) current.
    fn edit_run<R>(&mut self, dest: usize, edit: impl FnOnce(&mut Vec<DtTuple>) -> R) -> R {
        let before = self.installed_for(dest);
        let out = edit(&mut self.tuples);
        self.installed = self.installed + self.installed_for(dest) - before;
        self.high_water = self.high_water.max(self.installed);
        out
    }

    /// Installs (or replaces) the tuple for `(tuple.dest, tuple.sour)`,
    /// returning the previous tuple at that key.
    pub fn insert(&mut self, tuple: DtTuple) -> Option<DtTuple> {
        let slot = self.slot(tuple.dest, tuple.sour);
        self.edit_run(tuple.dest, |tuples| match slot {
            Ok(at) => Some(std::mem::replace(&mut tuples[at], tuple)),
            Err(at) => {
                tuples.insert(at, tuple);
                None
            }
        })
    }

    /// Removes the tuple for `(dest, sour)`, if present. When the removed
    /// tuple was the wildcard default, the next-smallest source becomes
    /// the default.
    pub fn remove(&mut self, dest: usize, sour: usize) -> Option<DtTuple> {
        let at = self.slot(dest, sour).ok()?;
        Some(self.edit_run(dest, |tuples| {
            let removed = tuples.remove(at);
            crate::table::release_slack(tuples);
            removed
        }))
    }

    /// The tuple installed for exactly `(dest, sour)`, if any.
    pub fn lookup(&self, dest: usize, sour: usize) -> Option<&DtTuple> {
        let at = self.slot(dest, sour).ok()?;
        Some(&self.tuples[at])
    }

    /// The successor for a relayed packet addressed to `(dest, sour)`:
    /// the exact tuple's successor when installed (an exception's own, or
    /// a covered tuple's, which equals the default's), otherwise the
    /// destination's wildcard default (the smallest-source tuple, exactly
    /// the paper's dest-only fallback). `None` when no tuple matches the
    /// destination at all.
    pub fn next_hop(&self, dest: usize, sour: usize) -> Option<usize> {
        match self.slot(dest, sour) {
            Ok(at) => Some(self.tuples[at].succ),
            Err(_) => self.run(dest).first().map(|t| t.succ),
        }
    }

    /// Iterates over the logical tuples in `(dest, sour)` order.
    pub fn iter(&self) -> impl Iterator<Item = &DtTuple> {
        self.tuples.iter()
    }

    /// Number of logical tuples (virtual-link paths through this switch).
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Whether the table holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Installed (hardware) entries: one wildcard per destination plus
    /// one exact-match entry per exception. This is the per-switch
    /// footprint a real match-action table would hold and the statistic
    /// exported for the paper's entry-count metric.
    pub fn installed_len(&self) -> usize {
        self.installed
    }

    /// Highest installed-entry count ever reached.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Releases storage beyond the installed tuples.
    pub fn shrink_to_fit(&mut self) {
        self.tuples.shrink_to_fit();
    }

    /// Removes every tuple.
    pub fn clear(&mut self) {
        self.tuples.clear();
        self.installed = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn t(sour: usize, pred: usize, succ: usize, dest: usize) -> DtTuple {
        DtTuple {
            sour,
            pred,
            succ,
            dest,
        }
    }

    /// The uncompressed reference: a BTreeMap keyed by `(dest, sour)`
    /// with the original linear-scan fallback.
    #[derive(Default)]
    struct Reference(BTreeMap<(usize, usize), DtTuple>);

    impl Reference {
        fn next_hop(&self, dest: usize, sour: usize) -> Option<usize> {
            if let Some(t) = self.0.get(&(dest, sour)) {
                return Some(t.succ);
            }
            self.0
                .iter()
                .find(|((d, _), _)| *d == dest)
                .map(|(_, t)| t.succ)
        }
    }

    #[test]
    fn lookup_and_fallback_match_reference() {
        let tuples = [t(1, 0, 7, 9), t(4, 2, 7, 9), t(6, 3, 8, 9), t(2, 1, 5, 3)];
        let mut table = RelayTable::new();
        let mut reference = Reference::default();
        for tu in tuples {
            table.insert(tu);
            reference.0.insert((tu.dest, tu.sour), tu);
        }
        for dest in 0..12 {
            for sour in 0..12 {
                assert_eq!(
                    table.next_hop(dest, sour),
                    reference.next_hop(dest, sour),
                    "dest={dest} sour={sour}"
                );
            }
        }
    }

    #[test]
    fn canonical_across_insert_orders() {
        let tuples = [t(3, 0, 7, 9), t(1, 0, 7, 9), t(6, 3, 8, 9), t(5, 2, 8, 9)];
        let mut forward = RelayTable::new();
        for tu in tuples {
            forward.insert(tu);
        }
        let mut backward = RelayTable::new();
        for tu in tuples.iter().rev() {
            backward.insert(*tu);
        }
        assert_eq!(forward, backward);
        // 1 wildcard (sour 1 → 7), sour 3 covered, sours 5/6 exceptions.
        assert_eq!(forward.installed_len(), 3);
        assert_eq!(forward.len(), 4);
    }

    #[test]
    fn iteration_is_dest_then_sour_ordered() {
        let tuples = [t(5, 0, 1, 9), t(2, 0, 1, 9), t(9, 0, 2, 9), t(1, 0, 1, 4)];
        let mut table = RelayTable::new();
        for tu in tuples {
            table.insert(tu);
        }
        let keys: Vec<(usize, usize)> = table.iter().map(|t| (t.dest, t.sour)).collect();
        assert_eq!(keys, vec![(4, 1), (9, 2), (9, 5), (9, 9)]);
    }

    #[test]
    fn removing_default_promotes_next_source() {
        let mut table = RelayTable::new();
        table.insert(t(1, 0, 7, 9));
        table.insert(t(4, 2, 8, 9)); // exception while 1 is default
        table.insert(t(6, 3, 8, 9)); // exception while 1 is default
        assert_eq!(table.installed_len(), 3);

        // Remove the default: sour 4 is promoted, and sour 6 (same succ)
        // becomes covered — the installed footprint shrinks to 1.
        assert_eq!(table.remove(9, 1).map(|t| t.succ), Some(7));
        assert_eq!(table.installed_len(), 1);
        assert_eq!(table.len(), 2);
        assert_eq!(table.next_hop(9, 4), Some(8));
        assert_eq!(table.next_hop(9, 6), Some(8));
        // Unknown source falls back to the new default.
        assert_eq!(table.next_hop(9, 1), Some(8));

        assert_eq!(table.remove(9, 4).map(|t| t.sour), Some(4));
        assert_eq!(table.remove(9, 6).map(|t| t.sour), Some(6));
        assert_eq!(table.next_hop(9, 6), None);
        assert!(table.is_empty());
        assert_eq!(table.remove(9, 6), None);
    }

    #[test]
    fn replacing_a_tuple_updates_split() {
        let mut table = RelayTable::new();
        table.insert(t(1, 0, 7, 9));
        table.insert(t(4, 2, 7, 9)); // covered
        assert_eq!(table.installed_len(), 1);
        // Re-route sour 4 through a different successor: becomes an
        // exception, replacing (not duplicating) the logical tuple.
        let prev = table.insert(t(4, 2, 8, 9));
        assert_eq!(prev.map(|t| t.succ), Some(7));
        assert_eq!(table.len(), 2);
        assert_eq!(table.installed_len(), 2);
        assert_eq!(table.next_hop(9, 4), Some(8));
        // Re-route the default itself: every split is recomputed.
        table.insert(t(1, 0, 8, 9));
        assert_eq!(table.installed_len(), 1, "sour 4 is covered again");
    }

    #[test]
    fn clear_and_high_water() {
        let mut table = RelayTable::new();
        table.insert(t(1, 0, 7, 9));
        table.insert(t(2, 0, 8, 9));
        assert_eq!(table.high_water(), 2);
        table.clear();
        assert!(table.is_empty());
        assert_eq!(table.installed_len(), 0);
        assert_eq!(table.high_water(), 2, "high water survives clear");
        assert_eq!(table.next_hop(9, 1), None);
    }

    #[test]
    fn funneled_paths_compress_to_one_entry() {
        // 50 paths to the same destination all leaving through port 3:
        // the hardware footprint is a single wildcard entry.
        let mut table = RelayTable::new();
        for sour in 0..50 {
            table.insert(t(sour, sour, 3, 99));
        }
        assert_eq!(table.len(), 50);
        assert_eq!(table.installed_len(), 1);
        for sour in 0..60 {
            assert_eq!(table.next_hop(99, sour), Some(3));
        }
    }

    #[test]
    fn exhaustive_semantics_against_reference() {
        // Drive both tables through a deterministic install/remove
        // schedule and compare every lookup after every step.
        let mut table = RelayTable::new();
        let mut reference = Reference::default();
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        for step in 0..400 {
            let dest = next() % 6;
            let sour = next() % 6;
            if next() % 4 == 0 {
                assert_eq!(
                    table.remove(dest, sour),
                    reference.0.remove(&(dest, sour)),
                    "step {step}: remove({dest},{sour})"
                );
            } else {
                let tu = t(sour, next() % 6, next() % 6, dest);
                assert_eq!(
                    table.insert(tu),
                    reference.0.insert((dest, sour), tu),
                    "step {step}: insert {tu:?}"
                );
            }
            assert_eq!(table.len(), reference.0.len());
            for d in 0..6 {
                for s in 0..6 {
                    assert_eq!(
                        table.next_hop(d, s),
                        reference.next_hop(d, s),
                        "step {step}: next_hop({d},{s})"
                    );
                    assert_eq!(
                        table.lookup(d, s),
                        reference.0.get(&(d, s)),
                        "step {step}: lookup({d},{s})"
                    );
                }
            }
            let logical: Vec<DtTuple> = table.iter().copied().collect();
            let expect: Vec<DtTuple> = reference.0.values().copied().collect();
            assert_eq!(logical, expect, "step {step}: iteration order");
            assert!(table.installed_len() <= table.len().max(1));
        }
    }
}
