//! A generic exact-match match-action table.
//!
//! P4 switches hold forwarding state in match-action tables: the packet's
//! header fields are matched against keys and the matching entry's action
//! data is applied. GRED's scalability argument (Fig. 9(d)) is about the
//! *number of entries* these tables need, so the table tracks its
//! occupancy and high-water mark.
//!
//! Entries live in one `Vec` sorted by key: a lookup is a binary search,
//! iteration is in key order, and a table of a few dozen entries costs
//! one allocation rather than a tree of nodes.

/// An exact-match table mapping keys to action data.
///
/// ```
/// use gred_dataplane::MatchActionTable;
/// let mut t: MatchActionTable<u32, &str> = MatchActionTable::new("ipv4_lpm");
/// t.insert(10, "forward:p1");
/// assert_eq!(t.lookup(&10), Some(&"forward:p1"));
/// assert_eq!(t.len(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatchActionTable<K, A> {
    name: &'static str,
    /// Sorted by key, keys unique.
    entries: Vec<(K, A)>,
    high_water: usize,
}

impl<K: Ord, A> MatchActionTable<K, A> {
    /// An empty table labelled `name` (for stats output).
    pub fn new(name: &'static str) -> Self {
        MatchActionTable {
            name,
            entries: Vec::new(),
            high_water: 0,
        }
    }

    /// The table's label.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Installs (or replaces) an entry, returning the previous action data
    /// if the key was already present.
    pub fn insert(&mut self, key: K, action: A) -> Option<A> {
        let prev = match self.find(&key) {
            Ok(at) => Some(std::mem::replace(&mut self.entries[at].1, action)),
            Err(at) => {
                self.entries.insert(at, (key, action));
                None
            }
        };
        self.high_water = self.high_water.max(self.entries.len());
        prev
    }

    /// Removes an entry.
    pub fn remove(&mut self, key: &K) -> Option<A> {
        let at = self.find(key).ok()?;
        let (_, action) = self.entries.remove(at);
        release_slack(&mut self.entries);
        Some(action)
    }

    /// Looks up the action data for `key`.
    pub fn lookup(&self, key: &K) -> Option<&A> {
        let at = self.find(key).ok()?;
        Some(&self.entries[at].1)
    }

    /// Whether `key` has an entry.
    pub fn contains(&self, key: &K) -> bool {
        self.find(key).is_ok()
    }

    /// The slot of `key`, or where it would be inserted.
    fn find(&self, key: &K) -> Result<usize, usize> {
        self.entries.binary_search_by(|(k, _)| k.cmp(key))
    }

    /// Current number of installed entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The most entries the table has ever held.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Iterates over entries in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &A)> {
        self.entries.iter().map(|(k, a)| (k, a))
    }

    /// Removes all entries.
    pub fn clear(&mut self) {
        self.entries.clear();
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

    #[test]
    fn insert_lookup_remove() {
        let mut t = MatchActionTable::new("t");
        assert!(t.is_empty());
        assert_eq!(t.insert(1, "a"), None);
        assert_eq!(t.insert(1, "b"), Some("a"));
        assert_eq!(t.lookup(&1), Some(&"b"));
        assert!(t.contains(&1));
        assert_eq!(t.remove(&1), Some("b"));
        assert_eq!(t.remove(&1), None);
        assert!(t.is_empty());
    }

    #[test]
    fn high_water_tracks_peak() {
        let mut t = MatchActionTable::new("t");
        t.insert(1, ());
        t.insert(2, ());
        t.insert(3, ());
        t.remove(&1);
        t.remove(&2);
        assert_eq!(t.len(), 1);
        assert_eq!(t.high_water(), 3);
    }

    #[test]
    fn iter_is_key_ordered() {
        let mut t = MatchActionTable::new("t");
        t.insert(3, "c");
        t.insert(1, "a");
        t.insert(2, "b");
        let keys: Vec<i32> = t.iter().map(|(&k, _)| k).collect();
        assert_eq!(keys, vec![1, 2, 3]);
    }

    #[test]
    fn clear_resets_entries_not_high_water() {
        let mut t = MatchActionTable::new("t");
        t.insert(1, ());
        t.insert(2, ());
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.high_water(), 2);
        assert_eq!(t.name(), "t");
    }
}
