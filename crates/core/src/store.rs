//! The edge servers' stored data and load accounting.

use bytes::Bytes;
use gred_hash::DataId;
use gred_net::ServerId;
use std::collections::HashMap;

/// In-memory contents of every edge server.
///
/// Load (item count) per server is the quantity the paper's `max/avg`
/// metric is computed over.
#[derive(Debug, Clone, Default)]
pub struct DataStore {
    shelves: HashMap<ServerId, HashMap<DataId, Bytes>>,
}

impl DataStore {
    /// An empty store.
    pub fn new() -> Self {
        DataStore::default()
    }

    /// Stores `payload` under `id` at `server`, returning any previous
    /// payload for that id on that server.
    pub fn insert(&mut self, server: ServerId, id: DataId, payload: Bytes) -> Option<Bytes> {
        self.shelves.entry(server).or_default().insert(id, payload)
    }

    /// The payload of `id` at `server`, if present.
    pub fn get(&self, server: ServerId, id: &DataId) -> Option<&Bytes> {
        self.shelves.get(&server)?.get(id)
    }

    /// Removes `id` from `server`.
    pub fn remove(&mut self, server: ServerId, id: &DataId) -> Option<Bytes> {
        let shelf = self.shelves.get_mut(&server)?;
        let out = shelf.remove(id);
        if shelf.is_empty() {
            self.shelves.remove(&server);
        }
        out
    }

    /// Number of items stored at `server`.
    pub fn load(&self, server: ServerId) -> u64 {
        self.shelves.get(&server).map_or(0, |s| s.len() as u64)
    }

    /// Iterates `(server, load)` over servers with at least one item.
    pub fn loads(&self) -> impl Iterator<Item = (ServerId, u64)> + '_ {
        self.shelves
            .iter()
            .map(|(&s, shelf)| (s, shelf.len() as u64))
    }

    /// Total stored items.
    pub fn total_items(&self) -> u64 {
        self.shelves.values().map(|s| s.len() as u64).sum()
    }

    /// Drains every item stored on any server of `switch` (used when an
    /// edge node leaves).
    pub fn drain_switch(&mut self, switch: usize) -> Vec<(DataId, Bytes)> {
        let keys: Vec<ServerId> = self
            .shelves
            .keys()
            .filter(|s| s.switch == switch)
            .copied()
            .collect();
        let mut out = Vec::new();
        for k in keys {
            if let Some(shelf) = self.shelves.remove(&k) {
                out.extend(shelf);
            }
        }
        out
    }

    /// Drains every item on one specific server.
    pub fn drain_server(&mut self, server: ServerId) -> Vec<(DataId, Bytes)> {
        self.shelves
            .remove(&server)
            .map(|shelf| shelf.into_iter().collect())
            .unwrap_or_default()
    }

    /// Every item stored on a server of `switch`, with its server.
    pub fn items_on(&self, switch: usize) -> impl Iterator<Item = (ServerId, &DataId, &Bytes)> {
        self.shelves
            .iter()
            .filter(move |(s, _)| s.switch == switch)
            .flat_map(|(&s, shelf)| shelf.iter().map(move |(id, payload)| (s, id, payload)))
    }

    /// Snapshot of every stored `(server, id)` pair (for migration scans).
    pub fn all_locations(&self) -> Vec<(ServerId, DataId)> {
        self.shelves
            .iter()
            .flat_map(|(&s, shelf)| shelf.keys().cloned().map(move |id| (s, id)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sid(switch: usize, index: usize) -> ServerId {
        ServerId { switch, index }
    }

    #[test]
    fn insert_get_remove_round_trip() {
        let mut st = DataStore::new();
        let id = DataId::new("k");
        assert!(st
            .insert(sid(0, 0), id.clone(), Bytes::from_static(b"v"))
            .is_none());
        assert_eq!(st.get(sid(0, 0), &id).unwrap().as_ref(), b"v");
        assert!(st.get(sid(0, 1), &id).is_none());
        assert_eq!(st.remove(sid(0, 0), &id).unwrap().as_ref(), b"v");
        assert!(st.get(sid(0, 0), &id).is_none());
        assert_eq!(st.total_items(), 0);
    }

    #[test]
    fn insert_replaces_and_returns_previous() {
        let mut st = DataStore::new();
        let id = DataId::new("k");
        st.insert(sid(0, 0), id.clone(), Bytes::from_static(b"a"));
        let prev = st.insert(sid(0, 0), id.clone(), Bytes::from_static(b"b"));
        assert_eq!(prev.unwrap().as_ref(), b"a");
        assert_eq!(st.load(sid(0, 0)), 1);
    }

    #[test]
    fn loads_count_items() {
        let mut st = DataStore::new();
        for i in 0..5 {
            st.insert(sid(1, 0), DataId::new(format!("a{i}")), Bytes::new());
        }
        for i in 0..3 {
            st.insert(sid(2, 1), DataId::new(format!("b{i}")), Bytes::new());
        }
        assert_eq!(st.load(sid(1, 0)), 5);
        assert_eq!(st.load(sid(2, 1)), 3);
        assert_eq!(st.load(sid(9, 9)), 0);
        assert_eq!(st.total_items(), 8);
        let mut loads: Vec<(ServerId, u64)> = st.loads().collect();
        loads.sort();
        assert_eq!(loads, vec![(sid(1, 0), 5), (sid(2, 1), 3)]);
    }

    #[test]
    fn drain_switch_takes_all_its_servers() {
        let mut st = DataStore::new();
        st.insert(sid(1, 0), DataId::new("a"), Bytes::new());
        st.insert(sid(1, 1), DataId::new("b"), Bytes::new());
        st.insert(sid(2, 0), DataId::new("c"), Bytes::new());
        let drained = st.drain_switch(1);
        assert_eq!(drained.len(), 2);
        assert_eq!(st.total_items(), 1);
        assert_eq!(st.load(sid(2, 0)), 1);
    }

    #[test]
    fn drain_server_is_scoped() {
        let mut st = DataStore::new();
        st.insert(sid(1, 0), DataId::new("a"), Bytes::new());
        st.insert(sid(1, 1), DataId::new("b"), Bytes::new());
        assert_eq!(st.drain_server(sid(1, 0)).len(), 1);
        assert_eq!(st.load(sid(1, 1)), 1);
        assert!(st.drain_server(sid(9, 0)).is_empty());
    }

    #[test]
    fn all_locations_snapshot() {
        let mut st = DataStore::new();
        st.insert(sid(0, 0), DataId::new("x"), Bytes::new());
        st.insert(sid(3, 1), DataId::new("y"), Bytes::new());
        let mut locs = st.all_locations();
        locs.sort();
        assert_eq!(locs.len(), 2);
        assert_eq!(locs[0].0, sid(0, 0));
    }
}
