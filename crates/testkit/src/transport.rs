//! Optional transport hook: mirror data operations onto an external
//! transport and report divergence.
//!
//! The harness normally drives a [`GredNetwork`] through direct method
//! calls. A [`TransportProbe`] lets the *same schedule* additionally
//! exercise a real transport — e.g. `gred-cluster`'s socket-backed node
//! runtime — and compare what a remote client observes against what the
//! in-process model just did. Each callback returns violations in the
//! same `Vec<String>` currency as the invariant checkers, so a transport
//! divergence fails a probed run exactly like a model divergence.
//!
//! The hook stays a trait (dependency-free) because the testkit cannot
//! depend on any concrete transport: `gred-cluster` depends on the
//! testkit to implement this trait, not the other way around.

use gred::GredNetwork;
use gred_hash::DataId;
use gred_net::ServerId;

/// Mirrors harness data operations onto an external transport.
///
/// Callbacks fire *after* the in-process network applied the operation
/// successfully, so implementations can trust `net` to reflect the
/// post-op state. Dynamics (joins, leaves, crashes) and extension
/// changes arrive as [`resync`](TransportProbe::resync): forwarding
/// state changed and the transport must cut over to it.
pub trait TransportProbe {
    /// `id` was placed via `access` and landed on `expected`; replay the
    /// placement over the transport and compare.
    fn place(
        &mut self,
        net: &GredNetwork,
        access: usize,
        id: &DataId,
        payload: &[u8],
        expected: ServerId,
    ) -> Vec<String>;

    /// `id` was retrieved via `access` and returned `expected_payload`;
    /// replay the retrieval over the transport and compare.
    fn retrieve(
        &mut self,
        net: &GredNetwork,
        access: usize,
        id: &DataId,
        expected_payload: &[u8],
    ) -> Vec<String>;

    /// A retrieval of never-placed `id` via `access` correctly reported
    /// "not found"; the transport must agree.
    fn retrieve_missing(&mut self, net: &GredNetwork, access: usize, id: &DataId) -> Vec<String>;

    /// Forwarding or storage state changed (dynamics, extension
    /// installed/retracted, crash drain): cut the transport over to
    /// `net`'s tables and re-home what it stores, then report every item
    /// `net` stores that the transport does not hold on the same server.
    fn resync(&mut self, net: &GredNetwork) -> Vec<String>;
}
