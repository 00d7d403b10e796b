//! Deterministic chaos schedules.
//!
//! A chaos plan is a pure function of its generation parameters: the same
//! `(seed, ops, kills, link_faults)` quadruple always yields the same
//! event list, so a failing chaos run reproduces from the numbers in its
//! failure report alone. Like [`crate::schedule`], events carry abstract
//! `u32` picks rather than concrete node ids — the runner resolves each
//! pick against live membership when the event fires, so one plan stays
//! meaningful across topologies of different sizes.
//!
//! The plan only *describes* faults; executing them (severing sockets,
//! killing node threads, rebooting slots) is the runner's job — see
//! `gred-cluster`'s chaos fabric.

use rand::{rngs::StdRng, Rng, SeedableRng};
use std::time::Duration;

/// Domain-mixing constant so the chaos stream differs from the operation
/// schedule generated from the same user-facing seed.
const CHAOS_DOMAIN: u64 = 0x5EED_C4A0_5FAB_0002;

/// How a directed link currently treats traffic. Each direction of a
/// link has its own mode; the reverse direction is unaffected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkMode {
    /// Transparent forwarding.
    Open,
    /// Connections reset; new dials are accepted and immediately closed,
    /// so the dialer sees a fast EOF instead of a hang.
    Severed,
    /// Bytes are accepted and dropped; nothing comes back. The sender
    /// discovers the fault only through its reply timeout.
    BlackHole,
    /// Chunks are forwarded after sitting in the proxy this long,
    /// without reordering.
    Delay(Duration),
}

/// One fault (or repair) to inject. Node and link endpoints are abstract
/// picks, resolved modulo live membership by the runner at fire time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosAction {
    /// Abruptly kill a node: its listener closes, every peer link to it
    /// dies mid-stream, and its unreplicated data is lost.
    KillNode {
        /// Abstract victim selector.
        pick: u32,
    },
    /// Put one directed link into `mode`; [`LinkMode::Open`] heals it.
    Link {
        /// Abstract source selector.
        from: u32,
        /// Abstract destination selector.
        to: u32,
        /// What the link does to traffic from now on.
        mode: LinkMode,
    },
}

/// A [`ChaosAction`] anchored to the workload step before which it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosEvent {
    /// Fire before the workload issues operation number `at_op`.
    pub at_op: usize,
    /// What to inject.
    pub action: ChaosAction,
}

/// A complete, replayable fault schedule for one chaos run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosPlan {
    /// The seed the plan was generated from (for failure reports).
    pub seed: u64,
    /// Events sorted by [`ChaosEvent::at_op`]; ties keep generation
    /// order.
    pub events: Vec<ChaosEvent>,
}

impl ChaosPlan {
    /// Generates the plan for a run of `ops` workload operations with
    /// `kills` node crashes and `link_faults` transient link faults.
    /// Deterministic: equal inputs give equal output on every platform.
    ///
    /// Kills are spread across the middle of the run — never before a
    /// tenth of the workload has executed (so there is data to lose) and
    /// never in the final tenth (so recovery and the final audit see the
    /// crash). Each link fault picks sever / black-hole / delay and heals
    /// itself after a bounded number of operations.
    pub fn generate(seed: u64, ops: usize, kills: usize, link_faults: usize) -> ChaosPlan {
        let mut rng = StdRng::seed_from_u64(seed ^ CHAOS_DOMAIN);
        let mut events = Vec::new();
        let ops = ops.max(10);

        // One kill per window of the usable middle span, jittered.
        let span = (ops * 8) / 10;
        let window = span / (kills.max(1));
        for k in 0..kills {
            let base = ops / 10 + k * window;
            let jitter = rng.gen_range(0..window.max(1) / 2 + 1);
            events.push(ChaosEvent {
                at_op: base + jitter,
                action: ChaosAction::KillNode {
                    pick: rng.gen_range(0u32..1_000_000),
                },
            });
        }

        for _ in 0..link_faults {
            let at_op = rng.gen_range(ops / 10..(ops * 9) / 10);
            let from = rng.gen_range(0u32..1_000_000);
            let to = rng.gen_range(0u32..1_000_000);
            let mode = match rng.gen_range(0u32..100) {
                0..=39 => LinkMode::Severed,
                40..=69 => LinkMode::BlackHole,
                _ => LinkMode::Delay(Duration::from_millis(u64::from(rng.gen_range(1u16..20)))),
            };
            events.push(ChaosEvent {
                at_op,
                action: ChaosAction::Link { from, to, mode },
            });
            let heal_after = rng.gen_range(ops / 20..ops / 5 + 2);
            events.push(ChaosEvent {
                at_op: (at_op + heal_after).min(ops - 1),
                action: ChaosAction::Link {
                    from,
                    to,
                    mode: LinkMode::Open,
                },
            });
        }

        events.sort_by_key(|e| e.at_op);
        ChaosPlan { seed, events }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_plan() {
        let a = ChaosPlan::generate(42, 500, 2, 6);
        let b = ChaosPlan::generate(42, 500, 2, 6);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = ChaosPlan::generate(1, 500, 2, 6);
        let b = ChaosPlan::generate(2, 500, 2, 6);
        assert_ne!(a, b, "plans should not collide across seeds");
    }

    #[test]
    fn kills_land_in_the_middle_and_events_are_sorted() {
        let plan = ChaosPlan::generate(7, 500, 3, 10);
        let kills: Vec<usize> = plan
            .events
            .iter()
            .filter(|e| matches!(e.action, ChaosAction::KillNode { .. }))
            .map(|e| e.at_op)
            .collect();
        assert_eq!(kills.len(), 3);
        for at in kills {
            assert!((50..450).contains(&at), "kill at {at} outside middle span");
        }
        assert!(plan.events.windows(2).all(|w| w[0].at_op <= w[1].at_op));
        assert!(plan.events.iter().all(|e| e.at_op < 500));
    }

    #[test]
    fn every_link_fault_heals() {
        let plan = ChaosPlan::generate(99, 500, 0, 8);
        let modes = plan.events.iter().filter_map(|e| match e.action {
            ChaosAction::Link { mode, .. } => Some(mode),
            ChaosAction::KillNode { .. } => None,
        });
        let heals = modes.clone().filter(|&m| m == LinkMode::Open).count();
        let faults = modes.count() - heals;
        assert_eq!(faults, 8);
        assert_eq!(heals, 8, "each fault schedules its own repair");
    }
}
