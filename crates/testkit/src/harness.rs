//! The model-based harness: builds a real network, drives it and the
//! oracle through a schedule, checks invariants after every step, injects
//! faults, and shrinks failing schedules.

use crate::invariants::check_all;
use crate::oracle::Oracle;
use crate::schedule::{generate, Op};
use crate::transport::TransportProbe;
use gred::{GredConfig, GredError, GredNetwork};
use gred_hash::DataId;
use gred_net::{waxman_topology, ServerId, ServerPool, WaxmanConfig};

/// Servers behind each initial switch.
const SERVERS_PER_SWITCH: usize = 2;

/// Capacity of every server — large, so placements never fill them
/// and capacity errors stay out of scope.
const CAPACITY: u64 = 100_000;

/// Leaves/crashes are skipped at or below this many members.
const MIN_MEMBERS: usize = 4;

/// C-regulation iterations for the initial build (kept small: the
/// harness exercises protocol logic, not embedding quality).
const REGULATION_ITERATIONS: usize = 2;

/// Shape of the network a run starts from and the bounds it respects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HarnessConfig {
    /// Initial switch count (Waxman topology, connectivity guaranteed).
    pub switches: usize,
    /// Joins are skipped once the topology reaches this many switches.
    pub max_switches: usize,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        HarnessConfig {
            switches: 10,
            max_switches: 16,
        }
    }
}

/// A fault injected mid-run to prove the checkers catch it. The mutation
/// corrupts the *network* behind the oracle's back, so a correct checker
/// must fail the step it lands on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// Silently delete the first oracle-tracked item from its server
    /// (caught by the retrievability invariant).
    DropItem {
        /// Step after which the fault is injected.
        step: usize,
    },
    /// Remove one DT neighbor entry from a member's forwarding table
    /// (caught by table hygiene, and often by Theorem 1 delivery).
    DropNeighborEntry {
        /// Step after which the fault is injected.
        step: usize,
    },
    /// Clear every relay entry on one switch that has them (caught by the
    /// network's own relay-chain audit).
    BreakRelays {
        /// Step after which the fault is injected.
        step: usize,
    },
}

impl Mutation {
    fn step(&self) -> usize {
        match *self {
            Mutation::DropItem { step }
            | Mutation::DropNeighborEntry { step }
            | Mutation::BreakRelays { step } => step,
        }
    }
}

/// Operation counts from one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Items placed (including replicas).
    pub placed: usize,
    /// Retrievals attempted (present and missing).
    pub retrieved: usize,
    /// Range extensions installed.
    pub extended: usize,
    /// Range extensions retracted.
    pub retracted: usize,
    /// Switches joined.
    pub joined: usize,
    /// Switches removed gracefully.
    pub left: usize,
    /// Switches crashed.
    pub crashed: usize,
    /// Operations skipped by a bound (member floor, switch ceiling) or a
    /// legitimately rejected dynamic (disconnection).
    pub skipped: usize,
}

/// The first failing step of a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Failure {
    /// Zero-based index of the failing step.
    pub step: usize,
    /// The operation executed at that step.
    pub op: Op,
    /// Every invariant violation detected after the step.
    pub violations: Vec<String>,
}

/// Result of a full run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunOutcome {
    /// Seed that generated (and reproduces) the schedule.
    pub seed: u64,
    /// Scheduled length of the run.
    pub ops: usize,
    /// Operation counts.
    pub stats: RunStats,
    /// The first failing step, if any.
    pub failure: Option<Failure>,
    /// Whether an injected [`Mutation`] actually fired (e.g. `DropItem`
    /// with an empty store cannot).
    pub mutation_applied: bool,
}

impl RunOutcome {
    /// The single line that reproduces this run end to end.
    pub fn repro_line(&self) -> String {
        format!(
            "cargo run -p gred-sim --bin repro -- soak --seed {} --ops {}",
            self.seed, self.ops
        )
    }
}

/// Drives one `GredNetwork` + [`Oracle`] pair through schedules.
#[derive(Debug, Clone)]
pub struct Harness {
    config: HarnessConfig,
}

impl Harness {
    /// A harness over the given configuration.
    pub fn new(config: HarnessConfig) -> Harness {
        Harness { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &HarnessConfig {
        &self.config
    }

    /// Generates the schedule for `(seed, len)` and replays it.
    pub fn run_seeded(&self, seed: u64, len: usize, mutation: Option<Mutation>) -> RunOutcome {
        self.replay(seed, &generate(seed, len), mutation)
    }

    /// Replays an explicit schedule (used by shrinking, which must re-run
    /// truncated/shortened op sequences under the same seed).
    pub fn replay(&self, seed: u64, ops: &[Op], mutation: Option<Mutation>) -> RunOutcome {
        self.replay_impl(seed, ops, mutation, None)
    }

    /// Replays a schedule while mirroring every data operation onto
    /// `probe` (e.g. a socket-backed cluster): transport divergence
    /// fails the run exactly like a model divergence. Fault injection is
    /// not combined with probing — a mutation corrupts the network
    /// behind the transport's back, which only measures how stale the
    /// probe's copy is.
    pub fn replay_probed(
        &self,
        seed: u64,
        ops: &[Op],
        probe: &mut dyn TransportProbe,
    ) -> RunOutcome {
        self.replay_impl(seed, ops, None, Some(probe))
    }

    fn replay_impl(
        &self,
        seed: u64,
        ops: &[Op],
        mutation: Option<Mutation>,
        mut probe: Option<&mut dyn TransportProbe>,
    ) -> RunOutcome {
        let cfg = &self.config;
        let (topo, _) = waxman_topology(&WaxmanConfig::with_switches(cfg.switches, seed));
        let pool = ServerPool::uniform(cfg.switches, SERVERS_PER_SWITCH, CAPACITY);
        let gred_cfg = GredConfig {
            auto_extend: false,
            ..GredConfig::with_iterations(REGULATION_ITERATIONS).seeded(seed)
        };
        let mut net =
            GredNetwork::build(topo, pool, gred_cfg).expect("harness network always builds");
        let mut oracle = Oracle::from_network(&net);

        let mut stats = RunStats::default();
        let mut mutation_applied = false;
        for (step, &op) in ops.iter().enumerate() {
            let mut violations = self.exec_op(
                &mut net,
                &mut oracle,
                seed,
                step,
                op,
                &mut stats,
                &mut probe,
            );

            if let Some(m) = mutation {
                // Clamp so a mutation at/after the end still fires on the
                // last step; inject after the op, before the checks, so
                // the failure lands deterministically on this step.
                if step == m.step().min(ops.len().saturating_sub(1)) {
                    mutation_applied = apply_mutation(&mut net, &oracle, m);
                }
            }

            let probe = DataId::new(format!("probe/{seed}/{step}"));
            violations.extend(check_all(&net, &oracle, &probe, step));
            if !violations.is_empty() {
                return RunOutcome {
                    seed,
                    ops: ops.len(),
                    stats,
                    failure: Some(Failure {
                        step,
                        op,
                        violations,
                    }),
                    mutation_applied,
                };
            }
        }
        RunOutcome {
            seed,
            ops: ops.len(),
            stats,
            failure: None,
            mutation_applied,
        }
    }

    /// Greedy drop-one minimization of a failing schedule: the returned
    /// subsequence still fails and removing any single op from it no
    /// longer does.
    pub fn shrink(&self, seed: u64, ops: &[Op], mutation: Option<Mutation>) -> Vec<Op> {
        proptest::shrink::minimize_sequence(ops, |candidate| {
            self.replay(seed, candidate, mutation).failure.is_some()
        })
    }

    /// Executes one op against network and oracle, returning semantic
    /// violations (wrong receipt, unexpected error, model divergence).
    /// When a probe is attached, data operations are mirrored onto it
    /// and state changes trigger a resync.
    #[allow(clippy::too_many_arguments)]
    fn exec_op(
        &self,
        net: &mut GredNetwork,
        oracle: &mut Oracle,
        seed: u64,
        step: usize,
        op: Op,
        stats: &mut RunStats,
        probe: &mut Option<&mut dyn TransportProbe>,
    ) -> Vec<String> {
        let mut v = Vec::new();
        // Set by every op that changes forwarding or storage state.
        let mut resync = false;
        let members = net.members().to_vec();
        let access = members[(seed as usize + step) % members.len()];
        match op {
            Op::Place { key } => {
                let id = DataId::new(format!("key/{}", key % 48));
                let payload = format!("payload/{seed}/{step}");
                match net.place(&id, payload.clone(), access) {
                    Ok(receipt) => {
                        let expected = oracle.placement_target(&id);
                        if receipt.server != expected {
                            v.push(format!(
                                "place {id:?}: landed on {} but oracle expects {expected}",
                                receipt.server
                            ));
                        }
                        if let Some(p) = probe.as_deref_mut() {
                            v.extend(p.place(net, access, &id, payload.as_bytes(), receipt.server));
                        }
                        oracle.place(id, payload);
                        stats.placed += 1;
                    }
                    Err(e) => v.push(format!("place {id:?} from {access} failed: {e}")),
                }
            }
            Op::Retrieve { pick } => {
                stats.retrieved += 1;
                if oracle.item_count() > 0 && pick % 4 != 0 {
                    let nth = pick as usize % oracle.item_count();
                    let (id, item) = oracle.items().nth(nth).expect("nth < count");
                    let (id, expected) = (id.clone(), item.clone());
                    match net.retrieve(&id, access) {
                        Ok(res) => {
                            if res.payload != expected.payload || res.server != expected.loc {
                                v.push(format!(
                                    "retrieve {id:?}: wrong payload or server \
                                     (got {}, oracle has {})",
                                    res.server, expected.loc
                                ));
                            }
                            if let Some(p) = probe.as_deref_mut() {
                                v.extend(p.retrieve(net, access, &id, &expected.payload));
                            }
                        }
                        Err(e) => v.push(format!("retrieve {id:?} from {access} failed: {e}")),
                    }
                } else {
                    let id = DataId::new(format!("missing/{pick}"));
                    match net.retrieve(&id, access) {
                        Err(GredError::NotFound) => {
                            if let Some(p) = probe.as_deref_mut() {
                                v.extend(p.retrieve_missing(net, access, &id));
                            }
                        }
                        Ok(res) => v.push(format!(
                            "retrieve of never-placed {id:?} returned data from {}",
                            res.server
                        )),
                        Err(e) => v.push(format!("retrieve of never-placed {id:?}: {e}")),
                    }
                }
            }
            Op::PlaceReplicated { key, copies } => {
                let id = DataId::new(format!("key/{}", key % 48));
                let payload = format!("payload/{seed}/{step}");
                match net.place_replicated(&id, payload.clone(), copies, access) {
                    Ok(receipts) => {
                        for (serial, receipt) in receipts.iter().enumerate() {
                            let rid = id.replica(serial as u32);
                            let expected = oracle.placement_target(&rid);
                            if receipt.server != expected {
                                v.push(format!(
                                    "replicate {rid:?}: landed on {} but oracle expects {expected}",
                                    receipt.server
                                ));
                            }
                            if let Some(p) = probe.as_deref_mut() {
                                v.extend(p.place(
                                    net,
                                    access,
                                    &rid,
                                    payload.as_bytes(),
                                    receipt.server,
                                ));
                            }
                            oracle.place(rid, payload.clone());
                            stats.placed += 1;
                        }
                    }
                    Err(e) => v.push(format!("replicate {id:?} x{copies}: {e}")),
                }
            }
            Op::ExtendRange { pick } => {
                let servers: Vec<ServerId> = net.pool().iter_ids().collect();
                let original = servers[pick as usize % servers.len()];
                match net.extend_range(original) {
                    Ok(takeover) => {
                        if oracle.extension_of(original).is_some() {
                            v.push(format!(
                                "extend {original}: succeeded but oracle already has an extension"
                            ));
                        }
                        oracle.extend(original, takeover);
                        stats.extended += 1;
                        resync = true;
                    }
                    Err(GredError::AlreadyExtended { .. }) => {
                        if oracle.extension_of(original).is_none() {
                            v.push(format!(
                                "extend {original}: AlreadyExtended but oracle has none"
                            ));
                        }
                    }
                    // Every live switch carries roomy servers, so a
                    // missing candidate means the tables are wrong.
                    Err(e) => v.push(format!("extend {original}: {e}")),
                }
            }
            Op::RetractExtension { pick } => {
                // Mostly an active extension; with none active, or on
                // every fifth pick, any server (usually not extended).
                let active = oracle.extensions();
                let original = if !active.is_empty() && pick % 5 != 0 {
                    active[pick as usize % active.len()].0
                } else {
                    let servers: Vec<ServerId> = net.pool().iter_ids().collect();
                    servers[pick as usize % servers.len()]
                };
                match net.retract_range(original) {
                    Ok(()) => {
                        if oracle.extension_of(original).is_none() {
                            v.push(format!(
                                "retract {original}: succeeded but oracle has no extension"
                            ));
                        }
                        oracle.retract(original);
                        stats.retracted += 1;
                        resync = true;
                    }
                    Err(GredError::UnknownServer { .. }) => {
                        if oracle.extension_of(original).is_some() {
                            v.push(format!(
                                "retract {original}: UnknownServer but oracle has one active"
                            ));
                        }
                    }
                    Err(e) => v.push(format!("retract {original}: {e}")),
                }
            }
            Op::SwitchJoin { pick, servers } => {
                if net.topology().switch_count() >= self.config.max_switches {
                    stats.skipped += 1;
                    return v;
                }
                let a = members[pick as usize % members.len()];
                let b = members[(pick as usize / 7) % members.len()];
                let mut links = vec![a];
                if b != a {
                    links.push(b);
                }
                let capacities = vec![CAPACITY; servers as usize];
                match net.add_switch(&links, capacities) {
                    Ok(s) => {
                        let position = net
                            .position_of_switch(s)
                            .expect("joined switch has a position");
                        oracle.join(s, position, servers as usize);
                        stats.joined += 1;
                        resync = true;
                    }
                    Err(e) => v.push(format!("join linked to {links:?}: {e}")),
                }
            }
            Op::SwitchLeave { pick } => {
                if members.len() <= MIN_MEMBERS {
                    stats.skipped += 1;
                    return v;
                }
                let victim = members[pick as usize % members.len()];
                match net.remove_switch(victim) {
                    Ok(()) => {
                        oracle.leave(victim);
                        stats.left += 1;
                        resync = true;
                    }
                    Err(GredError::Disconnected) => stats.skipped += 1,
                    Err(e) => v.push(format!("remove switch {victim}: {e}")),
                }
            }
            Op::SwitchFail { pick } => {
                if members.len() <= MIN_MEMBERS {
                    stats.skipped += 1;
                    return v;
                }
                let victim = members[pick as usize % members.len()];
                match net.crash_switch(victim) {
                    Ok(()) => {
                        oracle.crash_drain(victim);
                        oracle.leave(victim);
                        stats.crashed += 1;
                        resync = true;
                    }
                    // A refused crash changes nothing, data included.
                    Err(GredError::Disconnected) => stats.skipped += 1,
                    Err(e) => v.push(format!("crash switch {victim}: {e}")),
                }
            }
        }
        if let (true, Some(p)) = (resync, probe.as_deref_mut()) {
            v.extend(p.resync(net));
        }
        v
    }
}

impl Default for Harness {
    fn default() -> Self {
        Harness::new(HarnessConfig::default())
    }
}

/// Applies `m` to the network only — the oracle is left believing the old
/// state, which a sound checker must notice. Returns whether the fault
/// had anything to corrupt.
fn apply_mutation(net: &mut GredNetwork, oracle: &Oracle, m: Mutation) -> bool {
    match m {
        Mutation::DropItem { .. } => {
            let Some((id, item)) = oracle.items().next() else {
                return false;
            };
            let (id, loc) = (id.clone(), item.loc);
            net.expire(loc, &id).is_some()
        }
        Mutation::DropNeighborEntry { .. } => {
            let target = net.members().iter().copied().find_map(|s| {
                net.dataplanes()[s]
                    .neighbor_entries()
                    .next()
                    .map(|e| (s, e.neighbor))
            });
            let Some((switch, neighbor)) = target else {
                return false;
            };
            net.dataplane_debug_mut(switch)
                .remove_neighbor(neighbor)
                .is_some()
        }
        Mutation::BreakRelays { .. } => {
            let target = (0..net.topology().switch_count())
                .find(|&s| net.dataplanes()[s].relay_entries().next().is_some());
            let Some(switch) = target else {
                return false;
            };
            net.dataplane_debug_mut(switch).clear_relays();
            true
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_short_run_passes() {
        let outcome = Harness::default().run_seeded(11, 40, None);
        assert!(outcome.failure.is_none(), "failure: {:?}", outcome.failure);
        assert!(outcome.stats.placed > 0);
        assert!(outcome.stats.retrieved > 0);
    }

    #[test]
    fn replay_is_deterministic() {
        let h = Harness::default();
        let a = h.run_seeded(5, 60, None);
        let b = h.run_seeded(5, 60, None);
        assert_eq!(a, b);
    }

    #[test]
    fn repro_line_names_seed_and_ops() {
        let outcome = Harness::default().run_seeded(99, 10, None);
        let line = outcome.repro_line();
        assert!(line.contains("--seed 99"), "{line}");
        assert!(line.contains("--ops 10"), "{line}");
    }

    #[test]
    fn dropped_item_is_caught_at_the_injection_step() {
        let h = Harness::default();
        let outcome = h.run_seeded(21, 50, Some(Mutation::DropItem { step: 20 }));
        assert!(outcome.mutation_applied);
        let failure = outcome.failure.expect("checker must catch the fault");
        assert_eq!(failure.step, 20);
        assert!(failure.violations.iter().any(|s| s.contains("retriev")));
    }

    #[test]
    fn dropped_neighbor_entry_is_caught() {
        let h = Harness::default();
        let outcome = h.run_seeded(22, 30, Some(Mutation::DropNeighborEntry { step: 8 }));
        assert!(outcome.mutation_applied);
        let failure = outcome.failure.expect("checker must catch the fault");
        assert_eq!(failure.step, 8);
    }
}
