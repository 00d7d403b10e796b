//! Input generation. What varies between runs of a workload — request
//! streams, written versions, churn batches — is a pure function of the
//! seed; key populations, like the networks, are fixed per workload.
//! The program under test sees only these inputs.

use bytes::Bytes;
use gred::TopologyChange;
use gred_hash::DataId;
use gred_net::Topology;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A generator for one independent stream of a run: the run's seed
/// mixed with a stream label, so streams never share a sequence.
pub fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Zipf(s) ranks over `0..n` by inverse-CDF lookup. The benchmark owns
/// its sampler so the workload cannot drift with a simulator crate.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|rank| {
                acc += (rank as f64).powf(-s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// The next rank; 0 is the hottest.
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// The identifier of key `index` of a workload. The key population is
/// part of the workload's definition: under a skewed popularity the
/// place of the hottest keys' owners decides how much forwarding a run
/// does, so it must not move with the seed. The seed picks which keys
/// are asked for, in which order.
pub fn key_id(workload: &str, index: usize) -> DataId {
    DataId::new(format!("{workload}/{index}"))
}

const HEADER: usize = 12;

/// The payload stored under key `key` by `writer` at `version`: a
/// 12-byte header naming all three, then filler derived from them, so a
/// reader can tell whose write it holds and whether it is intact.
pub fn payload(key: u32, writer: u32, version: u32, len: usize) -> Bytes {
    assert!(len > HEADER, "payload must hold its header");
    let mut out = Vec::with_capacity(len);
    out.extend_from_slice(&key.to_be_bytes());
    out.extend_from_slice(&writer.to_be_bytes());
    out.extend_from_slice(&version.to_be_bytes());
    let fill = filler(key, writer, version);
    out.resize(len, fill);
    Bytes::from(out)
}

fn filler(key: u32, writer: u32, version: u32) -> u8 {
    (key ^ writer.rotate_left(8) ^ version.wrapping_mul(31)) as u8
}

/// Checks that `bytes` is a payload of `key` with length `len`;
/// returns the `(writer, version)` it carries.
pub fn check_payload(bytes: &[u8], key: u32, len: usize) -> Option<(u32, u32)> {
    if bytes.len() != len {
        return None;
    }
    let field = |i: usize| u32::from_be_bytes(bytes[i * 4..i * 4 + 4].try_into().expect("4 bytes"));
    let (got_key, writer, version) = (field(0), field(1), field(2));
    let fill = filler(got_key, writer, version);
    (got_key == key && bytes[HEADER] == fill && bytes[len - 1] == fill).then_some((writer, version))
}

/// One churn batch against the current network: a `Join` wired to two
/// seeded members, and the `Leave` of a seeded member whose departure
/// keeps every other member connected — so no batch can fail, and
/// membership stays constant.
pub fn churn_batch(rng: &mut StdRng, topo: &Topology, members: &[usize]) -> Vec<TopologyChange> {
    let pick = |rng: &mut StdRng| members[rng.gen_range(0..members.len())];
    let a = pick(rng);
    let b = loop {
        let b = pick(rng);
        if b != a {
            break b;
        }
    };
    let leaver = loop {
        let candidate = pick(rng);
        if candidate != a && candidate != b && stays_connected(topo, members, candidate) {
            break candidate;
        }
    };
    vec![
        TopologyChange::Join {
            links: vec![a, b],
            capacities: vec![u64::MAX; 4],
        },
        TopologyChange::Leave { switch: leaver },
    ]
}

/// Whether every member but `without` can still reach every other once
/// `without`'s links are gone.
fn stays_connected(topo: &Topology, members: &[usize], without: usize) -> bool {
    let Some(&start) = members.iter().find(|&&m| m != without) else {
        return false;
    };
    let mut seen = vec![false; topo.switch_count()];
    seen[start] = true;
    seen[without] = true;
    let mut frontier = vec![start];
    while let Some(s) = frontier.pop() {
        for n in topo.neighbors(s) {
            if !seen[n] {
                seen[n] = true;
                frontier.push(n);
            }
        }
    }
    members.iter().all(|&m| seen[m])
}

#[cfg(test)]
mod tests {
    use super::*;
    use gred_net::{waxman_topology, WaxmanConfig};

    #[test]
    fn zipf_is_a_pure_function_of_the_seed_and_skewed() {
        let zipf = Zipf::new(4096, 1.1);
        let draw = |seed| {
            let mut r = rng(seed, 1);
            (0..10_000).map(|_| zipf.sample(&mut r)).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        let ranks = draw(7);
        assert!(ranks.iter().all(|&r| r < 4096));
        let hottest = ranks.iter().filter(|&&r| r == 0).count();
        let second = ranks.iter().filter(|&&r| r == 1).count();
        // P(rank 0) ≈ 0.16 and P(rank 1) ≈ P(rank 0) / 2^1.1 for n = 4096.
        assert!((1300..1900).contains(&hottest), "{hottest}");
        assert!(second < hottest && second > hottest / 4, "{second}");
    }

    #[test]
    fn streams_of_one_seed_differ() {
        assert_ne!(rng(5, 1).gen::<u64>(), rng(5, 2).gen::<u64>());
    }

    #[test]
    fn payload_round_trips_and_detects_damage() {
        let p = payload(9, 1, 42, 256);
        assert_eq!(p.len(), 256);
        assert_eq!(check_payload(&p, 9, 256), Some((1, 42)));
        assert_eq!(check_payload(&p, 8, 256), None);
        assert_eq!(check_payload(&p[..255], 9, 256), None);
        let mut torn = p.to_vec();
        torn[255] ^= 1;
        assert_eq!(check_payload(&torn, 9, 256), None);
    }

    #[test]
    fn churn_batches_are_a_pure_function_of_the_seed() {
        let (topo, _) = waxman_topology(&WaxmanConfig::with_switches(60, 3));
        let members: Vec<usize> = (0..60).collect();
        let batch = |seed| churn_batch(&mut rng(seed, 3), &topo, &members);
        assert_eq!(batch(11), batch(11));
        assert!((0..20).any(|s| batch(s) != batch(11)));
        for seed in 0..20 {
            let b = batch(seed);
            let (TopologyChange::Join { links, .. }, TopologyChange::Leave { switch }) =
                (&b[0], &b[1])
            else {
                panic!("a batch is one join then one leave");
            };
            assert_eq!(links.len(), 2);
            assert!(!links.contains(switch));
            assert!(stays_connected(&topo, &members, *switch));
        }
    }

    #[test]
    fn a_cut_vertex_is_never_chosen_to_leave() {
        // 0 - 1 - 2: removing 1 strands 2.
        let topo = Topology::from_links(3, &[(0, 1), (1, 2)]).unwrap();
        assert!(!stays_connected(&topo, &[0, 1, 2], 1));
        assert!(stays_connected(&topo, &[0, 1, 2], 2));
    }
}
