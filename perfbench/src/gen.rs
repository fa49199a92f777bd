//! Seeded, replayable inputs. Every workload draws its inputs from the
//! `--seed` argument alone, so one seed always yields byte-identical
//! request lines, kernel orders and problem sets; the program under test
//! only ever sees these generated inputs.

use rtise::obs::Rng;
use rtise::reconfig::ReconfigProblem;
use std::collections::{HashMap, HashSet};

/// Derives an independent stream seed from a workload seed.
#[must_use]
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Running FNV-1a digest of an input stream.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds `bytes` plus a record separator into the digest.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes.iter().chain(b"\n") {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// The digest as 16 hex digits.
    #[must_use]
    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// The 22 suite kernel names, in suite order. Builds every kernel's IR.
#[must_use]
pub fn kernel_names() -> Vec<&'static str> {
    rtise::kernels::suite().iter().map(|k| k.name).collect()
}

/// Request families of the `query`/`tcp` streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Family {
    Edf,
    Rms,
    Ilp,
    Synthetic,
    Jpeg,
}

/// One round of the stream: the kind mix `rtise_serve::traffic::generate`
/// documents without its curve share (EDF 15%, RMS 10%, ILP 10%,
/// reconfiguration 10% split 70% JPEG / 30% synthetic), shuffled per
/// round, so every run does the same kinds of work in the same
/// proportions.
const ROUND: [(Family, usize); 5] = [
    (Family::Edf, 15),
    (Family::Rms, 10),
    (Family::Ilp, 10),
    (Family::Jpeg, 7),
    (Family::Synthetic, 3),
];

/// Requests per round.
pub const ROUND_LEN: usize = 45;

/// Exact repeats per round (20% of the stream).
const REPEATS_PER_ROUND: usize = 9;

/// Generator of the `query`/`tcp` request stream: distinct fast-level
/// `select_edf`/`select_rms`/`ilp`/`reconfig` requests from a wide
/// parameter grid, with nine of every 45 requests an exact repeat of an
/// earlier request of the same family.
///
/// `rtise_serve::traffic` draws kernels from a Zipf law, so its share of
/// repeats depends on the stream's length; this stream fixes that share,
/// so a run's memo hits do not depend on how many requests it managed.
pub struct QueryGen {
    rng: Rng,
    kernels: Vec<&'static str>,
    next_id: u64,
    pending: Vec<String>,
    issued: HashMap<Family, Vec<String>>,
    seen: HashSet<String>,
}

impl QueryGen {
    /// A stream over `kernels` seeded by `seed`.
    #[must_use]
    pub fn new(seed: u64, kernels: &[&'static str]) -> Self {
        QueryGen {
            rng: Rng::new(mix(seed, 0x0071_7565_7279)),
            kernels: kernels.to_vec(),
            next_id: 1,
            pending: Vec::new(),
            issued: HashMap::new(),
            seen: HashSet::new(),
        }
    }

    /// The next request line (no trailing newline).
    pub fn next_line(&mut self) -> String {
        if self.pending.is_empty() {
            self.fill_round();
        }
        let body = self.pending.pop().expect("round just filled");
        let id = self.next_id;
        self.next_id += 1;
        format!("{{\"id\": {id}, {body}}}")
    }

    fn fill_round(&mut self) {
        let mut slots: Vec<Family> = ROUND
            .iter()
            .flat_map(|&(family, count)| std::iter::repeat_n(family, count))
            .collect();
        self.rng.shuffle(&mut slots);
        let mut repeat = [false; ROUND_LEN];
        for r in repeat.iter_mut().take(REPEATS_PER_ROUND) {
            *r = true;
        }
        self.rng.shuffle(&mut repeat);
        for (family, repeat) in slots.into_iter().zip(repeat) {
            let earlier = self.issued.get(&family).map_or(0, Vec::len);
            let body = if repeat && earlier > 0 {
                let pick = self.rng.gen_range(0..earlier);
                self.issued[&family][pick].clone()
            } else {
                let body = loop {
                    let body = self.fresh(family);
                    if self.seen.insert(body.clone()) {
                        break body;
                    }
                };
                self.issued.entry(family).or_default().push(body.clone());
                body
            };
            self.pending.push(body);
        }
        self.pending.reverse();
    }

    fn pick_kernels(&mut self, k: usize) -> String {
        let mut names = self.kernels.clone();
        self.rng.shuffle(&mut names);
        names
            .iter()
            .take(k)
            .map(|n| format!("\"{n}\""))
            .collect::<Vec<_>>()
            .join(", ")
    }

    fn fresh(&mut self, family: Family) -> String {
        match family {
            Family::Edf => {
                let k = self.rng.gen_range(2..=5usize);
                let kernels = self.pick_kernels(k);
                let u0 = self.rng.gen_range(70..=150u64);
                let budget = self.rng.gen_range(64..=4096u64);
                format!(
                    "\"kind\": \"select_edf\", \"kernels\": [{kernels}], \"u0_pct\": {u0}, \
                     \"budget\": {budget}, \"level\": \"fast\""
                )
            }
            Family::Rms => {
                // At most 70% software utilization keeps every task set
                // under the Liu–Layland bound for up to four tasks, so the
                // all-software assignment is always feasible.
                let k = self.rng.gen_range(2..=4usize);
                let kernels = self.pick_kernels(k);
                let u0 = self.rng.gen_range(40..=70u64);
                let budget = self.rng.gen_range(64..=4096u64);
                format!(
                    "\"kind\": \"select_rms\", \"kernels\": [{kernels}], \"u0_pct\": {u0}, \
                     \"budget\": {budget}, \"level\": \"fast\""
                )
            }
            Family::Ilp => {
                let seed = self.rng.gen_range(0..1u64 << 32);
                format!("\"kind\": \"ilp\", \"seed\": {seed}")
            }
            Family::Synthetic => {
                let n = self.rng.gen_range(6..=10u64);
                let seed = self.rng.gen_range(1..1u64 << 32);
                format!("\"kind\": \"reconfig\", \"problem\": \"synthetic\", \"n\": {n}, \"seed\": {seed}")
            }
            Family::Jpeg => {
                let fabric = self.rng.gen_range(5..=100u64);
                let cost = self.rng.gen_range(100..=5000u64);
                format!(
                    "\"kind\": \"reconfig\", \"problem\": \"jpeg\", \"fabric_pct\": {fabric}, \
                     \"reconfig_cost\": {cost}, \"level\": \"fast\""
                )
            }
        }
    }
}

/// Warm-up requests: every suite kernel's fast curve plus the fast JPEG
/// reconfiguration problem, so timed requests never pay curve harvest.
#[must_use]
pub fn warm_lines(kernels: &[&str]) -> Vec<String> {
    let mut lines: Vec<String> = kernels
        .iter()
        .enumerate()
        .map(|(i, k)| {
            format!(
                "{{\"id\": {}, \"kind\": \"curve\", \"kernel\": \"{k}\", \"level\": \"fast\"}}",
                i + 1
            )
        })
        .collect();
    lines.push(format!(
        "{{\"id\": {}, \"kind\": \"reconfig\", \"problem\": \"jpeg\", \"fabric_pct\": 50, \
         \"reconfig_cost\": 1000, \"level\": \"fast\"}}",
        kernels.len() + 1
    ));
    lines
}

/// Kernels a `harvest` pass visits twice. With 23 ops per pass, sorted
/// by cost, p50 falls in the middle of the 12th-cheapest kernel's
/// samples (the costliest of the twelve kernels that enumerate in under
/// a millisecond, ~1.5 ms a curve, 2.5x below the next kernel) and p90
/// in the middle of jpeg's (~0.32 s), rather than on the border between
/// two kernels' samples.
pub const HARVEST_TWICE: [&str; 1] = ["jpeg"];

/// The `harvest` plan: pass `p` visits every suite kernel once and each
/// [`HARVEST_TWICE`] kernel twice, in a seeded order.
#[must_use]
pub fn harvest_pass(seed: u64, pass: u64, kernels: &[&'static str]) -> Vec<&'static str> {
    let mut order = kernels.to_vec();
    order.extend(kernels.iter().filter(|k| HARVEST_TWICE.contains(k)));
    Rng::new(mix(seed, 0x6861_7276 + pass)).shuffle(&mut order);
    order
}

/// Loop counts of one `partition` round: eight 7-loop, eleven 8-loop and
/// one 9-loop instance, shuffled per round. The mix puts the median
/// inside the 8-loop group and keeps a 9-loop solve in every round.
const PARTITION_ROUND: [(usize, usize); 3] = [(7, 8), (8, 11), (9, 1)];

/// One `partition` instance: loop count and generator seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionCase {
    /// Hot loops.
    pub n: usize,
    /// [`rtise::reconfig::partition::synthetic_problem`] seed.
    pub seed: u64,
}

impl PartitionCase {
    /// The instance itself.
    #[must_use]
    pub fn problem(&self) -> ReconfigProblem {
        rtise::reconfig::partition::synthetic_problem(self.n, self.seed)
    }
}

/// The instances of `partition` round `round`.
#[must_use]
pub fn partition_round(seed: u64, round: u64) -> Vec<PartitionCase> {
    let mut rng = Rng::new(mix(seed, 0x7061_7274 + round));
    let mut ns: Vec<usize> = PARTITION_ROUND
        .iter()
        .flat_map(|&(n, count)| std::iter::repeat_n(n, count))
        .collect();
    rng.shuffle(&mut ns);
    ns.into_iter()
        .map(|n| PartitionCase {
            n,
            seed: rng.gen_range(1..1u64 << 48),
        })
        .collect()
}

/// Digest of a problem set: the canonical store encoding of each
/// instance.
#[must_use]
pub fn problems_digest(cases: &[PartitionCase]) -> Digest {
    use rtise_bench::store::Artifact;
    let mut d = Digest::default();
    for c in cases {
        d.update(c.problem().encode().render().as_bytes());
    }
    d
}
