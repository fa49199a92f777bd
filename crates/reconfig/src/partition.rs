//! Joint temporal/spatial partitioning algorithms (§6.3, §6.4).
//!
//! * [`iterative_partition`] — Algorithm 6: for every configuration count
//!   `k`, run the three phases (global spatial DP over `k·MaxA`, temporal
//!   k-way partitioning with and without the tentatively selected CIS
//!   versions, local spatial DP per configuration) and keep the best net
//!   gain.
//! * [`exhaustive_partition`] — enumerate every set partition of the loops
//!   (Bell-number many) with an optimal local spatial DP per cell; exact
//!   but infeasible beyond ~12 loops, exactly as the paper reports.
//! * [`greedy_partition`] — Algorithm 8: grow one configuration at a time,
//!   committing the most profitable (gain − added reconfiguration cost)
//!   version that still fits.

use crate::model::{HotLoop, ReconfigProblem, Solution};
use crate::spatial::spatial_select;
use rtise_graphpart::{partition as kway, Graph};

/// Algorithm 6. Returns the best solution found across configuration
/// counts `1..=loops.len()`.
///
/// Running time follows the configuration count of the best solution, not
/// the loop count: the `k` sweep stops 10 counts after the last
/// improvement (or once every loop holds its best version), and each `k`
/// costs six k-way partitionings. On `tab6_1`'s 80-loop instance the best
/// solution uses ~55 configurations, so the sweep runs to `k` = 69 (~0.7 s);
/// on its 100-loop instance the best uses 2 and the sweep stops at `k` = 12
/// (~0.07 s). The `n·k ≤ 256` polish gate plays no part in that: at 80
/// loops it admits only `k` ≤ 3.
pub fn iterative_partition(problem: &ReconfigProblem, seed: u64) -> Solution {
    let n = problem.loops.len();
    let mut best = Solution::software(n);
    let mut best_net = best.net_gain(problem);
    let max_gain: u64 = problem.loops.iter().map(|l| l.best().gain).sum();
    let mut stagnant = 0usize;

    let refs: Vec<&HotLoop> = problem.loops.iter().collect();
    let all_hw: Vec<usize> = problem
        .loops
        .iter()
        .map(|l| if l.versions().len() > 1 { 1 } else { 0 })
        .collect();

    for k in 1..=n.max(1) {
        // Phase 1: global spatial partitioning over a virtual k·MaxA
        // fabric.
        let budget = problem.max_area.saturating_mul(k as u64);
        let (global_versions, global_gain, _) = spatial_select(&refs, budget);

        // Phase 2: temporal partitioning of the selected loops (vertex
        // weight = selected version area) and the CIS-agnostic variant
        // (unit weights); a few seeds each since the k-way partitioner is
        // randomized.
        let mut assignments = Vec::new();
        for round in 0..3u64 {
            let s = seed.wrapping_add(round.wrapping_mul(0x9e37_79b9_7f4a_7c15));
            assignments.push(temporal(problem, &global_versions, k, s));
            assignments.push(temporal_unit(problem, &all_hw, k, s ^ 0x5bd1_e995));
        }

        // Phase 3: local spatial DP per configuration plus a refinement
        // polish; keep the best. The polish is quadratic-ish in n·k and
        // only pays off on small instances, so it is gated — large inputs
        // rely on the multilevel partitioner's own refinement.
        let mut improved_this_k = false;
        for assignment in assignments {
            let mut sol = local_spatial(problem, &assignment, k);
            if n * k <= 256 {
                polish(problem, &mut sol, k);
            }
            let net = sol.net_gain(problem);
            if net > best_net {
                best_net = net;
                best = sol;
                improved_this_k = true;
            }
        }
        if improved_this_k {
            stagnant = 0;
        } else {
            stagnant += 1;
            // Net gain as a function of k is near-unimodal (more
            // configurations buy gain until reconfiguration cost wins); a
            // long stagnation means the peak has passed.
            if stagnant >= 10 {
                break;
            }
        }

        // Termination: every loop already has its best version (§6.3.1).
        if global_gain == max_gain
            && best
                .version
                .iter()
                .zip(&problem.loops)
                .all(|(&v, l)| l.versions()[v].gain == l.best().gain)
        {
            break;
        }
    }
    best
}

/// K-way temporal partitioning of the loops selected by phase 1, with the
/// selected version areas as vertex weights and RCG transition counts as
/// edge weights.
fn temporal(
    problem: &ReconfigProblem,
    versions: &[usize],
    k: usize,
    seed: u64,
) -> Vec<Option<usize>> {
    let in_hw: Vec<bool> = versions.iter().map(|&v| v > 0).collect();
    let weights: Vec<u64> = (0..problem.loops.len())
        .map(|i| problem.loops[i].versions()[versions[i]].area.max(1))
        .collect();
    temporal_with_weights(problem, &in_hw, &weights, k, seed)
}

/// K-way temporal partitioning over all hardware-capable loops with unit
/// vertex weights (phase 2 variant that ignores CIS selection, §6.3.3).
fn temporal_unit(
    problem: &ReconfigProblem,
    versions: &[usize],
    k: usize,
    seed: u64,
) -> Vec<Option<usize>> {
    let in_hw: Vec<bool> = versions.iter().map(|&v| v > 0).collect();
    let weights = vec![1u64; problem.loops.len()];
    temporal_with_weights(problem, &in_hw, &weights, k, seed)
}

fn temporal_with_weights(
    problem: &ReconfigProblem,
    in_hw: &[bool],
    weights: &[u64],
    k: usize,
    seed: u64,
) -> Vec<Option<usize>> {
    let hw_loops: Vec<usize> = (0..problem.loops.len()).filter(|&i| in_hw[i]).collect();
    if hw_loops.is_empty() {
        return vec![None; problem.loops.len()];
    }
    let rcg = problem.rcg(in_hw);
    let vweights: Vec<u64> = hw_loops.iter().map(|&i| weights[i]).collect();
    let mut g = Graph::new(vweights);
    for (a_pos, &a) in hw_loops.iter().enumerate() {
        for (b_pos, &b) in hw_loops.iter().enumerate().skip(a_pos + 1) {
            if rcg[a][b] > 0 {
                g.add_edge(a_pos, b_pos, rcg[a][b]);
            }
        }
    }
    let part = kway(&g, k.min(hw_loops.len()), seed);
    let mut out = vec![None; problem.loops.len()];
    for (pos, &l) in hw_loops.iter().enumerate() {
        out[l] = Some(part.assignment[pos]);
    }
    out
}

/// Refinement polish after phase 3: hill-climb single-loop moves — switch a
/// loop's version (including to software) or move it to another
/// configuration — accepting any net-gain improvement, to a bounded
/// fixpoint. This plays the role of the uncoarsening refinement the paper
/// applies at each level.
///
/// `sol` must fit. Per-configuration areas are tracked incrementally, so a
/// move fits iff its target configuration, with the loop's current version
/// taken out, still has room for the new one. One trace walk per loop
/// ([`Placement`]) prices every move of that loop, so each candidate costs
/// O(1) and no candidate solution is built.
fn polish(problem: &ReconfigProblem, sol: &mut Solution, k: usize) {
    debug_assert!(sol.fits(problem));
    let n = problem.loops.len();
    let area_of = |sol: &Solution, i: usize| problem.loops[i].versions()[sol.version[i]].area;
    let mut area = vec![0u64; k.max(sol.config.iter().max().map_or(0, |&c| c + 1))];
    for i in 0..n {
        area[sol.config[i]] += area_of(sol, i);
    }
    let mut placement = Placement {
        in_software: 0,
        touching: 0,
        fixed: 0,
        neighbours: vec![0; area.len()],
    };
    for _pass in 0..4 {
        let mut improved = false;
        for i in 0..n {
            let base = sol.net_gain(problem);
            let (v0, c0) = (sol.version[i], sol.config[i]);
            let a0 = area_of(sol, i);
            let versions = problem.loops[i].versions();
            let raw_rest = sol.raw_gain(problem) - versions[v0].gain;
            placement.load(problem, sol, i);
            let mut best: Option<(i64, usize, usize)> = None;
            for (cfg, &cfg_area) in area.iter().enumerate().take(k) {
                let used = cfg_area - if cfg == c0 { a0 } else { 0 };
                let room = problem.max_area.saturating_sub(used);
                for (j, v) in versions.iter().enumerate() {
                    if v.area > room {
                        break; // versions ascend in area
                    }
                    if j == v0 && cfg == c0 {
                        continue;
                    }
                    let reconfigs = placement.reconfigurations(j, cfg);
                    let net =
                        (raw_rest + v.gain) as i64 - (reconfigs * problem.reconfig_cost) as i64;
                    let delta = net - base;
                    if delta > 0 && best.is_none_or(|(b, _, _)| delta > b) {
                        best = Some((delta, j, cfg));
                    }
                }
            }
            if let Some((_, j, cfg)) = best {
                area[c0] -= a0;
                sol.version[i] = j;
                sol.config[i] = cfg;
                area[cfg] += area_of(sol, i);
                improved = true;
            }
        }
        if !improved {
            break;
        }
    }
}

/// A solution's reconfiguration count as a function of where one loop `i`
/// goes, every other loop staying put. Walking the trace with software
/// loops dropped, a reconfiguration is an adjacent pair of loops in
/// different configurations; the pairs not touching `i` are `fixed`, and
/// each pair touching `i` counts unless `i` shares its neighbour's
/// configuration.
struct Placement {
    /// The count with `i` in software (dropped from the trace).
    in_software: u64,
    /// Adjacent pairs of `i` with another hardware loop.
    touching: u64,
    /// Reconfigurations between pairs of hardware loops other than `i`.
    fixed: u64,
    /// How many of the `touching` pairs have their other end in each
    /// configuration.
    neighbours: Vec<u64>,
}

impl Placement {
    fn load(&mut self, problem: &ReconfigProblem, sol: &Solution, i: usize) {
        self.in_software = 0;
        self.touching = 0;
        self.fixed = 0;
        self.neighbours.fill(0);
        let mut prev: Option<usize> = None; // `i` in hardware
        let mut prev_sw: Option<usize> = None; // `i` in software
        for &l in &problem.trace {
            if l != i {
                if sol.version[l] == 0 {
                    continue;
                }
                if prev_sw.is_some_and(|p| sol.config[p] != sol.config[l]) {
                    self.in_software += 1;
                }
                prev_sw = Some(l);
            }
            match prev {
                Some(p) if p == l => {}
                Some(p) if p == i || l == i => {
                    self.touching += 1;
                    self.neighbours[sol.config[if p == i { l } else { p }]] += 1;
                }
                Some(p) if sol.config[p] != sol.config[l] => self.fixed += 1,
                _ => {}
            }
            prev = Some(l);
        }
    }

    /// The count with `i` at version `version` in configuration `cfg`.
    fn reconfigurations(&self, version: usize, cfg: usize) -> u64 {
        if version == 0 {
            self.in_software
        } else {
            self.fixed + self.touching - self.neighbours[cfg]
        }
    }
}

/// Phase 3: per configuration, re-select versions optimally under the real
/// `MaxA` budget.
fn local_spatial(problem: &ReconfigProblem, assignment: &[Option<usize>], k: usize) -> Solution {
    let n = problem.loops.len();
    let mut version = vec![0usize; n];
    let mut config = vec![0usize; n];
    for cfg in 0..k {
        let members: Vec<usize> = (0..n).filter(|&i| assignment[i] == Some(cfg)).collect();
        if members.is_empty() {
            continue;
        }
        let refs: Vec<&HotLoop> = members.iter().map(|&i| &problem.loops[i]).collect();
        let (vs, _, _) = spatial_select(&refs, problem.max_area);
        for (pos, &i) in members.iter().enumerate() {
            version[i] = vs[pos];
            config[i] = cfg;
        }
    }
    Solution { version, config }
}

/// Exact exhaustive search: enumerate every software subset and every set
/// partition of the remaining loops into configurations (restricted growth
/// strings), with the optimal all-hardware spatial DP per cell. Once the
/// software set and configuration structure are fixed, the reconfiguration
/// count is fixed, so maximizing raw gain per cell is net-gain-optimal —
/// this makes the search a true optimum, at Bell(n+1) total work.
///
/// A cell's DP answer depends only on its member set, so it is solved once
/// per member bitmask (`CellMemo`, at most 2^n cells) and a partition's
/// raw gain is the sum of its cells' memoized gains. Its reconfiguration
/// count is likewise a sum over cells (`Transitions`), so no partition
/// walks the trace. Net gain never exceeds raw gain, so partitions whose
/// raw gain cannot beat the incumbent are not costed further. Partitions
/// are visited in restricted-growth-string order and the incumbent only
/// moves on a strict improvement, so ties resolve to the first optimum in
/// that order.
///
/// # Panics
///
/// Panics if there are more than 12 loops — beyond that the Bell number
/// makes the search intractable, exactly as the paper reports for its
/// exhaustive baseline (Fig. 6.8).
pub fn exhaustive_partition(problem: &ReconfigProblem) -> Solution {
    let n = problem.loops.len();
    assert!(n <= 12, "exhaustive search is intractable for {n} loops");
    let mut best = Solution::software(n);
    let mut best_net = best.net_gain(problem);
    if n == 0 {
        return best;
    }
    let memo = CellMemo::new(problem);
    let mut transitions = Transitions::new(n);
    let mut hw: Vec<usize> = Vec::with_capacity(n);
    // The restricted growth string over `hw`, and `top[i]` = the largest
    // cell id among its first `i` entries (so `top[m] + 1` cells in all).
    let mut rgs: Vec<usize> = Vec::with_capacity(n);
    let mut top: Vec<usize> = Vec::with_capacity(n + 1);
    // Member bitmask per cell id, reused across partitions.
    let mut cells = vec![0usize; n];
    for sw_mask in 0usize..(1 << n) {
        let hw_mask = !sw_mask & ((1 << n) - 1);
        if hw_mask == 0 {
            continue; // all-software already seeded
        }
        hw.clear();
        hw.extend((0..n).filter(|&i| hw_mask >> i & 1 == 1));
        transitions.load(&problem.trace, hw_mask);
        // Enumerate set partitions of `hw` via restricted growth strings.
        let m = hw.len();
        rgs.clear();
        rgs.resize(m, 0);
        top.clear();
        top.resize(m + 1, 0);
        'partitions: loop {
            let k = top[m] + 1;
            cells[..k].fill(0);
            for (&l, &cell) in hw.iter().zip(&rgs) {
                cells[cell] |= 1 << l;
            }
            let raw: Option<u64> = cells[..k].iter().map(|&c| memo.gain[c]).sum();
            if let Some(raw) = raw.filter(|&raw| raw as i64 > best_net) {
                let reconfigs = transitions.crossing(&cells[..k]);
                let net = raw as i64 - (reconfigs * problem.reconfig_cost) as i64;
                if net > best_net {
                    best_net = net;
                    best = memo.solution(&cells[..k]);
                }
            }
            // Next restricted growth string.
            let mut i = m;
            loop {
                if i == 1 {
                    break 'partitions;
                }
                i -= 1;
                if rgs[i] <= top[i] {
                    rgs[i] += 1;
                    rgs[i + 1..].fill(0);
                    let t = top[i].max(rgs[i]);
                    top[i + 1..].fill(t);
                    break;
                }
                rgs[i] = 0;
            }
        }
    }
    best
}

/// Reconfiguration counting for one software set, in closed form. With
/// software loops dropped from the trace, a reconfiguration is an adjacent
/// pair of distinct loops in different cells (a repeated loop never
/// switches), so a partition's count is the `total` number of distinct
/// adjacent pairs minus those inside a cell — and the pairs inside each
/// member set are tabulated once per software set.
struct Transitions {
    n: usize,
    /// Adjacent-pair counts between distinct hardware loops, `n × n`.
    adj: Vec<u64>,
    total: u64,
    /// Adjacent pairs with both ends in member set `s`, for every `s`
    /// inside the current hardware set.
    within: Vec<u64>,
}

impl Transitions {
    fn new(n: usize) -> Self {
        Transitions {
            n,
            adj: vec![0; n * n],
            total: 0,
            within: vec![0; 1 << n],
        }
    }

    /// Tabulates the trace with every loop outside `hw_mask` in software.
    fn load(&mut self, trace: &[usize], hw_mask: usize) {
        let n = self.n;
        self.adj.fill(0);
        self.total = 0;
        let mut prev: Option<usize> = None;
        for &l in trace.iter().filter(|&&l| hw_mask >> l & 1 == 1) {
            if let Some(p) = prev.filter(|&p| p != l) {
                self.adj[p * n + l] += 1;
                self.adj[l * n + p] += 1;
                self.total += 1;
            }
            prev = Some(l);
        }
        // Submasks of `hw_mask` in increasing order, so `s` minus its
        // lowest loop is always filled before `s`.
        let mut s = 0usize;
        loop {
            s = (s | !hw_mask).wrapping_add(1) & hw_mask;
            if s == 0 {
                break;
            }
            let low = s.trailing_zeros() as usize;
            let rest = s & (s - 1);
            let mut w = self.within[rest];
            let mut r = rest;
            while r != 0 {
                w += self.adj[low * n + r.trailing_zeros() as usize];
                r &= r - 1;
            }
            self.within[s] = w;
        }
    }

    /// Reconfigurations of the partition into `cells` (member bitmasks
    /// covering the loaded hardware set).
    fn crossing(&self, cells: &[usize]) -> u64 {
        self.total - cells.iter().map(|&c| self.within[c]).sum::<u64>()
    }
}

/// [`crate::spatial::spatial_select_hw`]'s answer for every configuration
/// cell, indexed by the bitmask of its member loops: the cell's raw gain
/// (`None` when its loops cannot all fit in hardware) and, row-major with
/// `n` entries per mask, each member's selected version.
struct CellMemo {
    n: usize,
    gain: Vec<Option<u64>>,
    version: Vec<usize>,
}

impl CellMemo {
    fn new(problem: &ReconfigProblem) -> Self {
        let n = problem.loops.len();
        let mut gain = vec![Some(0); 1 << n];
        let mut version = vec![0usize; n << n];
        let mut refs: Vec<&HotLoop> = Vec::with_capacity(n);
        for (mask, g) in gain.iter_mut().enumerate().skip(1) {
            let members = (0..n).filter(|&i| mask >> i & 1 == 1);
            refs.clear();
            refs.extend(members.clone().map(|i| &problem.loops[i]));
            *g = crate::spatial::spatial_select_hw(&refs, problem.max_area).map(|(vs, gain, _)| {
                for (i, v) in members.zip(vs) {
                    version[mask * n + i] = v;
                }
                gain
            });
        }
        CellMemo { n, gain, version }
    }

    /// The solution placing each cell's members (by bitmask) in the
    /// configuration numbered by the cell's position.
    fn solution(&self, cells: &[usize]) -> Solution {
        let mut sol = Solution::software(self.n);
        for (cell, &mask) in cells.iter().enumerate() {
            for i in (0..self.n).filter(|&i| mask >> i & 1 == 1) {
                sol.version[i] = self.version[mask * self.n + i];
                sol.config[i] = cell;
            }
        }
        sol
    }
}

/// Algorithm 8: greedy construction, one configuration at a time.
pub fn greedy_partition(problem: &ReconfigProblem) -> Solution {
    let n = problem.loops.len();
    let mut sol = Solution::software(n);
    let mut current_cfg = 0usize;
    let mut current_area = 0u64;
    let mut remaining: Vec<bool> = vec![true; n];

    loop {
        // Most profitable (loop, version) for the current configuration.
        let mut best: Option<(i64, usize, usize)> = None;
        let base_net = sol.net_gain(problem);
        #[allow(clippy::needless_range_loop)] // i indexes three parallel arrays
        for i in 0..n {
            if !remaining[i] {
                continue;
            }
            for (j, v) in problem.loops[i].versions().iter().enumerate().skip(1) {
                if current_area + v.area > problem.max_area {
                    continue;
                }
                let mut cand = sol.clone();
                cand.version[i] = j;
                cand.config[i] = current_cfg;
                let delta = cand.net_gain(problem) - base_net;
                if delta > 0 && best.as_ref().is_none_or(|(b, _, _)| delta > *b) {
                    best = Some((delta, i, j));
                }
            }
        }
        match best {
            Some((_, i, j)) => {
                sol.version[i] = j;
                sol.config[i] = current_cfg;
                current_area += problem.loops[i].versions()[j].area;
                remaining[i] = false;
            }
            None => {
                if current_area > 0 {
                    // Close this configuration and try a fresh one.
                    current_cfg += 1;
                    current_area = 0;
                } else {
                    return sol;
                }
            }
        }
        if remaining.iter().all(|r| !r) {
            return sol;
        }
    }
}

/// Generates a synthetic instance with `n` hot loops for the scalability
/// experiments (Table 6.1 / Fig. 6.8): 1–10 versions per loop, gains
/// 1 000–10 000, areas 1–100, a random trace, unit fabric of 100 area and
/// tunable reconfiguration cost.
pub fn synthetic_problem(n: usize, seed: u64) -> ReconfigProblem {
    use crate::model::CisVersion;
    // xorshift64* keeps this dependency-free and deterministic.
    let mut state = seed.max(1);
    let mut next = move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545_f491_4f6c_dd1d)
    };
    let loops: Vec<HotLoop> = (0..n)
        .map(|i| {
            let n_v = 1 + (next() % 10) as usize;
            let mut area = 0u64;
            let mut gain = 0u64;
            let vs: Vec<CisVersion> = (0..n_v)
                .map(|_| {
                    area += 1 + next() % 20;
                    gain += 1_000 + next() % 3_000;
                    CisVersion {
                        area: area.min(100),
                        gain,
                    }
                })
                .collect();
            HotLoop::new(format!("loop{i}"), &vs)
        })
        .collect();
    let trace: Vec<usize> = (0..(n * 12))
        .map(|_| (next() % n as u64) as usize)
        .collect();
    ReconfigProblem {
        loops,
        trace,
        max_area: 100,
        reconfig_cost: 800,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::fig_6_4_problem;

    #[test]
    fn iterative_finds_the_fig_6_4_optimum() {
        let p = fig_6_4_problem();
        let sol = iterative_partition(&p, 42);
        assert!(sol.fits(&p));
        assert_eq!(sol.net_gain(&p), 1173, "solution (C) is optimal");
    }

    #[test]
    fn exhaustive_confirms_the_fig_6_4_optimum() {
        let p = fig_6_4_problem();
        let sol = exhaustive_partition(&p);
        assert!(sol.fits(&p));
        assert_eq!(sol.net_gain(&p), 1173);
    }

    #[test]
    fn greedy_is_feasible_and_at_most_optimal() {
        let p = fig_6_4_problem();
        let sol = greedy_partition(&p);
        assert!(sol.fits(&p));
        assert!(sol.net_gain(&p) <= 1173);
        assert!(sol.net_gain(&p) >= 883, "greedy beats no-reconfiguration");
    }

    #[test]
    fn iterative_matches_exhaustive_on_small_synthetic_instances() {
        for seed in 0..8u64 {
            let p = synthetic_problem(5, seed + 1);
            let exact = exhaustive_partition(&p).net_gain(&p);
            let iter = iterative_partition(&p, seed).net_gain(&p);
            let greedy = greedy_partition(&p).net_gain(&p);
            assert!(iter <= exact, "seed {seed}");
            assert!(greedy <= exact, "seed {seed}");
            // The iterative algorithm should stay close to the optimum
            // (Fig. 6.8 reports near-exhaustive quality).
            assert!(
                iter as f64 >= exact as f64 * 0.9,
                "seed {seed}: iterative {iter} vs exact {exact}"
            );
        }
    }

    #[test]
    fn all_algorithms_respect_area_budgets() {
        for seed in 0..5u64 {
            let p = synthetic_problem(10, seed * 3 + 1);
            for sol in [iterative_partition(&p, seed), greedy_partition(&p)] {
                assert!(sol.fits(&p), "seed {seed}");
            }
        }
    }

    #[test]
    fn high_reconfig_cost_collapses_to_one_configuration() {
        let mut p = fig_6_4_problem();
        p.reconfig_cost = 1_000_000;
        let sol = iterative_partition(&p, 1);
        assert_eq!(sol.reconfigurations(&p), 0);
        assert_eq!(sol.net_gain(&p), 883, "single-configuration optimum");
    }

    #[test]
    fn zero_reconfig_cost_uses_best_versions_everywhere() {
        let mut p = fig_6_4_problem();
        p.reconfig_cost = 0;
        let sol = iterative_partition(&p, 1);
        assert_eq!(sol.net_gain(&p), 1668, "free reconfiguration");
    }

    #[test]
    fn empty_problem_is_handled() {
        let p = ReconfigProblem {
            loops: vec![],
            trace: vec![],
            max_area: 100,
            reconfig_cost: 10,
        };
        let sol = iterative_partition(&p, 0);
        assert_eq!(sol.net_gain(&p), 0);
        let sol = exhaustive_partition(&p);
        assert_eq!(sol.net_gain(&p), 0);
    }
}
