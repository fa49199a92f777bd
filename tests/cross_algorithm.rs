//! Cross-algorithm consistency: independent implementations must agree on
//! the relationships the theory predicts.

use rtise::ise::configs::ConfigCurve;
use rtise::rt::{rms_schedulable, simulate_rms, SimOutcome};
use rtise::select::heuristics;
use rtise::select::rms::{select_rms, SelectRmsError};
use rtise::select::select_edf;
use rtise::select::task::TaskSpec;

fn spec(name: &str, base: u64, period: u64, pts: &[(u64, u64)]) -> TaskSpec {
    TaskSpec::new(ConfigCurve::from_points(name, base, pts), period)
}

fn synthetic_specs(seed: u64, n: usize) -> Vec<TaskSpec> {
    // Deterministic xorshift-based task generator.
    let mut state = seed.max(1);
    let mut next = move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545_f491_4f6c_dd1d)
    };
    (0..n)
        .map(|i| {
            let base = 4 + next() % 24;
            let n_cfg = (next() % 4) as usize;
            let mut area = 0;
            let mut cycles = base;
            let pts: Vec<(u64, u64)> = (0..n_cfg)
                .map(|_| {
                    area += 1 + next() % 12;
                    cycles = cycles.saturating_sub(1 + next() % (base / 2 + 1)).max(1);
                    (area, cycles)
                })
                .collect();
            spec(&format!("t{i}"), base, 8 + next() % 40, &pts)
        })
        .collect()
}

/// RMS is strictly harder than EDF: at equal budgets, the RMS optimum's
/// utilization is never below the EDF optimum's, and any RMS solution is
/// also EDF-schedulable.
#[test]
fn rms_never_beats_edf() {
    for seed in 1..=25u64 {
        let specs = synthetic_specs(seed, 3);
        for budget in [0u64, 8, 20, 100] {
            let edf = select_edf(&specs, budget).expect("edf");
            match select_rms(&specs, budget) {
                Ok(rms) => {
                    assert!(
                        rms.utilization >= edf.utilization - 1e-9,
                        "seed {seed} budget {budget}"
                    );
                    let tasks = rms.assignment.to_tasks(&specs);
                    assert!(rms_schedulable(&tasks));
                    assert_eq!(simulate_rms(&tasks), SimOutcome::AllDeadlinesMet);
                    assert!(rms.assignment.utilization(&specs) <= 1.0 + 1e-9);
                }
                Err(SelectRmsError::Unschedulable) => {
                    // Then EDF at this budget either also fails or sits in
                    // the EDF-only window (RMS stricter).
                }
                Err(e) => panic!("seed {seed}: {e}"),
            }
        }
    }
}

/// No heuristic ever beats the optimal EDF dynamic program.
#[test]
fn heuristics_are_dominated_by_the_dp() {
    for seed in 1..=25u64 {
        let specs = synthetic_specs(seed * 31, 4);
        for budget in [0u64, 10, 25, 60] {
            let opt = select_edf(&specs, budget).expect("edf").utilization;
            for sol in [
                heuristics::equal_area_split(&specs, budget),
                heuristics::smallest_deadline_first(&specs, budget),
                heuristics::highest_reduction_first(&specs, budget),
                heuristics::highest_ratio_first(&specs, budget),
            ] {
                assert!(sol.total_area(&specs) <= budget);
                assert!(
                    sol.utilization(&specs) >= opt - 1e-9,
                    "seed {seed} budget {budget}"
                );
            }
        }
    }
}

/// Chapter 6: the iterative and greedy partitioners never exceed the exact
/// exhaustive optimum and always respect fabric budgets.
#[test]
fn reconfig_algorithms_bounded_by_exhaustive() {
    use rtise::reconfig::partition::synthetic_problem;
    use rtise::reconfig::{exhaustive_partition, greedy_partition, iterative_partition};
    for seed in 1..=10u64 {
        let p = synthetic_problem(6, seed);
        let exact = exhaustive_partition(&p);
        let it = iterative_partition(&p, seed);
        let gr = greedy_partition(&p);
        assert!(it.fits(&p) && gr.fits(&p) && exact.fits(&p));
        assert!(it.net_gain(&p) <= exact.net_gain(&p), "seed {seed}");
        assert!(gr.net_gain(&p) <= exact.net_gain(&p), "seed {seed}");
        // Quality: iterative stays near-optimal (Fig. 6.8).
        assert!(
            it.net_gain(&p) as f64 >= exact.net_gain(&p) as f64 * 0.85,
            "seed {seed}: {} vs {}",
            it.net_gain(&p),
            exact.net_gain(&p)
        );
    }
}

/// Every restricted growth string of length `m`: each set partition of
/// `m` items into numbered cells, exactly once.
fn restricted_growth_strings(m: usize) -> Vec<Vec<usize>> {
    let mut out = vec![Vec::new()];
    for _ in 0..m {
        out = out
            .into_iter()
            .flat_map(|s: Vec<usize>| {
                let fresh = s.iter().max().map_or(0, |&c| c + 1);
                (0..=fresh).map(move |c| {
                    let mut t = s.clone();
                    t.push(c);
                    t
                })
            })
            .collect();
    }
    out
}

/// The best net gain over every version vector and every assignment of
/// the hardware loops to configurations that fits — no spatial DP.
fn brute_force_optimum(p: &rtise::reconfig::ReconfigProblem) -> i64 {
    let n = p.loops.len();
    let rgs: Vec<Vec<Vec<usize>>> = (0..=n).map(restricted_growth_strings).collect();
    let mut best = i64::MIN;
    let mut version = vec![0usize; n];
    loop {
        let hw: Vec<usize> = (0..n).filter(|&i| version[i] > 0).collect();
        for cells in &rgs[hw.len()] {
            let mut config = vec![0usize; n];
            for (&l, &c) in hw.iter().zip(cells) {
                config[l] = c;
            }
            let sol = rtise::reconfig::Solution {
                version: version.clone(),
                config,
            };
            if sol.fits(p) {
                best = best.max(sol.net_gain(p));
            }
        }
        // Next version vector, odometer-style.
        let Some(i) = (0..n).find(|&i| version[i] + 1 < p.loops[i].versions().len()) else {
            return best;
        };
        version[i] += 1;
        version[..i].fill(0);
    }
}

/// Chapter 6: the exhaustive partitioner is a true optimum. On seeded
/// instances small enough to enumerate every version vector × every
/// configuration assignment, its net gain equals the brute-force best,
/// and its solution re-certifies under the full-reload cost model.
#[test]
fn exhaustive_partition_matches_brute_force() {
    use rtise::check::cert;
    use rtise::reconfig::{exhaustive_partition, CisVersion, CostModel, HotLoop};
    let mut cases = 0;
    for (n, max_hw) in [(1usize, 3usize), (2, 3), (3, 3), (4, 3), (5, 3), (6, 2)] {
        for seed in 1..=3u64 {
            for mut p in reconfig_variants(n, seed * 13 + n as u64) {
                for l in &mut p.loops {
                    let hw: Vec<CisVersion> =
                        l.versions()[1..].iter().take(max_hw).copied().collect();
                    *l = HotLoop::new(l.name.clone(), &hw);
                }
                let sol = exhaustive_partition(&p);
                let net = sol.net_gain(&p);
                assert_eq!(net, brute_force_optimum(&p), "n {n} seed {seed}");
                let d = cert::check_reconfig_solution_with_cost(
                    &p,
                    &sol,
                    CostModel::FullReload,
                    Some(net),
                );
                assert!(d.is_clean(), "n {n} seed {seed}: {}", d.render());
                cases += 1;
            }
        }
    }
    assert_eq!(cases, 54);
}

/// The seeded synthetic instances the partitioner golden pin runs on: the
/// generator's own problem, a free-reconfiguration (ρ = 0) variant and a
/// costly-reconfiguration, small-fabric variant.
fn reconfig_variants(n: usize, seed: u64) -> [rtise::reconfig::ReconfigProblem; 3] {
    use rtise::reconfig::partition::synthetic_problem;
    let base = synthetic_problem(n, seed);
    let mut free = base.clone();
    free.reconfig_cost = 0;
    let mut tight = base.clone();
    tight.reconfig_cost = 5_000;
    tight.max_area = 40;
    [base, free, tight]
}

/// FNV-1a over the `version`/`config` vectors of a sequence of solutions.
fn solution_digest(sols: &[rtise::reconfig::Solution]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: usize| {
        for b in (x as u64).to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for s in sols {
        eat(s.version.len());
        s.version.iter().for_each(|&v| eat(v));
        s.config.iter().for_each(|&c| eat(c));
    }
    h
}

/// Golden pin: on a fixed instance set the exact and iterative
/// partitioners return exactly the recorded solutions — version *and*
/// configuration vectors, so ties must resolve the same way too. A
/// speed-up of either solver must leave this digest unchanged.
#[test]
fn partitioner_solutions_match_golden_digest() {
    use rtise::reconfig::{exhaustive_partition, iterative_partition};
    let mut exact = Vec::new();
    for n in 1..=9usize {
        for seed in 1..=3u64 {
            for p in reconfig_variants(n, seed * 7 + n as u64) {
                exact.push(exhaustive_partition(&p));
            }
        }
    }
    let mut iter = Vec::new();
    for n in [1usize, 2, 3, 4, 5, 6, 8, 10, 13, 16, 20, 25, 30, 40] {
        for seed in 1..=2u64 {
            for p in reconfig_variants(n, seed * 11 + n as u64) {
                iter.push(iterative_partition(&p, seed));
            }
        }
    }
    assert_eq!(
        (solution_digest(&exact), solution_digest(&iter)),
        (0xa310_c761_2fbf_3603, 0x9f1a_6c89_8b9c_aec0),
        "partitioner outputs drifted from the golden solutions"
    );
}

/// Chapter 4: the ε-Pareto curve of the *composed* two-stage scheme still
/// covers the exact curve computed in one shot.
#[test]
fn two_stage_eps_scheme_composes() {
    use rtise::select::pareto::{
        eps_pareto, eps_pareto_groups, exact_pareto, exact_pareto_groups, is_eps_cover, Item,
        ParetoPoint,
    };
    let mut state = 0xabcdefu64;
    let mut next = move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545_f491_4f6c_dd1d)
    };
    for _case in 0..10 {
        let eps1 = 0.21;
        let eps2 = 0.44;
        // Two tasks with random CI libraries.
        let mut exact_groups = Vec::new();
        let mut approx_groups = Vec::new();
        for _t in 0..2 {
            let n = 2 + (next() % 6) as usize;
            let items: Vec<Item> = (0..n)
                .map(|_| Item {
                    delta: 1 + next() % 20,
                    area: 1 + next() % 30,
                })
                .collect();
            let base = 100 + next() % 100;
            exact_groups.push(exact_pareto(base, &items));
            approx_groups.push(eps_pareto(base, &items, eps1));
        }
        let exact = exact_pareto_groups(&exact_groups);
        let approx = eps_pareto_groups(&approx_groups, eps2);
        // Composed guarantee: (1+eps1)(1+eps2) - 1.
        let eps_total = (1.0 + eps1) * (1.0 + eps2) - 1.0;
        assert!(
            is_eps_cover(&exact, &approx, eps_total),
            "exact {exact:?} approx {approx:?}"
        );
        let _ = ParetoPoint { cost: 0, value: 0 };
    }
}
