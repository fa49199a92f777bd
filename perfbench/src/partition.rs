//! The `partition` workload: the `tab6_1`/`fig6_8` op. Each seeded
//! synthetic instance (7–9 hot loops) is solved by the exhaustive,
//! greedy and iterative partitioners; all three solutions are certified
//! and neither heuristic may beat the exhaustive optimum.

use crate::gen::{self, PartitionCase};
use crate::host::HostSpeed;
use crate::stats::{self, RunResult};
use crate::trace::Tracer;
use crate::{Args, Setups};
use rtise::check::cert::check_reconfig_solution_with_cost;
use rtise::reconfig::{
    exhaustive_partition, greedy_partition, iterative_partition, CostModel, ReconfigProblem,
};
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 15;
/// Set-ups between two rounds (a round takes ~3 s).
const SETUPS_PER_ROUND: usize = 2;
/// Rounds generated up front (a 20-instance round takes ~3 s).
const PLANNED_ROUNDS: u64 = 32;

/// Solves and certifies one instance; returns the iterative net gain as
/// a percentage of the optimum.
///
/// # Errors
///
/// A certification finding, or a heuristic beating the optimum.
pub fn partition_op(
    tracer: &mut Tracer,
    p: &ReconfigProblem,
    case: PartitionCase,
    op: u64,
) -> Result<f64, String> {
    let ex = tracer.time("reconfig.exhaustive", op, || exhaustive_partition(p));
    let gr = tracer.time("reconfig.greedy", op, || greedy_partition(p));
    let it = tracer.time("reconfig.iterative", op, || {
        iterative_partition(p, case.seed)
    });
    let mut gains = [0i64; 3];
    for (slot, (label, sol)) in [("exhaustive", &ex), ("greedy", &gr), ("iterative", &it)]
        .into_iter()
        .enumerate()
    {
        gains[slot] = sol.net_gain(p);
        let d = tracer.time("check.reconfig", op, || {
            check_reconfig_solution_with_cost(p, sol, CostModel::FullReload, Some(gains[slot]))
        });
        if !d.is_clean() {
            return Err(format!("{case:?} {label} uncertified: {d}"));
        }
    }
    let [opt, greedy, iter] = gains;
    if greedy > opt || iter > opt {
        return Err(format!(
            "{case:?}: heuristic beats the optimum {opt} (greedy {greedy}, iterative {iter})"
        ));
    }
    Ok(if opt > 0 {
        100.0 * iter as f64 / opt as f64
    } else {
        100.0
    })
}

/// The instances of the planned rounds, generated up front.
fn plan(seed: u64) -> Vec<Vec<(PartitionCase, ReconfigProblem)>> {
    (0..PLANNED_ROUNDS)
        .map(|r| {
            gen::partition_round(seed, r)
                .into_iter()
                .map(|c| (c, c.problem()))
                .collect()
        })
        .collect()
}

/// Latencies (ms) and iterative/optimum percentages of a set of ops.
#[derive(Default)]
struct Tally {
    lat_ms: Vec<f64>,
    pct: Vec<f64>,
}

/// Runs round `round` (planned or generated now), adding to `tally`
/// and sampling the host's speed between ops when `host` is given.
fn one_round(
    args: &Args,
    planned: &[Vec<(PartitionCase, ReconfigProblem)>],
    tracer: &mut Tracer,
    round: u64,
    res: &mut RunResult,
    tally: &mut Tally,
    mut host: Option<&mut HostSpeed>,
) {
    let extra;
    let cases = match planned.get(round as usize) {
        Some(cases) => cases,
        None => {
            extra = gen::partition_round(args.seed, round)
                .into_iter()
                .map(|c| (c, c.problem()))
                .collect::<Vec<_>>();
            &extra
        }
    };
    for (case, p) in cases {
        res.attempted += 1;
        let op = res.attempted;
        let t0 = Instant::now();
        tracer.begin("op", op);
        let out = partition_op(tracer, p, *case, op);
        tracer.end();
        tally.lat_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        match out {
            Ok(v) => tally.pct.push(v),
            Err(e) => res.fail(e),
        }
        if let Some(h) = host.as_deref_mut() {
            h.tick();
        }
    }
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// The `partition` workload.
///
/// # Errors
///
/// Refused percentiles.
pub fn run(args: &Args) -> Result<RunResult, String> {
    let setup = || {
        let planned = plan(args.seed);
        let cases: Vec<PartitionCase> = planned.iter().flatten().map(|(c, _)| *c).collect();
        Ok((planned, gen::problems_digest(&cases)))
    };
    let ((planned, digest), mut setups) = Setups::first(args, SETUP_REPEATS, setup)?;
    println!(
        "inputs: seed {} problem-set digest {} ({} planned instances at 7-9 loops)",
        args.seed,
        digest.hex(),
        planned.iter().map(Vec::len).sum::<usize>()
    );
    let mut res = RunResult::default();
    let start = Instant::now();
    let mut round = 0;
    if !args.trace {
        let mut t = Tally::default();
        let mut host = HostSpeed::start();
        let timed_s = |setups: &Setups, host: &HostSpeed| {
            start.elapsed().as_secs_f64() - setups.paused_s() - host.spent_s()
        };
        while timed_s(&setups, &host) < args.seconds || t.lat_ms.len() < stats::MIN_OPS {
            one_round(
                args,
                &planned,
                &mut Tracer::disabled(),
                round,
                &mut res,
                &mut t,
                Some(&mut host),
            );
            round += 1;
            setups.between(SETUPS_PER_ROUND, setup)?;
        }
        host.finish();
        let wall_s = timed_s(&setups, &host);
        let rss = stats::peak_rss_mb(None).unwrap_or(0.0);
        res.metrics = crate::report::e2e(
            setups.times(),
            t.lat_ms.len(),
            wall_s,
            &t.lat_ms,
            rss,
            Some(&host),
        )?;
        println!(
            "iter_opt_pct    {:.4} %  (mean over {} instances, {round} rounds)",
            mean(&t.pct),
            t.pct.len()
        );
        crate::report::print_failed(&res);
        return Ok(res);
    }
    // Each round runs untraced (the overhead reference) and then traced.
    let mut tracer = Tracer::new(args.started);
    let (mut reference, mut traced) = (Tally::default(), Tally::default());
    while start.elapsed().as_secs_f64() < args.seconds {
        let mut untraced = Tracer::disabled();
        one_round(
            args,
            &planned,
            &mut untraced,
            round,
            &mut res,
            &mut reference,
            None,
        );
        one_round(
            args,
            &planned,
            &mut tracer,
            round,
            &mut res,
            &mut traced,
            None,
        );
        round += 1;
    }
    let ops_per_s = |t: &Tally| t.lat_ms.len() as f64 * 1e3 / t.lat_ms.iter().sum::<f64>();
    crate::report::finish_traced(
        args,
        &mut res,
        tracer,
        ops_per_s(&reference),
        ops_per_s(&traced),
        Some(mean(&traced.pct)),
    )?;
    Ok(res)
}
