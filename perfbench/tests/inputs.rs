//! The benchmark's inputs replay exactly from their seed, and the staged
//! harvest whose cuts the `harvest` workload certifies reproduces
//! `task_curve` exactly.

use rtise::workbench::{task_curve, CurveOptions};
use rtise_perfbench::gen::{self, Digest, QueryGen};
use rtise_perfbench::harvest::{curve_op, reference, References};
use rtise_perfbench::trace::Tracer;
use std::time::Instant;

fn stream(seed: u64, n: usize) -> Vec<String> {
    let mut g = QueryGen::new(seed, &gen::kernel_names());
    (0..n).map(|_| g.next_line()).collect()
}

#[test]
fn same_seed_gives_byte_identical_request_streams() {
    let a = stream(11, 500);
    assert_eq!(a, stream(11, 500));
    assert_ne!(a, stream(12, 500));
}

#[test]
fn request_streams_parse_and_repeat_a_fifth() {
    let rounds = 22;
    let lines = stream(3, rounds * gen::ROUND_LEN);
    let mut keys = std::collections::HashSet::new();
    for line in &lines {
        let req = rtise_serve::parse(line).expect(line);
        keys.insert(rtise_serve::dedup_key(&req.kind));
    }
    // Nine of every 45 requests repeat an earlier one (in the first
    // round a repeat slot falls back to a fresh request while its family
    // has none yet).
    let repeats = lines.len() - keys.len();
    assert!(
        (9 * rounds - 9..=9 * rounds).contains(&repeats),
        "{repeats} repeats"
    );
}

#[test]
fn same_seed_gives_identical_plans_and_problem_sets() {
    let kernels = gen::kernel_names();
    assert_eq!(kernels.len(), 22);
    for pass in 0..3 {
        let order = gen::harvest_pass(5, pass, &kernels);
        assert_eq!(order, gen::harvest_pass(5, pass, &kernels));
        assert_eq!(order.len(), 23);
        assert_eq!(order.iter().filter(|&&k| k == "jpeg").count(), 2);
    }
    let round = |seed| gen::partition_round(seed, 0);
    assert_eq!(round(9), round(9));
    assert_ne!(round(9), round(10));
    assert_eq!(
        gen::problems_digest(&round(9)).hex(),
        gen::problems_digest(&round(9)).hex()
    );
    let ns: Vec<usize> = round(9).iter().map(|c| c.n).collect();
    assert_eq!(ns.iter().filter(|&&n| n == 9).count(), 1);
    assert!(ns.iter().all(|n| (7..=9).contains(n)));
}

#[test]
fn digest_separates_records() {
    let mut a = Digest::default();
    a.update(b"ab");
    a.update(b"c");
    let mut b = Digest::default();
    b.update(b"a");
    b.update(b"bc");
    assert_ne!(a.hex(), b.hex());
}

fn staged_matches(name: &str, opts: CurveOptions) {
    let mut tracer = Tracer::disabled();
    let staged = reference(&mut tracer, name, &opts, 1).expect(name);
    assert_eq!(staged.curve, task_curve(name, opts).expect(name), "{name}");
}

#[test]
fn staged_harvest_reproduces_task_curve_for_every_kernel() {
    for name in gen::kernel_names() {
        staged_matches(name, CurveOptions::fast());
    }
}

#[test]
fn staged_harvest_reproduces_thorough_task_curve() {
    // Thorough harvest of the whole suite is slow in a debug build; these
    // kernels cover both curve paths (exact B&B for ndes, greedy for fir).
    for name in ["ndes", "fir", "crc32"] {
        staged_matches(name, CurveOptions::thorough());
    }
}

#[test]
fn traced_op_records_every_stage_of_task_curve() {
    let (name, opts) = ("crc32", CurveOptions::fast());
    let mut tracer = Tracer::new(Instant::now());
    let mut refs = References::default();
    refs.prepare(&mut tracer, name, &opts, 1);
    tracer.begin("op", 1);
    let curve = curve_op(&mut tracer, &refs, name, &opts, 1).expect(name);
    tracer.end();
    assert_eq!(curve, task_curve(name, opts).expect(name));
    let layers = tracer.layers();
    for span in [
        "kernels.build",
        "sim.validate",
        "ise.harvest",
        "ise.curve",
        "check.curve",
        "check.candidates",
    ] {
        assert_eq!(layers.get(span).map(|l| l.calls), Some(1), "{span}");
    }
    let (generated, _) = tracer.counter("ise.harvest", "ise.enumerate.generated");
    assert!(generated > 0);
    let coverage = tracer.coverage_pct("op");
    assert!((99.0..=100.0 + 1e-9).contains(&coverage), "{coverage}");
}

#[test]
fn percentile_guard_refuses_thin_tails() {
    let samples: Vec<f64> = (1..=99).map(f64::from).collect();
    assert!(rtise_perfbench::stats::percentile(&samples, 0.9).is_err());
    let samples: Vec<f64> = (1..=100).map(f64::from).collect();
    let (p90, beyond) = rtise_perfbench::stats::percentile(&samples, 0.9).unwrap();
    assert_eq!((p90, beyond), (90.0, 10));
}

#[test]
fn derived_instruction_count_matches_the_simulator_counter() {
    let name = "crc32";
    let derived = reference(&mut Tracer::disabled(), name, &CurveOptions::fast(), 1)
        .expect(name)
        .instructions;
    let kernel = rtise::kernels::by_name(name).expect(name);
    let (_, stats) = rtise::sim::Simulator::new(&kernel.program)
        .expect("simulator")
        .run_with_stats(
            &kernel.init_vars,
            &kernel.init_mem,
            &rtise::sim::CiMap::new(),
        )
        .expect("run");
    assert_eq!(derived, stats.instructions);
}
