//! Golden pin of the three branch-and-bound searches (ILP, ISE selection,
//! RMS selection): on fixed seeded instance sets, the returned answer,
//! every published counter (the search statistics), the depth histograms,
//! the certificate event logs and the virtual-clock trace must hash to the
//! recorded digests — serially, and through the decomposed parallel search
//! at a pinned frontier depth on 1 and 4 workers. A refactor or speed-up
//! of the search drivers must leave every digest unchanged.

use rtise_fuzz::gen;
use rtise_ilp::{Model, SolveOpts};
use rtise_ir::cfg::BlockId;
use rtise_ir::nodeset::NodeSet;
use rtise_ise::configs::ConfigCurve;
use rtise_ise::CiCandidate;
use rtise_obs::{CounterScope, Rng};
use rtise_select::TaskSpec;
use rtise_trace::{Clock, TraceScope};

/// The three solve modes each instance runs in.
#[derive(Clone, Copy)]
enum Mode {
    /// Default options with the process-wide thread knob at 0.
    Serial,
    /// The decomposed search at the frontier depth sized for 4 workers,
    /// on this many workers.
    Pinned(usize),
}

impl Mode {
    fn opts(self, max_depth: usize) -> SolveOpts {
        match self {
            Mode::Serial => SolveOpts::default(),
            Mode::Pinned(threads) => SolveOpts {
                threads,
                frontier_depth: Some(rtise_obs::par::frontier_depth(max_depth, 4)),
            },
        }
    }
}

/// Runs `solve` inside fresh counter and virtual trace scopes and renders
/// its output together with everything it published.
fn observed(solve: impl FnOnce() -> String) -> String {
    let counters = CounterScope::new();
    let trace = TraceScope::new(Clock::Virtual);
    let out = {
        let _c = counters.enter();
        let _t = trace.enter();
        solve()
    };
    let hists: Vec<String> = counters
        .hists()
        .iter()
        .map(|(k, h)| format!("{k}={}", h.to_json().render()))
        .collect();
    format!(
        "{out}|{:?}|{hists:?}|{:?}|{}",
        counters.counters(),
        trace.events(),
        trace.dropped()
    )
}

fn digest(parts: &[String]) -> u64 {
    let mut bytes = Vec::new();
    for p in parts {
        bytes.extend_from_slice(p.as_bytes());
        bytes.push(0);
    }
    rtise_obs::fnv1a(&bytes)
}

fn ilp_models() -> Vec<Model> {
    let opts = gen::IlpOptions {
        min_vars: 3,
        max_vars: 14,
        max_rows: 5,
        le_rows_only: false,
    };
    let mut models: Vec<Model> = (0..40u64)
        .map(|seed| gen::ilp_model(&mut Rng::new(0x601d_0000 + seed), &opts))
        .collect();
    // A node-limited model: the abort point is part of the pin.
    let mut limited = gen::ilp_model(&mut Rng::new(0x601d_1111), &opts);
    limited.set_node_limit(9);
    models.push(limited);
    models
}

fn ilp_digest(mode: Mode) -> u64 {
    let parts: Vec<String> = ilp_models()
        .iter()
        .map(|m| {
            observed(|| {
                let (res, _, cert) = m.solve_with(mode.opts(rtise_ilp::PAR_FRONTIER_DEPTH), true);
                format!("{res:?}|{:?}", cert.expect("certificate requested"))
            })
        })
        .collect();
    digest(&parts)
}

/// A synthetic candidate covering `nodes` of `block` in a 64-node DFG.
fn cand(block: usize, nodes: &[usize], area: u64, gain: u64, freq: u64) -> CiCandidate {
    let mut set = NodeSet::with_capacity(64);
    for &n in nodes {
        set.insert(rtise_ir::dfg::NodeId(n));
    }
    CiCandidate {
        block: BlockId(block),
        nodes: set,
        area,
        hw_cycles: 1,
        sw_cycles: 1 + gain,
        exec_count: freq,
    }
}

/// Libraries from 3 to 14 candidates, with zero-area candidates,
/// conflicts and ratio ties in the mix.
fn ise_libraries() -> Vec<(Vec<CiCandidate>, u64)> {
    (0..40u64)
        .map(|seed| {
            let mut rng = Rng::new(0x15e_601d + seed);
            let n = rng.gen_range(3..=14usize);
            let cands: Vec<CiCandidate> = (0..n)
                .map(|i| {
                    let lo = rng.gen_range(0..12usize);
                    let hi = lo + rng.gen_range(1..=4usize);
                    let nodes: Vec<usize> = (lo..hi).collect();
                    cand(
                        i % 3,
                        &nodes,
                        rng.gen_range(0..9u64),
                        rng.gen_range(0..20u64),
                        rng.gen_range(1..4u64),
                    )
                })
                .collect();
            (cands, rng.gen_range(0..30u64))
        })
        .collect()
}

fn ise_digest(mode: Mode) -> u64 {
    let parts: Vec<String> = ise_libraries()
        .iter()
        .map(|(cands, budget)| {
            observed(|| {
                let opts = mode.opts(rtise_ise::select::PAR_FRONTIER_DEPTH);
                let (sel, _, cert) =
                    rtise_ise::select::branch_and_bound_with(cands, *budget, opts, true);
                format!("{sel:?}|{:?}", cert.expect("certificate requested"))
            })
        })
        .collect();
    digest(&parts)
}

/// Task sets of 2 to 8 tasks with slack periods, so most are schedulable
/// and deep enough for the decomposition to engage.
fn rms_task_sets() -> Vec<(Vec<TaskSpec>, u64)> {
    (0..40u64)
        .map(|seed| {
            let mut rng = Rng::new(0x435_601d + seed);
            let n = rng.gen_range(2..=8usize);
            let specs: Vec<TaskSpec> = (0..n)
                .map(|i| {
                    let base = rng.gen_range(2..8u64);
                    let pts: Vec<(u64, u64)> = (0..rng.gen_range(0..4usize))
                        .map(|k| {
                            (
                                rng.gen_range(1..10u64) * (k as u64 + 1),
                                rng.gen_range(1..=base),
                            )
                        })
                        .collect();
                    let curve = ConfigCurve::from_points(format!("t{i}"), base, &pts);
                    TaskSpec::new(curve, rng.gen_range(16..60u64))
                })
                .collect();
            (specs, rng.gen_range(0..30u64))
        })
        .collect()
}

fn rms_digest(mode: Mode) -> u64 {
    let parts: Vec<String> = rms_task_sets()
        .iter()
        .map(|(specs, budget)| {
            observed(|| {
                let opts = mode.opts(rtise_select::rms::PAR_FRONTIER_DEPTH);
                let (res, _, cert) = rtise_select::rms::select_rms_with(specs, *budget, opts, true);
                format!("{res:?}|{:?}", cert.expect("certificate requested"))
            })
        })
        .collect();
    digest(&parts)
}

#[test]
fn bnb_solvers_match_golden_digest() {
    let got = [
        ilp_digest(Mode::Serial),
        ilp_digest(Mode::Pinned(1)),
        ise_digest(Mode::Serial),
        ise_digest(Mode::Pinned(1)),
        rms_digest(Mode::Serial),
        rms_digest(Mode::Pinned(1)),
    ];
    assert_eq!(ilp_digest(Mode::Pinned(4)), got[1], "ILP: 1 vs 4 workers");
    assert_eq!(ise_digest(Mode::Pinned(4)), got[3], "ISE: 1 vs 4 workers");
    assert_eq!(rms_digest(Mode::Pinned(4)), got[5], "RMS: 1 vs 4 workers");
    assert_eq!(
        got,
        [
            3404892736660188915,
            508479530345521972,
            2627195700225010073,
            14028954179980943158,
            4777130141475409789,
            12605534628189063483,
        ],
        "branch-and-bound outputs drifted from the golden digests"
    );
}
