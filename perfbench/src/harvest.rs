//! The `harvest` workload: cold thorough configuration curves for the
//! whole kernel suite, certified as `reproduce --check` certifies them.
//!
//! One op is one kernel's [`rtise::workbench::task_curve`] with
//! [`CurveOptions::thorough`], then `check_curve` on its curve and a
//! comparison with the kernel's reference curve. `task_curve` does not
//! hand out the cuts it harvested, so the reference comes from a
//! separate run of the same stages (`by_name`, `validate`, `harvest`,
//! `ConfigCurve::generate`) whose every cut is certified with
//! `check_candidate_cuts`. It is made once per kernel, before the
//! kernel's first op, and its time is left out of the timed phase. The
//! traced run calls `task_curve_spanned` and turns its stage spans into
//! layer spans.

use crate::gen::{self, Digest};
use crate::host::HostSpeed;
use crate::stats::{self, RunResult};
use crate::trace::Tracer;
use crate::{Args, Setups};
use rtise::check::cert;
use rtise::check::Diagnostics;
use rtise::ir::hw::HwModel;
use rtise::ir::BlockId;
use rtise::ise::candidate::harvest;
use rtise::ise::configs::ConfigCurve;
use rtise::ise::CiCandidate;
use rtise::obs::Collector;
use rtise::workbench::{task_curve, task_curve_spanned, CurveOptions};
use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 31;
/// Set-ups between two passes (a pass takes ~2.6 s).
const SETUPS_PER_PASS: usize = 3;

/// Certifies every harvested cut, batched per basic block.
fn certify_cuts(
    program: &rtise::ir::cfg::Program,
    cands: &[CiCandidate],
    opts: &CurveOptions,
) -> Diagnostics {
    let mut per_block: BTreeMap<usize, Vec<rtise::ir::NodeSet>> = BTreeMap::new();
    for c in cands {
        per_block
            .entry(c.block.0)
            .or_default()
            .push(c.nodes.clone());
    }
    let mut d = Diagnostics::new();
    let e = &opts.harvest.enumerate;
    for (block, cuts) in per_block {
        let dfg = &program.block(BlockId(block)).dfg;
        d.merge(cert::check_candidate_cuts(dfg, &cuts, e.max_in, e.max_out));
    }
    d
}

/// A kernel's certified reference curve.
#[derive(Debug, Clone)]
pub struct Reference {
    /// The curve of the staged harvest whose cuts were certified.
    pub curve: ConfigCurve,
    /// IR operations the validating simulation executed.
    pub instructions: u64,
}

/// Runs the stages of `task_curve` for `name`, certifies every harvested
/// cut (one `check.candidates` span when `tracer` records) and returns
/// the resulting curve.
///
/// # Errors
///
/// An unknown or failing kernel, or an uncertified cut.
pub fn reference(
    tracer: &mut Tracer,
    name: &str,
    opts: &CurveOptions,
    op: u64,
) -> Result<Reference, String> {
    let kernel = rtise::kernels::by_name(name).ok_or_else(|| format!("unknown kernel {name}"))?;
    let run = kernel.validate().map_err(|e| format!("{name}: {e}"))?;
    // `validate` runs the plain simulator, which keeps no counters:
    // count the IR operations its profile executed.
    let instructions = (0..kernel.program.blocks.len())
        .map(|b| run.block_counts[b] * kernel.program.block(BlockId(b)).dfg.ids().count() as u64)
        .sum();
    let cands = harvest(
        &kernel.program,
        &run.block_counts,
        &HwModel::default(),
        opts.harvest,
    );
    let d = tracer.time("check.candidates", op, || {
        certify_cuts(&kernel.program, &cands, opts)
    });
    if !d.is_clean() {
        return Err(format!("{name} cuts uncertified: {d}"));
    }
    let curve = ConfigCurve::generate(
        name,
        &cands,
        run.cycles,
        opts.n_budgets,
        opts.exact_threshold,
    );
    Ok(Reference {
        curve,
        instructions,
    })
}

/// Reference curves, made on first use, and the wall time spent making
/// them.
#[derive(Default)]
pub struct References {
    by_kernel: HashMap<String, Result<Reference, String>>,
    paused_s: f64,
}

impl References {
    /// Makes `name`'s reference unless it exists (see [`reference()`]).
    pub fn prepare(&mut self, tracer: &mut Tracer, name: &str, opts: &CurveOptions, op: u64) {
        if !self.by_kernel.contains_key(name) {
            let t0 = Instant::now();
            let made = reference(tracer, name, opts, op);
            self.paused_s += t0.elapsed().as_secs_f64();
            self.by_kernel.insert(name.to_string(), made);
        }
    }

    /// `name`'s prepared reference.
    ///
    /// # Errors
    ///
    /// The reference was never prepared or failed certification.
    pub fn get(&self, name: &str) -> Result<&Reference, String> {
        match self.by_kernel.get(name) {
            Some(made) => made.as_ref().map_err(Clone::clone),
            None => Err(format!("{name}: no reference curve")),
        }
    }

    /// Wall time spent in [`References::prepare`], seconds.
    #[must_use]
    pub fn paused_s(&self) -> f64 {
        self.paused_s
    }
}

/// `task_curve_spanned` with its stage spans recorded as layer spans
/// under the innermost open span: `sim.validate`, `ise.harvest` and
/// `ise.curve` from the stages, and `kernels.build` for the rest of the
/// call, which is the `by_name` IR build that precedes the first stage.
/// The counters the call records are charged to `ise.harvest`.
fn traced_task_curve(
    tracer: &mut Tracer,
    name: &str,
    opts: &CurveOptions,
    op: u64,
) -> Result<ConfigCurve, String> {
    let mut col = Collector::enabled("task_curve");
    let start = Instant::now();
    let curve = tracer.charge("ise.harvest", |_| task_curve_spanned(name, *opts, &mut col));
    let wall_s = start.elapsed().as_secs_f64();
    let report = col.finish();
    let stages: Vec<(&'static str, f64)> = [
        ("validate", "sim.validate"),
        ("harvest", "ise.harvest"),
        ("curve", "ise.curve"),
    ]
    .into_iter()
    .filter_map(|(stage, layer)| report.find(stage).map(|s| (layer, s.wall_ns as f64 / 1e9)))
    .collect();
    let build_s = (wall_s - stages.iter().map(|(_, s)| s).sum::<f64>()).max(0.0);
    let parent = tracer.current();
    let mut at = start;
    for (layer, dur_s) in std::iter::once(("kernels.build", build_s)).chain(stages) {
        tracer.record(layer, op, at, dur_s, parent);
        at += std::time::Duration::from_secs_f64(dur_s);
    }
    curve.map_err(|e| format!("{name}: {e}"))
}

/// One op: `name`'s curve through `task_curve` (traced stage by stage
/// when `tracer` records), certified with `check_curve` and compared
/// with the kernel's reference in `refs`.
///
/// # Errors
///
/// A failing kernel, a certification finding, or a curve that differs
/// from the reference.
pub fn curve_op(
    tracer: &mut Tracer,
    refs: &References,
    name: &str,
    opts: &CurveOptions,
    op: u64,
) -> Result<ConfigCurve, String> {
    let curve = if tracer.enabled() {
        traced_task_curve(tracer, name, opts, op)?
    } else {
        task_curve(name, *opts).map_err(|e| format!("{name}: {e}"))?
    };
    let d = tracer.time("check.curve", op, || cert::check_curve(&curve));
    if !d.is_clean() {
        return Err(format!("{name} curve uncertified: {d}"));
    }
    let reference = refs.get(name)?;
    if curve != reference.curve {
        return Err(format!(
            "{name}: task_curve differs from the curve of the certified cuts"
        ));
    }
    tracer.add("sim.validate", "sim.instructions", reference.instructions);
    Ok(curve)
}

/// Runs one suite pass, the kernels in `order` (see
/// [`gen::harvest_pass`]), sampling the host's speed between ops when
/// `host` is given; returns per-op latencies (ms).
fn one_pass(
    order: Vec<&'static str>,
    tracer: &mut Tracer,
    refs: &mut References,
    res: &mut RunResult,
    digest: &mut Digest,
    mut host: Option<&mut HostSpeed>,
) -> Vec<f64> {
    let opts = CurveOptions::thorough();
    let mut lat_ms = Vec::new();
    for name in order {
        digest.update(name.as_bytes());
        res.attempted += 1;
        let op = res.attempted;
        refs.prepare(tracer, name, &opts, op);
        let t0 = Instant::now();
        tracer.begin("op", op);
        let out = curve_op(tracer, refs, name, &opts, op);
        tracer.end();
        lat_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        if let Err(e) = out {
            res.fail(e);
        }
        if let Some(h) = host.as_deref_mut() {
            h.tick();
        }
    }
    lat_ms
}

/// The `harvest` workload.
///
/// # Errors
///
/// Refused percentiles.
pub fn run(args: &Args) -> Result<RunResult, String> {
    let (kernels, mut setups) = Setups::first(args, SETUP_REPEATS, || Ok(gen::kernel_names()))?;
    let mut res = RunResult::default();
    let mut refs = References::default();
    let mut digest = Digest::default();
    let start = Instant::now();
    let mut pass = 0;
    if !args.trace {
        let mut lat_ms = Vec::new();
        let mut host = HostSpeed::start();
        let timed_s = |setups: &Setups, refs: &References, host: &HostSpeed| {
            start.elapsed().as_secs_f64() - setups.paused_s() - refs.paused_s() - host.spent_s()
        };
        while timed_s(&setups, &refs, &host) < args.seconds || lat_ms.len() < stats::MIN_OPS {
            lat_ms.extend(one_pass(
                gen::harvest_pass(args.seed, pass, &kernels),
                &mut Tracer::disabled(),
                &mut refs,
                &mut res,
                &mut digest,
                Some(&mut host),
            ));
            pass += 1;
            setups.between(SETUPS_PER_PASS, || Ok(gen::kernel_names()))?;
        }
        host.finish();
        let wall_s = timed_s(&setups, &refs, &host);
        println!(
            "inputs: seed {} kernel-order digest {} ({pass} passes of {} ops)",
            args.seed,
            digest.hex(),
            lat_ms.len() as u64 / pass
        );
        let rss = stats::peak_rss_mb(None).unwrap_or(0.0);
        res.metrics = crate::report::e2e(
            setups.times(),
            lat_ms.len(),
            wall_s,
            &lat_ms,
            rss,
            Some(&host),
        )?;
        crate::report::print_failed(&res);
        return Ok(res);
    }
    // The references are made first, so that their cut certification is
    // traced; then each pass runs untraced (the overhead reference) and
    // then traced.
    let mut tracer = Tracer::new(args.started);
    for name in &kernels {
        refs.prepare(&mut tracer, name, &CurveOptions::thorough(), 0);
    }
    let (mut ref_ms, mut traced_ms, mut ops) = (0.0, 0.0, 0);
    while start.elapsed().as_secs_f64() - refs.paused_s() < args.seconds {
        let mut untraced = Tracer::disabled();
        ref_ms += one_pass(
            gen::harvest_pass(args.seed, pass, &kernels),
            &mut untraced,
            &mut refs,
            &mut res,
            &mut digest,
            None,
        )
        .iter()
        .sum::<f64>();
        let lat = one_pass(
            gen::harvest_pass(args.seed, pass, &kernels),
            &mut tracer,
            &mut refs,
            &mut res,
            &mut digest,
            None,
        );
        traced_ms += lat.iter().sum::<f64>();
        ops += lat.len();
        pass += 1;
    }
    let (generated, calls) = tracer.counter("ise.harvest", "ise.enumerate.generated");
    let (accepted, _) = tracer.counter("ise.harvest", "ise.enumerate.accepted");
    println!("harvest: {calls} harvests, {generated} cuts generated, {accepted} accepted");
    crate::report::finish_traced(
        args,
        &mut res,
        tracer,
        ops as f64 * 1e3 / ref_ms,
        ops as f64 * 1e3 / traced_ms,
        None,
    )?;
    Ok(res)
}
