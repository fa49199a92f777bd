//! Metric assembly and the human-readable report lines.

use crate::host::HostSpeed;
use crate::stats::{self, metric, Metric, RunResult};
use crate::trace::Tracer;
use crate::Args;
use rtise::obs::json::Value;

/// End-to-end metrics of a timed phase: median set-up time, throughput
/// and peak memory. With `host`, the two timings are scaled to the
/// reference host speed (see [`crate::host`]); the measured figures are
/// printed next to them. The guarded latency percentiles are printed but
/// left out of the result line: a percentile of per-op wall times jumps
/// with the host's speed from run to run, and no host correction applies
/// to a single op.
///
/// # Errors
///
/// A percentile the sample count cannot support.
pub fn e2e(
    setups_s: &[f64],
    ops: usize,
    wall_s: f64,
    lat_ms: &[f64],
    rss_mb: f64,
    host: Option<&HostSpeed>,
) -> Result<Vec<Metric>, String> {
    let (p50, beyond50) = stats::percentile(lat_ms, 0.5)?;
    let (p90, beyond90) = stats::percentile(lat_ms, 0.9)?;
    let setup = stats::median(setups_s);
    let ops_per_s = ops as f64 / wall_s;
    let n = lat_ms.len();
    let slowdown = host.map_or(1.0, HostSpeed::slowdown);
    match host {
        Some(h) => println!(
            "host            {slowdown:.4}x the reference sample time ({} samples, {:.3} s)",
            h.samples(),
            h.spent_s()
        ),
        None => println!("host            timings not scaled (the op waits on the wire)"),
    }
    println!(
        "setup_s         {:.6} s   (measured {setup:.6} s, median of {} set-ups)",
        setup / slowdown,
        setups_s.len()
    );
    println!(
        "ops_per_s       {:.4} 1/s (measured {ops_per_s:.4}: ops {ops} in {wall_s:.3} s)",
        ops_per_s * slowdown
    );
    println!("latency_p50_ms  {p50:.4} ms  (measured, n={n}, {beyond50} beyond)");
    println!("latency_p90_ms  {p90:.4} ms  (measured, n={n}, {beyond90} beyond)");
    println!("peak_rss_mb     {rss_mb:.2} MiB");
    Ok(vec![
        metric("setup_s", setup / slowdown, "s"),
        metric("ops_per_s", ops_per_s * slowdown, "1/s"),
        metric("peak_rss_mb", rss_mb, "MiB"),
    ])
}

/// Prints `failed_frac` and the first failures.
pub fn print_failed(res: &RunResult) {
    println!(
        "failed_frac     {:.6}     ({} of {} ops)",
        res.failed as f64 / res.attempted.max(1) as f64,
        res.failed,
        res.attempted
    );
    for f in &res.failures {
        println!("    FAILED: {f}");
    }
}

/// Per-layer time metrics: metric name, span name, microseconds per unit.
const TIMES: [(&str, &str, f64); 20] = [
    ("serve.parse_us", "serve.parse", 1.0),
    ("obs.render_us", "obs.render", 1.0),
    ("serve.execute_ms", "serve.execute", 1e3),
    ("bench.curve_memo_us", "bench.curve_memo", 1.0),
    ("select.edf_ms", "select.edf", 1e3),
    ("select.rms_ms", "select.rms", 1e3),
    ("ilp.solve_us", "ilp.solve", 1.0),
    ("reconfig.iterative_ms", "reconfig.iterative", 1e3),
    ("reconfig.exhaustive_ms", "reconfig.exhaustive", 1e3),
    ("reconfig.greedy_us", "reconfig.greedy", 1.0),
    ("serve.ttfb_ms", "serve.ttfb", 1e3),
    ("serve.wire_ms", "serve.wire", 1e3),
    ("kernels.build_ms", "kernels.build", 1e3),
    ("sim.validate_ms", "sim.validate", 1e3),
    ("ise.harvest_ms", "ise.harvest", 1e3),
    ("ise.curve_ms", "ise.curve", 1e3),
    ("check.response_us", "check.response", 1.0),
    ("check.curve_us", "check.curve", 1.0),
    ("check.candidates_ms", "check.candidates", 1e3),
    ("check.reconfig_us", "check.reconfig", 1.0),
];

/// Per-layer counters: metric (= counter) name and the span it is read
/// around. Reported as the mean count per call.
const COUNTS: [(&str, &str); 6] = [
    ("select.edf.dp_cells", "select.edf"),
    ("select.rms.nodes", "select.rms"),
    ("ilp.nodes_explored", "ilp.solve"),
    ("sim.instructions", "sim.validate"),
    ("ise.enumerate.generated", "ise.harvest"),
    ("ise.enumerate.accepted", "ise.harvest"),
];

/// Builds the per-layer metrics of a traced run, prints the self-time
/// table, coverage and tracing overhead, and writes the recording out.
/// A layer the workload never called is reported from the census (see
/// [`crate::census`]), as is `reconfig.iter_opt_pct` when
/// `iter_opt_pct` is `None`.
///
/// # Errors
///
/// Census set-up failures, or the trace file cannot be written.
pub fn finish_traced(
    args: &Args,
    res: &mut RunResult,
    tracer: Tracer,
    untraced_ops_per_s: f64,
    traced_ops_per_s: f64,
    iter_opt_pct: Option<f64>,
) -> Result<(), String> {
    let layers = tracer.layers();
    println!("layer                      calls      mean_us      total_ms       self_ms");
    for (name, l) in &layers {
        println!(
            "{name:<24} {:>7} {:>12.2} {:>13.3} {:>13.3}",
            l.calls,
            l.total_us / l.calls as f64,
            l.total_us / 1e3,
            l.self_us / 1e3
        );
    }
    let census = crate::census::run(args, res)?;
    let mut from_census = Vec::new();
    let mut source = |span: &'static str| {
        if layers.contains_key(span) {
            &tracer
        } else {
            if !from_census.contains(&span) {
                from_census.push(span);
            }
            &census.tracer
        }
    };
    let mut m: Vec<Metric> = TIMES
        .iter()
        .map(|&(name, span, per_unit)| {
            let unit = if per_unit == 1.0 { "us" } else { "ms" };
            metric(name, source(span).mean_us(span) / per_unit, unit)
        })
        .collect();
    let mut mean_count = |name: &str, span: &'static str| {
        let (total, calls) = source(span).counter(span, name);
        if calls == 0 {
            0.0
        } else {
            total as f64 / calls as f64
        }
    };
    for &(name, span) in &COUNTS {
        m.push(metric(name, mean_count(name, span), "count"));
    }
    let generated = mean_count("ise.enumerate.generated", "ise.harvest");
    let accepted = mean_count("ise.enumerate.accepted", "ise.harvest");
    m.push(metric(
        "ise.accept_ratio",
        if generated > 0.0 {
            accepted / generated
        } else {
            0.0
        },
        "ratio",
    ));
    m.push(metric(
        "reconfig.iter_opt_pct",
        iter_opt_pct.unwrap_or(census.iter_opt_pct),
        "%",
    ));
    println!(
        "census: layers {} bypasses, timed on a few ops of the other workloads: {}",
        args.workload,
        from_census.join(", ")
    );
    let coverage = tracer.coverage_pct("op");
    let overhead = 100.0 * (untraced_ops_per_s - traced_ops_per_s) / untraced_ops_per_s;
    m.push(metric("trace.coverage_pct", coverage, "%"));
    m.push(metric("trace.ops_per_s", traced_ops_per_s, "1/s"));
    m.push(metric("trace.overhead_pct", overhead, "%"));
    println!(
        "coverage: {coverage:.2}% of op wall time under layer spans ({})",
        args.workload
    );
    println!(
        "tracing overhead: {overhead:.2}% (traced {traced_ops_per_s:.3} ops/s vs untraced \
         {untraced_ops_per_s:.3} ops/s, same op path)"
    );
    for x in &m {
        println!("{:<26} {:>14.4} {}", x.name, x.value, x.unit);
    }
    print_failed(res);
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", args.out_dir.display()))?;
    let path = args
        .out_dir
        .join(format!("trace-{}-seed{}.json", args.workload, args.seed));
    let doc = Value::obj(vec![
        ("run", tracer.to_json()),
        ("census", census.tracer.to_json()),
    ]);
    std::fs::write(&path, doc.render())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("trace: wrote {}", path.display());
    res.metrics = m;
    Ok(())
}
