//! The census: a few traced ops of every other workload, run at the end
//! of a traced run so that the run reports every layer of the ledger,
//! including the layers its own workload bypasses. A layer the workload
//! calls is always reported from the workload's own ops; the census only
//! fills in the rest, and every census output is certified like any other.

use crate::gen::{self, PartitionCase};
use crate::stats::RunResult;
use crate::trace::Tracer;
use crate::{harvest, partition, serve_wl, Args};
use rtise::workbench::CurveOptions;

/// Kernel of the `harvest` census: a thorough harvest of a few
/// milliseconds.
const HARVEST_KERNEL: &str = "crc32";

/// The census recording.
pub struct Census {
    /// Spans and counters of the census ops.
    pub tracer: Tracer,
    /// Iterative net gain over the optimum on the `partition` census
    /// instance, percent (0 when the census skipped `partition`).
    pub iter_opt_pct: f64,
}

/// Runs the census of every workload but `args.workload`, counting its
/// ops and failures into `res`.
///
/// # Errors
///
/// Set-up failures.
pub fn run(args: &Args, res: &mut RunResult) -> Result<Census, String> {
    let mut tracer = Tracer::new(args.started);
    let mut iter_opt_pct = 0.0;
    let skip = |w: &str| args.workload == w;
    // Op ids of the census sit far above any workload op's.
    let op = 1 << 56;
    if !skip("query") {
        serve_wl::census_query(&mut tracer, args.seed, op, res);
    }
    if !skip("tcp") {
        serve_wl::census_tcp(args, &mut tracer, op + 100, res)?;
    }
    if !skip("harvest") {
        res.attempted += 1;
        let opts = CurveOptions::thorough();
        let mut refs = harvest::References::default();
        refs.prepare(&mut tracer, HARVEST_KERNEL, &opts, op + 200);
        if let Err(e) = harvest::curve_op(&mut tracer, &refs, HARVEST_KERNEL, &opts, op + 200) {
            res.fail(e);
        }
    }
    if !skip("partition") {
        let case: PartitionCase = gen::partition_round(args.seed, 0)
            .into_iter()
            .min_by_key(|c| c.n)
            .expect("a round has instances");
        res.attempted += 1;
        match partition::partition_op(&mut tracer, &case.problem(), case, op + 300) {
            Ok(pct) => iter_opt_pct = pct,
            Err(e) => res.fail(e),
        }
    }
    Ok(Census {
        tracer,
        iter_opt_pct,
    })
}
