//! The deterministic branch-and-bound driver shared by the ILP, ISE
//! selection and RMS selection searches.
//!
//! A solver describes one search through the [`Search`] trait — its
//! frontier state, incumbent rule, statistics, certificate events and a
//! depth-first walk that can start at the root or at a captured frontier
//! node — and [`solve`] runs it under a [`SolveOpts`]:
//!
//! * `threads == 0`, or an instance the decomposition does not apply to
//!   ([`Search::par_applicable`]), runs the plain serial walk;
//! * otherwise the search decomposes. Phase 1 walks the tree serially but
//!   truncated at the frontier depth: internal nodes record stats,
//!   certificate and trace events as usual, while nodes *reaching* the
//!   frontier are captured ([`Frontier::capture`], uncounted and
//!   eventless) together with the phase-1 incumbent at that point and
//!   their position in the phase-1 certificate log. Phase 2 farms the
//!   subtrees out via [`rtise_obs::par::run_ordered`]; each is searched
//!   with its own stats, histogram, certificate log and virtual-clock
//!   trace scope, seeded with the best of its capture-time incumbent,
//!   subtree 0's result and its deterministic completed-prefix window.
//!
//! Subtree 0 runs first, on the calling thread (warm start): it is the
//! preorder-earliest region of the tree, so its best both seeds every
//! later subtree — without it the first [`rtise_obs::par::WINDOW`]
//! subtrees would search with only their capture-time incumbents and can
//! explosively overexpand — and remains a valid justification for any
//! later prune under a replayer's preorder incumbent.
//!
//! The merge is a fixed preorder stitch, all in subtree index order:
//!
//! * incumbents fold `pre_best_0, best_0, pre_best_1, best_1, …,
//!   phase-1 best` with the search's own [`Search::improves`] rule, which
//!   reproduces the serial preorder-first incumbent exactly, ties
//!   included. (In searches whose incumbents only exist at leaves below
//!   the frontier every `pre_best` and the phase-1 best are empty and the
//!   fold reduces to the subtree results.)
//! * stats and histograms are summed after phase 1's own;
//! * certificate events are spliced at each subtree's phase-1 position,
//!   so the stitched log is the preorder walk of a valid (differently
//!   pruned but still optimality-proving) search tree that the
//!   `rtise-check` replayers accept unmodified — a prune justified
//!   against a subtree's *weaker* local incumbent is automatically
//!   justified against the replayer's stronger one;
//! * captured trace events are replayed into the ambient scopes.
//!
//! Everything — answer, stats, histograms, certificates and virtual
//! traces — is therefore byte-identical for every worker count *at a
//! fixed frontier depth*. The depth is sized from the engaged thread
//! count ([`rtise_obs::par::sized_frontier_depth`]); pin it with
//! [`SolveOpts::frontier_depth`] or [`rtise_obs::par::set_frontier_for`]
//! to compare runs at different thread counts.

use crate::scope::{isolate, replay, Clock, Event, TraceScope};
use rtise_obs::{BoundedLog, Hist};

/// Cap on certificate events per solve. Experiment-scale solves explore
/// well under a million nodes; events past the cap are dropped and
/// counted (the certificate's `dropped` field) instead of growing without
/// bound.
pub const DEFAULT_CERT_CAP: usize = 1 << 22;

/// How a branch-and-bound solve runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolveOpts {
    /// Worker threads of the decomposed search; 0 runs the serial search.
    pub threads: usize,
    /// Frontier depth of the decomposed search. `None` sizes it from
    /// `threads` (or from the pinned count of
    /// [`rtise_obs::par::set_frontier_for`]).
    pub frontier_depth: Option<usize>,
}

impl Default for SolveOpts {
    /// The process-wide knobs: [`rtise_obs::par::threads`] workers and a
    /// frontier sized by [`rtise_obs::par::sized_frontier_depth`].
    fn default() -> Self {
        SolveOpts {
            threads: rtise_obs::par::threads(),
            frontier_depth: None,
        }
    }
}

impl SolveOpts {
    /// The decomposed search on `threads` workers (at least one),
    /// whatever the process-wide knob says; the frontier is sized from
    /// the count.
    #[must_use]
    pub fn par(threads: usize) -> Self {
        SolveOpts {
            threads: threads.max(1),
            frontier_depth: None,
        }
    }
}

/// One depth-first branch-and-bound search, as the driver sees it.
pub trait Search: Sync {
    /// The path state a subtree search resumes from.
    type State: Send + Sync;
    /// The incumbent; [`Default`] is "no incumbent yet".
    type Best: Clone + Default + Send + Sync;
    /// Search statistics.
    type Stats: Default + Send + Sync;
    /// One certificate event.
    type Event: Copy + Send + Sync;

    /// Maximum frontier depth of the decomposed search.
    const PAR_FRONTIER_DEPTH: usize;

    /// Whether `cand` replaces `cur` as the incumbent — the search's own
    /// strict improvement rule.
    fn improves(cur: &Self::Best, cand: &Self::Best) -> bool;

    /// Adds `from` into `into`.
    fn merge_stats(into: &mut Self::Stats, from: &Self::Stats);

    /// Whether the decomposition applies at frontier `depth` (the tree
    /// must be deeper than the frontier, and nothing may depend on the
    /// serial node order).
    fn par_applicable(&self, depth: usize) -> bool;

    /// Searches from the root (`from == None`, `depth == 0`) or from a
    /// captured frontier node at `depth`, starting from incumbent `seed`.
    /// With `frontier` set the walk captures every node reaching the
    /// frontier instead of expanding it. Returns the final incumbent, the
    /// stats and the histogram of expanded-node depths.
    fn search(
        &self,
        from: Option<&Self::State>,
        depth: usize,
        seed: Self::Best,
        frontier: Option<&mut Frontier<Self::State, Self::Best>>,
        cert: Option<&mut BoundedLog<Self::Event>>,
    ) -> (Self::Best, Self::Stats, Hist);
}

/// The phase-1 frontier of a decomposed search.
pub struct Frontier<S, B> {
    depth: usize,
    nodes: Vec<Captured<S, B>>,
}

/// A node captured at the frontier: the subtree root state, the phase-1
/// incumbent at capture time, and where in the phase-1 certificate log
/// the subtree's events splice in.
struct Captured<S, B> {
    state: S,
    pre_best: B,
    cert_pos: usize,
}

impl<S, B: Clone> Frontier<S, B> {
    /// Whether a node at `depth` lies on the frontier and must be
    /// captured instead of expanded.
    #[must_use]
    pub fn reached(&self, depth: usize) -> bool {
        depth == self.depth
    }

    /// Captures a frontier node: its `state`, the walk's incumbent `best`
    /// at this point, and the walk's certificate log so far. The subtree
    /// search replays the node entry itself, so the capture records
    /// nothing else.
    pub fn capture<E>(&mut self, state: S, best: &B, cert: Option<&BoundedLog<E>>) {
        self.nodes.push(Captured {
            state,
            pre_best: best.clone(),
            cert_pos: cert.map_or(0, BoundedLog::len),
        });
    }
}

/// What one [`solve`] produced.
pub struct Solved<P: Search> {
    /// The final incumbent.
    pub best: P::Best,
    /// Search statistics.
    pub stats: P::Stats,
    /// Depths of every expanded node.
    pub hist: Hist,
    /// Certificate events and the number dropped past
    /// [`DEFAULT_CERT_CAP`], when one was requested.
    pub cert: Option<(Vec<P::Event>, u64)>,
}

/// Runs `problem` under `opts`, recording a certificate when `cert` is
/// set. Trace events go to the ambient scopes; nothing is published to
/// the counter registry — that is the caller's job.
pub fn solve<P: Search>(problem: &P, opts: SolveOpts, cert: bool) -> Solved<P> {
    solve_capped(problem, opts, cert.then_some(DEFAULT_CERT_CAP))
}

fn solve_capped<P: Search>(problem: &P, opts: SolveOpts, cap: Option<usize>) -> Solved<P> {
    let depth = opts.frontier_depth.unwrap_or_else(|| {
        rtise_obs::par::sized_frontier_depth(P::PAR_FRONTIER_DEPTH, opts.threads)
    });
    let mut log = cap.map(BoundedLog::new);
    let (best, stats, hist) = if opts.threads > 0 && problem.par_applicable(depth) {
        decomposed(problem, opts.threads, depth, log.as_mut())
    } else {
        problem.search(None, 0, P::Best::default(), None, log.as_mut())
    };
    Solved {
        best,
        stats,
        hist,
        cert: log.map(BoundedLog::into_parts),
    }
}

/// Everything one subtree search produced.
struct Subtree<P: Search> {
    best: P::Best,
    stats: P::Stats,
    hist: Hist,
    events: Vec<P::Event>,
    cert_dropped: u64,
    trace: Vec<Event>,
    trace_dropped: u64,
}

/// The two-phase decomposed search (see the module docs).
fn decomposed<P: Search>(
    problem: &P,
    threads: usize,
    depth: usize,
    cert: Option<&mut BoundedLog<P::Event>>,
) -> (P::Best, P::Stats, Hist) {
    let want_cert = cert.is_some();
    let cap = cert.as_ref().map_or(0, |log| log.cap());

    // Phase 1: serial walk truncated at the frontier. The log is
    // physically bounded by the frontier size, so no cap is needed.
    let mut frontier = Frontier {
        depth,
        nodes: Vec::new(),
    };
    let mut ph_log = want_cert.then(|| BoundedLog::new(usize::MAX));
    let (ph_best, mut stats, mut hist) = problem.search(
        None,
        0,
        P::Best::default(),
        Some(&mut frontier),
        ph_log.as_mut(),
    );
    let ph_events = ph_log.map_or(Vec::new(), |log| log.into_parts().0);
    let nodes = frontier.nodes;

    // Phase 2: independent subtree searches on the deterministic
    // scheduler. Nothing in here touches the counter registry or the
    // ambient trace scopes — everything is merged below.
    let trace_on = crate::enabled();
    let run_subtree = |node: &Captured<P::State, P::Best>, seed: P::Best| {
        let scope = trace_on.then(|| TraceScope::new(Clock::Virtual));
        let mut log = want_cert.then(|| BoundedLog::new(cap));
        let (best, stats, hist) = {
            // Detach from any ambient scope first (with one worker the
            // closure runs on the caller's thread, which has the caller's
            // scopes entered) so subtree events reach the ambient trace
            // exactly once, via the deterministic replay below.
            let _isolated = trace_on.then(isolate);
            let _active = scope.as_ref().map(TraceScope::enter);
            problem.search(Some(&node.state), depth, seed, None, log.as_mut())
        };
        let (events, cert_dropped) = log.map_or((Vec::new(), 0), BoundedLog::into_parts);
        Subtree::<P> {
            best,
            stats,
            hist,
            events,
            cert_dropped,
            trace: scope.as_ref().map_or_else(Vec::new, TraceScope::events),
            trace_dropped: scope.as_ref().map_or(0, TraceScope::dropped),
        }
    };
    let first = nodes
        .first()
        .map(|node| run_subtree(node, node.pre_best.clone()));
    let rest = rtise_obs::par::run_ordered(
        nodes.get(1..).unwrap_or(&[]),
        threads,
        |_, node, prefix: rtise_obs::par::Completed<'_, Subtree<P>>| {
            let mut seed = node.pre_best.clone();
            for r in
                std::iter::once(first.as_ref().expect("frontier is non-empty")).chain(prefix.iter())
            {
                if P::improves(&seed, &r.best) {
                    seed = r.best.clone();
                }
            }
            run_subtree(node, seed)
        },
    );
    let results: Vec<Subtree<P>> = first.into_iter().chain(rest).collect();

    // Merge, all in subtree index order.
    let mut best = P::Best::default();
    for (node, r) in nodes.iter().zip(&results) {
        if P::improves(&best, &node.pre_best) {
            best = node.pre_best.clone();
        }
        if P::improves(&best, &r.best) {
            best = r.best.clone();
        }
        P::merge_stats(&mut stats, &r.stats);
        hist.merge(&r.hist);
    }
    if P::improves(&best, &ph_best) {
        best = ph_best;
    }
    if trace_on {
        for r in &results {
            replay(&r.trace, r.trace_dropped);
        }
    }
    if let Some(log) = cert {
        let mut prev = 0;
        for (node, r) in nodes.iter().zip(&results) {
            for &e in &ph_events[prev..node.cert_pos] {
                log.push(e);
            }
            prev = node.cert_pos;
            for &e in &r.events {
                log.push(e);
            }
            log.add_dropped(r.cert_dropped);
        }
        for &e in &ph_events[prev..] {
            log.push(e);
        }
    }
    (best, stats, hist)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A full binary tree of depth `height`: every node logs its preorder
    /// path (depth and branch bits) as a certificate event, and each leaf
    /// offers its path bits as an incumbent candidate, larger wins.
    struct Toy {
        height: usize,
    }

    struct Walk<'a> {
        height: usize,
        best: Option<u32>,
        stats: u64,
        hist: Hist,
        frontier: Option<&'a mut Frontier<u32, Option<u32>>>,
        cert: Option<&'a mut BoundedLog<(usize, u32)>>,
    }

    impl Walk<'_> {
        fn dfs(&mut self, depth: usize, path: u32) {
            if let Some(f) = &mut self.frontier {
                if f.reached(depth) {
                    f.capture(path, &self.best, self.cert.as_deref());
                    return;
                }
            }
            self.stats += 1;
            self.hist.observe(depth as u64);
            if let Some(log) = &mut self.cert {
                log.push((depth, path));
            }
            if depth == self.height {
                if Toy::improves(&self.best, &Some(path)) {
                    self.best = Some(path);
                }
                return;
            }
            for bit in [1, 0] {
                self.dfs(depth + 1, path << 1 | bit);
            }
        }
    }

    impl Search for Toy {
        type State = u32;
        type Best = Option<u32>;
        type Stats = u64;
        type Event = (usize, u32);
        const PAR_FRONTIER_DEPTH: usize = 3;

        fn improves(cur: &Option<u32>, cand: &Option<u32>) -> bool {
            cand.is_some() && cand > cur
        }

        fn merge_stats(into: &mut u64, from: &u64) {
            *into += from;
        }

        fn par_applicable(&self, depth: usize) -> bool {
            self.height > depth
        }

        fn search(
            &self,
            from: Option<&u32>,
            depth: usize,
            seed: Option<u32>,
            frontier: Option<&mut Frontier<u32, Option<u32>>>,
            cert: Option<&mut BoundedLog<(usize, u32)>>,
        ) -> (Option<u32>, u64, Hist) {
            let mut walk = Walk {
                height: self.height,
                best: seed,
                stats: 0,
                hist: Hist::new(),
                frontier,
                cert,
            };
            walk.dfs(depth, from.copied().unwrap_or(0));
            (walk.best, walk.stats, walk.hist)
        }
    }

    fn pinned(threads: usize, depth: usize) -> SolveOpts {
        SolveOpts {
            threads,
            frontier_depth: Some(depth),
        }
    }

    /// With nothing to prune the decomposed walk visits the same tree, so
    /// the stitched log is the serial log event for event.
    #[test]
    fn decomposed_walk_matches_the_serial_walk() {
        let toy = Toy { height: 6 };
        let serial = solve_capped(&toy, pinned(0, 3), Some(usize::MAX));
        assert_eq!(serial.stats, 127);
        for threads in [1, 4] {
            let par = solve_capped(&toy, pinned(threads, 3), Some(usize::MAX));
            assert_eq!(par.best, serial.best);
            assert_eq!(par.stats, serial.stats);
            // Same depths, observed in a different order.
            let shape = |h: &Hist| (h.count(), h.sum(), h.min(), h.max(), h.p50());
            assert_eq!(shape(&par.hist), shape(&serial.hist));
            assert_eq!(par.cert, serial.cert);
        }
    }

    /// A capped certificate keeps the serial prefix, and every event a
    /// subtree log dropped is carried into the stitched drop count.
    #[test]
    fn capped_subtree_logs_splice_their_drop_counts() {
        let toy = Toy { height: 6 };
        let (full, _) = solve_capped(&toy, pinned(0, 3), Some(usize::MAX))
            .cert
            .expect("certificate requested");
        for cap in [1, 2, 5, 9, 20, 60] {
            for threads in [1, 4] {
                let (events, dropped) = solve_capped(&toy, pinned(threads, 3), Some(cap))
                    .cert
                    .expect("certificate requested");
                assert_eq!(events, full[..cap], "cap {cap} threads {threads}");
                assert_eq!(
                    events.len() as u64 + dropped,
                    full.len() as u64,
                    "cap {cap} threads {threads}"
                );
            }
        }
    }

    #[test]
    fn no_certificate_unless_requested() {
        let toy = Toy { height: 5 };
        assert!(solve(&toy, pinned(2, 3), false).cert.is_none());
        assert_eq!(solve(&toy, pinned(2, 3), true).cert.map(|c| c.1), Some(0));
    }
}
