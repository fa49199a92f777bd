//! The `query` and `tcp` workloads: closed-loop request streams against a
//! `serve` child, plus the in-process replay the traced run uses to time
//! the serve, select, ILP and reconfiguration layers call by call.

use crate::child::{self, Conn, Exchange, ServeChild, TcpConn};
use crate::gen::{self, Digest, QueryGen};
use crate::host::HostSpeed;
use crate::stats::RunResult;
use crate::trace::Tracer;
use crate::{Args, Setups};
use rtise::obs::json::Value;
use rtise_serve::proto::{self, ReconfigReq, ReqKind, Request};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Child start-ups per `query` run; `setup_s` is their median.
const QUERY_SETUPS: usize = 7;
/// Child start-ups per `tcp` run (each pays the warm-up stalls).
const TCP_SETUPS: usize = 3;
/// Requests per untraced/traced block of the traced `query` run.
const TRACE_BLOCK: usize = 100;
/// Requests per census of the `query` and `tcp` layers (one round of
/// the stream, so every request family).
const CENSUS_REQUESTS: u64 = gen::ROUND_LEN as u64;
/// Client connections of the `tcp` workload (one per core).
const TCP_CONNECTIONS: u64 = 2;
/// Timed requests after which `query` reads the child's peak memory.
const QUERY_RSS_AT: u64 = 2000;
/// Requests on connection 0 after which `tcp` reads the child's peak
/// memory (both connections have then sent about this many).
const TCP_RSS_AT: u64 = 400;

/// Reads a `serve` child's peak memory once connection 0 has sent its
/// `at`-th request. The server memoizes every distinct response, so its
/// memory grows with the requests it has answered; reading it after a
/// fixed number of requests keeps a faster server from looking bigger.
/// Every client keeps going past the deadline until the reading is made.
struct RssProbe {
    pid: u32,
    at: u64,
    mb: OnceLock<Option<f64>>,
}

impl RssProbe {
    fn new(serve: &ServeChild, at: u64) -> Self {
        RssProbe {
            pid: serve.pid(),
            at,
            mb: OnceLock::new(),
        }
    }

    fn pending(&self) -> bool {
        self.mb.get().is_none()
    }

    /// The reading, or an error when none could be made.
    fn mb(&self) -> Result<f64, String> {
        self.mb
            .get()
            .copied()
            .flatten()
            .ok_or_else(|| "cannot read the serve child's peak memory".to_string())
    }
}

/// Certifies responses: well-formed, `ok`, id echoed, clean under
/// [`rtise::check::serve::check_response`], and an exact repeat carries
/// the same checksum as its first serving.
#[derive(Default)]
pub struct Certifier {
    checksums: HashMap<String, String>,
}

impl Certifier {
    /// Checks `response` against the request it answers.
    ///
    /// # Errors
    ///
    /// What is wrong with the response.
    pub fn certify(&mut self, req: &Request, response: &str) -> Result<(), String> {
        let doc = rtise::obs::json::parse(response).map_err(|e| format!("bad JSON: {e}"))?;
        if doc.get("ok") != Some(&Value::Bool(true)) {
            return Err(format!("request {} failed: {response}", req.id));
        }
        if doc.get("id").and_then(Value::as_f64) != Some(req.id as f64) {
            return Err(format!("response to {} carries the wrong id", req.id));
        }
        let diags = rtise::check::serve::check_response(&doc);
        if !diags.is_clean() {
            return Err(format!("request {} uncertified: {diags}", req.id));
        }
        let sum = doc
            .get("checksum")
            .and_then(Value::as_str)
            .unwrap_or_default()
            .to_string();
        let first = self
            .checksums
            .entry(proto::dedup_key(&req.kind))
            .or_insert_with(|| sum.clone());
        if *first != sum {
            return Err(format!("repeat of request {} changed its answer", req.id));
        }
        Ok(())
    }
}

fn parse_line(line: &str) -> Request {
    proto::parse(line).expect("the generator emits well-formed requests")
}

/// Sends the warm-up requests over `conn`, failing on any error.
fn warm<W: Write, R: Read>(conn: &mut Conn<W, R>, kernels: &[&str]) -> Result<(), String> {
    let mut cert = Certifier::default();
    for line in gen::warm_lines(kernels) {
        let ex = conn.call(&line).map_err(|e| format!("warm-up: {e}"))?;
        cert.certify(&parse_line(&line), &ex.response)?;
    }
    Ok(())
}

/// One closed-loop client's tally.
#[derive(Default)]
struct Tally {
    lat_ms: Vec<f64>,
    attempted: u64,
    failures: Vec<String>,
    digest: Digest,
    lines: Vec<String>,
    tracer: Option<Tracer>,
    cert: Certifier,
}

/// Runs a closed loop over `conn` until `deadline` (and, with a probe,
/// until it has read the child's peak memory), certifying every
/// response and adding to `t`. With a tracer in `t`, each op becomes an
/// `op` span split into `serve.ttfb` and `serve.wire`, and the lines are
/// kept for replay. With `host`, the host's speed is sampled between
/// requests and the deadline moves back by the time that takes.
fn client_loop<W: Write, R: Read>(
    conn: &mut Conn<W, R>,
    gen: &mut QueryGen,
    t: &mut Tally,
    deadline: Instant,
    op_base: u64,
    probe: Option<&RssProbe>,
    mut host: Option<&mut HostSpeed>,
) {
    let spent = |host: &Option<&mut HostSpeed>| host.as_ref().map_or(0.0, |h| h.spent_s());
    let spent_before = spent(&host);
    let past = |host: &Option<&mut HostSpeed>| {
        Instant::now() >= deadline + Duration::from_secs_f64(spent(host) - spent_before)
    };
    while !past(&host) || probe.is_some_and(RssProbe::pending) {
        let line = gen.next_line();
        t.digest.update(line.as_bytes());
        let req = parse_line(&line);
        t.attempted += 1;
        let sent = Instant::now();
        match conn.call(&line) {
            Ok(ex) => {
                t.lat_ms.push(ex.latency_s() * 1e3);
                if let Some(p) = probe.filter(|p| op_base == 0 && p.at == t.attempted) {
                    p.mb.get_or_init(|| crate::stats::peak_rss_mb(Some(p.pid)));
                }
                if let Some(tr) = t.tracer.as_mut() {
                    record_exchange(tr, op_base + t.attempted, sent, &ex);
                    t.lines.push(line);
                }
                if let Err(e) = t.cert.certify(&req, &ex.response) {
                    t.failures.push(e);
                }
                if let Some(h) = host.as_deref_mut() {
                    h.tick();
                }
            }
            Err(e) => {
                t.failures.push(format!("request {}: {e}", req.id));
                if let Some(p) = probe {
                    p.mb.get_or_init(|| None);
                }
                break;
            }
        }
    }
}

fn record_exchange(tr: &mut Tracer, op: u64, sent: Instant, ex: &Exchange) {
    let root = tr.record("op", op, sent, ex.latency_s(), None);
    tr.record("serve.ttfb", op, sent, ex.ttfb_s, Some(root));
    let first_byte = sent + Duration::from_secs_f64(ex.ttfb_s);
    tr.record("serve.wire", op, first_byte, ex.wire_s, Some(root));
}

/// Summed outcome of one or more clients over one timed phase.
struct Phase {
    tallies: Vec<Tally>,
    wall_s: f64,
}

impl Phase {
    fn ops(&self) -> usize {
        self.tallies.iter().map(|t| t.lat_ms.len()).sum()
    }

    fn ops_per_s(&self) -> f64 {
        self.ops() as f64 / self.wall_s
    }

    fn fold_into(&self, res: &mut RunResult) {
        for t in &self.tallies {
            res.attempted += t.attempted;
            for f in &t.failures {
                res.fail(f.clone());
            }
        }
    }

    fn lat_ms(&self) -> Vec<f64> {
        self.tallies
            .iter()
            .flat_map(|t| t.lat_ms.iter().copied())
            .collect()
    }
}

/// `query` set-up: start `serve --stdin`, warm every fast curve and the
/// JPEG problem, build the request generator.
fn query_setup(args: &Args) -> Result<(ServeChild, child::StdioConn, QueryGen), String> {
    let kernels = gen::kernel_names();
    let (serve, mut conn) = child::spawn_stdin(&args.serve_bin)
        .map_err(|e| format!("cannot start {}: {e}", args.serve_bin.display()))?;
    warm(&mut conn, &kernels)?;
    Ok((serve, conn, QueryGen::new(args.seed, &kernels)))
}

/// `tcp` set-up: start `serve --listen 127.0.0.1:0`, open the client
/// connections, warm through the first one, build one generator per
/// connection.
fn tcp_setup(args: &Args) -> Result<(ServeChild, Vec<(TcpConn, QueryGen)>), String> {
    let kernels = gen::kernel_names();
    let (serve, addr) = child::spawn_tcp(&args.serve_bin)
        .map_err(|e| format!("cannot start {}: {e}", args.serve_bin.display()))?;
    let mut clients = Vec::new();
    for c in 0..TCP_CONNECTIONS {
        let conn = child::connect(&addr).map_err(|e| format!("connect {addr}: {e}"))?;
        clients.push((
            conn,
            QueryGen::new(gen::mix(args.seed, 0x7463_7000 + c), &kernels),
        ));
    }
    warm(&mut clients[0].0, &kernels)?;
    Ok((serve, clients))
}

fn first_prefix_digest(seed: u64) -> String {
    let mut g = QueryGen::new(seed, &gen::kernel_names());
    let mut d = Digest::default();
    for _ in 0..1000 {
        d.update(g.next_line().as_bytes());
    }
    d.hex()
}

/// The `query` workload.
///
/// # Errors
///
/// Set-up failures and refused percentiles.
pub fn query(args: &Args) -> Result<RunResult, String> {
    if args.trace {
        return query_traced(args);
    }
    let ((serve, mut conn, mut gen), mut setups) =
        Setups::first(args, QUERY_SETUPS, || query_setup(args))?;
    let probe = RssProbe::new(&serve, QUERY_RSS_AT);
    let mut tally = Tally::default();
    let mut host = HostSpeed::start();
    // The timed phase runs in segments with a set-up (of a second child)
    // after each; the deadlines leave out the set-ups' and the host
    // samples' time.
    let segments = QUERY_SETUPS - 1;
    let start = Instant::now();
    for k in 1..=segments {
        let timed = args.seconds * k as f64 / segments as f64;
        let paused = setups.paused_s() + host.spent_s();
        let deadline = start + Duration::from_secs_f64(paused + timed);
        client_loop(
            &mut conn,
            &mut gen,
            &mut tally,
            deadline,
            0,
            Some(&probe),
            Some(&mut host),
        );
        setups.between(1, || query_setup(args))?;
    }
    host.finish();
    let phase = Phase {
        wall_s: start.elapsed().as_secs_f64() - setups.paused_s() - host.spent_s(),
        tallies: vec![tally],
    };
    serve.stop();
    let rss = probe.mb()?;
    println!(
        "inputs: seed {} request-stream digest {} (first 1000: {})",
        args.seed,
        phase.tallies[0].digest.hex(),
        first_prefix_digest(args.seed)
    );
    finish_e2e(&phase, setups.times(), rss, QUERY_RSS_AT, Some(&host))
}

/// The `tcp` workload.
///
/// # Errors
///
/// Set-up failures and refused percentiles.
pub fn tcp(args: &Args) -> Result<RunResult, String> {
    // Each set-up pays the warm-up's newline stalls, which keep its time
    // steady; all of them run before the timed phase.
    let ((serve, mut clients), mut setups) = Setups::first(args, TCP_SETUPS, || tcp_setup(args))?;
    setups.between(TCP_SETUPS, || tcp_setup(args))?;
    let epoch = args.started;
    let probe = RssProbe::new(&serve, TCP_RSS_AT);
    let run_phase = |clients: &mut Vec<(TcpConn, QueryGen)>, secs: f64, traced: bool| {
        let start = Instant::now();
        let deadline = start + Duration::from_secs_f64(secs);
        let tallies = std::thread::scope(|s| {
            let handles: Vec<_> = clients
                .iter_mut()
                .enumerate()
                .map(|(c, (conn, gen))| {
                    let probe = (!args.trace).then_some(&probe);
                    s.spawn(move || {
                        let mut t = Tally {
                            tracer: traced.then(|| Tracer::new(epoch)),
                            ..Tally::default()
                        };
                        client_loop(conn, gen, &mut t, deadline, (c as u64) << 40, probe, None);
                        t
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect::<Vec<_>>()
        });
        Phase {
            tallies,
            wall_s: start.elapsed().as_secs_f64(),
        }
    };
    if !args.trace {
        let phase = run_phase(&mut clients, args.seconds, false);
        serve.stop();
        let rss = probe.mb()?;
        let digests: Vec<String> = phase.tallies.iter().map(|t| t.digest.hex()).collect();
        println!(
            "inputs: seed {} request-stream digests {} (connection 0 first 1000: {})",
            args.seed,
            digests.join(","),
            first_prefix_digest(gen::mix(args.seed, 0x7463_7000))
        );
        return finish_e2e(&phase, setups.times(), rss, TCP_RSS_AT, None);
    }
    // The first half untraced (the overhead reference), the second traced.
    let reference = run_phase(&mut clients, args.seconds / 2.0, false);
    let mut traced = run_phase(&mut clients, args.seconds / 2.0, true);
    serve.stop();
    let mut res = RunResult::default();
    reference.fold_into(&mut res);
    traced.fold_into(&mut res);
    let mut tracer = Tracer::new(epoch);
    let mut lines = Vec::new();
    for t in &mut traced.tallies {
        tracer.absorb(t.tracer.take().expect("traced phase"));
        lines.append(&mut t.lines);
    }
    // Attribute the server's share: replay the traced requests in process.
    warm_in_process();
    let mut cert = Certifier::default();
    for (i, line) in lines.iter().enumerate() {
        let op = (1 << 48) + i as u64;
        tracer.begin("replay", op);
        let out = serve_in_process(&mut tracer, &mut cert, line, op);
        tracer.end();
        if let Err(e) = out {
            res.fail(e);
        }
    }
    crate::report::finish_traced(
        args,
        &mut res,
        tracer,
        reference.ops_per_s(),
        traced.ops_per_s(),
        None,
    )?;
    Ok(res)
}

/// Census of the `query` layers: one round of the request stream served
/// in process, each request then decomposed into its layer calls.
pub(crate) fn census_query(tracer: &mut Tracer, seed: u64, op: u64, res: &mut RunResult) {
    warm_in_process();
    let mut gen = QueryGen::new(seed, &gen::kernel_names());
    let mut cert = Certifier::default();
    for op in op..op + CENSUS_REQUESTS {
        let line = gen.next_line();
        res.attempted += 1;
        tracer.begin("op", op);
        if let Err(e) = serve_in_process(tracer, &mut cert, &line, op) {
            res.fail(e);
        }
        decompose(tracer, &parse_line(&line), op);
        tracer.end();
    }
}

/// Census of the `tcp` layers: one round of the request stream over one
/// connection to a fresh, warmed `serve --listen` child.
///
/// # Errors
///
/// Set-up failures.
pub(crate) fn census_tcp(
    args: &Args,
    tracer: &mut Tracer,
    op: u64,
    res: &mut RunResult,
) -> Result<(), String> {
    let (serve, mut clients) = tcp_setup(args)?;
    let (conn, gen) = &mut clients[0];
    let mut cert = Certifier::default();
    for op in op..op + CENSUS_REQUESTS {
        let line = gen.next_line();
        let req = parse_line(&line);
        res.attempted += 1;
        let sent = Instant::now();
        match conn.call(&line) {
            Ok(ex) => {
                record_exchange(tracer, op, sent, &ex);
                if let Err(e) = cert.certify(&req, &ex.response) {
                    res.fail(e);
                }
            }
            Err(e) => {
                res.fail(format!("request {}: {e}", req.id));
                break;
            }
        }
    }
    serve.stop();
    Ok(())
}

fn finish_e2e(
    phase: &Phase,
    setups: &[f64],
    rss: f64,
    rss_at: u64,
    host: Option<&HostSpeed>,
) -> Result<RunResult, String> {
    let mut res = RunResult::default();
    phase.fold_into(&mut res);
    res.metrics = crate::report::e2e(
        setups,
        phase.ops(),
        phase.wall_s,
        &phase.lat_ms(),
        rss,
        host,
    )?;
    println!("                (peak_rss_mb: serve child after request {rss_at} of connection 0)");
    crate::report::print_failed(&res);
    Ok(res)
}

/// Computes every fast curve and the fast JPEG problem in this process.
fn warm_in_process() {
    let fast = rtise::workbench::CurveOptions::fast();
    for k in gen::kernel_names() {
        let _ = rtise_bench::cached_curve_with(k, &fast);
    }
    let _ = rtise_bench::cached_jpeg_problem_with(&fast);
}

/// One request through the serve layers in this process: parse, execute,
/// render, certify — each a span when `tracer` records.
fn serve_in_process(
    tracer: &mut Tracer,
    cert: &mut Certifier,
    line: &str,
    op: u64,
) -> Result<(), String> {
    let req = tracer
        .time("serve.parse", op, || proto::parse(line))
        .map_err(|e| format!("unparsable request: {e}"))?;
    let response = tracer.time("serve.execute", op, || rtise_serve::execute(&req));
    let rendered = tracer.time("obs.render", op, || response.render());
    tracer.time("check.response", op, || cert.certify(&req, &rendered))
}

/// Re-runs the layer calls [`rtise_serve::execute`] makes for `req`,
/// each as its own counted span: the curve memo, then the selection
/// solver, ILP solve or iterative partitioner.
fn decompose(tracer: &mut Tracer, req: &Request, op: u64) {
    let specs = |tracer: &mut Tracer, kernels: &[String], u0_pct: u64, level: proto::Level| {
        // The engine validates each name by building the kernel.
        for k in kernels {
            tracer.time("kernels.build", op, || rtise::kernels::by_name(k));
        }
        let curves: Vec<_> = kernels
            .iter()
            .map(|k| {
                tracer.time("bench.curve_memo", op, || {
                    rtise_bench::cached_curve_with(k, &level.options())
                })
            })
            .collect();
        let bases: Vec<u64> = curves.iter().map(|c| c.base_cycles).collect();
        let periods = rtise::select::task::periods_for_utilization(&bases, u0_pct as f64 / 100.0);
        curves
            .into_iter()
            .zip(periods)
            .map(|(c, p)| rtise::select::TaskSpec::new(c, p))
            .collect::<Vec<_>>()
    };
    match &req.kind {
        ReqKind::SelectEdf {
            kernels,
            u0_pct,
            budget,
            level,
        } => {
            let specs = specs(tracer, kernels, *u0_pct, *level);
            let _ = tracer.counted("select.edf", op, || {
                rtise::select::select_edf(&specs, *budget)
            });
        }
        ReqKind::SelectRms {
            kernels,
            u0_pct,
            budget,
            level,
        } => {
            let specs = specs(tracer, kernels, *u0_pct, *level);
            let _ = tracer.counted("select.rms", op, || {
                rtise::select::select_rms(&specs, *budget)
            });
        }
        ReqKind::Ilp { seed } => {
            // The instance family `rtise_serve::engine` draws.
            let model = rtise_fuzz::gen::ilp_model(
                &mut rtise::obs::Rng::new(*seed),
                &rtise_fuzz::gen::IlpOptions {
                    min_vars: 4,
                    max_vars: 10,
                    max_rows: 6,
                    le_rows_only: true,
                },
            );
            let _ = tracer.counted("ilp.solve", op, || model.solve());
        }
        ReqKind::Reconfig(ReconfigReq::Synthetic { n, seed }) => {
            let p = rtise::reconfig::partition::synthetic_problem(*n as usize, *seed);
            let _ = tracer.counted("reconfig.iterative", op, || {
                rtise::reconfig::iterative_partition(&p, *seed)
            });
        }
        ReqKind::Reconfig(ReconfigReq::Jpeg {
            fabric_pct,
            reconfig_cost,
            level,
        }) => {
            let mut p = rtise_bench::cached_jpeg_problem_with(&level.options());
            let full: u64 = p.loops.iter().map(|l| l.best().area).sum();
            p.max_area = (full * fabric_pct / 100).max(1);
            p.reconfig_cost = *reconfig_cost;
            let _ = tracer.counted("reconfig.iterative", op, || {
                rtise::reconfig::iterative_partition(&p, 9)
            });
        }
        ReqKind::Curve { .. } => {}
    }
}

/// Traced `query`: the stream served in process, each block of requests
/// first untraced (the overhead reference), then traced, then decomposed
/// into the layer calls `execute` makes.
fn query_traced(args: &Args) -> Result<RunResult, String> {
    let kernels = gen::kernel_names();
    warm_in_process();
    let mut gen = QueryGen::new(args.seed, &kernels);
    let mut res = RunResult::default();
    let mut tracer = Tracer::new(args.started);
    let (mut cert, mut traced_cert) = (Certifier::default(), Certifier::default());
    let (mut lines, mut ref_s, mut traced_s) = (Vec::new(), 0.0, 0.0);
    let start = Instant::now();
    // Blocks of requests run untraced (the overhead reference) and then
    // again traced.
    while start.elapsed().as_secs_f64() < args.seconds {
        let first = lines.len();
        lines.extend((0..TRACE_BLOCK).map(|_| gen.next_line()));
        let mut untraced = Tracer::disabled();
        for (tracer, cert, secs) in [
            (&mut untraced, &mut cert, &mut ref_s),
            (&mut tracer, &mut traced_cert, &mut traced_s),
        ] {
            let t0 = Instant::now();
            for (i, line) in lines[first..].iter().enumerate() {
                let op = (first + i) as u64 + 1;
                tracer.begin("op", op);
                let out = serve_in_process(tracer, cert, line, op);
                tracer.end();
                res.attempted += 1;
                if let Err(e) = out {
                    res.fail(e);
                }
            }
            *secs += t0.elapsed().as_secs_f64();
        }
        for (i, line) in lines[first..].iter().enumerate() {
            let op = (first + i) as u64 + 1;
            tracer.begin("decompose", op);
            decompose(&mut tracer, &parse_line(line), op);
            tracer.end();
        }
    }
    let layers = tracer.layers();
    let total = |name: &str| layers.get(name).map_or(0.0, |l| l.total_us);
    println!(
        "decomposition: the layer calls account for {:.2}% of serve.execute time",
        100.0 * (total("decompose") - layers.get("decompose").map_or(0.0, |l| l.self_us))
            / total("serve.execute")
    );
    let ops = lines.len() as f64;
    crate::report::finish_traced(args, &mut res, tracer, ops / ref_s, ops / traced_s, None)?;
    Ok(res)
}
