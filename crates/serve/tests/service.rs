//! End-to-end service tests: report determinism across worker counts,
//! in-flight dedup, corrupt-store recovery, graceful shutdown, and hostile
//! request lines.

use rtise_obs::json::Value;
use rtise_serve::engine::ResponseArtifact;
use rtise_serve::loadtest::{self, LoadtestConfig};
use rtise_serve::proto::{self, dedup_key};
use rtise_serve::server::{Server, ServerConfig, STORE_TAG};
use std::path::PathBuf;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rtise-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn req(line: &str) -> proto::Request {
    proto::parse(line).expect("request parses")
}

fn loadtest_cfg(jobs: usize, cache_dir: Option<PathBuf>) -> LoadtestConfig {
    LoadtestConfig {
        seed: 0x10ad,
        requests: 150,
        jobs,
        cache_dir,
        trace_out: None,
        trace_clock: rtise_trace::Clock::Virtual,
    }
}

#[test]
fn loadtest_report_is_byte_identical_across_worker_counts() {
    let serial = loadtest::run(&loadtest_cfg(1, Some(tmp_dir("det-1"))));
    let parallel = loadtest::run(&loadtest_cfg(4, Some(tmp_dir("det-4"))));
    assert!(serial.certification_failures.is_empty());
    assert!(parallel.certification_failures.is_empty());
    assert_eq!(
        serial.report.render_pretty(),
        parallel.report.render_pretty(),
        "report must not depend on the worker count"
    );
}

#[test]
fn identical_inflight_requests_share_one_computation() {
    // Paused server: both submissions land before any worker runs, so
    // the second is deterministically an in-flight dedup hit.
    let server = Server::new(ServerConfig::new(2));
    let a = server.submit(&req(r#"{"id": 1, "kind": "ilp", "seed": 3}"#));
    let b = server.submit(&req(r#"{"id": 2, "kind": "ilp", "seed": 3}"#));
    let counters = server.counters();
    assert_eq!(counters.get("serve.dedup.hit"), Some(&1));
    assert_eq!(counters.get("serve.queue.enqueued"), Some(&1));

    server.start();
    let ra = a.wait();
    let rb = b.wait();
    let (counters, _) = server.shutdown();
    assert_eq!(
        counters.get("serve.exec"),
        Some(&1),
        "one solve, two responses"
    );

    assert_eq!(ra.get("id").and_then(Value::as_f64), Some(1.0));
    assert_eq!(rb.get("id").and_then(Value::as_f64), Some(2.0));
    assert_eq!(
        ra.get("checksum").and_then(Value::as_str),
        rb.get("checksum").and_then(Value::as_str),
        "both callers got the same certified result"
    );
    assert!(rtise::check::serve::check_response(&ra).is_clean());
}

#[test]
fn finished_results_are_served_from_the_memo() {
    let server = Server::start_new(ServerConfig::new(1));
    let line = r#"{"id": 1, "kind": "reconfig", "problem": "synthetic", "n": 6, "seed": 1}"#;
    let first = server.submit(&req(line)).wait();
    let second = server.submit(&req(line)).wait();
    let (counters, _) = server.shutdown();
    assert_eq!(counters.get("serve.exec"), Some(&1));
    assert_eq!(counters.get("serve.memo.hit"), Some(&1));
    assert_eq!(
        first.get("checksum").and_then(Value::as_str),
        second.get("checksum").and_then(Value::as_str)
    );
}

#[test]
fn corrupt_store_entries_are_evicted_and_recomputed() {
    let dir = tmp_dir("corrupt");
    let line = r#"{"id": 7, "kind": "ilp", "seed": 4}"#;
    let request = req(line);
    let key = dedup_key(&request.kind);

    // Warm the store.
    let server = Server::start_new(ServerConfig {
        jobs: 1,
        cache_dir: Some(dir.clone()),
        trace_clock: None,
    });
    let clean = server.submit(&request).wait();
    server.shutdown();
    let path = rtise_bench::store::entry_path::<ResponseArtifact>(&dir, STORE_TAG, &key);
    assert!(path.exists(), "response persisted");

    // Doctor the entry on disk: checksum mismatch (STORE003 on load).
    let text = std::fs::read_to_string(&path).expect("entry readable");
    let doctored = text.replace("\"work\": ", "\"work\": 1");
    assert_ne!(text, doctored, "mutation applied");
    std::fs::write(&path, doctored).expect("write doctored entry");

    // A fresh server must reject the entry, evict it, and recompute.
    let server = Server::start_new(ServerConfig {
        jobs: 1,
        cache_dir: Some(dir.clone()),
        trace_clock: None,
    });
    let recomputed = server.submit(&request).wait();
    let (counters, _) = server.shutdown();
    assert_eq!(
        counters.get("cache.response.hit"),
        None,
        "no hit on corrupt entry"
    );
    assert_eq!(counters.get("cache.response.evict"), Some(&1));
    assert_eq!(counters.get("serve.exec"), Some(&1));
    assert_eq!(
        clean.get("checksum").and_then(Value::as_str),
        recomputed.get("checksum").and_then(Value::as_str),
        "recomputation reproduces the certified result"
    );

    // The recomputed entry is stored again and now serves warm.
    let server = Server::start_new(ServerConfig {
        jobs: 1,
        cache_dir: Some(dir),
        trace_clock: None,
    });
    let warm = server.submit(&request).wait();
    let (counters, _) = server.shutdown();
    assert_eq!(counters.get("cache.response.hit"), Some(&1));
    assert_eq!(counters.get("serve.exec"), None, "no solve on a warm hit");
    assert!(rtise::check::serve::check_response(&warm).is_clean());
}

#[test]
fn shutdown_drains_every_queued_job() {
    // Queue a batch while paused, start, and immediately shut down: the
    // graceful drain must answer everything before the workers exit.
    let server = Server::new(ServerConfig::new(3));
    let handles: Vec<_> = (0..12)
        .map(|i| {
            server.submit(&req(&format!(
                r#"{{"id": {}, "kind": "ilp", "seed": {}}}"#,
                i + 1,
                i % 6
            )))
        })
        .collect();
    server.start();
    let (counters, _) = server.shutdown();
    assert_eq!(
        counters.get("serve.exec"),
        Some(&6),
        "six distinct seeds solved"
    );
    for (i, h) in handles.iter().enumerate() {
        let resp = h.wait();
        assert_eq!(resp.get("id").and_then(Value::as_f64), Some(i as f64 + 1.0));
        assert!(
            rtise::check::serve::check_response(&resp).is_clean(),
            "response {i} certified after drain"
        );
    }
}

/// A worker that dies mid-job must not crash `shutdown` or strand its
/// waiter: the panic is counted, the orphaned slot is completed with an
/// error response, and `Handle::wait` returns instead of hanging.
#[test]
fn panicked_worker_does_not_crash_shutdown_or_hang_waiters() {
    let server = Server::new(ServerConfig::new(1));
    let handle = server.submit(&req(r#"{"id": 9, "kind": "ilp", "seed": 2}"#));
    // Claim the queued job and die without filling its slot; real
    // workers are never started, so only the faulty one ran.
    server.inject_worker_panic_for_tests();
    let (counters, _) = server.shutdown();
    assert_eq!(counters.get("serve.worker.panics"), Some(&1));
    assert_eq!(counters.get("serve.exec"), None, "job never executed");

    let resp = handle.wait();
    assert_eq!(resp.get("ok"), Some(&Value::Bool(false)));
    assert_eq!(resp.get("id").and_then(Value::as_f64), Some(9.0));
    let error = resp.get("error").and_then(Value::as_str).unwrap_or("");
    assert!(
        error.contains("worker panicked"),
        "unexpected error: {error}"
    );
}

/// Surviving workers keep draining the queue past a panicked one: only
/// the job the dead worker claimed gets an error response.
#[test]
fn queue_drains_past_a_panicked_worker() {
    let server = Server::new(ServerConfig::new(1));
    let handles: Vec<_> = (0..3)
        .map(|i| {
            server.submit(&req(&format!(
                r#"{{"id": {}, "kind": "ilp", "seed": {i}}}"#,
                i + 1
            )))
        })
        .collect();
    // The faulty worker deterministically claims the first job; the real
    // worker started afterwards drains the remaining two.
    server.inject_worker_panic_for_tests();
    server.start();
    let (counters, _) = server.shutdown();
    assert_eq!(counters.get("serve.worker.panics"), Some(&1));
    assert_eq!(counters.get("serve.exec"), Some(&2), "survivors drained");

    let lost = handles[0].wait();
    assert_eq!(lost.get("ok"), Some(&Value::Bool(false)));
    for (i, h) in handles.iter().enumerate().skip(1) {
        let resp = h.wait();
        assert_eq!(resp.get("ok"), Some(&Value::Bool(true)), "job {i} served");
        assert!(rtise::check::serve::check_response(&resp).is_clean());
    }
}

#[test]
fn warm_rerun_has_strictly_higher_hit_rate() {
    let dir = tmp_dir("warm");
    let cold = loadtest::run(&loadtest_cfg(2, Some(dir.clone())));
    let warm = loadtest::run(&loadtest_cfg(2, Some(dir)));
    assert!(cold.certification_failures.is_empty());
    assert!(warm.certification_failures.is_empty());
    assert!(
        warm.hit_rate_pct > cold.hit_rate_pct,
        "warm {} <= cold {}",
        warm.hit_rate_pct,
        cold.hit_rate_pct
    );
    assert_eq!(warm.hit_rate_pct, 100.0, "every request warm-served");
}

/// Runs `input` through `serve_lines` on a one-worker server and returns
/// the parsed response lines.
fn serve_bytes(input: &[u8]) -> Vec<Value> {
    let server = Server::start_new(ServerConfig::new(1));
    let mut out = Vec::new();
    rtise_serve::serve_lines(&server, input, &mut out).expect("session ends cleanly");
    server.shutdown();
    String::from_utf8(out)
        .expect("responses are UTF-8")
        .lines()
        .map(|l| rtise_obs::json::parse(l).expect("response parses"))
        .collect()
}

/// A request nested far deeper than the JSON depth limit gets one error
/// response instead of overflowing the stack, and the session goes on.
#[test]
fn deeply_nested_line_gets_an_error_response() {
    let mut input = "[".repeat(200_000).into_bytes();
    input.extend_from_slice(b"\n{\"id\": 2, \"kind\": \"ilp\", \"seed\": 1}\n");
    let responses = serve_bytes(&input);
    assert_eq!(responses.len(), 2);
    assert_eq!(responses[0].get("ok"), Some(&Value::Bool(false)));
    let error = responses[0]
        .get("error")
        .and_then(Value::as_str)
        .unwrap_or("");
    assert!(
        error.contains("nesting too deep"),
        "unexpected error: {error}"
    );
    assert_eq!(responses[1].get("ok"), Some(&Value::Bool(true)));
    for resp in &responses {
        assert!(rtise::check::serve::check_response(resp).is_clean());
    }
}

/// A line of invalid UTF-8 gets an id-0 error response; the valid request
/// after it is still answered.
#[test]
fn invalid_utf8_line_does_not_end_the_session() {
    let responses =
        serve_bytes(b"{\"id\": 1, \xff\xfe}\r\n{\"id\": 2, \"kind\": \"ilp\", \"seed\": 1}\n");
    assert_eq!(responses.len(), 2);
    assert_eq!(responses[0].get("ok"), Some(&Value::Bool(false)));
    assert_eq!(responses[0].get("id").and_then(Value::as_f64), Some(0.0));
    let error = responses[0]
        .get("error")
        .and_then(Value::as_str)
        .unwrap_or("");
    assert!(
        error.contains("not valid UTF-8"),
        "unexpected error: {error}"
    );
    assert_eq!(responses[1].get("ok"), Some(&Value::Bool(true)));
    assert_eq!(responses[1].get("id").and_then(Value::as_f64), Some(2.0));
    for resp in &responses {
        assert!(rtise::check::serve::check_response(resp).is_clean());
    }
}

/// A line longer than `MAX_LINE_BYTES` gets one id-0 error response and
/// is skipped; a padded request of exactly the limit is still served, and
/// so is the request after the overlong line.
#[test]
fn overlong_line_gets_an_error_response() {
    use rtise_serve::server::MAX_LINE_BYTES;
    let request = |id: u64| format!("{{\"id\": {id}, \"kind\": \"ilp\", \"seed\": 1}}");
    let mut input = request(1).into_bytes();
    input.resize(MAX_LINE_BYTES, b' ');
    input.push(b'\n');
    input.extend(std::iter::repeat_n(b'[', MAX_LINE_BYTES + 1));
    input.extend(format!("\n{}\n", request(3)).bytes());
    let responses = serve_bytes(&input);
    assert_eq!(responses.len(), 3);
    assert_eq!(responses[0].get("ok"), Some(&Value::Bool(true)));
    assert_eq!(responses[0].get("id").and_then(Value::as_f64), Some(1.0));
    assert_eq!(responses[1].get("ok"), Some(&Value::Bool(false)));
    assert_eq!(responses[1].get("id").and_then(Value::as_f64), Some(0.0));
    let error = responses[1]
        .get("error")
        .and_then(Value::as_str)
        .unwrap_or("");
    assert!(error.contains("longer than"), "unexpected error: {error}");
    assert_eq!(responses[2].get("ok"), Some(&Value::Bool(true)));
    assert_eq!(responses[2].get("id").and_then(Value::as_f64), Some(3.0));
    for resp in &responses {
        assert!(rtise::check::serve::check_response(resp).is_clean());
    }
}
