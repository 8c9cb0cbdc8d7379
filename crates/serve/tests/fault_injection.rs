//! Fault injection over the persistence layer: every durable step
//! (journal append, fsync, sample/checkpoint write, rename) is failed
//! deterministically through the [`FaultIo`] seam, and the server must
//! degrade — refuse un-durable acknowledgements, absorb post-ack failures,
//! meter everything — without a panic and without acknowledging work it
//! then loses.

use gesmc_serve::{FaultIo, IoOp, PersistIo, ServeConfig, Server};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gesmc-fault-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn request(addr: SocketAddr, raw: &str) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(raw.as_bytes()).unwrap();
    let mut text = String::new();
    stream.read_to_string(&mut text).unwrap();
    let status: u16 = text.split(' ').nth(1).unwrap().parse().unwrap();
    let (head, body) = text.split_once("\r\n\r\n").unwrap_or((text.as_str(), ""));
    (status, head.to_string(), body.to_string())
}

fn get(addr: SocketAddr, path: &str) -> (u16, String, String) {
    request(addr, &format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n"))
}

fn post_json(addr: SocketAddr, path: &str, body: &str) -> (u16, String, String) {
    request(
        addr,
        &format!(
            "POST {path} HTTP/1.1\r\nHost: t\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    )
}

fn header<'a>(head: &'a str, name: &str) -> Option<&'a str> {
    head.lines().find_map(|line| {
        let (key, value) = line.split_once(':')?;
        (key.eq_ignore_ascii_case(name)).then(|| value.trim())
    })
}

fn metric(addr: SocketAddr, name: &str) -> u64 {
    let (status, _, body) = get(addr, "/metrics");
    assert_eq!(status, 200);
    body.lines()
        .find(|line| line.starts_with(name) && !line.starts_with('#'))
        .and_then(|line| line.split_whitespace().nth(1))
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or_else(|| panic!("metric {name} missing from scrape")) as u64
}

fn durable_server(tag: &str, io: Arc<FaultIo>) -> (Server, PathBuf) {
    let dir = temp_dir(tag);
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        http_workers: 2,
        engine_workers: 1,
        data_dir: Some(dir.clone()),
        checkpoint_every: 5,
        persist_io: Some(io as Arc<dyn PersistIo>),
        ..ServeConfig::default()
    };
    (Server::bind(config).unwrap(), dir)
}

const JOB_BODY: &str = r#"{"generate":{"family":"gnp","edges":200,"nodes":100,"seed":3},"supersteps":40,"thinning":20,"seed":9}"#;

fn wait_for_done(addr: SocketAddr, id: u64) -> String {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let (status, _, body) = get(addr, &format!("/v1/jobs/{id}"));
        assert_eq!(status, 200);
        if body.contains("\"done\"") || body.contains("\"failed\"") {
            return body;
        }
        assert!(Instant::now() < deadline, "job {id} never finished: {body}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn journal_append_fault_refuses_the_ack_then_recovers() {
    let io = Arc::new(FaultIo::new());
    let (server, dir) = durable_server("journal-append", Arc::clone(&io));
    let addr = server.local_addr();
    let errors_before = metric(addr, "gesmc_persist_errors_total");

    io.fail(IoOp::Append, "jobs.journal", 1);
    let (status, _, body) = post_json(addr, "/v1/jobs", JOB_BODY);
    assert_eq!(status, 503, "un-durable submission must be refused: {body}");
    assert!(body.contains("persistence unavailable"), "{body}");
    assert!(metric(addr, "gesmc_persist_errors_total") > errors_before);

    // The fault expired: the same submission is now journaled and accepted.
    let (status, _, body) = post_json(addr, "/v1/jobs", JOB_BODY);
    assert_eq!(status, 202, "{body}");
    let errors_after_ok = metric(addr, "gesmc_persist_errors_total");
    assert!(errors_after_ok > errors_before, "error counter must be monotone");
    server.shutdown();
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn journal_fsync_fault_refuses_the_ack() {
    let io = Arc::new(FaultIo::new());
    let (server, dir) = durable_server("journal-fsync", Arc::clone(&io));
    let addr = server.local_addr();

    io.fail(IoOp::Fsync, "jobs.journal", 1);
    let (status, _, body) = post_json(addr, "/v1/jobs", JOB_BODY);
    assert_eq!(status, 503, "an un-fsynced ack could be lost; must refuse: {body}");
    assert!(metric(addr, "gesmc_persist_errors_total") >= 1);

    // No acknowledged-then-lost job: nothing was acked, so nothing may
    // linger in the store either.
    let (status, _, _) = get(addr, "/v1/jobs/1");
    assert_eq!(status, 404, "refused submission must not leave a job record");
    server.shutdown();
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn input_spill_fault_refuses_inline_edge_jobs() {
    let io = Arc::new(FaultIo::new());
    let (server, dir) = durable_server("input-spill", Arc::clone(&io));
    let addr = server.local_addr();

    io.fail(IoOp::Write, "input.tmp", 1);
    let body = r#"{"edges":[[0,1],[1,2],[2,3],[3,0],[0,2]],"supersteps":10,"thinning":5}"#;
    let (status, _, text) = post_json(addr, "/v1/jobs", body);
    assert_eq!(status, 503, "job input that cannot be persisted must be refused: {text}");

    io.clear();
    let (status, _, text) = post_json(addr, "/v1/jobs", body);
    assert_eq!(status, 202, "{text}");
    server.shutdown();
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn cache_spill_faults_degrade_to_in_memory_serving() {
    let io = Arc::new(FaultIo::new());
    let (server, dir) = durable_server("cache-spill", Arc::clone(&io));
    let addr = server.local_addr();

    // Fail both the tmp write and (belt and braces) the rename into the
    // cache directory: the sample must still be computed and served.
    io.fail(IoOp::Write, "cache/", 8);
    io.fail(IoOp::Rename, "cache/", 8);
    let path = "/v1/sample?graph=pld:m=500&algo=par-global-es&supersteps=10";
    let (status, head, first_body) = get(addr, path);
    assert_eq!(status, 200);
    assert_eq!(header(&head, "X-Gesmc-Cache"), Some("miss"));
    assert!(metric(addr, "gesmc_persist_errors_total") >= 1);

    // The in-memory cache still works; the spill failure cost durability,
    // not correctness.
    let (status, head, second_body) = get(addr, path);
    assert_eq!(status, 200);
    assert_eq!(header(&head, "X-Gesmc-Cache"), Some("hit"));
    assert_eq!(first_body, second_body, "hit must serve identical bytes");
    server.shutdown();
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn checkpoint_write_faults_do_not_kill_the_job() {
    let io = Arc::new(FaultIo::new());
    let (server, dir) = durable_server("ckpt-write", Arc::clone(&io));
    let addr = server.local_addr();

    // Fail every checkpoint write (tmp file and rename) for this job.
    io.fail(IoOp::Write, "job.tmp", 1000);
    io.fail(IoOp::Rename, "job.ckpt", 1000);
    let (status, _, body) = post_json(addr, "/v1/jobs", JOB_BODY);
    assert_eq!(status, 202, "{body}");
    let status_body = wait_for_done(addr, 1);
    assert!(
        status_body.contains("\"done\""),
        "checkpoint faults must not fail the job: {status_body}"
    );
    assert!(metric(addr, "gesmc_persist_errors_total") >= 1);
    assert_eq!(metric(addr, "gesmc_persist_checkpoints_total"), 0);
    server.shutdown();
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn sample_spill_faults_keep_samples_fetchable_in_memory() {
    let io = Arc::new(FaultIo::new());
    let (server, dir) = durable_server("sample-spill", Arc::clone(&io));
    let addr = server.local_addr();

    io.fail(IoOp::Write, "sample-", 1000);
    let (status, _, body) = post_json(addr, "/v1/jobs", JOB_BODY);
    assert_eq!(status, 202, "{body}");
    let status_body = wait_for_done(addr, 1);
    assert!(status_body.contains("\"done\""), "{status_body}");
    let (status, _, sample) = get(addr, "/v1/jobs/1/samples/0");
    assert_eq!(status, 200, "in-memory sample must be served despite spill faults");
    assert!(!sample.is_empty());
    assert!(metric(addr, "gesmc_persist_errors_total") >= 1);
    server.shutdown();
    let _ = std::fs::remove_dir_all(dir);
}

/// Bind a server onto an existing data dir (restart; nothing is wiped).
fn durable_server_at(dir: &Path, io: Arc<FaultIo>) -> Server {
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        http_workers: 2,
        engine_workers: 1,
        data_dir: Some(dir.to_path_buf()),
        checkpoint_every: 5,
        persist_io: Some(io as Arc<dyn PersistIo>),
        ..ServeConfig::default()
    };
    Server::bind(config).unwrap()
}

#[test]
fn corrupt_cache_spills_rehydrate_as_misses_never_as_wrong_bytes() {
    // The cache rehydration path streams spilled samples through the
    // zero-copy mapped GESMCEL1 view; every kind of damage to the spilled
    // file must surface as a recompute-miss with the identical bytes (seeds
    // derive from the cache key), never as a served wrong sample.
    let io = Arc::new(FaultIo::new());
    let (server, dir) = durable_server("corrupt-spill", Arc::clone(&io));
    let addr = server.local_addr();
    let path = "/v1/sample?graph=pld:m=500&algo=par-global-es&supersteps=10";
    let (status, head, original) = get(addr, path);
    assert_eq!(status, 200);
    assert_eq!(header(&head, "X-Gesmc-Cache"), Some("miss"));
    server.shutdown();

    let spill = std::fs::read_dir(dir.join("cache"))
        .unwrap()
        .flatten()
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|ext| ext == "el"))
        .expect("the sample must have spilled to cache/");
    let pristine = std::fs::read(&spill).unwrap();

    // Restart on the same data dir: the intact spill rehydrates through the
    // mapped view and serves as a hit, bytes bit-identical.
    let server = durable_server_at(&dir, Arc::new(FaultIo::new()));
    let addr = server.local_addr();
    let (status, head, body) = get(addr, path);
    assert_eq!(status, 200);
    assert_eq!(header(&head, "X-Gesmc-Cache"), Some("hit"), "intact spill must rehydrate");
    assert_eq!(body, original, "rehydrated bytes must be bit-identical");
    assert!(metric(addr, "gesmc_persist_cache_rehydrated_total") >= 1);
    // The probe counts once, with the result the response reports.
    assert_eq!(metric(addr, "gesmc_cache_hits_total"), 1, "a rehydrated sample is a hit");
    assert_eq!(metric(addr, "gesmc_cache_misses_total"), 0, "a rehydrated sample is a hit");
    server.shutdown();

    // Three damage modes against the mapped view: bad magic (rejected at
    // open), truncation (rejected at open), and a self-loop edge (rejected
    // during the validating stream).
    let bad_magic = {
        let mut b = pristine.clone();
        b[0..8].copy_from_slice(b"NOTMAGIC");
        b
    };
    let truncated = pristine[..pristine.len() - 4].to_vec();
    let self_loop = {
        let mut b = pristine.clone();
        b[24..28].copy_from_slice(&1u32.to_le_bytes());
        b[28..32].copy_from_slice(&1u32.to_le_bytes());
        b
    };
    for (mode, bytes) in
        [("bad magic", bad_magic), ("truncated", truncated), ("self-loop", self_loop)]
    {
        std::fs::write(&spill, &bytes).unwrap();
        let server = durable_server_at(&dir, Arc::new(FaultIo::new()));
        let addr = server.local_addr();
        let (status, head, body) = get(addr, path);
        assert_eq!(status, 200, "{mode}: the sample must be recomputed");
        assert_eq!(
            header(&head, "X-Gesmc-Cache"),
            Some("miss"),
            "{mode}: a corrupt spill must read as a miss"
        );
        assert_eq!(body, original, "{mode}: recomputed bytes must match (seeded)");
        assert!(metric(addr, "gesmc_persist_errors_total") >= 1, "{mode}: must be metered");
        assert_eq!(metric(addr, "gesmc_cache_hits_total"), 0, "{mode}: no hit");
        assert_eq!(metric(addr, "gesmc_cache_misses_total"), 1, "{mode}: one miss");
        server.shutdown();
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn error_counter_is_monotone_across_fault_bursts() {
    let io = Arc::new(FaultIo::new());
    let (server, dir) = durable_server("monotone", Arc::clone(&io));
    let addr = server.local_addr();

    let mut last = metric(addr, "gesmc_persist_errors_total");
    for round in 0..3 {
        io.fail(IoOp::Append, "jobs.journal", 1);
        let (status, _, _) = post_json(addr, "/v1/jobs", JOB_BODY);
        assert_eq!(status, 503, "round {round}");
        let now = metric(addr, "gesmc_persist_errors_total");
        assert!(now > last, "counter must strictly grow after an injected fault");
        last = now;
    }
    // Fault-free traffic never decreases it.
    let (status, _, _) = post_json(addr, "/v1/jobs", JOB_BODY);
    assert_eq!(status, 202);
    assert!(metric(addr, "gesmc_persist_errors_total") >= last);
    server.shutdown();
    let _ = std::fs::remove_dir_all(dir);
}
