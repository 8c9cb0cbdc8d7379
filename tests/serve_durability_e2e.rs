//! Crash-recovery end-to-end tests of the durable `gesmc-serve` mode
//! (`--data-dir`).
//!
//! Each test spawns the server as a **separate child process** (this test
//! binary re-executing itself), talks to it over real sockets, kills it
//! with SIGKILL — no destructors, no flushing, the same failure a power
//! loss produces — and then restarts it on the same data dir.  The
//! acceptance properties:
//!
//! * finished work survives: one-shot samples come back from the
//!   rehydrated disk cache (`X-Gesmc-Cache: hit`) and finished job records
//!   (with all their samples) are immediately fetchable, bit-identically;
//! * a job killed mid-flight resumes from its checkpoint and its samples
//!   are **byte-identical** to an uninterrupted control run;
//! * a torn journal tail and a corrupted checkpoint are both skipped
//!   cleanly on boot — metered, never a panic, never a wrong sample.

mod common;

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use common::{boot, http, metric, BINARY};
use gesmc::cluster::wire;
use gesmc::prelude::{ServeConfig, Server};

/// The child half of the re-exec trick: boot a durable server on an
/// ephemeral port, publish the resolved address, and serve until killed.
/// `#[ignore]` keeps it out of normal runs; the parent invokes it by name.
#[test]
#[ignore = "child process entry point, spawned by the crash tests"]
fn child_server_main() {
    let data_dir = PathBuf::from(
        std::env::var("GESMC_CHILD_DATA_DIR").expect("child needs GESMC_CHILD_DATA_DIR"),
    );
    let checkpoint_every: u64 =
        std::env::var("GESMC_CHILD_CKPT_EVERY").ok().and_then(|v| v.parse().ok()).unwrap_or(25);
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        http_workers: 2,
        engine_workers: 2,
        data_dir: Some(data_dir.clone()),
        checkpoint_every,
        ..ServeConfig::default()
    };
    let server = Server::bind(config).expect("child bind");
    // Publish the resolved address atomically so the parent never reads a
    // partial write.
    let tmp = data_dir.join("addr.tmp");
    std::fs::write(&tmp, server.local_addr().to_string()).expect("write addr");
    std::fs::rename(&tmp, data_dir.join("addr.txt")).expect("publish addr");
    server.wait(); // blocks until SIGKILL
}

struct ChildServer {
    child: Child,
    addr: SocketAddr,
}

impl ChildServer {
    /// Spawn the child server on `data_dir` and wait until it answers
    /// `/healthz`.
    fn spawn(data_dir: &Path, checkpoint_every: u64) -> Self {
        std::fs::create_dir_all(data_dir).expect("create data dir");
        let addr_file = data_dir.join("addr.txt");
        let _ = std::fs::remove_file(&addr_file);
        let child = Command::new(std::env::current_exe().expect("current exe"))
            .args(["child_server_main", "--exact", "--ignored", "--nocapture"])
            .env("GESMC_CHILD_DATA_DIR", data_dir)
            .env("GESMC_CHILD_CKPT_EVERY", checkpoint_every.to_string())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn child server");

        let deadline = Instant::now() + Duration::from_secs(60);
        let addr: SocketAddr = loop {
            if let Ok(text) = std::fs::read_to_string(&addr_file) {
                if let Ok(addr) = text.trim().parse() {
                    break addr;
                }
            }
            assert!(Instant::now() < deadline, "child never published its address");
            std::thread::sleep(Duration::from_millis(20));
        };
        loop {
            let healthz = wire::request(&addr.to_string(), "GET", "/healthz", &[], b"");
            if healthz.is_ok_and(|r| r.status == 200) {
                break;
            }
            assert!(Instant::now() < deadline, "child never became healthy");
            std::thread::sleep(Duration::from_millis(20));
        }
        Self { child, addr }
    }

    /// SIGKILL — no graceful teardown, no flush.
    fn kill(mut self) {
        self.child.kill().expect("kill child");
        self.child.wait().expect("reap child");
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gesmc-durability-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Poll `GET /v1/jobs/{id}` until the job reaches a terminal state.
fn wait_for_terminal(addr: SocketAddr, id: u64) -> String {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let response = http(addr, "GET", &format!("/v1/jobs/{id}"), &[], "");
        assert_eq!(response.status, 200, "job {id} must stay queryable");
        let text = String::from_utf8_lossy(&response.body).to_string();
        if text.contains("\"done\"")
            || text.contains("\"failed\"")
            || text.contains("\"cancelled\"")
        {
            return text;
        }
        assert!(Instant::now() < deadline, "job {id} never finished: {text}");
        std::thread::sleep(Duration::from_millis(30));
    }
}

/// Fetch all `count` samples of a job in the binary encoding.
fn fetch_samples(addr: SocketAddr, id: u64, count: usize) -> Vec<Vec<u8>> {
    (0..count)
        .map(|k| {
            let response = http(addr, "GET", &format!("/v1/jobs/{id}/samples/{k}"), BINARY, "");
            assert_eq!(response.status, 200, "sample {k} of job {id} must be fetchable");
            assert!(!response.body.is_empty());
            response.body
        })
        .collect()
}

/// The mid-flight job used by the crash tests: big enough to survive until
/// the SIGKILL, small enough for debug-mode CI.
const CRASH_JOB: &str = r#"{"name":"crashme","generate":{"family":"pld","edges":800,"nodes":400,"gamma":2.5,"seed":11},"algo":"par-global-es","supersteps":30000,"thinning":10000,"seed":7}"#;
const CRASH_JOB_SAMPLES: usize = 3;

/// Run `CRASH_JOB` uninterrupted on an in-process, in-memory server and
/// return its sample bytes — the control every crash test compares against.
fn control_samples() -> Vec<Vec<u8>> {
    let server = boot(|c| c.http_workers = 2);
    let addr = server.local_addr();
    let response = http(addr, "POST", "/v1/jobs", &[], CRASH_JOB);
    assert_eq!(response.status, 202, "{}", String::from_utf8_lossy(&response.body));
    let terminal = wait_for_terminal(addr, 1);
    assert!(terminal.contains("\"done\""), "{terminal}");
    let samples = fetch_samples(addr, 1, CRASH_JOB_SAMPLES);
    server.shutdown();
    samples
}

#[test]
fn finished_work_survives_sigkill_and_serves_from_disk() {
    let dir = temp_dir("finished");
    let server = ChildServer::spawn(&dir, 25);
    let addr = server.addr;

    // One-shot sample: computed, cached, and spilled.
    let sample_path = "/v1/sample?graph=pld:m=400&algo=par-global-es&supersteps=20";
    let cold = http(addr, "GET", sample_path, BINARY, "");
    assert_eq!(cold.status, 200);
    assert_eq!(cold.header("x-gesmc-cache"), Some("miss"));

    // A small async job, run to completion.
    let job = r#"{"name":"smalljob","generate":{"family":"gnp","edges":300,"nodes":150,"seed":5},"supersteps":60,"thinning":20,"seed":3}"#;
    let response = http(addr, "POST", "/v1/jobs", &[], job);
    assert_eq!(response.status, 202, "{}", String::from_utf8_lossy(&response.body));
    let terminal = wait_for_terminal(addr, 1);
    assert!(terminal.contains("\"done\""), "{terminal}");
    let samples_before = fetch_samples(addr, 1, 3);

    server.kill();

    // Reboot on the same dir: everything must come back, bit-identically.
    let server = ChildServer::spawn(&dir, 25);
    let addr = server.addr;

    let warm = http(addr, "GET", sample_path, BINARY, "");
    assert_eq!(warm.status, 200);
    assert_eq!(
        warm.header("x-gesmc-cache"),
        Some("hit"),
        "a restarted node must serve the spilled one-shot sample as a cache hit"
    );
    assert_eq!(warm.body, cold.body, "rehydrated sample must be bit-identical");
    assert!(metric(addr, "gesmc_persist_cache_rehydrated_total") >= 1);

    let terminal = wait_for_terminal(addr, 1);
    assert!(terminal.contains("\"done\""), "restored record must be done: {terminal}");
    assert!(
        terminal.contains("\"samples\": 3") || terminal.contains("\"samples\":3"),
        "{terminal}"
    );
    let samples_after = fetch_samples(addr, 1, 3);
    assert_eq!(samples_after, samples_before, "restored job samples must be bit-identical");
    assert!(metric(addr, "gesmc_persist_jobs_restored_total") >= 1);

    server.kill();
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn sigkill_mid_job_resumes_bit_identically() {
    let control = control_samples();

    let dir = temp_dir("resume");
    let server = ChildServer::spawn(&dir, 100);
    let addr = server.addr;
    let response = http(addr, "POST", "/v1/jobs", &[], CRASH_JOB);
    assert_eq!(response.status, 202, "{}", String::from_utf8_lossy(&response.body));

    // Wait for at least one checkpoint to land, then pull the plug.
    let ckpt = dir.join("jobs").join("1").join("job.ckpt");
    let deadline = Instant::now() + Duration::from_secs(120);
    while !ckpt.exists() {
        assert!(Instant::now() < deadline, "no checkpoint ever appeared");
        std::thread::sleep(Duration::from_millis(10));
    }
    server.kill();

    let server = ChildServer::spawn(&dir, 100);
    let addr = server.addr;
    assert!(
        metric(addr, "gesmc_persist_jobs_resumed_total") >= 1,
        "the interrupted job must go down the resume path"
    );
    let terminal = wait_for_terminal(addr, 1);
    assert!(terminal.contains("\"done\""), "resumed job must finish: {terminal}");
    let samples = fetch_samples(addr, 1, CRASH_JOB_SAMPLES);
    assert_eq!(
        samples, control,
        "samples of the killed-and-resumed run must be byte-identical to the uninterrupted run"
    );

    server.kill();
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn torn_journal_and_corrupt_checkpoint_are_skipped_cleanly() {
    let control = control_samples();

    let dir = temp_dir("corrupt");
    let server = ChildServer::spawn(&dir, 100);
    let addr = server.addr;
    let response = http(addr, "POST", "/v1/jobs", &[], CRASH_JOB);
    assert_eq!(response.status, 202, "{}", String::from_utf8_lossy(&response.body));
    let ckpt = dir.join("jobs").join("1").join("job.ckpt");
    let deadline = Instant::now() + Duration::from_secs(120);
    while !ckpt.exists() {
        assert!(Instant::now() < deadline, "no checkpoint ever appeared");
        std::thread::sleep(Duration::from_millis(10));
    }
    server.kill();

    // Damage both recovery inputs: a torn journal tail (as if the process
    // died mid-append) and a flipped byte inside the checkpoint.
    let journal = dir.join("jobs.journal");
    let mut bytes = std::fs::read(&journal).expect("journal exists");
    bytes.extend_from_slice(&[0xAB; 64]);
    std::fs::write(&journal, &bytes).unwrap();
    let mut ckpt_bytes = std::fs::read(&ckpt).expect("checkpoint exists");
    let mid = ckpt_bytes.len() / 2;
    ckpt_bytes[mid] ^= 0xFF;
    std::fs::write(&ckpt, &ckpt_bytes).unwrap();

    // Boot must succeed anyway: the tail is skipped (metered), the corrupt
    // checkpoint is rejected, and the job restarts from scratch — which by
    // seed determinism still produces the control bytes.
    let server = ChildServer::spawn(&dir, 100);
    let addr = server.addr;
    assert!(
        metric(addr, "gesmc_persist_journal_skipped_total") >= 1,
        "the torn tail must be counted"
    );
    assert!(
        metric(addr, "gesmc_persist_errors_total") >= 1,
        "the corrupt checkpoint must be counted"
    );
    let terminal = wait_for_terminal(addr, 1);
    assert!(terminal.contains("\"done\""), "restarted job must finish: {terminal}");
    let samples = fetch_samples(addr, 1, CRASH_JOB_SAMPLES);
    assert_eq!(samples, control, "from-scratch recovery must still be bit-identical");

    server.kill();
    let _ = std::fs::remove_dir_all(dir);
}
