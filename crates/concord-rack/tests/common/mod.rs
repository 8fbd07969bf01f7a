//! Backends in their own processes, for the rack tests that SIGKILL a
//! backend or measure their own CPU time.
//!
//! Cargo builds no other package's binaries for an integration test, so
//! a test binary that needs a `concord-serve` backend re-executes
//! itself: [`BackendProc::spawn`] runs `current_exe() --exact backend
//! --nocapture` with [`BACKEND_ENV`] set, and that binary's
//! `#[test] fn backend` calls [`serve_if_asked`], which serves until the
//! process is killed. Without the variable `backend` returns at once.

use concord_core::{RuntimeConfig, SpinApp};
use concord_server::{Server, ServerConfig};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::Duration;

/// Carries `LISTEN ADMIN SHARDS WORKERS` to a re-executed test binary
/// (`ADMIN` is `-` for none).
const BACKEND_ENV: &str = "CONCORD_RACK_TEST_BACKEND";

/// The body of each test binary's `#[test] fn backend`: unless
/// [`BACKEND_ENV`] is set, returns at once; otherwise binds a
/// `concord-serve` with its defaults (spin app, 5 µs `ps`) at the
/// variable's address, shards and workers, and serves until it is
/// killed, or exits once the test that spawned it is gone. Its
/// listener has `SO_REUSEADDR` set, as every `std` listener on Linux
/// does, so a SIGKILLed backend can restart on the same port at once.
pub fn serve_if_asked() {
    let Ok(spec) = std::env::var(BACKEND_ENV) else {
        return;
    };
    let [listen, admin, shards, workers] = spec.split(' ').collect::<Vec<_>>()[..] else {
        panic!("{BACKEND_ENV}={spec:?} is not `LISTEN ADMIN SHARDS WORKERS`");
    };
    let runtime = RuntimeConfig::builder()
        .num_shards(shards.parse().expect("shards"))
        .workers(workers.parse().expect("workers"))
        .build()
        .expect("runtime config");
    let mut cfg = ServerConfig::builder(runtime);
    if admin != "-" {
        cfg = cfg.admin(admin);
    }
    let cfg = cfg.build().expect("server config");
    let parent = std::os::unix::process::parent_id();
    let _server = Server::bind(listen, cfg, Arc::new(SpinApp::new())).expect("bind backend");
    while std::os::unix::process::parent_id() == parent {
        std::thread::sleep(Duration::from_millis(100));
    }
    std::process::exit(0);
}

/// A backend process, killed on drop so a failing test leaks nothing.
pub struct BackendProc(Child);

impl BackendProc {
    /// Re-executes this test binary as a backend on `listen` (and
    /// `admin`, if any).
    pub fn spawn(listen: &str, admin: Option<&str>, shards: usize, workers: usize) -> BackendProc {
        let spec = format!("{listen} {} {shards} {workers}", admin.unwrap_or("-"));
        let child = Command::new(std::env::current_exe().expect("test binary path"))
            .args(["--exact", "backend", "--nocapture"])
            .env(BACKEND_ENV, spec)
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn backend");
        BackendProc(child)
    }

    /// SIGKILL: no drain, no goodbye — the mid-load failure mode.
    pub fn kill(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

impl Drop for BackendProc {
    fn drop(&mut self) {
        self.kill();
    }
}
