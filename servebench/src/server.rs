//! The served side: a child process that sets up the cluster, binds a
//! loopback [`NetServer`] and serves until the client asks it to shut
//! down.
//!
//! The child speaks to its parent over its standard output, one line
//! per event:
//!
//! ```text
//! READY <addr> <setup seconds of each set-up>
//! DONE <frames_in> <frames_out> <decode_errors> <plan_errors> <peak_rss_kb>
//! ```
//!
//! Running the server in its own process keeps its set-up time and
//! peak memory apart from the load generator's. The child also watches
//! its standard input: when the parent closes it, or dies, the child
//! stops serving, so no server outlives its benchmark.

use std::io::{BufRead as _, BufReader, Read as _, Write as _};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::Instant;

use ivdss_net::server::{NetConfig, NetServer, ServerStats};

use crate::workload::{Workload, World};

/// Set-ups per pass; the last one serves.
const SETUPS: usize = 5;

/// Server-side numbers reported by the child.
pub struct ServerReport {
    /// Seconds from the start of each set-up until the listener was
    /// bound, in set-up order.
    pub setup_secs: Vec<f64>,
    /// The front door's counters.
    pub stats: ServerStats,
    /// Peak resident set of the server process, in KiB.
    pub peak_rss_kb: u64,
}

/// Builds the world, the cluster and the listener, and hands the bound
/// server to `f` with the set-up time.
fn with_server<R>(
    workload: Workload,
    seed: u64,
    queries: usize,
    f: impl FnOnce(&mut dyn ivdss_net::QueryService, NetServer, f64) -> Result<R, String>,
) -> Result<R, String> {
    let start = Instant::now();
    let world = World::build(workload, seed, queries);
    world.with_cluster(|cluster| {
        let server = NetServer::bind("127.0.0.1:0", NetConfig::default())
            .map_err(|e| format!("bind: {e}"))?;
        let setup = start.elapsed().as_secs_f64();
        f(cluster, server, setup)
    })
}

/// The child's entry point.
///
/// # Errors
///
/// Fails on set-up, bind or serve errors.
pub fn serve_child(workload: Workload, seed: u64, queries: usize) -> Result<(), String> {
    let mut setup_secs = Vec::with_capacity(SETUPS);
    for _ in 1..SETUPS {
        setup_secs.push(with_server(workload, seed, queries, |_, _, setup| {
            Ok(setup)
        })?);
    }
    with_server(workload, seed, queries, |service, server, setup| {
        setup_secs.push(setup);
        let addr = server.local_addr().map_err(|e| e.to_string())?;
        let secs: Vec<String> = setup_secs.iter().map(f64::to_string).collect();
        let mut out = std::io::stdout().lock();
        writeln!(out, "READY {addr} {}", secs.join(" ")).map_err(|e| e.to_string())?;
        out.flush().map_err(|e| e.to_string())?;
        let switch = server.shutdown_switch();
        std::thread::scope(|scope| {
            scope.spawn(move || {
                // Blocks until the parent closes our standard input,
                // which it does once `Shutdown` was answered.
                let _ = std::io::stdin().read_to_end(&mut Vec::new());
                switch.trip();
            });
            let stats = server.serve(service).map_err(|e| format!("serve: {e}"))?;
            writeln!(
                out,
                "DONE {} {} {} {} {}",
                stats.frames_in,
                stats.frames_out,
                stats.decode_errors,
                stats.plan_errors,
                peak_rss_kb()?
            )
            .map_err(|e| e.to_string())?;
            out.flush().map_err(|e| e.to_string())
        })
    })
}

/// Peak resident set size of this process (`VmHWM`), in KiB.
fn peak_rss_kb() -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_owned())
}

/// The running child. Dropping it kills a child that has not exited
/// and waits for it, so no server outlives the benchmark.
pub struct ServerProcess {
    child: Child,
    /// Held open while the child serves; closing it stops the child.
    stdin: Option<ChildStdin>,
    lines: BufReader<ChildStdout>,
    /// The address the child listens on.
    pub addr: String,
    setup_secs: Vec<f64>,
}

impl ServerProcess {
    /// Starts this executable in server mode and waits until it
    /// listens.
    ///
    /// # Errors
    ///
    /// Fails if the child cannot start or does not report `READY`.
    pub fn spawn(workload: Workload, seed: u64, seconds: u32) -> Result<ServerProcess, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut child = Command::new(exe)
            .args([
                "--serve",
                "--workload",
                workload.name(),
                "--seed",
                &seed.to_string(),
                "--seconds",
                &seconds.to_string(),
            ])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn server: {e}"))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let stdin = child.stdin.take();
        let mut process = ServerProcess {
            child,
            stdin,
            lines: BufReader::new(stdout),
            addr: String::new(),
            setup_secs: Vec::new(),
        };
        let line = process.next_line()?;
        let mut fields = line.split_whitespace();
        if fields.next() != Some("READY") {
            return Err(format!("server said {line:?} instead of READY"));
        }
        process.addr = fields.next().ok_or("READY without an address")?.to_owned();
        process.setup_secs = fields
            .map(|f| {
                f.parse::<f64>()
                    .map_err(|e| format!("setup time {f:?}: {e}"))
            })
            .collect::<Result<_, _>>()?;
        Ok(process)
    }

    fn next_line(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.lines.read_line(&mut line) {
            Ok(0) => Err("server exited without reporting".to_owned()),
            Ok(_) => Ok(line.trim_end().to_owned()),
            Err(e) => Err(format!("read server output: {e}")),
        }
    }

    /// Reads the child's final report and waits for it to exit. Call
    /// after the client's `Shutdown` was answered.
    ///
    /// # Errors
    ///
    /// Fails if the child reports nothing or exits unsuccessfully.
    pub fn finish(mut self) -> Result<ServerReport, String> {
        // The server has answered `Shutdown`; closing its input lets the
        // child exit once it has reported, or at once if it cannot.
        drop(self.stdin.take());
        let line = self.next_line()?;
        let fields: Vec<&str> = line.split_whitespace().collect();
        let numbers: Vec<u64> = match fields.split_first() {
            Some((&"DONE", rest)) if rest.len() == 5 => rest
                .iter()
                .map(|f| f.parse::<u64>().map_err(|e| format!("{f:?}: {e}")))
                .collect::<Result<_, _>>()?,
            _ => return Err(format!("server said {line:?} instead of DONE")),
        };
        let status = self.child.wait().map_err(|e| format!("wait server: {e}"))?;
        if !status.success() {
            return Err(format!("server exited with {status}"));
        }
        Ok(ServerReport {
            setup_secs: std::mem::take(&mut self.setup_secs),
            stats: ServerStats {
                frames_in: numbers[0],
                frames_out: numbers[1],
                decode_errors: numbers[2],
                plan_errors: numbers[3],
                ..ServerStats::default()
            },
            peak_rss_kb: numbers[4],
        })
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}
