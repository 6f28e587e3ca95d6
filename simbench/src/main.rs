//! Layer-attributed host-time benchmark of the StepStone simulator.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path simbench/Cargo.toml -- \
//!     --workload <paper_gemm|table1_layers|paged_gemm|serving_sweep> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics (`setup_s`, `wall_s`,
//! `peak_rss_mb`) through the simulator's one-call entry points.
//! `--trace 1` alternates untraced passes with passes re-composed from
//! each layer's public calls inside spans, and reports per-layer metrics.
//! Either way every simulated op is checked (see `check.rs`), and the
//! last stdout line is one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`. `README.md` holds the methodology.

mod calib;
mod check;
mod compose;
mod metrics;
mod trace;
mod workloads;

use calib::Calibration;
use check::{Checker, Fingerprints, DEFAULT_SEED};
use metrics::{layer_metrics, median, Metric};
use std::process::Command;
use std::time::{Duration, Instant};
use trace::Tracer;
use workloads::{Kind, Workload};

/// Cold set-ups, each measured in a fresh child process: process-wide
/// caches (AGEN skeletons, corrector tables) start empty only in a new
/// process.
const SETUP_CHILDREN: usize = 3;
/// Fewest measured passes, however long they take.
const MIN_PASSES: usize = 4;

enum Mode {
    Run {
        kind: Kind,
        seed: u64,
        seconds: f64,
        trace: bool,
    },
    /// Internal: one cold set-up, printed as `setup_s <seconds> failed <ops>`.
    SetupChild { kind: Kind, seed: u64 },
    /// Print the fingerprint table of every workload at the default seed.
    RecordFingerprints,
}

fn parse_args() -> Result<Mode, String> {
    let mut kind = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = None;
    let mut trace = None;
    let mut setup_child = false;
    let mut record = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                kind = Some(Kind::by_name(&v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} out of range (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace must be 0 or 1, not {v}")),
                })
            }
            "--setup-child" => setup_child = true,
            "--record-fingerprints" => record = true,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if record {
        return Ok(Mode::RecordFingerprints);
    }
    let kind = kind.ok_or("--workload is required")?;
    if setup_child {
        return Ok(Mode::SetupChild { kind, seed });
    }
    Ok(Mode::Run {
        kind,
        seed,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    let mode = match parse_args() {
        Ok(m) => m,
        Err(e) => {
            eprintln!("simbench: {e}");
            std::process::exit(2);
        }
    };
    let result = match mode {
        Mode::Run {
            kind,
            seed,
            seconds,
            trace: false,
        } => run_untraced(kind, seed, seconds),
        Mode::Run {
            kind,
            seed,
            seconds,
            trace: true,
        } => run_traced(kind, seed, seconds),
        Mode::SetupChild { kind, seed } => {
            let (cold, setup_s) = Calibration::default().timed(|| Workload::new(kind, seed).pass());
            let mut checker = Checker::new(Fingerprints::recorded(), seed);
            checker.check_pass(&cold.ops, &cold.counters, false);
            println!(
                "setup_s {setup_s} attempted {} failed {}",
                checker.attempted, checker.failed
            );
            Ok(())
        }
        Mode::RecordFingerprints => {
            println!("# Simulated outputs per op at seed {DEFAULT_SEED}: see README.md.");
            for kind in Kind::ALL {
                print!(
                    "{}",
                    Fingerprints::format(&Workload::new(kind, DEFAULT_SEED).pass().ops)
                );
            }
            Ok(())
        }
    };
    if let Err(e) = result {
        eprintln!("simbench: {e}");
        std::process::exit(1);
    }
}

/// One cold set-up in a fresh process of this binary: its seconds and
/// its ops (attempted, failed).
fn child_setup(kind: Kind, seed: u64) -> Result<(f64, u64, u64), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args([
            "--setup-child",
            "--workload",
            kind.name(),
            "--seed",
            &seed.to_string(),
        ])
        .output()
        .map_err(|e| format!("set-up child: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "set-up child failed: {}",
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let bad = |e: &dyn std::fmt::Display| format!("set-up child output {text:?}: {e}");
    let fields: Vec<&str> = text.split_whitespace().collect();
    match fields.as_slice() {
        ["setup_s", s, "attempted", a, "failed", f] => Ok((
            s.parse().map_err(|e| bad(&e))?,
            a.parse().map_err(|e| bad(&e))?,
            f.parse().map_err(|e| bad(&e))?,
        )),
        _ => Err(bad(&"unexpected format")),
    }
}

/// Run `pass` back to back until `seconds` have elapsed (and at least
/// [`MIN_PASSES`] times).
fn measure(seconds: f64, mut pass: impl FnMut()) {
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut n = 0;
    while n < MIN_PASSES || start.elapsed() < budget {
        pass();
        n += 1;
    }
}

fn run_untraced(kind: Kind, seed: u64, seconds: f64) -> Result<(), String> {
    let mut checker = Checker::new(Fingerprints::recorded(), seed);
    let mut w = Workload::new(kind, seed);
    let cold = w.pass();
    checker.check_pass(&cold.ops, &cold.counters, false);
    // One warm-up pass grows the warm path's allocations; the peak is read
    // before the calibration buffers exist.
    let out = w.pass();
    checker.check_pass(&out.ops, &out.counters, true);
    let peak_rss_mb = peak_rss_mb()?;

    let mut setups = Vec::with_capacity(SETUP_CHILDREN);
    for _ in 0..SETUP_CHILDREN {
        let (setup_s, attempted, failed) = child_setup(kind, seed)?;
        checker.attempted += attempted;
        checker.failed += failed;
        setups.push(setup_s);
    }

    let mut cal = Calibration::default();
    let mut walls = Vec::new();
    measure(seconds, || {
        let (out, secs) = cal.timed(|| w.pass());
        walls.push(secs);
        checker.check_pass(&out.ops, &out.counters, true);
    });
    let metrics = vec![
        Metric::new("setup_s", median(&setups), "s"),
        Metric::new("wall_s", median(&walls), "s"),
        Metric::new("peak_rss_mb", peak_rss_mb, "MB"),
    ];
    println!(
        "{{\"workload\": \"{}\", \"seed\": {seed}, \"trace\": 0, {}, \"setup_samples\": {}, \
         \"passes\": {}}}",
        kind.name(),
        host_info(),
        setups.len(),
        walls.len(),
    );
    finish(&checker, &metrics);
    Ok(())
}

fn run_traced(kind: Kind, seed: u64, seconds: f64) -> Result<(), String> {
    let mut tr = Tracer::default();
    let mut checker = Checker::new(Fingerprints::recorded(), seed);
    let mut w = Workload::new(kind, seed);
    let mark = tr.mark();
    let cold = w.traced_pass(&mut tr);
    let cold_times = tr.layer_times(mark);
    checker.check_pass(&cold.ops, &cold.counters, false);
    let page_splits = w.page_splits();

    let mut cal = Calibration::default();
    let (mut plain, mut traced, mut warm) = (Vec::new(), Vec::new(), Vec::new());
    measure(seconds, || {
        let (out, secs) = cal.timed(|| w.pass());
        plain.push(secs);
        checker.check_pass(&out.ops, &out.counters, true);

        let mark = tr.mark();
        let (mut out, secs) = cal.timed(|| w.traced_pass(&mut tr));
        traced.push(secs);
        out.work.walk = tr.span("agen.walk", |_| w.agen_walk());
        checker.check_pass(&out.ops, &out.counters, true);
        warm.push((tr.layer_times(mark), out.work));
    });
    let overhead_s = median(&traced) - median(&plain);
    // The first warm pass still grows allocations.
    let warm = if warm.len() > 2 {
        &warm[1..]
    } else {
        &warm[..]
    };
    let metrics = layer_metrics((&cold_times, &cold.work), warm, page_splits, overhead_s);
    println!(
        "{{\"workload\": \"{}\", \"seed\": {seed}, \"trace\": 1, {}, \"traced_passes\": {}, \
         \"spans\": {}}}",
        kind.name(),
        host_info(),
        warm.len(),
        tr.mark(),
    );
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    let path = format!("{dir}/spans-{}-seed{seed}.tsv", kind.name());
    std::fs::create_dir_all(dir).map_err(|e| format!("{dir}: {e}"))?;
    std::fs::write(&path, tr.to_tsv()).map_err(|e| format!("{path}: {e}"))?;
    finish(&checker, &metrics);
    Ok(())
}

/// Host facts every result depends on: CPUs available and the engine's
/// thread count (the serial engine throughout).
fn host_info() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!("\"nproc\": {nproc}, \"engine_threads\": 1")
}

/// Peak resident set (VmHWM) of this process, in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Print failure reasons to stderr and the result line to stdout.
fn finish(checker: &Checker, metrics: &[Metric]) {
    for r in &checker.reasons {
        eprintln!("simbench: failed op {r}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checker.failed == 0,
        checker.attempted,
        checker.failed,
        body.join(", ")
    );
}
