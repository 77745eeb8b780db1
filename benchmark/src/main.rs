//! The repository's measuring stick. See `benchmark/README.md`.
//!
//! ```text
//! ecc-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--smoke] [--out FILE]
//! ecc-benchmark compare A.jsonl B.jsonl
//! ```
//!
//! One run drives one workload, checks its outputs and prints, as the
//! last line of standard output, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: every end-to-end metric on an
//! untraced run, every per-layer metric on a traced one. A detail line
//! (provenance, sample counts, exact counts, problems) goes to standard
//! error and, with `--out`, the whole record is appended to a file that
//! `compare` reads. The exit code is non-zero on any correctness failure.

mod calib;
mod catalog;
mod common;
mod compare;
mod json;
mod ops;
mod pacing;
mod payload;
mod probes;
mod spans;
mod stats;
mod workloads {
    pub mod live;
    pub mod sim;
    pub mod wire;
}

use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use common::{Outcome, RunCfg};
use json::Value;

/// Where traced runs write their spans: `benchmark/out/`, never committed.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Offered rate of `wire_mixed_open_low`: the reactor is cold between
/// arrivals.
const LOW_RATE: u64 = 500;
/// Offered rate of `wire_mixed_open_high`: the reactor stays hot.
const HIGH_RATE: u64 = 15_000;

struct Args {
    workload: Option<String>,
    cfg: RunCfg,
    out: Option<PathBuf>,
}

fn usage() -> String {
    format!(
        "usage: ecc-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out FILE]\n\
         \x20      ecc-benchmark compare A.jsonl B.jsonl\n\
         workloads: {}",
        catalog::WORKLOADS.join(", ")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        cfg: RunCfg {
            seed: common::DEFAULT_SEED,
            seconds: 10.0,
            trace: false,
            smoke: false,
        },
        out: None,
    };
    let mut seconds_given = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !catalog::WORKLOADS.contains(&name.as_str()) {
                    return Err(format!("unknown workload {name}\n{}", usage()));
                }
                args.workload = Some(name.clone());
            }
            "--seed" => {
                args.cfg.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number".to_owned())?;
            }
            "--seconds" => {
                let s: f64 = value()?
                    .parse()
                    .map_err(|_| "--seconds takes a number".to_owned())?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_owned());
                }
                args.cfg.seconds = s;
                seconds_given = true;
            }
            "--trace" => {
                args.cfg.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                };
            }
            "--smoke" => args.cfg.smoke = true,
            "--out" => args.out = Some(PathBuf::from(value()?)),
            _ => return Err(format!("unknown argument {flag}\n{}", usage())),
        }
    }
    if args.cfg.smoke && !seconds_given {
        args.cfg.seconds = 1.0;
    }
    Ok(args)
}

fn run_workload(name: &str, cfg: &RunCfg) -> io::Result<Outcome> {
    match name {
        "live_paper_elastic" => workloads::live::run(cfg),
        "wire_get_pipelined" => workloads::wire::get_pipelined(cfg),
        "wire_mixed_open_low" => workloads::wire::mixed_open(cfg, LOW_RATE, common::TIMER_BOUND),
        "wire_mixed_open_high" => {
            workloads::wire::mixed_open(cfg, HIGH_RATE, common::CORE_BOUND_SHARE)
        }
        "sim_paper_phases" => workloads::sim::run(cfg),
        other => Err(io::Error::other(format!("unknown workload {other}"))),
    }
}

/// The head of the workload's own key stream, for the layer probes.
fn probe_inputs(name: &str, seed: u64) -> (Vec<u64>, usize) {
    let (stream, value_len) = match name {
        "live_paper_elastic" => (ops::live(seed), ops::RECORD_VALUE),
        "wire_get_pipelined" => (ops::wire_get(seed), ops::WIRE_SMALL_VALUE),
        "sim_paper_phases" => (ops::sim(seed), 1024),
        _ => (ops::wire_mixed(seed), ops::RECORD_VALUE),
    };
    let keys = stream
        .take_steps_ops(u64::MAX)
        .take(probes::PROBE_KEYS)
        .map(|(_, _, key)| key)
        .collect();
    (keys, value_len)
}

/// Metrics that combine a workload's spans, the program's obs snapshots
/// and the probes.
fn derive(name: &str, out: &mut Outcome) {
    let get = |out: &Outcome, key: &str| out.values.get(key).copied().unwrap_or(0.0);
    for (name, key) in [
        ("loadgen.ops_per_s", "ops_per_s"),
        ("loadgen.lat_p50_us", "lat_p50_us"),
    ] {
        let v = get(out, key);
        out.set(name, v);
    }
    out.set("trace.spans_recorded", out.spans.spans().len() as f64);
    // The recv span of a pipelined window holds the payload checks too.
    let verify_us = get(out, "net.client.verify_ns") * ops::PIPELINE_WINDOW as f64 / 1e3;
    let recv = get(out, "net.client.recv_wait_us");
    if recv > 0.0 {
        out.set("net.client.recv_wait_us", (recv - verify_us).max(0.0));
    }
    // Transport = what one request spends outside the codec (both sides)
    // and the storage op: syscalls, loopback, the scheduler, and the wait
    // for a reactor to notice the bytes. The reactor's own wake-to-flush
    // histogram is not subtracted: on one CPU the client it has just
    // woken preempts it before it reads the clock again, so that interval
    // contains client time.
    let codec_us =
        2.0 * (get(out, "net.protocol.encode_ns") + get(out, "net.protocol.decode_ns")) / 1e3;
    let (op_get, op_put) = (
        get(out, "net.server.op_us_mean.get"),
        get(out, "net.server.op_us_mean.put"),
    );
    let (request_us, op_us) = match name {
        "wire_get_pipelined" => (
            (get(out, "net.client.flush_us") + get(out, "net.client.recv_wait_us"))
                / ops::PIPELINE_WINDOW as f64,
            op_get,
        ),
        "live_paper_elastic" => (get(out, "net.coordinator.get_us"), op_get),
        "sim_paper_phases" => (0.0, 0.0),
        _ => {
            let w = ops::WIRE_WRITE_RATIO;
            (
                get(out, "net.client.call_us.get") * (1.0 - w)
                    + get(out, "net.client.call_us.put") * w,
                op_get * (1.0 - w) + op_put * w,
            )
        }
    };
    if request_us > 0.0 {
        let transport = (request_us - op_us - codec_us).max(0.0);
        out.set("net.transport_us", transport);
        out.set("net.transport_share", transport / request_us);
    }
}

/// Short git revision of the checkout, read from `.git` without running
/// git (the driver's checkout is not a repository: "unknown").
fn git_sha() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let sha = match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(git.join(reference)).unwrap_or_default(),
        None => head.to_owned(),
    };
    let sha = sha.trim();
    if sha.len() >= 12 && sha.chars().all(|c| c.is_ascii_hexdigit()) {
        sha[..12].to_owned()
    } else {
        "unknown".to_owned()
    }
}

fn metrics_object(out: &Outcome, trace: bool, problems: &mut Vec<String>) -> Value {
    let list: &[(&str, &str, &str)] = if trace {
        &catalog::PER_LAYER
    } else {
        &catalog::END_TO_END
    };
    let mut members = Vec::new();
    for (name, unit, _) in list {
        let value = match out.values.get(name) {
            Some(v) => *v,
            // A layer the workload does not exercise did no work.
            None if trace => 0.0,
            None => {
                problems.push(format!("end-to-end metric {name} was not measured"));
                0.0
            }
        };
        members.push((
            (*name).to_owned(),
            json::obj([("value", json::num(value)), ("unit", json::str(*unit))]),
        ));
    }
    Value::Obj(members)
}

/// Run one workload and print its result line. Returns whether it was
/// correct.
fn run_one(name: &str, cfg: &RunCfg, out_file: Option<&Path>) -> bool {
    let mut outcome = match run_workload(name, cfg) {
        Ok(outcome) => outcome,
        Err(e) => {
            // An I/O error or a refusal ends the workload: the operation
            // that hit it failed, and so did the run.
            let mut failed = Outcome {
                attempted: 1,
                failed: 1,
                ..Outcome::default()
            };
            failed.problems.push(format!("workload aborted: {e}"));
            failed
        }
    };
    outcome.set("peak_rss_mb", common::peak_rss_mb());
    let mut trace_file = None;
    if cfg.trace && outcome.problems.is_empty() {
        let (keys, value_len) = probe_inputs(name, cfg.seed);
        probes::run(&mut outcome, &keys, value_len);
        derive(name, &mut outcome);
        let path = out_dir().join(format!("trace-{name}.jsonl"));
        match outcome.spans.write_jsonl(&path) {
            Ok((recorded, written)) => {
                trace_file = Some((path, recorded, written));
            }
            Err(e) => outcome
                .problems
                .push(format!("cannot write {}: {e}", path.display())),
        }
    }

    let mut problems = std::mem::take(&mut outcome.problems);
    let metrics = metrics_object(&outcome, cfg.trace, &mut problems);
    let correct = problems.is_empty() && outcome.failed == 0 && outcome.attempted >= 1;
    let result = json::obj([
        ("correct", Value::Bool(correct)),
        ("attempted", json::num(outcome.attempted.max(1) as f64)),
        ("failed", json::num(outcome.failed as f64)),
        ("metrics", metrics),
    ]);

    let mut detail = vec![
        ("workload".to_owned(), json::str(name)),
        ("seed".to_owned(), json::num(cfg.seed as f64)),
        ("seconds".to_owned(), json::num(cfg.seconds)),
        ("trace".to_owned(), Value::Bool(cfg.trace)),
        ("smoke".to_owned(), Value::Bool(cfg.smoke)),
        ("git_sha".to_owned(), json::str(git_sha())),
        ("nproc".to_owned(), json::num(host_cpus() as f64)),
        (
            "pinned_cpu".to_owned(),
            std::env::var(PINNED_ENV)
                .ok()
                .and_then(|cpu| cpu.parse::<f64>().ok())
                .map_or(Value::Null, Value::Num),
        ),
        (
            "profile".to_owned(),
            json::str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
    ];
    detail.append(&mut outcome.detail);
    if let Some((path, recorded, written)) = trace_file {
        detail.push((
            "trace_file".to_owned(),
            json::str(path.display().to_string()),
        ));
        detail.push(("spans_recorded".to_owned(), json::num(recorded as f64)));
        detail.push(("spans_written".to_owned(), json::num(written as f64)));
    }
    detail.push((
        "problems".to_owned(),
        Value::Arr(problems.iter().map(json::str).collect()),
    ));
    let detail = Value::Obj(detail);
    eprintln!("{}", detail.to_line());

    if let Some(path) = out_file {
        let record = json::obj([("detail", detail), ("result", result.clone())]);
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| writeln!(f, "{}", record.to_line()));
        if let Err(e) = appended {
            eprintln!("cannot append to {}: {e}", path.display());
            return false;
        }
    }
    println!("{}", result.to_line());
    correct
}

/// Set in the environment of the pinned child, holding the CPU it runs on.
const PINNED_ENV: &str = "ECC_BENCHMARK_PINNED_CPU";

/// Set beside it: how many CPUs the unpinned parent could use.
const HOST_CPUS_ENV: &str = "ECC_BENCHMARK_HOST_CPUS";

/// CPUs this process may use: the parent's count when pinned.
fn host_cpus() -> usize {
    std::env::var(HOST_CPUS_ENV)
        .ok()
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(0, |p| p.get()))
}

/// The last CPU this process may run on, from `/proc/self/status`.
fn last_allowed_cpu() -> Option<u32> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
    list.trim()
        .rsplit([',', '-'])
        .next()
        .and_then(|cpu| cpu.parse().ok())
}

/// Run this same command line again under `taskset -c <cpu>` and return
/// its exit code, or `None` when that cannot be done (no `taskset`, no
/// `/proc`): the run then goes ahead unpinned and says so.
///
/// On the two-vCPU reference host a wake-up that crosses vCPUs costs
/// ~25 µs while one on the same vCPU costs ~2 µs, and the scheduler's
/// choice between spreading and co-locating the generator and a reactor
/// holds for seconds: unpinned, the same binary runs at 250 k or 660 k
/// pipelined GETs/s. One CPU for the whole process takes that draw away.
fn rerun_pinned(argv: &[String]) -> Option<ExitCode> {
    if std::env::var_os(PINNED_ENV).is_some() {
        return None;
    }
    let cpu = last_allowed_cpu()?;
    let exe = std::env::current_exe().ok()?;
    // Where pinning is not possible (no `taskset`, affinity calls denied)
    // a probe fails, and the run goes ahead unpinned instead of failing.
    let can_pin = std::process::Command::new("taskset")
        .args(["-c", &cpu.to_string(), "true"])
        .stderr(std::process::Stdio::null())
        .status()
        .is_ok_and(|s| s.success());
    if !can_pin {
        return None;
    }
    let status = std::process::Command::new("taskset")
        .arg("-c")
        .arg(cpu.to_string())
        .arg(exe)
        .args(argv)
        .env(PINNED_ENV, cpu.to_string())
        .env(HOST_CPUS_ENV, host_cpus().to_string())
        .status()
        .ok()?;
    Some(ExitCode::from(status.code().map_or(1, |c| c as u8)))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return match compare::main(&argv[1..]) {
            Ok(any_worse) => ExitCode::from(u8::from(any_worse)),
            Err(e) => {
                eprintln!("{e}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if let Some(code) = rerun_pinned(&argv) {
        return code;
    }
    let names: Vec<&str> = match &args.workload {
        Some(name) => vec![name.as_str()],
        None => catalog::WORKLOADS.to_vec(),
    };
    let mut all_correct = true;
    for name in names {
        all_correct &= run_one(name, &args.cfg, args.out.as_deref());
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
