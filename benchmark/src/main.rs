//! `tdb-benchmark` — the repository's whole-stack benchmark.
//!
//! ```text
//! tdb-benchmark run    --seed S [--workload W] [--seconds N] [--trace [0|1]] [--quick]
//! tdb-benchmark repeat N --seed S [--workload W] [--seconds N] [--quick]
//! ```
//!
//! `run --workload W` runs one workload in this process and prints every
//! metric by name with its unit, then one JSON object on the last line.
//! `run` without a workload runs all five, each in a child process of its
//! own, so peak memory and metric registries never bleed between them.
//! `repeat N` runs N such sets and prints, per workload and end-to-end
//! metric, the median, the quartiles and whether the spread is inside the
//! metric's bound. See README.md for what every metric and workload means.

mod counting;
mod driver;
mod gen;
mod ladder;
mod metrics;
mod oracle;
mod run;
mod schema;
mod spans;
mod stats;
mod workload;

use std::process::{Command, ExitCode, Stdio};

use tdb::obs::Json;

use crate::metrics::END_TO_END;
use crate::run::{Outcome, RunArgs};

const USAGE: &str = "usage:
  tdb-benchmark run --seed S [--workload W] [--seconds N] [--trace [0|1]] [--quick]
  tdb-benchmark repeat N --seed S [--workload W] [--seconds N] [--quick]
workloads: transfer_mem transfer_durable transfer_remote read_cold proof_lookup";

/// Default length of the measured window, the `run_seconds` of
/// BENCHMARK.json.
const DEFAULT_SECONDS: u64 = 20;
const QUICK_SECONDS: u64 = 2;

struct Cli {
    command: String,
    repeat: usize,
    workload: Option<String>,
    seed: u64,
    seconds: Option<u64>,
    trace: bool,
    quick: bool,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut it = args.iter().peekable();
    let command = it.next().ok_or("missing command")?.clone();
    let mut cli = Cli {
        command,
        repeat: 0,
        workload: None,
        seed: 0,
        seconds: None,
        trace: false,
        quick: false,
    };
    let mut seed_given = false;
    if cli.command == "repeat" {
        cli.repeat = it
            .next()
            .and_then(|n| n.parse().ok())
            .filter(|&n| n >= 1)
            .ok_or("repeat needs a count >= 1")?;
    }
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => cli.workload = Some(value("a workload name")?),
            "--seed" => {
                cli.seed = value("a number")?
                    .parse()
                    .map_err(|_| "--seed needs a whole number".to_string())?;
                seed_given = true;
            }
            "--seconds" => {
                let n: u64 = value("a number")?
                    .parse()
                    .map_err(|_| "--seconds needs a whole number".to_string())?;
                if !(1..=60).contains(&n) {
                    return Err("--seconds must be between 1 and 60".into());
                }
                cli.seconds = Some(n);
            }
            "--trace" => {
                // `--trace 0|1`, or a bare `--trace` meaning 1.
                cli.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--quick" => cli.quick = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if !seed_given {
        return Err("--seed is required: the workload's inputs are generated from it".into());
    }
    Ok(cli)
}

impl Cli {
    fn seconds(&self) -> u64 {
        self.seconds.unwrap_or(if self.quick {
            QUICK_SECONDS
        } else {
            DEFAULT_SECONDS
        })
    }
}

/// The contract's result line: exactly `correct`, `attempted`, `failed`,
/// `metrics`.
fn result_json(o: &Outcome) -> Json {
    let mut metrics = Json::obj();
    for m in &o.metrics {
        let mut entry = Json::obj();
        entry.push("value", m.value);
        entry.push("unit", m.unit);
        metrics.push(m.name, entry);
    }
    let mut doc = Json::obj();
    doc.push("correct", o.correct);
    doc.push("attempted", o.attempted);
    doc.push("failed", o.failed);
    doc.push("metrics", metrics);
    doc
}

fn run_one(cli: &Cli, workload: &str) -> ExitCode {
    let args = RunArgs {
        workload: workload.to_string(),
        seed: cli.seed,
        seconds: cli.seconds(),
        trace: cli.trace,
        quick: cli.quick,
    };
    let outcome = match run::run_workload(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{workload}: {e}");
            return ExitCode::from(1);
        }
    };
    if let Some(spec) = workload::spec(workload, args.quick) {
        println!("# why: {}", spec.why);
    }
    println!(
        "# {workload} seed {} window {} s {}",
        args.seed,
        args.seconds,
        if args.trace {
            "traced (per-layer metrics)"
        } else {
            "untraced (end-to-end metrics)"
        }
    );
    for m in &outcome.metrics {
        println!("{:<34} {:>16.4} {:<6} {}", m.name, m.value, m.unit, m.note);
    }
    for p in &outcome.problems {
        println!("PROBLEM: {p}");
    }
    println!("{}", result_json(&outcome).render());
    if outcome.correct && outcome.attempted > 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}

/// Run one workload in a child process; echo its report and return its
/// parsed result line.
fn run_child(cli: &Cli, workload: &str, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["run", "--workload", workload])
        .args(["--seed", &cli.seed.to_string()])
        .args(["--seconds", &cli.seconds().to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if cli.quick {
        cmd.arg("--quick");
    }
    let output = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    if !output.status.success() {
        return Err(format!("{workload} exited with {}", output.status));
    }
    let last = stdout.lines().last().ok_or("no output")?;
    Json::parse(last)
}

fn metric_value(result: &Json, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// All five workloads, each in its own child process.
fn run_set(cli: &Cli) -> ExitCode {
    let mut failed = false;
    for w in workload::NAMES {
        if let Err(e) = run_child(cli, w, cli.trace) {
            eprintln!("{e}");
            failed = true;
        }
    }
    if failed {
        ExitCode::from(2)
    } else {
        ExitCode::SUCCESS
    }
}

/// N full sets; per workload and end-to-end metric: median, quartiles, and
/// whether the spread (IQR / median) is inside the metric's bound.
fn repeat(cli: &Cli) -> ExitCode {
    let workloads: Vec<&str> = match &cli.workload {
        Some(w) => vec![w.as_str()],
        None => workload::NAMES.to_vec(),
    };
    // values[workload][metric] over the sets
    let mut values = vec![vec![Vec::new(); END_TO_END.len()]; workloads.len()];
    let mut failed = false;
    for _ in 0..cli.repeat {
        for (wi, w) in workloads.iter().enumerate() {
            match run_child(cli, w, false) {
                Ok(result) => {
                    for (mi, m) in END_TO_END.iter().enumerate() {
                        if let Some(v) = metric_value(&result, m.name) {
                            values[wi][mi].push(v);
                        }
                    }
                }
                Err(e) => {
                    eprintln!("{e}");
                    failed = true;
                }
            }
        }
    }
    println!();
    println!("# {} sets, seed {}", cli.repeat, cli.seed);
    println!(
        "{:<18} {:<18} {:>14} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "median", "q1", "q3", "spread", "bound"
    );
    let mut outside = 0;
    for (wi, w) in workloads.iter().enumerate() {
        for (mi, m) in END_TO_END.iter().enumerate() {
            let v = &values[wi][mi];
            let med = stats::median(v);
            let (q1, q3, spread) = match (stats::quartiles(v), stats::iqr_share(v)) {
                (Some([q1, _, q3]), Some(s)) => (q1, q3, s),
                _ => (med, med, 0.0),
            };
            // setup_s is judged on its median between sets, not its spread.
            let verdict = if spread <= m.bound {
                "inside"
            } else if m.name == "setup_s" {
                "wide (not judged)"
            } else {
                outside += 1;
                "OUTSIDE"
            };
            println!(
                "{w:<18} {:<18} {med:>14.4} {q1:>14.4} {q3:>14.4} {spread:>8.4} {:>6.3}  {verdict} ({} is better)",
                m.name,
                m.bound,
                m.better.as_str(),
            );
        }
    }
    println!("{outside} metric/workload pairs outside their bound");
    if failed {
        ExitCode::from(2)
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(msg) => {
            eprintln!("{msg}\n{USAGE}");
            return ExitCode::from(64);
        }
    };
    match (cli.command.as_str(), &cli.workload) {
        ("run", Some(w)) => run_one(&cli, w),
        ("run", None) => run_set(&cli),
        ("repeat", _) => repeat(&cli),
        (other, _) => {
            eprintln!("unknown command '{other}'\n{USAGE}");
            ExitCode::from(64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::PER_LAYER;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_drivers_command_line() {
        let cli = parse(&args(
            "run --workload read_cold --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(cli.workload.as_deref(), Some("read_cold"));
        assert_eq!((cli.seed, cli.seconds(), cli.trace), (7, 10, true));
        let cli = parse(&args("run --seed 7 --trace 0 --quick")).unwrap();
        assert_eq!((cli.trace, cli.seconds()), (false, QUICK_SECONDS));
        let cli = parse(&args("run --seed 7 --trace --workload x")).unwrap();
        assert!(cli.trace && cli.workload.as_deref() == Some("x"));
        let cli = parse(&args("repeat 3 --seed 1")).unwrap();
        assert_eq!(cli.repeat, 3);
        assert!(
            parse(&args("run --workload x")).is_err(),
            "seed is required"
        );
        assert!(parse(&args("run --seed 1 --seconds 0")).is_err());
        assert!(parse(&args("run --seed 1 --bogus")).is_err());
        assert!(parse(&args("repeat --seed 1")).is_err());
    }

    /// BENCHMARK.json is the contract other tools read; the tables in
    /// `metrics.rs` are what the program reports. They must not drift.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
        let str_of = |j: &Json, k: &str| j.get(k).and_then(Json::as_str).unwrap().to_string();

        let e2e = doc.get("end_to_end").and_then(Json::as_arr).unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, m) in e2e.iter().zip(END_TO_END.iter()) {
            assert_eq!(str_of(j, "name"), m.name);
            assert_eq!(str_of(j, "unit"), m.unit);
            assert_eq!(str_of(j, "better"), m.better.as_str());
            assert_eq!(j.get("bound").and_then(Json::as_f64), Some(m.bound));
            assert!(m.bound <= 0.25);
        }
        let setup = &END_TO_END[0];
        assert_eq!(setup.name, "setup_s");
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));

        let layers = doc.get("per_layer").and_then(Json::as_arr).unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());
        assert!(layers.len() <= 128);
        for (j, m) in layers.iter().zip(PER_LAYER.iter()) {
            assert_eq!(str_of(j, "name"), m.name);
            assert_eq!(str_of(j, "unit"), m.unit);
            assert_eq!(str_of(j, "better"), m.better.as_str());
        }

        let workloads = doc.get("workloads").and_then(Json::as_arr).unwrap();
        assert_eq!(workloads.len(), workload::NAMES.len());
        for (j, name) in workloads.iter().zip(workload::NAMES) {
            assert_eq!(str_of(j, "name"), name);
            let spec = workload::spec(name, false).unwrap();
            assert_eq!(str_of(j, "why"), spec.why);
            assert!(spec.why.len() <= 200 && !spec.why.contains('\n'));
        }
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_u64),
            Some(DEFAULT_SECONDS)
        );
    }
}
