//! `simbench`: the simulator's wall clock, memory and accuracy, measured
//! from outside through the crates' public API.
//!
//! ```text
//! cargo run --release --manifest-path simbench/Cargo.toml -- \
//!     --workload <paper16|scale|sweep> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` the
//! per-layer ones. See `README.md` for the metric → layer → workload map.

mod cells;
mod measure;
mod workloads;

use measure::{build_profile, commit, host_cores};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;
use workloads::{execute, Outcome, Plan, NAMES};

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: simbench --workload <paper16|scale|sweep> --seed <n> --seconds <s> --trace <0|1>";

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" if NAMES.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => return Err(format!("unknown workload {value:?}")),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad)?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad)?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Build the workload's plan, and the paper reference plan it is checked
/// against when the workload does not contain the paper's cells itself.
fn plans(workload: &str, seed: u64, tiny: bool) -> (Plan, Option<Plan>) {
    let gb_dim = workloads::headline_gb_dim(tiny);
    let reference = Some(workloads::paper_check(gb_dim));
    match workload {
        "paper16" => (workloads::paper16(seed, tiny, gb_dim), None),
        "scale" => (workloads::scale(seed, tiny), reference),
        "sweep" => (workloads::sweep(seed, tiny), reference),
        other => unreachable!("workload {other} passed validation"),
    }
}

/// Run one workload end to end.
fn run(args: &Args, tiny: bool) -> (Outcome, Plan) {
    let origin = Instant::now();
    let (plan, reference) = plans(&args.workload, args.seed, tiny);
    let outcome = execute(&plan, args.seconds, args.trace, reference.as_ref(), origin);
    (outcome, plan)
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_json(out: &Outcome) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.failed == 0,
        out.attempted,
        out.failed
    );
    for (i, m) in out.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // Non-finite values are not JSON; report them as null so the
        // reader sees the gap instead of a parse error.
        let v = if m.value.is_finite() {
            format!("{:?}", m.value)
        } else {
            "null".into()
        };
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    s.push_str("}}");
    s
}

/// The environment every output records.
fn env_line(args: &Args, plan: &Plan) -> String {
    format!(
        "workload={} seed={} seconds={} trace={} timed_reps={} host_cores={} sweep_workers={} \
         profile={} commit={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        plan.timed_reps(args.seconds),
        host_cores(),
        plan.workers,
        build_profile(),
        commit()
    )
}

/// Write the run record (environment, notes, metrics, and in traced runs
/// the layer spans and per-unit trace counts) under `out/` beside the
/// manifest.
fn write_record(args: &Args, plan: &Plan, out: &Outcome) -> std::io::Result<PathBuf> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    let mut s = String::from("{\n");
    let _ = writeln!(s, "  \"env\": \"{}\",", env_line(args, plan));
    let _ = writeln!(s, "  \"fingerprint\": \"{:016x}\",", out.fingerprint);
    let notes: Vec<String> = out
        .notes
        .iter()
        .map(|n| format!("\"{}\"", n.replace('\\', "\\\\").replace('"', "'")))
        .collect();
    let _ = writeln!(s, "  \"notes\": [{}],", notes.join(", "));
    let _ = writeln!(s, "  \"spans\": [");
    let mut first = true;
    for (rep, cell, st) in &out.spans {
        for (layer, start, end) in [
            ("testbed.cell", st.start, st.end),
            ("myrinet.topology", st.start, st.topology),
            ("core.compile", st.topology, st.compile),
            ("gm.cluster_build", st.compile, st.build),
            ("des.run", st.build, st.run),
        ] {
            if !first {
                s.push_str(",\n");
            }
            first = false;
            let _ = write!(
                s,
                "    {{\"rep\": {rep}, \"cell\": \"{cell}\", \"span\": \"{layer}\", \
                 \"start_s\": {start:?}, \"end_s\": {end:?}}}"
            );
        }
    }
    s.push_str("\n  ],\n");
    let _ = writeln!(s, "  \"result\": {}", result_json(out));
    s.push_str("}\n");
    std::fs::write(&path, s)?;
    Ok(path)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("simbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let (out, plan) = run(&args, false);
    println!("# {}", env_line(&args, &plan));
    for note in &out.notes {
        println!("# {note}");
    }
    for m in &out.metrics {
        println!("# {} = {} {}", m.name, m.value, m.unit);
    }
    match write_record(&args, &plan, &out) {
        Ok(path) => println!("# record written to {}", path.display()),
        Err(e) => eprintln!("simbench: could not write the run record: {e}"),
    }
    println!("{}", result_json(&out));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Result<Args, String> {
        parse(&v.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_command_line() {
        let a = args(&[
            "--workload",
            "scale",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ]);
        assert_eq!(
            a,
            Ok(Args {
                workload: "scale".into(),
                seed: 7,
                seconds: 3.0,
                trace: true
            })
        );
        assert!(args(&[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0"
        ])
        .is_err());
        assert!(args(&["--workload", "scale", "--seed", "1", "--seconds", "1"]).is_err());
        assert!(args(&[
            "--workload",
            "scale",
            "--seed",
            "-1",
            "--seconds",
            "1",
            "--trace",
            "0"
        ])
        .is_err());
    }

    /// Metric names and units `BENCHMARK.json` declares, by section.
    fn declared(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section closes")];
        body.split('{')
            .skip(1)
            .map(|entry| {
                let field = |key: &str| {
                    let k = format!("\"{key}\": \"");
                    let at = entry.find(&k).expect("field present") + k.len();
                    entry[at..]
                        .split('"')
                        .next()
                        .expect("closing quote")
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn valid_name(n: &str) -> bool {
        n.len() <= 64
            && n.starts_with(|c: char| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(u: &str) -> bool {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    /// A tiny configuration of every workload emits exactly the declared
    /// metrics, each with its declared unit, and fails no operation.
    #[test]
    fn every_workload_emits_every_declared_metric() {
        for trace in [false, true] {
            let section = if trace { "per_layer" } else { "end_to_end" };
            let want = declared(section);
            assert!(!want.is_empty());
            for workload in NAMES {
                let a = Args {
                    workload: workload.into(),
                    seed: 3,
                    seconds: 0.01,
                    trace,
                };
                let (out, _) = run(&a, true);
                assert_eq!(out.failed, 0, "{workload}: {:?}", out.notes);
                assert!(out.attempted > 0);
                let got: Vec<(String, String)> = out
                    .metrics
                    .iter()
                    .map(|m| (m.name.clone(), m.unit.to_string()))
                    .collect();
                assert_eq!(got, want, "{workload} {section}");
                for m in &out.metrics {
                    assert!(valid_name(&m.name), "{}", m.name);
                    assert!(valid_unit(m.unit), "{}", m.unit);
                    assert!(m.value.is_finite(), "{workload} {} = {}", m.name, m.value);
                }
                let line = result_json(&out);
                assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
            }
        }
    }
}
