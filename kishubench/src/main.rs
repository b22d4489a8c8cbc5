//! `kishubench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload from its seed and prints, as the last line of
//! standard output, one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`: every `end_to_end` metric of `BENCHMARK.json` with
//! `--trace 0`, every `per_layer` metric with `--trace 1`. Exits 1 on a
//! correctness mismatch and 2, without a result, on bad arguments, a set
//! `KISHU_*` variable or a failed set-up.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use kishu::KishuConfig;
use kishu_storage::{CheckpointStore, FileStore};
use kishu_testkit::json::Json;

use kishubench::layers::{attribution_table, layer_metrics};
use kishubench::output::{self, end_to_end, result_line};
use kishubench::plan::Workload;
use kishubench::run::{run_pass, PassConfig, PassResult, Stop};
use kishubench::spans::Recorder;
use kishubench::stats::{label, median, percentile};

/// Set-up repetitions of an untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?}; expected one of {names:?}")
                })?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Library crates read `KISHU_*` variables for chunking, compression,
/// group commit, workers, cache budget, tracing and more; a run under any
/// of them would not measure the configuration the benchmark declares.
fn env_guard() -> Result<(), String> {
    let set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("KISHU_"))
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "refusing to run with {} set; unset it",
            set.join(", ")
        ))
    }
}

/// The resolved configuration every session of the run uses.
fn config_record(dir: &std::path::Path) -> Result<Json, String> {
    let cfg = KishuConfig::default();
    let probe = dir.join("probe.log");
    let chunk = FileStore::create(&probe)
        .map_err(|e| format!("probe store: {e}"))?
        .chunk_config();
    let _ = std::fs::remove_file(&probe);
    let chunk = match chunk {
        Some(c) => Json::obj(vec![
            ("enabled", Json::Bool(c.enabled)),
            ("compress", Json::Bool(c.compress)),
            ("min", Json::Int(c.min as i64)),
            ("avg", Json::Int(c.avg as i64)),
            ("max", Json::Int(c.max as i64)),
        ]),
        None => Json::Null,
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Ok(Json::obj(vec![
        ("nproc", Json::Int(nproc as i64)),
        (
            "checkpoint_workers",
            Json::Int(cfg.checkpoint_workers as i64),
        ),
        ("restore_workers", Json::Int(cfg.restore_workers as i64)),
        (
            "checkout_cache_bytes",
            Json::Int(cfg.checkout_cache_bytes as i64),
        ),
        (
            "engine",
            Json::Str(if cfg.minipy_vm { "vm" } else { "tree" }.into()),
        ),
        ("chunk_config", chunk),
        (
            "store",
            Json::Str(
                "FileStore defaults: group commit, barrier writes to the OS without sync_data"
                    .into(),
            ),
        ),
    ]))
}

fn pass_record(p: &PassResult) -> Json {
    let mut fields = vec![
        ("attempted", Json::Int(p.attempted as i64)),
        ("failed", Json::Int(p.failed as i64)),
        ("primary_ops", Json::Int(p.primary.len() as i64)),
        ("secondary_ops", Json::Int(p.secondary.len() as i64)),
        ("checkout_checks", Json::Int(p.checkout_checks as i64)),
        ("oracle_checks", Json::Int(p.oracle_checks as i64)),
        ("resume_checks", Json::Int(p.resume_checks as i64)),
        ("timed_s", Json::Float(p.timed_s)),
        (
            "recomputed_value_mismatches",
            Json::Int(p.recomputed_mismatches as i64),
        ),
        (
            "unserializable_drops",
            Json::Int(p.unserializable_drops as i64),
        ),
        ("mismatches", Json::Int(p.mismatches.len() as i64)),
    ];
    if p.secondary.len() >= 20 {
        let d: Vec<f64> = p.secondary.iter().map(|t| t.wall_ns as f64 / 1e6).collect();
        fields.push((
            "durable_commit_ms",
            Json::obj(vec![
                ("p50", Json::Float(median(&d))),
                ("p90", Json::Float(percentile(&d, 90.0))),
                ("n", Json::Int(d.len() as i64)),
            ]),
        ));
    }
    Json::obj(fields)
}

/// Tracing overhead in percent: the traced pass's primary-op wall time
/// over the untraced pass's, on the operations both ran. A seed replays the
/// same operation sequence, but the time budget cuts the two passes at
/// different points, and operation costs vary along the sequence.
fn tracing_overhead_pct(untraced: &PassResult, traced: &PassResult) -> f64 {
    let n = untraced.primary.len().min(traced.primary.len());
    let total = |p: &PassResult| p.primary[..n].iter().map(|t| t.wall_ns as f64).sum::<f64>();
    (total(traced) / total(untraced) - 1.0) * 100.0
}

fn run(args: &Args, work: &std::path::Path) -> Result<(bool, String), String> {
    let w = args.workload;
    let pass = |setups, traced: bool, tag: &str| {
        run_pass(&PassConfig {
            workload: w,
            seed: args.seed,
            stop: Stop::Seconds(args.seconds),
            dir: work.join(tag),
            setups,
            recorder: traced.then(Recorder::shared),
        })
    };
    let mut record = vec![
        ("workload", Json::Str(w.name().into())),
        ("seed", Json::Int(args.seed as i64)),
        ("seconds", Json::Float(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("op", Json::Str(w.op_name().into())),
        ("config", config_record(work)?),
    ];
    let untraced = pass(if args.trace { 1 } else { SETUPS }, false, "untraced")?;
    let (e2e, tail) = end_to_end(&untraced, w.tail_cap())?;
    record.push(("tail_percentile", Json::Str(label(tail))));
    record.push((
        "samples",
        Json::Object(
            e2e.iter()
                .map(|(k, v)| (k.to_string(), Json::Int(v.samples as i64)))
                .collect(),
        ),
    ));
    record.push(("untraced", pass_record(&untraced)));
    let op_ms: Vec<f64> = untraced
        .primary
        .iter()
        .map(|t| t.wall_ns as f64 / 1e6)
        .collect();
    record.push((
        "op_ms_deciles",
        Json::Array(
            (1..10)
                .map(|d| Json::Float(percentile(&op_ms, d as f64 * 10.0)))
                .collect(),
        ),
    ));
    let e2e_values: BTreeMap<&'static str, f64> = e2e.iter().map(|(k, v)| (*k, v.value)).collect();
    let e2e_samples: BTreeMap<&'static str, usize> =
        e2e.iter().map(|(k, v)| (*k, v.samples)).collect();
    let mut correct = untraced.mismatches.is_empty();
    let (mut attempted, mut failed) = (untraced.attempted, untraced.failed);

    println!(
        "== {} seed {} ({}; tail = {}) ==",
        w.name(),
        args.seed,
        w.op_name(),
        label(tail)
    );
    print!(
        "{}",
        output::table(&output::end_to_end_defs(), &e2e_values, &e2e_samples)
    );

    let line = if args.trace {
        let traced = pass(1, true, "traced")?;
        correct &= traced.mismatches.is_empty();
        attempted += traced.attempted;
        failed += traced.failed;
        let overhead = tracing_overhead_pct(&untraced, &traced);
        let layers = layer_metrics(&traced, overhead);
        record.push(("traced", pass_record(&traced)));
        println!(
            "-- per-layer (traced pass; tracing overhead {overhead:+.2}% on {}) --",
            w.op_name()
        );
        print!("{}", attribution_table(&layers));
        print!(
            "{}",
            output::table(&output::per_layer_defs(), &layers, &BTreeMap::new())
        );
        result_line(
            correct,
            attempted,
            failed,
            &output::per_layer_defs(),
            &layers,
        )?
    } else {
        result_line(
            correct,
            attempted,
            failed,
            &output::end_to_end_defs(),
            &e2e_values,
        )?
    };
    println!(
        "{}",
        Json::obj(vec![(
            "run_record",
            Json::Object(
                record
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), v))
                    .collect()
            )
        )])
        .dump()
    );
    Ok((correct, line))
}

fn main() -> ExitCode {
    let args = match parse_args().and_then(|a| env_guard().map(|_| a)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("kishubench: {e}");
            return ExitCode::from(2);
        }
    };
    let work = PathBuf::from(".bench_work").join(format!(
        "{}-s{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("kishubench: cannot create {}: {e}", work.display());
        return ExitCode::from(2);
    }
    let outcome = run(&args, &work);
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".bench_work");
    match outcome {
        Ok((correct, line)) => {
            println!("{line}");
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("kishubench: {e}");
            ExitCode::from(2)
        }
    }
}
