//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro all [--scale S] [--json FILE]
//! repro table2|fig2|fig4|fig12|table5|fig13|fig14|fig15|fig16|table6|fig17|table7|table8|fig18|fig19|faults|pipeline|restore|multi|chunks|interp|queries|obs
//! repro bench [--scale S] [--out FILE]        # bench-gate metrics JSON
//! repro bench-compare BASELINE PR [--tolerance T]
//! repro bench-gate                            # absolute floors/ceilings (kishu_bench::gate)
//! repro trace [--scale S] [--out FILE]        # Chrome-trace export of the pipelines
//! repro trace-validate FILE                   # CI smoke: parse + expected spans
//! ```
//!
//! Every experiment honors `KISHU_TRACE=path`: when set, `main` installs an
//! enabled process-global trace (see [`kishu_bench::settings`]), which
//! records spans across the session/pipeline/storage stack, and a
//! Perfetto-loadable Chrome trace is written to `path` on exit. The same
//! trace arms the crash black box (`target/flightrec/`).
//!
//! Outputs land under `target/` by default (`target/repro_output.txt`,
//! `target/repro_results.json`, `target/BENCH_pr.json`) so a repro run
//! never litters the source tree; `--json` / `--out` override the paths.

use std::io::Write as _;

use kishu_bench::experiments::{
    checkout, checkpoint, chunks, interp, multi, obs, pipeline, queries, restore, robustness,
    sweeps, tracking, workload_tables,
};
use kishu_bench::report::Table;
use kishu_bench::settings::Settings;
use kishu_testkit::json::Json;

struct Args {
    targets: Vec<String>,
    scale: f64,
    scale_set: bool,
    json: Option<String>,
    out: Option<String>,
    tolerance: f64,
}

fn parse_args() -> Args {
    let mut targets = Vec::new();
    let mut scale = 0.3;
    let mut scale_set = false;
    let mut json = None;
    let mut out = None;
    let mut tolerance = 0.25;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--scale" => {
                scale = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--scale needs a number"));
                scale_set = true;
            }
            "--json" => {
                json = Some(args.next().unwrap_or_else(|| die("--json needs a path")));
            }
            "--out" => {
                out = Some(args.next().unwrap_or_else(|| die("--out needs a path")));
            }
            "--tolerance" => {
                tolerance = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--tolerance needs a number"));
            }
            "--help" | "-h" => {
                println!(
                    "usage: repro [all|table2|fig2|fig4|fig12|table4|table5|fig13|fig14|fig15|fig16|table6|fig17|table7|table8|fig18|fig19|faults|pipeline|restore|multi|chunks|interp|queries|obs]... [--scale S] [--json FILE]\n\
                            repro bench [--scale S] [--out FILE]\n\
                            repro bench-compare BASELINE PR [--tolerance T]\n\
                            repro bench-gate\n\
                            repro trace [--scale S] [--out FILE]\n\
                            repro trace-validate FILE\n\
                     KISHU_TRACE=path exports a Chrome trace from any of the above"
                );
                std::process::exit(0);
            }
            other => targets.push(other.to_string()),
        }
    }
    if targets.is_empty() {
        targets.push("all".to_string());
    }
    Args { targets, scale, scale_set, json, out, tolerance }
}

fn die(msg: &str) -> ! {
    eprintln!("repro: {msg}");
    std::process::exit(2);
}

/// Write `content` to `path`, creating parent directories.
fn write_file(path: &str, content: &str) {
    if let Some(parent) = std::path::Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)
                .unwrap_or_else(|e| die(&format!("cannot create {}: {e}", parent.display())));
        }
    }
    let mut f = std::fs::File::create(path)
        .unwrap_or_else(|e| die(&format!("cannot create {path}: {e}")));
    f.write_all(content.as_bytes())
        .unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")));
}

/// Install an enabled process-global trace (and the crash black box on
/// it). Runs before any experiment builds a session.
fn install_trace(settings: &Settings) -> &'static kishu_trace::Trace {
    let trace = kishu_trace::install_global(settings.trace());
    kishu_trace::blackbox::install_panic_hook(trace);
    trace
}

/// Export the process-global trace to the `KISHU_TRACE` path. No-op unless
/// that variable enabled tracing — which is the behavior-freedom
/// invariant: with `KISHU_TRACE` unset, no trace was installed and no
/// session recorded a span.
fn export_global_trace(settings: &Settings) {
    let trace = kishu_trace::global();
    let Some(path) = &settings.trace_path else { return };
    write_file(path, &(trace.chrome_json().dump() + "\n"));
    eprintln!(
        "[repro] wrote {path} ({} spans) — load it at ui.perfetto.dev",
        trace.spans().len()
    );
}

/// `repro trace`: run the representative write+read pipeline workloads with
/// tracing force-enabled and export a Perfetto-loadable Chrome trace plus a
/// human-readable summary.
fn run_trace(args: &Args, settings: &Settings) -> ! {
    let trace = install_trace(settings);
    let scale = if args.scale_set { args.scale } else { 0.1 };
    eprintln!("[repro] trace (scale {scale}) ...");
    let p = pipeline::run(scale, 4, true);
    let r = restore::run(scale, 4, restore::CACHE_BYTES);
    eprintln!(
        "[repro] traced ckpt {:.2}ms (serialize {:.2}ms, write {:.2}ms); \
         cold restore {:.2}ms (fetch {:.2}ms, verify {:.2}ms, apply {:.2}ms)",
        p.ckpt_wall.as_secs_f64() * 1e3,
        p.serialize_ns as f64 / 1e6,
        p.write_ns as f64 / 1e6,
        r.cold_wall.as_secs_f64() * 1e3,
        r.cold_fetch_ns as f64 / 1e6,
        r.cold_verify_ns as f64 / 1e6,
        r.cold_apply_ns as f64 / 1e6,
    );
    println!("{}", trace.text_summary());
    let path = args
        .out
        .clone()
        .or_else(|| settings.trace_path.clone())
        .unwrap_or_else(|| "target/trace.json".to_string());
    write_file(&path, &(trace.chrome_json().dump() + "\n"));
    eprintln!(
        "[repro] wrote {path} ({} spans) — load it at ui.perfetto.dev",
        trace.spans().len()
    );
    std::process::exit(0);
}

/// Span names any pipeline-exercising trace export must contain — the
/// write path's classify → serialize/seal → write nest and the read path's
/// fetch → verify/decode → apply nest, the storage and pickle leaves, and
/// the kernel heap's paced sweep.
const EXPECTED_TRACE_SPANS: &[&str] = &[
    "cell.exec",
    "ckpt",
    "ckpt.classify",
    "ckpt.serialize",
    "ckpt.seal",
    "ckpt.write",
    "store.put",
    "pickle.dumps",
    "checkout",
    "checkout.fetch",
    "store.get",
    "checkout.verify",
    "checkout.decode",
    "checkout.apply",
    "pickle.loads",
    "heap.gc",
];

/// `repro trace-validate FILE`: parse a Chrome-trace export and check the
/// pipeline's expected span names are present (the CI trace smoke stage).
fn run_trace_validate(args: &Args) -> ! {
    let [_, path] = &args.targets[..] else {
        die("trace-validate needs exactly one path");
    };
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| die(&format!("cannot read {path}: {e}")));
    let json = Json::parse(&text).unwrap_or_else(|e| die(&format!("{path}: {e}")));
    let Some(Json::Array(events)) = json.get("traceEvents") else {
        die(&format!("{path}: no traceEvents array"));
    };
    let names: std::collections::BTreeSet<&str> = events
        .iter()
        .filter_map(|e| match e.get("name") {
            Some(Json::Str(s)) => Some(s.as_str()),
            _ => None,
        })
        .collect();
    let missing: Vec<&&str> = EXPECTED_TRACE_SPANS
        .iter()
        .filter(|n| !names.contains(**n))
        .collect();
    if !missing.is_empty() {
        eprintln!(
            "trace-validate: {path} is missing expected spans {missing:?} \
             ({} events, saw {names:?})",
            events.len()
        );
        std::process::exit(1);
    }
    println!(
        "trace-validate: OK ({} events, {} distinct span names)",
        events.len(),
        names.len()
    );
    std::process::exit(0);
}

/// `repro bench`: emit the CI gate's metrics JSON. `KISHU_BENCH_QUICK=1`
/// shrinks the scale for the smoke stage unless `--scale` is explicit.
fn run_bench(args: &Args, settings: &Settings) -> ! {
    let quick = std::env::var("KISHU_BENCH_QUICK").is_ok_and(|v| v != "0" && !v.is_empty());
    let scale = if args.scale_set {
        args.scale
    } else if quick {
        0.1
    } else {
        args.scale
    };
    eprintln!("[repro] bench (scale {scale}{}) ...", if quick { ", quick" } else { "" });
    let start = std::time::Instant::now();
    let json = pipeline::bench_json(scale);
    eprintln!("[repro] bench done in {:.1}s", start.elapsed().as_secs_f64());
    let path = args.out.clone().unwrap_or_else(|| "target/BENCH_pr.json".to_string());
    write_file(&path, &(json.pretty() + "\n"));
    eprintln!("[repro] wrote {path}");
    export_global_trace(settings);
    std::process::exit(0);
}

/// `repro bench-compare BASELINE PR`: fail (exit 1) on any metric more than
/// `--tolerance` slower than baseline.
fn run_bench_compare(args: &Args) -> ! {
    let [_, baseline_path, pr_path] = &args.targets[..] else {
        die("bench-compare needs exactly two paths: BASELINE PR");
    };
    let load = |p: &str| -> Json {
        let text = std::fs::read_to_string(p)
            .unwrap_or_else(|e| die(&format!("cannot read {p}: {e}")));
        Json::parse(&text).unwrap_or_else(|e| die(&format!("{p}: {e}")))
    };
    let baseline = load(baseline_path);
    let pr = load(pr_path);
    match pipeline::compare(&baseline, &pr, args.tolerance) {
        Ok(lines) => {
            for l in lines {
                println!("bench-gate: {l}");
            }
            println!("bench-gate: OK (tolerance {:.0}%)", args.tolerance * 100.0);
            std::process::exit(0);
        }
        Err(lines) => {
            for l in lines {
                println!("bench-gate: {l}");
            }
            eprintln!("bench-gate: FAILED");
            std::process::exit(1);
        }
    }
}

/// `repro bench-gate`: evaluate every row of [`kishu_bench::gate::GATES`]
/// against the reports under `target/`; exit 1 if any row fails.
fn run_bench_gate() -> ! {
    let mut failed = false;
    for row in kishu_bench::gate::GATES {
        let text = std::fs::read_to_string(row.file).ok();
        let override_value = std::env::var(row.env).ok();
        match row.evaluate(text.as_deref(), override_value.as_deref()) {
            None => {}
            Some(Ok(line)) => println!("bench-gate: {line}"),
            Some(Err(line)) => {
                eprintln!("bench-gate: {line}");
                failed = true;
            }
        }
    }
    std::process::exit(i32::from(failed));
}

fn main() {
    let args = parse_args();
    let settings = Settings::from_env();
    if settings.trace_path.is_some() {
        install_trace(&settings);
    }
    if args.targets.iter().any(|t| t == "bench") {
        run_bench(&args, &settings);
    }
    if args.targets.first().is_some_and(|t| t == "bench-compare") {
        run_bench_compare(&args);
    }
    if args.targets.first().is_some_and(|t| t == "bench-gate") {
        run_bench_gate();
    }
    if args.targets.first().is_some_and(|t| t == "trace") {
        run_trace(&args, &settings);
    }
    if args.targets.first().is_some_and(|t| t == "trace-validate") {
        run_trace_validate(&args);
    }
    let everything = args.targets.iter().any(|t| t == "all");
    let want = |name: &str| everything || args.targets.iter().any(|t| t == name);
    let mut tables: Vec<Table> = Vec::new();
    let scale = args.scale;

    let run = |name: &str, f: &mut dyn FnMut() -> Table, tables: &mut Vec<Table>| {
        if want(name) {
            eprintln!("[repro] running {name} (scale {scale}) ...");
            let start = std::time::Instant::now();
            let t = f();
            eprintln!("[repro] {name} done in {:.1}s", start.elapsed().as_secs_f64());
            println!("{}", t.render());
            tables.push(t);
        }
    };

    run("table2", &mut || workload_tables::table2(scale), &mut tables);
    run("fig2", &mut || workload_tables::fig2(scale), &mut tables);
    run("table7", &mut || workload_tables::table7(scale), &mut tables);
    run("table8", &mut || workload_tables::table8(scale), &mut tables);
    run("fig4", &mut || sweeps::fig4((2000.0 * scale) as usize + 100), &mut tables);
    run("fig12", &mut robustness::fig12, &mut tables);
    run("table4", &mut robustness::table4, &mut tables);
    run("table5", &mut robustness::table5, &mut tables);
    // The write-pipeline table rides along with table5 (both are the
    // "robustness + checkpoint mechanics" artifact group) and also answers
    // to its own target name.
    if want("table5") || want("pipeline") {
        eprintln!("[repro] running pipeline (scale {scale}) ...");
        let start = std::time::Instant::now();
        let t = pipeline::table(scale);
        eprintln!("[repro] pipeline done in {:.1}s", start.elapsed().as_secs_f64());
        println!("{}", t.render());
        tables.push(t);
    }
    // The read-side sweep rides along with the same artifact group.
    if want("table5") || want("restore") {
        eprintln!("[repro] running restore (scale {scale}) ...");
        let start = std::time::Instant::now();
        let t = restore::table(scale);
        eprintln!("[repro] restore done in {:.1}s", start.elapsed().as_secs_f64());
        println!("{}", t.render());
        tables.push(t);
    }
    run("faults", &mut || robustness::faults(scale), &mut tables);
    run("multi", &mut || multi::table(scale), &mut tables);
    // The storage-engine-v2 sweep also writes its machine-readable ratios
    // (dedup, compression, v1-vs-v2 reduction) under target/.
    if want("chunks") {
        eprintln!("[repro] running chunks (scale {scale}) ...");
        let start = std::time::Instant::now();
        let t = chunks::table(scale);
        eprintln!("[repro] chunks done in {:.1}s", start.elapsed().as_secs_f64());
        println!("{}", t.render());
        tables.push(t);
        let path = args.out.clone().unwrap_or_else(|| "target/CHUNKS.json".to_string());
        write_file(&path, &(chunks::chunks_json(scale).pretty() + "\n"));
        eprintln!("[repro] wrote {path}");
    }
    // The exec-bound engine benchmark defaults to *full* scale (the
    // VM-vs-tree speedup claim is a full-scale claim; quick mode keeps the
    // CI smoke cheap) and writes its machine-readable form — including the
    // speedup the gate floors — under target/INTERP.json.
    if want("interp") {
        let quick = std::env::var("KISHU_BENCH_QUICK").is_ok_and(|v| v != "0" && !v.is_empty());
        let iscale = if args.scale_set {
            args.scale
        } else if quick {
            0.1
        } else {
            1.0
        };
        eprintln!(
            "[repro] running interp (scale {iscale}{}) ...",
            if quick && !args.scale_set { ", quick" } else { "" }
        );
        let start = std::time::Instant::now();
        let r = interp::run(iscale);
        eprintln!("[repro] interp done in {:.1}s", start.elapsed().as_secs_f64());
        let t = interp::table_from(&r);
        println!("{}", t.render());
        tables.push(t);
        let path = args.out.clone().unwrap_or_else(|| "target/INTERP.json".to_string());
        write_file(&path, &(interp::json_from(&r, iscale).pretty() + "\n"));
        eprintln!("[repro] wrote {path}");
    }
    // The commit-graph query-surface bench (dashboard diff/history
    // polling) writes its machine-readable form — including the
    // index-vs-scan speedup the gate floors — under target/QUERIES.json.
    if want("queries") {
        eprintln!("[repro] running queries (scale {scale}) ...");
        let start = std::time::Instant::now();
        let r = queries::run(scale);
        eprintln!("[repro] queries done in {:.1}s", start.elapsed().as_secs_f64());
        let t = queries::table_from(&r);
        println!("{}", t.render());
        tables.push(t);
        let path = args.out.clone().unwrap_or_else(|| "target/QUERIES.json".to_string());
        write_file(&path, &(queries::json_from(&r, scale).pretty() + "\n"));
        eprintln!("[repro] wrote {path}");
    }
    // The flight-recorder overhead bench writes its machine-readable form
    // — including the overhead ratio the gate ceilings — under
    // target/OBS.json.
    if want("obs") {
        eprintln!("[repro] running obs (scale {scale}) ...");
        let start = std::time::Instant::now();
        let r = obs::run(scale);
        eprintln!("[repro] obs done in {:.1}s", start.elapsed().as_secs_f64());
        let t = obs::table_from(&r);
        println!("{}", t.render());
        tables.push(t);
        let path = args.out.clone().unwrap_or_else(|| "target/OBS.json".to_string());
        write_file(&path, &(obs::json_from(&r, scale).pretty() + "
"));
        eprintln!("[repro] wrote {path}");
    }
    if want("fig13") || want("fig14") {
        eprintln!("[repro] running fig13+fig14 (scale {scale}) ...");
        let start = std::time::Instant::now();
        let grid = checkpoint::run_all(scale);
        eprintln!("[repro] fig13+fig14 done in {:.1}s", start.elapsed().as_secs_f64());
        for t in [checkpoint::fig13(&grid), checkpoint::fig14(&grid)] {
            println!("{}", t.render());
            tables.push(t);
        }
    }
    run("fig15", &mut || checkout::fig15(scale), &mut tables);
    run("fig16", &mut || checkout::fig16(scale), &mut tables);
    run("table6", &mut || tracking::table6(scale), &mut tables);
    run("fig17", &mut || tracking::fig17(scale), &mut tables);
    run(
        "fig18",
        &mut || sweeps::fig18((120_000.0 * scale) as usize + 1_000),
        &mut tables,
    );
    run("fig19", &mut || sweeps::fig19(1000, (scale * 0.5).min(0.2)), &mut tables);

    if tables.is_empty() {
        die("no experiment matched; see --help");
    }
    // Default artifacts under target/ (never the source tree): the rendered
    // tables and their machine-readable form.
    let text: String = tables.iter().map(|t| t.render() + "\n").collect();
    write_file("target/repro_output.txt", &text);
    eprintln!("[repro] wrote target/repro_output.txt");
    let json_path = args
        .json
        .clone()
        .unwrap_or_else(|| "target/repro_results.json".to_string());
    let json = Json::Array(tables.iter().map(Table::to_json).collect()).pretty();
    write_file(&json_path, &json);
    eprintln!("[repro] wrote {json_path}");
    export_global_trace(&settings);
}
