//! The span-recording store wrapper must not change what a run computes:
//! a short, fixed-length pass of every workload with and without it yields
//! identical reports, store statistics and store file bytes. The traced
//! pass's output must also name every declared metric.

use std::collections::BTreeMap;
use std::path::PathBuf;

use kishubench::adapter::{CellFields, CheckoutFields};
use kishubench::layers::layer_metrics;
use kishubench::output::{end_to_end, end_to_end_defs, per_layer_defs, result_line};
use kishubench::plan::Workload;
use kishubench::run::{run_pass, PassConfig, PassResult, Stop};
use kishubench::spans::Recorder;

fn dir(tag: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("wrapper-{tag}-{}", std::process::id()))
}

fn pass(w: Workload, traced: bool) -> PassResult {
    let tag = format!("{}-{}", w.name(), traced);
    run_pass(&PassConfig {
        workload: w,
        seed: 5,
        stop: Stop::Ops(24),
        dir: dir(&tag),
        setups: 1,
        recorder: traced.then(Recorder::shared),
    })
    .expect("pass runs")
}

/// A cell report without its timings.
fn cell_logic(c: &CellFields) -> CellFields {
    CellFields {
        exec_ns: 0,
        track_ns: 0,
        ckpt_ns: 0,
        serialize_ns: 0,
        write_ns: 0,
        ..c.clone()
    }
}

/// A checkout report without its timings.
fn checkout_logic(c: &CheckoutFields) -> CheckoutFields {
    CheckoutFields {
        wall_ns: 0,
        fetch_ns: 0,
        verify_ns: 0,
        apply_ns: 0,
        ..c.clone()
    }
}

#[test]
fn wrapper_changes_no_result_and_every_metric_is_reported() {
    for w in Workload::ALL {
        let plain = pass(w, false);
        let traced = pass(w, true);
        let name = w.name();
        assert!(
            plain.mismatches.is_empty(),
            "{name}: {:?}",
            plain.mismatches
        );
        assert!(
            traced.mismatches.is_empty(),
            "{name}: {:?}",
            traced.mismatches
        );
        assert_eq!(plain.failed, 0, "{name}");
        assert_eq!(plain.attempted, traced.attempted, "{name}");
        assert_eq!(plain.primary.len(), traced.primary.len(), "{name}");
        let cells = |p: &PassResult| p.cells.iter().map(cell_logic).collect::<Vec<_>>();
        let cos = |p: &PassResult| p.checkouts.iter().map(checkout_logic).collect::<Vec<_>>();
        assert_eq!(cells(&plain), cells(&traced), "{name}: cell reports");
        assert_eq!(cos(&plain), cos(&traced), "{name}: checkout reports");
        assert_eq!(
            plain.stores, traced.stores,
            "{name}: store_stats and file bytes"
        );
        assert_eq!(
            (plain.cache, plain.memo),
            (traced.cache, traced.memo),
            "{name}: cache counters"
        );
        assert!(!plain.stores.is_empty());
        assert!(plain.spans.is_empty());
        assert!(
            !traced.spans.is_empty(),
            "{name}: the traced pass recorded spans"
        );

        let (e2e, _) = end_to_end(&plain, w.tail_cap()).expect("enough samples");
        let values: BTreeMap<&'static str, f64> = e2e.iter().map(|(k, v)| (*k, v.value)).collect();
        result_line(true, 1, 0, &end_to_end_defs(), &values).expect("every end-to-end metric");
        for (k, v) in &values {
            assert!(*v > 0.0, "{name}: end-to-end metric {k} is {v}");
        }
        let layers = layer_metrics(&traced, 0.0);
        result_line(true, 1, 0, &per_layer_defs(), &layers).expect("every per-layer metric");
        assert_eq!(
            layers.len(),
            per_layer_defs().len(),
            "{name}: no undeclared per-layer metric"
        );
    }
}
