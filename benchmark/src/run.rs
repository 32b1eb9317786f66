//! The measuring loop shared by all workloads, and the result it produces.
//!
//! One run of one workload: a discarded warm-up repetition that also does
//! the deep output checks, then timed repetitions on fresh state until the
//! time box closes (or `--reps` of them). Every host-clock metric is the
//! median over the repetitions; every simulated or accounting metric must
//! come out bit-equal on every repetition or the run fails. With tracing on,
//! three more repetitions run inside spans, followed by the per-layer ladder.
//! Host-clock times are calibrated seconds (see `calib`): every repetition
//! is bracketed by the reference kernel and its times scaled by the host's
//! speed over that stretch; the raw rate and the speeds are kept beside.

use crate::calib;
use crate::json::Json;
use crate::ladder;
use crate::spec::{END_TO_END, NOT_MEASURED, PER_LAYER};
use crate::stats::{median, peak_rss_mb, Summary};
use crate::trace::Tracer;
use crate::workloads::{self, Opts, Rep, Walls};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

const TRACED_REPS: usize = 3;

pub struct RunCfg {
    pub opts: Opts,
    /// How long the timed repetitions of one workload may take.
    pub seconds: f64,
    /// A fixed repetition count instead of the time box.
    pub reps: Option<usize>,
    pub trace: bool,
}

pub struct WorkloadResult {
    pub name: &'static str,
    pub sizes: Json,
    pub reps: usize,
    pub attempted: u64,
    pub failed: u64,
    pub host: Vec<(&'static str, Summary)>,
    /// Not metrics, but what the calibration did: the host's speed over
    /// each repetition and the workload's rate in uncalibrated wall seconds.
    pub host_speed: Summary,
    pub raw_rate: Summary,
    pub exact: Vec<(&'static str, f64)>,
    pub per_layer: Option<BTreeMap<&'static str, f64>>,
    pub trace: Option<Json>,
}

/// Everything but the clock must repeat.
fn same_outputs(reference: &Rep, rep: &Rep) -> Result<(), String> {
    let bits = |r: &Rep| {
        r.exact
            .iter()
            .map(|(n, v)| (*n, v.to_bits()))
            .collect::<Vec<_>>()
    };
    if bits(reference) != bits(rep) {
        return Err(format!(
            "a simulated/accounting metric differs between repetitions: {:?} vs {:?}",
            reference.exact, rep.exact
        ));
    }
    if reference.witness != rep.witness {
        return Err(format!(
            "outputs differ between repetitions: {} vs {}",
            reference.witness, rep.witness
        ));
    }
    if (reference.work, reference.attempted, reference.failed)
        != (rep.work, rep.attempted, rep.failed)
    {
        return Err("work or operation counts differ between repetitions".into());
    }
    Ok(())
}

pub fn run_workload(name: &str, cfg: &RunCfg) -> Result<WorkloadResult, String> {
    // Start the high-water mark afresh, so one command measuring several
    // workloads reports each one's own peak. Best effort: needs Linux.
    let _ = std::fs::write("/proc/self/clear_refs", "5");

    let (mut w, mut setup_s) = workloads::build(name, &cfg.opts)?;
    let mut off = Tracer::new(false);
    let reference = w.rep(&mut off, true)?;

    let (rate_name, work_over_wall) = w.rate();
    let (mut walls, mut rates, mut raw_rates, mut speeds) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let rate = |work: f64, wall: f64| {
        if work_over_wall {
            work / wall
        } else {
            wall / work
        }
    };
    let mut parts: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let deadline = Instant::now() + Duration::from_secs_f64(cfg.seconds);
    loop {
        let done = match cfg.reps {
            Some(n) => walls.len() >= n,
            None => !walls.is_empty() && Instant::now() >= deadline,
        };
        if done {
            break;
        }
        let (rep, speed) = calib::bracket(|| w.rep(&mut off, false));
        let rep = rep?;
        same_outputs(&reference, &rep)?;
        rates.push(rate(rep.work, rep.wall_s * speed));
        raw_rates.push(rate(rep.work, rep.wall_s));
        speeds.push(speed);
        walls.push(rep.wall_s * speed);
        for (part, s) in rep.parts {
            parts.entry(part).or_default().push(s * speed);
        }
        setup_s.extend(rep.setup_s.map(|s| s * speed));
        attempted += rep.attempted;
        failed += rep.failed;
    }

    let mut result = WorkloadResult {
        name: w.name(),
        sizes: w.sizes(),
        reps: walls.len(),
        attempted,
        failed,
        host: vec![
            ("setup_s", Summary::of(&setup_s)),
            (rate_name, Summary::of(&rates)),
        ],
        host_speed: Summary::of(&speeds),
        raw_rate: Summary::of(&raw_rates),
        exact: reference.exact.clone(),
        per_layer: None,
        trace: None,
    };

    if cfg.trace {
        // Three traced repetitions, so that the overhead is a median against
        // a median; the spans written out are the last one's.
        let mut tracer = Tracer::new(true);
        let mut traced_walls = Vec::new();
        for round in 0..if cfg.opts.quick { 1 } else { TRACED_REPS } {
            if round > 0 {
                tracer = Tracer::new(true);
            }
            let (traced, speed) = calib::bracket(|| w.rep(&mut tracer, round == 0));
            let traced = traced?;
            same_outputs(&reference, &traced)?;
            traced_walls.push(traced.wall_s * speed);
        }
        let workload_spans = tracer.spans().len();
        let costs = ladder::run(&w.ladder_input(), &mut tracer, cfg.opts.quick)?;
        let walls = Walls {
            total_s: median(&walls),
            parts: parts.iter().map(|(k, v)| (*k, median(v))).collect(),
        };
        let own = w.layer_metrics(&costs, &walls);
        let mut layer = costs.metrics;
        layer.extend(own);
        layer.insert(
            "trace.overhead_share",
            median(&traced_walls) / walls.total_s - 1.0,
        );
        layer.insert("trace.spans", workload_spans as f64);
        result.per_layer = Some(layer);
        result.trace = Some(tracer.to_json(w.name()));
    }
    // Read last: the peak covers set-up, every repetition and the checks.
    result
        .host
        .push(("peak_rss_mb", Summary::of(&[peak_rss_mb()])));
    Ok(result)
}

impl WorkloadResult {
    fn host_summary(&self, name: &str) -> Option<&Summary> {
        self.host.iter().find(|(n, _)| *n == name).map(|(_, s)| s)
    }

    /// The value of an end-to-end metric on this workload, if it measures it.
    pub fn end_to_end(&self, name: &str) -> Option<f64> {
        self.host_summary(name)
            .map(|s| s.median)
            .or_else(|| self.exact.iter().find(|(n, _)| *n == name).map(|(_, v)| *v))
    }

    /// The driver's result line: every end-to-end metric untraced, every
    /// per-layer metric traced. A metric this workload does not measure
    /// reads `NOT_MEASURED` (end to end) or 0 (a layer it never calls).
    pub fn contract_line(&self) -> Json {
        let metrics: Vec<(String, Json)> = match &self.per_layer {
            Some(layer) => PER_LAYER
                .iter()
                .map(|&(name, unit, _)| (name, layer.get(name).copied().unwrap_or(0.0), unit))
                .map(|(name, value, unit)| (name.to_string(), metric_json(value, unit)))
                .collect(),
            None => END_TO_END
                .iter()
                .map(|m| {
                    let value = self.end_to_end(m.name).unwrap_or(NOT_MEASURED);
                    (m.name.to_string(), metric_json(value, m.unit))
                })
                .collect(),
        };
        Json::obj([
            ("correct", Json::Bool(true)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
    }

    /// One line per metric this workload measures: name, value, unit.
    pub fn print(&self) {
        println!(
            "== {} — {} timed repetitions, {} operations attempted, {} failed",
            self.name, self.reps, self.attempted, self.failed
        );
        for m in END_TO_END.iter().filter(|m| m.measured_on(self.name)) {
            match (self.host_summary(m.name), self.end_to_end(m.name)) {
                (Some(s), _) => println!(
                    "{:<34} {:>16.6} {:<7} min {:.6} max {:.6} iqr {:.6} n {} [{}]",
                    m.name,
                    s.median,
                    m.unit,
                    s.min,
                    s.max,
                    s.iqr,
                    s.samples.len(),
                    m.clock.name()
                ),
                (None, Some(v)) => {
                    println!(
                        "{:<34} {:>16.6} {:<7} [{}]",
                        m.name,
                        v,
                        m.unit,
                        m.clock.name()
                    )
                }
                (None, None) => {}
            }
        }
        let (speed, raw) = (&self.host_speed, &self.raw_rate);
        println!(
            "   host speed over the repetitions: median {:.4} min {:.4} max {:.4} (1 = nominal); \
             uncalibrated rate: median {:.6} iqr {:.6}",
            speed.median, speed.min, speed.max, raw.median, raw.iqr
        );
        if let Some(layer) = &self.per_layer {
            for &(name, unit, _) in &PER_LAYER {
                if let Some(v) = layer.get(name) {
                    println!("{name:<34} {v:>16.6} {unit}");
                }
            }
            for (name, v) in layer.iter().filter(|(n, _)| n.ends_with("_share")) {
                let residual = name.ends_with("self_share") || name.ends_with("unexplained_share");
                if residual && *v > 0.25 {
                    println!("warning: {name} = {v:.3} > 0.25: a layer is missing from the ladder");
                }
            }
        }
    }

    pub fn to_json(&self) -> Json {
        let mut e2e = Vec::new();
        for m in END_TO_END.iter().filter(|m| m.measured_on(self.name)) {
            let mut fields = vec![
                (
                    "value",
                    Json::Num(self.end_to_end(m.name).unwrap_or(f64::NAN)),
                ),
                ("unit", Json::str(m.unit)),
                ("clock", Json::str(m.clock.name())),
            ];
            if let Some(s) = self.host_summary(m.name) {
                fields.extend([
                    ("min", Json::Num(s.min)),
                    ("max", Json::Num(s.max)),
                    ("iqr", Json::Num(s.iqr)),
                    ("n", Json::Num(s.samples.len() as f64)),
                    (
                        "samples",
                        Json::Arr(s.samples.iter().map(|v| Json::Num(*v)).collect()),
                    ),
                ]);
            }
            e2e.push((m.name.to_string(), Json::obj(fields)));
        }
        let mut fields = vec![
            ("name", Json::str(self.name)),
            ("sizes", self.sizes.clone()),
            ("reps", Json::Num(self.reps as f64)),
            ("ops_attempted", Json::Num(self.attempted as f64)),
            ("ops_failed", Json::Num(self.failed as f64)),
            ("end_to_end", Json::Obj(e2e)),
            (
                "calibration",
                Json::obj([
                    ("reference_nominal_s", Json::Num(calib::NOMINAL_S)),
                    ("host_speed", samples_json(&self.host_speed)),
                    ("uncalibrated_rate", samples_json(&self.raw_rate)),
                ]),
            ),
        ];
        if let Some(layer) = &self.per_layer {
            let unit = |name: &str| PER_LAYER.iter().find(|m| m.0 == name).map_or("", |m| m.1);
            let layer = layer
                .iter()
                .map(|(n, v)| (n.to_string(), metric_json(*v, unit(n))))
                .collect();
            fields.push(("per_layer", Json::Obj(layer)));
        }
        Json::obj(fields)
    }
}

fn samples_json(s: &Summary) -> Json {
    Json::obj([
        ("median", Json::Num(s.median)),
        ("min", Json::Num(s.min)),
        ("max", Json::Num(s.max)),
        ("iqr", Json::Num(s.iqr)),
        (
            "samples",
            Json::Arr(s.samples.iter().map(|v| Json::Num(*v)).collect()),
        ),
    ])
}

fn metric_json(value: f64, unit: &str) -> Json {
    Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))])
}
