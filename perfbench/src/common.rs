//! What every workload shares: the measured library job, per-input timing
//! samples, solver counter deltas, the traced per-layer split, and the
//! result record `main` prints.

use crate::calib::{cpu_ns, wall_ns, Speed};
use crate::stat::{geomean, median, quantile};
use codegenplus::{CodeGen, CodeGenError, Generated, Statement};
use omega::trace::{Collector, Trace};
use std::collections::BTreeMap;
use std::hint::black_box;

/// One named value with its unit.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Shorthand constructor for [`Metric`].
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Everything one workload run reports.
#[derive(Default)]
pub struct Outcome {
    /// Checked operations (correctness checks plus timed operations).
    pub attempted: u64,
    /// Operations whose output was wrong.
    pub failed: u64,
    /// End-to-end metrics (the `--trace 0` result).
    pub e2e: Vec<Metric>,
    /// Per-layer metrics every workload reports (the `--trace 1` result).
    pub layers: Vec<Metric>,
    /// Per-layer metrics that exist on this workload only; printed, not
    /// part of the result object.
    pub extra: Vec<Metric>,
    /// Run metadata: settings, pass and repetition counts, sample counts.
    pub meta: Vec<(&'static str, String)>,
    /// Free-form report lines (the per-layer self-time table).
    pub notes: Vec<String>,
    /// The run's reference job times.
    pub speed: Speed,
}

impl Outcome {
    /// Counts one checked operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 10 {
                eprintln!("perfbench: mismatch: {}", what());
            }
        }
    }

    pub fn meta(&mut self, key: &'static str, value: impl ToString) {
        self.meta.push((key, value.to_string()));
    }

    /// Reports the per-layer times and rates at reference speed too, scaled
    /// by the whole run's median reference time (the end-to-end ones are
    /// scaled sample by sample as they are measured), and the calibration
    /// behind them as metadata.
    pub fn at_reference_speed(&mut self) {
        let slowdown = self.speed.slowdown();
        for m in self.layers.iter_mut().chain(&mut self.extra) {
            match m.unit {
                "s" | "ms" | "us" => m.value /= slowdown,
                "1/s" => m.value *= slowdown,
                _ => {}
            }
        }
        self.meta("reference_ns", self.speed.median_ns());
        self.meta("reference_samples", self.speed.samples());
        self.meta("nominal_reference_ns", crate::calib::NOMINAL_NS);
        self.meta("host_slowdown", slowdown);
    }
}

/// Generator settings of a workload: `threads(1).intra_threads(1)` for
/// every gated measurement; `threads(0)` with the default intra budget
/// for the default-configuration diagnostic. Single-threaded work is timed
/// on CPU time, work other threads may help with on wall time.
#[derive(Clone, Copy, Debug)]
pub struct Cfg {
    pub threads: usize,
    pub intra: usize,
    pub clock: fn() -> f64,
}

/// The single-thread configuration of the gated measurements.
pub const SINGLE: Cfg = Cfg {
    threads: 1,
    intra: 1,
    clock: cpu_ns,
};

/// The library's default configuration (`threads(0)` = available
/// parallelism, intra budget following it).
pub const DEFAULT: Cfg = Cfg {
    threads: 0,
    intra: 0,
    clock: wall_ns,
};

/// The output of one job: the C text (with a trailing newline, exactly as
/// codegend sends it) or the generator's error message.
pub type Output = Result<String, String>;

/// One timed library job: CodeGen+ generation, the stand-in compiler, and
/// rendering to C — what a library caller pays per iteration space.
pub struct Job {
    pub gen_ns: f64,
    pub compile_ns: f64,
    pub job_ns: f64,
    pub out: Output,
}

/// CodeGen+ at the paper's default effort under `cfg`.
fn codegen(stmts: &[Statement], cfg: Cfg, collector: Option<&Collector>) -> CodeGen {
    let cg = CodeGen::new()
        .statements(stmts.to_vec())
        .effort(1)
        .threads(cfg.threads)
        .intra_threads(cfg.intra);
    match collector {
        Some(c) => cg.trace(c.clone()),
        None => cg,
    }
}

/// Untimed generation, for the correctness passes.
pub fn generate(stmts: &[Statement], cfg: Cfg) -> Result<Generated, CodeGenError> {
    codegen(stmts, cfg, None).generate()
}

/// The C text of a generated program, ending in a newline exactly as
/// codegend sends it.
pub fn render(g: &Generated) -> String {
    let mut text = g.to_c();
    if !text.ends_with('\n') {
        text.push('\n');
    }
    text
}

/// Runs one job on `stmts`, optionally under a span collector.
pub fn run_job(stmts: &[Statement], cfg: Cfg, collector: Option<&Collector>) -> Job {
    let clock = cfg.clock;
    let t_job = clock();
    let cg = codegen(stmts, cfg, collector);
    let t_gen = clock();
    let generated = cg.generate();
    let gen_ns = clock() - t_gen;
    match generated {
        Ok(g) => {
            let t_compile = clock();
            let compiled = omega::trace::with_collector(collector.cloned(), || {
                polyir::passes::compile(&g.code)
            });
            let compile_ns = clock() - t_compile;
            black_box(&compiled);
            let text = render(&g);
            Job {
                gen_ns,
                compile_ns,
                job_ns: clock() - t_job,
                out: Ok(text),
            }
        }
        Err(e) => Job {
            gen_ns,
            compile_ns: 0.0,
            job_ns: clock() - t_job,
            out: Err(e.to_string()),
        },
    }
}

/// Per-input timing samples of the timed passes, in nanoseconds at
/// reference speed.
pub struct Timings {
    gen: Vec<Vec<f64>>,
    compile: Vec<Vec<f64>>,
    job: Vec<Vec<f64>>,
    gen_total: f64,
    job_total: f64,
    done: u64,
}

impl Timings {
    pub fn new(inputs: usize) -> Timings {
        Timings {
            gen: vec![Vec::new(); inputs],
            compile: vec![Vec::new(); inputs],
            job: vec![Vec::new(); inputs],
            gen_total: 0.0,
            job_total: 0.0,
            done: 0,
        }
    }

    /// Records `job`, which `speed` has just been brought up to date with.
    pub fn record(&mut self, input: usize, job: &Job, speed: &Speed) {
        let (gen_ns, job_ns) = (
            speed.at_reference(job.gen_ns),
            speed.at_reference(job.job_ns),
        );
        self.gen[input].push(gen_ns);
        self.job[input].push(job_ns);
        if job.out.is_ok() {
            self.compile[input].push(speed.at_reference(job.compile_ns));
        }
        self.gen_total += gen_ns;
        self.job_total += job_ns;
        self.done += 1;
    }

    /// Inputs with at least one sample.
    pub fn inputs_with_samples(&self) -> usize {
        self.gen.iter().filter(|s| !s.is_empty()).count()
    }

    /// Repetitions of the least-repeated input.
    pub fn min_reps(&self) -> usize {
        self.gen.iter().map(Vec::len).min().unwrap_or(0)
    }

    fn medians(samples: &[Vec<f64>]) -> Vec<f64> {
        samples
            .iter()
            .filter(|s| !s.is_empty())
            .map(|s| median(s))
            .collect()
    }

    /// Geometric mean over inputs of each input's median generation time.
    pub fn gen_ms(&self) -> f64 {
        geomean(&Self::medians(&self.gen)) / 1e6
    }

    /// Geometric mean over inputs of each input's p90 generation time.
    pub fn gen_ms_p90_per_input(&self) -> f64 {
        let p90: Vec<f64> = self.gen.iter().map(|s| quantile(s, 0.9)).collect();
        geomean(&p90) / 1e6
    }

    /// p90 across inputs of the per-input median generation times.
    pub fn gen_ms_p90_across_inputs(&self) -> f64 {
        quantile(&Self::medians(&self.gen), 0.9) / 1e6
    }

    /// Generations per second of time spent in `generate`.
    pub fn gen_per_s(&self) -> f64 {
        self.done as f64 / (self.gen_total / 1e9)
    }

    /// Geometric mean over generated inputs of the median compile time.
    pub fn compile_us(&self) -> f64 {
        geomean(&Self::medians(&self.compile)) / 1e3
    }

    /// Geometric mean over inputs of each input's median job time.
    pub fn req_ms(&self) -> f64 {
        geomean(&Self::medians(&self.job)) / 1e6
    }

    /// Pooled p99 of every job time, with its sample count.
    pub fn req_ms_p99(&self) -> (f64, usize) {
        let all: Vec<f64> = self.job.iter().flatten().copied().collect();
        (quantile(&all, 0.99) / 1e6, all.len())
    }

    /// Geometric mean over inputs of each input's p99 job time.
    pub fn req_ms_p99_per_input(&self) -> f64 {
        let p99: Vec<f64> = self.job.iter().map(|s| quantile(s, 0.99)).collect();
        geomean(&p99) / 1e6
    }

    /// Jobs per second of time spent in jobs.
    pub fn req_per_s(&self) -> f64 {
        self.done as f64 / (self.job_total / 1e9)
    }
}

/// Solver work of one pass, from `omega::stats` snapshot deltas.
pub struct Counts(pub omega::stats::Snapshot);

impl Counts {
    /// Counts the solver work `f` does.
    pub fn around<R>(f: impl FnOnce() -> R) -> (R, Counts) {
        let before = omega::stats::snapshot();
        let r = f();
        (r, Counts(omega::stats::snapshot().delta(&before)))
    }

    /// The per-layer `omega.*` counter metrics, divided over `passes`.
    pub fn metrics(&self, passes: u64) -> Vec<Metric> {
        let s = &self.0;
        let per = |v: u64| v as f64 / passes as f64;
        let frac = |num: u64, den: u64| {
            if den == 0 {
                0.0
            } else {
                num as f64 / den as f64
            }
        };
        vec![
            metric("omega.sat_queries", per(s.total()), "count"),
            metric("omega.exact_solves", per(s.exact_solves()), "count"),
            metric("omega.fast_path_frac", s.fast_path_rate(), "frac"),
            metric(
                "omega.cache_hit_frac",
                frac(s.cache_hits, s.total()),
                "frac",
            ),
            metric(
                "omega.gist_queries",
                per(s.gist_hits + s.gist_misses),
                "count",
            ),
            metric(
                "omega.gist_hit_frac",
                frac(s.gist_hits, s.gist_hits + s.gist_misses),
                "frac",
            ),
            metric("omega.evictions", per(s.evictions), "count"),
            metric(
                "omega.degraded",
                per(s.sat_degraded + s.gist_degraded),
                "count",
            ),
        ]
    }
}

/// The per-layer metric each span name's self time is charged to.
/// Spans outside this table are reported as `other` in the split.
const LAYERS: &[(&str, &[&str])] = &[
    ("omega.sat_query_ms", &["sat_query"]),
    ("omega.sat_exact_ms", &["sat_exact"]),
    ("omega.gist_ms", &["gist_query", "gist_exact", "gist"]),
    ("omega.fm_ms", &["fm_eliminate"]),
    ("omega.project_ms", &["project", "approximate"]),
    ("omega.hull_ms", &["hull"]),
    ("omega.par_ms", &["par_task"]),
    ("core.generate_ms", &["cg_generate"]),
    ("core.prepare_ms", &["cg_prepare"]),
    ("core.init_ast_ms", &["cg_init_ast"]),
    ("core.recompute_ms", &["cg_recompute"]),
    (
        "core.lift_ms",
        &["cg_lift", "lift_pass", "lift_split", "cg_minmax"],
    ),
    ("core.lower_ms", &["cg_lower", "merge_ifs"]),
    ("core.par_ms", &["par_map", "par_item"]),
    (
        "polyir.compile_ms",
        &[
            "pass_pipeline",
            "pass_cse",
            "pass_dce",
            "pass_fold",
            "pass_licm",
            "pass_lower",
            "pass_simplify_guards",
        ],
    ),
];

/// Span self time and counts accumulated over traced passes.
#[derive(Default)]
pub struct Split {
    /// Per span name: (spans, exclusive ns).
    spans: BTreeMap<&'static str, (u64, u64)>,
    passes: u64,
}

impl Split {
    pub fn add(&mut self, trace: &Trace) {
        trace.walk(&mut |s| {
            let e = self.spans.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.exclusive_ns();
        });
    }

    pub fn end_pass(&mut self) {
        self.passes += 1;
    }

    /// Spans named `name` per pass.
    pub fn count_per_pass(&self, name: &str) -> f64 {
        self.spans.get(name).map_or(0, |e| e.0) as f64 / self.passes.max(1) as f64
    }

    fn layer_of(name: &str) -> &'static str {
        LAYERS
            .iter()
            .find(|(_, names)| names.contains(&name))
            .map_or("other", |(layer, _)| layer)
    }

    /// Self milliseconds per pass of each layer metric, in table order,
    /// with `other` last.
    pub fn layer_ms(&self) -> Vec<(&'static str, f64)> {
        let mut ns: BTreeMap<&'static str, u64> = BTreeMap::new();
        for (name, (_, excl)) in &self.spans {
            *ns.entry(Self::layer_of(name)).or_default() += excl;
        }
        let per = |v: u64| v as f64 / 1e6 / self.passes.max(1) as f64;
        LAYERS
            .iter()
            .map(|(layer, _)| (*layer, per(ns.get(layer).copied().unwrap_or(0))))
            .chain(std::iter::once((
                "other",
                per(ns.get("other").copied().unwrap_or(0)),
            )))
            .collect()
    }

    /// The printed per-layer self-time table, largest first.
    pub fn table(&self, title: &str) -> Vec<String> {
        let mut rows = self.layer_ms();
        let total: f64 = rows.iter().map(|r| r.1).sum();
        rows.sort_by(|a, b| b.1.total_cmp(&a.1));
        let mut out = vec![format!(
            "split {title}: self time per pass over {} traced passes, as measured (total {total:.3} ms)",
            self.passes
        )];
        for (layer, ms) in rows {
            let share = if total > 0.0 { 100.0 * ms / total } else { 0.0 };
            out.push(format!("split   {layer:<22} {ms:>10.4} ms {share:>6.2}%"));
        }
        out
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Dynamic cost of generated code under the default cost model, with the
/// time the interpreter took.
pub fn dyn_cost(code: &polyir::Stmt, params: &[i64]) -> Result<(u64, f64), String> {
    let compiled = polyir::passes::compile(code);
    let cfg = polyir::ExecConfig {
        record_trace: false,
        ..polyir::ExecConfig::default()
    };
    let t = cpu_ns();
    let run =
        polyir::execute_with(&compiled.optimized, params, &cfg).map_err(|e| format!("{e:?}"))?;
    Ok((
        polyir::CostModel::default().cost(&run.counters),
        cpu_ns() - t,
    ))
}
