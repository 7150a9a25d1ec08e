//! Timed and traced passes of library jobs over a workload's inputs —
//! shared by the kernel and population workloads, and by the daemon
//! workload's library-side per-layer pass.

use crate::calib::{cpu_ns, wall_ns};
use crate::common::{
    metric, peak_rss_mb, run_job, Cfg, Counts, Outcome, Output, Split, Timings, DEFAULT, SINGLE,
};
use crate::stat::median;
use crate::Args;
use codegenplus::Statement;
use omega::trace::Collector;
use std::time::{Duration, Instant};

/// One iteration space the workload generates code for.
pub struct Input {
    pub name: String,
    pub stmts: Vec<Statement>,
    pub params: Vec<i64>,
}

/// How the solver caches are treated during a pass.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Regime {
    /// Reset before every generation (Table 1's cold column).
    ColdEach,
    /// Kept warm from set-up.
    Warm,
    /// Reset once at the start of every pass, so inputs share the caches
    /// the way an autotuning sweep does.
    ColdPass,
}

impl Regime {
    pub fn name(self) -> &'static str {
        match self {
            Regime::ColdEach => "reset before every generation",
            Regime::Warm => "warm from set-up",
            Regime::ColdPass => "reset once per pass",
        }
    }
}

/// One pass over every input, each job a lap of the run's
/// [`crate::calib::Speed`]. Each output is checked against `refs`; traced
/// passes also charge span self time to `split`.
pub fn pass(
    inputs: &[Input],
    refs: &[Output],
    regime: Regime,
    cfg: Cfg,
    mut split: Option<&mut Split>,
    t: &mut Timings,
    out: &mut Outcome,
) {
    if regime == Regime::ColdPass {
        omega::reset_sat_cache();
    }
    for (i, input) in inputs.iter().enumerate() {
        if regime == Regime::ColdEach {
            omega::reset_sat_cache();
        }
        let collector = split.as_ref().map(|_| Collector::new());
        let job = run_job(&input.stmts, cfg, collector.as_ref());
        if let (Some(s), Some(c)) = (split.as_deref_mut(), &collector) {
            s.add(&c.finish());
        }
        out.check(job.out == refs[i], || {
            format!("{}: output differs from the reference", input.name)
        });
        out.speed.lap();
        t.record(i, &job, &out.speed);
    }
    if let Some(s) = split {
        s.end_pass();
    }
}

/// What one set-up round produces.
pub struct Setup {
    pub inputs: Vec<Input>,
    /// The checked output of every input.
    pub refs: Vec<Output>,
    /// `code_lines` and `dyn_cost` of the workload's inputs.
    pub lines: u64,
    pub cost: u64,
    /// Interpreter time of the correctness pass.
    pub exec_ns: f64,
    /// Input construction time.
    pub build_ms: f64,
}

/// How a library workload runs.
pub struct Spec {
    pub title: &'static str,
    pub regime: Regime,
    /// Set-up rounds; `setup_s` is the median of their CPU time at
    /// reference speed, timed in laps of one input each.
    pub setup_rounds: usize,
    /// Timed passes at least, whatever `--seconds` says.
    pub min_passes: u64,
    /// Passes of the traced run and of each side of the `threads(0)`
    /// diagnostic.
    pub traced_passes: u64,
    /// The kernels' tails (geometric means of per-input p90s and p99s, for
    /// a handful of inputs of very different cost) rather than the
    /// population's (p90 across inputs of per-input medians, pooled p99).
    pub tail_per_input: bool,
    /// The per-layer metric input construction is reported as.
    pub build_metric: &'static str,
}

/// Runs a library workload on one CPU (see [`crate::affinity`]):
/// `spec.setup_rounds` rounds of `setup`, the timed passes, and with
/// `--trace 1` the per-layer run. Returns the last round's set-up.
pub fn run(
    args: &Args,
    spec: &Spec,
    out: &mut Outcome,
    mut setup: impl FnMut(&mut Outcome) -> Setup,
) -> Setup {
    let cpu = crate::affinity::pin_here();
    out.meta(
        "pinned_cpu",
        cpu.map_or("none".to_owned(), |c| c.to_string()),
    );
    let mut setup_s = Vec::new();
    let mut build_ms = Vec::new();
    let mut last = None;
    for _ in 0..spec.setup_rounds {
        out.speed.restart();
        let round = setup(out);
        out.speed.lap();
        setup_s.push(out.speed.laps_ns() / 1e9);
        build_ms.push(round.build_ms);
        last = Some(round);
    }
    let s = last.expect("at least one set-up round");
    let timed = timed(
        &s.inputs,
        &s.refs,
        spec.regime,
        spec.min_passes,
        args.seconds,
        out,
    );
    let t = &timed.t;
    let (req_tail, req_samples) = if spec.tail_per_input {
        (t.req_ms_p99_per_input(), t.min_reps())
    } else {
        t.req_ms_p99()
    };
    out.e2e = vec![
        metric("setup_s", median(&setup_s), "s"),
        metric("gen_ms", t.gen_ms(), "ms"),
        metric(
            "gen_ms_tail",
            if spec.tail_per_input {
                t.gen_ms_p90_per_input()
            } else {
                t.gen_ms_p90_across_inputs()
            },
            "ms",
        ),
        metric("gen_per_s", t.gen_per_s(), "1/s"),
        metric("compile_us", t.compile_us(), "us"),
        metric("req_ms", t.req_ms(), "ms"),
        metric("req_ms_tail", req_tail, "ms"),
        metric("req_per_s", t.req_per_s(), "1/s"),
        metric("code_lines", s.lines as f64, "lines"),
        metric("dyn_cost", s.cost as f64, "cost"),
        metric("peak_rss_mb", peak_rss_mb(), "MiB"),
    ];
    out.meta("cache", spec.regime.name());
    out.meta("setup_rounds", spec.setup_rounds);
    out.meta("passes", timed.passes);
    out.meta("reps_per_input", t.min_reps());
    out.meta("req_ms_tail_samples", req_samples);
    out.meta(
        "gen_ms_tail_samples",
        if spec.tail_per_input {
            t.min_reps()
        } else {
            t.inputs_with_samples()
        },
    );
    out.layers.extend(timed.counts.metrics(timed.passes));
    out.layers
        .push(metric("polyir.exec_ms", s.exec_ns / 1e6, "ms"));
    out.extra
        .push(metric(spec.build_metric, median(&build_ms), "ms"));
    if args.trace {
        layers(
            spec.title,
            &s.inputs,
            &s.refs,
            spec.regime,
            spec.traced_passes,
            &timed,
            out,
        );
    }
    s
}

/// Untraced passes with their solver work.
pub struct Timed {
    pub t: Timings,
    pub passes: u64,
    pub counts: Counts,
}

/// Untraced passes until `seconds` have passed and at least `min_passes`
/// ran.
pub fn timed(
    inputs: &[Input],
    refs: &[Output],
    regime: Regime,
    min_passes: u64,
    seconds: f64,
    out: &mut Outcome,
) -> Timed {
    let mut t = Timings::new(inputs.len());
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    out.speed.restart();
    let (passes, counts) = Counts::around(|| {
        let mut passes = 0;
        while passes < min_passes || Instant::now() < deadline {
            pass(inputs, refs, regime, SINGLE, None, &mut t, out);
            passes += 1;
        }
        passes
    });
    Timed { t, passes, counts }
}

/// The traced per-layer run: `passes` traced passes in the workload's
/// regime, compared with the untraced passes and cross-checked against
/// their solver counts, then the `threads(0)` diagnostic and the CLooG
/// control on the same inputs.
pub fn layers(
    title: &str,
    inputs: &[Input],
    refs: &[Output],
    regime: Regime,
    passes: u64,
    untraced: &Timed,
    out: &mut Outcome,
) {
    let mut split = Split::default();
    let mut traced = Timings::new(inputs.len());
    for _ in 0..passes {
        pass(
            inputs,
            refs,
            regime,
            SINGLE,
            Some(&mut split),
            &mut traced,
            out,
        );
    }
    // The traced passes must do the solver work the untraced ones counted.
    let per_pass = |v: u64| v as f64 / untraced.passes as f64;
    let exact = per_pass(untraced.counts.0.exact_solves());
    let gist_misses = per_pass(untraced.counts.0.gist_misses);
    let sat_spans = split.count_per_pass("sat_exact");
    let gist_spans = split.count_per_pass("gist_exact");
    out.check(sat_spans == exact && gist_spans == gist_misses, || {
        format!(
            "{title}: traced pass has {sat_spans} sat_exact / {gist_spans} gist_exact spans per pass, \
             omega::stats counted {exact} exact solves / {gist_misses} gist misses"
        )
    });
    out.notes.push(format!(
        "cross-check {title}: sat_exact spans {sat_spans} = omega.exact_solves {exact}, \
         gist_exact spans {gist_spans} = gist misses {gist_misses} per pass"
    ));
    out.notes.extend(split.table(title));
    for (layer, ms) in split.layer_ms() {
        if LAYER_METRICS.contains(&layer) {
            out.layers.push(metric(layer, ms, "ms"));
        } else if layer == "omega.sat_exact_ms" {
            // Printed only: exactly 0 on warm caches, where
            // omega.exact_solves carries the same information.
            out.extra.push(metric(layer, ms, "ms"));
        }
    }
    out.layers.push(metric(
        "core.par_maps",
        split.count_per_pass("par_map"),
        "count",
    ));
    out.layers.push(metric(
        "trace.overhead_frac",
        traced.gen_ms() / untraced.t.gen_ms(),
        "frac",
    ));
    out.meta("traced_passes", passes);

    // The default configuration against the single-threaded one,
    // alternating so drift hits both sides alike, both on the wall clock
    // (the default one may use more threads). Reported, not gated.
    let mut single = Timings::new(inputs.len());
    let mut default = Timings::new(inputs.len());
    let single_wall = Cfg {
        clock: wall_ns,
        ..SINGLE
    };
    crate::affinity::unpinned(|| {
        for _ in 0..passes {
            pass(inputs, refs, regime, single_wall, None, &mut single, out);
            pass(inputs, refs, regime, DEFAULT, None, &mut default, out);
        }
    });
    out.layers.push(metric(
        "core.par_default_slowdown",
        default.gen_ms() / single.gen_ms(),
        "x",
    ));
    out.meta(
        "default_threads",
        codegenplus::CodeGen::new().resolved_threads(),
    );
    out.layers.push(metric(
        "cloog.gen_ms",
        cloog_ms(inputs, regime, passes),
        "ms",
    ));
}

/// The per-layer self-time metrics every workload reports: the layers that
/// do work on every workload.
const LAYER_METRICS: &[&str] = &[
    "omega.sat_query_ms",
    "omega.gist_ms",
    "omega.fm_ms",
    "omega.project_ms",
    "omega.hull_ms",
    "core.prepare_ms",
    "core.init_ast_ms",
    "core.recompute_ms",
    "core.lift_ms",
    "core.lower_ms",
    "core.par_ms",
    "polyir.compile_ms",
];

/// Geometric mean over inputs of the median CLooG generation time, over
/// `passes` passes in `regime` — the baseline control on the same inputs.
fn cloog_ms(inputs: &[Input], regime: Regime, passes: u64) -> f64 {
    let mut samples = vec![Vec::new(); inputs.len()];
    for _ in 0..passes {
        if regime == Regime::ColdPass {
            omega::reset_sat_cache();
        }
        for (i, input) in inputs.iter().enumerate() {
            if regime == Regime::ColdEach {
                omega::reset_sat_cache();
            }
            let t = cpu_ns();
            let r = cloog::Cloog::new()
                .statements(input.stmts.to_vec())
                .generate();
            samples[i].push(cpu_ns() - t);
            std::hint::black_box(&r);
        }
    }
    let medians: Vec<f64> = samples.iter().map(|s| median(s)).collect();
    crate::stat::geomean(&medians) / 1e6
}
