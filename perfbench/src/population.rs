//! The `population` workload: 1000 seeded difftest iteration spaces
//! (1–3-D; strides, unions, existentials; 0–2 parameters), generated with
//! the caches reset once per pass so the spaces share them the way an
//! autotuning sweep does.

use crate::calib::cpu_ns;
use crate::common::{dyn_cost, generate, render, Outcome, Output, SINGLE};
use crate::library::{self, Input, Regime, Setup, Spec};
use crate::Args;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::time::Instant;

/// Spaces in the population.
pub const SPACES: u64 = 1000;
/// The error every correctly rejected space reports.
pub const EMPTY: &str = "all statement domains are empty";

/// The population drawn from seeds `base .. base + SPACES`.
pub fn inputs(base: u64) -> Vec<Input> {
    (base..base + SPACES)
        .map(|seed| {
            let case = difftest::gen::gen_case(seed);
            Input {
                name: format!("seed {seed}"),
                stmts: case.statements(),
                params: case.params,
            }
        })
        .collect()
}

/// Worker threads of the oracle.
const ORACLE_THREADS: usize = 2;

/// Fingerprint of a statement trace: correctness compares fingerprints,
/// so the benchmark holds no oracle traces in memory while it measures.
fn fingerprint(trace: &[polyir::TraceEntry]) -> u64 {
    let mut h = DefaultHasher::new();
    trace.hash(&mut h);
    h.finish()
}

/// The oracle's trace fingerprint of every input:
/// `difftest::check::expected_trace` at the case's parameters. It
/// enumerates the difftest box point by point — reference work of the
/// benchmark, not of the program, so it runs once per process, before
/// the timed set-up rounds, on `ORACLE_THREADS` threads.
pub fn oracle(inputs: &[Input]) -> Vec<u64> {
    let mut prints = vec![0; inputs.len()];
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..ORACLE_THREADS)
            .map(|k| {
                s.spawn(move || {
                    inputs
                        .iter()
                        .enumerate()
                        .skip(k)
                        .step_by(ORACLE_THREADS)
                        .map(|(i, input)| {
                            let expected =
                                difftest::check::expected_trace(&input.stmts, &input.params);
                            (i, fingerprint(&expected))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            for (i, p) in h.join().expect("oracle thread panicked") {
                prints[i] = p;
            }
        }
    });
    prints
}

/// Totals of a correctness pass.
#[derive(Default)]
pub struct Totals {
    pub lines: u64,
    pub cost: u64,
    pub rejected: u64,
    pub exec_ns: f64,
}

/// The correctness pass, caches reset once (so it is also a warm-up pass
/// in the timed regime): with an `oracle`, each output must execute the
/// oracle's trace at the case's parameters; a rejection counts as correct
/// only when it is the empty-domain error and CLooG rejects the space too.
/// Returns the reference outputs and the totals. Each input is a lap of
/// the run's [`crate::calib::Speed`].
pub fn check(inputs: &[Input], oracle: Option<&[u64]>, out: &mut Outcome) -> (Vec<Output>, Totals) {
    let mut totals = Totals::default();
    let mut refs = Vec::with_capacity(inputs.len());
    omega::reset_sat_cache();
    for (i, input) in inputs.iter().enumerate() {
        match generate(&input.stmts, SINGLE) {
            Ok(g) => {
                if let Some(oracle) = oracle {
                    let t = cpu_ns();
                    let same = polyir::execute(&g.code, &input.params)
                        .is_ok_and(|run| fingerprint(&run.trace) == oracle[i]);
                    totals.exec_ns += cpu_ns() - t;
                    out.check(same, || {
                        format!("{}: trace differs from the oracle", input.name)
                    });
                }
                totals.lines += polyir::lines_of_code(&g.code, &g.names) as u64;
                match dyn_cost(&g.code, &input.params) {
                    Ok((c, ns)) => {
                        totals.cost += c;
                        totals.exec_ns += ns;
                    }
                    Err(e) => out.check(false, || format!("{}: execution failed: {e}", input.name)),
                }
                refs.push(Ok(render(&g)));
            }
            Err(e) => {
                let msg = e.to_string();
                let cloog_rejects = cloog::Cloog::new()
                    .statements(input.stmts.to_vec())
                    .generate()
                    .is_err();
                out.check(msg == EMPTY && cloog_rejects, || {
                    format!(
                        "{}: rejected with {msg:?} (CLooG rejects: {cloog_rejects})",
                        input.name
                    )
                });
                totals.rejected += 1;
                refs.push(Err(msg));
            }
        }
        out.speed.lap();
    }
    (refs, totals)
}

pub fn run(args: &Args) -> Outcome {
    let spec = Spec {
        title: "population",
        regime: Regime::ColdPass,
        setup_rounds: 3,
        min_passes: 5,
        traced_passes: 2,
        tail_per_input: false,
        build_metric: "difftest.gen_ms",
    };
    let mut out = Outcome::default();
    let t = Instant::now();
    let oracle = oracle(&inputs(args.seed_base));
    out.meta("oracle_s", t.elapsed().as_secs_f64());
    let mut rejected = 0;
    library::run(args, &spec, &mut out, |out| {
        let t = cpu_ns();
        let inputs = inputs(args.seed_base);
        let build_ms = (cpu_ns() - t) / 1e6;
        // The correctness pass is also the warm-up: one pass in the timed
        // regime.
        let (refs, totals) = check(&inputs, Some(&oracle), out);
        rejected = totals.rejected;
        Setup {
            inputs,
            refs,
            lines: totals.lines,
            cost: totals.cost,
            exec_ns: totals.exec_ns,
            build_ms,
        }
    });
    out.meta(
        "inputs",
        format!(
            "difftest seeds {}..{} ({rejected} rejected as empty)",
            args.seed_base,
            args.seed_base + SPACES,
        ),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The population's totals are its own, not the kernels'.
    #[test]
    fn population_totals_differ_from_the_kernels() {
        let inputs = inputs(0);
        let mut out = Outcome::default();
        let (_, totals) = check(&inputs, Some(&oracle(&inputs)), &mut out);
        assert_eq!(out.failed, 0);
        assert_ne!(totals.lines, 309);
        assert_ne!(totals.cost, 7_702_324);
    }
}
