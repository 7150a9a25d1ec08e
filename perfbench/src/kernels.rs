//! The `kernels-cold` and `kernels-warm` workloads: the five CHiLL
//! kernels of Table 1 at n = 64, with the solver caches reset before
//! every generation (cold) or kept warm from set-up (warm).

use crate::calib::cpu_ns;
use crate::common::{dyn_cost, generate, render, Outcome, Output, Timings, SINGLE};
use crate::library::{self, Input, Regime, Setup, Spec};
use crate::Args;
use codegenplus::{pad_statements, Statement};

/// Problem size of every kernel (Table 1's).
pub const N: i64 = 64;

/// The kernels as generator inputs, padded like `table1` pads them.
pub fn inputs() -> Vec<Input> {
    chill::recipes::all(N)
        .into_iter()
        .map(|k| {
            let stmts: Vec<Statement> = k
                .nest
                .statements()
                .iter()
                .map(|s| Statement::new(s.name.clone(), s.domain.clone()).with_args(s.args.clone()))
                .collect();
            Input {
                name: k.name.to_owned(),
                stmts: pad_statements(&stmts, 0),
                params: k.params,
            }
        })
        .collect()
}

/// The correctness pass: every kernel's CG+ output must execute the
/// statement trace of the CLooG baseline. Returns the reference outputs
/// and the `code_lines` / `dyn_cost` totals, and accumulates the
/// interpreter's time into `exec_ns`. Each kernel is a lap of the run's
/// [`crate::calib::Speed`].
pub fn check(inputs: &[Input], out: &mut Outcome, exec_ns: &mut f64) -> (Vec<Output>, u64, u64) {
    let mut refs = Vec::new();
    let (mut lines, mut cost) = (0u64, 0u64);
    for input in inputs {
        omega::reset_sat_cache();
        let cg = generate(&input.stmts, SINGLE);
        let cl = cloog::Cloog::new()
            .statements(input.stmts.to_vec())
            .generate();
        let (Ok(cg), Ok(cl)) = (cg, cl) else {
            out.check(false, || format!("{}: generation failed", input.name));
            refs.push(Err("generation failed".to_owned()));
            continue;
        };
        let t = cpu_ns();
        let same = match (
            polyir::execute(&cg.code, &input.params),
            polyir::execute(&cl.code, &input.params),
        ) {
            (Ok(a), Ok(b)) => a.trace == b.trace,
            _ => false,
        };
        *exec_ns += cpu_ns() - t;
        out.check(same, || {
            format!(
                "{}: CG+ and CLooG execute different statement traces",
                input.name
            )
        });
        lines += polyir::lines_of_code(&cg.code, &cg.names) as u64;
        match dyn_cost(&cg.code, &input.params) {
            Ok((c, ns)) => {
                cost += c;
                *exec_ns += ns;
            }
            Err(e) => out.check(false, || format!("{}: execution failed: {e}", input.name)),
        }
        refs.push(Ok(render(&cg)));
        out.speed.lap();
    }
    (refs, lines, cost)
}

pub fn run(args: &Args, cold: bool) -> Outcome {
    let regime = if cold { Regime::ColdEach } else { Regime::Warm };
    let spec = Spec {
        title: if cold { "kernels-cold" } else { "kernels-warm" },
        regime,
        setup_rounds: 7,
        // Every kernel gets at least 100 repetitions.
        min_passes: 100,
        traced_passes: 20,
        tail_per_input: true,
        build_metric: "chill.build_ms",
    };
    let mut out = Outcome::default();
    library::run(args, &spec, &mut out, |out| {
        let t = cpu_ns();
        omega::reset_sat_cache();
        let inputs = inputs();
        let build_ms = (cpu_ns() - t) / 1e6;
        let mut exec_ns = 0.0;
        let (refs, lines, cost) = check(&inputs, out, &mut exec_ns);
        // Warm-up: one untimed pass in the workload's own regime.
        let mut warm = Timings::new(inputs.len());
        library::pass(&inputs, &refs, regime, SINGLE, None, &mut warm, out);
        Setup {
            inputs,
            refs,
            lines,
            cost,
            exec_ns,
            build_ms,
        }
    });
    out.meta("inputs", format!("gemv qr swim gemm lu at n={N}"));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Both kernel workloads measure the committed Table 1 snapshot's
    /// CG+ columns: 309 lines and a dynamic cost of 7,702,324 in total.
    #[test]
    fn kernel_totals_match_the_table1_snapshot() {
        let mut out = Outcome::default();
        let (refs, lines, cost) = check(&inputs(), &mut out, &mut 0.0);
        assert_eq!(out.failed, 0);
        assert!(refs.iter().all(Result::is_ok));
        assert_eq!((lines, cost), (309, 7_702_324));
    }

    /// ... and so do both workloads' reported totals.
    #[test]
    fn both_kernel_workloads_report_the_snapshot_totals() {
        let args = Args {
            workload: String::new(),
            seed: 0,
            seconds: 0.0,
            trace: false,
            seed_base: 0,
        };
        for cold in [true, false] {
            let out = run(&args, cold);
            assert_eq!(out.failed, 0);
            let value = |name| out.e2e.iter().find(|m| m.name == name).map(|m| m.value);
            assert_eq!(value("code_lines"), Some(309.0));
            assert_eq!(value("dyn_cost"), Some(7_702_324.0));
        }
    }
}
