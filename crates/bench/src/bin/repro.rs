//! `repro <id>|all [--quick]`: regenerates one paper experiment, or all
//! of them into `EXPERIMENTS.md` and `results/` (see
//! [`ic_bench::cli_main`]).

fn main() {
    ic_bench::cli_main();
}
