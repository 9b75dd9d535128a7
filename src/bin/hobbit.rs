//! `hobbit <experiment> [flags]`: regenerate one table or figure of the
//! paper, or run a sharded survey with `hobbit shard` (`hobbit --help`
//! lists them; see DESIGN.md's experiment index).
fn main() -> std::process::ExitCode {
    experiments::exps::dispatch(std::env::args().skip(1), &mut std::io::stderr()).into()
}
