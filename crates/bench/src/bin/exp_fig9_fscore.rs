//! Regenerates the corresponding paper result. See ARCHITECTURE.md,
//! "Paper substitutions and experiments".
fn main() {
    darwin_bench::experiments::fig9_fscore();
}
