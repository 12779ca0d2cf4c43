//! The benchmark binary: see `run.sh --help` and the README.

use flextm_benchmark::alloc::CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(flextm_benchmark::cli::main_with_args(&args));
}
