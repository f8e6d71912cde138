//! Run the full 1-D Particle-in-Cell kernel — gathers *and* the true
//! scatter deposit, whose write target goes through the particle
//! permutation — on real threads: each PE a resumable task on a core-sized
//! pool of worker threads (it runs the instances it owns, yields while a
//! remote page is on its way, and re-evaluates the instance from the start
//! when the reply is in), channels as the network, synchronization done
//! *entirely* by single-assignment memory.
//!
//! ```text
//! cargo run --release --example threaded_pic
//! ```

use sapp::ir::{interpret, ProgramResult};
use sapp::loops::k14_pic1d;
use sapp::runtime::{execute, RuntimeConfig};

fn main() {
    let kernel = k14_pic1d::build_scatter(1001);
    let golden = interpret(&kernel.program).expect("reference");

    for n_pes in [1usize, 2, 4, 8] {
        let cfg = RuntimeConfig::paper(n_pes, 32);
        let rep = execute(&kernel.program, &cfg).expect("runtime");
        let got = ProgramResult {
            arrays: rep.arrays(),
            scalars: rep.scalars.clone(),
            writes: 0,
            reads: 0,
        };
        golden
            .assert_matches(&got, 1e-9)
            .expect("values match the sequential reference");
        let s = &rep.stats;
        println!(
            "{n_pes:>2} threads: writes {:>5}  local {:>6}  cached {:>6}  remote {:>5}  \
             messages {:>6}  refetches {:>3}  → verified ✓",
            s.writes(),
            s.local_reads(),
            s.cached_reads(),
            s.remote_reads(),
            rep.messages,
            s.partial_refetches,
        );
    }
    println!(
        "\nNo locks or barriers anywhere: write-once cells defer readers until\n\
         the producer writes (paper §3), and cached pages never go stale (§4)."
    );
}
