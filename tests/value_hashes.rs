//! The value bits of every registry kernel, pinned from outside.
//!
//! `tests/expected/value_hashes.txt` holds two FNV-1a hashes per registry
//! kernel at its official size: one of every cell of every final array (a
//! defined cell as its f64 bits, an undefined one as a marker), one of the
//! final reduction values. The sequential interpreter, the counting
//! simulator and the thread engine must each reproduce the first bit for
//! bit, so a change to the evaluator that re-associates one addition, or
//! lets one engine drift from the others, fails here by kernel name. The
//! interpreter and the simulator combine reductions in program order and
//! reproduce the second too. The thread engine's host combines partial
//! results in arrival order, so its reductions, and the arrays of a kernel
//! that reads one (K4), are held to the interpreter's within rounding.
//!
//! On a mismatch the test prints the table it computed, in the file's
//! format.

use sapp::core::exec::simulate;
use sapp::ir::{interpret, ProgramResult};
use sapp::loops::suite::workloads;
use sapp::machine::MachineConfig;
use sapp::mem::SaArray;
use sapp::runtime::{execute_on, RuntimeConfig};

const EXPECTED: &str = include_str!("expected/value_hashes.txt");

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// The hashes of one run's final arrays and final reduction values.
fn hash(arrays: &[SaArray<f64>], scalars: &[f64]) -> (u64, u64) {
    let mut h = Fnv::new();
    for a in arrays {
        h.bytes(&(a.len() as u64).to_le_bytes());
        for addr in 0..a.len() {
            match a.read(addr).expect("in bounds") {
                Some(v) => {
                    h.bytes(&[1]);
                    h.bytes(&v.to_bits().to_le_bytes());
                }
                None => h.bytes(&[0]),
            }
        }
    }
    let mut r = Fnv::new();
    for s in scalars {
        r.bytes(&s.to_bits().to_le_bytes());
    }
    (h.0, r.0)
}

type Table = Vec<(String, (u64, u64))>;

fn expected() -> Table {
    EXPECTED
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|l| {
            let hex = |h: &str| u64::from_str_radix(h, 16).expect("hex hash");
            match l.split_whitespace().collect::<Vec<_>>()[..] {
                [code, arrays, scalars] => (code.to_string(), (hex(arrays), hex(scalars))),
                _ => panic!("`CODE ARRAYS SCALARS` per line, got {l:?}"),
            }
        })
        .collect()
}

/// One engine's table, `(code, hashes)` in registry order.
fn table(run: impl Fn(&sapp::loops::Kernel) -> (u64, u64)) -> Table {
    workloads()
        .iter()
        .map(|w| {
            let k = w.official();
            (k.code.to_string(), run(&k))
        })
        .collect()
}

fn check(engine: &str, got: Table) {
    let want = expected();
    if got != want {
        let mut table = String::new();
        for (code, (arrays, scalars)) in &got {
            table.push_str(&format!("{code} {arrays:016x} {scalars:016x}\n"));
        }
        panic!("{engine}: final values differ from tests/expected/value_hashes.txt; computed:\n{table}");
    }
}

#[test]
fn the_interpreter_reproduces_the_pinned_values() {
    check(
        "interpret",
        table(|k| {
            let r = interpret(&k.program).expect("registry kernels run");
            hash(&r.arrays, &r.scalars)
        }),
    );
}

#[test]
fn the_counting_simulator_reproduces_the_pinned_values() {
    let cfg = MachineConfig::new(16, 32);
    check(
        "simulate",
        table(|k| {
            let r = simulate(&k.program, &cfg).expect("registry kernels run");
            hash(&r.arrays, &r.scalars)
        }),
    );
}

#[test]
fn the_thread_engine_reproduces_the_pinned_values() {
    let cfg = RuntimeConfig::from_machine(&MachineConfig::new(16, 32));
    let want = expected();
    check(
        "thread",
        table(|k| {
            let r = execute_on(&k.program, &cfg, 2).expect("registry kernels run");
            let pinned = want
                .iter()
                .find(|(c, _)| c == k.code)
                .map_or((0, 0), |w| w.1);
            let golden = interpret(&k.program).expect("registry kernels run");
            for (s, (got, want)) in r.scalars.iter().zip(&golden.scalars).enumerate() {
                let tol = 1e-9 * want.abs().max(1.0);
                assert!(
                    (got - want).abs() <= tol,
                    "{}: scalar {s}: {got} vs {want}",
                    k.code
                );
            }
            let reads_reductions = k
                .program
                .nests()
                .flat_map(|n| &n.body)
                .any(|s| !s.value().scalar_reads().is_empty());
            if reads_reductions {
                let got = ProgramResult {
                    arrays: r.arrays(),
                    scalars: golden.scalars.clone(),
                    writes: 0,
                    reads: 0,
                };
                golden
                    .assert_matches(&got, 1e-9)
                    .unwrap_or_else(|e| panic!("{}: {e}", k.code));
                return pinned;
            }
            (hash(&r.arrays(), &r.scalars).0, pinned.1)
        }),
    );
}
