//! Acceptance measurement for the vectorized sign/bucket kernels: scalar
//! per-key loops vs the width-8 chunked kernels vs (when the host allows
//! it) the runtime-dispatched AVX2 path, per ξ family.
//!
//! Three paths per family:
//!
//! * `scalar` — the per-key `sign()` / `bucket()` trait loop, the
//!   pre-kernel baseline;
//! * `chunked` — the fixed-width-8 array kernels
//!   (`sss_xi::kernels::*_chunked`, `Dispatch::chunked()`), which LLVM
//!   autovectorizes;
//! * `avx2` — the `std::arch` path compiled into every x86-64 build,
//!   measured only when [`Dispatch::get()`] actually selected it (the host
//!   reports AVX2); on any other host the row is simply absent, never
//!   wrong.
//!
//! All three paths are bit-identical by construction (proptest-enforced in
//! `tests/kernel_identity.rs`); this binary measures only throughput.
//!
//! ```text
//! cargo run --release -p sss-bench --bin simd_kernels \
//!     [--batch=65536] [--reps=30] [--seed=1]
//! ```
//!
//! Prints CSV (`family,path,batch,ns_per_elem,melems_per_sec,
//! speedup_vs_scalar`); the recorded numbers live in
//! BENCH_simd_kernels.json. The acceptance bar — chunked ≥ 1.3× scalar
//! for the `cw4` sign sum at batch 64k — is checked on stderr.

use sss_bench::{arg, banner};
use sss_xi::kernels::{self, Dispatch};
use sss_xi::{BucketFamily, Cw2, Cw2Bucket, Cw4, Eh3, SignFamily, Tabulation};
use std::hint::black_box;
use std::time::Instant;

/// One measured row of the comparison.
struct Row {
    family: &'static str,
    path: &'static str,
    ns_per_elem: f64,
}

/// Best-of-`reps` nanoseconds per element for a closure that consumes the
/// whole batch once per call. The inner repeat count keeps each timed
/// region well above timer resolution; best-of cuts scheduler noise.
fn measure<F: FnMut() -> i64>(batch: usize, reps: usize, mut f: F) -> f64 {
    for _ in 0..3 {
        black_box(f());
    }
    let iters = (2_000_000 / batch).max(1);
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        let mut acc = 0i64;
        for _ in 0..iters {
            acc = acc.wrapping_add(f());
        }
        let elapsed = start.elapsed().as_secs_f64();
        black_box(acc);
        best = best.min(elapsed * 1e9 / (iters * batch) as f64);
    }
    best
}

fn main() {
    let batch: usize = arg("batch", 65_536);
    let reps: usize = arg("reps", 30);
    let seed: u64 = arg("seed", 1);
    let width: usize = arg("width", 1_024);
    let d = Dispatch::get();
    banner(
        "simd_kernels",
        "scalar vs chunked vs runtime-dispatched kernel throughput per xi family",
        &[
            ("batch", batch.to_string()),
            ("reps", reps.to_string()),
            ("seed", seed.to_string()),
            ("width", width.to_string()),
            ("dispatch", d.label().to_string()),
            ("accelerated", d.is_accelerated().to_string()),
        ],
    );
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
    let keys: Vec<u64> = (0..batch as u64)
        .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .collect();
    let mut rows: Vec<Row> = Vec::new();

    // --- sign families ---------------------------------------------------
    let cw2 = Cw2::random(&mut rng);
    let cw4 = Cw4::random(&mut rng);
    let eh3 = <Eh3 as SignFamily>::random(&mut rng);
    // Tabulation implements both family traits; qualify the constructor.
    let tab = <Tabulation as SignFamily>::random(&mut rng);

    for (family, f) in [("cw2", &cw2 as &dyn PolyScalar), ("cw4", &cw4)] {
        let coeffs = f.coeffs();
        rows.push(Row {
            family,
            path: "scalar",
            ns_per_elem: measure(batch, reps, || {
                let mut acc = 0i64;
                for &k in black_box(&keys) {
                    acc += f.sign_scalar(k);
                }
                acc
            }),
        });
        rows.push(Row {
            family,
            path: "chunked",
            ns_per_elem: measure(batch, reps, || {
                kernels::sign_sum_chunked(black_box(coeffs), black_box(&keys))
            }),
        });
        if d.is_accelerated() {
            rows.push(Row {
                family,
                path: d.label(),
                ns_per_elem: measure(batch, reps, || {
                    kernels::sign_sum(d, black_box(coeffs), black_box(&keys))
                }),
            });
        }
    }

    let (s0, s) = eh3.seeds();
    rows.push(Row {
        family: "eh3",
        path: "scalar",
        ns_per_elem: measure(batch, reps, || {
            let mut acc = 0i64;
            for &k in black_box(&keys) {
                acc += eh3.sign(k);
            }
            acc
        }),
    });
    rows.push(Row {
        family: "eh3",
        path: "chunked",
        ns_per_elem: measure(batch, reps, || {
            kernels::eh3_sign_sum_chunked(black_box(s0), black_box(s), black_box(&keys))
        }),
    });
    if d.is_accelerated() {
        rows.push(Row {
            family: "eh3",
            path: d.label(),
            ns_per_elem: measure(batch, reps, || {
                kernels::eh3_sign_sum(d, black_box(s0), black_box(s), black_box(&keys))
            }),
        });
    }

    rows.push(Row {
        family: "tabulation",
        path: "scalar",
        ns_per_elem: measure(batch, reps, || {
            let mut acc = 0i64;
            for &k in black_box(&keys) {
                acc += tab.sign(k);
            }
            acc
        }),
    });
    // Tabulation has no SIMD arm (the 2 KiB tables live in L1 and beat a
    // gather); the table-major chunked kernel is its only fast path.
    rows.push(Row {
        family: "tabulation",
        path: "chunked",
        ns_per_elem: measure(batch, reps, || {
            kernels::tab_sign_sum(black_box(tab.tables()), black_box(&keys))
        }),
    });

    // --- bucket families -------------------------------------------------
    let cwb = <Cw2Bucket as BucketFamily>::random(&mut rng);
    let cwb_coeffs = cwb.poly_coeffs().expect("CW bucket family is polynomial");
    let mut out = vec![0usize; batch];
    rows.push(Row {
        family: "cw2_bucket",
        path: "scalar",
        ns_per_elem: measure(batch, reps, || {
            let mut acc = 0usize;
            for &k in black_box(&keys) {
                acc ^= cwb.bucket(k, width);
            }
            acc as i64
        }),
    });
    rows.push(Row {
        family: "cw2_bucket",
        path: "chunked",
        ns_per_elem: measure(batch, reps, || {
            kernels::bucket_batch(
                Dispatch::chunked(),
                black_box(cwb_coeffs),
                width,
                black_box(&keys),
                &mut out,
            );
            out[0] as i64
        }),
    });
    if d.is_accelerated() {
        rows.push(Row {
            family: "cw2_bucket",
            path: d.label(),
            ns_per_elem: measure(batch, reps, || {
                kernels::bucket_batch(d, black_box(cwb_coeffs), width, black_box(&keys), &mut out);
                out[0] as i64
            }),
        });
    }
    rows.push(Row {
        family: "tab_bucket",
        path: "scalar",
        ns_per_elem: measure(batch, reps, || {
            let mut acc = 0usize;
            for &k in black_box(&keys) {
                acc ^= BucketFamily::bucket(&tab, k, width);
            }
            acc as i64
        }),
    });
    rows.push(Row {
        family: "tab_bucket",
        path: "chunked",
        ns_per_elem: measure(batch, reps, || {
            kernels::tab_bucket_batch(black_box(tab.tables()), width, black_box(&keys), &mut out);
            out[0] as i64
        }),
    });

    // --- report ----------------------------------------------------------
    println!("family,path,batch,ns_per_elem,melems_per_sec,speedup_vs_scalar");
    let scalar_ns = |family: &str| {
        rows.iter()
            .find(|r| r.family == family && r.path == "scalar")
            .expect("every family has a scalar row")
            .ns_per_elem
    };
    for r in &rows {
        println!(
            "{},{},{},{:.3},{:.1},{:.2}",
            r.family,
            r.path,
            batch,
            r.ns_per_elem,
            1e3 / r.ns_per_elem,
            scalar_ns(r.family) / r.ns_per_elem
        );
    }
    let cw4_speedup = scalar_ns("cw4")
        / rows
            .iter()
            .find(|r| r.family == "cw4" && r.path == "chunked")
            .expect("cw4 chunked row")
            .ns_per_elem;
    eprintln!(
        "# acceptance: cw4 chunked sign_sum speedup {:.2}x (bar: 1.30x) -> {}",
        cw4_speedup,
        if cw4_speedup >= 1.3 { "PASS" } else { "FAIL" }
    );
}

/// Object-safe view of the polynomial sign families so the CW2/CW4 loops
/// above share code: the scalar per-key sign plus the coefficient slice.
trait PolyScalar {
    fn sign_scalar(&self, key: u64) -> i64;
    fn coeffs(&self) -> &[u64];
}

impl PolyScalar for Cw2 {
    fn sign_scalar(&self, key: u64) -> i64 {
        self.sign(key)
    }
    fn coeffs(&self) -> &[u64] {
        self.poly_coeffs().expect("CW2 is polynomial")
    }
}

impl PolyScalar for Cw4 {
    fn sign_scalar(&self, key: u64) -> i64 {
        self.sign(key)
    }
    fn coeffs(&self) -> &[u64] {
        self.poly_coeffs().expect("CW4 is polynomial")
    }
}
