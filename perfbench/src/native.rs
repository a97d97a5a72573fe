//! Hand-written native references: the same stencils the workloads compile,
//! as plain Rust loops over dense row-major `n × n` arrays, plus the seeded
//! input generator both sides share and a memcpy bandwidth probe.
//!
//! Coordinates follow the program's convention: `p[0]` is the first
//! (slow, row) Fortran dimension, `p[1]` the second (fast) one, 1-based.
//! Every loop adds its terms in the source expression's order, so on the
//! same inputs the references reproduce the compiled kernels bitwise.

use std::hint::black_box;
use std::time::Instant;

/// SplitMix64 finalizer.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seeded input value of array `salt` at 1-based point `p`: a hash of
/// (seed, array, coordinates) mapped to `[0, 1)`. Integer mixing only, so
/// filling measures the program's fill loop rather than `libm`.
pub fn input(seed: u64, salt: u64, p: &[i64]) -> f64 {
    let mut h = mix(seed ^ mix(salt.wrapping_add(0x9E37_79B9_7F4A_7C15)));
    for &c in p {
        h = mix(h ^ c as u64);
    }
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// A dense row-major `n × n` array filled with [`input`].
pub fn filled(n: usize, seed: u64, salt: u64) -> Vec<f64> {
    let mut a = vec![0.0; n * n];
    for i in 0..n {
        for j in 0..n {
            a[i * n + j] = input(seed, salt, &[i as i64 + 1, j as i64 + 1]);
        }
    }
    a
}

/// Problem 9: `T = U + RIP + RIN + U(:,j∓1) + RIP(:,j∓1) + RIN(:,j∓1)`
/// with `RIP = CSHIFT(U,+1,1)`, `RIN = CSHIFT(U,-1,1)` — the nine-point
/// circular sum, fused into one sweep as the optimized kernel runs it.
pub fn problem9(n: usize, u: &[f64], t: &mut [f64]) {
    for i in 0..n {
        let up = &u[((i + 1) % n) * n..][..n];
        let um = &u[((i + n - 1) % n) * n..][..n];
        let uc = &u[i * n..][..n];
        let row = &mut t[i * n..][..n];
        let at = |j: usize| {
            let (w, e) = ((j + n - 1) % n, (j + 1) % n);
            uc[j] + up[j] + um[j] + uc[w] + uc[e] + up[w] + up[e] + um[w] + um[e]
        };
        row[0] = at(0);
        for j in 1..n - 1 {
            row[j] = uc[j]
                + up[j]
                + um[j]
                + uc[j - 1]
                + uc[j + 1]
                + up[j - 1]
                + up[j + 1]
                + um[j - 1]
                + um[j + 1];
        }
        row[n - 1] = at(n - 1);
    }
}

/// One output row of a Jacobi sweep,
/// `T = 0.25 * (CSHIFT(U,1,1) + CSHIFT(U,-1,1) + CSHIFT(U,1,2) + CSHIFT(U,-1,2))`,
/// from the rows after (`next`), before (`prev`) and at (`cur`) it.
fn jacobi_row(next: &[f64], prev: &[f64], cur: &[f64], out: &mut [f64]) {
    let n = out.len();
    out[0] = 0.25 * (next[0] + prev[0] + cur[1] + cur[n - 1]);
    for j in 1..n - 1 {
        out[j] = 0.25 * (next[j] + prev[j] + cur[j + 1] + cur[j - 1]);
    }
    out[n - 1] = 0.25 * (next[n - 1] + prev[n - 1] + cur[0] + cur[n - 2]);
}

/// `sweeps` single-thread Jacobi iterations with the source's `U = T`
/// write-back (the tests' reference for the decomposed versions).
#[cfg(test)]
fn jacobi(n: usize, u: &mut [f64], t: &mut [f64], sweeps: usize) {
    for _ in 0..sweeps {
        for i in 0..n {
            let (next, prev) = (&u[((i + 1) % n) * n..][..n], &u[((i + n - 1) % n) * n..][..n]);
            jacobi_row(next, prev, &u[i * n..][..n], &mut t[i * n..][..n]);
        }
        u.copy_from_slice(t);
    }
}

/// `sweeps` Jacobi iterations computed tile by tile with a deep ghost zone
/// — the hand-written temporal tiling a depth-`sweeps` superstep on a
/// `tiles × tiles` PE grid compiles to. Each tile is copied out with
/// `sweeps` circular ghost cells per side, swept `sweeps` times over a
/// region shrinking by one cell per sweep, and its owned part written to
/// `t`; `u` then takes `t` (the source's write-back). `buffers` holds the
/// two tile buffers across calls, so a step allocates nothing.
pub fn jacobi_tiled(
    n: usize,
    u: &mut [f64],
    t: &mut [f64],
    sweeps: usize,
    tiles: usize,
    buffers: &mut (Vec<f64>, Vec<f64>),
) {
    let (m, h) = (n / tiles, sweeps);
    let w = m + 2 * h;
    let (a, c) = buffers;
    a.resize(w * w, 0.0);
    c.resize(w * w, 0.0);
    for ti in 0..tiles {
        for tj in 0..tiles {
            let wrap = |x: usize| (x + n - h) % n;
            for r in 0..w {
                let src = &u[wrap(ti * m + r) * n..][..n];
                for s in 0..w {
                    a[r * w + s] = src[wrap(tj * m + s)];
                }
            }
            for k in 1..=h {
                for r in k..w - k {
                    for s in k..w - k {
                        c[r * w + s] = 0.25
                            * (a[(r + 1) * w + s]
                                + a[(r - 1) * w + s]
                                + a[r * w + s + 1]
                                + a[r * w + s - 1]);
                    }
                }
                std::mem::swap(a, c);
            }
            for r in 0..m {
                t[(ti * m + r) * n + tj * m..][..m].copy_from_slice(&a[(r + h) * w + h..][..m]);
            }
        }
    }
    u.copy_from_slice(t);
}

/// The hand-written message-passing Jacobi: `n × n` split into row blocks,
/// one per thread, each with a ghost row above and below. A step spawns
/// one scoped thread per block (as the threaded engine spawns per step);
/// each sweep a thread sends its edge rows to its neighbours over
/// channels, receives its ghost rows, computes its block and writes it
/// back.
pub struct JacobiBlocks {
    n: usize,
    /// Per block: `U` with ghost rows (`rows + 2` rows) and `T` (`rows`).
    blocks: Vec<(Vec<f64>, Vec<f64>)>,
}

impl JacobiBlocks {
    /// Split the dense `u` into `threads` row blocks (`threads` divides `n`).
    pub fn new(n: usize, u: &[f64], threads: usize) -> Self {
        assert_eq!(n % threads, 0, "row blocks must tile the grid");
        let rows = n / threads;
        let blocks = u
            .chunks(rows * n)
            .map(|own| {
                let mut g = vec![0.0; (rows + 2) * n];
                g[n..(rows + 1) * n].copy_from_slice(own);
                (g, vec![0.0; rows * n])
            })
            .collect();
        JacobiBlocks { n, blocks }
    }

    /// `sweeps` Jacobi iterations on every block, in parallel.
    pub fn step(&mut self, sweeps: usize) {
        use std::sync::mpsc::channel;
        let (n, p) = (self.n, self.blocks.len());
        let (top_tx, top_rx): (Vec<_>, Vec<_>) = (0..p).map(|_| channel::<Vec<f64>>()).unzip();
        let (bot_tx, bot_rx): (Vec<_>, Vec<_>) = (0..p).map(|_| channel::<Vec<f64>>()).unzip();
        std::thread::scope(|s| {
            for (k, ((u, t), (top, bot))) in
                self.blocks.iter_mut().zip(top_rx.into_iter().zip(bot_rx)).enumerate()
            {
                let to_next = top_tx[(k + 1) % p].clone();
                let to_prev = bot_tx[(k + p - 1) % p].clone();
                s.spawn(move || {
                    let rows = t.len() / n;
                    for _ in 0..sweeps {
                        to_next.send(u[rows * n..(rows + 1) * n].to_vec()).expect("peer alive");
                        to_prev.send(u[n..2 * n].to_vec()).expect("peer alive");
                        u[..n].copy_from_slice(&top.recv().expect("peer alive"));
                        u[(rows + 1) * n..].copy_from_slice(&bot.recv().expect("peer alive"));
                        for (i, out) in t.chunks_mut(n).enumerate() {
                            let (prev, rest) = u[i * n..].split_at(n);
                            let (cur, next) = rest.split_at(n);
                            jacobi_row(&next[..n], prev, cur, out);
                        }
                        u[n..(rows + 1) * n].copy_from_slice(t);
                    }
                });
            }
        });
    }

    /// The dense `U` (`want_t = false`) or `T` state.
    pub fn gather(&self, want_t: bool) -> Vec<f64> {
        let n = self.n;
        let mut out = Vec::with_capacity(n * n);
        for (u, t) in &self.blocks {
            out.extend_from_slice(if want_t { t } else { &u[n..n + t.len()] });
        }
        out
    }
}

/// Memcpy bandwidth probe: the median GB/s of `reps` copies of a `mib` MiB
/// buffer (each byte read once and written once, counted once).
pub fn memcpy_gbps(mib: usize, reps: usize) -> f64 {
    let len = (mib << 20) / 8;
    let src: Vec<f64> = (0..len).map(|i| i as f64).collect();
    let mut dst = vec![0.0; len];
    dst.copy_from_slice(&src);
    let mut rates: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            dst.copy_from_slice(black_box(&src));
            black_box(&dst);
            (len * 8) as f64 / t.elapsed().as_secs_f64() / 1e9
        })
        .collect();
    rates.sort_by(f64::total_cmp);
    rates[rates.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_depend_on_seed_array_and_point() {
        let v = input(1, 0, &[3, 4]);
        assert!((0.0..1.0).contains(&v));
        assert_eq!(v, input(1, 0, &[3, 4]));
        assert_ne!(v, input(2, 0, &[3, 4]));
        assert_ne!(v, input(1, 1, &[3, 4]));
        assert_ne!(v, input(1, 0, &[4, 3]));
    }

    #[test]
    fn row_blocks_match_the_single_thread_sweep() {
        let n = 12;
        let (u, t) = (filled(n, 5, 0), vec![0.0; n * n]);
        for threads in [1, 2, 3] {
            let mut blocks = JacobiBlocks::new(n, &u, threads);
            blocks.step(3);
            let (mut u1, mut t1) = (u.clone(), t.clone());
            jacobi(n, &mut u1, &mut t1, 3);
            assert_eq!(blocks.gather(false), u1);
            assert_eq!(blocks.gather(true), t1);
        }
    }

    #[test]
    fn deep_ghost_tiles_match_the_single_thread_sweep() {
        let n = 16;
        let (mut u1, mut t1) = (filled(n, 9, 0), vec![0.0; n * n]);
        let (mut u2, mut t2) = (u1.clone(), t1.clone());
        jacobi(n, &mut u1, &mut t1, 4);
        jacobi_tiled(n, &mut u2, &mut t2, 4, 2, &mut Default::default());
        assert_eq!((u1, t1), (u2, t2));
    }
}
