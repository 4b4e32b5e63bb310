//! The host-speed probe.
//!
//! The benchmark host is shared: the same question takes up to twice as
//! long from one minute to the next while user time still equals wall
//! time, so the slowdown is contention in the shared cores and caches,
//! not lost CPU time. Timed runs therefore split their work into
//! stretches of about a second, run a burst of this probe between
//! stretches, and report every time at the reference speed:
//! `measured × REFERENCE_S / probe time on both sides of its stretch`.
//!
//! The probe is the benchmark's own code over its own fixed data and
//! calls nothing in the program. It runs on both cores at once, since
//! contention can slow one core and not the other and the program's
//! threads run on either. It never runs inside a timed stretch, its
//! timed runs allocate nothing, and each burst starts with an untimed
//! run that brings its data back into cache, so what the program leaves
//! in the caches or the heap does not reach its samples.
//! It does what the questions do most — a transform, a sort and a
//! dominance scan over 16,384 heap-allocated 2-d points — so contention
//! slows it about as much as it slows them.

use std::hint::black_box;
use std::time::Instant;

/// The probe's time on the reference host (Intel Xeon KVM guest, 2
/// vCPUs, 2 MiB L2 per core) in its fast periods: reported times are
/// scaled to it.
pub const REFERENCE_S: f64 = 1.0e-3;
/// Timed probe runs per burst and core, after one untimed warm-up run.
const BURST: usize = 3;

/// The timed samples of one burst, in seconds.
pub struct Burst(Vec<f64>);

/// The probe's data for one core.
struct CoreProbe {
    points: Vec<Vec<f64>>,
    scratch: Vec<Vec<f64>>,
    next: usize,
}

impl CoreProbe {
    fn new() -> Self {
        let mut x = 0x9e37_79b9_7f4a_7c15_u64;
        let mut unit = move || {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (x >> 11) as f64 / (1u64 << 53) as f64
        };
        let points: Vec<Vec<f64>> = (0..16_384)
            .map(|_| vec![unit() * 100_000.0, unit() * 1_300.0])
            .collect();
        let scratch = points.clone();
        Self {
            points,
            scratch,
            next: 0,
        }
    }

    /// One probe run: the distances of every point to one of them,
    /// sorted on the first axis, then the points dominating the median.
    fn run(&mut self) -> f64 {
        let p = &self.points[self.next % self.points.len()];
        let c = [p[0], p[1]];
        self.next += 7_919;
        let t = Instant::now();
        for (s, p) in self.scratch.iter_mut().zip(&self.points) {
            s[0] = (p[0] - c[0]).abs();
            s[1] = (p[1] - c[1]).abs();
        }
        self.scratch.sort_by(|a, b| a[0].total_cmp(&b[0]));
        let m = &self.scratch[self.scratch.len() / 2];
        let q = [m[0], m[1]];
        black_box(
            self.scratch
                .iter()
                .filter(|p| p[0] <= q[0] && p[1] <= q[1])
                .count(),
        );
        t.elapsed().as_secs_f64()
    }

    /// One warm-up run, then [`BURST`] timed ones.
    fn burst(&mut self) -> Vec<f64> {
        self.run();
        (0..BURST).map(|_| self.run()).collect()
    }
}

/// One probe per core of the host (`nproc` = 2).
pub struct HostProbe([CoreProbe; 2]);

impl HostProbe {
    pub fn new() -> Self {
        Self([CoreProbe::new(), CoreProbe::new()])
    }

    /// A burst on this thread and one on another, at the same time.
    pub fn burst(&mut self) -> Burst {
        let [a, b] = &mut self.0;
        let (mut here, there) = std::thread::scope(|s| {
            let there = s.spawn(|| b.burst());
            (a.burst(), there.join())
        });
        // A probe thread that panicked leaves this thread's samples.
        if let Ok(mut there) = there {
            here.append(&mut there);
        }
        Burst(here)
    }
}

/// How much slower than the reference the host ran over a stretch: the
/// median of the samples of the bursts on both sides of it, over
/// [`REFERENCE_S`].
pub fn slowdown(before: &Burst, after: &Burst) -> f64 {
    let both: Vec<f64> = before.0.iter().chain(&after.0).copied().collect();
    crate::report::median(&both) / REFERENCE_S
}
