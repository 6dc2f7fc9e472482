//! # ncs-apps — the paper's benchmark applications
//!
//! Real implementations of the three workloads the paper evaluates NCS on,
//! each in two distributed variants: single-threaded p4 (the baseline) and
//! multithreaded NCS_MTS/p4 (two threads per process):
//!
//! * [`matmul`] — host–node matrix multiplication (Table 1, Figures 13/14);
//! * [`jpeg`] + [`jpeg_dist`] — a real DCT/quantization/RLE image codec and
//!   the compress-half/decompress-half pipeline (Table 2, Figures 15–18);
//! * [`fft`] — decimation-in-frequency FFT with the paper's block-pair
//!   distribution (Table 3, Figures 19–21).
//!
//! Each (application, runtime) pair has one staged driver that schedules
//! the run onto a caller's [`Sim`] and returns a handle: `setup_matmul_p4`,
//! `setup_matmul_ncs_with` (and the nonblocking
//! `setup_matmul_ncs_async_with`), `setup_jpeg_p4`, `setup_jpeg_ncs_with`,
//! `setup_fft_p4` and `fft_ncs_setup_with`. [`run_app`] runs what one of
//! them staged and reports an [`AppRun`].
//!
//! Kernels execute for real and results are verified against sequential
//! references; virtual time is charged through the calibrated [`costs`]
//! models so simulated runs land on the paper's single-node measurements.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod costs;
pub mod fft;
pub mod jpeg;
pub mod jpeg_dist;
pub mod matmul;
pub mod util;
pub mod workloads;

pub use workloads::GrayImage;

use ncs_sim::{Dur, Sim, SimTime};

/// What one run of a staged driver came to.
#[derive(Clone, Copy, Debug)]
pub struct AppRun {
    /// End-to-end virtual time: from zero to the simulator's last event.
    pub elapsed: Dur,
    /// Whether the distributed result matched the sequential reference.
    pub verified: bool,
}

/// The handle a staged driver returns: it checks the result once the
/// simulator has run.
pub trait Verify {
    /// Whether the distributed result matched the sequential reference.
    fn verify(&self) -> bool;
}

impl<H: Verify + ?Sized> Verify for Box<H> {
    fn verify(&self) -> bool {
        (**self).verify()
    }
}

/// Runs what `stage` schedules on `sim` (`&Sim::new()` for a fresh run),
/// asserts that the run ended clean and returns its [`AppRun`] beside the
/// driver's handle.
pub fn run_app<H: Verify>(sim: &Sim, stage: impl FnOnce(&Sim) -> H) -> (AppRun, H) {
    let handle = stage(sim);
    let out = sim.run();
    out.assert_clean();
    let run = AppRun {
        elapsed: out.end_time.since(SimTime::ZERO),
        verified: handle.verify(),
    };
    (run, handle)
}
