//! # agcm-fft — FFT and Fourier polar filtering
//!
//! A from-scratch mixed-radix FFT, the polar Fourier filter `F` of the
//! dynamical core's calculating flow (Eq. 8 of Xiao et al., ICPP 2018), and
//! the transpose-based distributed filter the X-Y-decomposition baseline
//! needs when latitude circles are split across ranks.
//!
//! The FFT is implemented in this workspace rather than imported because the
//! *communication* of the distributed transform is part of the paper's
//! subject (Theorem 4.1 lower-bounds it; §4.2.1 eliminates it).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod complex;
pub mod distributed;
pub mod fft;
pub mod filter;

pub use complex::{Complex, W};
pub use distributed::filter_rows_distributed;
pub use fft::{dft_naive, fft, ifft, irfft, rfft, FftScratch};
pub use filter::{FilterScratch, FilterWorker, FourierFilter};
