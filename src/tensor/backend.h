// Process-wide knobs of the compute stack.
//
// The stack has two layers: tensor/kernels.h (the raw dense and sparse
// kernels plus the row-chunk runner) and tensor/device.h (the naive | blocked
// | sparse devices that dispatch to them and own plans and workspace). These
// knobs tune both without changing any result.
#pragma once

#include <cstddef>

namespace subfed {

/// Caps the number of row panels a single GEMM fans out to on the global
/// thread pool. 0 (the default) means "pool size". Values only affect
/// wall-clock time, never results — kernels accumulate each output element in
/// a thread-count-independent order. Initialized from SUBFEDAVG_MATH_THREADS.
void set_math_threads(std::size_t n) noexcept;
std::size_t math_threads() noexcept;

/// Fraction of nonzero entries below which the sparse device packs the
/// weight operand into CSR (default 0.25, env SUBFEDAVG_SPARSE_DENSITY).
double sparse_density_threshold() noexcept;

}  // namespace subfed
