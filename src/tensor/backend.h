// Process-wide knob of the compute stack.
//
// The stack has two layers: tensor/kernels.h (the raw dense kernels plus the
// row-chunk runner) and tensor/device.h (the naive | blocked devices that
// dispatch to them and own workspace). This knob tunes both without changing
// any result.
#pragma once

#include <cstddef>

namespace subfed {

/// Caps the number of row panels a single GEMM fans out to on the global
/// thread pool. 0 (the default) means "pool size". Values only affect
/// wall-clock time, never results — kernels accumulate each output element in
/// a thread-count-independent order. Initialized from SUBFEDAVG_MATH_THREADS.
void set_math_threads(std::size_t n) noexcept;
std::size_t math_threads() noexcept;

}  // namespace subfed
