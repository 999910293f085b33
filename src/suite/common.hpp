#pragma once

/// \file common.hpp
/// Shared helpers for benchmark implementations: deterministic input
/// generators and metric plumbing.

#include <cmath>
#include <stdexcept>
#include <string>

#include "core/array.hpp"
#include "core/metrics.hpp"
#include "core/ops.hpp"
#include "core/registry.hpp"
#include "core/rng.hpp"

namespace dpf::suite {

/// Fills an array with uniform values in [lo, hi) from a named stream.
template <typename T, std::size_t R>
void fill_uniform(Array<T, R>& a, std::uint64_t seed, double lo, double hi) {
  const Rng rng(seed);
  assign(a, 0, [&](index_t i) {
    return static_cast<T>(rng.uniform(static_cast<std::uint64_t>(i), lo, hi));
  });
}

/// Diagonally-dominant random dense matrix (guaranteed nonsingular).
inline Array2<double> random_dense(index_t n, index_t m, std::uint64_t seed,
                                   double diag_boost = 0.0) {
  auto a = make_matrix<double>(n, m);
  const Rng rng(seed);
  assign(a, 0, [&](index_t k) {
    const index_t i = k / m;
    const index_t j = k % m;
    double v = rng.uniform(static_cast<std::uint64_t>(k), -1.0, 1.0);
    if (i == j) v += diag_boost;
    return v;
  });
  return a;
}

/// Validates a scatter `dst[map[i]] = src[i]` under last-writer-wins
/// collisions: counts the i whose target holds neither src[i] nor the value
/// of a later writer to the same target. O(map size + dst size).
index_t scatter_misses(const Array1<double>& dst, const Array1<double>& src,
                       const Array1<index_t>& map);

/// cfg.get(key, fallback), or std::invalid_argument naming the key and its
/// range when the value lies outside [lo, hi]: a knob that selects a code
/// path must not silently run another one.
inline index_t get_in_range(const RunConfig& cfg, const std::string& key,
                            index_t fallback, index_t lo, index_t hi) {
  const index_t v = cfg.get(key, fallback);
  if (v < lo || v > hi) {
    throw std::invalid_argument(key + " must be in [" + std::to_string(lo) +
                                ", " + std::to_string(hi) + "], got " +
                                std::to_string(v));
  }
  return v;
}

/// cfg.get(key, fallback), or std::invalid_argument naming the key when the
/// value is below `lo`: a size the runner cannot run must fail before any
/// allocation, not index past an array.
inline index_t get_at_least(const RunConfig& cfg, const std::string& key,
                            index_t fallback, index_t lo) {
  const index_t v = cfg.get(key, fallback);
  if (v < lo) {
    throw std::invalid_argument(key + " must be >= " + std::to_string(lo) +
                                ", got " + std::to_string(v));
  }
  return v;
}

/// cfg.get(key, fallback), or std::invalid_argument naming the key unless
/// the value is a power of two >= 2: the radix-2 FFTs (la/fft.hpp) index
/// past their arrays at any other length.
inline index_t get_power_of_two(const RunConfig& cfg, const std::string& key,
                                index_t fallback) {
  const index_t v = cfg.get(key, fallback);
  if (v < 2 || (v & (v - 1)) != 0) {
    throw std::invalid_argument(key + " must be a power of two >= 2, got " +
                                std::to_string(v));
  }
  return v;
}

/// Runs `body` under a MetricScope and stores the result as a named segment.
template <typename F>
void timed_segment(RunResult& r, const std::string& name, F&& body) {
  MetricScope scope;
  body();
  r.segments[name] = scope.stop();
}

}  // namespace dpf::suite
