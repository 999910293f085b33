#pragma once

/// \file pshift.hpp
/// PSHIFT — the "polyshift" bundled-shift primitive of CMSSL, which the
/// paper proposes for nonlinear equations on structured grids (section 4,
/// class 2): all requested neighbour views of a grid are produced in one
/// fused pass, so the boundary exchanges of the individual CSHIFTs can be
/// pipelined. Results are bit-identical to issuing the CSHIFTs separately;
/// each constituent shift is still recorded (with the bundled flag in the
/// event detail) so pattern inventories stay comparable.

#include <span>
#include <utility>
#include <vector>

#include "comm/detail.hpp"
#include "core/array.hpp"
#include "core/machine.hpp"
#include "core/ops.hpp"

namespace dpf::comm {

/// One constituent shift of a PSHIFT bundle.
struct ShiftSpec {
  std::size_t axis = 0;
  index_t offset = 0;
};

/// Returns one shifted view per spec, all produced in a single fused sweep.
template <typename T, std::size_t R>
[[nodiscard]] std::vector<Array<T, R>> pshift(
    const Array<T, R>& src, std::span<const ShiftSpec> shifts) {
  const auto& ext = src.shape().extents();
  const auto strides = src.shape().strides();
  const std::size_t k = shifts.size();

  std::vector<Array<T, R>> out;
  out.reserve(k);
  for (std::size_t s = 0; s < k; ++s) {
    out.emplace_back(src.shape(), src.layout(), MemKind::Temporary);
  }

  // The fused sweep stays direct in both DPF_NET modes — splitting the
  // bundle into per-shift messages would undo exactly the pipelining PSHIFT
  // exists for. The constituent events still carry measured time.
  detail::OpTimer timer;

  // Precompute normalized offsets.
  std::vector<index_t> norm(k);
  for (std::size_t s = 0; s < k; ++s) {
    const index_t n = ext[shifts[s].axis];
    index_t o = shifts[s].offset % n;
    if (o < 0) o += n;
    norm[s] = o;
  }

  parallel_range(src.size(), [&](index_t lo, index_t hi) {
    std::array<index_t, R> coord{};
    for (index_t i = lo; i < hi; ++i) {
      // Decode i once.
      index_t rem = i;
      for (std::size_t a = 0; a < R; ++a) {
        coord[a] = rem / strides[a];
        rem %= strides[a];
      }
      // Serve every bundled shift from the decoded coordinate.
      for (std::size_t s = 0; s < k; ++s) {
        const std::size_t ax = shifts[s].axis;
        const index_t n = ext[ax];
        index_t c = coord[ax] + norm[s];
        if (c >= n) c -= n;
        const index_t j = i + (c - coord[ax]) * strides[ax];
        out[s][i] = src[j];
      }
    }
  });

  // Record each constituent shift; detail = 1 marks the bundled form. The
  // measured time is split evenly across the bundle (payload-once: the
  // sweep ran once).
  const double per_shift_seconds =
      k > 0 ? timer.seconds() / static_cast<double>(k) : 0.0;
  for (std::size_t s = 0; s < k; ++s) {
    detail::record(
        CommPattern::CShift, static_cast<int>(R), static_cast<int>(R),
        src.bytes(),
        detail::shift_offproc_bytes(src, shifts[s].axis, norm[s], true),
        /*detail=*/1, per_shift_seconds);
  }
  return out;
}

/// Convenience: the 2R face-neighbour bundle (±1 along every axis) used by
/// nearest-neighbour stencils.
template <typename T, std::size_t R>
[[nodiscard]] std::vector<Array<T, R>> pshift_faces(const Array<T, R>& src) {
  std::vector<ShiftSpec> specs;
  specs.reserve(2 * R);
  for (std::size_t a = 0; a < R; ++a) {
    specs.push_back({a, +1});
    specs.push_back({a, -1});
  }
  return pshift(src, std::span<const ShiftSpec>(specs));
}

}  // namespace dpf::comm
