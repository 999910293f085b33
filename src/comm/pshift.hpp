#pragma once

/// \file pshift.hpp
/// PSHIFT — the "polyshift" bundled-shift primitive of CMSSL, which the
/// paper proposes for nonlinear equations on structured grids (section 4,
/// class 2): all requested neighbour views of a grid are produced by one
/// fused operation, a ShiftBundle of its circular shifts. Under
/// DPF_NET=direct the bundle runs every shift in one SPMD region; under
/// DPF_NET=overlap it posts every halo in one region, copies the local
/// parts in a second and consumes the halos in a third. Results are
/// bit-identical to issuing the CSHIFTs separately; each constituent shift
/// is still recorded (with the bundled flag in the event detail when there
/// are two or more) so pattern inventories stay comparable.

#include <span>
#include <vector>

#include "comm/cshift.hpp"
#include "core/array.hpp"

namespace dpf::comm {

/// One constituent shift of a PSHIFT bundle.
struct ShiftSpec {
  std::size_t axis = 0;
  index_t offset = 0;
};

/// Returns one shifted view per spec, cshift(src, spec.axis, spec.offset),
/// all produced by one ShiftBundle.
template <typename T, std::size_t R>
[[nodiscard]] std::vector<Array<T, R>> pshift(
    const Array<T, R>& src, std::span<const ShiftSpec> shifts) {
  std::vector<Array<T, R>> out;
  out.reserve(shifts.size());
  for (std::size_t s = 0; s < shifts.size(); ++s) {
    out.emplace_back(src.shape(), src.layout(), MemKind::Temporary);
  }
  ShiftBundle<T> bundle;
  for (std::size_t s = 0; s < shifts.size(); ++s) {
    bundle.add_cshift(out[s], src, shifts[s].axis, shifts[s].offset);
  }
  bundle.start();
  bundle.finish();
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
